"""The contrast adaptation loop (CAMELION) and its comparison arms.

The loop alternates three stages while the input image and the atlas
labels stay fixed: segment the input with the current model, estimate
two-class partial volumes from the input and that segmentation, fit a
synthesis model on the single (partial volumes, input) pair, and re-render
every atlas image from its own precomputed partial volumes before
retraining the segmenter. Iteration stops when fewer than the configured
fraction of voxels change labels, or at the iteration cap.

Comparison arms: "direct" (train on the original atlases, predict once)
and "nhm" (histogram-match the input to one atlas image, then direct).
"""

from __future__ import annotations

import contextlib
import os
import struct
import uuid
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import harmonize, metrics, synth
from .errors import ArgumentError, CamelionError, FormatError, PersistenceError, PipelineError
from .pv import PvConfig, class_means, estimate_pv, noise_sigma
from .segmenter import AtlasSide, SegmenterConfig, atlas_side, predict, train
from .synth import SynthConfig, SynthModel, synthesize
from .util import LatestMemo, content_key, derived_seed, worker_count
from .volumes import (
    HEADER_SIZE,
    AtlasPair,
    LabelVolume,
    PartialVolumeSet,
    ScalarVolume,
    decode_mvf,
    encode_mvf,
    require_same_header,
    write_mvf,
)


@dataclass(frozen=True)
class LoopConfig:
    max_iterations: int = 5
    change_threshold: float = 0.05
    segmenter: SegmenterConfig = field(default_factory=SegmenterConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    pv: PvConfig = field(default_factory=PvConfig)
    seed: int = 0
    nhm_percentiles: tuple[float, ...] = harmonize.DEFAULT_PERCENTILES
    mask_rel_threshold: float = 0.1

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ArgumentError("max_iterations must be >= 1")
        if not 0 < self.change_threshold < 1:
            raise ArgumentError("change_threshold must be in (0, 1)")
        if self.seed < 0:
            raise ArgumentError("seed must be non-negative")
        # in this range the mask always keeps the input's brightest voxel
        if not 0 <= self.mask_rel_threshold < 1:
            raise ArgumentError("mask_rel_threshold must be in [0, 1)")
        harmonize.check_percentiles(self.nhm_percentiles)


@dataclass
class IterationRecord:
    """One pass of the loop: the fraction of voxels whose label changed and
    the synthesis fit it made."""

    change_fraction: float
    synth: SynthModel


@dataclass
class LoopResult:
    """Everything the loop produced, including the full trajectory."""

    labels_history: list[LabelVolume]          # initial labels first
    atlas_images_history: list[list[ScalarVolume]]
    records: list[IterationRecord]
    converged: bool

    @property
    def final_labels(self) -> LabelVolume:
        return self.labels_history[-1]

    @property
    def iterations_run(self) -> int:
        return len(self.records)

    @property
    def change_fractions(self) -> list[float]:
        return [r.change_fraction for r in self.records]


class _Stage:
    """Context manager that tags any toolkit error with the failing stage.

    partial, when given, is called only when the stage fails; its result
    travels on the PipelineError so computed results are not lost.
    """

    def __init__(self, name: str, partial=None):
        self.name = name
        self.partial = partial

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, CamelionError) and not isinstance(exc, PipelineError):
            partial = self.partial() if self.partial is not None else None
            raise PipelineError(self.name, str(exc), partial=partial) from exc
        return False


# the fixed atlas side, each cache holding one atlas set under one content
# key: the segmenter's AtlasSide (from the labels) and the atlas partial
# volumes (from images and labels)
_ATLAS_SIDES = LatestMemo()
_ATLAS_PV = LatestMemo()


def precompute_atlas_side(atlases: list[AtlasPair], cfg: SegmenterConfig) -> AtlasSide:
    """The segmenter's AtlasSide of the atlas labels.

    Computed once per atlas label set per process: the side is keyed by a
    digest of prior_epsilon and of each atlas's label header, class count
    and label bytes (in atlas order), and only the latest set is kept. The
    atlas images play no part, so every retrain of one loop shares it.
    """
    parts = [cfg.prior_epsilon]
    for pair in atlases:
        parts += [pair.labels.header, pair.labels.num_classes, pair.labels.data]
    return _ATLAS_SIDES.lookup(
        content_key(*parts), lambda: atlas_side([a.labels for a in atlases], cfg))


def precompute_atlas_pv(atlases: list[AtlasPair], cfg: PvConfig,
                        cache_dir=None) -> list[PartialVolumeSet]:
    """Estimate each atlas's partial volumes from its original image and
    labels.

    Computed once per atlas set per process: the set is keyed by a digest
    of cfg and of each atlas's image header, class count, image and labels
    (in atlas order), and only the latest set is kept, so a second run() on
    the same atlases reuses it and a new set evicts the old one before it
    is computed.

    With cache_dir, the set is also kept across processes in the file
    ``<cache_dir>/<key hex>.pvz``. A process that misses its memo reads the
    file back only if it passes every check of _read_atlas_pv_file, and
    otherwise computes the set and overwrites the file; a file that is
    absent is written even when the memo hits.
    """
    parts = [cfg]
    for pair in atlases:
        parts += [pair.image.header, pair.labels.num_classes, pair.image.data, pair.labels.data]
    key = content_key(*parts)
    path = None if cache_dir is None else Path(cache_dir) / f"{key.hex()}.pvz"
    rewrite = False

    def load_or_compute():
        nonlocal rewrite
        if path is not None:
            pvs = _read_atlas_pv_file(path, key, atlases)
            if pvs is not None:
                return pvs
            rewrite = True
        return _estimate_atlas_pvs(atlases, cfg)

    with _Stage("precompute_atlas_pv"):
        pvs = _ATLAS_PV.lookup(key, load_or_compute)
    if path is not None and (rewrite or not path.is_file()):
        _write_atlas_pv_file(path, key, pvs)
    return pvs


def _estimate_atlas_pvs(atlases: list[AtlasPair], cfg: PvConfig) -> list[PartialVolumeSet]:
    """estimate_pv of every atlas on a thread pool (the distance transforms
    release the GIL), in atlas order; a failure raises the error of the
    first failing atlas in that order."""
    with ThreadPoolExecutor(max_workers=min(worker_count(), len(atlases)) or 1) as pool:
        # estimate_pv is looked up at call time, so a rebound module global
        # is the one that runs
        futures = [pool.submit(lambda pair: estimate_pv(pair.image, pair.labels, cfg), pair)
                   for pair in atlases]
        return [future.result() for future in futures]


# the atlas-PV file: magic | content key | atlas count u32 | per atlas, in
# atlas order: length u64 | zlib(encode_mvf(pv))
_PVZ_HEAD = struct.Struct("<4s16sI")
_PVZ_MAGIC = b"PVZ1"
_PVZ_LENGTH = struct.Struct("<Q")


def _read_atlas_pv_file(path: Path, key: bytes,
                        atlases: list[AtlasPair]) -> list[PartialVolumeSet] | None:
    """The atlas PV set that path holds for key and atlases, or None when
    the file is absent or fails any check: magic, key, atlas count, lengths
    that fit the file exactly, zlib and MVF decoding, and each volume's
    kind, header and class count against its atlas."""
    try:
        buf = memoryview(path.read_bytes())
    except OSError:
        return None
    if len(buf) < _PVZ_HEAD.size or _PVZ_HEAD.unpack_from(buf) != (_PVZ_MAGIC, key, len(atlases)):
        return None
    pos = _PVZ_HEAD.size
    pvs = []
    for pair in atlases:
        if pos + _PVZ_LENGTH.size > len(buf):
            return None
        (size,) = _PVZ_LENGTH.unpack_from(buf, pos)
        pos += _PVZ_LENGTH.size
        if size > len(buf) - pos:
            return None
        # inflated no further than the MVF size this atlas implies
        expected = HEADER_SIZE + 4 * pair.labels.num_classes * pair.image.header.n_voxels
        inflate = zlib.decompressobj()
        try:
            raw = inflate.decompress(buf[pos:pos + size], expected)
            if not inflate.eof or inflate.unused_data:
                return None
            pv = decode_mvf(raw, source=str(path))
        except (zlib.error, FormatError):
            return None
        pos += size
        if (not isinstance(pv, PartialVolumeSet) or pv.header != pair.image.header
                or pv.num_classes != pair.labels.num_classes):
            return None
        pvs.append(pv)
    return pvs if pos == len(buf) else None


def _write_atlas_pv_file(path: Path, key: bytes, pvs: list[PartialVolumeSet]) -> None:
    """Write the atlas-PV file under a unique temporary name, then move it
    into place, so concurrent writers are safe and no reader sees a partial
    file. Each atlas is encoded and compressed on its own, so no second
    copy of the whole set is ever held."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # opened by name, not by mkstemp, so the file takes the umask's mode
        tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "xb") as fh:
                fh.write(_PVZ_HEAD.pack(_PVZ_MAGIC, key, len(pvs)))
                for pv in pvs:
                    blob = zlib.compress(encode_mvf(pv), 1)
                    fh.write(_PVZ_LENGTH.pack(len(blob)))
                    fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise PersistenceError(f"cannot write {path}: {exc}") from exc


def _strip(labels: LabelVolume, fg: np.ndarray) -> LabelVolume:
    """Skull-strip analog: clear labels outside the input's own foreground.

    The atlas union mask can overhang a smaller input head; without this,
    in-mask air voxels pick up tissue labels and poison the class-intensity
    estimates the adaptation loop feeds on.
    """
    data = labels.data.copy()
    data[~fg] = 0
    return LabelVolume(labels.header, data, num_classes=labels.num_classes)


def _checked_foreground(input_image: ScalarVolume, atlases: list[AtlasPair],
                        cfg: LoopConfig) -> np.ndarray:
    """Input checks shared by every arm; returns the input's foreground."""
    if not atlases:
        raise ArgumentError("need at least one atlas")
    require_same_header(input_image, *(a.image for a in atlases))
    return foreground_mask(input_image, cfg.mask_rel_threshold)


def _initial_segmentation(input_image: ScalarVolume, atlases: list[AtlasPair],
                          cfg: LoopConfig, fg: np.ndarray):
    """Train on the original atlas images and segment the input; returns
    the atlas side, the model and the stripped labels."""
    with _Stage("train"):
        side = precompute_atlas_side(atlases, cfg.segmenter)
        model = train([a.image for a in atlases], side, cfg.segmenter)
    with _Stage("segment"):
        labels = predict(model, input_image)
    return side, model, _strip(labels, fg)


def run_direct(input_image: ScalarVolume, atlases: list[AtlasPair], cfg: LoopConfig) -> LabelVolume:
    """Comparison arm: train on the original atlas images and predict once."""
    fg = _checked_foreground(input_image, atlases, cfg)
    return _initial_segmentation(input_image, atlases, cfg, fg)[2]


def check_reference_atlas(reference_atlas_index: int, n_atlases: int) -> None:
    """Raise ArgumentError unless the index names one of n_atlases atlases."""
    if not 0 <= reference_atlas_index < n_atlases:
        raise ArgumentError(
            f"reference_atlas_index {reference_atlas_index} out of range for {n_atlases} atlases"
        )


def run_nhm(input_image: ScalarVolume, atlases: list[AtlasPair],
            reference_atlas_index: int, cfg: LoopConfig) -> LabelVolume:
    """Comparison arm: histogram-match the input to one designated atlas
    image, then segment directly."""
    src_mask = _checked_foreground(input_image, atlases, cfg)
    check_reference_atlas(reference_atlas_index, len(atlases))
    ref = atlases[reference_atlas_index]
    with _Stage("histogram_match"):
        src_lm = harmonize.landmarks(input_image, mask=src_mask, percentiles=cfg.nhm_percentiles)
        ref_lm = harmonize.landmarks(ref.image, mask=ref.labels, percentiles=cfg.nhm_percentiles)
        # quantized or noiseless histograms can plateau; collapse repeated
        # source landmarks so the piecewise-linear map stays well defined
        keep = np.concatenate([[True], np.diff(src_lm) > 0])
        if keep.sum() >= 2:
            lmap = harmonize.LandmarkMap(src_lm[keep], ref_lm[keep])
            matched = harmonize.apply(lmap, input_image, mask=src_mask)
        else:
            matched = input_image
    return _initial_segmentation(matched, atlases, cfg, src_mask)[2]


def foreground_mask(image: ScalarVolume, rel_threshold: float) -> np.ndarray:
    """Noise-robust head mask: intensity above rel_threshold times the 99th
    percentile of the positive intensities (plain > 0 when rel_threshold
    is 0)."""
    data = image.data
    positive = data[data > 0]
    if positive.size == 0:
        raise ArgumentError("image has no positive intensities")
    cut = rel_threshold * float(np.percentile(positive.astype(np.float64), 99))
    return data > max(cut, 0.0)


def run(input_image: ScalarVolume, atlases: list[AtlasPair], cfg: LoopConfig,
        cache_dir=None) -> LoopResult:
    """Run the full adaptation loop on one input image.

    Deterministic for a given config seed. On non-convergence at the
    iteration cap the last labels are returned with converged = False.
    cache_dir, when given, keeps the atlas partial volumes across processes
    (see precompute_atlas_pv).
    """
    fg = _checked_foreground(input_image, atlases, cfg)
    atlas_pvs = precompute_atlas_pv(atlases, cfg.pv, cache_dir)

    side, model, stripped = _initial_segmentation(input_image, atlases, cfg, fg)
    labels_history = [stripped]
    # intensities for classes that vanish from an intermediate segmentation:
    # start from the atlas-side class means, then carry the latest fit
    last_intensities = model.means.copy()
    atlas_images_history: list[list[ScalarVolume]] = []
    records: list[IterationRecord] = []
    converged = False

    def partial():
        return LoopResult(labels_history, atlas_images_history, records, converged)

    for t in range(cfg.max_iterations):
        current = labels_history[-1]
        with _Stage(f"estimate_pv[{t}]", partial):
            input_pv = estimate_pv(input_image, current, cfg.pv)
        with _Stage(f"fit_synth[{t}]", partial):
            synth_cfg = replace(cfg.synth, seed=derived_seed(cfg.seed, t, 101))
            model_t = synth.fit(
                input_pv, input_image, synth_cfg, fallback_intensities=last_intensities
            )
            if model_t.class_intensities is not None:
                last_intensities = model_t.class_intensities.copy()
        with _Stage(f"synthesize[{t}]", partial):
            new_images = [synthesize(model_t, pv) for pv in atlas_pvs]
            sigma = _spread_gap_sigma(input_image, current, new_images, side)
            new_images = [
                _with_noise(img, sigma, derived_seed(cfg.seed, t, 211, i))
                for i, img in enumerate(new_images)
            ]
        with _Stage(f"retrain[{t}]", partial):
            model = train(new_images, side, cfg.segmenter)
        with _Stage(f"segment[{t}]", partial):
            new_labels = _strip(predict(model, input_image), fg)
        change = metrics.label_change_fraction(current, new_labels)
        labels_history.append(new_labels)
        atlas_images_history.append(new_images)
        records.append(IterationRecord(change, model_t))
        if change < cfg.change_threshold:
            converged = True
            break

    return partial()


def _with_noise(image: ScalarVolume, sigma: float, seed: int) -> ScalarVolume:
    if sigma <= 0:
        return image
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    data = rng.normal(0.0, sigma, size=image.header.dims)
    data += image.data
    return ScalarVolume(image.header, data.astype(np.float32))


def _spread_gap_sigma(input_image: ScalarVolume, current_labels: LabelVolume,
                      synthetic_images: list[ScalarVolume], side: AtlasSide) -> float:
    """Noise level that closes the within-class spread gap between the input
    and the synthesized atlases.

    Synthesized atlases carry the partial-volume mixture spread structurally
    but none of the input's noise or bias-field spread. Matching the pooled
    within-class variance keeps the retrained Gaussian segmenter's likelihood
    widths realistic; without it the loop's likelihoods turn pathologically
    sharp and ignore the spatial prior. The synthesized side is read through
    the atlas side's class and tissue indices (side holds the atlases of
    synthetic_images, in the same order).
    """
    means_in = class_means(input_image, current_labels)
    pooled_in = noise_sigma(input_image, current_labels, means_in)
    total = 0.0
    count = 0
    for img, classes, tissue, tissue_class in zip(
            synthetic_images, side.classes, side.tissue, side.tissue_class):
        flat = img.data.reshape(-1)
        means_syn = np.zeros(len(classes), dtype=np.float64)
        for k, index in enumerate(classes):
            if index.size:
                means_syn[k] = flat[index].astype(np.float64).mean()
        residual = flat[tissue].astype(np.float64) - means_syn[tissue_class]
        total += float(np.sum(residual**2))
        count += tissue.size
    pooled_syn_sq = total / max(count, 1)
    return float(np.sqrt(max(pooled_in**2 - pooled_syn_sq, 0.0)))


def save_loop_artifacts(result: LoopResult, out_dir, truth_labels: LabelVolume | None = None) -> None:
    """Write per-iteration artifacts: labels_t.mvf, atlas{i}_t.mvf and
    trajectory.csv (each iteration's label change, synthesis training error
    and fitted class intensities, with Dice-vs-truth columns when truth
    labels are supplied)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t, labels in enumerate(result.labels_history):
        write_mvf(labels, out_dir / f"labels_{t}.mvf")
    for t, images in enumerate(result.atlas_images_history, start=1):
        for i, img in enumerate(images):
            write_mvf(img, out_dir / f"atlas{i}_{t}.mvf")

    dice_rows = None
    if truth_labels is not None:
        dice_rows = [
            np.array([
                metrics.dice(lab, truth_labels, k)
                for k in range(1, truth_labels.num_classes + 1)
            ])
            for lab in result.labels_history[1:]
        ]
    metrics.write_trajectory(
        out_dir / "trajectory.csv",
        result.records,
        dice_rows,
        num_classes=result.final_labels.num_classes,
    )
