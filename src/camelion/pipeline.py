"""The contrast adaptation loop (CAMELION) and its comparison arms.

The loop alternates three stages while the input image and the atlas
labels stay fixed: segment the input with the current model, estimate
two-class partial volumes from the input and that segmentation, at the
input's tissue voxels, fit a synthesis model on the single (partial
volumes, input) pair, and re-render every atlas image from its own
precomputed partial volumes before retraining the segmenter. Everything after the synthesis fit works on the
atlas tissue voxels only, the voxels the segmenter trains on: rendering,
the spread-gap noise level, the injected noise and the retrain. Only a
run configured with atlas_images puts the synthesized atlases back on
the grid, as images that are zero off their atlas's tissue. Iteration stops
when fewer than the configured fraction of voxels change labels, or at
the iteration cap.

Comparison arms: "direct" (train on the original atlases, predict once)
and "nhm" (histogram-match the input to one atlas image, then direct).
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import harmonize, metrics, synth
from .errors import ArgumentError, CamelionError, PipelineError
from .pv import PvConfig, class_stats
# the loop's PV stage, under the name a traced run rebinds
from .pv import estimate_tissue_pv as estimate_pv
from .segmenter import (AtlasSide, SegmenterConfig, SegmenterModel, atlas_side, class_order,
                        predict, train)
from .synth import SynthConfig, SynthModel, synthesize
from .util import LatestMemo, derived_seed, percentile, worker_count
from .volumes import (AtlasPair, LabelVolume, ScalarVolume, TissuePartialVolumes,
                      require_same_header, write_mvf)


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
    # keep every iteration's synthesized atlas images on the LoopResult
    atlas_images: bool = False

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
    """One pass of the loop: the fraction of voxels whose label changed, the
    synthesis fit it made, the input's pooled within-class sigma under the
    labels it started from, and the sigma of the noise it added to the
    synthesized atlases."""

    change_fraction: float
    synth: SynthModel
    input_sigma: float
    noise_sigma: float


@dataclass
class LoopResult:
    """Everything the loop produced, including the full trajectory.

    atlas_images_history holds, per iteration, every atlas image the
    iteration synthesized, in atlas order, when the run's LoopConfig sets
    atlas_images; otherwise it is empty.
    """

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


class _Normals:
    """The loop's standard normal draws for one loop seed: atlas i at
    iteration t draws from the Philox stream derived_seed(seed, t, 211, i).
    With keep, each draw is kept, read-only, and handed to every later
    request for it; otherwise each request draws afresh."""

    def __init__(self, seed: int, keep: bool):
        self.seed = seed
        self._kept: dict[tuple[int, int], np.ndarray] | None = {} if keep else None

    def draw(self, t: int, i: int, n: int) -> np.ndarray:
        """The n float64 standard normals of atlas i (n tissue voxels) at
        iteration t."""
        if self._kept is not None and (t, i) in self._kept:
            return self._kept[t, i]
        seed = derived_seed(self.seed, t, 211, i)
        normals = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))) \
            .standard_normal(n)
        if self._kept is None:
            return normals
        normals.flags.writeable = False
        # two threads may draw the same stream; both draws are equal
        return self._kept.setdefault((t, i), normals)


@dataclass
class _AtlasSet:
    """What one atlas set alone determines, each slot filled on first use
    and kept until another set replaces this one: the class_order of each
    atlas's labels, which the AtlasSide and the tissue partial volumes
    share; the segmenter's AtlasSide and the model trained on the original
    atlas images, for the latest SegmenterConfig; the tissue partial
    volumes, for the latest PvConfig; the count of run() calls on the set;
    and, from the second run on, the loop's kept normal draws for the
    latest loop seed. The entry lives in the process only: every process
    computes its own."""

    orders: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
    segmenter: SegmenterConfig | None = None
    side: AtlasSide | None = None
    model: SegmenterModel | None = None
    pv: PvConfig | None = None
    pvs: list[TissuePartialVolumes] | None = None
    runs: int = 0
    normals: _Normals | None = None

    def class_orders(self, atlases: list[AtlasPair]) -> list:
        """class_order of each atlas's labels, computed on first use."""
        if self.orders is None:
            self.orders = [class_order(pair.labels) for pair in atlases]
        return self.orders

    def run_normals(self, seed: int) -> _Normals:
        """The normal draws of one more run() on this set: drawn afresh and
        kept nowhere on its first run, kept from the second run on."""
        self.runs += 1
        if self.runs == 1:
            return _Normals(seed, keep=False)
        if self.normals is None or self.normals.seed != seed:
            self.normals = _Normals(seed, keep=True)
        return self.normals


# the latest atlas set's entry; its slots are read and filled with the lock held
_ATLAS_SET = LatestMemo()


def _set_parts(atlases: list[AtlasPair]) -> list:
    """What names an atlas set: each atlas's image header, class count, image
    and labels, in atlas order."""
    parts = []
    for pair in atlases:
        parts += [pair.image.header, pair.labels.num_classes, pair.image.data, pair.labels.data]
    return parts


def _atlas_set(atlases: list[AtlasPair]) -> _AtlasSet:
    """The held entry if atlases hold its set's parts, the same frozen arrays
    among them (see LatestMemo); else a new one, made once that is dropped."""
    return _ATLAS_SET.lookup(_set_parts(atlases), _AtlasSet)


def _first_model(atlases: list[AtlasPair],
                 cfg: SegmenterConfig) -> tuple[AtlasSide, SegmenterModel]:
    """The AtlasSide of the atlas labels and the model trained on the
    original atlas images, built once per atlas set and cfg."""
    with _ATLAS_SET.lock:
        entry = _atlas_set(atlases)
        if entry.segmenter != cfg:
            with _Stage("train"):
                side = atlas_side([a.labels for a in atlases], cfg, entry.class_orders(atlases))
                model = train(side.tissue_values([a.image for a in atlases]), side, cfg)
            entry.segmenter, entry.side, entry.model = cfg, side, model
        return entry.side, entry.model


def precompute_atlas_pv(atlases: list[AtlasPair], cfg: PvConfig) -> list[TissuePartialVolumes]:
    """Estimate each atlas's partial volumes from its original image and
    labels, held at the atlas's tissue voxels in class_order: the index of
    atlas i's partial volumes is the order array of the set's AtlasSide.

    Computed once per atlas set and cfg per process, on a thread pool (see
    _estimate_atlas_pvs), and kept in the set's entry (see _atlas_set), so
    a second run() on the same atlas list reuses them. A new set drops the
    old one, with its kept noise draws, before its partial volumes are
    computed; a failed compute keeps none.
    """
    with _ATLAS_SET.lock:
        entry = _atlas_set(atlases)
        if entry.pv != cfg or entry.pvs is None:
            entry.pv, entry.pvs = cfg, None
            with _Stage("precompute_atlas_pv"):
                entry.pvs = _estimate_atlas_pvs(atlases, cfg, entry.class_orders(atlases))
        return entry.pvs


def _estimate_atlas_pvs(atlases: list[AtlasPair], cfg: PvConfig,
                        orders: list) -> list[TissuePartialVolumes]:
    """estimate_pv of every atlas on a thread pool, in atlas order, each
    kept at its tissue voxels in class_order (orders[i] for atlas i) as
    soon as it is estimated; a failure raises the error of the first
    failing atlas in that order. Most of estimate_pv's time goes to NumPy
    gathers, comparisons and reductions over whole arrays of voxels, which
    run without the GIL, so the atlases overlap."""
    def one(pair, order, inverse):
        # estimate_pv is looked up at call time, so a rebound module global
        # is the one that runs
        pv = estimate_pv(pair.image, pair.labels, cfg)
        channels = np.empty_like(pv.channels)
        channels[:, inverse] = pv.channels
        return TissuePartialVolumes(pv.header, order, channels)

    with ThreadPoolExecutor(max_workers=min(worker_count(), len(atlases)) or 1) as pool:
        futures = [pool.submit(one, pair, order, inverse)
                   for pair, (order, _, inverse) in zip(atlases, orders)]
        return [future.result() for future in futures]


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
    """Segment the input with the model trained on the original atlas
    images; returns the atlas side, the model and the stripped labels."""
    side, model = _first_model(atlases, cfg.segmenter)
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
    cut = rel_threshold * float(percentile(positive, 99))
    return data > max(cut, 0.0)


def run(input_image: ScalarVolume, atlases: list[AtlasPair], cfg: LoopConfig) -> LoopResult:
    """Run the full adaptation loop on one input image.

    Deterministic for a given config seed. On non-convergence at the
    iteration cap the last labels are returned with converged = False.
    The synthesized atlas images are put on the grid and kept only when
    cfg.atlas_images is set; the tissue vectors the segmenter retrains on
    are the same either way.
    """
    fg = _checked_foreground(input_image, atlases, cfg)
    with _ATLAS_SET.lock:  # the run is counted on the entry that holds atlas_pvs
        atlas_pvs = precompute_atlas_pv(atlases, cfg.pv)
        normals = _atlas_set(atlases).run_normals(cfg.seed)

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
            stats = class_stats(input_image, current)
            input_pv = estimate_pv(input_image, current, cfg.pv, stats)
        with _Stage(f"fit_synth[{t}]", partial):
            synth_cfg = replace(cfg.synth, seed=derived_seed(cfg.seed, t, 101))
            model_t = synth.fit(
                input_pv, input_image, synth_cfg, fallback_intensities=last_intensities
            )
            if model_t.class_intensities is not None:
                last_intensities = model_t.class_intensities.copy()
        with _Stage(f"synthesize[{t}]", partial):
            values = [synthesize(model_t, pv) for pv in atlas_pvs]
            sigma = _spread_gap_sigma(stats.sigma, values, side)
            values = [
                _with_noise(vec, sigma, functools.partial(normals.draw, t, i, vec.size))
                for i, vec in enumerate(values)
            ]
        with _Stage(f"retrain[{t}]", partial):
            model = train(values, side, cfg.segmenter)
        with _Stage(f"segment[{t}]", partial):
            new_labels = _strip(predict(model, input_image), fg)
        change = metrics.label_change_fraction(current, new_labels)
        labels_history.append(new_labels)
        if cfg.atlas_images:
            atlas_images_history.append([_on_grid(vec, pv) for vec, pv in zip(values, atlas_pvs)])
        records.append(IterationRecord(change, model_t, stats.sigma, sigma))
        if change < cfg.change_threshold:
            converged = True
            break

    return partial()


def _with_noise(values: np.ndarray, sigma: float, normals) -> np.ndarray:
    """values plus sigma times the float64 standard normals that normals()
    returns, one per value in order, as float32; values itself, without
    calling normals, when sigma <= 0. A Philox normal(0.0, sigma) draw is
    0.0 + sigma * z for the standard normal z of the same stream, so the
    result has the bytes of values plus that draw."""
    if sigma <= 0:
        return values
    noisy = normals() * sigma
    noisy += values
    return noisy.astype(np.float32)


def _on_grid(values: np.ndarray, pv: TissuePartialVolumes) -> ScalarVolume:
    """The image holding values at pv's voxels and 0 everywhere else."""
    data = np.zeros(pv.header.dims, dtype=np.float32)
    data.reshape(-1)[pv.index] = values
    return ScalarVolume(pv.header, data)


def _spread_gap_sigma(input_sigma: float, synthetic: list[np.ndarray], side: AtlasSide) -> float:
    """Noise level that closes the within-class spread gap between the input
    and the synthesized atlases.

    Synthesized atlases carry the partial-volume mixture spread structurally
    but none of the input's noise or bias-field spread. Matching the pooled
    within-class variance keeps the retrained Gaussian segmenter's likelihood
    widths realistic; without it the loop's likelihoods turn pathologically
    sharp and ignore the spatial prior. input_sigma is the input's pooled
    within-class sigma (ClassStats.sigma); synthetic[i] is the tissue vector
    of atlas i of side. Class means are taken over the class slices, and
    the residuals are summed in C order, as a full-grid scan would.
    """
    total = 0.0
    count = 0
    for vec, bounds, inverse in zip(synthetic, side.bounds, side.inverse):
        vec = vec.astype(np.float64)
        for a, b in zip(bounds[:-1], bounds[1:]):
            if b > a:
                vec[a:b] -= vec[a:b].mean()
        residual = vec[inverse]
        residual *= residual
        total += float(np.sum(residual))
        count += vec.size
    pooled_syn_sq = total / max(count, 1)
    return float(np.sqrt(max(input_sigma**2 - pooled_syn_sq, 0.0)))


def save_loop_artifacts(result: LoopResult, out_dir, truth_labels: LabelVolume | None = None) -> None:
    """Write per-iteration artifacts: labels_t.mvf, trajectory.csv (each
    iteration's label change, input and noise sigma, synthesis training
    error and fitted class intensities, with Dice-vs-truth columns when
    truth labels are supplied) and, when the result holds the atlas images
    (LoopConfig.atlas_images), atlas{i}_t.mvf."""
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
