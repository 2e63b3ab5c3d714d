"""The contrast adaptation loop (CAMELION) and its comparison arms.

The loop alternates three stages while the input image and the atlas
labels stay fixed: segment the input with the current model, estimate
two-class partial volumes from the input and that segmentation, at the
input's tissue voxels, fit a synthesis model on the single (partial
volumes, input) pair, and retrain the segmenter on every atlas as the
model synthesizes it from the atlas's own precomputed partial volumes,
plus matched noise. The segmenter reads only per-class sums and sums of
squares (segmenter.ClassMoments), so the retrain never holds the
synthesized atlases. Under linear synthesis those moments are quadratic
forms in the fitted class intensities over the fractions' per-class sums
and Gram matrices, kept once per atlas set, and the noise enters through
the per-class moments of the loop's normal draws, kept once per loop
seed and iteration. The regressor renders every atlas's tissue voxels
and reduces them with fresh draws. Only a run configured with
atlas_images renders the noisy atlases and puts them back on the grid,
as images that are zero off their atlas's tissue. Iteration stops when
fewer than the configured fraction of voxels change labels, or at the
iteration cap.

Comparison arms: "direct" (train on the original atlases, predict once)
and "nhm" (histogram-match the input to one atlas image, then direct).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import harmonize, metrics, synth
from .errors import ArgumentError, CamelionError, PipelineError
from .pv import PvConfig, class_stats
# the loop's PV stage, under the name a traced run rebinds
from .pv import estimate_tissue_pv as estimate_pv
from .segmenter import (AtlasSide, ClassMoments, SegmenterConfig, SegmenterModel, atlas_side,
                        class_moments, class_order, fit_moments, predict, train)
from .synth import SynthConfig, SynthModel, synthesize
from .util import LatestMemo, derived_seed, map_in_order, percentile, worker_count
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


def _normals(seed: int, t: int, i: int, n: int) -> np.ndarray:
    """The n float64 standard normals of atlas i (n tissue voxels) at
    iteration t of a loop with this seed: the Philox stream
    derived_seed(seed, t, 211, i)."""
    stream = np.random.SeedSequence(derived_seed(seed, t, 211, i))
    return np.random.Generator(np.random.Philox(stream)).standard_normal(n)


@dataclass(frozen=True)
class _Fractions:
    """Atlas i's tissue partial volumes p (K fractions per voxel), reduced
    over each class slice k of the AtlasSide in float64: sums[i][k] is the
    sum of p, (K,), and grams[i][k] the sum of p p^T, (K, K). Linear
    synthesis renders a voxel as c . p, so the slice's values sum to
    c . sums[i][k] and their squares to c^T grams[i][k] c. One array per
    atlas, since atlases that disagree on K fail only in training."""

    sums: tuple[np.ndarray, ...]      # [atlas] -> (K, K)
    grams: tuple[np.ndarray, ...]     # [atlas] -> (K, K, K)


@dataclass
class _AtlasSet:
    """What one atlas set alone determines, each slot filled on first use
    and kept until another set replaces this one: the class_order of each
    atlas's labels, (order, bounds), which the AtlasSide and the tissue
    partial volumes share; the segmenter's AtlasSide and the model trained
    on the original atlas images, for the latest SegmenterConfig; the
    tissue partial volumes and their per-class _Fractions (K^3 + K^2
    float64 per atlas), for the latest PvConfig; and, for the latest loop
    seed, the moments of the noise draws of each iteration a linear run has
    reached with a positive noise level (see _reduce_noise; K^2 + 2K
    float64 per atlas), reduced against those fractions. The entry lives
    in the process only: every process computes its own."""

    orders: list[tuple[np.ndarray, np.ndarray]] | None = None
    segmenter: SegmenterConfig | None = None
    side: AtlasSide | None = None
    model: SegmenterModel | None = None
    pv: PvConfig | None = None
    pvs: list[TissuePartialVolumes] | None = None
    fractions: _Fractions | None = None
    noise_seed: int | None = None
    noise: dict[int, tuple[ClassMoments, np.ndarray]] = field(default_factory=dict)

    def class_orders(self, atlases: list[AtlasPair]) -> list:
        """class_order of each atlas's labels, computed on first use."""
        if self.orders is None:
            self.orders = [class_order(pair.labels) for pair in atlases]
        return self.orders

    def kept_noise(self, seed: int) -> dict[int, tuple[ClassMoments, np.ndarray]]:
        """The kept noise moments of loop seed by iteration, emptied first
        when the latest run had another seed."""
        if self.noise_seed != seed:
            self.noise_seed, self.noise = seed, {}
        return self.noise


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
    The entry keeps (order, bounds) of each class_order only; every compute
    lays its partial volumes out in that order from the atlas labels.

    Computed once per atlas set and cfg per process, with their per-class
    _Fractions, on the calling thread and one started thread per further
    CPU (see _estimate_atlas_pvs), and kept in the set's entry (see
    _atlas_set), so a second run() on the same atlas list reuses them. A
    new set drops the old one, with its kept noise moments, before its
    partial volumes are computed; a failed compute keeps none.
    """
    with _ATLAS_SET.lock:
        entry = _atlas_set(atlases)
        if entry.pv != cfg or entry.pvs is None:
            entry.pv, entry.pvs, entry.fractions = cfg, None, None
            entry.noise_seed, entry.noise = None, {}
            with _Stage("precompute_atlas_pv"):
                pvs, fractions = _estimate_atlas_pvs(atlases, cfg, entry.class_orders(atlases))
            entry.pvs, entry.fractions = pvs, fractions
        return entry.pvs


def _estimate_atlas_pvs(atlases: list[AtlasPair], cfg: PvConfig,
                        orders: list) -> tuple[list[TissuePartialVolumes], _Fractions]:
    """estimate_pv of every atlas, in atlas order, each kept at its tissue
    voxels in class_order (orders[i] for atlas i) as soon as it is
    estimated, and their _Fractions; a failure raises the error of the
    first failing atlas in that order. The calling thread estimates
    atlases beside one started thread per further CPU the process may run
    on (see map_in_order). Most of estimate_pv's time goes to NumPy
    gathers, comparisons and reductions over whole arrays of voxels, which
    run without the GIL, so the atlases overlap."""
    def one(item):
        pair, (order, bounds) = item
        # estimate_pv is looked up at call time, so a rebound module global
        # is the one that runs
        pv = estimate_pv(pair.image, pair.labels, cfg)
        # pv holds the tissue voxels in C order: the stable argsort of their
        # classes that made order puts the columns in order's order. take
        # keeps the rows C-contiguous, which the einsum's bytes depend on
        classes = pair.labels.data.reshape(-1)[pv.index]
        channels = np.take(pv.channels, np.argsort(classes, kind="stable"), axis=1)
        k_max = bounds.size - 1
        sums = np.zeros((k_max, k_max))
        grams = np.zeros((k_max, k_max, k_max))
        for k in range(k_max):
            if bounds[k + 1] > bounds[k]:
                p = channels[:, bounds[k]:bounds[k + 1]].astype(np.float64)
                sums[k] = p.sum(axis=1)
                grams[k] = np.einsum("in,jn->ij", p, p)
        return TissuePartialVolumes(pv.header, order, channels), sums, grams

    pvs, sums, grams = zip(*map_in_order(one, zip(atlases, orders), worker_count()))
    return list(pvs), _Fractions(sums, grams)


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
    The synthesized atlas images are rendered, put on the grid and kept
    only when cfg.atlas_images is set; the moments the segmenter retrains
    on are the same either way.
    """
    fg = _checked_foreground(input_image, atlases, cfg)
    with _ATLAS_SET.lock:  # the partial volumes, fractions and kept noise of one entry
        atlas_pvs = precompute_atlas_pv(atlases, cfg.pv)
        entry = _atlas_set(atlases)
        fractions, kept_noise = entry.fractions, entry.kept_noise(cfg.seed)

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
            values = None
            if model_t.backend == synth.LINEAR_BACKEND:
                weights = model_t.class_intensities
                moments = _linear_moments(fractions, weights, side)
            else:
                values = [synthesize(model_t, pv) for pv in atlas_pvs]
                weights = np.ones(1)
                moments = class_moments(values, side)
            sigma = _spread_gap_sigma(stats.sigma, moments, side)
            if sigma > 0:
                if values is None:
                    noise = kept_noise.get(t)
                    if noise is None:
                        # two threads may reduce the same draws; both are equal
                        noise = kept_noise.setdefault(t, _reduce_noise(
                            cfg.seed, t, [pv.channels for pv in atlas_pvs], side))
                else:
                    noise = _reduce_noise(cfg.seed, t, [vec[None] for vec in values], side)
                moments = _plus_noise(moments, *noise, weights, sigma)
            if cfg.atlas_images:
                if values is None:
                    values = [synthesize(model_t, pv) for pv in atlas_pvs]
                images = [
                    _on_grid(_with_noise(vec, sigma,
                                         functools.partial(_normals, cfg.seed, t, i, vec.size)), pv)
                    for i, (vec, pv) in enumerate(zip(values, atlas_pvs))
                ]
        with _Stage(f"retrain[{t}]", partial):
            model = fit_moments(moments, side, cfg.segmenter)
        with _Stage(f"segment[{t}]", partial):
            new_labels = _strip(predict(model, input_image), fg)
        change = metrics.label_change_fraction(current, new_labels)
        labels_history.append(new_labels)
        if cfg.atlas_images:
            atlas_images_history.append(images)
        records.append(IterationRecord(change, model_t, stats.sigma, sigma))
        if change < cfg.change_threshold:
            converged = True
            break

    return partial()


def _linear_moments(fractions: _Fractions, c: np.ndarray, side: AtlasSide) -> ClassMoments:
    """The ClassMoments of every atlas as linear synthesis with class
    intensities c renders it, from the set's _Fractions, without rendering
    a voxel. Each voxel's fractions mix classes present in its atlas and
    sum to one, so lo and hi are the least and the greatest c of the
    classes present in any atlas."""
    present = side.class_counts.sum(axis=0) > 0
    return ClassMoments(np.einsum("ikj,j->ik", np.stack(fractions.sums), c),
                        np.einsum("ikjl,j,l->ik", np.stack(fractions.grams), c, c),
                        float(c[present].min(initial=np.inf)),
                        float(c[present].max(initial=-np.inf)))


def _reduce_noise(seed: int, t: int, rows: list[np.ndarray],
                  side: AtlasSide) -> tuple[ClassMoments, np.ndarray]:
    """The ClassMoments of the loop's standard normals z at iteration t, at
    the class slices of side, and their (A, K, m) cross moments with rows:
    cross[i, k] is the sum of z times each of the m rows of rows[i], an
    (m, n_i) array of values at atlas i's tissue voxels. Each atlas draws
    and reduces its own normals, on the calling thread and at most one
    started thread per further CPU (see map_in_order); Philox fills run
    without the GIL. No draw is kept."""
    def one(item):
        i, (x, bounds) = item
        z = _normals(seed, t, i, x.shape[1])
        k_max = bounds.size - 1
        sums = np.zeros(k_max)
        squares = np.zeros(k_max)
        cross = np.zeros((k_max, x.shape[0]))
        for k in range(k_max):
            if bounds[k + 1] > bounds[k]:
                zk = z[bounds[k]:bounds[k + 1]]
                sums[k] = zk.sum()
                squares[k] = np.einsum("n,n->", zk, zk)
                cross[k] = np.einsum("jn,n->j", x[:, bounds[k]:bounds[k + 1]], zk)
        return sums, squares, cross, z.min(initial=np.inf), z.max(initial=-np.inf)

    sums, squares, cross, lo, hi = zip(*map_in_order(one, enumerate(zip(rows, side.bounds)),
                                                     worker_count()))
    return (ClassMoments(np.stack(sums), np.stack(squares), float(min(lo)), float(max(hi))),
            np.stack(cross))


def _plus_noise(moments: ClassMoments, noise: ClassMoments, cross: np.ndarray,
                weights: np.ndarray, sigma: float) -> ClassMoments:
    """The ClassMoments of the values that moments reduce plus sigma times
    the draws that noise reduces, where weights . cross[i, k] is the sum of
    the values times the draws: the class intensities against the
    fractions' cross moments, or one against the values' own."""
    values_by_draws = np.einsum("ikj,j->ik", cross, weights)
    return ClassMoments(
        moments.sums + sigma * noise.sums,
        moments.squares + 2.0 * sigma * values_by_draws + sigma * sigma * noise.squares,
        moments.lo + sigma * noise.lo, moments.hi + sigma * noise.hi)


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


def _spread_gap_sigma(input_sigma: float, moments: ClassMoments, side: AtlasSide) -> float:
    """Noise level that closes the within-class spread gap between the input
    and the synthesized atlases.

    Synthesized atlases carry the partial-volume mixture spread structurally
    but none of the input's noise or bias-field spread. Matching the pooled
    within-class variance keeps the retrained Gaussian segmenter's likelihood
    widths realistic; without it the loop's likelihoods turn pathologically
    sharp and ignore the spatial prior. input_sigma is the input's pooled
    within-class sigma (ClassStats.sigma); moments are those of the
    synthesized atlases at the class slices of side. Each atlas and class
    contributes squares - sums^2 / count, its squared residuals about its
    own mean, pooled over every atlas tissue voxel.
    """
    counts = side.class_counts
    present = counts > 0
    within = moments.squares[present] - moments.sums[present] ** 2 / counts[present]
    pooled_syn_sq = float(within.sum()) / max(int(counts.sum()), 1)
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
