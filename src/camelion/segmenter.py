"""Trainable segmenter: intensity image in, labels out.

A Gaussian intensity classifier with a spatial atlas prior: class k
contributes N(f; mu_k, sigma_k^2) * pi_k(j), where pi is the smoothed
per-voxel label frequency across the atlases. Training is exact and fast,
which matters because the adaptation loop retrains the segmenter on every
iteration. Everything that depends on the atlas labels only, which the
loop never changes, is built by atlas_side (AtlasSide): the support of
the spatial prior (the brain mask) as flat voxel indices with the
log-prior on it, and each atlas's tissue voxels ordered by class. train
fits class statistics of atlas intensities given at those voxels (one
slice per class) in two steps: class_moments reduces the intensities to
per-class sums and sums of squares, and fit_moments fits from those, so a
caller that has the moments in closed form fits without the intensities.
predict classifies the support voxels only: no other voxel can get a
label. Nothing here is cached: the pipeline keeps the side of its atlas
label set and passes it to every train and fit_moments call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tissues
from .errors import ArgumentError, TrainingError
from .volumes import LabelVolume, ScalarVolume, VolumeHeader, require_same_header

PRIOR_SMOOTH_RADIUS = 3            # box filter radius in voxels
VARIANCE_FLOOR_FRACTION = 1e-4     # of the squared range of the training intensities


@dataclass(frozen=True)
class SegmenterConfig:
    prior_epsilon: float = 1e-6
    smoothing_weight: float = 0.5

    def __post_init__(self):
        if not 0 < self.prior_epsilon < 1:
            raise ArgumentError(f"prior_epsilon must be in (0, 1), got {self.prior_epsilon}")
        if not (np.isfinite(self.smoothing_weight) and self.smoothing_weight >= 0):
            raise ArgumentError(
                f"smoothing_weight must be finite and >= 0, got {self.smoothing_weight}")


@dataclass(frozen=True)
class PriorSupport:
    """The voxels a prior stack can label, as flat C-order indices.

    index lists the voxels where any channel is positive (the brain mask)
    in ascending order; log_prior is the float64 log of the prior there
    (-inf where a channel is zero); padded is each index voxel's flat index
    in the grid grown by one zero voxel on every side, which lets predict
    read 6-neighbors without border cases. The arrays are read-only.
    """

    index: np.ndarray          # (n,) intp
    log_prior: np.ndarray      # (K, n) float64
    padded: np.ndarray         # (n,) intp


def prior_support(prior: np.ndarray) -> PriorSupport:
    """Support indices and log-prior of a (K, *dims) prior stack."""
    index = np.flatnonzero(prior.any(axis=0))
    log_prior = prior.reshape(prior.shape[0], -1)[:, index].astype(np.float64)
    with np.errstate(divide="ignore"):
        np.log(log_prior, out=log_prior)
    coords = np.unravel_index(index, prior.shape[1:])
    padded = np.ravel_multi_index(tuple(c + 1 for c in coords),
                                  tuple(d + 2 for d in prior.shape[1:]))
    for arr in (index, log_prior, padded):
        arr.flags.writeable = False
    return PriorSupport(index=index, log_prior=log_prior, padded=padded)


@dataclass
class SegmenterModel:
    """Per-class intensity statistics plus the support of the spatial prior."""

    header: VolumeHeader
    means: np.ndarray          # (K,) float64
    variances: np.ndarray      # (K,) float64, all > 0
    support: PriorSupport
    smoothing_weight: float

    @property
    def num_classes(self) -> int:
        return self.support.log_prior.shape[0]


def label_frequency(atlas_labels: list[LabelVolume]) -> np.ndarray:
    """Per-voxel fraction of atlases carrying each class (no smoothing).

    Each class is counted one atlas at a time, in the narrowest integer
    type that holds the atlas count, so no array holds every atlas."""
    if not atlas_labels:
        raise ArgumentError("need at least one atlas")
    header = require_same_header(*atlas_labels)
    k_max = atlas_labels[0].num_classes
    if any(lab.num_classes != k_max for lab in atlas_labels):
        raise ArgumentError("atlases disagree on the number of classes")
    count = np.empty(header.dims, dtype=np.min_scalar_type(len(atlas_labels)))
    hit = np.empty(header.dims, dtype=bool)
    freq = np.empty((k_max,) + header.dims, dtype=np.float32)
    for k in range(1, k_max + 1):
        count.fill(0)
        for lab in atlas_labels:
            np.equal(lab.data, k, out=hit)
            count += hit
        freq[k - 1] = count
    freq /= len(atlas_labels)
    return freq


def box_filter(data: np.ndarray, size: int) -> np.ndarray:
    """Mean over a box of size voxels along each of the last three axes of a
    float32 array, zero outside it; returns float32.

    The arithmetic is that of scipy.ndimage.uniform_filter(mode="constant")
    on float32, so the bytes are too. One axis at a time, in order, each
    line is padded with size // 2 zeros on the left and the rest of the
    window on the right; a float64 running sum starts from the first window
    summed left to right and then adds entering minus leaving value; every
    sum is divided by size, and the axis result is cast to float32 before
    the next axis. The filtered axis is moved to the front, so each step
    of a running sum is one add over a whole plane of lines.
    """
    out = np.asarray(data, dtype=np.float32)
    left = size // 2
    for axis in range(out.ndim - 3, out.ndim):
        line = np.moveaxis(out, axis, 0)
        n = line.shape[0]
        padded = np.zeros((n + size - 1,) + line.shape[1:], dtype=np.float64)
        padded[left:left + n] = line
        sums = np.empty((n,) + line.shape[1:], dtype=np.float64)
        np.copyto(sums[0], padded[0])
        for j in range(1, size):
            sums[0] += padded[j]
        step = np.empty(line.shape[1:], dtype=np.float64)
        for i in range(1, n):
            np.subtract(padded[size + i - 1], padded[i - 1], out=step)
            np.add(sums[i - 1], step, out=sums[i])
        sums /= size
        # free this axis's float64 buffers before the next axis makes its own
        del padded, step
        out = np.moveaxis(sums.astype(np.float32), 0, axis)
        del sums
    return np.ascontiguousarray(out)


def atlas_prior(atlas_labels: list[LabelVolume], cfg: SegmenterConfig) -> np.ndarray:
    """Spatial prior stack (K, *dims) float32 from the atlas labels alone.

    The cross-atlas label frequency, box-smoothed, floored at prior_epsilon
    inside the brain mask (union of non-background atlas voxels) and zero
    outside it; where the floored channels sum past one they are rescaled
    to sum to one. The frequency stack becomes the result: each channel is
    smoothed, clipped, floored and masked on its own and written back, so
    no other array spans the class stack. The returned array is read-only.
    """
    prior = label_frequency(atlas_labels)
    mask = prior.any(axis=0)  # before any channel is overwritten
    epsilon = np.float32(cfg.prior_epsilon)
    for channel in prior:
        smoothed = box_filter(channel, 2 * PRIOR_SMOOTH_RADIUS + 1)
        np.clip(smoothed, 0.0, 1.0, out=smoothed)
        np.maximum(smoothed, epsilon, out=smoothed)
        channel.fill(0.0)
        np.copyto(channel, smoothed, where=mask)
    channel_sum = prior.sum(axis=0)
    np.divide(prior, channel_sum, out=prior, where=channel_sum > 1.0)
    prior.flags.writeable = False
    return prior


def class_order(labels: LabelVolume) -> tuple[np.ndarray, np.ndarray]:
    """The tissue (non-background) voxels of labels as flat C-order indices,
    ordered by class and ascending within a class, and the (K + 1,) bounds
    of the classes in that order, class k being order[bounds[k - 1]:bounds[k]].
    A gather through order yields each class's values in the order of a
    boolean-mask selection of that class. order is the C-order tissue
    voxels permuted by a stable argsort of their classes, so a caller with
    a vector in C order puts it in order's order the same way. The arrays
    are read-only.
    """
    flat = labels.data.reshape(-1)
    tissue = np.flatnonzero(flat)
    classes = flat[tissue]
    counts = np.bincount(classes, minlength=labels.num_classes + 1)[1:]
    bounds = np.concatenate(([0], np.cumsum(counts)))
    order = tissue[np.argsort(classes, kind="stable")]
    for arr in (order, bounds):
        arr.flags.writeable = False
    return order, bounds


@dataclass(frozen=True)
class AtlasSide:
    """What the segmenter and the loop read from a fixed atlas label set.

    support is that of the atlas prior on the atlases' shared header.
    order[i] and bounds[i] are class_order of atlas i's labels: a vector
    of values at order[i] (a tissue vector of atlas i) holds each class in
    one contiguous slice. The arrays are read-only.
    """

    header: VolumeHeader
    support: PriorSupport
    order: tuple[np.ndarray, ...]      # [atlas] -> (n_i,) intp
    bounds: tuple[np.ndarray, ...]     # [atlas] -> (K + 1,) intp

    @property
    def class_counts(self) -> np.ndarray:
        """(A, K) the voxel count of each atlas's class slices."""
        return np.diff(np.stack(self.bounds), axis=1)

    def tissue_values(self, images: list[ScalarVolume]) -> list[np.ndarray]:
        """The tissue vector of each atlas image, image i on atlas i."""
        if len(images) != len(self.order):
            raise ArgumentError(
                f"{len(images)} atlas images for an atlas side of {len(self.order)} atlases")
        for image in images:
            if image.header != self.header:
                raise ArgumentError(
                    f"atlas image header {image.header} does not match the atlas side's {self.header}")
        return [image.data.reshape(-1)[order] for image, order in zip(images, self.order)]


def atlas_side(atlas_labels: list[LabelVolume], cfg: SegmenterConfig,
               orders: list | None = None) -> AtlasSide:
    """Build the AtlasSide of these atlas labels (in this order). orders,
    when given, is class_order of each atlas's labels, and the side holds
    its order and bounds arrays."""
    prior = atlas_prior(atlas_labels, cfg)
    if orders is None:
        orders = [class_order(lab) for lab in atlas_labels]
    order, bounds = zip(*orders)
    return AtlasSide(header=atlas_labels[0].header, support=prior_support(prior),
                     order=order, bounds=bounds)


@dataclass(frozen=True)
class ClassMoments:
    """What training reads of atlas intensities: per atlas i and class k,
    the float64 sum and sum of squares of the class's values, each (A, K),
    and lo <= every value <= hi, the least and the greatest value or an
    outer bound of them."""

    sums: np.ndarray
    squares: np.ndarray
    lo: float
    hi: float


def class_moments(values: list[np.ndarray], side: AtlasSide) -> ClassMoments:
    """Reduce the tissue vectors values (values[i] for atlas i, see
    AtlasSide.tissue_values) to their ClassMoments, one class slice at a
    time, with lo and hi the least and the greatest value."""
    if len(values) != len(side.order):
        raise ArgumentError(
            f"{len(values)} atlas images for an atlas side of {len(side.order)} atlases")
    for vec, order in zip(values, side.order):
        if vec.shape != order.shape:
            raise ArgumentError(f"{vec.size} values for an atlas of {order.size} tissue voxels")
    k_max = side.bounds[0].size - 1
    sums = np.zeros((len(values), k_max), dtype=np.float64)
    squares = np.zeros((len(values), k_max), dtype=np.float64)
    lo, hi = np.inf, -np.inf
    for i, (vec, bounds) in enumerate(zip(values, side.bounds)):
        lo = min(lo, float(vec.min(initial=np.inf)))
        hi = max(hi, float(vec.max(initial=-np.inf)))
        for k in range(k_max):
            if bounds[k + 1] > bounds[k]:
                vals = vec[bounds[k]:bounds[k + 1]].astype(np.float64)
                sums[i, k] = vals.sum()
                squares[i, k] = np.sum(vals * vals)
    return ClassMoments(sums, squares, lo, hi)


def fit_moments(moments: ClassMoments, side: AtlasSide, cfg: SegmenterConfig) -> SegmenterModel:
    """Fit the Gaussian classifier on the ClassMoments of atlas intensities
    at the side's class slices.

    Class statistics are pooled over every atlas voxel of the class. The
    per-atlas sums are reduced in sorted order, so the result is invariant
    to atlas ordering. The variance floor is VARIANCE_FLOOR_FRACTION of
    (hi - lo) squared. Means and variances are read-only.
    """
    counts = side.class_counts.astype(np.float64)
    if moments.sums.shape != counts.shape or moments.squares.shape != counts.shape:
        raise ArgumentError(
            f"moments of shape {moments.sums.shape} for an atlas side of shape {counts.shape}")
    total = np.sort(counts, axis=0).sum(axis=0)
    for k in range(total.size):
        if total[k] == 0:
            raise TrainingError(
                f"class {tissues.class_name(k + 1)} ({k + 1}) absent from all atlases"
            )
    mean = np.sort(moments.sums, axis=0).sum(axis=0) / total
    var = np.sort(moments.squares, axis=0).sum(axis=0) / total - mean**2
    floor = VARIANCE_FLOOR_FRACTION * (moments.hi - moments.lo)**2
    var = np.maximum(var, max(floor, np.finfo(np.float64).tiny))
    for arr in (mean, var):
        arr.flags.writeable = False

    return SegmenterModel(
        header=side.header,
        means=mean,
        variances=var,
        support=side.support,
        smoothing_weight=cfg.smoothing_weight,
    )


def train(values: list[np.ndarray], side: AtlasSide, cfg: SegmenterConfig) -> SegmenterModel:
    """Fit the Gaussian classifier on atlas intensities: values[i] is the
    tissue vector of an image of atlas i (see AtlasSide.tissue_values).
    fit_moments of their class_moments, so the variance floor reads the
    range of the values trained on."""
    return fit_moments(class_moments(values, side), side, cfg)


def _neighbors(labels: np.ndarray, support: PriorSupport, dims) -> np.ndarray:
    """The (6, n) uint8 labels of each support voxel's 6-neighbors; voxels
    off the support are background and borders read as background."""
    padded = np.zeros(tuple(d + 2 for d in dims), dtype=np.uint8)
    flat = padded.reshape(-1)
    flat[support.padded] = labels
    # uint8, so the byte strides are the flat index steps along each axis
    steps = np.array([sign * step for step in padded.strides for sign in (-1, 1)], dtype=np.intp)
    return flat[support.padded + steps[:, None]]


def _first_argmax(rows) -> np.ndarray:
    """1 + the row index of each column's maximum over the (n,) float64
    rows, as uint8: a running strict > compare, so the first maximum wins,
    as with argmax. The rows must hold no NaN."""
    rows = iter(rows)
    best = np.array(next(rows), dtype=np.float64)
    labels = np.ones(best.size, dtype=np.uint8)
    for k, row in enumerate(rows, start=2):
        better = row > best
        np.copyto(labels, np.uint8(k), where=better)
        np.maximum(best, row, out=best)
    return labels


def _with_bonus(log_w: np.ndarray, neighbors: np.ndarray, weight: float):
    """Each row k of log_w plus weight times the count of neighbors holding
    class k + 1, yielded in turn in one reused buffer."""
    row = np.empty(log_w.shape[1], dtype=np.float64)
    for k, log_wk in enumerate(log_w):
        np.multiply(np.sum(neighbors == k + 1, axis=0, dtype=np.uint8), weight, out=row)
        row += log_wk
        yield row


def predict(model: SegmenterModel, image: ScalarVolume) -> LabelVolume:
    """Per-voxel Bayes classification under the trained model.

    Posterior(k | f) is proportional to N(f; mu_k, sigma_k^2) * pi_k, and
    is evaluated on the prior's support only: each support voxel gets the
    posterior argmax (ties to the smaller class), and voxels without any
    prior support are background. When smoothing_weight is positive, one
    synchronous iterated-conditional-modes pass folds a 6-neighborhood
    agreement bonus exp(w * n_k) into the posteriors and relabels from the
    adjusted posteriors.
    """
    if image.header != model.header:
        raise ArgumentError(f"image header {image.header} does not match model {model.header}")
    k_max = model.num_classes
    support = model.support
    f = image.data.reshape(-1)[support.index].astype(np.float64)

    # log N(f; mu_k, var_k) + log pi_k, one row per class, computed in place
    log_w = np.empty((k_max, f.size), dtype=np.float64)
    for k, row in enumerate(log_w):
        mu, var = model.means[k], model.variances[k]
        np.subtract(f, mu, out=row)
        np.square(row, out=row)
        row /= 2.0 * var
        np.subtract(-0.5 * np.log(2.0 * np.pi * var), row, out=row)
        row += support.log_prior[k]

    # normalizing keeps each voxel's class order, so the posterior argmax
    # is the log-weight argmax; no row is NaN, as f is finite and var > 0
    labels = _first_argmax(log_w)
    if model.smoothing_weight > 0:
        neighbors = _neighbors(labels, support, image.header.dims)
        labels = _first_argmax(_with_bonus(log_w, neighbors, float(model.smoothing_weight)))

    full_labels = np.zeros(image.header.dims, dtype=np.uint8)
    full_labels.reshape(-1)[support.index] = labels
    return LabelVolume(image.header, full_labels, num_classes=k_max)
