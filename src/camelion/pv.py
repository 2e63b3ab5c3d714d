"""Two-class MAP partial-volume estimation.

A voxel intensity is modeled as f = sum_k p_k * c_k + noise with Gaussian
noise of standard deviation sigma, and at most two classes mixing per
voxel: the voxel's own label and the spatially nearest different tissue
class. Writing the mixing fraction of the first class as alpha, the
negative log posterior (up to constants) is

    J(alpha) = (f - alpha*c_a - (1 - alpha)*c_b)^2 / (2 sigma^2)
               - 2 beta (alpha - 0.5)^2

because the pure-tissue prior exp(beta (p - 0.5)^2) applies to both active
fractions and (alpha - 0.5)^2 = ((1 - alpha) - 0.5)^2. Positive beta favors
pure tissue. The MAP alpha is found exactly by comparing J at the endpoints
{0, 1} and, when the quadratic coefficient d^2/(2 sigma^2) - 2 beta is
strictly positive (d = c_a - c_b), at the clamped stationary point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    DegeneratePairError,
    EstimationError,
    GeometryError,
)
from .volumes import (
    LabelVolume,
    PartialVolumeSet,
    ScalarVolume,
    require_same_header,
)

SIGMA_FLOOR_FRACTION = 1e-3  # of the image intensity range
SEARCH_RADIUS = 10           # nearest-class search, in smallest voxel edges


@dataclass(frozen=True)
class PvConfig:
    """Estimator knobs.

    beta is a dimensionless prior weight; at estimation time the absolute
    weight entering J is beta / (2 sigma_hat^2), so its effect is invariant
    to the intensity scale.
    """

    beta: float = 0.1

    def __post_init__(self):
        if not np.isfinite(self.beta):
            raise ArgumentError("beta must be finite")


@dataclass(frozen=True)
class ClassStats:
    """An image's tissue voxels under a hard segmentation, gathered once, and
    the class statistics fitted on them.

    index lists the non-background voxels of the labels as flat C-order
    indices, labels their classes and values their float64 intensities.
    means[k - 1] is the mean intensity of class k (0.0 for an absent
    class); sigma is the RMS residual of the values against their class
    means, floored at SIGMA_FLOOR_FRACTION of the whole image's intensity
    range so that noiseless images do not produce a degenerate likelihood.
    """

    index: np.ndarray      # (n,) intp
    labels: np.ndarray     # (n,) uint8
    values: np.ndarray     # (n,) float64
    means: np.ndarray      # (K,) float64
    sigma: float


def class_stats(image: ScalarVolume, labels: LabelVolume) -> ClassStats:
    """The ClassStats of image under labels; EstimationError when the labels
    have no tissue voxel."""
    require_same_header(image, labels)
    flat = labels.data.reshape(-1)
    index = np.flatnonzero(flat)
    if not index.size:
        raise EstimationError("no non-background voxels")
    tissue = flat[index]
    values = image.data.reshape(-1)[index].astype(np.float64)
    means = np.zeros(labels.num_classes, dtype=np.float64)
    for k in range(1, labels.num_classes + 1):
        sel = tissue == k
        if sel.any():
            means[k - 1] = values[sel].mean()
    residuals = values - means[tissue - 1]
    sigma = float(np.sqrt(np.mean(residuals**2)))
    floor = SIGMA_FLOOR_FRACTION * (float(image.data.max()) - float(image.data.min()))
    return ClassStats(index=index, labels=tissue, values=values, means=means,
                      sigma=max(sigma, floor, np.finfo(np.float64).tiny))


def second_class_map(labels: LabelVolume) -> LabelVolume:
    """Per voxel, the label of the nearest different non-background class.

    Distances are anisotropic Euclidean using the header voxel size, each
    computed as sqrt((dx*sx)**2 + (dy*sy)**2 + (dz*sz)**2); exact-distance
    ties resolve to the smaller class index. Background voxels map to 0.

    The search runs one present class at a time. It walks the offsets of
    _search_table nearest first, one group of equally distant offsets at a
    time, over the voxels of the class it has not resolved yet, reading a
    copy of the labels in which that class and background are one value.
    A voxel resolves at the first group that reaches another class, and
    takes the smallest class of that group. Voxels outside the grid and
    outside the bounding box of the tissue are background, so the search
    reads the box padded by the table's reach. Every offset nearer than a
    resolving group's was looked at before it, so the answer is exact; a
    voxel whose nearest other class lies beyond SEARCH_RADIUS leaves the
    whole volume to distance transforms.
    """
    counts = np.bincount(labels.data.ravel(), minlength=labels.num_classes + 1)
    present = [k for k in range(1, labels.num_classes + 1) if counts[k]]
    if len(present) < 2:
        raise GeometryError(f"need at least two tissue classes, found {len(present)}")
    box = _bounding_box(labels.data > 0)
    crop = labels.data[box]
    table = _search_table(tuple(float(s) for s in labels.header.voxel_size))
    padded = np.pad(crop, [(r, r) for r in table.reach])
    flat = padded.reshape(-1)
    # uint8, so the byte strides are the flat index steps along each axis
    steps = table.offsets @ np.asarray(padded.strides, dtype=np.intp)
    # labels minus one, background wrapping to 255
    minus_one = flat - np.uint8(1)
    found = np.zeros_like(flat)
    for k in present:
        own = flat == k
        # class k reads as 255 too, so a minimum below 255 is another class
        others = np.maximum(minus_one, own.view(np.uint8) * np.uint8(255))
        pending = np.flatnonzero(own)
        for start, stop in table.groups:
            best = others[pending + steps[start:stop, None]].min(axis=0)
            # 255 + 1 wraps to 0, so a voxel not resolved yet stays 0
            found[pending] = best + np.uint8(1)
            pending = pending[best == 255]
            if not pending.size:
                break
        if pending.size:
            return _second_class_map_edt(labels, present)
    nearest = np.zeros(labels.header.dims, dtype=np.uint8)
    nearest[box] = found.reshape(padded.shape)[
        tuple(slice(r, r + n) for r, n in zip(table.reach, crop.shape))]
    return LabelVolume(labels.header, nearest, num_classes=labels.num_classes)


@dataclass(frozen=True)
class _SearchTable:
    """Integer voxel offsets (n, 3) within SEARCH_RADIUS, sorted by distance;
    groups are the [start, stop) rows of each distance, nearest first, and
    reach the largest offset along each axis. The arrays are read-only."""

    offsets: np.ndarray
    groups: tuple[tuple[int, int], ...]
    reach: tuple[int, int, int]


@functools.lru_cache(maxsize=8)
def _search_table(voxel_size: tuple[float, float, float]) -> _SearchTable:
    """The search table of one voxel size: every nonzero offset whose
    distance is at most SEARCH_RADIUS times the smallest voxel edge."""
    limit = SEARCH_RADIUS * min(voxel_size)
    axes = [np.arange(-int(limit / s) - 1, int(limit / s) + 2) for s in voxel_size]
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    dx, dy, dz = (offsets[:, a] * voxel_size[a] for a in range(3))
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    keep = (dist > 0) & (dist <= limit)
    order = np.argsort(dist[keep], kind="stable")
    offsets, dist = offsets[keep][order], dist[keep][order]
    bounds = [0, *(np.flatnonzero(dist[1:] != dist[:-1]) + 1).tolist(), dist.size]
    offsets.flags.writeable = False
    return _SearchTable(offsets=offsets, groups=tuple(zip(bounds[:-1], bounds[1:])),
                        reach=tuple(int(r) for r in np.abs(offsets).max(axis=0)))


def _second_class_map_edt(labels: LabelVolume, present: list[int]) -> LabelVolume:
    """second_class_map by one exact distance transform per present class,
    on the bounding box of the tissue voxels. This is exact: every voxel
    that needs an answer and every voxel of every class lies inside the
    box, so the nearest voxel of a class is never cut off, and offsets
    between voxels do not change with the crop. Its cost does not grow
    with the distance between classes."""
    # imported here: scipy.ndimage takes about 0.4 s to import on a 2-vCPU
    # host, and only a volume with classes far apart reaches this
    from scipy.ndimage import distance_transform_edt

    box = _bounding_box(labels.data > 0)
    crop = labels.data[box]
    sampling = labels.header.voxel_size
    dist = np.empty((len(present),) + crop.shape, dtype=np.float64)
    for i, k in enumerate(present):
        dist[i] = distance_transform_edt(crop != k, sampling=sampling)
    # a voxel may not pick its own class
    for i, k in enumerate(present):
        dist[i][crop == k] = np.inf
    inner = np.asarray(present, dtype=np.uint8)[dist.argmin(axis=0)]
    inner[crop == 0] = 0
    nearest = np.zeros(labels.header.dims, dtype=np.uint8)
    nearest[box] = inner
    return LabelVolume(labels.header, nearest, num_classes=labels.num_classes)


def _bounding_box(mask: np.ndarray) -> tuple[slice, ...]:
    """Smallest box of slices holding every True voxel of a non-empty mask."""
    box = []
    for axis in range(mask.ndim):
        others = tuple(a for a in range(mask.ndim) if a != axis)
        hit = np.flatnonzero(mask.any(axis=others))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def _objective(alpha, f, c_a, c_b, sigma, beta):
    r = f - alpha * c_a - (1.0 - alpha) * c_b
    return r * r / (2.0 * sigma * sigma) - 2.0 * beta * (alpha - 0.5) ** 2


def _map_alpha_arrays(f, c_a, c_b, sigma, beta):
    """Vectorized MAP mixing fraction; inputs broadcast as float64 arrays."""
    f = np.asarray(f, dtype=np.float64)
    c_a = np.asarray(c_a, dtype=np.float64)
    c_b = np.asarray(c_b, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)

    d = c_a - c_b
    sig2 = sigma * sigma
    curvature = d * d / sig2 - 4.0 * beta  # twice the quadratic coefficient of J

    # candidates in descending alpha; strict improvement keeps the larger
    # alpha on ties, as required
    best_alpha = np.ones(np.broadcast(f, c_a, c_b, sigma, beta).shape)
    best_j = _objective(best_alpha, f, c_a, c_b, sigma, beta)

    with np.errstate(divide="ignore", invalid="ignore"):
        stationary = (d * (f - c_b) / sig2 - 2.0 * beta) / curvature
    stationary = np.clip(stationary, 0.0, 1.0)
    convex = curvature > 0
    j_st = _objective(stationary, f, c_a, c_b, sigma, beta)
    take = convex & (j_st < best_j)
    best_alpha = np.where(take, stationary, best_alpha)
    best_j = np.where(take, j_st, best_j)

    j0 = _objective(0.0, f, c_a, c_b, sigma, beta)
    take = j0 < best_j
    best_alpha = np.where(take, 0.0, best_alpha)
    return best_alpha


def map_alpha(f: float, c_a: float, c_b: float, sigma: float, beta: float) -> float:
    """MAP estimate of the first-class fraction for a single voxel.

    Returns argmin over [0, 1] of J(alpha) as defined in the module
    docstring, breaking exact ties toward the larger alpha.
    """
    if sigma <= 0 or not np.isfinite(sigma):
        raise ArgumentError(f"sigma must be positive, got {sigma}")
    if c_a == c_b:
        raise DegeneratePairError(f"class means coincide at {c_a}")
    return float(_map_alpha_arrays(f, c_a, c_b, sigma, beta))


def estimate_pv(image: ScalarVolume, labels: LabelVolume, cfg: PvConfig,
                stats: ClassStats | None = None) -> PartialVolumeSet:
    """Full per-voxel two-class MAP partial volume estimation.

    At each non-background voxel the first class is the voxel's label and
    the second class the nearest different class; their fractions are
    (alpha, 1 - alpha) with alpha the MAP mixing fraction. Background
    voxels get all-zero fractions. stats, when given, must be
    class_stats(image, labels); a caller that needs the class statistics
    too computes them once and passes them in.
    """
    if stats is None:
        stats = class_stats(image, labels)
    second_class = second_class_map(labels)
    beta_abs = cfg.beta / (2.0 * stats.sigma * stats.sigma)

    idx = stats.index
    first = stats.labels.astype(np.int64)
    second = second_class.data.reshape(-1)[idx].astype(np.int64)
    c_a = stats.means[first - 1]
    c_b = stats.means[second - 1]
    coincide = c_a == c_b
    if coincide.any():
        pairs = {(int(a), int(b)) for a, b in zip(first[coincide], second[coincide])}
        raise DegeneratePairError(f"classes with identical means: {sorted(pairs)}")
    alpha = _map_alpha_arrays(stats.values, c_a, c_b, stats.sigma, beta_abs)

    channels = np.zeros((labels.num_classes, labels.header.n_voxels), dtype=np.float32)
    channels[first - 1, idx] = alpha
    channels[second - 1, idx] = 1.0 - alpha
    channels = channels.reshape((labels.num_classes,) + labels.header.dims)
    return PartialVolumeSet(labels.header, channels)
