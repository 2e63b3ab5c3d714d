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
    TissuePartialVolumes,
    require_same_header,
)

SIGMA_FLOOR_FRACTION = 1e-3  # of the image intensity range
SEARCH_RADIUS = 10           # nearest-class search, in smallest voxel edges
GATHER_LIMIT = 1 << 20       # offsets x voxels of one nearest-class gather
PURE_MARGIN = 1e-9           # inward pull of a pure interval's edge, relative


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


def second_class_map(labels: LabelVolume, need: np.ndarray | None = None) -> LabelVolume:
    """Per voxel, the label of the nearest different non-background class.

    Distances are anisotropic Euclidean using the header voxel size, each
    computed as sqrt((dx*sx)**2 + (dy*sy)**2 + (dz*sz)**2); exact-distance
    ties resolve to the smaller class index. Background voxels map to 0.
    need, a boolean array of the labels' shape, limits the answer to the
    voxels where it is True; every other voxel then maps to 0.

    The search runs one present class at a time. It walks the offsets of
    _search_table nearest first, one group of equally distant offsets at a
    time, over the voxels of the class it has not resolved yet, reading a
    copy of the labels in which that class and background are one value.
    A voxel resolves at the first group that reaches another class, and
    takes the smallest class of that group. Voxels outside the grid and
    outside the bounding box of the tissue are background, so the search
    reads the box padded by the table's reach. Every offset nearer than a
    resolving group's was looked at before it, so the answer is exact.
    The walk starts on the table of SEARCH_RADIUS; the voxels it leaves
    unresolved walk on through the groups beyond it of a table of twice
    the radius, on the box padded anew, and so on. Another class lies in
    the box, so every voxel resolves. The last table grows with the cube
    of the largest nearest-class distance (isotropic: 4.2 k offsets at
    radius 10, 33 k at 20, 268 k at 40). A gather's index array holds at
    most GATHER_LIMIT entries (offsets times voxels), 8 bytes each: 8 MB.
    """
    present = [k for k in range(1, labels.num_classes + 1) if (labels.data == k).any()]
    if len(present) < 2:
        raise GeometryError(f"need at least two tissue classes, found {len(present)}")
    if need is not None:
        need = np.asarray(need, dtype=bool)
        if need.shape != labels.header.dims:
            raise ArgumentError(f"need has shape {need.shape}, labels {labels.header.dims}")
    box = _bounding_box(labels.data > 0)
    crop = labels.data[box]
    voxel_size = tuple(float(s) for s in labels.header.voxel_size)
    radius, walked = SEARCH_RADIUS, 0
    table = _search_table(voxel_size, radius)
    pads = [(r, r) for r in table.reach]
    padded = np.pad(crop, pads)
    # the voxels to answer; background ones stay 0
    pending = np.flatnonzero(padded if need is None else np.pad(need[box], pads))
    nearest = np.zeros(labels.header.dims, dtype=np.uint8)
    while True:
        flat = padded.reshape(-1)
        # uint8, so the byte strides are the flat index steps along each axis
        steps = table.offsets @ np.asarray(padded.strides, dtype=np.intp)
        # labels minus one, background wrapping to 255
        minus_one = flat - np.uint8(1)
        found = np.zeros_like(flat)
        pending_class = flat[pending]
        left = [pending[:0]]  # the voxels still unresolved, never an empty list
        for k in present:
            todo = pending[pending_class == k]
            if not todo.size:
                continue
            # class k reads as 255 too, so a minimum below 255 is another class
            others = np.maximum(minus_one, (flat == k).view(np.uint8) * np.uint8(255))
            for start, stop in table.groups[walked:]:
                best = _group_min(others, todo, steps[start:stop])
                # 255 + 1 wraps to 0, so a voxel not resolved yet stays 0
                found[todo] = best + np.uint8(1)
                todo = todo[best == 255]
                if not todo.size:
                    break
            left.append(todo)
        inner = tuple(slice(r, r + n) for r, n in zip(table.reach, crop.shape))
        nearest[box] |= found.reshape(padded.shape)[inner]
        pending = np.concatenate(left)
        if not pending.size:
            break
        coords = np.unravel_index(pending, padded.shape)
        radius, walked, reach = 2 * radius, len(table.groups), table.reach
        table = _search_table(voxel_size, radius)
        padded = np.pad(crop, [(r, r) for r in table.reach])
        pending = np.ravel_multi_index([c - old + new for c, old, new in
                                        zip(coords, reach, table.reach)], padded.shape)
    return LabelVolume(labels.header, nearest, num_classes=labels.num_classes)


def _group_min(others: np.ndarray, todo: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Per voxel of todo, the least value of others at the steps from it."""
    size = max(1, GATHER_LIMIT // steps.size)
    if todo.size <= size:
        return others[todo + steps[:, None]].min(axis=0)
    return np.concatenate([_group_min(others, todo[i:i + size], steps)
                           for i in range(0, todo.size, size)])


@dataclass(frozen=True)
class _SearchTable:
    """Integer voxel offsets (n, 3) within a radius, sorted by distance;
    groups are the [start, stop) rows of each distance, nearest first, and
    reach the largest offset along each axis. The arrays are read-only."""

    offsets: np.ndarray
    groups: tuple[tuple[int, int], ...]
    reach: tuple[int, int, int]


@functools.lru_cache(maxsize=8)
def _search_table(voxel_size: tuple[float, float, float], radius: int) -> _SearchTable:
    """The search table of one voxel size: every nonzero offset whose
    distance is at most radius times the smallest voxel edge. The tables
    of two radii share their groups up to the smaller radius."""
    limit = radius * min(voxel_size)
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
    best_j = _objective(1.0, f, c_a, c_b, sigma, beta)

    with np.errstate(divide="ignore", invalid="ignore"):
        stationary = (d * (f - c_b) / sig2 - 2.0 * beta) / curvature
    stationary = np.clip(stationary, 0.0, 1.0)
    convex = curvature > 0
    j_st = _objective(stationary, f, c_a, c_b, sigma, beta)
    take = convex & (j_st < best_j)
    best_alpha = np.where(take, stationary, 1.0)
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


def _pure_intervals(means: np.ndarray, present: list[int],
                    beta: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Per class, the closed interval [lo, hi] of intensities at which a
    voxel of that class takes alpha = 1 whatever its second class is; None
    when two present classes share a mean.

    With r = f - c_a and d = c_a - c_b, J(1 - u) - J(1) is
    [u (r d + beta) + u^2 (d^2 - 2 beta) / 2] / sigma^2, which is >= 0 for
    every u in (0, 1] exactly when r d >= max(-beta, -d^2 / 2). Each
    present b != a bounds f on one side, at c_a + max(-beta, -d^2 / 2) / d.
    The bound is pulled inward by PURE_MARGIN times |c_a| + |c_b| + its
    distance from c_a, which is far more than the solver's rounding error
    there, so the solver cannot pick another alpha inside it. Absent
    classes get the empty interval (inf, -inf).
    """
    c = means[np.asarray(present) - 1]
    if (np.diff(np.sort(c)) == 0).any():
        return None
    lo = np.full(means.size, np.inf)
    hi = np.full(means.size, -np.inf)
    for a, c_a in zip(present, c):
        c_b = c[c != c_a]
        d = c_a - c_b
        offset = np.maximum(-beta, -d * d / 2.0) / d
        edge = c_a + offset
        margin = PURE_MARGIN * (abs(c_a) + np.abs(c_b) + np.abs(offset))
        lo[a - 1] = np.max(edge[d > 0] + margin[d > 0], initial=-np.inf)
        hi[a - 1] = np.min(edge[d < 0] - margin[d < 0], initial=np.inf)
    return lo, hi


def estimate_tissue_pv(image: ScalarVolume, labels: LabelVolume, cfg: PvConfig,
                       stats: ClassStats | None = None) -> TissuePartialVolumes:
    """Two-class MAP partial volume estimation at the tissue voxels.

    At each non-background voxel the first class is the voxel's label and
    the second class the nearest different class; their fractions are
    (alpha, 1 - alpha) with alpha the MAP mixing fraction. The result holds
    the labels' tissue voxels in C order, every other voxel being
    background. stats, when given, must be class_stats(image, labels); a
    caller that needs the class statistics too computes them once and
    passes them in.

    A voxel whose intensity lies in its class's pure interval (see
    _pure_intervals) gets (1, 0) without a second class, so the nearest-
    class search runs on the other voxels only. The bytes are those of the
    search and the solver run on every voxel.
    """
    if stats is None:
        stats = class_stats(image, labels)
    present = [k for k in range(1, labels.num_classes + 1) if (stats.labels == k).any()]
    first = stats.labels.astype(np.intp) - 1
    intervals = _pure_intervals(stats.means, present, cfg.beta)
    if intervals is None:
        rest = np.arange(first.size)
        need = None
    else:
        lo, hi = intervals
        rest = np.flatnonzero((stats.values < lo[first]) | (stats.values > hi[first]))
        need = np.zeros(labels.header.n_voxels, dtype=bool)
        need[stats.index[rest]] = True
        need = need.reshape(labels.header.dims)
    second_class = second_class_map(labels, need)
    beta_abs = cfg.beta / (2.0 * stats.sigma * stats.sigma)

    second = second_class.data.reshape(-1)[stats.index[rest]].astype(np.intp) - 1
    c_a = stats.means[first[rest]]
    c_b = stats.means[second]
    coincide = c_a == c_b
    if coincide.any():
        pairs = {(int(a) + 1, int(b) + 1) for a, b in zip(first[rest][coincide], second[coincide])}
        raise DegeneratePairError(f"classes with identical means: {sorted(pairs)}")
    alpha = np.ones(first.size)
    alpha[rest] = _map_alpha_arrays(stats.values[rest], c_a, c_b, stats.sigma, beta_abs)

    channels = np.zeros((labels.num_classes, first.size), dtype=np.float32)
    channels[first, np.arange(first.size)] = alpha
    channels[second, rest] = 1.0 - alpha[rest]
    return TissuePartialVolumes(labels.header, stats.index, channels)


def estimate_pv(image: ScalarVolume, labels: LabelVolume, cfg: PvConfig,
                stats: ClassStats | None = None) -> PartialVolumeSet:
    """estimate_tissue_pv on the full grid: background voxels get all-zero
    fractions."""
    return estimate_tissue_pv(image, labels, cfg, stats).full()
