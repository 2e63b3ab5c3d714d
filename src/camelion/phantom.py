"""Deterministic synthetic brain cohorts with ground-truth labels and
partial volumes, rendered under configurable acquisition protocols.

Each subject is a nested-ellipsoid "head": a CSF shell, a gray-matter shell,
a white-matter interior carrying two ventricle ellipsoids, and a brainstem
cylinder extending inferiorly. Geometry is defined on a supersampled grid;
averaging the supersampled labels down to the working resolution yields
exact partial-volume ground truth. The subvoxels are tested only in the
low-res cells a structure surface crosses.

A cohort builds each subject's truth per low-res cell, without the
supersampled grid: a pure cell takes its fractions and label from its base
label, and the counting, the top-two rule and the argmax run only in the
mixed cells. The oracle chain restrict_to_top_two(downsample_to_pv(
generate_label_phantom(...))) and pv_to_labels rebuild the same truth byte
for byte through the full grid.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tissues
from .errors import ArgumentError, FormatError, PersistenceError
from .util import derived_seed, map_in_order, worker_count
from .volumes import (
    LabelVolume,
    PartialVolumeSet,
    ScalarVolume,
    VolumeHeader,
    write_mvf,
)

LOW_RES_VOXEL_MM = 1.0

MANIFEST_NAME = "manifest.json"
# the string fields of every manifest subject entry, besides its role
_ENTRY_STRINGS = ("id", "image_a", "image_b", "labels")
# the name of every subject file a cohort writes
_SUBJECT_FILE = re.compile(r"s\d+_(image_a|image_b|labels)\.mvf")


@dataclass(frozen=True)
class PhantomParams:
    """Cohort geometry settings.

    base_dims is the working (low-res) grid; geometry is rasterized at
    base_dims * supersample and averaged down. shape_jitter scales a
    per-subject multiplicative perturbation of every structure radius.
    """

    base_dims: tuple[int, int, int] = (48, 48, 48)
    supersample: int = 4
    seed: int = 0
    shape_jitter: float = 0.05

    def __post_init__(self):
        dims = tuple(int(d) for d in self.base_dims)
        if len(dims) != 3 or any(d < 8 for d in dims):
            raise ArgumentError(f"base_dims must be 3 integers >= 8, got {self.base_dims!r}")
        object.__setattr__(self, "base_dims", dims)
        if int(self.supersample) < 2:
            raise ArgumentError(f"supersample must be >= 2, got {self.supersample}")
        object.__setattr__(self, "supersample", int(self.supersample))
        if not 0 <= self.shape_jitter <= 0.3:
            raise ArgumentError(f"shape_jitter must be in [0, 0.3], got {self.shape_jitter}")
        if int(self.seed) < 0:
            raise ArgumentError("seed must be non-negative")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class ProtocolParams:
    """Forward acquisition model for one protocol.

    A rendered intensity is g(bias * sum_k p_k * c_k) + noise where g is a
    global monotone contrast warp (exponent gamma over the class-mean
    range), bias is a smooth separable multiplicative field around 1, and
    the noise is Gaussian with standard deviation noise_sigma. The warp
    divides by the largest class mean and needs every class mean > 0, so
    that no signal is negative; the field stays positive only for
    bias_amplitude < 1.
    """

    class_means: tuple[float, ...]
    noise_sigma: float = 0.0
    gamma: float = 1.0
    bias_amplitude: float = 0.0

    def __post_init__(self):
        means = tuple(float(c) for c in self.class_means)
        if not np.isfinite(means).all():
            raise ArgumentError(f"class_means must be finite, got {means}")
        if len(set(means)) != len(means):
            raise ArgumentError(f"class means must be pairwise distinct, got {means}")
        object.__setattr__(self, "class_means", means)
        if self.noise_sigma < 0 or not np.isfinite(self.noise_sigma):
            raise ArgumentError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.3 <= self.gamma <= 3.0:
            raise ArgumentError(f"gamma must be in [0.3, 3], got {self.gamma}")
        if self.gamma != 1.0 and min(means) <= 0:
            raise ArgumentError(f"class_means must all be > 0 when gamma != 1, got {means}")
        if not 0 <= self.bias_amplitude < 1:
            raise ArgumentError(f"bias_amplitude must be in [0, 1), got {self.bias_amplitude}")


# Default protocols. A is the atlas-side protocol; B compresses the GM/WM
# contrast (gamma < 1) and adds a mild bias field, which makes a segmenter
# trained on A overestimate white matter on B inputs. The brainstem mean
# sits between CSF and GM: under the protocol-B warp it lands on the
# protocol-A gray-matter intensity, keeping it the hardest structure for
# the unadapted segmenter without colliding with the GM/WM mixture range.
DEFAULT_PROTOCOL_A = ProtocolParams(
    class_means=(25.0, 15.0, 60.0, 100.0, 45.0), noise_sigma=3.0, gamma=1.0, bias_amplitude=0.0
)
DEFAULT_PROTOCOL_B = ProtocolParams(
    class_means=(35.0, 20.0, 75.0, 95.0, 50.0), noise_sigma=3.0, gamma=0.7, bias_amplitude=0.1
)

# Baseline structure geometry in normalized [-1, 1] coordinates.
#
# Two constraints shape these numbers. Structures must keep a pure
# (unmixed) core at the default working resolution, or every
# class-intensity estimate is partial-volume-contaminated. And each
# interface must have a unique tissue on its far side (ventricles and
# brainstem both sit strictly inside white matter), so that the
# nearest-different-class rule always pairs a mixture voxel with its true
# mixing partner.
# Structure centers carry small irrational-looking offsets on purpose: a
# center on a grid symmetry plane makes rings of voxels share one exact
# mixture fraction, and such groups flip labels coherently under any tiny
# model drift.
_HEAD_RADII = np.array([0.92, 0.88, 0.84])
_GM_RADII = np.array([0.80, 0.76, 0.72])
_WM_RADII = np.array([0.62, 0.58, 0.56])
_SHELL_CENTER = (0.0137, -0.0082, 0.0051)
_VENT_RADII = np.array([0.17, 0.30, 0.12])
_VENT_CENTERS = ((0.1853, 0.0091, 0.0621), (-0.1731, -0.0118, 0.0559))
_VENT_CLIP_SCALE = 0.87   # ventricles kept strictly inside the WM interior

# The brainstem is a vertical capsule (cylinder with rounded end caps);
# flat caps would give every cap voxel the same mixture fraction, letting a
# whole disk of voxels flip labels together under any tiny model drift.
_BS_RADIUS = 0.20
_BS_SEGMENT_Z = (-0.4183, -0.2619)
_BS_CAP_RZ = 0.08
_BS_CENTER_XY = (0.0143, -0.0829)
_BS_CLIP_SCALE = 0.85     # brainstem kept strictly inside the WM interior


def _axis_coords(n: int) -> np.ndarray:
    # voxel centers, normalized to (-1, 1)
    return (np.arange(n) + 0.5) * (2.0 / n) - 1.0


def _ellipsoid_terms(coords, center, radii) -> tuple[np.ndarray, ...]:
    # per-axis 1-D terms ((x - c) / r)^2 of the ellipsoid test
    return tuple(((c - m) / r) ** 2 for c, m, r in zip(coords, center, radii))


def _outer_sum(tx, ty, tz, out=None) -> np.ndarray:
    # (tx + ty) + tz over every (x, y, z) triple of the first axes, batched
    # over any trailing axes; every structure test adds its terms in this
    # order
    return np.add(tx[:, None, None] + ty[None, :, None], tz[None, None, :], out=out)


def _geometry(params: PhantomParams, subject_index: int) -> list:
    """One subject's structures in painter's order, as (label, tests) pairs.

    Each test is the three per-axis 1-D terms (tx, ty, tz), over the voxel
    centers of the supersampled grid, of the test (tx + ty) + tz <= 1. A
    subvoxel carries the label of the last structure whose tests all hold
    there, else background. Deterministic in (params.seed, subject_index).
    """
    if subject_index < 0:
        raise ArgumentError("subject_index must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence([params.seed, subject_index, 0]))
    u = rng.uniform(-1.0, 1.0, size=14)
    j = params.shape_jitter

    head = _HEAD_RADII * (1.0 + j * u[0:3])
    gm = _GM_RADII * (1.0 + j * u[3:6])
    wm = _WM_RADII * (1.0 + j * u[6:9])
    vent = _VENT_RADII * (1.0 + j * u[9:12])
    bs_radius = _BS_RADIUS * (1.0 + j * u[12])
    bs_half = 0.5 * (_BS_SEGMENT_Z[1] - _BS_SEGMENT_Z[0]) * (1.0 + 0.5 * j * u[13])
    bs_mid = 0.5 * (_BS_SEGMENT_Z[0] + _BS_SEGMENT_Z[1])

    coords = tuple(_axis_coords(d * params.supersample) for d in params.base_dims)
    x, y, z = coords
    origin = _SHELL_CENTER
    capsule = (
        ((x - _BS_CENTER_XY[0]) / bs_radius) ** 2,
        ((y - _BS_CENTER_XY[1]) / bs_radius) ** 2,
        (np.maximum(np.abs(z - bs_mid) - bs_half, 0.0) / _BS_CAP_RZ) ** 2,
    )
    wm_interior = _ellipsoid_terms(coords, origin, wm * _VENT_CLIP_SCALE)
    return [
        (tissues.CSF, [_ellipsoid_terms(coords, origin, head)]),
        (tissues.GRAY_MATTER, [_ellipsoid_terms(coords, origin, gm)]),
        (tissues.WHITE_MATTER, [_ellipsoid_terms(coords, origin, wm)]),
        (tissues.BRAINSTEM, [capsule, _ellipsoid_terms(coords, origin, wm * _BS_CLIP_SCALE)]),
    ] + [
        (tissues.VENTRICLES, [_ellipsoid_terms(coords, center, vent), wm_interior])
        for center in _VENT_CENTERS
    ]


def _sum_within(terms, dims) -> np.ndarray:
    """The test (tx + ty) + tz <= 1 over the low-res cells, for per-axis
    terms of one value per cell. The sum runs only in the box where every
    term is <= 1: elsewhere a term is above 1, and a rounded sum of
    non-negative terms is never below an addend."""
    spans = [np.flatnonzero(t <= 1.0) for t in terms]
    holds = np.zeros(dims, dtype=bool)
    if all(span.size for span in spans):
        box = tuple(slice(span[0], span[-1] + 1) for span in spans)
        holds[box] = _outer_sum(*(t[b] for t, b in zip(terms, box))) <= 1.0
    return holds


def _classify(params: PhantomParams, subject_index: int):
    """Rasterize one subject per low-res cell: (base, mixed, blocks).

    Every subvoxel of cell c carries base[c] (uint8, shape base_dims),
    except in the cells ``mixed`` (flat indices, ascending), whose subvoxel
    labels are blocks[i] (uint8, shape (f, f, f) for supersample f).

    Rounded IEEE addition is monotone, so a cell whose largest per-axis
    terms sum to <= 1 lies wholly inside a test, and a cell whose smallest
    terms sum past 1 lies wholly outside it. The last structure wholly
    inside a cell is its base and hides every earlier one there; a later
    structure the cell leaves undecided is tested per subvoxel, in that
    cell only. The labels are those of every test evaluated on the full
    supersampled grid.
    """
    f = params.supersample
    dims = params.base_dims
    # each per-axis term as an (f, cells) array: subvoxel-major, so that
    # the per-subvoxel sums run along the cells
    geometry = [
        (label, [tuple(np.ascontiguousarray(t.reshape(-1, f).T) for t in terms)
                 for terms in tests])
        for label, tests in _geometry(params, subject_index)
    ]
    inside, undecided = [], []
    for _, tests in geometry:
        # hit: every subvoxel passes (the largest terms do); near: some
        # subvoxel may (the smallest terms do)
        hit = np.logical_and.reduce(
            [_sum_within([t.max(axis=0) for t in terms], dims) for terms in tests])
        near = np.logical_and.reduce(
            [_sum_within([t.min(axis=0) for t in terms], dims) for terms in tests])
        inside.append(hit)
        undecided.append(near & ~hit)
    covered = np.zeros(dims, dtype=bool)
    for todo, hit in zip(reversed(undecided), reversed(inside)):
        todo &= ~covered
        covered |= hit

    base = np.zeros(dims, dtype=np.uint8)
    for (label, _), hit in zip(geometry, inside):
        base[hit] = label
    mixed = np.flatnonzero(np.logical_or.reduce(undecided))
    blocks = np.empty((mixed.size, f, f, f), dtype=np.uint8)
    blocks[...] = base.ravel()[mixed, None, None, None]
    # one buffer takes every per-subvoxel sum, rather than fresh pages per test
    sums = np.empty((f, f, f, mixed.size))
    for (label, tests), todo in zip(geometry, undecided):
        pick = np.flatnonzero(todo.ravel()[mixed])
        cells = np.unravel_index(mixed[pick], dims)
        out = sums[..., :pick.size]
        # np.take keeps each gathered (f, cells) term C-contiguous
        holds = np.logical_and.reduce([
            _outer_sum(*(np.take(t, c, axis=1) for t, c in zip(terms, cells)), out=out) <= 1.0
            for terms in tests
        ])
        # beneath + (label - beneath) * holds in wrapping uint8: label where
        # the tests hold, else the label beneath; several times cheaper than
        # a masked write
        beneath = blocks[pick]
        step = np.subtract(label, beneath, dtype=np.uint8)
        step *= np.moveaxis(holds, 3, 0)
        blocks[pick] = beneath + step
    return base, mixed, blocks


def generate_label_phantom(params: PhantomParams, subject_index: int) -> LabelVolume:
    """Rasterize one subject's anatomy on the supersampled grid.

    Deterministic in (params.seed, subject_index). All five tissue classes
    are present, and ventricles are clipped to the eroded white-matter
    interior so every ventricle voxel's neighborhood holds only ventricle
    or white matter. The structure tests run per subvoxel only in the
    low-res cells a surface crosses, with the same result as a full-grid
    test.
    """
    base, mixed, blocks = _classify(params, subject_index)
    f = params.supersample
    nx, ny, nz = params.base_dims
    dims = (nx * f, ny * f, nz * f)
    labels = np.empty(dims, dtype=np.uint8)
    # each cell's f^3 subvoxels, as axes 1, 3 and 5 of a view
    cells = labels.reshape(nx, f, ny, f, nz, f)
    cells[...] = base[:, None, :, None, :, None]
    cx, cy, cz = np.unravel_index(mixed, params.base_dims)
    cells[cx, :, cy, :, cz, :] = blocks
    voxel = tuple(LOW_RES_VOXEL_MM / f for _ in range(3))
    return LabelVolume(VolumeHeader(dims, voxel), labels, num_classes=tissues.NUM_CLASSES)


def _fractions(counts: np.ndarray, cell: int) -> np.ndarray:
    """float32 class fractions from int64 per-cell label counts (code 0 is
    background) of cells holding ``cell`` subvoxels; the rule is
    :func:`downsample_to_pv`'s."""
    tissue_total = cell - counts[0]
    keep = (2 * tissue_total) >= cell
    denom = np.where(keep & (tissue_total > 0), tissue_total, 1)
    return np.where(keep, counts[1:] / denom, 0.0).astype(np.float32)


def downsample_to_pv(hr: LabelVolume, factor: int) -> PartialVolumeSet:
    """Average supersampled labels into per-class fractions.

    Each low-res fraction is the share of the factor^3 subvoxels carrying
    that label. Where tissue occupies at least half the cell the background
    share is discarded and the tissue fractions renormalized; otherwise the
    whole voxel becomes background. Fractions may touch three classes at
    structure corners; use :func:`restrict_to_top_two` to enforce the
    two-class mixing rule.
    """
    factor = int(factor)
    if factor < 1:
        raise ArgumentError(f"factor must be >= 1, got {factor}")
    dims = hr.header.dims
    if any(d % factor != 0 for d in dims):
        raise ArgumentError(f"dims {dims} not divisible by factor {factor}")
    out_dims = tuple(d // factor for d in dims)
    n_codes = hr.num_classes + 1
    # label counts per low-res cell, one bincount per low-res x slab over
    # codes cell * n_codes + label (cell indexed within the slab); slabs
    # keep the code array small
    cell_y = np.arange(dims[1]) // factor
    cell_z = np.arange(dims[2]) // factor
    slab_base = ((cell_y[:, None] * out_dims[2] + cell_z[None, :]) * n_codes).astype(np.int32)
    slab_cells = out_dims[1] * out_dims[2]
    counts = np.empty((n_codes,) + out_dims, dtype=np.int64)
    for i in range(out_dims[0]):
        codes = slab_base + hr.data[i * factor:(i + 1) * factor]
        per_cell = np.bincount(codes.ravel(), minlength=slab_cells * n_codes)
        counts[:, i] = per_cell.reshape(out_dims[1], out_dims[2], n_codes).transpose(2, 0, 1)
    voxel = tuple(v * factor for v in hr.header.voxel_size)
    return PartialVolumeSet(VolumeHeader(out_dims, voxel), _fractions(counts, factor**3))


def _top_two(channels: np.ndarray) -> np.ndarray:
    """:func:`restrict_to_top_two`'s rule on a (K, ...) stack of channels,
    returned as a new float32 array of the same shape."""
    ch = channels.astype(np.float64)
    flat = ch.reshape(ch.shape[0], -1)
    crowded = np.flatnonzero(np.count_nonzero(flat, axis=0) > 2)
    stacks = flat[:, crowded]
    order = np.argsort(-stacks, axis=0, kind="stable")[2:]
    np.put_along_axis(stacks, order, 0.0, axis=0)
    flat[:, crowded] = stacks
    total = ch.sum(axis=0)
    tissue = total > 0
    return np.where(tissue, ch / np.where(tissue, total, 1.0), 0.0).astype(np.float32)


def _argmax_labels(channels: np.ndarray) -> np.ndarray:
    """:func:`pv_to_labels`'s rule on a (K, ...) stack of channels, returned
    as a new uint8 array of the trailing shape."""
    labels = (channels.argmax(axis=0) + 1).astype(np.uint8)
    labels[~channels.any(axis=0)] = 0
    return labels


def restrict_to_top_two(pv: PartialVolumeSet) -> PartialVolumeSet:
    """Zero all but the two largest channels per voxel and renormalize.

    Ties keep the smaller class index. Background voxels stay background.
    Only voxels with three or more nonzero channels are sorted: elsewhere
    the two largest channels already hold every nonzero fraction.
    """
    if pv.num_classes <= 2:
        return pv
    return PartialVolumeSet(pv.header, _top_two(pv.channels))


def pv_to_labels(pv: PartialVolumeSet) -> LabelVolume:
    """Hard labels: per-voxel argmax channel, ties to the smaller class index."""
    return LabelVolume(pv.header, _argmax_labels(pv.channels), num_classes=pv.num_classes)


def _subject_truth(params: PhantomParams, subject_index: int):
    """One subject's truth (pv, labels): the partial volumes
    restrict_to_top_two(downsample_to_pv(generate_label_phantom(params,
    subject_index), params.supersample)) and their pv_to_labels, built per
    low-res cell without the supersampled grid.

    A pure cell is one-hot in its base label (f^3 / f^3 = 1.0, kept by the
    top-two rule as 1.0 / 1.0), or all-zero on background. Only the mixed
    cells are counted, one bincount for all of them, and only their
    columns go through the fraction, top-two and argmax rules.
    """
    base, mixed, blocks = _classify(params, subject_index)
    f = params.supersample
    k = tissues.NUM_CLASSES
    labels = base.copy()
    channels = np.zeros((k,) + base.shape, dtype=np.float32)
    # flat views, one column per cell
    flat_labels = labels.reshape(-1)
    flat_channels = channels.reshape(k, -1)
    flat_labels[mixed] = 0
    pure = np.flatnonzero(flat_labels)
    flat_channels[flat_labels[pure] - 1, pure] = 1.0
    n_codes = k + 1
    codes = np.arange(mixed.size)[:, None] * n_codes + blocks.reshape(mixed.size, f**3)
    counts = np.bincount(codes.ravel(), minlength=mixed.size * n_codes)
    kept = _top_two(_fractions(counts.reshape(mixed.size, n_codes).T, f**3))
    flat_channels[:, mixed] = kept
    flat_labels[mixed] = _argmax_labels(kept)
    # the supersampled voxel scaled back up, as downsample_to_pv computes it
    voxel = tuple(LOW_RES_VOXEL_MM / f * f for _ in range(3))
    header = VolumeHeader(params.base_dims, voxel)
    return PartialVolumeSet(header, channels), LabelVolume(header, labels, num_classes=k)


@functools.lru_cache(maxsize=4)
def bias_field(dims: tuple[int, int, int], amplitude: float) -> np.ndarray:
    """Smooth separable low-order multiplicative field around 1, made once
    per (dims, amplitude) and read-only."""
    if amplitude == 0:
        field = np.ones(dims)
    else:
        cx = np.cos(np.pi * (np.arange(dims[0]) + 0.5) / dims[0])
        cy = np.cos(np.pi * (np.arange(dims[1]) + 0.5) / dims[1])
        cz = np.cos(np.pi * (np.arange(dims[2]) + 0.5) / dims[2])
        field = 1.0 + amplitude * cx[:, None, None] * cy[None, :, None] * cz[None, None, :]
    field.flags.writeable = False
    return field


def render(pv: PartialVolumeSet, proto: ProtocolParams, seed: int) -> ScalarVolume:
    """Render an intensity image from partial volumes under one protocol.

    The signal sum_k c_k p_k is accumulated class by class in float64,
    with no BLAS call: cohort subjects render on worker threads, and after
    a BLAS call OpenBLAS's own thread keeps spinning on a CPU that the
    other cohort worker needs. The bytes equal those of an np.tensordot
    over the classes when every voxel mixes at most two classes (as the
    top-two rule makes it) and every class mean is an integer, as in the
    default protocols: each product of such a mean and a float32 fraction
    is exact in float64, so both forms round once per voxel, fused or not.
    (When every class mean is negative and there is no noise, a voxel
    without tissue reads -0.0 where tensordot gives 0.0.) With other means,
    tensordot's own result depends on the BLAS kernel the CPU picks. The
    bias field is made once per grid and amplitude, and the warp runs only
    where the signal is above 0, since it maps 0 to 0.

    Noise comes from a counter-based generator (Philox), so the result is
    bit-reproducible for a given seed regardless of evaluation order.
    """
    if len(proto.class_means) != pv.num_classes:
        raise ArgumentError(
            f"protocol has {len(proto.class_means)} class means, volume has {pv.num_classes} classes"
        )
    means = proto.class_means
    signal = np.multiply(pv.channels[0], means[0], dtype=np.float64)
    term = np.empty_like(signal)
    for mean, fraction in zip(means[1:], pv.channels[1:]):
        signal += np.multiply(fraction, mean, out=term, dtype=np.float64)
    if proto.bias_amplitude != 0:
        signal *= bias_field(pv.header.dims, proto.bias_amplitude)
    if proto.gamma != 1.0:
        x_max = max(means)
        lit = signal > 0
        signal[lit] = x_max * np.power(signal[lit] / x_max, proto.gamma)
    if proto.noise_sigma > 0:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
        signal += rng.normal(0.0, proto.noise_sigma, size=signal.shape)
    return ScalarVolume(pv.header, signal.astype(np.float32))


def _build_subject(params: PhantomParams, index: int, proto_a, proto_b, out_dir: Path, sid: str):
    pv, labels = _subject_truth(params, index)
    img_a = render(pv, proto_a, derived_seed(params.seed, index, 1))
    img_b = render(pv, proto_b, derived_seed(params.seed, index, 2))
    files = {
        "image_a": f"{sid}_image_a.mvf",
        "image_b": f"{sid}_image_b.mvf",
        "labels": f"{sid}_labels.mvf",
    }
    write_mvf(img_a, out_dir / files["image_a"])
    write_mvf(img_b, out_dir / files["image_b"])
    write_mvf(labels, out_dir / files["labels"])
    return files


def generate_cohort(
    params: PhantomParams,
    n_atlas: int,
    n_test: int,
    proto_a: ProtocolParams,
    proto_b: ProtocolParams,
    out_dir,
) -> dict:
    """Generate a full cohort and write it under ``out_dir``.

    Every subject gets three files (protocol-A image, protocol-B image,
    truth labels); the manifest lists them with relative paths so a cohort
    directory is relocatable. Each subject's truth is built per low-res
    cell, without the supersampled grid: pure cells come from their base
    label, and the subvoxel counts and the top-two rule run only in the
    mixed cells a structure surface crosses. The truth partial volumes are
    not written: restrict_to_top_two(downsample_to_pv(generate_label_phantom(
    params, i), params.supersample)) rebuilds them, and pv_to_labels the
    labels, byte for byte, from the seed. Subjects are built in parallel,
    by the calling thread beside one started thread per further CPU the
    process may run on (see map_in_order), but the output is byte-identical
    for a given seed regardless of worker count. A rerun into the
    directory of a larger cohort removes that cohort's subject files
    (``s<digits>_image_a.mvf``, ``_image_b.mvf``, ``_labels.mvf``) that
    the new manifest does not list, and keeps every other file.
    """
    if n_atlas < 1 or n_test < 1:
        raise ArgumentError("need at least one atlas and one test subject")
    for proto in (proto_a, proto_b):
        if len(proto.class_means) != tissues.NUM_CLASSES:
            raise ArgumentError(
                f"protocol has {len(proto.class_means)} class means, "
                f"the phantom has {tissues.NUM_CLASSES} classes"
            )
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PersistenceError(f"cannot create {out_dir}: {exc}") from exc

    total = n_atlas + n_test
    sids = [f"s{i:03d}" for i in range(total)]
    roles = ["atlas"] * n_atlas + ["test"] * n_test

    def build(i):
        return _build_subject(params, i, proto_a, proto_b, out_dir, sids[i])

    all_files = map_in_order(build, range(total), worker_count())

    manifest = {
        "seed": params.seed,
        "base_dims": list(params.base_dims),
        "voxel_size_mm": [LOW_RES_VOXEL_MM] * 3,
        "n_atlas": n_atlas,
        "n_test": n_test,
        "subjects": [
            {"id": sid, "role": role, **files}
            for sid, role, files in zip(sids, roles, all_files)
        ],
    }
    manifest_path = out_dir / MANIFEST_NAME
    try:
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise PersistenceError(f"cannot write {manifest_path}: {exc}") from exc
    _remove_stale_subjects(out_dir, {name for files in all_files for name in files.values()})
    return manifest


def _remove_stale_subjects(out_dir: Path, listed: set) -> None:
    """Remove the subject files of an earlier, larger cohort in out_dir
    that the new manifest does not list; any other file is kept."""
    try:
        for path in out_dir.iterdir():
            if _SUBJECT_FILE.fullmatch(path.name) and path.name not in listed and path.is_file():
                path.unlink()
    except OSError as exc:
        raise PersistenceError(f"cannot clear the earlier cohort in {out_dir}: {exc}") from exc


def load_manifest(path) -> dict:
    """Read a cohort manifest, attaching the directory for path resolution.

    Raises FormatError naming the file unless it is a JSON object whose
    "subjects" list gives each subject a unique string id, a role of "atlas"
    or "test", and string image_a, image_b and labels file names.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    try:
        manifest = json.loads(raw)
    except ValueError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("subjects"), list):
        raise FormatError(f"{path} is not a manifest object with a 'subjects' list")
    seen = set()
    for i, entry in enumerate(manifest["subjects"]):
        if not (isinstance(entry, dict) and entry.get("role") in ("atlas", "test")
                and all(isinstance(entry.get(key), str) for key in _ENTRY_STRINGS)):
            raise FormatError(
                f"{path}: subject {i} needs string {', '.join(_ENTRY_STRINGS)} "
                "and a role of 'atlas' or 'test'"
            )
        if entry["id"] in seen:
            raise FormatError(f"{path}: subject id {entry['id']!r} is listed twice")
        seen.add(entry["id"])
    manifest["_dir"] = str(path.parent)
    return manifest
