"""Deterministic synthetic brain cohorts with ground-truth labels and
partial volumes, rendered under configurable acquisition protocols.

Each subject is a nested-ellipsoid "head": a CSF shell, a gray-matter shell,
a white-matter interior carrying two ventricle ellipsoids, and a brainstem
cylinder extending inferiorly. Geometry is built on a supersampled grid;
averaging the supersampled labels down to the working resolution yields
exact partial-volume ground truth.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tissues
from .errors import ArgumentError, FormatError, PersistenceError
from .util import derived_seed, worker_count
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
    the noise is Gaussian with standard deviation noise_sigma.
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
        if self.bias_amplitude < 0 or not np.isfinite(self.bias_amplitude):
            raise ArgumentError(f"bias_amplitude must be >= 0, got {self.bias_amplitude}")


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


def _box(terms) -> tuple[slice, ...]:
    """Index range, per axis, where that axis's 1-D term is <= 1.

    Every voxel outside this box is outside the structure: one of its terms
    exceeds 1, the others are >= 0, and IEEE addition is monotone, so the
    rounded sum exceeds 1 too. The box is empty along an axis the structure
    does not reach.
    """
    box = []
    for t in terms:
        inside = np.flatnonzero(t <= 1.0)
        box.append(slice(inside[0], inside[-1] + 1) if inside.size else slice(0, 0))
    return tuple(box)


def _inside(terms, box) -> np.ndarray:
    # the full-grid test (tx + ty) + tz <= 1, restricted to the box: the
    # same operations on the same values, hence the same bits
    tx, ty, tz = (t[s] for t, s in zip(terms, box))
    return (tx[:, None, None] + ty[None, :, None]) + tz[None, None, :] <= 1.0


def _paint(labels: np.ndarray, label: int, terms, clip=None) -> None:
    """Set ``label`` where the structure's test holds (and the clip test,
    evaluated on the structure's own box, also holds)."""
    box = _box(terms)
    mask = _inside(terms, box)
    if clip is not None:
        mask &= _inside(clip, box)
    labels[box][mask] = label


def generate_label_phantom(params: PhantomParams, subject_index: int) -> LabelVolume:
    """Rasterize one subject's anatomy on the supersampled grid.

    Deterministic in (params.seed, subject_index). All five tissue classes
    are present, and ventricles are clipped to the eroded white-matter
    interior so every ventricle voxel's neighborhood holds only ventricle
    or white matter. Each structure is evaluated only inside its bounding
    box, with the same result as a full-grid test.
    """
    if subject_index < 0:
        raise ArgumentError("subject_index must be non-negative")
    ss = params.supersample
    dims = tuple(d * ss for d in params.base_dims)
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

    coords = tuple(_axis_coords(n) for n in dims)
    x, y, z = coords
    origin = _SHELL_CENTER

    labels = np.zeros(dims, dtype=np.uint8)
    _paint(labels, tissues.CSF, _ellipsoid_terms(coords, origin, head))
    _paint(labels, tissues.GRAY_MATTER, _ellipsoid_terms(coords, origin, gm))
    _paint(labels, tissues.WHITE_MATTER, _ellipsoid_terms(coords, origin, wm))

    capsule = (
        ((x - _BS_CENTER_XY[0]) / bs_radius) ** 2,
        ((y - _BS_CENTER_XY[1]) / bs_radius) ** 2,
        (np.maximum(np.abs(z - bs_mid) - bs_half, 0.0) / _BS_CAP_RZ) ** 2,
    )
    _paint(labels, tissues.BRAINSTEM, capsule,
           clip=_ellipsoid_terms(coords, origin, wm * _BS_CLIP_SCALE))

    wm_interior = _ellipsoid_terms(coords, origin, wm * _VENT_CLIP_SCALE)
    for center in _VENT_CENTERS:
        _paint(labels, tissues.VENTRICLES, _ellipsoid_terms(coords, center, vent),
               clip=wm_interior)

    voxel = tuple(LOW_RES_VOXEL_MM / ss for _ in range(3))
    return LabelVolume(VolumeHeader(dims, voxel), labels, num_classes=tissues.NUM_CLASSES)


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
    cell = factor**3
    tissue_total = cell - counts[0]
    keep = (2 * tissue_total) >= cell
    denom = np.where(keep & (tissue_total > 0), tissue_total, 1)
    channels = np.where(keep, counts[1:] / denom, 0.0).astype(np.float32)
    voxel = tuple(v * factor for v in hr.header.voxel_size)
    return PartialVolumeSet(VolumeHeader(out_dims, voxel), channels)


def restrict_to_top_two(pv: PartialVolumeSet) -> PartialVolumeSet:
    """Zero all but the two largest channels per voxel and renormalize.

    Ties keep the smaller class index. Background voxels stay background.
    """
    ch = pv.channels.astype(np.float64)
    if ch.shape[0] <= 2:
        return pv
    order = np.argsort(-ch, axis=0, kind="stable")[:2]
    top2 = np.take_along_axis(ch, order, axis=0)
    kept = np.zeros_like(ch)
    np.put_along_axis(kept, order, top2, axis=0)
    total = kept.sum(axis=0)
    tissue = total > 0
    kept = np.where(tissue, kept / np.where(tissue, total, 1.0), 0.0)
    return PartialVolumeSet(pv.header, kept.astype(np.float32))


def pv_to_labels(pv: PartialVolumeSet) -> LabelVolume:
    """Hard labels: per-voxel argmax channel, ties to the smaller class index."""
    ch = pv.channels
    labels = (ch.argmax(axis=0) + 1).astype(np.uint8)
    labels[~ch.any(axis=0)] = 0
    return LabelVolume(pv.header, labels, num_classes=pv.num_classes)


def bias_field(dims: tuple[int, int, int], amplitude: float) -> np.ndarray:
    """Smooth separable low-order multiplicative field around 1."""
    if amplitude == 0:
        return np.ones(dims)
    cx = np.cos(np.pi * (np.arange(dims[0]) + 0.5) / dims[0])
    cy = np.cos(np.pi * (np.arange(dims[1]) + 0.5) / dims[1])
    cz = np.cos(np.pi * (np.arange(dims[2]) + 0.5) / dims[2])
    return 1.0 + amplitude * cx[:, None, None] * cy[None, :, None] * cz[None, None, :]


def render(pv: PartialVolumeSet, proto: ProtocolParams, seed: int) -> ScalarVolume:
    """Render an intensity image from partial volumes under one protocol.

    Noise comes from a counter-based generator (Philox), so the result is
    bit-reproducible for a given seed regardless of evaluation order.
    """
    if len(proto.class_means) != pv.num_classes:
        raise ArgumentError(
            f"protocol has {len(proto.class_means)} class means, volume has {pv.num_classes} classes"
        )
    means = np.asarray(proto.class_means, dtype=np.float64)
    signal = np.tensordot(means, pv.channels.astype(np.float64), axes=(0, 0))
    signal *= bias_field(pv.header.dims, proto.bias_amplitude)
    if proto.gamma != 1.0:
        x_max = float(means.max())
        signal = x_max * np.power(np.maximum(signal, 0.0) / x_max, proto.gamma)
    if proto.noise_sigma > 0:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
        signal = signal + rng.normal(0.0, proto.noise_sigma, size=signal.shape)
    return ScalarVolume(pv.header, signal.astype(np.float32))


def _build_subject(params: PhantomParams, index: int, proto_a, proto_b, out_dir: Path, sid: str):
    hr = generate_label_phantom(params, index)
    pv = restrict_to_top_two(downsample_to_pv(hr, params.supersample))
    labels = pv_to_labels(pv)
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
    directory is relocatable. The truth partial volumes are not written:
    generate_label_phantom, downsample_to_pv and restrict_to_top_two
    rebuild them from the seed. Subjects are
    rendered in parallel, one worker per CPU the process may run on, but
    the output is byte-identical for a given seed regardless of worker
    count.
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

    with ThreadPoolExecutor(max_workers=min(worker_count(), total)) as pool:
        all_files = list(pool.map(build, range(total)))

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
    return manifest


def load_manifest(path) -> dict:
    """Read a cohort manifest, attaching the directory for path resolution.

    Raises FormatError naming the file unless it is a JSON object whose
    "subjects" list gives each subject a string id, a role of "atlas" or
    "test", and string image_a, image_b and labels file names.
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
    for i, entry in enumerate(manifest["subjects"]):
        if not (isinstance(entry, dict) and entry.get("role") in ("atlas", "test")
                and all(isinstance(entry.get(key), str) for key in _ENTRY_STRINGS)):
            raise FormatError(
                f"{path}: subject {i} needs string {', '.join(_ENTRY_STRINGS)} "
                "and a role of 'atlas' or 'test'"
            )
    manifest["_dir"] = str(path.parent)
    return manifest
