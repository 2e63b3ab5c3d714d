"""Volume value types and deterministic binary persistence.

All images in the toolkit are plain voxel-aligned 3D grids. Scalar
intensities are stored as little-endian float32, labels as uint8, and
partial-volume fractions as per-class float32 planes. Volumes are immutable
after construction (the backing numpy arrays are frozen), which makes them
safe to share across worker threads.

The canonical on-disk form is the MVF container:

    magic "MVF1" | kind u8 | K u8 | dims 3*u32 | voxel_size 3*f32 | payload

with kind 1 = scalar (K byte 0), 2 = label (K byte holds num_classes),
3 = partial volumes (K byte holds the channel count). Payloads are C-order,
channel-major for partial volumes. Files round-trip bit exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ArgumentError, FormatError, PersistenceError, ValidationError
from .util import frozen

MVF_MAGIC = b"MVF1"
KIND_SCALAR = 1
KIND_LABEL = 2
KIND_PV = 3

_HEADER = struct.Struct("<4sBB3I3f")
HEADER_SIZE = _HEADER.size  # 30 bytes


@dataclass(frozen=True)
class VolumeHeader:
    """Grid geometry: voxel counts per axis and voxel edge lengths in mm.

    Voxel sizes are quantized to float32 on construction so that a header
    written to disk compares equal to the header read back.
    """

    dims: tuple[int, int, int]
    voxel_size: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ArgumentError(f"dims must be 3 positive integers, got {self.dims!r}")
        vs = tuple(float(np.float32(v)) for v in self.voxel_size)
        if len(vs) != 3 or any(not np.isfinite(v) or v <= 0 for v in vs):
            raise ArgumentError(f"voxel_size must be 3 positive finite reals, got {self.voxel_size!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "voxel_size", vs)

    @property
    def n_voxels(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def voxel_volume_mm3(self) -> float:
        return self.voxel_size[0] * self.voxel_size[1] * self.voxel_size[2]


def _freeze(arr: np.ndarray) -> np.ndarray:
    """arr made read-only, or a read-only copy of it when it views an array
    that is writeable: clearing arr's own flag would leave its bytes
    writable through that array. A view of read-only arrays down to bytes
    (as np.frombuffer makes) is kept."""
    if arr.base is not None and not frozen(arr.base):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(eq=False)
class ScalarVolume:
    """A 3D grid of finite float32 intensities."""

    header: VolumeHeader
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.shape != self.header.dims:
            raise ArgumentError(f"data shape {data.shape} does not match dims {self.header.dims}")
        if not np.isfinite(data).all():
            raise ArgumentError("scalar volume contains non-finite values")
        self.data = _freeze(data)


@dataclass(eq=False)
class LabelVolume:
    """A 3D grid of discrete labels in {0, ..., num_classes}, 0 = background."""

    header: VolumeHeader
    data: np.ndarray
    num_classes: int

    def __post_init__(self):
        if not 0 <= int(self.num_classes) <= 255:
            raise ArgumentError(f"num_classes must be in [0, 255], got {self.num_classes}")
        self.num_classes = int(self.num_classes)
        data = np.asarray(self.data)
        if data.shape != self.header.dims:
            raise ArgumentError(f"data shape {data.shape} does not match dims {self.header.dims}")
        if data.dtype != np.uint8:
            if not np.issubdtype(data.dtype, np.integer):
                raise ArgumentError(f"labels must be integers, got dtype {data.dtype}")
            if data.min(initial=0) < 0 or data.max(initial=0) > 255:
                raise ArgumentError("label values outside uint8 range")
            data = data.astype(np.uint8)
        data = np.ascontiguousarray(data)
        if data.max(initial=0) > self.num_classes:
            raise ArgumentError(
                f"label value {int(data.max())} exceeds num_classes {self.num_classes}"
            )
        self.data = _freeze(data)


def _check_fractions(channels: np.ndarray) -> None:
    """ArgumentError unless every fraction is finite and in [0, 1]."""
    if not np.isfinite(channels).all():
        raise ArgumentError("partial volumes contain non-finite values")
    if (channels < 0).any() or (channels > 1).any():
        raise ArgumentError("partial volumes must lie in [0, 1]")


@dataclass(eq=False)
class PartialVolumeSet:
    """Per-voxel tissue fractions, one float32 plane per non-background class.

    Channel ``k`` holds the fraction of class ``k + 1``. Background voxels
    are all-zero. The full invariant set (fractions sum to one at tissue
    voxels, at most two classes mixed per voxel) is checked by
    :func:`validate_partial_volumes` rather than at construction, because
    intermediate products are allowed to be lenient.
    """

    header: VolumeHeader
    channels: np.ndarray

    def __post_init__(self):
        ch = np.ascontiguousarray(self.channels, dtype=np.float32)
        if ch.ndim != 4 or ch.shape[1:] != self.header.dims:
            raise ArgumentError(
                f"channels must have shape (K, *dims), got {ch.shape} for dims {self.header.dims}"
            )
        if ch.shape[0] < 1:
            raise ArgumentError("partial volume set needs at least one channel")
        _check_fractions(ch)
        self.channels = _freeze(ch)

    @property
    def num_classes(self) -> int:
        return self.channels.shape[0]


@dataclass(eq=False)
class TissuePartialVolumes:
    """A partial-volume set held at its tissue voxels only.

    Column j of channels holds the fractions of the voxel with flat C-order
    index index[j]; every voxel not listed is background (all-zero). Each
    fraction is finite and in [0, 1], as in a PartialVolumeSet. The arrays
    are read-only; full() scatters the set back onto the grid.
    """

    header: VolumeHeader
    index: np.ndarray      # (n,) intp, distinct
    channels: np.ndarray   # (K, n) float32

    def __post_init__(self):
        index = np.asarray(self.index, dtype=np.intp)
        ch = np.ascontiguousarray(self.channels, dtype=np.float32)
        if index.ndim != 1 or ch.ndim != 2 or ch.shape[1] != index.size:
            raise ArgumentError(
                f"channels must have shape (K, {index.size}) for {index.size} voxels, got {ch.shape}")
        if ch.shape[0] < 1:
            raise ArgumentError("partial volume set needs at least one channel")
        _check_fractions(ch)
        self.index = _freeze(index)
        self.channels = _freeze(ch)

    @classmethod
    def at(cls, pv: PartialVolumeSet, index: np.ndarray) -> "TissuePartialVolumes":
        """pv's fractions at the given flat voxel indices, in that order."""
        return cls(pv.header, index, pv.channels.reshape(pv.num_classes, -1)[:, index])

    @classmethod
    def of(cls, pv: PartialVolumeSet) -> "TissuePartialVolumes":
        """pv's fractions at its tissue voxels (those with a nonzero
        fraction), in C order."""
        return cls.at(pv, np.flatnonzero(pv.channels.any(axis=0)))

    @property
    def num_classes(self) -> int:
        return self.channels.shape[0]

    def full(self) -> PartialVolumeSet:
        channels = np.zeros((self.num_classes,) + self.header.dims, dtype=np.float32)
        channels.reshape(self.num_classes, -1)[:, self.index] = self.channels
        return PartialVolumeSet(self.header, channels)


Volume = Union[ScalarVolume, LabelVolume, PartialVolumeSet]


@dataclass(eq=False)
class AtlasPair:
    """An intensity image with its label map."""

    image: ScalarVolume
    labels: LabelVolume

    def __post_init__(self):
        require_same_header(self.image, self.labels)


def require_same_header(*volumes) -> VolumeHeader:
    """Return the shared header, raising ArgumentError on any mismatch.

    Volumes are never resampled implicitly; combining grids that disagree in
    dims or voxel size is always an error.
    """
    headers = [v.header for v in volumes]
    first = headers[0]
    for h in headers[1:]:
        if h != first:
            raise ArgumentError(f"volume headers differ: {first} vs {h}")
    return first


def validate_partial_volumes(
    pv: PartialVolumeSet, require_two_class: bool = True, sum_tol: float = 1e-6
) -> None:
    """Check the full partial-volume invariant set, raising ValidationError.

    Checks, per voxel: every fraction in [0, 1]; fractions of tissue voxels
    sum to 1 within ``sum_tol``; background voxels all-zero (implied by the
    sum rule); and, when ``require_two_class``, at most two nonzero channels.
    """
    ch = pv.channels
    if not np.isfinite(ch).all():
        raise ValidationError("non-finite partial volume fractions")
    if (ch < 0).any() or (ch > 1).any():
        raise ValidationError("partial volume fractions outside [0, 1]")
    sums = ch.sum(axis=0, dtype=np.float64)
    tissue = ch.any(axis=0)
    bad = tissue & (np.abs(sums - 1.0) > sum_tol)
    if bad.any():
        worst = float(np.abs(sums[bad] - 1.0).max())
        raise ValidationError(
            f"{int(bad.sum())} tissue voxels violate the sum-to-one rule (worst |sum-1| = {worst:g})"
        )
    if require_two_class:
        nonzero = (ch > 0).sum(axis=0)
        over = nonzero > 2
        if over.any():
            raise ValidationError(
                f"{int(over.sum())} voxels mix more than two classes (max {int(nonzero.max())})"
            )


def _kind_of(volume: Volume) -> int:
    if isinstance(volume, ScalarVolume):
        return KIND_SCALAR
    if isinstance(volume, LabelVolume):
        return KIND_LABEL
    if isinstance(volume, PartialVolumeSet):
        return KIND_PV
    raise ArgumentError(f"not a volume: {type(volume).__name__}")


def encode_mvf(volume: Volume) -> bytes:
    """Serialize a volume to MVF container bytes."""
    kind = _kind_of(volume)
    if kind == KIND_SCALAR:
        k_byte = 0
        payload = volume.data.tobytes()
    elif kind == KIND_LABEL:
        k_byte = volume.num_classes
        payload = volume.data.tobytes()
    else:
        k_byte = volume.num_classes
        payload = volume.channels.tobytes()
    header = _HEADER.pack(MVF_MAGIC, kind, k_byte, *volume.header.dims, *volume.header.voxel_size)
    return header + payload


def decode_mvf(buf: bytes, source: str = "<bytes>") -> Volume:
    """Parse MVF container bytes (exact inverse of :func:`encode_mvf`)."""
    if len(buf) < HEADER_SIZE:
        raise FormatError(f"{source}: shorter than the MVF header")
    magic, kind, k_byte, d0, d1, d2, v0, v1, v2 = _HEADER.unpack_from(buf, 0)
    if magic != MVF_MAGIC:
        raise FormatError(f"{source}: bad magic {magic!r}")
    if kind not in (KIND_SCALAR, KIND_LABEL, KIND_PV):
        raise FormatError(f"{source}: unknown volume kind {kind}")
    dims = (d0, d1, d2)
    n = d0 * d1 * d2

    if kind == KIND_SCALAR:
        if k_byte != 0:
            raise FormatError(f"{source}: scalar volume with nonzero K byte {k_byte}")
        expected = 4 * n
    elif kind == KIND_LABEL:
        expected = n
    else:
        expected = 4 * k_byte * n
    got = len(buf) - HEADER_SIZE
    if got != expected:
        raise FormatError(f"{source}: payload is {got} bytes, header promises {expected}")

    # geometry, finiteness and value ranges are checked by the constructors
    raw = buf[HEADER_SIZE:]
    try:
        header = VolumeHeader(dims, (v0, v1, v2))
        if kind == KIND_SCALAR:
            data = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
            return ScalarVolume(header, data)
        if kind == KIND_LABEL:
            data = np.frombuffer(raw, dtype=np.uint8).reshape(dims).copy()
            return LabelVolume(header, data, num_classes=k_byte)
        channels = np.frombuffer(raw, dtype="<f4").reshape((k_byte,) + dims).copy()
        return PartialVolumeSet(header, channels)
    except ArgumentError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def write_mvf(volume: Volume, path) -> None:
    """Write a volume to ``path`` in the MVF container format."""
    blob = encode_mvf(volume)
    try:
        with open(path, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        raise PersistenceError(f"cannot write {path}: {exc}") from exc


def read_mvf(path) -> Volume:
    """Read a volume written by :func:`write_mvf` (exact inverse)."""
    try:
        buf = Path(path).read_bytes()
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    return decode_mvf(buf, source=str(path))
