"""Percentile-landmark piecewise-linear histogram matching.

The comparison baseline: extract intensity landmarks at fixed percentiles
from a source and a reference image, then map source intensities through
the piecewise-linear function joining corresponding landmarks (with linear
extrapolation beyond the extremes using the end-segment slopes). The map is
global over the mask, so two voxels of equal intensity always map to equal
outputs; local contrast differences are out of its reach by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .util import percentile
from .volumes import LabelVolume, ScalarVolume

DEFAULT_PERCENTILES = (1.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 99.0)


@dataclass(frozen=True)
class LandmarkMap:
    """Corresponding source/reference intensity landmarks.

    Source landmarks must be strictly increasing (a zero-width segment has
    no defined slope); reference landmarks must be nondecreasing.
    """

    source_landmarks: tuple[float, ...]
    reference_landmarks: tuple[float, ...]

    def __post_init__(self):
        src = tuple(float(v) for v in self.source_landmarks)
        ref = tuple(float(v) for v in self.reference_landmarks)
        if len(src) != len(ref) or len(src) < 2:
            raise ArgumentError("need two equal-length landmark lists of length >= 2")
        if any(b <= a for a, b in zip(src, src[1:])):
            raise ArgumentError("source landmarks must be strictly increasing")
        if any(b < a for a, b in zip(ref, ref[1:])):
            raise ArgumentError("reference landmarks must be nondecreasing")
        object.__setattr__(self, "source_landmarks", src)
        object.__setattr__(self, "reference_landmarks", ref)


def _foreground(image: ScalarVolume, mask) -> np.ndarray:
    if mask is None:
        fg = image.data > 0
    elif isinstance(mask, LabelVolume):
        if mask.header != image.header:
            raise ArgumentError("mask header does not match image")
        fg = mask.data > 0
    else:
        fg = np.asarray(mask, dtype=bool)
        if fg.shape != image.header.dims:
            raise ArgumentError("boolean mask shape does not match image")
    if not fg.any():
        raise ArgumentError("empty foreground mask")
    return fg


def check_percentiles(percentiles) -> np.ndarray:
    """Landmark percentiles as float64, raising ArgumentError unless they
    lie strictly inside (0, 100) and strictly increase (so none is NaN)."""
    pcts = np.asarray(percentiles, dtype=np.float64)
    if pcts.size < 1 or not ((pcts > 0) & (pcts < 100)).all():
        raise ArgumentError("percentiles must lie strictly inside (0, 100)")
    if not (np.diff(pcts) > 0).all():
        raise ArgumentError("percentiles must be strictly increasing")
    return pcts


def landmarks(image: ScalarVolume, mask=None, percentiles=DEFAULT_PERCENTILES) -> np.ndarray:
    """Interpolated percentile values of the masked intensities.

    mask may be a LabelVolume (foreground = nonzero label), a boolean
    array, or None (foreground = intensity > 0).
    """
    pcts = check_percentiles(percentiles)
    fg = _foreground(image, mask)
    return percentile(image.data[fg], pcts)


def apply(lmap: LandmarkMap, image: ScalarVolume, mask=None) -> ScalarVolume:
    """Transform masked voxels through the landmark map; background unchanged."""
    fg = _foreground(image, mask)
    src = np.asarray(lmap.source_landmarks)
    ref = np.asarray(lmap.reference_landmarks)
    x = image.data[fg].astype(np.float64)
    y = np.interp(x, src, ref)
    lo_slope = (ref[1] - ref[0]) / (src[1] - src[0])
    hi_slope = (ref[-1] - ref[-2]) / (src[-1] - src[-2])
    below = x < src[0]
    above = x > src[-1]
    y[below] = ref[0] + (x[below] - src[0]) * lo_slope
    y[above] = ref[-1] + (x[above] - src[-1]) * hi_slope
    out = image.data.astype(np.float64)
    out[fg] = y
    return ScalarVolume(image.header, out.astype(np.float32))
