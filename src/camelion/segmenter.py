"""Trainable segmenter: intensity image in, labels out.

A Gaussian intensity classifier with a spatial atlas prior: class k
contributes N(f; mu_k, sigma_k^2) * pi_k(j), where pi is the smoothed
per-voxel label frequency across the atlases. Training is exact and fast,
which matters because the adaptation loop retrains the segmenter on every
iteration. Everything that depends on the atlas labels only, which the
loop never changes, is built by atlas_side (AtlasSide): the support of
the spatial prior (the brain mask) as flat voxel indices with the
log-prior on it, and each atlas's class and tissue voxel indices. train
fits class statistics of a set of atlas images through those indices,
and predict classifies the support voxels only: no other voxel can get a
label. Nothing here is cached: the pipeline keeps the side of its atlas
label set and passes it to every train call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tissues
from .errors import ArgumentError, TrainingError
from .volumes import LabelVolume, ScalarVolume, VolumeHeader, require_same_header

PRIOR_SMOOTH_RADIUS = 3            # box filter radius in voxels
VARIANCE_FLOOR_FRACTION = 1e-4     # of the squared global intensity range


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
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior.reshape(prior.shape[0], -1)[:, index].astype(np.float64))
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
    """Per-voxel fraction of atlases carrying each class (no smoothing)."""
    if not atlas_labels:
        raise ArgumentError("need at least one atlas")
    header = require_same_header(*atlas_labels)
    k_max = atlas_labels[0].num_classes
    freq = np.zeros((k_max,) + header.dims, dtype=np.float32)
    for lab in atlas_labels:
        if lab.num_classes != k_max:
            raise ArgumentError("atlases disagree on the number of classes")
        for k in range(1, k_max + 1):
            freq[k - 1] += lab.data == k
    freq /= len(atlas_labels)
    return freq


def atlas_prior(atlas_labels: list[LabelVolume], cfg: SegmenterConfig) -> np.ndarray:
    """Spatial prior stack (K, *dims) float32 from the atlas labels alone.

    The cross-atlas label frequency, box-smoothed, floored at prior_epsilon
    inside the brain mask (union of non-background atlas voxels) and zero
    outside it; where the floored channels sum past one they are rescaled
    to sum to one. The returned array is read-only.
    """
    from scipy.ndimage import uniform_filter  # deferred, as in pv.second_class_map

    freq = label_frequency(atlas_labels)
    size = 2 * PRIOR_SMOOTH_RADIUS + 1
    prior = np.empty_like(freq)
    for k in range(freq.shape[0]):
        prior[k] = uniform_filter(freq[k], size=size, mode="constant")
    np.clip(prior, 0.0, 1.0, out=prior)

    mask = freq.any(axis=0)
    prior = np.where(mask, np.maximum(prior, np.float32(cfg.prior_epsilon)), 0.0).astype(np.float32)
    channel_sum = prior.sum(axis=0)
    over = channel_sum > 1.0
    if over.any():
        prior = np.where(over, prior / np.maximum(channel_sum, 1.0), prior)
    prior = np.ascontiguousarray(prior, dtype=np.float32)
    prior.flags.writeable = False
    return prior


@dataclass(frozen=True)
class AtlasSide:
    """What the segmenter and the loop read from a fixed atlas label set.

    support is that of the atlas prior on the atlases' shared header.
    classes[i][k - 1] are the flat indices of atlas i's class-k voxels,
    tissue[i] those of its non-background voxels and tissue_class[i] their
    labels minus one, all in ascending (C) order, so that a gather through
    them yields the values of a boolean-mask selection in the same order.
    """

    header: VolumeHeader
    support: PriorSupport
    classes: tuple[tuple[np.ndarray, ...], ...]    # [atlas][k - 1] -> intp
    tissue: tuple[np.ndarray, ...]                 # [atlas] -> intp
    tissue_class: tuple[np.ndarray, ...]           # [atlas] -> uint8


def atlas_side(atlas_labels: list[LabelVolume], cfg: SegmenterConfig) -> AtlasSide:
    """Build the AtlasSide of these atlas labels (in this order)."""
    prior = atlas_prior(atlas_labels, cfg)
    classes, tissue, tissue_class = [], [], []
    for lab in atlas_labels:
        flat = lab.data.reshape(-1)
        classes.append(tuple(np.flatnonzero(flat == k) for k in range(1, lab.num_classes + 1)))
        tissue.append(np.flatnonzero(flat))
        tissue_class.append(flat[tissue[-1]] - 1)
    for arr in (*(a for c in classes for a in c), *tissue, *tissue_class):
        arr.flags.writeable = False
    return AtlasSide(header=atlas_labels[0].header, support=prior_support(prior),
                     classes=tuple(classes), tissue=tuple(tissue), tissue_class=tuple(tissue_class))


def train(images: list[ScalarVolume], side: AtlasSide, cfg: SegmenterConfig) -> SegmenterModel:
    """Fit the Gaussian classifier on atlas images, image i labelled by the
    atlas side's atlas i.

    Class statistics are pooled over every atlas voxel of the class,
    gathered through the side's class indices; the prior support is the
    side's. Per-atlas partial sums are reduced in sorted order, so the
    result is invariant to atlas ordering.
    """
    if len(images) != len(side.classes):
        raise ArgumentError(
            f"{len(images)} atlas images for an atlas side of {len(side.classes)} atlases")
    for image in images:
        if image.header != side.header:
            raise ArgumentError(
                f"atlas image header {image.header} does not match the atlas side's {side.header}")
    k_max = len(side.classes[0])

    counts = np.zeros((len(images), k_max), dtype=np.float64)
    sums = np.zeros((len(images), k_max), dtype=np.float64)
    sq_sums = np.zeros((len(images), k_max), dtype=np.float64)
    lo = np.empty(len(images))
    hi = np.empty(len(images))
    for i, image in enumerate(images):
        flat = image.data.reshape(-1)
        lo[i], hi[i] = flat.min(), flat.max()
        for k, index in enumerate(side.classes[i]):
            if index.size:
                vals = flat[index].astype(np.float64)
                counts[i, k] = vals.size
                sums[i, k] = vals.sum()
                sq_sums[i, k] = np.sum(vals * vals)

    total = np.sort(counts, axis=0).sum(axis=0)
    for k in range(k_max):
        if total[k] == 0:
            raise TrainingError(
                f"class {tissues.class_name(k + 1)} ({k + 1}) absent from all atlases"
            )
    mean = np.sort(sums, axis=0).sum(axis=0) / total
    var = np.sort(sq_sums, axis=0).sum(axis=0) / total - mean**2
    intensity_range = float(hi.max() - lo.min())
    floor = VARIANCE_FLOOR_FRACTION * intensity_range**2
    var = np.maximum(var, max(floor, np.finfo(np.float64).tiny))

    return SegmenterModel(
        header=side.header,
        means=mean,
        variances=var,
        support=side.support,
        smoothing_weight=cfg.smoothing_weight,
    )


def _neighbor_counts(labels: np.ndarray, support: PriorSupport, dims, k_max: int) -> np.ndarray:
    """Per support voxel, the count of 6-neighbors carrying each class;
    voxels off the support are background and borders count as none."""
    padded = np.zeros(tuple(d + 2 for d in dims), dtype=np.uint8)
    flat = padded.reshape(-1)
    flat[support.padded] = labels
    classes = np.arange(1, k_max + 1, dtype=np.uint8)[:, None]
    counts = np.zeros((k_max, labels.size), dtype=np.float64)
    # uint8, so the byte strides are the flat index steps along each axis
    for step in padded.strides:
        for offset in (-step, step):
            counts += flat[support.padded + offset] == classes
    return counts


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

    log_w = np.empty((k_max, f.size), dtype=np.float64)
    for k in range(k_max):
        mu, var = model.means[k], model.variances[k]
        log_w[k] = -0.5 * np.log(2.0 * np.pi * var) - (f - mu) ** 2 / (2.0 * var)
    log_w += support.log_prior

    # normalizing keeps each voxel's class order, so the posterior argmax
    # is the log-weight argmax
    labels = (log_w.argmax(axis=0) + 1).astype(np.uint8)
    if model.smoothing_weight > 0:
        bonus = model.smoothing_weight * _neighbor_counts(labels, support, image.header.dims, k_max)
        labels = ((log_w + bonus).argmax(axis=0) + 1).astype(np.uint8)

    full_labels = np.zeros(image.header.n_voxels, dtype=np.uint8)
    full_labels[support.index] = labels
    return LabelVolume(image.header, full_labels.reshape(image.header.dims), num_classes=k_max)
