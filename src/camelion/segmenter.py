"""Trainable segmenter: intensity image in, labels plus per-class
posteriors out.

A Gaussian intensity classifier with a spatial atlas prior: class k
contributes N(f; mu_k, sigma_k^2) * pi_k(j), where pi is the smoothed
per-voxel label frequency across the atlases. Training is exact and fast,
which matters because the adaptation loop retrains the segmenter on every
iteration. The spatial prior depends on the atlas
labels only, which the loop never changes, so train reuses it across
calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from . import tissues
from .errors import ArgumentError, TrainingError
from .volumes import AtlasPair, LabelVolume, ScalarVolume, VolumeHeader, require_same_header
from .util import LatestSetMemo, content_key

PRIOR_SMOOTH_RADIUS = 3            # box filter radius in voxels
VARIANCE_FLOOR_FRACTION = 1e-4     # of the squared global intensity range


@dataclass(frozen=True)
class SegmenterConfig:
    prior_epsilon: float = 1e-6
    smoothing_weight: float = 0.5

    def __post_init__(self):
        if not 0 < self.prior_epsilon < 1:
            raise ArgumentError(f"prior_epsilon must be in (0, 1), got {self.prior_epsilon}")
        if self.smoothing_weight < 0:
            raise ArgumentError(f"smoothing_weight must be >= 0, got {self.smoothing_weight}")


@dataclass
class SegmenterModel:
    """Per-class intensity statistics plus the spatial prior stack."""

    header: VolumeHeader
    means: np.ndarray          # (K,) float64
    variances: np.ndarray      # (K,) float64, all > 0
    prior: np.ndarray          # (K, *dims) float32, channel sums <= 1
    smoothing_weight: float

    @property
    def num_classes(self) -> int:
        return self.prior.shape[0]

    @property
    def brain_mask(self) -> np.ndarray:
        return self.prior.any(axis=0)


@dataclass
class SegOutput:
    """Hard labels with the posterior stack they were taken from.

    labels is always the per-voxel argmax of posteriors (ties to the
    smaller class); out_of_prior counts voxels with positive intensity that
    were forced to background because no atlas prior covers them.
    """

    labels: LabelVolume
    posteriors: np.ndarray
    out_of_prior: int


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
    freq = label_frequency(atlas_labels)
    size = 2 * PRIOR_SMOOTH_RADIUS + 1
    prior = np.empty_like(freq)
    for k in range(freq.shape[0]):
        prior[k] = uniform_filter(freq[k], size=size, mode="constant")
    np.clip(prior, 0.0, 1.0, out=prior)

    mask = np.zeros(freq.shape[1:], dtype=bool)
    for lab in atlas_labels:
        mask |= lab.data > 0
    prior = np.where(mask, np.maximum(prior, np.float32(cfg.prior_epsilon)), 0.0).astype(np.float32)
    channel_sum = prior.sum(axis=0)
    over = channel_sum > 1.0
    if over.any():
        prior = np.where(over, prior / np.maximum(channel_sum, 1.0), prior)
    prior = np.ascontiguousarray(prior, dtype=np.float32)
    prior.flags.writeable = False
    return prior


# the prior of the latest atlas label set, keyed by label content and
# prior_epsilon
_PRIORS = LatestSetMemo()


def train(atlases: list[AtlasPair], cfg: SegmenterConfig) -> SegmenterModel:
    """Fit the Gaussian classifier on atlas image/label pairs.

    Class statistics are pooled over every atlas voxel of the class; the
    spatial prior is atlas_prior of the atlas labels, reused from the
    previous call when the labels and prior_epsilon are unchanged. Per-atlas
    partial sums are reduced in sorted order, so the result is invariant to
    atlas ordering.
    """
    if not atlases:
        raise ArgumentError("need at least one atlas")
    header = require_same_header(*(a.image for a in atlases), *(a.labels for a in atlases))
    k_max = atlases[0].labels.num_classes

    counts = np.zeros((len(atlases), k_max), dtype=np.float64)
    sums = np.zeros((len(atlases), k_max), dtype=np.float64)
    sq_sums = np.zeros((len(atlases), k_max), dtype=np.float64)
    lo = np.empty(len(atlases))
    hi = np.empty(len(atlases))
    for i, pair in enumerate(atlases):
        data = pair.image.data.astype(np.float64)
        lo[i], hi[i] = data.min(), data.max()
        for k in range(1, k_max + 1):
            sel = pair.labels.data == k
            if sel.any():
                vals = data[sel]
                counts[i, k - 1] = vals.size
                sums[i, k - 1] = vals.sum()
                sq_sums[i, k - 1] = np.sum(vals * vals)

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

    labels = [a.labels for a in atlases]
    parts = [cfg.prior_epsilon]
    for lab in labels:
        parts += [lab.header, lab.num_classes, lab.data]
    [prior] = _PRIORS.lookup([content_key(*parts)], lambda _: atlas_prior(labels, cfg))

    return SegmenterModel(
        header=header,
        means=mean,
        variances=var,
        prior=prior,
        smoothing_weight=cfg.smoothing_weight,
    )


def _neighbor_counts(labels: np.ndarray, k_max: int) -> np.ndarray:
    """Count of 6-neighbors carrying each class; borders count as none."""
    counts = np.zeros((k_max,) + labels.shape, dtype=np.float64)
    for k in range(1, k_max + 1):
        onehot = (labels == k).astype(np.float64)
        acc = counts[k - 1]
        acc[1:, :, :] += onehot[:-1, :, :]
        acc[:-1, :, :] += onehot[1:, :, :]
        acc[:, 1:, :] += onehot[:, :-1, :]
        acc[:, :-1, :] += onehot[:, 1:, :]
        acc[:, :, 1:] += onehot[:, :, :-1]
        acc[:, :, :-1] += onehot[:, :, 1:]
    return counts


def predict(model: SegmenterModel, image: ScalarVolume) -> SegOutput:
    """Per-voxel Bayes classification under the trained model.

    Posterior(k | f) is proportional to N(f; mu_k, sigma_k^2) * pi_k.
    Voxels without any prior support are background. When smoothing_weight
    is positive, one synchronous iterated-conditional-modes pass folds a
    6-neighborhood agreement bonus exp(w * n_k) into the posteriors and
    relabels from the adjusted stack, so labels stay the posterior argmax.
    """
    if image.header != model.header:
        raise ArgumentError(f"image header {image.header} does not match model {model.header}")
    k_max = model.num_classes
    f = image.data.astype(np.float64)
    mask = model.brain_mask

    log_w = np.empty((k_max,) + image.header.dims, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_prior = np.log(model.prior.astype(np.float64))
    for k in range(k_max):
        mu, var = model.means[k], model.variances[k]
        log_w[k] = -0.5 * np.log(2.0 * np.pi * var) - (f - mu) ** 2 / (2.0 * var)
    log_w += log_prior

    def normalize(log_stack):
        top = log_stack.max(axis=0)
        q = np.exp(log_stack - np.where(mask, top, 0.0), where=mask[None], out=np.zeros_like(log_stack))
        q[:, ~mask] = 0.0
        denom = q.sum(axis=0)
        np.divide(q, denom, where=mask[None], out=q)
        return q

    posteriors = normalize(log_w)
    labels = np.where(mask, posteriors.argmax(axis=0) + 1, 0).astype(np.uint8)

    if model.smoothing_weight > 0:
        bonus = model.smoothing_weight * _neighbor_counts(labels, k_max)
        posteriors = normalize(log_w + bonus)
        labels = np.where(mask, posteriors.argmax(axis=0) + 1, 0).astype(np.uint8)

    out_of_prior = int(np.count_nonzero((image.data > 0) & ~mask))
    return SegOutput(
        labels=LabelVolume(image.header, labels, num_classes=k_max),
        posteriors=posteriors,
        out_of_prior=out_of_prior,
    )

