"""Synthesis of intensity images from partial volumes.

Two backends learn the mapping from the single (partial volumes, image)
pair of the current subject:

* "linear": per-class intensities fitted by the K x K normal equations,
  so a voxel synthesizes to sum_k p_k * c_k. Exactly solvable and stable
  across retrains, which makes it the default inside the adaptation loop.
* "regressor": a small feed-forward network from the flattened local
  partial-volume patch to the center intensity, trained with mini-batch
  adaptive-moment gradient descent. It carries a linear skip connection
  initialized at the least-squares solution, so the linear map is inside
  its hypothesis set and training can only improve on it.

Both fit on the partial volumes of the subject, held on the full grid or
at its tissue voxels, and render the tissue voxels of a
TissuePartialVolumes, the only voxels a caller reads.
Synthesized intensities are noiseless by design; callers that want matched
noise can add it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, RankError
from .volumes import PartialVolumeSet, ScalarVolume, TissuePartialVolumes, require_same_header

LINEAR_BACKEND = "linear"
REGRESSOR_BACKEND = "regressor"

_COND_LIMIT = 1e12
SYNTH_CHUNK = 32768  # tissue voxels per regressor forward pass in synthesize
HIDDEN_UNITS = 64    # regressor hidden layer width
BATCH_SIZE = 1024    # regressor mini-batch size
LEARNING_RATE = 1e-3  # regressor adaptive-moment step size


@dataclass(frozen=True)
class SynthConfig:
    backend: str = LINEAR_BACKEND
    patch_radius: int = 1
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.backend not in (LINEAR_BACKEND, REGRESSOR_BACKEND):
            raise ArgumentError(f"unknown synthesis backend {self.backend!r}")
        if self.patch_radius < 0:
            raise ArgumentError("patch_radius must be >= 0")
        if self.epochs < 1:
            raise ArgumentError("epochs must be >= 1")


@dataclass
class RegressorWeights:
    patch_radius: int
    input_mean: np.ndarray   # (D,)
    input_scale: np.ndarray  # (D,)
    w_hidden: np.ndarray     # (D, H)
    b_hidden: np.ndarray     # (H,)
    w_skip: np.ndarray       # (D,)
    w_out: np.ndarray        # (H,)
    b_out: float


@dataclass
class SynthModel:
    backend: str
    num_classes: int
    class_intensities: np.ndarray | None = None
    regressor: RegressorWeights | None = None
    train_mse: float = 0.0


def fit_linear(
    pv: PartialVolumeSet | TissuePartialVolumes, image: ScalarVolume, fallback_intensities=None
) -> SynthModel:
    """Least-squares per-class intensities over non-background voxels.

    Solves min_c sum_j (f_j - sum_k p_jk c_k)^2 through the normal
    equations. The sums run over the voxels of a TissuePartialVolumes in
    its order, or over those of TissuePartialVolumes.of a full-grid set; a
    set from estimate_tissue_pv, in C order with no all-zero voxel, fits
    to the bytes of its full(). Raises RankError, reporting per-class
    support counts, when the system is singular (e.g. a class with no
    support anywhere). When
    ``fallback_intensities`` is given, classes without any support take
    their fallback value instead and the reduced system is solved; the
    adaptation loop uses this so a class that temporarily vanishes from an
    intermediate segmentation keeps its last known intensity.
    """
    require_same_header(pv, image)
    if isinstance(pv, PartialVolumeSet):
        pv = TissuePartialVolumes.of(pv)
    k = pv.num_classes
    p = pv.channels.astype(np.float64)
    f = image.data.reshape(-1)[pv.index].astype(np.float64)

    support = (p > 0).sum(axis=1)
    active = support > 0
    if fallback_intensities is None:
        active = np.ones(k, dtype=bool)
    else:
        fallback = np.asarray(fallback_intensities, dtype=np.float64)
        if fallback.shape != (k,):
            raise ArgumentError(f"fallback_intensities must have shape ({k},)")

    p_active = p[active]
    gram = p_active @ p_active.T
    rhs = p_active @ f
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise RankError(
            "singular normal equations; per-class support counts: "
            + ", ".join(f"{i + 1}: {int(s)}" for i, s in enumerate(support))
        )
    c = np.zeros(k)
    if fallback_intensities is not None:
        c[~active] = fallback[~active]
    c[active] = np.linalg.solve(gram, rhs)
    residual = f - c[active] @ p_active
    mse = float(np.mean(residual**2)) if f.size else 0.0
    return SynthModel(
        backend=LINEAR_BACKEND, num_classes=k, class_intensities=c, train_mse=mse
    )


def _patch_matrix(channels: np.ndarray, radius: int, flat_index: np.ndarray) -> np.ndarray:
    """Rows of flattened (K * (2r+1)^3) patches at the given flat voxel indices."""
    k = channels.shape[0]
    dims = channels.shape[1:]
    if radius == 0:
        return channels.reshape(k, -1).T[flat_index].astype(np.float64)
    w = 2 * radius + 1
    padded = np.pad(
        channels, ((0, 0), (radius, radius), (radius, radius), (radius, radius))
    )
    windows = np.lib.stride_tricks.sliding_window_view(padded, (w, w, w), axis=(1, 2, 3))
    windows = windows.reshape(k, dims[0] * dims[1] * dims[2], w**3)
    out = windows[:, flat_index, :]                     # (K, n, w^3)
    return np.moveaxis(out, 0, 1).reshape(len(flat_index), k * w**3).astype(np.float64)


def _forward(w, x_norm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and predictions for normalized patch rows; w maps
    the RegressorWeights field names to their values."""
    hidden = np.tanh(x_norm @ w["w_hidden"] + w["b_hidden"])
    return hidden, hidden @ w["w_out"] + x_norm @ w["w_skip"] + w["b_out"]


class _Adam:
    def __init__(self, params: dict[str, np.ndarray], rate: float):
        self.rate = rate
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            m_hat = self.m[k] / (1 - self.beta1**self.t)
            v_hat = self.v[k] / (1 - self.beta2**self.t)
            params[k] -= self.rate * m_hat / (np.sqrt(v_hat) + self.eps)


def fit_regressor(pv: PartialVolumeSet | TissuePartialVolumes, image: ScalarVolume,
                  cfg: SynthConfig) -> SynthModel:
    """Train the patch regressor on the (partial volumes, image) pair.

    Mini-batch MSE training with seeded shuffling; fully deterministic for
    a given config. The returned weights are the best epoch by training
    error, and train_mse is recomputed from the weights actually returned.
    The patches read the grid, so a TissuePartialVolumes is put back on it.
    """
    require_same_header(pv, image)
    if isinstance(pv, TissuePartialVolumes):
        pv = pv.full()
    k = pv.num_classes
    mask_flat = pv.channels.reshape(k, -1).any(axis=0)
    flat_index = np.flatnonzero(mask_flat)
    if flat_index.size < k:
        raise RankError(f"only {flat_index.size} tissue voxels for {k} classes")
    x = _patch_matrix(pv.channels, cfg.patch_radius, flat_index)
    y = image.data.reshape(-1)[flat_index].astype(np.float64)

    x_mean = x.mean(axis=0)
    x_scale = np.maximum(x.std(axis=0), 1e-8)
    xn = (x - x_mean) / x_scale

    rng = np.random.default_rng(cfg.seed)
    d = x.shape[1]
    h = HIDDEN_UNITS
    design = np.concatenate([xn, np.ones((xn.shape[0], 1))], axis=1)
    # fractions sum to one, so the normalized columns are near-collinear
    # with the intercept; truncating tiny singular values keeps the affine
    # initialization small enough to survive float32 quantization
    theta, *_ = np.linalg.lstsq(design, y, rcond=1e-6)
    params = {
        "w_hidden": rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h)),
        "b_hidden": np.zeros(h),
        "w_out": np.zeros(h),
        "w_skip": theta[:d].copy(),
        "b_out": np.array([theta[d]]),
    }

    def full_mse():
        _, pred = _forward(params, xn)
        return float(np.mean((pred - y) ** 2))

    adam = _Adam(params, LEARNING_RATE)
    best_mse = full_mse()
    best = {p: v.copy() for p, v in params.items()}
    n = xn.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            sel = order[start : start + BATCH_SIZE]
            xb, yb = xn[sel], y[sel]
            hidden, pred = _forward(params, xb)
            err = 2.0 * (pred - yb) / len(sel)
            d_hidden = np.outer(err, params["w_out"]) * (1.0 - hidden**2)
            grads = {
                "w_out": hidden.T @ err,
                "w_skip": xb.T @ err,
                "b_out": np.array([err.sum()]),
                "w_hidden": xb.T @ d_hidden,
                "b_hidden": d_hidden.sum(axis=0),
            }
            adam.step(params, grads)
        mse = full_mse()
        if mse < best_mse:
            best_mse = mse
            best = {p: v.copy() for p, v in params.items()}
    params = best

    # round the weights to float32, the precision of the images they
    # render; train_mse below is the error of the rounded weights, so it is
    # the error of exactly what synthesize renders
    def q(a):
        return np.asarray(a, dtype=np.float32).astype(np.float64)

    reg = RegressorWeights(
        patch_radius=cfg.patch_radius,
        input_mean=q(x_mean),
        input_scale=q(x_scale),
        w_hidden=q(params["w_hidden"]),
        b_hidden=q(params["b_hidden"]),
        w_skip=q(params["w_skip"]),
        w_out=q(params["w_out"]),
        b_out=float(np.float32(params["b_out"][0])),
    )
    _, final_pred = _forward(vars(reg), (x - reg.input_mean) / reg.input_scale)
    final_mse = float(np.mean((final_pred - y) ** 2))
    return SynthModel(
        backend=REGRESSOR_BACKEND, num_classes=k, regressor=reg, train_mse=final_mse
    )


def fit(pv: PartialVolumeSet | TissuePartialVolumes, image: ScalarVolume, cfg: SynthConfig,
        fallback_intensities=None) -> SynthModel:
    """Fit whichever backend the config selects."""
    if cfg.backend == LINEAR_BACKEND:
        return fit_linear(pv, image, fallback_intensities=fallback_intensities)
    return fit_regressor(pv, image, cfg)


def synthesize(model: SynthModel, pv: TissuePartialVolumes) -> np.ndarray:
    """Render the intensities of pv's voxels with a fitted model: a float32
    vector, entry j for voxel pv.index[j]. Every other voxel of the grid is
    background and synthesizes to 0.

    The regressor reads the patch around each voxel, so it scatters the
    fractions back onto the grid first.
    """
    if pv.num_classes != model.num_classes:
        raise ArgumentError(
            f"model has {model.num_classes} classes, volume has {pv.num_classes}"
        )
    if model.backend == LINEAR_BACKEND:
        out = np.tensordot(model.class_intensities, pv.channels.astype(np.float64), axes=(0, 0))
        return out.astype(np.float32)
    if model.backend != REGRESSOR_BACKEND:
        raise ArgumentError(f"unknown backend {model.backend!r}")

    reg = model.regressor
    grid = pv.full().channels
    out = np.empty(pv.index.size, dtype=np.float64)
    for start in range(0, pv.index.size, SYNTH_CHUNK):
        sel = slice(start, start + SYNTH_CHUNK)
        x = _patch_matrix(grid, reg.patch_radius, pv.index[sel])
        xn = (x - reg.input_mean) / reg.input_scale
        _, out[sel] = _forward(vars(reg), xn)
    return out.astype(np.float32)
