"""Independent brute-force oracles used to verify the library.

Everything here is written from first principles (exhaustive search, direct
counting, direct formula evaluation) and deliberately shares no code with
the implementations under test.
"""

import numpy as np
from scipy.ndimage import uniform_filter

from camelion import phantom, pv, segmenter, tissues


def grid_objective(alpha, f, c_a, c_b, sigma, beta):
    """Negative log posterior of the two-class mixture, evaluated directly."""
    resid = f - alpha * c_a - (1.0 - alpha) * c_b
    return resid**2 / (2.0 * sigma**2) - 2.0 * beta * (alpha - 0.5) ** 2


def grid_search_alpha(f, c_a, c_b, sigma, beta, step=1e-4):
    """Exhaustive minimizer of the mixture objective over [0, 1].

    Scans an evenly spaced grid including both endpoints and keeps the
    minimum, breaking exact ties toward the larger alpha.
    """
    n = int(round(1.0 / step)) + 1
    grid = np.linspace(0.0, 1.0, n)
    values = grid_objective(grid, f, c_a, c_b, sigma, beta)
    reversed_idx = len(values) - 1 - np.argmin(values[::-1])
    return float(grid[reversed_idx]), float(values[reversed_idx])


def grid_search_alpha_batch(f, c_a, c_b, sigma, beta, step=1e-4, chunk=128):
    """Vectorized grid search over tuples; same tie rule as above."""
    f = np.atleast_1d(np.asarray(f, dtype=np.float64))
    c_a = np.atleast_1d(np.asarray(c_a, dtype=np.float64))
    c_b = np.atleast_1d(np.asarray(c_b, dtype=np.float64))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    n = int(round(1.0 / step)) + 1
    grid = np.linspace(0.0, 1.0, n)
    alphas = np.empty(f.shape)
    values = np.empty(f.shape)
    for start in range(0, f.size, chunk):
        sel = slice(start, min(start + chunk, f.size))
        j = grid_objective(
            grid[None, :], f[sel, None], c_a[sel, None], c_b[sel, None],
            sigma[sel, None], beta[sel, None],
        )
        rev = j.shape[1] - 1 - np.argmin(j[:, ::-1], axis=1)
        alphas[sel] = grid[rev]
        values[sel] = j[np.arange(j.shape[0]), rev]
    return alphas, values


def nearest_different_label(labels, voxel_size):
    """O(N^2) nearest-different-class scan.

    For every non-background voxel, finds the minimum anisotropic Euclidean
    distance to a voxel of each other present class and picks the closest
    class, breaking distance ties toward the smaller class index.
    Background voxels map to 0. Each class is one distance array of every
    tissue voxel against every voxel of that class.
    """
    labels = np.asarray(labels)
    sx, sy, sz = voxel_size
    coords = np.argwhere(labels > 0)
    values = labels[labels > 0]
    best_d = np.full(values.size, np.inf)
    best_k = np.zeros_like(values)
    for k in sorted(int(k) for k in np.unique(values)):
        pts = coords[values == k]
        dx = (pts[None, :, 0] - coords[:, None, 0]) * sx
        dy = (pts[None, :, 1] - coords[:, None, 1]) * sy
        dz = (pts[None, :, 2] - coords[:, None, 2]) * sz
        dmin = np.sqrt(dx * dx + dy * dy + dz * dz).min(axis=1)
        closer = (values != k) & (dmin < best_d)
        best_d[closer] = dmin[closer]
        best_k[closer] = k
    out = np.zeros_like(labels)
    out[labels > 0] = best_k
    return out


def bayes_labels(data, means, variances, prior):
    """Direct per-voxel Bayes classification (no smoothing).

    posterior_k proportional to N(f; mu_k, var_k) * prior_k; voxels with no
    prior support are background; argmax ties go to the smaller class.
    """
    data = np.asarray(data, dtype=np.float64)
    k_max = len(means)
    out = np.zeros(data.shape, dtype=np.uint8)
    it = np.ndindex(*data.shape)
    for idx in it:
        f = data[idx]
        weights = np.empty(k_max)
        for k in range(k_max):
            norm = np.exp(-((f - means[k]) ** 2) / (2 * variances[k])) / np.sqrt(
                2 * np.pi * variances[k]
            )
            weights[k] = norm * prior[(k,) + idx]
        if weights.sum() > 0:
            out[idx] = int(np.argmax(weights)) + 1
    return out


def block_label_fractions(hr_labels, factor, num_classes):
    """Direct subvoxel counting for the downsampling rule."""
    hr_labels = np.asarray(hr_labels)
    out_dims = tuple(d // factor for d in hr_labels.shape)
    channels = np.zeros((num_classes,) + out_dims)
    cell = factor**3
    for i in range(out_dims[0]):
        for j in range(out_dims[1]):
            for l in range(out_dims[2]):
                block = hr_labels[
                    i * factor : (i + 1) * factor,
                    j * factor : (j + 1) * factor,
                    l * factor : (l + 1) * factor,
                ]
                tissue = int((block > 0).sum())
                if 2 * tissue >= cell:
                    for k in range(1, num_classes + 1):
                        channels[k - 1, i, j, l] = (block == k).sum() / tissue
    return channels


def _ellipsoid_full_grid(grids, center, radii):
    x, y, z = grids
    return (
        ((x - center[0]) / radii[0]) ** 2
        + ((y - center[1]) / radii[1]) ** 2
        + ((z - center[2]) / radii[2]) ** 2
    ) <= 1.0


def label_phantom_reference(params, index):
    """One subject's supersampled labels, every structure test evaluated on
    the full grid (the rasterizer before bounding boxes). Returns the uint8
    label array; the geometry constants come from ``camelion.phantom``."""
    ss = params.supersample
    dims = tuple(d * ss for d in params.base_dims)
    rng = np.random.default_rng(np.random.SeedSequence([params.seed, index, 0]))
    u = rng.uniform(-1.0, 1.0, size=14)
    j = params.shape_jitter

    head = phantom._HEAD_RADII * (1.0 + j * u[0:3])
    gm = phantom._GM_RADII * (1.0 + j * u[3:6])
    wm = phantom._WM_RADII * (1.0 + j * u[6:9])
    vent = phantom._VENT_RADII * (1.0 + j * u[9:12])
    bs_radius = phantom._BS_RADIUS * (1.0 + j * u[12])
    seg_z = phantom._BS_SEGMENT_Z
    bs_half = 0.5 * (seg_z[1] - seg_z[0]) * (1.0 + 0.5 * j * u[13])
    bs_mid = 0.5 * (seg_z[0] + seg_z[1])

    axes = [(np.arange(n) + 0.5) * (2.0 / n) - 1.0 for n in dims]
    x = axes[0][:, None, None]
    y = axes[1][None, :, None]
    z = axes[2][None, None, :]
    grids = (x, y, z)
    origin = phantom._SHELL_CENTER

    labels = np.zeros(dims, dtype=np.uint8)
    labels[_ellipsoid_full_grid(grids, origin, head)] = tissues.CSF
    labels[_ellipsoid_full_grid(grids, origin, gm)] = tissues.GRAY_MATTER
    labels[_ellipsoid_full_grid(grids, origin, wm)] = tissues.WHITE_MATTER

    cx, cy = phantom._BS_CENTER_XY
    radial = ((x - cx) / bs_radius) ** 2 + ((y - cy) / bs_radius) ** 2
    axial = (np.maximum(np.abs(z - bs_mid) - bs_half, 0.0) / phantom._BS_CAP_RZ) ** 2
    bs = (radial + axial) <= 1.0
    bs &= _ellipsoid_full_grid(grids, origin, wm * phantom._BS_CLIP_SCALE)
    labels[bs] = tissues.BRAINSTEM

    wm_interior = _ellipsoid_full_grid(grids, origin, wm * phantom._VENT_CLIP_SCALE)
    for center in phantom._VENT_CENTERS:
        labels[_ellipsoid_full_grid(grids, center, vent) & wm_interior] = tissues.VENTRICLES
    return labels


def pearson_direct(x, y):
    """Pearson r by the textbook formula."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mx, my = x.mean(), y.mean()
    num = ((x - mx) * (y - my)).sum()
    den = np.sqrt(((x - mx) ** 2).sum() * ((y - my) ** 2).sum())
    return num / den


def atlas_prior_reference(label_arrays, num_classes, prior_epsilon, radius=3):
    """Spatial prior built step by step as train built it before the prior
    had its own function: float32 label frequency, box smoothing, clip,
    epsilon floor inside the union brain mask, zero outside, and rescaling
    where the channels sum past one."""
    dims = label_arrays[0].shape
    freq = np.zeros((num_classes,) + dims, dtype=np.float32)
    for lab in label_arrays:
        for k in range(1, num_classes + 1):
            freq[k - 1] += lab == k
    freq /= len(label_arrays)
    prior = np.empty_like(freq)
    for k in range(num_classes):
        prior[k] = uniform_filter(freq[k], size=2 * radius + 1, mode="constant")
    np.clip(prior, 0.0, 1.0, out=prior)
    mask = np.zeros(dims, dtype=bool)
    for lab in label_arrays:
        mask |= lab > 0
    prior = np.where(mask, np.maximum(prior, np.float32(prior_epsilon)), 0.0).astype(np.float32)
    channel_sum = prior.sum(axis=0)
    over = channel_sum > 1.0
    if over.any():
        prior = np.where(over, prior / np.maximum(channel_sum, 1.0), prior)
    return np.ascontiguousarray(prior, dtype=np.float32)


def _full_grid_neighbor_counts(labels, k_max):
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


def predict_reference(model, prior, image):
    """The Gaussian classifier under a (K, *dims) prior stack evaluated on
    the whole grid, as predict did it before it worked on the prior's
    support: the likelihood, the masked exp/normalize, the argmax and the
    one-pass ICM bonus on every voxel. Returns the label array."""
    k_max = prior.shape[0]
    f = image.data.astype(np.float64)
    mask = prior.any(axis=0)
    log_w = np.empty((k_max,) + f.shape, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior.astype(np.float64))
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
        bonus = model.smoothing_weight * _full_grid_neighbor_counts(labels, k_max)
        posteriors = normalize(log_w + bonus)
        labels = np.where(mask, posteriors.argmax(axis=0) + 1, 0).astype(np.uint8)
    return labels


def train_statistics_reference(atlases):
    """Pooled class means and floored variances, each class selected with a
    full-grid ``labels == k`` scan per atlas, as train did it before it
    gathered through fixed class indices. Returns (means, variances)."""
    k_max = atlases[0].labels.num_classes
    counts = np.zeros((len(atlases), k_max))
    sums = np.zeros((len(atlases), k_max))
    sq_sums = np.zeros((len(atlases), k_max))
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
    mean = np.sort(sums, axis=0).sum(axis=0) / total
    var = np.sort(sq_sums, axis=0).sum(axis=0) / total - mean**2
    floor = segmenter.VARIANCE_FLOOR_FRACTION * float(hi.max() - lo.min()) ** 2
    return mean, np.maximum(var, max(floor, np.finfo(np.float64).tiny))


def _class_means_by_scan(data, labels, k_max):
    means = np.zeros(k_max, dtype=np.float64)
    for k in range(1, k_max + 1):
        sel = labels == k
        if sel.any():
            means[k - 1] = data[sel].mean()
    return means


def spread_gap_sigma_reference(input_image, current_labels, synthetic_images, atlases):
    """The loop's spread-gap noise level with boolean-mask scans of every
    label volume, as the loop computed it before it read the atlas side's
    class and tissue indices."""
    k_max = current_labels.num_classes
    data = input_image.data.astype(np.float64)
    means_in = _class_means_by_scan(data, current_labels.data, k_max)
    mask = current_labels.data > 0
    residual = data[mask] - means_in[current_labels.data[mask] - 1]
    floor = pv.SIGMA_FLOOR_FRACTION * float(data.max() - data.min())
    pooled_in = max(float(np.sqrt(np.mean(residual**2))), floor, np.finfo(np.float64).tiny)
    total = 0.0
    count = 0
    for img, pair in zip(synthetic_images, atlases):
        syn = img.data.astype(np.float64)
        means_syn = _class_means_by_scan(syn, pair.labels.data, k_max)
        mask = pair.labels.data > 0
        residual = syn[mask] - means_syn[pair.labels.data[mask] - 1]
        total += float(np.sum(residual**2))
        count += int(mask.sum())
    return float(np.sqrt(max(pooled_in**2 - total / max(count, 1), 0.0)))
