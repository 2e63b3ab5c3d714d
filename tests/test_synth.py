import numpy as np
import pytest

from camelion.errors import ArgumentError, RankError
from camelion.synth import (
    SynthConfig,
    fit_linear,
    fit_regressor,
    synthesize,
)
from camelion.volumes import PartialVolumeSet, ScalarVolume, TissuePartialVolumes, VolumeHeader
from conftest import random_pv

TRUE_C = np.array([25.0, 15.0, 60.0, 100.0, 80.0])


def linear_image(pv, c=TRUE_C, noise=0.0, seed=0):
    data = np.tensordot(c, pv.channels.astype(np.float64), axes=(0, 0))
    if noise > 0:
        rng = np.random.default_rng(seed)
        data = data + rng.normal(0, noise, size=data.shape) * pv.channels.any(axis=0)
    return ScalarVolume(pv.header, data.astype(np.float32))


def render(model, pv, index=None):
    """synthesize at the given voxels (default: the voxels with a nonzero
    fraction), on a zero grid."""
    if index is None:
        index = np.flatnonzero(pv.channels.any(axis=0))
    out = np.zeros(pv.header.n_voxels, dtype=np.float32)
    out[index] = synthesize(model, TissuePartialVolumes.at(pv, index))
    return out.reshape(pv.header.dims)


class TestFitLinear:
    def test_exact_recovery(self, rng):
        pv = random_pv(rng, dims=(10, 10, 10))
        model = fit_linear(pv, linear_image(pv))
        assert np.allclose(model.class_intensities, TRUE_C, atol=1e-6)
        assert model.train_mse < 1e-10

    def test_one_hot_reduces_to_class_means(self, rng):
        dims = (6, 6, 6)
        n = 216
        classes = rng.integers(1, 6, size=n)
        channels = np.zeros((5, n), dtype=np.float32)
        channels[classes - 1, np.arange(n)] = 1.0
        pv = PartialVolumeSet(VolumeHeader(dims), channels.reshape((5,) + dims))
        image_data = rng.normal(60, 25, size=n)
        image = ScalarVolume(pv.header, image_data.reshape(dims).astype(np.float32))
        model = fit_linear(pv, image)
        for k in range(5):
            sel = classes == k + 1
            expected = image.data.reshape(-1)[sel].astype(np.float64).mean()
            assert model.class_intensities[k] == pytest.approx(expected, abs=1e-9)

    def test_noise_floor_matches_variance(self, rng):
        pv = random_pv(rng, dims=(50, 50, 50))  # >= 1e5 voxels
        sigma = 4.0
        model = fit_linear(pv, linear_image(pv, noise=sigma, seed=3))
        assert model.train_mse == pytest.approx(sigma**2, rel=0.1)

    def test_singular_reports_support(self, rng):
        pv0 = random_pv(rng, dims=(6, 6, 6))
        channels = np.array(pv0.channels, dtype=np.float64)
        channels[4] = 0.0  # class 5 never present
        total = channels.sum(axis=0)
        channels = np.where(total > 0, channels / np.where(total > 0, total, 1.0), 0.0)
        pv = PartialVolumeSet(pv0.header, channels.astype(np.float32))
        with pytest.raises(RankError, match="5: 0"):
            fit_linear(pv, linear_image(pv))

    def test_scale_equivariance(self, rng):
        pv = random_pv(rng, dims=(8, 8, 8))
        image = linear_image(pv, noise=2.0, seed=4)
        base = fit_linear(pv, image)
        doubled = ScalarVolume(image.header, image.data * np.float32(2.0))
        model2 = fit_linear(pv, doubled)
        # power-of-two scaling is exact in floating point
        assert np.array_equal(model2.class_intensities, 2.0 * base.class_intensities)
        tripled = ScalarVolume(image.header, (image.data.astype(np.float64) * 3.0).astype(np.float32))
        model3 = fit_linear(pv, tripled)
        assert np.allclose(model3.class_intensities, 3.0 * base.class_intensities, rtol=1e-6)

    def test_header_mismatch(self, rng):
        pv = random_pv(rng, dims=(4, 4, 4))
        image = ScalarVolume(VolumeHeader((4, 4, 5)), np.zeros((4, 4, 5), dtype=np.float32))
        with pytest.raises(ArgumentError):
            fit_linear(pv, image)


class TestSynthesize:
    def test_one_hot_gives_class_intensity(self):
        from camelion.synth import SynthModel

        ch = np.zeros((5, 2, 2, 2), dtype=np.float32)
        ch[2] = 1.0
        pv = PartialVolumeSet(VolumeHeader((2, 2, 2)), ch)
        model = SynthModel("linear", 5, class_intensities=TRUE_C.copy())
        out = render(model, pv)
        assert np.all(out == np.float32(60.0))

    def test_midpoint_mixture(self):
        from camelion.synth import SynthModel

        ch = np.zeros((5, 1, 1, 1), dtype=np.float32)
        ch[0] = 0.5
        ch[3] = 0.5
        pv = PartialVolumeSet(VolumeHeader((1, 1, 1)), ch)
        model = SynthModel("linear", 5, class_intensities=TRUE_C.copy())
        out = render(model, pv)
        assert out[0, 0, 0] == np.float32((25.0 + 100.0) / 2)

    def test_background_synthesizes_to_zero(self, rng):
        pv = random_pv(rng, dims=(6, 6, 6))
        from camelion.synth import SynthModel

        model = SynthModel("linear", 5, class_intensities=TRUE_C.copy())
        # rendered at every voxel, so the all-zero columns are rendered too
        out = render(model, pv, np.arange(pv.header.n_voxels))
        background = ~pv.channels.any(axis=0)
        assert np.all(out[background] == 0.0)

    def test_purity(self, rng):
        pv = random_pv(rng, dims=(6, 6, 6))
        model = fit_linear(pv, linear_image(pv))
        a = render(model, pv)
        b = render(model, pv)
        assert np.array_equal(a, b)

    def test_class_count_mismatch(self, rng):
        pv = random_pv(rng, dims=(4, 4, 4), num_classes=3)
        from camelion.synth import SynthModel

        model = SynthModel("linear", 5, class_intensities=TRUE_C.copy())
        with pytest.raises(ArgumentError):
            synthesize(model, TissuePartialVolumes.at(pv, np.arange(pv.header.n_voxels)))


class TestRegressor:
    def test_linear_data_fits_well(self, rng):
        pv = random_pv(rng, dims=(12, 12, 12))
        image = linear_image(pv)
        cfg = SynthConfig(backend="regressor", patch_radius=1, epochs=20, seed=5)
        model = fit_regressor(pv, image, cfg)
        intensity_range = float(image.data.max() - image.data.min())
        assert model.train_mse <= 1e-3 * intensity_range**2

    def test_never_worse_than_linear_at_r0(self, rng):
        pv = random_pv(rng, dims=(10, 10, 10))
        image = linear_image(pv, noise=3.0, seed=6)
        linear = fit_linear(pv, image)
        cfg = SynthConfig(backend="regressor", patch_radius=0, epochs=30, seed=7)
        reg = fit_regressor(pv, image, cfg)
        assert reg.train_mse <= linear.train_mse + 1e-6

    def test_deterministic(self, rng):
        pv = random_pv(rng, dims=(8, 8, 8))
        image = linear_image(pv, noise=2.0, seed=8)
        cfg = SynthConfig(backend="regressor", epochs=3, seed=11)
        m1 = fit_regressor(pv, image, cfg)
        m2 = fit_regressor(pv, image, cfg)
        assert np.array_equal(m1.regressor.w_hidden, m2.regressor.w_hidden)
        assert np.array_equal(m1.regressor.w_skip, m2.regressor.w_skip)
        assert m1.train_mse == m2.train_mse

    def test_recorded_mse_matches_synthesis_residual(self, rng):
        pv = random_pv(rng, dims=(8, 8, 8))
        image = linear_image(pv, noise=2.0, seed=9)
        cfg = SynthConfig(backend="regressor", epochs=5, seed=12)
        model = fit_regressor(pv, image, cfg)
        out = render(model, pv)
        mask = pv.channels.any(axis=0)
        residual = (out.astype(np.float64) - image.data.astype(np.float64))[mask]
        # synthesize emits float32, so the match is to float32 output precision
        assert float(np.mean(residual**2)) == pytest.approx(model.train_mse, rel=1e-3)

    def test_constant_region_synthesizes_constant(self):
        # one-hot interior: every interior patch is identical, so the
        # prediction must be too (translation invariance)
        dims = (8, 8, 8)
        ch = np.zeros((5,) + dims, dtype=np.float32)
        ch[3] = 1.0
        pv = PartialVolumeSet(VolumeHeader(dims), ch)
        rng = np.random.default_rng(0)
        image = ScalarVolume(pv.header, np.full(dims, 90.0, dtype=np.float32))
        cfg = SynthConfig(backend="regressor", epochs=2, seed=1)
        model = fit_regressor(pv, image, cfg)
        out = render(model, pv)
        interior = out[1:-1, 1:-1, 1:-1]
        assert np.all(interior == interior[0, 0, 0])

