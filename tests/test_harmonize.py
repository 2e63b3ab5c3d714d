import numpy as np
import pytest

from camelion.errors import ArgumentError
from camelion.harmonize import DEFAULT_PERCENTILES, LandmarkMap, apply, landmarks
from camelion.phantom import (
    DEFAULT_PROTOCOL_A,
    DEFAULT_PROTOCOL_B,
    PhantomParams,
    downsample_to_pv,
    generate_label_phantom,
    pv_to_labels,
    render,
    restrict_to_top_two,
)
from camelion.volumes import LabelVolume, ScalarVolume, VolumeHeader


def image_of(data):
    data = np.asarray(data, dtype=np.float32)
    return ScalarVolume(VolumeHeader(data.shape), data)


class TestLandmarks:
    def test_constant_image(self):
        img = image_of(np.full((5, 5, 5), 42.0))
        mask = LabelVolume(img.header, np.ones((5, 5, 5), dtype=np.uint8), num_classes=1)
        lm = landmarks(img, mask)
        assert np.all(lm == 42.0)

    def test_uniform_ramp_quantiles(self):
        # values 0..n-1 uniformly: percentile p sits within 0.5 of p*(n-1)/100
        n = 100000
        dims = (100, 100, 10)
        img = image_of(np.arange(n, dtype=np.float64).reshape(dims) / (n - 1) * 100.0)
        mask = LabelVolume(img.header, np.ones(dims, dtype=np.uint8), num_classes=1)
        lm = landmarks(img, mask, percentiles=(1, 25, 50, 75, 99))
        assert np.allclose(lm, [1, 25, 50, 75, 99], atol=0.5)

    def test_nondecreasing_output(self, rng):
        img = image_of(rng.normal(50, 30, size=(8, 8, 8)))
        mask = LabelVolume(img.header, np.ones((8, 8, 8), dtype=np.uint8), num_classes=1)
        lm = landmarks(img, mask)
        assert np.all(np.diff(lm) >= 0)

    def test_empty_mask(self):
        img = image_of(np.zeros((4, 4, 4)))
        with pytest.raises(ArgumentError):
            landmarks(img, None)  # no positive intensities -> empty default mask

    def test_bad_percentiles(self):
        img = image_of(np.ones((4, 4, 4)))
        with pytest.raises(ArgumentError):
            landmarks(img, None, percentiles=(0, 50))
        with pytest.raises(ArgumentError):
            landmarks(img, None, percentiles=(30, 20))


class TestBuildMap:
    def test_identity(self):
        m = LandmarkMap((10, 20, 30), (10, 20, 30))
        assert m.source_landmarks == m.reference_landmarks

    def test_rejects_decreasing_reference(self):
        with pytest.raises(ArgumentError):
            LandmarkMap((10, 20, 30), (10, 5, 30))

    def test_rejects_repeated_source_landmark(self):
        with pytest.raises(ArgumentError):
            LandmarkMap((10, 20, 20, 30), (0, 1, 2, 3))

    def test_rejects_short_lists(self):
        with pytest.raises(ArgumentError):
            LandmarkMap((10,), (10,))

    def test_flat_reference_segment_allowed(self):
        m = LandmarkMap((10, 20, 30), (5, 5, 9))
        assert m.reference_landmarks == (5.0, 5.0, 9.0)


class TestApply:
    def test_identity_map_is_identity(self, rng):
        data = rng.uniform(10, 90, size=(6, 6, 6))
        img = image_of(data)
        mask = LabelVolume(img.header, np.ones((6, 6, 6), dtype=np.uint8), num_classes=1)
        m = LandmarkMap((10, 50, 90), (10, 50, 90))
        out = apply(m, img, mask)
        assert np.allclose(out.data, img.data, atol=1e-6)

    def test_doubling_map(self):
        img = image_of(np.linspace(10, 90, 64).reshape(4, 4, 4))
        mask = LabelVolume(img.header, np.ones((4, 4, 4), dtype=np.uint8), num_classes=1)
        m = LandmarkMap((10, 50, 90), (20, 100, 180))
        out = apply(m, img, mask)
        assert np.allclose(out.data, 2.0 * img.data, rtol=1e-6)

    def test_extrapolation_uses_end_slopes(self):
        img = image_of(np.array([5.0, 100.0]).reshape(2, 1, 1))
        mask = LabelVolume(img.header, np.ones((2, 1, 1), dtype=np.uint8), num_classes=1)
        m = LandmarkMap((10.0, 20.0, 90.0), (30.0, 50.0, 90.0))
        out = apply(m, img, mask)
        # below: slope (50-30)/(20-10)=2 -> 30 + (5-10)*2 = 20
        assert out.data[0, 0, 0] == pytest.approx(20.0)
        # above: slope (90-50)/(90-20)=4/7 -> 90 + 10*4/7
        assert out.data[1, 0, 0] == pytest.approx(90.0 + 10 * 4 / 7, rel=1e-6)

    def test_monotone(self, rng):
        data = rng.uniform(0, 120, size=(8, 8, 8))
        img = image_of(data)
        mask = LabelVolume(img.header, np.ones((8, 8, 8), dtype=np.uint8), num_classes=1)
        m = LandmarkMap((10, 30, 70, 90), (5, 40, 60, 95))
        out = apply(m, img, mask)
        x = img.data.reshape(-1)
        y = out.data.reshape(-1)
        order = np.argsort(x)
        assert np.all(np.diff(y[order]) >= -1e-5)

    def test_background_untouched(self, rng):
        data = rng.uniform(10, 90, size=(6, 6, 6)).astype(np.float32)
        img = image_of(data)
        labels = np.zeros((6, 6, 6), dtype=np.uint8)
        labels[:3] = 1
        mask = LabelVolume(img.header, labels, num_classes=1)
        m = LandmarkMap((10, 50, 90), (110, 150, 190))
        out = apply(m, img, mask)
        assert np.array_equal(out.data[3:], img.data[3:])
        assert np.all(out.data[:3] >= 100.0)

    def test_equal_intensities_map_equally(self, rng):
        data = rng.integers(10, 20, size=(6, 6, 6)).astype(np.float32)
        img = image_of(data)
        mask = LabelVolume(img.header, np.ones((6, 6, 6), dtype=np.uint8), num_classes=1)
        m = LandmarkMap((10, 15, 19), (30, 45, 60))
        out = apply(m, img, mask)
        for v in np.unique(data):
            mapped = out.data[data == v]
            assert np.all(mapped == mapped.reshape(-1)[0])


def test_cross_protocol_landmark_match():
    params = PhantomParams(base_dims=(32, 32, 32), supersample=2, seed=13)
    hr = generate_label_phantom(params, 0)
    pv = restrict_to_top_two(downsample_to_pv(hr, 2))
    truth = pv_to_labels(pv)
    img_a = render(pv, DEFAULT_PROTOCOL_A, seed=1)
    img_b = render(pv, DEFAULT_PROTOCOL_B, seed=2)
    ref_lm = landmarks(img_a, truth, DEFAULT_PERCENTILES)
    src_lm = landmarks(img_b, truth, DEFAULT_PERCENTILES)
    matched = apply(LandmarkMap(src_lm, ref_lm), img_b, truth)
    out_lm = landmarks(matched, truth, DEFAULT_PERCENTILES)
    span = ref_lm[-1] - ref_lm[0]
    assert np.all(np.abs(out_lm - ref_lm) <= 0.02 * span)
