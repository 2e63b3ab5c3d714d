import numpy as np
import pytest

from camelion.errors import ArgumentError, TrainingError
from camelion.phantom import (
    PhantomParams,
    ProtocolParams,
    downsample_to_pv,
    generate_label_phantom,
    pv_to_labels,
    render,
    restrict_to_top_two,
)
from camelion import pipeline, segmenter
from camelion.pipeline import precompute_atlas_side
from camelion.segmenter import (
    SegmenterConfig,
    SegmenterModel,
    atlas_prior,
    atlas_side,
    label_frequency,
    predict,
    prior_support,
    train,
)
from camelion.util import LatestMemo
from camelion.volumes import AtlasPair, LabelVolume, ScalarVolume, VolumeHeader
from oracles import (
    atlas_prior_reference,
    bayes_labels,
    predict_reference,
    train_statistics_reference,
)

NO_SMOOTH = SegmenterConfig(smoothing_weight=0.0)


def pair_from(image, labels, k=5, voxel=(1.0, 1.0, 1.0)):
    header = VolumeHeader(np.asarray(image).shape, voxel)
    return AtlasPair(
        ScalarVolume(header, np.asarray(image, dtype=np.float32)),
        LabelVolume(header, np.asarray(labels, dtype=np.uint8), num_classes=k),
    )


def fit(pairs, cfg):
    """train on the pairs' images with the atlas side of their labels."""
    return train([p.image for p in pairs], atlas_side([p.labels for p in pairs], cfg), cfg)


def prior_of(pairs, cfg):
    return atlas_prior([p.labels for p in pairs], cfg)


def on_support(model, volume):
    return volume.data.reshape(-1)[model.support.index]


def five_class_labels(dims=(10, 10, 10)):
    labels = np.zeros(dims, dtype=np.uint8)
    edges = np.linspace(0, dims[0], 6).astype(int)
    for k in range(1, 6):
        labels[edges[k - 1] : edges[k]] = k
    return labels


def test_constant_class_mean_and_variance_floor():
    labels = five_class_labels()
    image = np.where(labels == 5, 80.0, labels * 10.0)
    model = fit([pair_from(image, labels)], NO_SMOOTH)
    assert model.means[4] == pytest.approx(80.0)
    intensity_range = image.max() - image.min()
    assert model.variances[4] == pytest.approx(1e-4 * intensity_range**2)


def test_pooled_mean_across_atlases():
    labels = five_class_labels()
    img_a = np.where(labels == 1, 80.0, labels * 30.0)
    img_b = np.where(labels == 1, 100.0, labels * 30.0)
    model = fit([pair_from(img_a, labels), pair_from(img_b, labels)], NO_SMOOTH)
    assert model.means[0] == pytest.approx(90.0)  # equal counts, pooled


def test_missing_class_raises_named_error():
    labels = five_class_labels()
    labels[labels == 2] = 1  # class 2 gone
    image = labels * 10.0
    with pytest.raises(TrainingError, match="ventricles"):
        fit([pair_from(image, labels)], NO_SMOOTH)


def test_label_frequency_before_smoothing():
    labels_a = five_class_labels()
    labels_b = labels_a.copy()
    labels_b[0, 0, 0] = 3
    labels_a[0, 0, 0] = 1
    freq = label_frequency(
        [pair_from(labels_a * 10.0, labels_a).labels, pair_from(labels_b * 10.0, labels_b).labels]
    )
    assert freq[0, 0, 0, 0] == pytest.approx(0.5)
    assert freq[2, 0, 0, 0] == pytest.approx(0.5)


def test_atlas_order_invariance():
    rng = np.random.default_rng(3)
    labels = five_class_labels()
    pairs = [
        pair_from(labels * 10.0 + rng.normal(0, 2, labels.shape), labels) for _ in range(4)
    ]
    m1 = fit(pairs, NO_SMOOTH)
    m2 = fit(pairs[::-1], NO_SMOOTH)
    assert np.array_equal(m1.means, m2.means)
    assert np.array_equal(m1.variances, m2.variances)
    assert m1.support.log_prior.tobytes() == m2.support.log_prior.tobytes()


def test_prior_sums_bounded():
    labels = five_class_labels()
    labels[:, :2] = 0
    cfg = SegmenterConfig(prior_epsilon=0.01, smoothing_weight=0.0)
    prior = prior_of([pair_from(labels * 10.0, labels)], cfg)
    mask = labels > 0
    sums = prior.sum(axis=0, dtype=np.float64)
    assert sums.max() <= 1.0 + 1e-6
    assert np.all(prior[:, ~mask] == 0)
    # floored at epsilon, up to the rescaling that keeps channel sums <= 1
    floor = 0.01 / (1.0 + 5 * 0.01)
    assert np.all(prior[:, mask] >= floor - 1e-7)


class TestTrainChecksSide:
    def test_rejects_side_of_other_headers(self):
        labels = five_class_labels()
        side = atlas_side([pair_from(labels * 10.0, labels).labels], NO_SMOOTH)
        for image, voxel in ((labels * 10.0, (2.0, 1.0, 1.0)), (labels[:8] * 10.0, (1.0, 1.0, 1.0))):
            other = pair_from(image, image / 10.0, voxel=voxel).image
            with pytest.raises(ArgumentError, match="header"):
                train([other], side, NO_SMOOTH)

    def test_rejects_side_of_other_atlas_count(self):
        labels = five_class_labels()
        pair = pair_from(labels * 10.0, labels)
        side = atlas_side([pair.labels, pair.labels], NO_SMOOTH)
        for images in ([pair.image], [pair.image] * 3, []):
            with pytest.raises(ArgumentError, match="atlas side of 2 atlases"):
                train(images, side, NO_SMOOTH)


class TestPriorMemo:
    """The pipeline's atlas-side lookup: the segmenter's prior and atlas
    indices are built once per atlas label set and prior_epsilon."""

    @pytest.fixture
    def frequency_calls(self, monkeypatch):
        calls = []

        def counting(atlas_labels):
            calls.append(len(atlas_labels))
            return label_frequency(atlas_labels)

        monkeypatch.setattr(pipeline, "_ATLAS_SIDES", LatestMemo())
        monkeypatch.setattr(segmenter, "label_frequency", counting)
        return calls

    @staticmethod
    def assert_support_of(side, prior):
        expected = prior_support(prior)
        assert side.support.index.tobytes() == expected.index.tobytes()
        assert side.support.log_prior.tobytes() == expected.log_prior.tobytes()

    @staticmethod
    def atlases(seed=5):
        rng = np.random.default_rng(seed)
        labels = [five_class_labels((12, 12, 12)) for _ in range(3)]
        for lab in labels:
            lab[tuple(rng.integers(0, 12, size=(3, 20)))] = 0
        return [pair_from(lab * 10.0 + rng.normal(0, 2, lab.shape), lab) for lab in labels]

    def test_matches_reference_byte_for_byte(self, frequency_calls):
        pairs = self.atlases()
        cfg = SegmenterConfig(prior_epsilon=1e-3)
        expected = atlas_prior_reference([p.labels.data for p in pairs], 5, 1e-3)
        cold = precompute_atlas_side(pairs, cfg)
        warm = precompute_atlas_side(pairs, cfg)
        assert frequency_calls == [3]
        assert warm is cold
        self.assert_support_of(cold, expected)
        got = atlas_prior([p.labels for p in pairs], cfg)
        assert got.dtype == np.float32
        assert got.tobytes() == expected.tobytes()
        assert not got.flags.writeable
        assert not cold.support.log_prior.flags.writeable

    def test_new_images_same_labels_reuse_prior(self, frequency_calls):
        pairs = self.atlases()
        brighter = [pair_from(p.image.data * 2.0, p.labels.data.copy()) for p in pairs]
        first = precompute_atlas_side(pairs, NO_SMOOTH)
        second = precompute_atlas_side(brighter, NO_SMOOTH)
        assert frequency_calls == [3]
        assert second is first
        means = [train([p.image for p in pp], first, NO_SMOOTH).means for pp in (pairs, brighter)]
        assert not np.array_equal(means[0], means[1])

    def test_label_or_epsilon_change_recomputes(self, frequency_calls):
        pairs = self.atlases()
        precompute_atlas_side(pairs, NO_SMOOTH)
        edited = pairs[1].labels.data.copy()
        edited[6, 6, 6] = 1 if edited[6, 6, 6] != 1 else 2
        changed = [pairs[0], pair_from(pairs[1].image.data, edited), pairs[2]]
        got = precompute_atlas_side(changed, NO_SMOOTH)
        assert frequency_calls == [3, 3]
        self.assert_support_of(got, atlas_prior_reference(
            [p.labels.data for p in changed], 5, NO_SMOOTH.prior_epsilon))

        eps = SegmenterConfig(prior_epsilon=1e-2, smoothing_weight=0.0)
        got = precompute_atlas_side(changed, eps)
        assert frequency_calls == [3, 3, 3]
        self.assert_support_of(got, atlas_prior_reference(
            [p.labels.data for p in changed], 5, 1e-2))

    def test_same_labels_as_new_objects_hit(self, frequency_calls):
        pairs = self.atlases()
        side = precompute_atlas_side(pairs, NO_SMOOTH)
        copies = [pair_from(p.image.data.copy(), p.labels.data.copy()) for p in pairs]
        assert precompute_atlas_side(copies, NO_SMOOTH) is side
        assert frequency_calls == [3]
        model = train([p.image for p in copies], side, NO_SMOOTH)
        assert model.support is side.support
        for i, p in enumerate(pairs):
            flat = p.labels.data.reshape(-1)
            assert np.array_equal(side.tissue[i], np.flatnonzero(flat > 0))
            for k in range(1, 6):
                assert np.array_equal(side.classes[i][k - 1], np.flatnonzero(flat == k))

    def test_new_label_set_evicts_the_old_one(self, frequency_calls):
        first = self.atlases(seed=5)
        second = self.atlases(seed=6)
        side = precompute_atlas_side(first, NO_SMOOTH)
        precompute_atlas_side(second, NO_SMOOTH)
        again = precompute_atlas_side(first, NO_SMOOTH)
        assert frequency_calls == [3, 3, 3]
        assert again is not side
        assert again.support.log_prior.tobytes() == side.support.log_prior.tobytes()


class TestPredict:
    def test_nearest_mean_under_uniform_prior(self):
        labels = five_class_labels()
        image = np.where(labels > 0, labels * 30.0, 0.0)
        model = fit([pair_from(image, labels)], NO_SMOOTH)
        probe = np.full(labels.shape, 60.0, dtype=np.float32)
        out = predict(model, ScalarVolume(model.header, probe))
        assert np.all(on_support(model, out) == 2)

    def test_zero_prior_blocks_class(self):
        labels = five_class_labels()
        pairs = [pair_from(np.where(labels > 0, labels * 30.0, 0.0), labels)]
        base = fit(pairs, NO_SMOOTH)
        far = np.zeros(labels.shape, dtype=bool)
        far[:2] = True  # class-1 stripe, > 3 voxels from the class-5 stripe
        prior = prior_of(pairs, NO_SMOOTH).copy()
        prior[4][far] = 0.0
        model = SegmenterModel(base.header, base.means, base.variances, prior_support(prior), 0.0)
        # every voxel at the class-5 mean
        probe = np.full(labels.shape, 150.0, dtype=np.float32)
        out = predict(model, ScalarVolume(model.header, probe))
        assert np.all(out.data[~far] == 5)
        assert not np.any(out.data[far] == 5)

    def test_header_mismatch(self):
        labels = five_class_labels()
        image = labels * 30.0
        model = fit([pair_from(image, labels)], NO_SMOOTH)
        other = ScalarVolume(VolumeHeader((10, 10, 10), (2.0, 1.0, 1.0)), image.astype(np.float32))
        with pytest.raises(ArgumentError):
            predict(model, other)

    def test_against_bayes_oracle(self):
        rng = np.random.default_rng(8)
        labels = five_class_labels((8, 8, 8))
        image = labels * 25.0 + rng.normal(0, 4, labels.shape)
        model = fit([pair_from(image, labels)], NO_SMOOTH)
        probe = rng.normal(60, 40, size=(8, 8, 8)).astype(np.float32)
        out = predict(model, ScalarVolume(model.header, probe))
        prior = prior_of([pair_from(image, labels)], NO_SMOOTH)
        expected = bayes_labels(probe, model.means, model.variances, prior.astype(np.float64))
        assert np.array_equal(out.data, expected)

    def test_labels_are_posterior_argmax_with_smoothing(self):
        # predict_reference takes the argmax of the full-grid posterior stack
        rng = np.random.default_rng(10)
        labels = five_class_labels()
        pairs = [pair_from(labels * 25.0 + rng.normal(0, 4, labels.shape), labels)]
        cfg = SegmenterConfig(smoothing_weight=0.7)
        model = fit(pairs, cfg)
        probe = (labels * 25.0 + rng.normal(0, 10, labels.shape)).astype(np.float32)
        out = assert_matches_full_grid(model, prior_of(pairs, cfg), probe)
        assert np.all(on_support(model, out) > 0)

    def test_crop_separability_without_smoothing(self):
        rng = np.random.default_rng(11)
        labels = five_class_labels()
        image = labels * 25.0 + rng.normal(0, 4, labels.shape)
        pairs = [pair_from(image, labels)]
        model = fit(pairs, NO_SMOOTH)
        probe = rng.normal(60, 40, size=(10, 10, 10)).astype(np.float32)
        full = predict(model, ScalarVolume(model.header, probe))

        crop = (slice(0, 6), slice(0, 10), slice(0, 10))
        sub_header = VolumeHeader((6, 10, 10), model.header.voxel_size)
        sub_prior = np.ascontiguousarray(prior_of(pairs, NO_SMOOTH)[(slice(None),) + crop])
        sub_model = SegmenterModel(
            header=sub_header,
            means=model.means,
            variances=model.variances,
            support=prior_support(sub_prior),
            smoothing_weight=0.0,
        )
        sub = predict(sub_model, ScalarVolume(sub_header, probe[crop]))
        assert np.array_equal(sub.data, full.data[crop])
        assert_matches_full_grid(sub_model, sub_prior, probe[crop])

    def test_smoothing_removes_salt_noise(self):
        rng = np.random.default_rng(12)
        labels = five_class_labels()
        image = np.where(labels > 0, labels * 25.0, 0.0)
        probe = image + rng.normal(0, 9, labels.shape)
        probe[labels == 0] = 0.0
        plain = predict(
            fit([pair_from(image, labels)], NO_SMOOTH),
            ScalarVolume(VolumeHeader((10, 10, 10)), probe.astype(np.float32)),
        )
        smoothed = predict(
            fit([pair_from(image, labels)], SegmenterConfig(smoothing_weight=0.5)),
            ScalarVolume(VolumeHeader((10, 10, 10)), probe.astype(np.float32)),
        )
        err_plain = (plain.data != labels).sum()
        err_smooth = (smoothed.data != labels).sum()
        assert err_smooth <= err_plain


def varied_atlases(dims=(12, 14, 10), voxel=(1.0, 2.0, 0.5), seed=0):
    """Three atlases on an anisotropic grid: noisy class blocks inside a
    box that differs per atlas, with class 4 missing from the second."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(3):
        labels = np.zeros(dims, dtype=np.uint8)
        inner = (slice(2 + i % 2, -2), slice(2, -2 - i), slice(1, -1))
        block = np.repeat(rng.integers(1, 6, size=(3, 10, 8)), 3, axis=0)
        labels[inner] = block[tuple(slice(0, n) for n in labels[inner].shape)]
        flip = (rng.random(dims) < 0.1) & (labels > 0)
        labels[flip] = rng.integers(1, 6, size=dims)[flip]
        if i == 1:
            labels[labels == 4] = 3
        image = np.where(labels > 0, labels * 20.0 + rng.normal(0, 6, dims), 0.0)
        pairs.append(pair_from(image, labels, voxel=voxel))
    return pairs


def probe_image(shape, seed):
    """Positive intensities off the prior's support, and mostly positive
    ones on it, with every seventh voxel zero and every eleventh negative."""
    probe = np.abs(np.random.default_rng(seed).normal(60, 40, size=shape)) + 1.0
    probe.flat[::7] = 0.0
    probe.flat[::11] = -5.0
    return probe.astype(np.float32)


def assert_matches_full_grid(model, prior, probe):
    out = predict(model, ScalarVolume(model.header, probe))
    labels = predict_reference(model, prior, ScalarVolume(model.header, probe))
    assert out.data.tobytes() == labels.tobytes()
    return out


class TestSupportMatchesFullGrid:
    """predict on the prior's support and train through the atlas side's
    class indices give the bytes of the full-grid versions in oracles.py."""

    def test_train_statistics(self):
        pairs = varied_atlases()
        model = fit(pairs, NO_SMOOTH)
        means, variances = train_statistics_reference(pairs)
        assert model.means.tobytes() == means.tobytes()
        assert model.variances.tobytes() == variances.tobytes()

    @pytest.mark.parametrize("weight", [0.0, 0.5])
    def test_trained_model_on_anisotropic_grid(self, weight):
        pairs = varied_atlases()
        cfg = SegmenterConfig(smoothing_weight=weight)
        model = fit(pairs, cfg)
        prior = prior_of(pairs, cfg)
        probe = probe_image(model.header.dims, seed=1)
        off_support = ~prior.any(axis=0)
        assert (probe[off_support] > 0).any()
        out = assert_matches_full_grid(model, prior, probe)
        assert np.all(out.data[off_support] == 0)

    @pytest.mark.parametrize("weight", [0.0, 0.5])
    def test_prior_with_zero_support_holes(self, weight):
        pairs = varied_atlases()
        base = fit(pairs, NO_SMOOTH)
        rng = np.random.default_rng(2)
        prior = prior_of(pairs, NO_SMOOTH).copy()
        prior[:, rng.random(base.header.dims) < 0.15] = 0.0      # holes in the support
        prior[2, rng.random(base.header.dims) < 0.3] = 0.0       # one class blocked
        prior[:, rng.random(base.header.dims) < 0.1] = 1e-7      # faint but supported
        model = SegmenterModel(base.header, base.means, base.variances, prior_support(prior), weight)
        probe = probe_image(model.header.dims, seed=3)
        assert (probe[~prior.any(axis=0)] > 0).any()
        out = assert_matches_full_grid(model, prior, probe)
        assert np.all(out.data[prior[2] == 0] != 3)


def test_self_consistency_on_noiseless_phantom():
    params = PhantomParams(base_dims=(48, 48, 48), supersample=4, seed=21)
    hr = generate_label_phantom(params, 0)
    pv = restrict_to_top_two(downsample_to_pv(hr, 4))
    truth = pv_to_labels(pv)

    # well-separated class contrasts: training and predicting on the same
    # noiseless image recovers the truth almost everywhere
    wide = render(pv, ProtocolParams((10.0, 40.0, 90.0, 140.0, 65.0)), seed=0)
    model = fit([AtlasPair(wide, truth)], SegmenterConfig())
    out = predict(model, wide)
    mask = truth.data > 0  # the prior's support
    agree = (out.data[mask] == truth.data[mask]).mean()
    assert agree >= 0.99

    # at the default (tighter) contrast the quadratic decision boundaries
    # of the moment-contaminated Gaussians concede a little more of the
    # partial-volume band
    tight = render(pv, ProtocolParams((25.0, 15.0, 60.0, 100.0, 45.0)), seed=0)
    model_t = fit([AtlasPair(tight, truth)], SegmenterConfig())
    out_t = predict(model_t, tight)
    agree_t = (out_t.data[mask] == truth.data[mask]).mean()
    assert agree_t >= 0.985

    # a loose prior floor (0.01) opens the prior off atlas support and pays
    # with capture of mixed-intensity interface voxels
    loose = fit([AtlasPair(tight, truth)], SegmenterConfig(prior_epsilon=0.01))
    out_l = predict(loose, tight)
    agree_l = (out_l.data[mask] == truth.data[mask]).mean()
    assert agree_l <= agree_t

