import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import uniform_filter

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
from camelion.segmenter import (
    SegmenterConfig,
    SegmenterModel,
    atlas_prior,
    atlas_side,
    box_filter,
    label_frequency,
    predict,
    prior_support,
    train,
)
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
    side = atlas_side([p.labels for p in pairs], cfg)
    return train(side.tissue_values([p.image for p in pairs]), side, cfg)


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


def test_variance_floor_reads_the_tissue_range():
    # background at 0 lies outside the tissue's 50..90 range and is not read
    labels = five_class_labels()
    labels[0] = 0
    image = np.where(labels == 5, 90.0, np.where(labels > 0, 50.0 + labels * 2.0, 0.0))
    model = fit([pair_from(image, labels)], NO_SMOOTH)
    assert model.variances[4] == pytest.approx(1e-4 * (90.0 - 52.0) ** 2)


def test_pooled_mean_across_atlases():
    labels = five_class_labels()
    img_a = np.where(labels == 1, 80.0, labels * 30.0)
    img_b = np.where(labels == 1, 100.0, labels * 30.0)
    model = fit([pair_from(img_a, labels), pair_from(img_b, labels)], NO_SMOOTH)
    assert model.means[0] == pytest.approx(90.0)  # equal counts, pooled


def test_model_statistics_are_read_only():
    # the pipeline shares one first model between every arm call and thread
    labels = five_class_labels()
    model = fit([pair_from(labels * 10.0, labels)], NO_SMOOTH)
    for arr in (model.means, model.variances):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


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


@pytest.mark.parametrize("n_atlas", [1, 3, 255, 256, 300])
def test_label_frequency_matches_running_count(n_atlas):
    # past 255 atlases a class count no longer fits in uint8
    rng = np.random.default_rng(n_atlas)
    arrays = rng.integers(0, 6, (n_atlas, 2, 3, 4)).astype(np.uint8)
    arrays[:, 0, 0, 0] = 2
    expected = np.zeros((5, 2, 3, 4), dtype=np.float32)
    for lab in arrays:
        for k in range(1, 6):
            expected[k - 1] += lab == k
    expected /= n_atlas
    header = VolumeHeader((2, 3, 4), (1.0, 1.0, 1.0))
    got = label_frequency([LabelVolume(header, a, num_classes=5) for a in arrays])
    assert got.dtype == np.float32
    assert got.tobytes() == expected.tobytes()
    assert got[1, 0, 0, 0] == 1.0


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


ODD_SHAPES = [(1, 5, 9), (3, 3, 3), (2, 11, 6), (8, 1, 13), (1, 1, 1), (9, 4, 2)]


class TestBoxFilter:
    """box_filter against scipy's uniform_filter, byte for byte, on grids
    with a dimension smaller than the window or of size 1."""

    @pytest.mark.parametrize("size", [3, 4, 7])
    @pytest.mark.parametrize("shape", ODD_SHAPES)
    def test_matches_uniform_filter(self, shape, size):
        rng = np.random.default_rng(size)
        for data in (rng.random(shape), rng.integers(0, 11, shape) / 10.0,
                     rng.random(shape) * 1e4):
            data = data.astype(np.float32)
            got = box_filter(data, size)
            assert got.dtype == np.float32
            assert got.tobytes() == uniform_filter(data, size=size, mode="constant").tobytes()

    @pytest.mark.parametrize("shape", ODD_SHAPES)
    def test_atlas_prior_matches_reference(self, shape):
        rng = np.random.default_rng(len(shape) + sum(shape))
        arrays = rng.integers(0, 6, (3,) + shape).astype(np.uint8)
        arrays[0].flat[0] = 1
        labels = [LabelVolume(VolumeHeader(shape, (1.0, 1.25, 0.75)), a, num_classes=5)
                  for a in arrays]
        expected = atlas_prior_reference(list(arrays), 5, 1e-3)
        got = atlas_prior(labels, SegmenterConfig(prior_epsilon=1e-3))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [3, 7])
    @pytest.mark.parametrize("shape", ODD_SHAPES + [(6, 9, 14)])
    def test_channel_slice_matches_stack(self, shape, size):
        # atlas_prior filters one class channel at a time
        rng = np.random.default_rng(sum(shape) + size)
        stack = rng.random((4,) + shape).astype(np.float32)
        whole = box_filter(stack, size)
        for k in range(stack.shape[0]):
            one = box_filter(stack[k:k + 1], size)
            assert one.shape == (1,) + shape
            assert one[0].tobytes() == whole[k].tobytes()


class TestPriorMemory:
    """The prior is built one class channel at a time and the frequency
    one atlas at a time: the traced peak of each call on a 32^3 set of four
    random atlases, with the same bytes as the references."""

    DIMS = (32, 32, 32)

    @classmethod
    def labels(cls):
        rng = np.random.default_rng(32)
        header = VolumeHeader(cls.DIMS, (1.0, 1.0, 1.0))
        return [LabelVolume(header, rng.integers(0, 6, cls.DIMS).astype(np.uint8), num_classes=5)
                for _ in range(4)]

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_atlas_prior_peak_within_eight_channels(self):
        labels = self.labels()
        cfg = SegmenterConfig(prior_epsilon=1e-3)
        prior, peak = self.traced_peak(atlas_prior, labels, cfg)
        # the result is 2.5 float64 channels of the five; a filter of the
        # whole float32 stack at once peaks at 22
        assert peak <= 8 * np.dtype(np.float64).itemsize * np.prod(self.DIMS)
        expected = atlas_prior_reference([lab.data for lab in labels], 5, 1e-3)
        assert prior.tobytes() == expected.tobytes()

    def test_label_frequency_stacks_no_labels(self):
        # the bytes are test_label_frequency_matches_running_count's
        labels = self.labels()
        freq, peak = self.traced_peak(label_frequency, labels)
        # beside its result, less than one uint8 stack of the atlases' labels
        assert peak - freq.nbytes < len(labels) * np.prod(self.DIMS)


class TestTrainChecksSide:
    def test_rejects_side_of_other_headers(self):
        labels = five_class_labels()
        side = atlas_side([pair_from(labels * 10.0, labels).labels], NO_SMOOTH)
        for image, voxel in ((labels * 10.0, (2.0, 1.0, 1.0)), (labels[:8] * 10.0, (1.0, 1.0, 1.0))):
            other = pair_from(image, image / 10.0, voxel=voxel).image
            with pytest.raises(ArgumentError, match="header"):
                side.tissue_values([other])

    def test_rejects_side_of_other_atlas_count(self):
        labels = five_class_labels()
        pair = pair_from(labels * 10.0, labels)
        side = atlas_side([pair.labels, pair.labels], NO_SMOOTH)
        values = side.tissue_values([pair.image] * 2)[0]
        for images in ([pair.image], [pair.image] * 3, []):
            with pytest.raises(ArgumentError, match="atlas side of 2 atlases"):
                side.tissue_values(images)
        for vectors in ([values], [values] * 3, []):
            with pytest.raises(ArgumentError, match="atlas side of 2 atlases"):
                train(vectors, side, NO_SMOOTH)

    def test_rejects_moments_of_other_shape(self):
        labels = five_class_labels()
        pair = pair_from(labels * 10.0, labels)
        side = atlas_side([pair.labels, pair.labels], NO_SMOOTH)
        moments = segmenter.class_moments(side.tissue_values([pair.image] * 2), side)
        for sums in (moments.sums[:1], moments.sums[:, :4]):
            with pytest.raises(ArgumentError, match="moments of shape"):
                segmenter.fit_moments(segmenter.ClassMoments(sums, sums, 0.0, 50.0), side,
                                      NO_SMOOTH)

    def test_rejects_vector_of_other_length(self):
        labels = five_class_labels()
        pair = pair_from(labels * 10.0, labels)
        side = atlas_side([pair.labels], NO_SMOOTH)
        [values] = side.tissue_values([pair.image])
        with pytest.raises(ArgumentError, match="tissue voxels"):
            train([values[:-1]], side, NO_SMOOTH)


class TestPriorMemo:
    """The pipeline's atlas-set memo: the segmenter's prior and atlas
    indices are built once per atlas set and prior_epsilon."""

    @pytest.fixture
    def frequency_calls(self, monkeypatch, fresh_atlas_memo):
        calls = []

        def counting(atlas_labels):
            calls.append(len(atlas_labels))
            return label_frequency(atlas_labels)

        monkeypatch.setattr(segmenter, "label_frequency", counting)
        return calls

    @staticmethod
    def side(pairs, cfg):
        return pipeline._first_model(pairs, cfg)[0]

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
        cold = self.side(pairs, cfg)
        warm, model = pipeline._first_model(pairs, cfg)
        assert frequency_calls == [3]
        assert warm is cold
        assert model.support is cold.support
        self.assert_support_of(cold, expected)
        got = atlas_prior([p.labels for p in pairs], cfg)
        assert got.dtype == np.float32
        assert got.tobytes() == expected.tobytes()
        assert not got.flags.writeable
        assert not cold.support.log_prior.flags.writeable
        for i, p in enumerate(pairs):
            flat = p.labels.data.reshape(-1)
            order, bounds = cold.order[i], cold.bounds[i]
            for k in range(1, 6):
                assert np.array_equal(order[bounds[k - 1]:bounds[k]], np.flatnonzero(flat == k))
            assert bounds[0] == 0 and bounds[-1] == order.size

    def test_label_or_epsilon_change_recomputes(self, frequency_calls):
        pairs = self.atlases()
        self.side(pairs, NO_SMOOTH)
        edited = pairs[1].labels.data.copy()
        edited[6, 6, 6] = 1 if edited[6, 6, 6] != 1 else 2
        changed = [pairs[0], pair_from(pairs[1].image.data, edited), pairs[2]]
        got = self.side(changed, NO_SMOOTH)
        assert frequency_calls == [3, 3]
        self.assert_support_of(got, atlas_prior_reference(
            [p.labels.data for p in changed], 5, NO_SMOOTH.prior_epsilon))

        eps = SegmenterConfig(prior_epsilon=1e-2, smoothing_weight=0.0)
        got = self.side(changed, eps)
        assert frequency_calls == [3, 3, 3]
        self.assert_support_of(got, atlas_prior_reference(
            [p.labels.data for p in changed], 5, 1e-2))

    def test_new_label_set_evicts_the_old_one(self, frequency_calls):
        first = self.atlases(seed=5)
        second = self.atlases(seed=6)
        side = self.side(first, NO_SMOOTH)
        self.side(second, NO_SMOOTH)
        again = self.side(first, NO_SMOOTH)
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


class TestRunningArgmax:
    """predict takes both argmaxes as a running strict > compare over the
    class rows, so the first maximum wins, as with argmax."""

    @pytest.mark.parametrize("weight", [0.0, 0.5])
    def test_tied_classes_go_to_the_smaller(self, weight):
        # classes 2 and 3 share mean, variance and prior, so their log-weights
        # tie on every voxel; class 3 must never win, before or after ICM
        pairs = varied_atlases()
        base = fit(pairs, NO_SMOOTH)
        means, variances = base.means.copy(), base.variances.copy()
        means[2], variances[2] = means[1], variances[1]
        prior = prior_of(pairs, NO_SMOOTH).copy()
        prior[2] = prior[1]
        model = SegmenterModel(base.header, means, variances, prior_support(prior), weight)
        probe = np.full(model.header.dims, means[1], dtype=np.float32)
        probe[::2] = probe_image(model.header.dims, seed=4)[::2]
        out = assert_matches_full_grid(model, prior, probe)
        assert (out.data == 2).any()
        assert not (out.data == 3).any()

    @pytest.mark.parametrize("weight", [0.0, 0.5])
    def test_matches_argmax_of_the_stacked_rows(self, weight):
        pairs = varied_atlases(seed=5)
        model = fit(pairs, SegmenterConfig(smoothing_weight=weight))
        probe = probe_image(model.header.dims, seed=6)
        out = assert_matches_full_grid(model, prior_of(pairs, NO_SMOOTH), probe)
        f = probe.reshape(-1)[model.support.index].astype(np.float64)
        log_w = np.stack([-0.5 * np.log(2.0 * np.pi * v) - (f - m) ** 2 / (2.0 * v)
                          for m, v in zip(model.means, model.variances)])
        log_w += model.support.log_prior
        first = segmenter._first_argmax(log_w)
        assert np.array_equal(first, log_w.argmax(axis=0) + 1)
        if weight == 0.0:
            assert np.array_equal(on_support(model, out), first)


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

