import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camelion import config as cfgmod
from camelion import pv, tissues
from camelion.cli import _load_atlases
from camelion.errors import ArgumentError, DegeneratePairError, EstimationError, GeometryError
from camelion.phantom import (
    DEFAULT_PROTOCOL_A,
    DEFAULT_PROTOCOL_B,
    PhantomParams,
    ProtocolParams,
    downsample_to_pv,
    generate_cohort,
    generate_label_phantom,
    load_manifest,
    pv_to_labels,
    render,
    restrict_to_top_two,
)
from camelion.pipeline import run
from camelion.synth import fit_linear
from camelion.pv import (
    SEARCH_RADIUS,
    PvConfig,
    class_stats,
    estimate_pv,
    map_alpha,
    second_class_map,
)
from camelion.volumes import (
    PartialVolumeSet,
    LabelVolume,
    ScalarVolume,
    VolumeHeader,
    read_mvf,
    validate_partial_volumes,
)
from oracles import (
    estimate_pv_reference,
    fit_linear_reference,
    grid_search_alpha,
    grid_search_alpha_batch,
    nearest_different_label,
    second_class_map_edt,
)


def make_labels(data, voxel=(1.0, 1.0, 1.0), k=5):
    data = np.asarray(data, dtype=np.uint8)
    return LabelVolume(VolumeHeader(data.shape, voxel), data, num_classes=k)


def make_image(data, voxel=(1.0, 1.0, 1.0)):
    data = np.asarray(data, dtype=np.float32)
    return ScalarVolume(VolumeHeader(data.shape, voxel), data)


class TestClassMeans:
    def test_constant_class(self):
        labels = make_labels(np.full((2, 2, 2), 3))
        image = make_image(np.full((2, 2, 2), 100.0))
        # classes 1,2,4,5 empty: they get 0.0 placeholders
        means = class_stats(image, labels).means
        assert means.tolist() == [0.0, 0.0, 100.0, 0.0, 0.0]

    def test_all_classes(self, rng):
        data = np.repeat(np.arange(1, 6), 10).reshape(5, 10)
        labels = np.zeros((5, 10, 2), dtype=np.uint8)
        labels[:, :, 0] = data
        labels[:, :, 1] = data
        image = np.where(labels > 0, labels * 10.0, 0.0)
        means = class_stats(make_image(image), make_labels(labels)).means
        assert np.allclose(means, [10, 20, 30, 40, 50])

    def test_two_point_mean(self):
        labels = np.zeros((2, 1, 1), dtype=np.uint8)
        labels[:, 0, 0] = 1
        image = np.zeros((2, 1, 1), dtype=np.float32)
        image[0, 0, 0], image[1, 0, 0] = 90.0, 110.0
        means = class_stats(make_image(image), make_labels(labels, k=1)).means
        assert means[0] == pytest.approx(100.0)

    def test_against_brute_force(self, rng):
        labels = rng.integers(0, 6, size=(8, 8, 8)).astype(np.uint8)
        for k in range(1, 6):  # make sure all present
            labels.reshape(-1)[k] = k
        image = rng.normal(50, 20, size=(8, 8, 8)).astype(np.float32)
        means = class_stats(make_image(image), make_labels(labels)).means
        for k in range(1, 6):
            sel = labels == k
            assert means[k - 1] == pytest.approx(
                float(image[sel].astype(np.float64).sum()) / sel.sum(), abs=1e-9
            )


class TestNoiseSigma:
    def test_noiseless_hits_floor(self):
        labels = np.ones((4, 4, 4), dtype=np.uint8)
        labels[2:] = 2
        image = np.where(labels == 1, 10.0, 90.0)
        vol = make_image(image)
        sigma = class_stats(vol, make_labels(labels, k=2)).sigma
        assert sigma == pytest.approx(1e-3 * 80.0)

    def test_two_residuals(self):
        labels = np.zeros((2, 1, 1), dtype=np.uint8)
        labels[:, 0, 0] = 1
        image = np.zeros((2, 1, 1), dtype=np.float32)
        image[0, 0, 0], image[1, 0, 0] = -1.0, 1.0
        vol = make_image(image)
        # the class mean is 0, so each residual is its value
        sigma = class_stats(vol, make_labels(labels, k=1)).sigma
        assert sigma == pytest.approx(1.0)

    def test_phantom_estimate_within_10_percent(self):
        # pure-tissue phantom (one-hot fractions) so the residuals are all noise
        params = PhantomParams(base_dims=(24, 24, 24), supersample=2, seed=5)
        hr = generate_label_phantom(params, 0)
        labels = pv_to_labels(restrict_to_top_two(downsample_to_pv(hr, 2)))
        onehot = np.zeros((5,) + labels.header.dims, dtype=np.float32)
        for k in range(1, 6):
            onehot[k - 1][labels.data == k] = 1.0
        pv = PartialVolumeSet(labels.header, onehot)
        proto = ProtocolParams((25.0, 15.0, 60.0, 100.0, 80.0), noise_sigma=3.0)
        image = render(pv, proto, seed=9)
        sigma = class_stats(image, labels).sigma
        assert sigma == pytest.approx(3.0, rel=0.1)

    def test_partial_volume_spread_inflates_pooled_sigma(self):
        # on a mixed-tissue render the pooled residuals carry boundary spread
        params = PhantomParams(base_dims=(24, 24, 24), supersample=2, seed=5)
        hr = generate_label_phantom(params, 0)
        pv = restrict_to_top_two(downsample_to_pv(hr, 2))
        labels = pv_to_labels(pv)
        proto = ProtocolParams((25.0, 15.0, 60.0, 100.0, 80.0), noise_sigma=3.0)
        image = render(pv, proto, seed=9)
        pooled = class_stats(image, labels).sigma
        assert pooled > 3.0  # boundary spread adds on top of the noise


class TestSecondClassMap:
    def test_two_half_spaces(self):
        labels = np.ones((4, 4, 4), dtype=np.uint8)
        labels[2:] = 2
        second = second_class_map(make_labels(labels, k=2))
        assert np.all(second.data[labels == 1] == 2)
        assert np.all(second.data[labels == 2] == 1)

    def test_tie_prefers_smaller_class(self):
        labels = np.zeros((3, 1, 1), dtype=np.uint8)
        labels[0, 0, 0] = 4
        labels[1, 0, 0] = 1
        labels[2, 0, 0] = 2
        second = second_class_map(make_labels(labels))
        assert second.data[1, 0, 0] == 2  # classes 2 and 4 equidistant

    def test_background_stays_zero(self):
        labels = np.zeros((3, 3, 3), dtype=np.uint8)
        labels[0, 0, 0] = 1
        labels[2, 2, 2] = 2
        second = second_class_map(make_labels(labels, k=2))
        assert second.data[1, 1, 1] == 0

    def test_single_class_errors(self):
        labels = np.ones((3, 3, 3), dtype=np.uint8)
        with pytest.raises(GeometryError):
            second_class_map(make_labels(labels, k=5))

    @pytest.mark.parametrize("voxel", [(1.0, 1.0, 1.0), (1.0, 1.25, 0.75)])
    def test_against_brute_force(self, voxel):
        rng = np.random.default_rng(77)
        for _ in range(5):
            labels = rng.integers(0, 6, size=(10, 10, 10)).astype(np.uint8)
            vol = make_labels(labels, voxel=voxel)
            got = second_class_map(vol)
            expected = nearest_different_label(labels, voxel)
            assert np.array_equal(got.data, expected)

    @pytest.mark.parametrize("voxel", [(1.0, 1.0, 1.0), (1.0, 1.25, 0.75)])
    def test_cropped_tissue_against_brute_force(self, voxel):
        # tissue inside a box with a background margin, and tissue touching
        # one face of the grid: the transforms run on a crop of the grid
        rng = np.random.default_rng(91)
        for box in [(slice(3, 9), slice(2, 11), slice(4, 10)),
                    (slice(0, 5), slice(3, 9), slice(2, 12))]:
            labels = np.zeros((12, 12, 12), dtype=np.uint8)
            labels[box] = rng.integers(0, 6, size=labels[box].shape)
            got = second_class_map(make_labels(labels, voxel=voxel))
            expected = nearest_different_label(labels, voxel)
            assert np.array_equal(got.data, expected)

    def test_result_never_equals_label(self, rng):
        labels = rng.integers(0, 6, size=(8, 8, 8)).astype(np.uint8)
        vol = make_labels(labels)
        second = second_class_map(vol)
        mask = labels > 0
        assert np.all(second.data[mask] != labels[mask])


@pytest.fixture
def far_walks(monkeypatch):
    """The radii of the search tables that second_class_map takes past
    SEARCH_RADIUS, one per walk on beyond the previous table."""
    radii = []
    real = pv._search_table

    def counting(voxel_size, radius):
        if radius > SEARCH_RADIUS:
            radii.append(radius)
        return real(voxel_size, radius)

    monkeypatch.setattr(pv, "_search_table", counting)
    return radii


def assert_matches_references(vol):
    got = second_class_map(vol).data
    assert np.array_equal(got, second_class_map_edt(vol))
    assert np.array_equal(got, nearest_different_label(vol.data, vol.header.voxel_size))


@pytest.fixture(scope="module")
def label_histories(tmp_path_factory):
    """Every loop label volume of the 16^3 cohort's three test subjects,
    each with the input image it segments."""
    cfg = cfgmod.load_config(None, ["phantom.base_dims=16 16 16", "phantom.supersample=2",
                                    "phantom.n_atlas=2", "phantom.n_test=3"])
    out = tmp_path_factory.mktemp("cohort16")
    generate_cohort(cfgmod.phantom_params(cfg), cfg["phantom.n_atlas"], cfg["phantom.n_test"],
                    cfgmod.protocol(cfg, "a"), cfgmod.protocol(cfg, "b"), out)
    manifest = load_manifest(out / "manifest.json")
    atlases = _load_atlases(manifest)
    histories = []
    for entry in manifest["subjects"]:
        if entry["role"] == "test":
            image = read_mvf(out / entry["image_b"])
            loop = run(image, atlases, cfgmod.loop_config(cfg))
            histories += [(image, labels) for labels in loop.labels_history]
    return histories


class TestNearestClassSearch:
    """second_class_map's offset search against the distance transforms it
    replaced and the brute-force scan, on the cases that stress the search:
    classes beyond SEARCH_RADIUS, ties beyond it, many classes and the
    loop's own labels."""

    @pytest.mark.parametrize("voxel", [(1.0, 1.0, 1.0), (1.0, 1.25, 0.75)])
    def test_classes_beyond_the_radius_fall_back(self, voxel, far_walks):
        gap = SEARCH_RADIUS + 2
        labels = np.zeros((10 + gap, 5, 6), dtype=np.uint8)
        labels[:5, :, :3] = 1
        labels[:5, :, 3:] = 2
        labels[5 + gap:] = 3
        assert_matches_references(make_labels(labels, voxel=voxel))
        # the far side of class 3 lies 17.0 along x from classes 1 and 2:
        # within twice the radius of 1.0 voxel edges, beyond that of 0.75 ones
        assert far_walks == ([2 * SEARCH_RADIUS] if min(voxel) == 1.0
                             else [2 * SEARCH_RADIUS, 4 * SEARCH_RADIUS])

    @pytest.mark.parametrize("voxel", [(1.0, 1.0, 1.0), (1.0, 1.25, 0.75)])
    def test_gap_beyond_twice_the_radius_walks_on_twice(self, voxel, far_walks):
        # the gap exceeds 2 * SEARCH_RADIUS smallest voxel edges, so the voxels
        # facing it walk on through the tables of twice and four times the radius
        gap = int(2 * SEARCH_RADIUS / voxel[0] * min(voxel)) + 2
        labels = np.zeros((10 + gap, 5, 6), dtype=np.uint8)
        labels[:5, :, :3] = 1
        labels[:5, :, 3:] = 2
        labels[5 + gap:] = 3
        assert_matches_references(make_labels(labels, voxel=voxel))
        assert far_walks == [2 * SEARCH_RADIUS, 4 * SEARCH_RADIUS]

    @pytest.mark.parametrize("voxel, offsets", [
        ((1.0, 1.0, 1.0), [(13, 0, 0), (-13, 0, 0)]),
        # 12 * 1.0 and 16 * 0.75 are both exactly 12, beyond the 7.5 of the radius
        ((1.0, 1.25, 0.75), [(12, 0, 0), (0, 0, 16)]),
    ])
    def test_tie_beyond_the_radius_takes_the_smaller_class(self, voxel, offsets, far_walks):
        # class 3 is as far from class 2, at the first offset, as from
        # class 1, at the second: it takes class 1
        labels = np.zeros((27, 3, 19), dtype=np.uint8)
        centre = np.array((13, 1, 1))
        labels[tuple(centre)] = 3
        for k, offset in zip((2, 1), offsets):
            labels[tuple(centre + offset)] = k
        vol = make_labels(labels, voxel=voxel)
        assert_matches_references(vol)
        assert second_class_map(vol).data[tuple(centre)] == 1
        assert far_walks == [2 * SEARCH_RADIUS] * 2

    @pytest.mark.parametrize("distance", [SEARCH_RADIUS - 1, SEARCH_RADIUS + 3])
    def test_single_far_voxel(self, distance, far_walks):
        rng = np.random.default_rng(23)
        labels = np.zeros((8 + distance, 7, 7), dtype=np.uint8)
        labels[:8] = rng.integers(1, 3, size=(8, 7, 7))
        labels[7 + distance, 3, 3] = 4
        assert_matches_references(make_labels(labels))
        assert far_walks == ([2 * SEARCH_RADIUS] if distance > SEARCH_RADIUS else [])

    @pytest.mark.parametrize("voxel", [(1.0, 1.0, 1.0), (1.0, 1.25, 0.75)])
    def test_walk_on_starts_at_the_first_group_beyond_the_radius(self, voxel):
        # class 2 lies in the first group of offsets beyond the radius and
        # class 1 in the next, so a walk that skipped a group would pick 1
        inner = pv._search_table(voxel, SEARCH_RADIUS)
        outer = pv._search_table(voxel, 2 * SEARCH_RADIUS)
        first, second = (outer.offsets[outer.groups[len(inner.groups) + i][0]] for i in (0, 1))
        centre = np.maximum(np.abs(first), np.abs(second))
        labels = np.zeros(tuple(2 * centre + 1), dtype=np.uint8)
        labels[tuple(centre)] = 3
        labels[tuple(centre + first)] = 2
        labels[tuple(centre + second)] = 1
        vol = make_labels(labels, voxel=voxel)
        assert_matches_references(vol)
        assert second_class_map(vol).data[tuple(centre)] == 2

    @pytest.mark.parametrize("limit", [1, 7, 100])
    def test_gathers_in_chunks(self, limit, monkeypatch):
        # a gather of more than GATHER_LIMIT offsets times voxels runs in
        # chunks of voxels, one voxel at a time where one group exceeds it
        rng = np.random.default_rng(limit)
        labels = np.zeros((8 + SEARCH_RADIUS + 3, 9, 8), dtype=np.uint8)
        labels[:8] = rng.integers(0, 4, size=(8, 9, 8))
        labels[-2:, 3:5, 2:6] = 5
        vols = [make_labels(labels, voxel=voxel) for voxel in [(1.0, 1.0, 1.0), (1.0, 1.25, 0.75)]]
        expected = [second_class_map(vol).data for vol in vols]
        monkeypatch.setattr(pv, "GATHER_LIMIT", limit)
        for vol, want in zip(vols, expected):
            assert np.array_equal(second_class_map(vol).data, want)
            assert_matches_references(vol)

    @pytest.mark.parametrize("k", [9, 255])
    def test_many_classes(self, k, far_walks):
        rng = np.random.default_rng(k)
        labels = rng.integers(0, k + 1, size=(10, 9, 8)).astype(np.uint8)
        labels[0, 0, :2] = (k, k - 1)
        assert_matches_references(make_labels(labels, k=k))
        anisotropic = np.where(rng.uniform(size=labels.shape) < 0.7, 0, labels)
        assert_matches_references(make_labels(anisotropic, voxel=(1.0, 1.25, 0.75), k=k))
        assert far_walks == []

    @pytest.mark.parametrize("voxel", [(1.0, 1.0, 1.0), (1.0, 1.25, 0.75)])
    def test_twelve_classes_some_absent(self, voxel, far_walks):
        # the search runs once per present class; absent classes, the first
        # and the last included, are skipped
        rng = np.random.default_rng(12)
        for present in [(2, 3, 5, 8, 11), (1, 4, 12), (6, 7)]:
            codes = np.array((0,) + present, dtype=np.uint8)
            labels = codes[rng.integers(0, codes.size, size=(11, 10, 9))]
            labels[rng.uniform(size=labels.shape) < 0.4] = 0
            labels[0, 0, :2] = present[:2]  # at least two classes present
            assert_matches_references(make_labels(labels, voxel=voxel, k=12))
        assert far_walks == []

    @pytest.mark.parametrize("voxel", [(1.0, 1.0, 1.0), (1.0, 1.25, 0.75)])
    def test_last_class_falls_back_after_the_others_resolve(self, voxel, far_walks):
        # classes 1-3 touch, class 4 is absent and class 5 lies beyond the
        # radius: classes 1-3 resolve within it, and class 5 alone walks on
        gap = SEARCH_RADIUS + 2
        rng = np.random.default_rng(5)
        labels = np.zeros((8 + gap, 7, 6), dtype=np.uint8)
        labels[:6] = rng.integers(1, 4, size=(6, 7, 6))
        labels[6 + gap:, 2:5, 1:4] = 5
        assert_matches_references(make_labels(labels, voxel=voxel))
        assert far_walks == [2 * SEARCH_RADIUS]

    def test_loop_label_histories(self, label_histories, far_walks):
        assert len(label_histories) > 2
        for image, vol in label_histories:
            assert_matches_references(vol)
            for beta in (0.1, 0.0, -0.05):
                channels = estimate_pv_reference(image, vol, PvConfig(beta=beta))[2]
                got = estimate_pv(image, vol, PvConfig(beta=beta)).channels
                assert got.tobytes() == channels.tobytes()
        assert far_walks == []


class TestMapAlpha:
    def test_exact_match_endpoint(self):
        assert map_alpha(100.0, 100.0, 40.0, 3.0, 0.0) == 1.0

    def test_midpoint_symmetric(self):
        assert map_alpha(70.0, 100.0, 40.0, 3.0, 0.0) == pytest.approx(0.5)

    def test_linear_interpolation_beta_zero(self):
        for f in (45.0, 60.0, 77.5, 95.0):
            alpha = map_alpha(f, 100.0, 40.0, 5.0, 0.0)
            assert alpha == pytest.approx((f - 40.0) / 60.0, abs=1e-12)

    def test_strong_prior_snaps_to_nearer_endpoint(self):
        alpha = map_alpha(90.0, 100.0, 40.0, 3.0, 1e6)
        assert alpha == 1.0
        alpha = map_alpha(50.0, 100.0, 40.0, 3.0, 1e6)
        assert alpha == 0.0

    def test_degenerate_pair(self):
        with pytest.raises(DegeneratePairError):
            map_alpha(50.0, 60.0, 60.0, 3.0, 0.0)

    def test_invalid_sigma(self):
        with pytest.raises(ArgumentError):
            map_alpha(50.0, 60.0, 40.0, 0.0, 0.0)

    def test_against_grid_oracle_small(self):
        rng = np.random.default_rng(123)
        n = 500
        c_a = rng.uniform(0, 150, n)
        c_b = rng.uniform(0, 150, n)
        c_b = np.where(np.abs(c_a - c_b) < 1e-3, c_b + 1.0, c_b)
        f = rng.uniform(-20, 170, n)
        sigma = rng.uniform(0.5, 20, n)
        beta = np.where(rng.uniform(size=n) < 0.2, 0.0, rng.uniform(-2, 2, n))
        grid_alpha, grid_j = grid_search_alpha_batch(f, c_a, c_b, sigma, beta)
        from camelion.pv import _map_alpha_arrays, _objective

        alpha = _map_alpha_arrays(f, c_a, c_b, sigma, beta)
        j = _objective(alpha, f, c_a, c_b, sigma, beta)
        assert np.all(j <= grid_j + 1e-8)
        assert np.max(np.abs(alpha - grid_alpha)) <= 2e-4

    def test_swap_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c_a, c_b = rng.uniform(0, 150, 2)
            if abs(c_a - c_b) < 1e-3:
                continue
            f = rng.uniform(-20, 170)
            sigma = rng.uniform(0.5, 10)
            beta = rng.uniform(-1, 1)
            from oracles import grid_objective

            # skip the tie set where both endpoints minimize J equally
            if abs(
                grid_objective(0.0, f, c_a, c_b, sigma, beta)
                - grid_objective(1.0, f, c_a, c_b, sigma, beta)
            ) < 1e-9:
                continue
            a1 = map_alpha(f, c_a, c_b, sigma, beta)
            a2 = map_alpha(f, c_b, c_a, sigma, beta)
            assert a1 == pytest.approx(1.0 - a2, abs=1e-9)

    def test_beta_monotone_away_from_half(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            c_a, c_b = 100.0, 40.0
            f = rng.uniform(30, 110)
            sigma = rng.uniform(1, 10)
            betas = np.sort(rng.uniform(0, 3, size=4))
            dists = [abs(map_alpha(f, c_a, c_b, sigma, b) - 0.5) for b in betas]
            for lo, hi in zip(dists, dists[1:]):
                assert hi >= lo - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        f=st.floats(-50, 200),
        c_a=st.floats(0, 150),
        gap=st.floats(1e-2, 100),
        sigma=st.floats(0.1, 30),
        beta=st.floats(-3, 3),
    )
    def test_hypothesis_matches_grid(self, f, c_a, gap, sigma, beta):
        c_b = c_a - gap
        alpha = map_alpha(f, c_a, c_b, sigma, beta)
        grid_alpha, grid_j = grid_search_alpha(f, c_a, c_b, sigma, beta, step=1e-4)
        from oracles import grid_objective

        assert grid_objective(alpha, f, c_a, c_b, sigma, beta) <= grid_j + 1e-8
        assert 0.0 <= alpha <= 1.0


class TestEstimatePv:
    def test_piecewise_constant_gives_one_hot(self):
        labels = np.zeros((6, 6, 6), dtype=np.uint8)
        labels[:2] = 1
        labels[2:4] = 3
        labels[4:] = 4
        means = {1: 25.0, 3: 60.0, 4: 100.0}
        image = np.zeros((6, 6, 6), dtype=np.float32)
        for k, c in means.items():
            image[labels == k] = c
        pv = estimate_pv(make_image(image), make_labels(labels), PvConfig(beta=0.0))
        validate_partial_volumes(pv)
        hard = pv_to_labels(pv)
        assert np.array_equal(hard.data, labels)
        mask = labels > 0
        assert np.all(pv.channels.max(axis=0)[mask] == 1.0)

    def test_forward_inverse_recovery(self):
        # noiseless gamma=1 phantom, truth labels: recovered fractions match
        # the generative ones on voxels supported by {label, second class}
        params = PhantomParams(base_dims=(24, 24, 24), supersample=4, seed=11)
        hr = generate_label_phantom(params, 0)
        truth_pv = restrict_to_top_two(downsample_to_pv(hr, 4))
        labels = pv_to_labels(truth_pv)
        proto = ProtocolParams((25.0, 15.0, 60.0, 100.0, 80.0))
        image = render(truth_pv, proto, seed=0)
        est = estimate_pv(image, labels, PvConfig(beta=0.0))
        validate_partial_volumes(est)

        second = second_class_map(labels)
        supported = np.ones(labels.header.dims, dtype=bool)
        for k in range(1, 6):
            in_support = (labels.data == k) | (second.data == k)
            supported &= (truth_pv.channels[k - 1] == 0) | in_support
        supported &= labels.data > 0
        err = np.abs(est.channels - truth_pv.channels).mean(axis=0)[supported]
        assert err.mean() < 0.05

    def test_output_validates(self, rng):
        labels = rng.integers(0, 6, size=(8, 8, 8)).astype(np.uint8)
        image = rng.normal(60, 30, size=(8, 8, 8)).astype(np.float32)
        pv = estimate_pv(make_image(image), make_labels(labels), PvConfig())
        validate_partial_volumes(pv)

    def test_argmax_consistency_where_first_class_dominates(self, rng):
        labels = rng.integers(0, 6, size=(8, 8, 8)).astype(np.uint8)
        image = rng.normal(60, 30, size=(8, 8, 8)).astype(np.float32)
        pv = estimate_pv(make_image(image), make_labels(labels), PvConfig(beta=0.0))
        hard = pv_to_labels(pv)
        own = np.zeros(labels.shape, dtype=np.float32)
        mask = labels > 0
        own[mask] = pv.channels.reshape(5, -1)[
            labels[mask].astype(int) - 1, np.flatnonzero(mask)
        ]
        dominant = mask & (own > 0.5)
        assert dominant.any()
        assert np.array_equal(hard.data[dominant], labels[dominant])

    def test_config_validation(self):
        with pytest.raises(ArgumentError):
            PvConfig(beta=np.inf)


class TestSharedTissueGather:
    """estimate_pv's means, sigma and MAP step read one gather of the tissue
    voxels, and fit_linear masks the float32 fractions before its float64
    cast; both give the bytes of their former bodies."""

    @pytest.fixture(scope="class")
    def pairs(self):
        params = PhantomParams(base_dims=(24, 24, 24), supersample=2, seed=21)
        pairs = []
        for i in range(3):
            truth = restrict_to_top_two(downsample_to_pv(generate_label_phantom(params, i), 2))
            labels = pv_to_labels(truth)
            for j, proto in enumerate((DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B)):
                pairs.append((render(truth, proto, seed=10 * i + j), labels))
        rng = np.random.default_rng(8)
        for voxel in ((1.0, 1.0, 1.0), (1.0, 2.0, 0.5)):
            data = np.zeros((14, 12, 10), dtype=np.uint8)
            data[1:-1, 1:-1, 1:-1] = rng.integers(1, 6, size=(12, 10, 8))
            data[data == 4] = 3  # class 4 absent: a 0.0 mean and a fallback intensity
            image = np.where(data > 0, data * 20.0, 0.0) + rng.normal(0, 4, data.shape)
            pairs.append((make_image(image, voxel), make_labels(data, voxel)))
        return pairs

    def test_estimate_pv_matches_former_body(self, pairs):
        cfg = PvConfig()
        for image, labels in pairs:
            means, sigma, channels = estimate_pv_reference(image, labels, cfg)
            stats = class_stats(image, labels)
            assert stats.means.tobytes() == means.tobytes()
            assert stats.sigma == sigma
            assert np.array_equal(stats.index, np.flatnonzero(labels.data))
            assert estimate_pv(image, labels, cfg).channels.tobytes() == channels.tobytes()
            assert estimate_pv(image, labels, cfg, stats).channels.tobytes() == channels.tobytes()

    def test_fit_linear_matches_former_body(self, pairs):
        fallback = np.array([11.0, 22.0, 33.0, 44.0, 55.0])
        for image, labels in pairs:
            pv_set = estimate_pv(image, labels, PvConfig())
            c, mse = fit_linear_reference(pv_set, image, fallback)
            model = fit_linear(pv_set, image, fallback_intensities=fallback)
            assert model.class_intensities.tobytes() == c.tobytes()
            assert model.train_mse == mse
            # the loop's tissue form fits to the same bytes
            tissue = pv.estimate_tissue_pv(image, labels, PvConfig())
            model = fit_linear(tissue, image, fallback_intensities=fallback)
            assert model.class_intensities.tobytes() == c.tobytes()
            assert model.train_mse == mse

    def test_no_tissue_is_estimation_error(self):
        labels = make_labels(np.zeros((3, 3, 3)))
        with pytest.raises(EstimationError):
            class_stats(make_image(np.ones((3, 3, 3))), labels)


def blocky_labels(rng, shape, present, background=0.15, flip=0.1):
    """Labels of the present classes in 2-voxel blocks, with some voxels
    flipped to another present class and some cleared to background."""
    codes = np.asarray(present, dtype=np.uint8)
    blocks = rng.integers(0, codes.size, size=tuple((n + 1) // 2 for n in shape))
    labels = codes[np.repeat(np.repeat(np.repeat(blocks, 2, 0), 2, 1), 2, 2)]
    labels = labels[tuple(slice(0, n) for n in shape)].copy()
    flipped = rng.uniform(size=shape) < flip
    labels[flipped] = codes[rng.integers(0, codes.size, size=shape)][flipped]
    labels[rng.uniform(size=shape) < background] = 0
    labels.flat[:codes.size] = codes  # every listed class is present
    return labels


class TestNeededVoxels:
    """second_class_map(labels, need) answers the needed voxels as the full
    map does and leaves every other voxel 0."""

    @pytest.mark.parametrize("voxel", [(1.0, 1.0, 1.0), (1.0, 1.25, 0.75)])
    def test_equals_full_map_on_needed_voxels(self, voxel):
        rng = np.random.default_rng(31)
        for present in [(1, 2), (2, 3, 5), (1, 2, 3, 4, 5)]:
            vol = make_labels(blocky_labels(rng, (11, 10, 9), present), voxel=voxel)
            full = second_class_map(vol).data
            for share in (0.0, 0.3, 1.0):
                need = rng.uniform(size=vol.data.shape) < share  # background included
                got = second_class_map(vol, need).data
                assert np.array_equal(got[need], full[need])
                assert not got[~need].any()

    def test_fallback_answers_needed_voxels_only(self, far_walks):
        gap = SEARCH_RADIUS + 2
        labels = np.zeros((10 + gap, 5, 6), dtype=np.uint8)
        labels[:5, :, :3] = 1
        labels[:5, :, 3:] = 2
        labels[5 + gap:] = 3
        vol = make_labels(labels)
        need = np.zeros(labels.shape, dtype=bool)
        need[5 + gap:, :, :2] = True
        got = second_class_map(vol, need).data
        assert far_walks == [2 * SEARCH_RADIUS]
        assert np.array_equal(got[need], second_class_map_edt(vol)[need])
        assert np.array_equal(got[need], nearest_different_label(labels, (1.0, 1.0, 1.0))[need])
        assert not got[~need].any()

    def test_need_of_another_shape(self):
        labels = np.ones((4, 4, 4), dtype=np.uint8)
        labels[2:] = 2
        with pytest.raises(ArgumentError):
            second_class_map(make_labels(labels, k=2), np.ones((4, 4, 3), dtype=bool))


def full_path_channels(labels, stats, beta):
    """The (K, n) fractions of the tissue voxels from the full nearest-class
    map and the solver run on every voxel, read from stats."""
    n = stats.index.size
    first = stats.labels.astype(np.int64)
    second = second_class_map(labels).data.reshape(-1)[stats.index].astype(np.int64)
    alpha = pv._map_alpha_arrays(stats.values, stats.means[first - 1], stats.means[second - 1],
                                 stats.sigma, beta / (2.0 * stats.sigma * stats.sigma))
    channels = np.zeros((labels.num_classes, n), dtype=np.float32)
    channels[first - 1, np.arange(n)] = alpha
    channels[second - 1, np.arange(n)] = 1.0 - alpha
    return channels


class TestPureInterval:
    """A voxel whose intensity lies in its class's pure interval gets (1, 0)
    without a nearest-class search; the estimate keeps the bytes of the
    search and the solver run on every voxel."""

    BETAS = [-0.5, 0.0, 0.1, 10.0]

    @staticmethod
    def volume(rng, voxel, present, near_equal):
        """Labels and a noisy image of the present classes; with near_equal,
        the first two present classes' means are about 0.2 apart, so
        d^2 < 2 beta for beta 0.1 and 10."""
        shape = (12, 11, 10)
        labels = blocky_labels(rng, shape, present)
        means = {k: 20.0 * k + rng.uniform(-5, 5) for k in present}
        spread = {k: 3.0 for k in present}
        if near_equal:
            means[present[1]] = means[present[0]] + 0.2
            spread[present[0]] = spread[present[1]] = 0.01
        image = np.zeros(shape)
        for k in present:
            sel = labels == k
            image[sel] = means[k] + rng.normal(0, spread[k], sel.sum())
        return make_labels(labels, voxel=voxel), image

    @staticmethod
    def on_the_edges(rng, image, labels, beta):
        """image with a few voxels of each class moved onto the float32
        values at, just inside and just outside each edge of its pure
        interval. Each move is paired with an opposite move of another
        voxel of the class, so the class mean shifts only by rounding, and
        a few rounds bring the moved voxels onto the edges of the final
        means."""
        image = image.astype(np.float32)
        for _ in range(4):
            stats = class_stats(make_image(image.copy(), labels.header.voxel_size), labels)
            present = [k for k in range(1, 6) if (labels.data == k).any()]
            lo, hi = pv._pure_intervals(stats.means, present, beta)
            for k in present:
                voxels = np.flatnonzero(labels.data == k)
                targets = []
                for edge in (lo[k - 1], hi[k - 1]):
                    if np.isfinite(edge):
                        e = np.float32(edge)
                        targets += [e, np.nextafter(e, np.float32(np.inf)),
                                    np.nextafter(e, np.float32(-np.inf))]
                size = min(len(targets), voxels.size // 2)
                chosen, partners = rng.choice(voxels, size=(2, size), replace=False)
                moved = np.float32(targets[:size]) - image.flat[chosen]
                image.flat[partners] -= moved
                image.flat[chosen] = targets[:size]
        return make_image(image, labels.header.voxel_size)

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("voxel", [(1.0, 1.0, 1.0), (1.0, 1.25, 0.75), "random"])
    def test_matches_reference_on_random_volumes(self, beta, voxel):
        rng = np.random.default_rng([int(beta * 10) + 7, len(str(voxel))])
        if voxel == "random":
            voxel = tuple(float(np.float32(v)) for v in rng.uniform(0.5, 2.0, 3))
        cfg = PvConfig(beta=beta)
        pure_seen = searched_seen = 0
        for n_present in (2, 3, 4, 5):
            for near_equal in ((False, True) if n_present > 2 else (False,)):
                present = sorted(rng.choice(np.arange(1, 6), n_present, replace=False).tolist())
                labels, image = self.volume(rng, voxel, present, near_equal)
                image = self.on_the_edges(rng, image, labels, beta)
                _, _, channels = estimate_pv_reference(image, labels, cfg)
                tissue = pv.estimate_tissue_pv(image, labels, cfg)
                assert np.array_equal(tissue.index, np.flatnonzero(labels.data))
                assert tissue.full().channels.tobytes() == channels.tobytes()
                assert estimate_pv(image, labels, cfg).channels.tobytes() == channels.tobytes()

                stats = class_stats(image, labels)
                lo, hi = pv._pure_intervals(stats.means, present, beta)
                for k in present:
                    for edge in (lo[k - 1], hi[k - 1]):
                        if np.isfinite(edge):  # a voxel sits on it, to 2 float32 ulps
                            f = image.data[labels.data == k]
                            assert np.min(np.abs(f - edge)) <= 2 * np.spacing(np.float32(edge))
                first = stats.labels - 1
                pure = (stats.values >= lo[first]) & (stats.values <= hi[first])
                pure_seen += int(pure.sum())
                searched_seen += int((~pure).sum())
        assert pure_seen > 0 and searched_seen > 0

    @pytest.mark.parametrize("beta", BETAS)
    def test_exact_edges_through_stats(self, beta):
        # float64 intensities exactly on each edge and one ulp to either
        # side, passed as the class statistics the estimate reads
        rng = np.random.default_rng(int(beta * 10) + 40)
        labels = make_labels(blocky_labels(rng, (10, 9, 8), (1, 2, 4, 5)))
        image = make_image(np.where(labels.data > 0, labels.data * 25.0, 0.0))
        base = class_stats(image, labels)
        means = base.means + rng.uniform(-2, 2, 5)
        lo, hi = pv._pure_intervals(means, [1, 2, 4, 5], beta)
        values = means[base.labels - 1] + rng.normal(0, 3, base.index.size)
        for k in (1, 2, 4, 5):
            voxels = np.flatnonzero(base.labels == k)
            targets = [t for e in (lo[k - 1], hi[k - 1]) if np.isfinite(e)
                       for t in (e, np.nextafter(e, np.inf), np.nextafter(e, -np.inf))]
            values[voxels[:len(targets)]] = targets
        stats = pv.ClassStats(index=base.index, labels=base.labels, values=values,
                              means=means, sigma=2.5)
        got = pv.estimate_tissue_pv(image, labels, PvConfig(beta=beta), stats)
        assert got.channels.tobytes() == full_path_channels(labels, stats, beta).tobytes()

    def test_solver_gives_one_inside_and_less_just_outside(self):
        # inside the interval every second class gives alpha = 1; just
        # outside an edge, by more than its margin, the class that sets it
        # gives less, so the interval is no narrower than it needs to be
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(400):
            present = sorted(rng.choice(np.arange(1, 6), rng.integers(2, 6), replace=False))
            scale = 10.0 ** rng.uniform(-1, 3)
            means = np.zeros(5)
            means[np.array(present) - 1] = rng.normal(0, scale, len(present))
            if len(present) > 2 and rng.uniform() < 0.3:
                means[present[1] - 1] = means[present[0] - 1] + scale * 1e-3
            beta = float(rng.choice([-0.5, 0.0, 0.1, 10.0, scale * scale]))
            sigma = scale * 10.0 ** rng.uniform(-2, 0)
            beta_abs = beta / (2.0 * sigma * sigma)
            lo, hi = pv._pure_intervals(means, present, beta)
            for a in present:
                l, h = lo[a - 1], hi[a - 1]
                for edge, outward in ((l, -1.0), (h, 1.0)):
                    if not np.isfinite(edge) or l > h:
                        continue
                    inside = np.array([edge, np.nextafter(edge, edge - outward), (l + h) / 2
                                       if np.isfinite(l + h) else edge - outward * scale])
                    inside = inside[(inside >= l) & (inside <= h)]
                    outside = edge + outward * 1e-3 * (abs(edge) + scale)
                    worst = 1.0
                    for b in present:
                        if b != a:
                            alpha = pv._map_alpha_arrays(inside, means[a - 1], means[b - 1],
                                                         sigma, beta_abs)
                            assert np.all(alpha == 1.0)
                            worst = min(worst, float(pv._map_alpha_arrays(
                                outside, means[a - 1], means[b - 1], sigma, beta_abs)))
                    assert worst < 1.0, (means, present, a, beta, sigma, edge, outward)
                    checked += 1
        assert checked > 500

    def test_shared_mean_keeps_the_full_path(self):
        # classes 1 and 3 share a mean but never pair: the estimate runs the
        # full search and solver; once they touch, today's error names them
        labels = np.zeros((6, 6, 6), dtype=np.uint8)
        labels[:2] = 1
        labels[2:4] = 2
        labels[4:] = 3
        image = np.where(labels == 2, 80.0, 40.0)
        image[labels == 0] = 0.0
        vol, img = make_labels(labels.copy()), make_image(image)
        _, _, channels = estimate_pv_reference(img, vol, PvConfig())
        assert estimate_pv(img, vol, PvConfig()).channels.tobytes() == channels.tobytes()

        labels[2, :3] = 3
        vol = make_labels(labels)
        img = make_image(np.where(labels == 2, 80.0, np.where(labels > 0, 40.0, 0.0)))
        second = second_class_map(vol).data
        pairs = sorted({(int(a), int(b)) for a, b in zip(labels[labels > 0], second[labels > 0])
                        if {a, b} == {1, 3}})
        assert pairs == [(1, 3), (3, 1)]
        with pytest.raises(DegeneratePairError) as err:
            estimate_pv(img, vol, PvConfig())
        assert str(err.value) == f"classes with identical means: {pairs}"
