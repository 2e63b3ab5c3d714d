from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

from camelion import phantom, tissues
from camelion.errors import ArgumentError, PersistenceError
from camelion.phantom import (
    DEFAULT_PROTOCOL_A,
    DEFAULT_PROTOCOL_B,
    PhantomParams,
    ProtocolParams,
    _subject_truth,
    bias_field,
    downsample_to_pv,
    generate_cohort,
    generate_label_phantom,
    load_manifest,
    pv_to_labels,
    render,
    restrict_to_top_two,
)
from camelion.volumes import (
    LabelVolume,
    PartialVolumeSet,
    VolumeHeader,
    read_mvf,
    validate_partial_volumes,
)
from oracles import block_label_fractions, label_phantom_reference, top_two_reference

SMALL = PhantomParams(base_dims=(24, 24, 24), supersample=2, seed=7)

# (params, subject) pairs checked against the full-grid rasterizer
RASTER_CASES = {
    # the head reaches all six grid faces, so its box spans every axis
    "jitter_0.3_head_at_faces": (
        PhantomParams(base_dims=(24, 24, 24), supersample=2, seed=7, shape_jitter=0.3), 9),
    "jitter_0": (PhantomParams(base_dims=(24, 24, 24), supersample=2, seed=7, shape_jitter=0.0), 2),
    "non_cubic_ss3": (PhantomParams(base_dims=(16, 20, 24), supersample=3, seed=12345), 1),
    "default_48_ss4": (PhantomParams(seed=12345), 0),
    "min_dims_ss5_jitter_0": (
        PhantomParams(base_dims=(8, 8, 8), supersample=5, seed=3, shape_jitter=0.0), 0),
    "odd_dims_ss5_jitter_0.3": (
        PhantomParams(base_dims=(8, 9, 11), supersample=5, seed=3, shape_jitter=0.3), 4),
}

# (params, subject) pairs whose cohort truth is checked against the oracle
# chain: the raster cases, a supersample-5 cohort setting and a grid coarse
# enough for cells that mix three classes before the top-two rule
TRUTH_CASES = {
    **RASTER_CASES,
    "cohort_32_ss5": (PhantomParams(base_dims=(32, 32, 32), supersample=5, seed=12345), 0),
    "corners_10_12_10_ss4_jitter_0.3": (
        PhantomParams(base_dims=(10, 12, 10), supersample=4, seed=5, shape_jitter=0.3), 3),
}


class TestLabelPhantom:
    def test_deterministic(self):
        a = generate_label_phantom(SMALL, 3)
        b = generate_label_phantom(SMALL, 3)
        assert np.array_equal(a.data, b.data)

    def test_subjects_differ(self):
        a = generate_label_phantom(SMALL, 0)
        b = generate_label_phantom(SMALL, 1)
        assert not np.array_equal(a.data, b.data)

    def test_label_range_and_presence(self):
        vol = generate_label_phantom(SMALL, 0)
        present = set(np.unique(vol.data))
        assert present == {0, 1, 2, 3, 4, 5}

    def test_high_res_dims_and_voxel(self):
        vol = generate_label_phantom(SMALL, 0)
        assert vol.header.dims == (48, 48, 48)
        assert vol.header.voxel_size == (0.5, 0.5, 0.5)

    @pytest.mark.parametrize("subject", [0, 1, 4])
    def test_ventricle_neighborhood(self, subject):
        # exhaustive 26-neighborhood scan: ventricles touch only ventricle
        # or white matter
        vol = generate_label_phantom(SMALL, subject)
        vent = vol.data == tissues.VENTRICLES
        assert vent.any()
        shell = binary_dilation(vent, structure=np.ones((3, 3, 3), dtype=bool)) & ~vent
        neighbors = set(np.unique(vol.data[shell]))
        assert neighbors == {tissues.WHITE_MATTER}

    @pytest.mark.parametrize("case", sorted(RASTER_CASES))
    def test_matches_full_grid_reference(self, case):
        params, subject = RASTER_CASES[case]
        vol = generate_label_phantom(params, subject)
        expected = label_phantom_reference(params, subject)
        assert vol.data.dtype == expected.dtype
        assert vol.data.tobytes() == expected.tobytes()
        if case == "jitter_0.3_head_at_faces":
            faces = [vol.data.take(i, axis=a) for a in range(3) for i in (0, -1)]
            assert all(face.any() for face in faces)

    def test_jitter_bounds_respected(self):
        params = PhantomParams(base_dims=(24, 24, 24), supersample=2, seed=7, shape_jitter=0.3)
        vol = generate_label_phantom(params, 11)
        assert set(np.unique(vol.data)) == {0, 1, 2, 3, 4, 5}


class TestDownsample:
    def test_uniform_block(self):
        data = np.full((4, 4, 4), 3, dtype=np.uint8)
        hr = LabelVolume(VolumeHeader((4, 4, 4), (0.5, 0.5, 0.5)), data, num_classes=5)
        pv = downsample_to_pv(hr, 2)
        assert pv.header.dims == (2, 2, 2)
        assert pv.header.voxel_size == (1.0, 1.0, 1.0)
        assert np.all(pv.channels[2] == 1.0)
        assert np.all(pv.channels[[0, 1, 3, 4]] == 0.0)

    def test_even_split(self):
        data = np.zeros((2, 2, 2), dtype=np.uint8)
        data[0] = 1
        data[1] = 2
        hr = LabelVolume(VolumeHeader((2, 2, 2)), data, num_classes=5)
        pv = downsample_to_pv(hr, 2)
        assert pv.channels[0, 0, 0, 0] == pytest.approx(0.5)
        assert pv.channels[1, 0, 0, 0] == pytest.approx(0.5)

    def test_mostly_background_voxel_cleared(self):
        data = np.zeros((2, 2, 2), dtype=np.uint8)
        data[0, 0, 0] = 1  # 1 of 8 subvoxels is tissue
        hr = LabelVolume(VolumeHeader((2, 2, 2)), data, num_classes=5)
        pv = downsample_to_pv(hr, 2)
        assert np.all(pv.channels == 0.0)

    def test_against_counting_oracle(self, rng):
        data = rng.integers(0, 6, size=(12, 12, 12)).astype(np.uint8)
        hr = LabelVolume(VolumeHeader((12, 12, 12)), data, num_classes=5)
        pv = downsample_to_pv(hr, 3)
        expected = block_label_fractions(data, 3, 5)
        assert np.allclose(pv.channels, expected, atol=1e-6)

    @pytest.mark.parametrize(
        "case", ["jitter_0.3_head_at_faces", "jitter_0", "non_cubic_ss3"]
    )
    def test_phantom_against_counting_oracle(self, case):
        params, subject = RASTER_CASES[case]
        hr = generate_label_phantom(params, subject)
        pv = downsample_to_pv(hr, params.supersample)
        expected = block_label_fractions(hr.data, params.supersample, tissues.NUM_CLASSES)
        assert pv.header.dims == params.base_dims
        assert np.array_equal(pv.channels, expected.astype(np.float32))

    @pytest.mark.parametrize("case", sorted(TRUTH_CASES))
    def test_cohort_fractions_match_downsampled_phantom(self, case):
        # the cohort builds each subject's truth per low-res cell: pure cells
        # from their base label, only the mixed cells counted; the oracle
        # chain goes through the supersampled grid
        params, subject = TRUTH_CASES[case]
        fractions = downsample_to_pv(generate_label_phantom(params, subject), params.supersample)
        if case.startswith("corners"):
            assert (np.count_nonzero(fractions.channels, axis=0) > 2).any()
        expected = restrict_to_top_two(fractions)
        expected_labels = pv_to_labels(expected)
        pv, labels = _subject_truth(params, subject)
        assert pv.header == expected.header
        assert pv.channels.tobytes() == expected.channels.tobytes()
        assert labels.header == expected_labels.header
        assert labels.num_classes == expected_labels.num_classes
        assert labels.data.tobytes() == expected_labels.data.tobytes()

    def test_non_divisible_dims(self):
        data = np.zeros((5, 4, 4), dtype=np.uint8)
        hr = LabelVolume(VolumeHeader((5, 4, 4)), data, num_classes=5)
        with pytest.raises(ArgumentError):
            downsample_to_pv(hr, 2)

    def test_phantom_pv_valid_except_two_class(self):
        hr = generate_label_phantom(SMALL, 2)
        pv = downsample_to_pv(hr, 2)
        validate_partial_volumes(pv, require_two_class=False)
        top2 = restrict_to_top_two(pv)
        validate_partial_volumes(top2)


class TestRestrictToTopTwo:
    @pytest.mark.parametrize("nonzero", [0, 1, 2, 3, 4, 5])
    def test_against_sorting_oracle(self, rng, nonzero):
        # half the voxels mix `nonzero` classes, the rest 0 to 5; each value
        # is uniform or one of three fractions, so that ties occur
        n = 600
        counts = np.where(np.arange(n) < n // 2, nonzero, rng.integers(0, 6, size=n))
        values = np.where(rng.uniform(size=(5, n)) < 0.5,
                          rng.choice([0.125, 0.25, 0.5], size=(5, n)), rng.uniform(size=(5, n)))
        ranks = rng.uniform(size=(5, n)).argsort(axis=0).argsort(axis=0)
        channels = np.where(ranks < counts, values, 0.0).astype(np.float32)
        pv = PartialVolumeSet(VolumeHeader((6, 10, 10)), channels.reshape(5, 6, 10, 10))
        expected = top_two_reference(pv.channels)
        assert restrict_to_top_two(pv).channels.tobytes() == expected.tobytes()


class TestPvToLabels:
    def test_one_hot(self):
        ch = np.zeros((5, 1, 1, 1), dtype=np.float32)
        ch[3] = 1.0
        labels = pv_to_labels(PartialVolumeSet(VolumeHeader((1, 1, 1)), ch))
        assert labels.data[0, 0, 0] == 4

    def test_tie_goes_to_smaller_class(self):
        ch = np.zeros((5, 1, 1, 1), dtype=np.float32)
        ch[1] = 0.5
        ch[3] = 0.5
        labels = pv_to_labels(PartialVolumeSet(VolumeHeader((1, 1, 1)), ch))
        assert labels.data[0, 0, 0] == 2

    def test_background(self):
        ch = np.zeros((5, 2, 2, 2), dtype=np.float32)
        labels = pv_to_labels(PartialVolumeSet(VolumeHeader((2, 2, 2)), ch))
        assert np.all(labels.data == 0)

    def test_against_argmax_oracle(self, rng):
        from conftest import random_pv

        pv = random_pv(rng, dims=(6, 6, 6))
        labels = pv_to_labels(pv)
        ch = pv.channels
        for idx in np.ndindex(6, 6, 6):
            stack = ch[(slice(None),) + idx]
            if stack.sum() == 0:
                assert labels.data[idx] == 0
            else:
                assert labels.data[idx] == int(np.argmax(stack)) + 1


class TestRender:
    def _pure_pv(self, k, dims=(4, 4, 4)):
        ch = np.zeros((5,) + dims, dtype=np.float32)
        ch[k - 1] = 1.0
        return PartialVolumeSet(VolumeHeader(dims), ch)

    def test_pure_class_noiseless(self):
        proto = ProtocolParams((25.0, 15.0, 60.0, 100.0, 80.0))
        img = render(self._pure_pv(4), proto, seed=0)
        assert np.all(img.data == np.float32(100.0))

    def test_mixture_noiseless(self):
        ch = np.zeros((5, 1, 1, 1), dtype=np.float32)
        ch[0] = 0.5
        ch[2] = 0.5
        proto = ProtocolParams((25.0, 15.0, 60.0, 100.0, 80.0))
        img = render(PartialVolumeSet(VolumeHeader((1, 1, 1)), ch), proto, seed=0)
        assert img.data[0, 0, 0] == np.float32((25.0 + 60.0) / 2)

    def test_noise_statistics(self):
        dims = (50, 50, 50)  # 125000 voxels
        ch = np.zeros((5,) + dims, dtype=np.float32)
        ch[0] = 1.0
        pv = PartialVolumeSet(VolumeHeader(dims), ch)
        proto = ProtocolParams((25.0, 15.0, 60.0, 100.0, 80.0), noise_sigma=3.0)
        img = render(pv, proto, seed=42)
        residuals = img.data.astype(np.float64) - 25.0
        assert abs(residuals.mean()) < 0.05
        assert abs(residuals.std() - 3.0) < 0.15

    def test_seed_changes_noise(self):
        pv = self._pure_pv(1)
        proto = ProtocolParams((25.0, 15.0, 60.0, 100.0, 80.0), noise_sigma=3.0)
        a = render(pv, proto, seed=1)
        b = render(pv, proto, seed=2)
        c = render(pv, proto, seed=1)
        assert not np.array_equal(a.data, b.data)
        assert np.array_equal(a.data, c.data)

    def test_monotone_in_class_mean(self):
        hr = generate_label_phantom(SMALL, 0)
        pv = restrict_to_top_two(downsample_to_pv(hr, 2))
        lo = ProtocolParams((25.0, 15.0, 60.0, 100.0, 80.0))
        hi = ProtocolParams((25.0, 15.0, 70.0, 100.0, 80.0))
        a = render(pv, lo, seed=0)
        b = render(pv, hi, seed=0)
        assert np.all(b.data >= a.data)

    def test_gamma_compresses_bright_contrast(self):
        pv_gm = self._pure_pv(3, dims=(1, 1, 1))
        pv_wm = self._pure_pv(4, dims=(1, 1, 1))
        proto = ProtocolParams((35.0, 20.0, 75.0, 95.0, 85.0), gamma=0.7)
        gm = float(render(pv_gm, proto, seed=0).data[0, 0, 0])
        wm = float(render(pv_wm, proto, seed=0).data[0, 0, 0])
        assert wm == pytest.approx(95.0, abs=1e-4)
        assert wm - gm < 95.0 - 75.0  # GM pulled up toward WM

    def test_bias_field_range(self):
        field = bias_field((8, 8, 8), 0.1)
        assert field.min() >= 0.9 - 1e-9
        assert field.max() <= 1.1 + 1e-9
        assert np.all(bias_field((4, 4, 4), 0.0) == 1.0)

    def test_distinct_means_required(self):
        with pytest.raises(ArgumentError):
            ProtocolParams((25.0, 25.0, 60.0, 100.0, 80.0))

    @pytest.mark.parametrize("means", [(-10.0, -20.0, -30.0, -40.0, -50.0),
                                       (0.0, 15.0, 60.0, 100.0, 80.0)])
    def test_warp_needs_positive_means(self, means):
        # the warp clamps negative signal to 0 and divides by the largest mean
        with pytest.raises(ArgumentError):
            ProtocolParams(means, gamma=0.5)
        ProtocolParams(means, gamma=1.0)

    @pytest.mark.parametrize("amplitude", [1.0, 1.5, -0.1, float("nan")])
    def test_bias_field_must_stay_positive(self, amplitude):
        with pytest.raises(ArgumentError):
            ProtocolParams((25.0, 15.0, 60.0, 100.0, 80.0), bias_amplitude=amplitude)
        assert bias_field((48, 48, 48), 0.999).min() > 0


class TestCohort:
    def test_manifest_counts_and_determinism(self, tmp_path):
        params = PhantomParams(base_dims=(16, 16, 16), supersample=2, seed=3)
        m1 = generate_cohort(params, 2, 1, DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, tmp_path / "a")
        assert len(m1["subjects"]) == 3
        roles = [s["role"] for s in m1["subjects"]]
        assert roles == ["atlas", "atlas", "test"]
        for entry in m1["subjects"]:
            for key in ("image_a", "image_b", "labels"):
                assert (tmp_path / "a" / entry[key]).exists()

        generate_cohort(params, 2, 1, DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, tmp_path / "b")
        for entry in m1["subjects"]:
            for key in ("image_a", "image_b", "labels"):
                b1 = (tmp_path / "a" / entry[key]).read_bytes()
                b2 = (tmp_path / "b" / entry[key]).read_bytes()
                assert b1 == b2
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()
        assert len(list((tmp_path / "a").glob("*.mvf"))) == 3 * 3

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        params = PhantomParams(base_dims=(16, 16, 16), supersample=2, seed=3)
        monkeypatch.setattr(phantom, "worker_count", lambda: 1)
        generate_cohort(params, 2, 1, DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, tmp_path / "one")
        monkeypatch.setattr(phantom, "worker_count", lambda: 4)
        generate_cohort(params, 2, 1, DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, tmp_path / "four")
        for f in sorted((tmp_path / "one").iterdir()):
            assert f.read_bytes() == (tmp_path / "four" / f.name).read_bytes()

    def test_protocols_differ_but_truth_shared(self, tmp_path):
        params = PhantomParams(base_dims=(16, 16, 16), supersample=2, seed=3)
        manifest = generate_cohort(
            params, 1, 1, DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, tmp_path
        )
        entry = manifest["subjects"][0]
        img_a = read_mvf(tmp_path / entry["image_a"])
        img_b = read_mvf(tmp_path / entry["image_b"])
        assert not np.array_equal(img_a.data, img_b.data)
        labels = read_mvf(tmp_path / entry["labels"])
        # the truth partial volumes are not written; rebuild them from the seed
        pv = restrict_to_top_two(downsample_to_pv(generate_label_phantom(params, 0),
                                                  params.supersample))
        validate_partial_volumes(pv)
        assert np.array_equal(pv_to_labels(pv).data, labels.data)

    def test_load_manifest(self, tmp_path):
        params = PhantomParams(base_dims=(16, 16, 16), supersample=2, seed=3)
        generate_cohort(params, 1, 1, DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, tmp_path)
        manifest = load_manifest(tmp_path / "manifest.json")
        assert manifest["_dir"] == str(tmp_path)
        assert manifest["n_atlas"] == 1

    def test_rerun_with_fewer_subjects_leaves_no_stale_files(self, tmp_path):
        params = PhantomParams(base_dims=(16, 16, 16), supersample=2, seed=3)
        generate_cohort(params, 3, 2, DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, tmp_path)
        manifest = generate_cohort(params, 1, 1, DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, tmp_path)
        listed = {entry[key] for entry in manifest["subjects"]
                  for key in ("image_a", "image_b", "labels")}
        assert len(listed) == 6
        assert {f.name for f in tmp_path.iterdir()} == listed | {"manifest.json"}

    def test_rerun_keeps_unrelated_files(self, tmp_path):
        params = PhantomParams(base_dims=(16, 16, 16), supersample=2, seed=3)
        generate_cohort(params, 2, 2, DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, tmp_path)
        unrelated = ["notes.txt", "effective_config.txt", "s003_image_a.mvf.bak",
                     "s003_extra.mvf", "S003_labels.mvf", "sx03_labels.mvf", "s003_labels.mvf2"]
        for name in unrelated:
            (tmp_path / name).write_text(name)
        (tmp_path / "s009_labels.mvf").mkdir()  # not a file
        generate_cohort(params, 1, 1, DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, tmp_path)
        for name in unrelated:
            assert (tmp_path / name).read_text() == name
        assert (tmp_path / "s009_labels.mvf").is_dir()
        for sid in ("s002", "s003"):
            for kind in ("image_a", "image_b", "labels"):
                assert not (tmp_path / f"{sid}_{kind}.mvf").exists()

    def test_stale_file_that_cannot_be_removed(self, tmp_path, monkeypatch):
        params = PhantomParams(base_dims=(16, 16, 16), supersample=2, seed=3)
        generate_cohort(params, 2, 1, DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, tmp_path)

        def refuse(path, missing_ok=False):
            raise PermissionError(f"cannot remove {path}")

        monkeypatch.setattr(Path, "unlink", refuse)
        with pytest.raises(PersistenceError, match="earlier cohort"):
            generate_cohort(params, 1, 1, DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, tmp_path)
