import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camelion.errors import ArgumentError, CorrelationError
from camelion.metrics import (
    EvalReport,
    dice,
    label_change_fraction,
    pearson,
    volumes,
    write_correlations,
    write_report,
    write_trajectory,
)
from camelion.pipeline import IterationRecord
from camelion.synth import SynthModel
from camelion.volumes import LabelVolume, VolumeHeader
from oracles import pearson_direct


def labels_of(data, voxel=(1.0, 1.0, 1.0), k=5):
    data = np.asarray(data, dtype=np.uint8)
    return LabelVolume(VolumeHeader(data.shape, voxel), data, num_classes=k)


class TestDice:
    def test_identity(self):
        a = labels_of(np.full((3, 3, 3), 2))
        assert dice(a, a, 2) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 1, 1), dtype=np.uint8)
        b = np.zeros((4, 1, 1), dtype=np.uint8)
        a[:2] = 3
        b[2:] = 3
        assert dice(labels_of(a), labels_of(b), 3) == 0.0

    def test_hand_computed(self):
        a = np.zeros((5, 1, 1), dtype=np.uint8)
        b = np.zeros((5, 1, 1), dtype=np.uint8)
        a[0:2] = 1          # |A| = 2
        b[1:4] = 1          # |B| = 3, overlap = 1
        assert dice(labels_of(a), labels_of(b), 1) == pytest.approx(0.4)

    def test_both_empty_is_one(self):
        a = labels_of(np.zeros((2, 2, 2)))
        assert dice(a, a, 4) == 1.0

    def test_one_empty_is_zero(self):
        a = labels_of(np.zeros((2, 2, 2)))
        b = labels_of(np.full((2, 2, 2), 4))
        assert dice(a, b, 4) == 0.0

    def test_symmetry_and_relabel_invariance(self, rng):
        a = rng.integers(0, 6, size=(6, 6, 6)).astype(np.uint8)
        b = rng.integers(0, 6, size=(6, 6, 6)).astype(np.uint8)
        va, vb = labels_of(a), labels_of(b)
        assert dice(va, vb, 3) == dice(vb, va, 3)
        a2 = a.copy()
        a2[a == 1] = 5
        a2[a == 5] = 1  # swap other classes, class 3 untouched
        assert dice(labels_of(a2), vb, 3) == dice(va, vb, 3)

    def test_header_mismatch(self):
        a = labels_of(np.zeros((2, 2, 2)))
        b = LabelVolume(VolumeHeader((2, 2, 2), (2.0, 1.0, 1.0)), np.zeros((2, 2, 2), dtype=np.uint8), 5)
        with pytest.raises(ArgumentError):
            dice(a, b, 1)


class TestVolumes:
    def test_unit_voxels(self):
        data = np.zeros((5, 2, 1), dtype=np.uint8)
        data[:5, 0, 0] = 2  # 5 voxels of class 2
        vols = volumes(labels_of(data))
        assert vols[1] == pytest.approx(5.0)
        assert vols[0] == 0.0

    def test_anisotropic_voxels(self):
        data = np.zeros((3, 1, 1), dtype=np.uint8)
        data[:] = 4
        vols = volumes(labels_of(data, voxel=(2.0, 2.0, 2.0)))
        assert vols[3] == pytest.approx(24.0)


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3, 4], [4, 7, 10, 13]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_zero_variance(self):
        with pytest.raises(CorrelationError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ArgumentError):
            pearson([1, 2], [3, 4])

    def test_against_direct_formula(self, rng):
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        assert pearson(x, y) == pytest.approx(pearson_direct(x, y), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        a=st.floats(0.1, 10),
        b=st.floats(-100, 100),
    )
    def test_positive_affine_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        if np.std(x) == 0 or np.std(y) == 0:
            return
        assert pearson(a * x + b, y) == pytest.approx(pearson(x, y), abs=1e-9)


class TestChangeFraction:
    def test_identical(self):
        a = labels_of(np.ones((3, 3, 3)))
        assert label_change_fraction(a, a) == 0.0

    def test_all_different(self):
        a = labels_of(np.ones((3, 3, 3)))
        b = labels_of(np.full((3, 3, 3), 2))
        assert label_change_fraction(a, b) == 1.0

    def test_half(self):
        a = np.zeros((8, 1, 1), dtype=np.uint8)
        b = a.copy()
        b[:4] = 1
        assert label_change_fraction(labels_of(a), labels_of(b)) == 0.5

    def test_background_in_denominator(self):
        a = np.zeros((10, 1, 1), dtype=np.uint8)
        b = a.copy()
        b[0] = 1
        assert label_change_fraction(labels_of(a), labels_of(b)) == pytest.approx(0.1)

    def test_triangle_bound(self, rng):
        for _ in range(20):
            a = labels_of(rng.integers(0, 3, size=(4, 4, 4)))
            b = labels_of(rng.integers(0, 3, size=(4, 4, 4)))
            c = labels_of(rng.integers(0, 3, size=(4, 4, 4)))
            assert label_change_fraction(a, c) <= (
                label_change_fraction(a, b) + label_change_fraction(b, c) + 1e-12
            )


class TestReports:
    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report([], path)
        assert path.read_text() == "subject_id,method,class_name,dice,volume_mm3,reference_volume_mm3\n"

    def test_row_counts_and_determinism(self, tmp_path):
        rng = np.random.default_rng(0)
        reports = [
            EvalReport(
                subject_id=f"s{j}",
                method=m,
                dice_per_class=rng.uniform(size=5),
                volume_mm3=rng.uniform(100, 200, size=5),
                reference_volume_mm3=rng.uniform(100, 200, size=5),
            )
            for j in range(1)
            for m in ("direct", "nhm", "camelion")
        ]
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_report(reports, p1)
        write_report(list(reversed(reports)), p2)
        text = p1.read_text()
        assert len(text.strip().splitlines()) == 1 + 12  # 1 subject x 3 methods x 4 classes
        assert p1.read_bytes() == p2.read_bytes()
        assert "csf" not in text

    def test_trajectory_file(self, tmp_path):
        path = tmp_path / "t.csv"
        records = [
            IterationRecord(0.2, SynthModel("linear", 5, np.arange(1.0, 6.0), train_mse=4.5)),
            IterationRecord(0.04, SynthModel("regressor", 5, train_mse=2.25)),
        ]
        write_trajectory(path, records, [np.ones(5) * 0.8, np.ones(5) * 0.9])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "iteration,label_change_fraction,dice_ventricles,dice_gray_matter,"
            "dice_white_matter,dice_brainstem,synth_train_mse,intensity_csf,"
            "intensity_ventricles,intensity_gray_matter,intensity_white_matter,"
            "intensity_brainstem"
        )
        assert lines[1] == "1,0.2,0.8,0.8,0.8,0.8,4.5,1,2,3,4,5"
        assert lines[2] == "2,0.04,0.9,0.9,0.9,0.9,2.25,,,,,"

    def test_correlations_file(self, tmp_path):
        path = tmp_path / "corr.csv"
        write_correlations([("direct", "gray_matter", 0.5, 8)], path)
        assert path.read_text().splitlines()[1] == "direct,gray_matter,0.5,8"
