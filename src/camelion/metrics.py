"""Quantitative evaluation: Dice overlap, structure volumes, volume
correlations across subjects, and loop-convergence tracking.

Report CSVs are written with deterministic row order and a fixed float
format, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tissues
from .errors import ArgumentError, CorrelationError, PersistenceError
from .volumes import LabelVolume, require_same_header


def dice(a: LabelVolume, b: LabelVolume, k: int) -> float:
    """Dice overlap 2|A&B| / (|A|+|B|) for class k.

    Defined as 1 when the class is empty in both volumes and 0 when it is
    empty in exactly one.
    """
    require_same_header(a, b)
    in_a = a.data == k
    in_b = b.data == k
    na, nb = int(in_a.sum()), int(in_b.sum())
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    return 2.0 * int((in_a & in_b).sum()) / (na + nb)


def volumes(labels: LabelVolume) -> np.ndarray:
    """Per-class volume in mm^3 (voxel count times voxel volume)."""
    counts = np.bincount(labels.data.reshape(-1), minlength=labels.num_classes + 1)
    return counts[1:].astype(np.float64) * labels.header.voxel_volume_mm3


def pearson(x, y) -> float:
    """Sample Pearson correlation of two equal-length sequences (n >= 3)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ArgumentError("inputs must be equal-length 1D sequences")
    if x.size < 3:
        raise ArgumentError(f"need at least 3 samples, got {x.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.sum(dx * dx))
    sy = np.sqrt(np.sum(dy * dy))
    if sx == 0 or sy == 0:
        raise CorrelationError("correlation undefined for zero-variance input")
    return float(np.sum(dx * dy) / (sx * sy))


def label_change_fraction(prev: LabelVolume, new: LabelVolume) -> float:
    """Fraction of all voxels (background included) whose label differs."""
    require_same_header(prev, new)
    return float(np.count_nonzero(prev.data != new.data)) / prev.header.n_voxels


@dataclass
class EvalReport:
    """One subject/method evaluation row set."""

    subject_id: str
    method: str
    dice_per_class: np.ndarray                 # (K,)
    volume_mm3: np.ndarray                     # (K,)
    reference_volume_mm3: np.ndarray | None = None


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _eval_classes(num_classes: int):
    return [k for k in range(1, num_classes + 1) if k != tissues.CSF]


def write_report(reports: list[EvalReport], path) -> None:
    """Write per-subject Dice/volume rows, ordered by subject, method, class."""
    lines = ["subject_id,method,class_name,dice,volume_mm3,reference_volume_mm3"]
    for rep in sorted(reports, key=lambda r: (r.subject_id, r.method)):
        k_max = len(rep.dice_per_class)
        for k in _eval_classes(k_max):
            ref = (
                _fmt(rep.reference_volume_mm3[k - 1])
                if rep.reference_volume_mm3 is not None
                else ""
            )
            lines.append(
                ",".join(
                    [
                        rep.subject_id,
                        rep.method,
                        tissues.class_name(k),
                        _fmt(rep.dice_per_class[k - 1]),
                        _fmt(rep.volume_mm3[k - 1]),
                        ref,
                    ]
                )
            )
    _write_text(path, "\n".join(lines) + "\n")


def write_trajectory(path, records, dice_rows=None, num_classes=tissues.NUM_CLASSES) -> None:
    """Write the per-iteration record of the adaptation loop.

    One row per iteration record, numbered from 1: its label change
    fraction, its synthesis fit's training error and the fit's per-class
    intensities, written as empty fields for a fit without them (a
    regressor). dice_rows, when given, is one per-class Dice-vs-truth
    vector per record.
    """
    classes = range(1, num_classes + 1)
    eval_classes = _eval_classes(num_classes)
    header = ["iteration", "label_change_fraction"]
    if dice_rows is not None:
        header.extend(f"dice_{tissues.class_name(k)}" for k in eval_classes)
    header.append("synth_train_mse")
    header.extend(f"intensity_{tissues.class_name(k)}" for k in classes)
    lines = [",".join(header)]
    for i, record in enumerate(records):
        row = [str(i + 1), _fmt(record.change_fraction)]
        if dice_rows is not None:
            row.extend(_fmt(dice_rows[i][k - 1]) for k in eval_classes)
        row.append(_fmt(record.synth.train_mse))
        intensities = record.synth.class_intensities
        row.extend("" if intensities is None else _fmt(intensities[k - 1]) for k in classes)
        lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")


def write_correlations(rows, path) -> None:
    """Write cross-subject volume correlation rows.

    rows are (method, class_name, r, n_subjects) tuples; output is sorted
    by method then class name. An r of None (correlation undefined) is
    written as an empty field.
    """
    lines = ["method,class_name,pearson_r,n_subjects"]
    for method, cname, r, n in sorted(rows):
        lines.append(f"{method},{cname},{'' if r is None else _fmt(r)},{n}")
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise PersistenceError(f"cannot write {path}: {exc}") from exc
