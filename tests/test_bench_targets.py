"""The traced benchmark run rebinds package attributes named in
bench/tracing.py and reads some call arguments by position; pin that
contract so a refactor cannot silently break ``bench/run.py --trace 1``."""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from camelion import pv
from camelion.volumes import LabelVolume, ScalarVolume, VolumeHeader

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize("module_name,attr", sorted({(m, a) for m, a, *_ in TARGETS}))
def test_target_exists_and_is_callable(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("module_name,attr,index,name", [
    ("camelion.pipeline", "estimate_pv", 1, "labels"),
    ("camelion.pipeline", "precompute_atlas_pv", 0, "atlases"),
    ("camelion.pv", "second_class_map", 0, "labels"),
    ("camelion.pipeline", "synthesize", 1, "pv"),
])
def test_counter_argument_position(module_name, attr, index, name):
    fn = getattr(importlib.import_module(module_name), attr)
    params = list(inspect.signature(fn).parameters)
    assert params[index] == name


def test_estimate_pv_reaches_second_class_map_through_module_global(monkeypatch):
    calls = []
    real = pv.second_class_map

    def counting(labels, need=None):
        calls.append(labels)
        return real(labels, need)

    monkeypatch.setattr(pv, "second_class_map", counting)
    data = np.ones((4, 4, 4), dtype=np.uint8)
    data[2:] = 2
    header = VolumeHeader(data.shape)
    pv.estimate_pv(ScalarVolume(header, data.astype(np.float32) * 10),
                   LabelVolume(header, data, num_classes=2), pv.PvConfig())
    assert len(calls) == 1
