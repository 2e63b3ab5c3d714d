import numpy as np
import pytest

from camelion import pipeline
from camelion.util import LatestMemo
from camelion.volumes import LabelVolume, PartialVolumeSet, ScalarVolume, VolumeHeader


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def fresh_atlas_memo(monkeypatch):
    """An empty atlas-set memo for the test, as a new process finds it, so
    that no atlas work an earlier test left in the memo hides a call. The
    fixture's value empties the memo again when called."""
    def fresh():
        monkeypatch.setattr(pipeline, "_ATLAS_SET", LatestMemo())

    fresh()
    return fresh


def random_scalar(rng, dims=(4, 4, 4), voxel=(1.0, 1.0, 1.0), scale=100.0):
    data = rng.standard_normal(dims).astype(np.float32) * scale
    return ScalarVolume(VolumeHeader(dims, voxel), data)


def random_labels(rng, dims=(4, 4, 4), num_classes=5, voxel=(1.0, 1.0, 1.0)):
    data = rng.integers(0, num_classes + 1, size=dims).astype(np.uint8)
    return LabelVolume(VolumeHeader(dims, voxel), data, num_classes=num_classes)


def random_pv(rng, dims=(4, 4, 4), num_classes=5, voxel=(1.0, 1.0, 1.0)):
    """A valid two-class partial volume set (some voxels background)."""
    n = dims[0] * dims[1] * dims[2]
    first = rng.integers(1, num_classes + 1, size=n)
    second = rng.integers(1, num_classes + 1, size=n)
    second = np.where(second == first, second % num_classes + 1, second)
    alpha = rng.uniform(0, 1, size=n).astype(np.float32)
    channels = np.zeros((num_classes, n), dtype=np.float32)
    idx = np.arange(n)
    channels[first - 1, idx] = alpha
    channels[second - 1, idx] = 1.0 - alpha
    background = rng.uniform(size=n) < 0.25
    channels[:, background] = 0.0
    return PartialVolumeSet(VolumeHeader(dims, voxel), channels.reshape((num_classes,) + dims))
