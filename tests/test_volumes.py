import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camelion import pipeline
from camelion.errors import ArgumentError, FormatError, PersistenceError, ValidationError
from camelion.volumes import (
    HEADER_SIZE,
    AtlasPair,
    LabelVolume,
    PartialVolumeSet,
    ScalarVolume,
    TissuePartialVolumes,
    VolumeHeader,
    decode_mvf,
    encode_mvf,
    read_mvf,
    require_same_header,
    validate_partial_volumes,
    write_mvf,
)
from camelion.util import frozen
from conftest import random_labels, random_pv, random_scalar


class TestHeader:
    def test_rejects_zero_dim(self):
        with pytest.raises(ArgumentError):
            VolumeHeader((0, 4, 4))

    def test_rejects_nonpositive_voxel(self):
        with pytest.raises(ArgumentError):
            VolumeHeader((4, 4, 4), (1.0, 0.0, 1.0))

    def test_voxel_volume(self):
        h = VolumeHeader((2, 2, 2), (2.0, 2.0, 2.0))
        assert h.voxel_volume_mm3 == 8.0

    def test_equality_after_float32_quantization(self):
        a = VolumeHeader((4, 4, 4), (1.1, 1.0, 1.0))
        b = VolumeHeader((4, 4, 4), (float(np.float32(1.1)), 1.0, 1.0))
        assert a == b


class TestConstruction:
    def test_scalar_rejects_nan(self):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(ArgumentError):
            ScalarVolume(VolumeHeader((2, 2, 2)), data)

    def test_label_rejects_value_above_num_classes(self):
        data = np.full((2, 2, 2), 6, dtype=np.uint8)
        with pytest.raises(ArgumentError):
            LabelVolume(VolumeHeader((2, 2, 2)), data, num_classes=5)

    def test_pv_rejects_out_of_range(self):
        ch = np.full((2, 2, 2, 2), 1.5, dtype=np.float32)
        with pytest.raises(ArgumentError):
            PartialVolumeSet(VolumeHeader((2, 2, 2)), ch)

    @pytest.mark.parametrize("bad,message", [
        (np.nan, "partial volumes contain non-finite values"),
        (np.inf, "partial volumes contain non-finite values"),
        (-0.25, r"partial volumes must lie in \[0, 1\]"),
        (1.5, r"partial volumes must lie in \[0, 1\]"),
    ])
    def test_tissue_pv_checks_fractions_as_the_grid_set_does(self, bad, message):
        # the tissue form is the only check of the loop's input fractions
        header = VolumeHeader((2, 2, 2))
        ch = np.zeros((2, 3), dtype=np.float32)
        ch[0] = 1.0
        ch[1, 2] = bad
        with pytest.raises(ArgumentError, match=message):
            TissuePartialVolumes(header, np.array([0, 3, 5]), ch)
        grid = np.zeros((2, 8), dtype=np.float32)
        grid[:, [0, 3, 5]] = ch
        with pytest.raises(ArgumentError, match=message):
            PartialVolumeSet(header, grid.reshape(2, 2, 2, 2))

    def test_tissue_pv_of_a_grid_set(self, rng):
        pv = random_pv(rng)
        tissue = TissuePartialVolumes.of(pv)
        mask = pv.channels.any(axis=0).reshape(-1)
        assert np.array_equal(tissue.index, np.flatnonzero(mask))
        assert encode_mvf(tissue.full()) == encode_mvf(pv)

    def test_data_is_frozen(self, rng):
        vol = random_scalar(rng)
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1.0

    def test_atlas_pair_header_mismatch(self, rng):
        img = random_scalar(rng, dims=(4, 4, 4))
        lab = random_labels(rng, dims=(4, 4, 5))
        with pytest.raises(ArgumentError):
            AtlasPair(img, lab)

    def test_require_same_header(self, rng):
        a = random_scalar(rng, voxel=(1.0, 1.0, 1.0))
        b = random_scalar(rng, voxel=(1.0, 1.0, 2.0))
        with pytest.raises(ArgumentError):
            require_same_header(a, b)


class TestRoundTrip:
    def test_scalar_bit_exact(self, rng, tmp_path):
        vol = random_scalar(rng)
        path = tmp_path / "v.mvf"
        write_mvf(vol, path)
        back = read_mvf(path)
        assert isinstance(back, ScalarVolume)
        assert back.header == vol.header
        assert back.data.tobytes() == vol.data.tobytes()

    def test_label_bit_exact(self, rng, tmp_path):
        vol = random_labels(rng)
        path = tmp_path / "v.mvf"
        write_mvf(vol, path)
        back = read_mvf(path)
        assert back.num_classes == vol.num_classes
        assert back.data.tobytes() == vol.data.tobytes()

    def test_pv_bit_exact(self, rng, tmp_path):
        vol = random_pv(rng)
        path = tmp_path / "v.mvf"
        write_mvf(vol, path)
        back = read_mvf(path)
        assert back.channels.tobytes() == vol.channels.tobytes()

    def test_read_arrays_view_the_file_bytes(self, rng, tmp_path, fresh_atlas_memo):
        # read-only views of the bytes read, not copies, which the atlas-set
        # memo finds again
        for name, vol in (("image", random_scalar(rng)), ("labels", random_labels(rng)),
                          ("pv", random_pv(rng))):
            write_mvf(vol, tmp_path / f"{name}.mvf")
        image, labels, pvs = (read_mvf(tmp_path / f"{name}.mvf") for name in ("image", "labels", "pv"))
        for arr in (image.data, labels.data, pvs.channels):
            assert not arr.flags.writeable
            assert not arr.flags.owndata
            assert frozen(arr)
        atlases = [AtlasPair(image, labels)]
        assert pipeline._atlas_set(atlases) is pipeline._atlas_set(atlases)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(1, 6, size=3))
        vol = random_scalar(rng, dims=dims, voxel=(0.5, 1.0, 2.0))
        path = tmp_path_factory.mktemp("rt") / "v.mvf"
        write_mvf(vol, path)
        back = read_mvf(path)
        assert back.header == vol.header
        assert np.array_equal(back.data, vol.data)

    def test_single_voxel_golden_bytes(self, tmp_path):
        # independent hand encoding of the container layout
        vol = ScalarVolume(VolumeHeader((1, 1, 1)), np.zeros((1, 1, 1), dtype=np.float32))
        path = tmp_path / "one.mvf"
        write_mvf(vol, path)
        expected = (
            b"MVF1"
            + bytes([1, 0])
            + (1).to_bytes(4, "little") * 3
            + struct.pack("<3f", 1.0, 1.0, 1.0)
            + struct.pack("<f", 0.0)
        )
        assert path.read_bytes() == expected
        assert len(expected) == 30 + 4

    def test_pv_payload_size(self, rng, tmp_path):
        vol = random_pv(rng, dims=(2, 2, 2), num_classes=5)
        path = tmp_path / "pv.mvf"
        write_mvf(vol, path)
        assert path.stat().st_size == 30 + 5 * 8 * 4


class TestReadErrors:
    def _golden(self, tmp_path):
        vol = ScalarVolume(VolumeHeader((2, 2, 2)), np.zeros((2, 2, 2), dtype=np.float32))
        path = tmp_path / "v.mvf"
        write_mvf(vol, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._golden(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_mvf(path)

    def test_truncated_payload(self, tmp_path):
        path = self._golden(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(FormatError):
            read_mvf(path)

    def test_trailing_garbage(self, tmp_path):
        path = self._golden(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_mvf(path)

    def test_zero_dim(self, tmp_path):
        blob = (
            b"MVF1"
            + bytes([1, 0])
            + (0).to_bytes(4, "little")
            + (1).to_bytes(4, "little") * 2
            + struct.pack("<3f", 1.0, 1.0, 1.0)
        )
        path = tmp_path / "zero.mvf"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_mvf(path)

    # the payload value checks are the volume constructors'; decoding turns
    # their ArgumentError into a FormatError naming the source. The voxel
    # sizes are the header's last 12 bytes.
    @pytest.mark.parametrize(
        "volume, offset, packed",
        [
            (ScalarVolume(VolumeHeader((2, 2, 2)), np.zeros((2, 2, 2))),
             HEADER_SIZE, struct.pack("<f", np.nan)),
            (ScalarVolume(VolumeHeader((2, 2, 2)), np.zeros((2, 2, 2))),
             HEADER_SIZE + 4, struct.pack("<f", np.inf)),
            (LabelVolume(VolumeHeader((2, 2, 2)), np.zeros((2, 2, 2), np.uint8), 2),
             HEADER_SIZE + 3, bytes([3])),
            (PartialVolumeSet(VolumeHeader((2, 2, 2)), np.zeros((2, 2, 2, 2))),
             HEADER_SIZE, struct.pack("<f", 1.5)),
            (PartialVolumeSet(VolumeHeader((2, 2, 2)), np.zeros((2, 2, 2, 2))),
             HEADER_SIZE + 8, struct.pack("<f", -0.25)),
            (ScalarVolume(VolumeHeader((2, 2, 2)), np.zeros((2, 2, 2))),
             HEADER_SIZE - 12, struct.pack("<f", 0.0)),
            (ScalarVolume(VolumeHeader((2, 2, 2)), np.zeros((2, 2, 2))),
             HEADER_SIZE - 8, struct.pack("<f", -1.0)),
        ],
        ids=["nan_scalar", "inf_scalar", "label_above_k", "fraction_above_1",
             "fraction_below_0", "zero_voxel_size", "negative_voxel_size"],
    )
    def test_invalid_payload_or_geometry(self, volume, offset, packed):
        blob = bytearray(encode_mvf(volume))
        blob[offset:offset + len(packed)] = packed
        with pytest.raises(FormatError, match="^bad.mvf: "):
            decode_mvf(bytes(blob), source="bad.mvf")

    def test_zero_channel_pv(self):
        blob = b"MVF1" + bytes([3, 0]) + struct.pack("<3I3f", 1, 1, 1, 1.0, 1.0, 1.0)
        with pytest.raises(FormatError, match="at least one channel"):
            decode_mvf(blob)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            read_mvf(tmp_path / "nope.mvf")

    def test_unwritable_target(self, rng, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        with pytest.raises(PersistenceError):
            write_mvf(random_scalar(rng), blocker / "v.mvf")


class TestPvValidation:
    def test_valid_random_set(self, rng):
        validate_partial_volumes(random_pv(rng))

    def test_sum_violation(self):
        ch = np.zeros((2, 2, 2, 2), dtype=np.float32)
        ch[0, 0, 0, 0] = 0.4
        ch[1, 0, 0, 0] = 0.4
        with pytest.raises(ValidationError):
            validate_partial_volumes(PartialVolumeSet(VolumeHeader((2, 2, 2)), ch))

    def test_three_class_violation(self):
        ch = np.zeros((3, 1, 1, 1), dtype=np.float32)
        ch[:, 0, 0, 0] = [0.4, 0.3, 0.3]
        pv = PartialVolumeSet(VolumeHeader((1, 1, 1)), ch)
        with pytest.raises(ValidationError):
            validate_partial_volumes(pv)
        validate_partial_volumes(pv, require_two_class=False)

    def test_background_all_zero_is_fine(self):
        ch = np.zeros((2, 2, 2, 2), dtype=np.float32)
        validate_partial_volumes(PartialVolumeSet(VolumeHeader((2, 2, 2)), ch))


def test_volumes_submodule_is_not_shadowed():
    import camelion.volumes

    assert camelion.volumes.read_mvf is read_mvf
