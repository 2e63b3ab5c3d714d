import hashlib
import re
import time
import zlib

import numpy as np
import pytest

from camelion import metrics, pipeline, segmenter, tissues
from camelion.errors import ArgumentError, CamelionError, EstimationError, PipelineError
from camelion.phantom import (
    DEFAULT_PROTOCOL_A,
    DEFAULT_PROTOCOL_B,
    PhantomParams,
    ProtocolParams,
    downsample_to_pv,
    generate_label_phantom,
    pv_to_labels,
    render,
    restrict_to_top_two,
)
from camelion.pipeline import (
    LoopConfig,
    precompute_atlas_pv,
    run,
    run_direct,
    run_nhm,
    save_loop_artifacts,
)
from camelion.pv import PvConfig, estimate_pv
from camelion.segmenter import SegmenterConfig
from camelion.synth import SynthConfig
from camelion.util import LatestMemo
from camelion.volumes import (
    AtlasPair,
    LabelVolume,
    ScalarVolume,
    VolumeHeader,
    encode_mvf,
    validate_partial_volumes,
)
from oracles import spread_gap_sigma_reference

NOISELESS_A = ProtocolParams((25.0, 15.0, 60.0, 100.0, 80.0))
PARAMS = PhantomParams(base_dims=(24, 24, 24), supersample=4, seed=99)


def make_subject(i, proto=NOISELESS_A, seed=0, params=PARAMS):
    hr = generate_label_phantom(params, i)
    pv = restrict_to_top_two(downsample_to_pv(hr, params.supersample))
    truth = pv_to_labels(pv)
    return render(pv, proto, seed=seed), truth, pv


@pytest.fixture(scope="module")
def small_cohort():
    atlases = []
    for i in range(2):
        image, truth, _ = make_subject(i, seed=10 + i)
        atlases.append(AtlasPair(image, truth))
    input_image, input_truth, _ = make_subject(5, seed=50)
    return atlases, input_image, input_truth


class TestPrecompute:
    def test_one_hot_at_class_means(self):
        labels = np.zeros((8, 8, 8), dtype=np.uint8)
        labels[:3] = 1
        labels[3:5] = 3
        labels[5:] = 4
        vals = {1: 25.0, 3: 60.0, 4: 100.0}
        image = np.zeros((8, 8, 8), dtype=np.float32)
        for k, v in vals.items():
            image[labels == k] = v
        header = VolumeHeader((8, 8, 8))
        pair = AtlasPair(
            ScalarVolume(header, image), LabelVolume(header, labels, num_classes=5)
        )
        [pv] = precompute_atlas_pv([pair], PvConfig(beta=0.0))
        validate_partial_volumes(pv)
        mask = labels > 0
        assert np.all(pv.channels.max(axis=0)[mask] == 1.0)

    def test_argmax_consistency_with_labels(self, small_cohort):
        atlases, _, _ = small_cohort
        pvs = precompute_atlas_pv(atlases, PvConfig())
        for pair, pv in zip(atlases, pvs):
            validate_partial_volumes(pv)
            own = np.take_along_axis(
                pv.channels,
                np.maximum(pair.labels.data.astype(np.int64) - 1, 0)[None],
                axis=0,
            )[0]
            dominant = (pair.labels.data > 0) & (own > 0.5)
            hard = pv_to_labels(pv)
            assert np.array_equal(hard.data[dominant], pair.labels.data[dominant])


class TestAtlasPvMemo:
    @pytest.fixture
    def pv_calls(self, monkeypatch):
        calls = []

        def counting(image, labels, cfg):
            calls.append(labels)
            return estimate_pv(image, labels, cfg)

        monkeypatch.setattr(pipeline, "_ATLAS_PV", LatestMemo())
        monkeypatch.setattr(pipeline, "estimate_pv", counting)
        return calls

    @staticmethod
    def copies(atlases):
        return [
            AtlasPair(ScalarVolume(a.image.header, a.image.data.copy()),
                      LabelVolume(a.labels.header, a.labels.data.copy(), a.labels.num_classes))
            for a in atlases
        ]

    def test_equal_content_hits(self, small_cohort, pv_calls):
        atlases, _, _ = small_cohort
        first = precompute_atlas_pv(atlases, PvConfig())
        again = precompute_atlas_pv(self.copies(atlases), PvConfig())
        assert len(pv_calls) == len(atlases)
        for a, b in zip(first, again):
            assert b is a

    def test_changed_voxel_recomputes_whole_set(self, small_cohort, pv_calls):
        atlases, _, _ = small_cohort
        first = precompute_atlas_pv(atlases, PvConfig())
        edited = atlases[1].image.data.copy()
        edited[12, 12, 12] += 1.0
        changed = [atlases[0], AtlasPair(ScalarVolume(atlases[1].image.header, edited),
                                         atlases[1].labels)]
        out = precompute_atlas_pv(changed, PvConfig())
        assert len(pv_calls) == 2 * len(atlases)
        assert encode_mvf(out[0]) == encode_mvf(first[0])
        fresh = estimate_pv(changed[1].image, changed[1].labels, PvConfig())
        assert encode_mvf(out[1]) == encode_mvf(fresh)

    def test_config_change_recomputes(self, small_cohort, pv_calls):
        atlases, _, _ = small_cohort
        precompute_atlas_pv(atlases, PvConfig())
        out = precompute_atlas_pv(atlases, PvConfig(beta=0.3))
        assert len(pv_calls) == 2 * len(atlases)
        for pair, pv in zip(atlases, out):
            fresh = estimate_pv(pair.image, pair.labels, PvConfig(beta=0.3))
            assert encode_mvf(pv) == encode_mvf(fresh)

    def test_only_latest_set_kept(self, small_cohort, pv_calls):
        atlases, _, _ = small_cohort
        precompute_atlas_pv(atlases, PvConfig())
        precompute_atlas_pv(atlases[:1], PvConfig(beta=0.3))
        precompute_atlas_pv(atlases[:1], PvConfig(beta=0.3))
        assert len(pv_calls) == len(atlases) + 1
        precompute_atlas_pv(atlases, PvConfig())
        assert len(pv_calls) == 2 * len(atlases) + 1


def corrupt_truncated(good, other):
    return good[:-100]


def corrupt_flipped_byte(good, other):
    bad = bytearray(good)
    bad[len(bad) // 2] ^= 0x01
    return bytes(bad)


def corrupt_other_key(good, other):
    return other


def corrupt_atlas_count(good, other):
    count = int.from_bytes(good[20:24], "little")
    return good[:20] + (count + 1).to_bytes(4, "little") + good[24:]


def corrupt_trailing_garbage(good, other):
    return good + b"\0" * 16


def reframe_first_atlas(good, edit):
    """good with the first atlas's zlib stream replaced by edit(stream)."""
    size = int.from_bytes(good[24:32], "little")
    blob = edit(good[32:32 + size])
    return good[:24] + len(blob).to_bytes(8, "little") + blob + good[32 + size:]


def corrupt_stream_without_checksum(good, other):
    return reframe_first_atlas(good, lambda blob: blob[:-4])


def corrupt_bytes_after_stream(good, other):
    return reframe_first_atlas(good, lambda blob: blob + b"\0")


def corrupt_stream_inflates_too_long(good, other):
    return reframe_first_atlas(good, lambda blob: zlib.compress(zlib.decompress(blob) + b"\0", 1))


class TestAtlasPvFile:
    @pytest.fixture
    def atlas_calls(self, small_cohort, monkeypatch):
        """The estimate_pv calls on atlas labels, from fresh memos."""
        atlases, _, _ = small_cohort
        calls = []

        def counting(image, labels, cfg):
            if any(labels is a.labels for a in atlases):
                calls.append(labels)
            return estimate_pv(image, labels, cfg)

        monkeypatch.setattr(pipeline, "_ATLAS_PV", LatestMemo())
        monkeypatch.setattr(pipeline, "_ATLAS_SIDES", LatestMemo())
        monkeypatch.setattr(pipeline, "estimate_pv", counting)
        return calls

    @staticmethod
    def volumes(result):
        return [encode_mvf(v) for v in
                [*result.labels_history,
                 *(img for imgs in result.atlas_images_history for img in imgs)]]

    @staticmethod
    def pv_file(cache_dir):
        [path] = cache_dir.glob("*.pvz")
        return path

    def test_second_run_reads_the_file(self, small_cohort, atlas_calls, monkeypatch, tmp_path):
        atlases, input_image, _ = small_cohort
        cfg = LoopConfig(max_iterations=2)
        first = run(input_image, atlases, cfg, tmp_path)
        first_pvs = precompute_atlas_pv(atlases, cfg.pv)
        assert len(atlas_calls) == len(atlases)
        assert re.fullmatch(r"[0-9a-f]{32}\.pvz", self.pv_file(tmp_path).name)
        monkeypatch.setattr(pipeline, "_ATLAS_PV", LatestMemo())
        second = run(input_image, atlases, cfg, tmp_path)
        assert len(atlas_calls) == len(atlases)
        assert self.volumes(second) == self.volumes(first)
        pvs = precompute_atlas_pv(atlases, cfg.pv)
        assert [encode_mvf(pv) for pv in pvs] == [encode_mvf(pv) for pv in first_pvs]

    @pytest.mark.parametrize("corrupt", [
        corrupt_truncated, corrupt_flipped_byte, corrupt_other_key,
        corrupt_atlas_count, corrupt_trailing_garbage,
        corrupt_stream_without_checksum, corrupt_bytes_after_stream,
        corrupt_stream_inflates_too_long,
    ])
    def test_bad_file_is_recomputed_and_overwritten(self, small_cohort, atlas_calls,
                                                    monkeypatch, tmp_path, corrupt):
        atlases, input_image, _ = small_cohort
        cfg = LoopConfig(max_iterations=1)
        first = run(input_image, atlases, cfg, tmp_path / "good")
        path = self.pv_file(tmp_path / "good")
        good = path.read_bytes()
        precompute_atlas_pv(atlases, PvConfig(beta=0.3), tmp_path / "other")
        other = self.pv_file(tmp_path / "other").read_bytes()
        path.write_bytes(corrupt(good, other))
        monkeypatch.setattr(pipeline, "_ATLAS_PV", LatestMemo())
        del atlas_calls[:]
        second = run(input_image, atlases, cfg, tmp_path / "good")
        assert len(atlas_calls) == len(atlases)
        assert path.read_bytes() == good
        assert self.volumes(second) == self.volumes(first)
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

    def test_memo_hit_still_writes_the_file(self, small_cohort, atlas_calls, tmp_path):
        atlases, _, _ = small_cohort
        pvs = precompute_atlas_pv(atlases, PvConfig())
        again = precompute_atlas_pv(atlases, PvConfig(), tmp_path)
        assert len(atlas_calls) == len(atlases)
        assert all(b is a for a, b in zip(pvs, again))
        path = self.pv_file(tmp_path)
        stored = pipeline._read_atlas_pv_file(path, bytes.fromhex(path.stem), atlases)
        assert [encode_mvf(pv) for pv in stored] == [encode_mvf(pv) for pv in pvs]

    @pytest.mark.parametrize("failing", [(1,), (1, 2)], ids=["one", "later-fails-first"])
    def test_failure_names_first_failing_atlas(self, small_cohort, monkeypatch, tmp_path,
                                                failing):
        atlases, _, _ = small_cohort
        three = TestAtlasPvMemo.copies([*atlases, atlases[0]])

        def failing_estimate(image, labels, cfg):
            index = next(i for i, a in enumerate(three) if labels is a.labels)
            if index in failing:
                # the first failing atlas in atlas order fails last
                time.sleep(0.2 if index == failing[0] and len(failing) > 1 else 0.0)
                raise EstimationError(f"atlas {index} failed")
            return estimate_pv(image, labels, cfg)

        monkeypatch.setattr(pipeline, "_ATLAS_PV", LatestMemo())
        monkeypatch.setattr(pipeline, "estimate_pv", failing_estimate)
        with pytest.raises(PipelineError, match=f"atlas {failing[0]} failed") as err:
            precompute_atlas_pv(three, PvConfig(), tmp_path)
        assert err.value.stage == "precompute_atlas_pv"
        assert not list(tmp_path.glob("*.pvz"))


ARMS = {
    "camelion": lambda image, atlases, cfg: run(image, atlases, cfg),
    "direct": lambda image, atlases, cfg: run_direct(image, atlases, cfg),
    "nhm": lambda image, atlases, cfg: run_nhm(image, atlases, 0, cfg),
}


class TestAtlasSideLookup:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"lookups": 0, "builds": 0}

        class CountingMemo(LatestMemo):
            def lookup(self, key, compute):
                counts["lookups"] += 1
                return super().lookup(key, compute)

        def counting_build(atlas_labels, cfg):
            counts["builds"] += 1
            return segmenter.atlas_side(atlas_labels, cfg)

        monkeypatch.setattr(pipeline, "_ATLAS_SIDES", CountingMemo())
        monkeypatch.setattr(pipeline, "atlas_side", counting_build)
        return counts

    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_one_lookup_per_arm_call(self, small_cohort, counts, arm):
        atlases, input_image, _ = small_cohort
        cfg = LoopConfig(max_iterations=3, change_threshold=0.0001)
        out = ARMS[arm](input_image, atlases, cfg)
        if arm == "camelion":
            assert out.iterations_run == 3
        assert counts == {"lookups": 1, "builds": 1}
        ARMS[arm](input_image, atlases, cfg)
        assert counts == {"lookups": 2, "builds": 1}

    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_class_count_disagreement_fails_in_train(self, small_cohort, arm):
        atlases, input_image, _ = small_cohort
        six = LabelVolume(atlases[1].labels.header, atlases[1].labels.data, num_classes=6)
        bad = [atlases[0], AtlasPair(atlases[1].image, six)]
        with pytest.raises(PipelineError, match="disagree on the number of classes") as err:
            ARMS[arm](input_image, bad, LoopConfig())
        assert err.value.stage == "train"


def checksum(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestRun:
    def test_self_consistency_same_protocol(self, small_cohort):
        # the acceptance suite runs the >= 0.99-per-class criterion at the
        # default 48^3 scale; at this reduced scale the smallest structures
        # are a few hundred voxels, so the bounds are looser
        atlases, input_image, _ = small_cohort
        cfg = LoopConfig()
        result = run(input_image, atlases, cfg)
        direct = run_direct(input_image, atlases, cfg)
        assert result.converged
        assert result.iterations_run == 1
        assert result.change_fractions[0] < 0.05
        per_class = [metrics.dice(result.final_labels, direct, k) for k in range(1, 6)]
        assert min(per_class) >= 0.94
        assert np.mean(per_class) >= 0.97

    def test_direct_equals_initial_iteration(self, small_cohort):
        atlases, input_image, _ = small_cohort
        cfg = LoopConfig()
        result = run(input_image, atlases, cfg)
        direct = run_direct(input_image, atlases, cfg)
        assert np.array_equal(result.labels_history[0].data, direct.data)

    def test_single_iteration_bound(self, small_cohort):
        atlases, input_image, _ = small_cohort
        cfg = LoopConfig(max_iterations=1, change_threshold=0.0001)
        result = run(input_image, atlases, cfg)
        assert result.iterations_run == 1
        assert len(result.atlas_images_history) == 1
        assert not result.converged

    def test_deterministic(self, small_cohort, monkeypatch):
        # the first run fills the atlas-side caches, the second reuses them
        atlases, input_image, _ = small_cohort
        cfg = LoopConfig(max_iterations=2)
        monkeypatch.setattr(pipeline, "_ATLAS_PV", LatestMemo())
        monkeypatch.setattr(pipeline, "_ATLAS_SIDES", LatestMemo())
        r1 = run(input_image, atlases, cfg)
        r2 = run(input_image, atlases, cfg)

        def volumes(result):
            return [encode_mvf(v) for v in
                    [result.final_labels, *result.labels_history,
                     *(img for imgs in result.atlas_images_history for img in imgs)]]

        assert volumes(r1) == volumes(r2)
        assert r1.change_fractions == r2.change_fractions

    def test_inputs_never_mutated(self, small_cohort):
        atlases, input_image, _ = small_cohort
        before_input = checksum(input_image.data)
        before_labels = [checksum(a.labels.data) for a in atlases]
        before_images = [checksum(a.image.data) for a in atlases]
        run(input_image, atlases, LoopConfig(max_iterations=2))
        assert checksum(input_image.data) == before_input
        assert [checksum(a.labels.data) for a in atlases] == before_labels
        assert [checksum(a.image.data) for a in atlases] == before_images

    def test_result_invariants(self, small_cohort):
        atlases, input_image, _ = small_cohort
        result = run(input_image, atlases, LoopConfig(max_iterations=3, change_threshold=0.001))
        assert result.iterations_run == len(result.records)
        assert result.final_labels is result.labels_history[-1]
        assert len(result.labels_history) == result.iterations_run + 1
        # each iteration keeps its own synthesis fit
        assert len({id(rec.synth) for rec in result.records}) == result.iterations_run

    def test_linear_synthesis_is_pv_reassignment(self, small_cohort, monkeypatch):
        # gamma=1 noiseless: without the injected noise, synthesized atlas
        # intensity is exactly the class-intensity blend of that atlas's
        # fixed partial volumes
        atlases, input_image, _ = small_cohort
        monkeypatch.setattr(pipeline, "_with_noise", lambda image, sigma, seed: image)
        cfg = LoopConfig(max_iterations=1)
        result = run(input_image, atlases, cfg)
        c = result.records[0].synth.class_intensities
        pvs = precompute_atlas_pv(atlases, cfg.pv)
        for pv, synth_img in zip(pvs, result.atlas_images_history[0]):
            expected = np.tensordot(c, pv.channels.astype(np.float64), axes=(0, 0))
            assert np.allclose(synth_img.data, expected, atol=1e-3)

    def test_header_mismatch_rejected(self, small_cohort):
        atlases, _, _ = small_cohort
        other = ScalarVolume(
            VolumeHeader((24, 24, 24), (2.0, 1.0, 1.0)),
            np.zeros((24, 24, 24), dtype=np.float32),
        )
        with pytest.raises(ArgumentError):
            run(other, atlases, LoopConfig())

    @pytest.mark.parametrize("arm", [
        lambda image, atlases: run(image, atlases, LoopConfig()),
        lambda image, atlases: run_direct(image, atlases, LoopConfig()),
        lambda image, atlases: run_nhm(image, atlases, 0, LoopConfig()),
    ], ids=["camelion", "direct", "nhm"])
    def test_all_zero_input_is_argument_error(self, small_cohort, arm):
        atlases, input_image, _ = small_cohort
        zero = ScalarVolume(input_image.header, np.zeros_like(input_image.data))
        with pytest.raises(ArgumentError):
            arm(zero, atlases)

    @pytest.mark.parametrize("threshold", [2.0, -0.1])
    def test_mask_threshold_out_of_range_rejected(self, threshold):
        with pytest.raises(ArgumentError):
            LoopConfig(mask_rel_threshold=threshold)

    @pytest.mark.parametrize("percentiles", [(0.0, 50.0, 99.0), (50.0, 20.0)])
    def test_bad_nhm_percentiles_rejected(self, percentiles):
        with pytest.raises(ArgumentError):
            LoopConfig(nhm_percentiles=percentiles)

    def test_failed_stage_keeps_partial_results(self, small_cohort, monkeypatch):
        atlases, input_image, _ = small_cohort
        real = pipeline.synthesize
        calls = []

        def synthesize_failing_in_iteration_1(model, pv):
            # each iteration synthesizes every atlas once
            calls.append(pv)
            if len(calls) == len(atlases) + 1:
                raise CamelionError("synthesis failed")
            return real(model, pv)

        monkeypatch.setattr(pipeline, "synthesize", synthesize_failing_in_iteration_1)
        # iteration 0 changes more than this, so the loop reaches iteration 1
        cfg = LoopConfig(max_iterations=3, change_threshold=0.0001)
        with pytest.raises(PipelineError) as err:
            run(input_image, atlases, cfg)
        assert err.value.stage == "synthesize[1]"
        assert len(err.value.partial.records) == 1
        assert len(err.value.partial.labels_history) == 2

    def test_stage_error_is_tagged(self, small_cohort):
        atlases, input_image, _ = small_cohort
        single_class = np.ones((24, 24, 24), dtype=np.uint8)
        bad = [
            AtlasPair(
                atlases[0].image,
                LabelVolume(atlases[0].labels.header, single_class, num_classes=5),
            )
        ]
        with pytest.raises(PipelineError) as err:
            run(input_image, bad, LoopConfig())
        assert err.value.stage == "precompute_atlas_pv"


@pytest.fixture(scope="module")
def arms():
    params = PhantomParams(base_dims=(32, 32, 32), supersample=4, seed=3)
    atlases = []
    for i in range(4):
        hr = generate_label_phantom(params, i)
        pv = restrict_to_top_two(downsample_to_pv(hr, 4))
        truth = pv_to_labels(pv)
        atlases.append(AtlasPair(render(pv, DEFAULT_PROTOCOL_A, seed=i), truth))
    hr = generate_label_phantom(params, 9)
    pv = restrict_to_top_two(downsample_to_pv(hr, 4))
    truth = pv_to_labels(pv)
    input_image = render(pv, DEFAULT_PROTOCOL_B, seed=90)
    cfg = LoopConfig()
    return {
        "direct": run_direct(input_image, atlases, cfg),
        "nhm": run_nhm(input_image, atlases, 0, cfg),
        "camelion": run(input_image, atlases, cfg),
        "truth": truth,
    }


class TestCrossProtocol:
    def _mean_dice(self, labels, truth):
        return np.mean(
            [metrics.dice(labels, truth, k) for k in tissues.DEFAULT_EVAL_CLASSES]
        )

    def test_direct_degrades_gm_more_than_wm(self, arms):
        truth = arms["truth"]
        gm = metrics.dice(arms["direct"], truth, tissues.GRAY_MATTER)
        wm = metrics.dice(arms["direct"], truth, tissues.WHITE_MATTER)
        assert gm < wm

    def test_adaptation_beats_direct_on_mean(self, arms):
        truth = arms["truth"]
        assert self._mean_dice(arms["camelion"].final_labels, truth) > self._mean_dice(
            arms["direct"], truth
        )

    def test_adaptation_beats_direct_on_ventricles_and_gm(self, arms):
        truth = arms["truth"]
        for k in (tissues.VENTRICLES, tissues.GRAY_MATTER):
            assert metrics.dice(arms["camelion"].final_labels, truth, k) >= metrics.dice(
                arms["direct"], truth, k
            )

    def test_nhm_improves_mean_over_direct(self, arms):
        truth = arms["truth"]
        assert self._mean_dice(arms["nhm"], truth) > self._mean_dice(arms["direct"], truth)

    def test_loop_converges_within_cap(self, arms):
        assert arms["camelion"].iterations_run <= 5


class TestRunNhm:
    def test_reference_image_input_matches_direct(self, small_cohort):
        atlases, _, _ = small_cohort
        ref_image = atlases[0].image
        cfg = LoopConfig()
        direct = run_direct(ref_image, atlases, cfg)
        matched = run_nhm(ref_image, atlases, 0, cfg)
        agree = (matched.data == direct.data).mean()
        assert agree >= 0.999

    def test_output_header(self, small_cohort):
        atlases, input_image, _ = small_cohort
        out = run_nhm(input_image, atlases, 0, LoopConfig())
        assert out.header == input_image.header

    def test_bad_reference_index(self, small_cohort):
        atlases, input_image, _ = small_cohort
        with pytest.raises(ArgumentError):
            run_nhm(input_image, atlases, 7, LoopConfig())


class TestSpreadGapAndNoise:
    """The spread gap read through the atlas side's indices, and the noise
    drawn before the image is added, give the bytes of the former code."""

    @staticmethod
    def scene(voxel=(1.0, 2.0, 0.5), seed=4):
        rng = np.random.default_rng(seed)
        dims = (20, 24, 16)
        header = VolumeHeader(dims, voxel)

        def labels(missing=None):
            data = np.zeros(dims, dtype=np.uint8)
            data[1:-1, 2:-2, 1:-1] = rng.integers(1, 6, size=(18, 20, 14))
            if missing is not None:
                data[data == missing] = 1
            return LabelVolume(header, data, num_classes=5)

        def image(lab, scale):
            base = np.where(lab.data > 0, lab.data * 25.0, 0.0)
            # heavy-tailed noise, so that a change of summation order shows
            noise = rng.normal(0, scale, dims) * rng.lognormal(0, 1.5, dims)
            return ScalarVolume(header, base + noise)

        atlas_labels = [labels(), labels(missing=4), labels()]
        atlases = [AtlasPair(image(lab, 2.0), lab) for lab in atlas_labels]
        synthetic = [image(lab, 1.0) for lab in atlas_labels]
        current = labels(missing=2)
        return image(current, 1.3), current, synthetic, atlases

    @pytest.mark.parametrize("voxel", [(1.0, 1.0, 1.0), (1.0, 2.0, 0.5)])
    def test_spread_gap_matches_full_scan(self, voxel):
        input_image, current, synthetic, atlases = self.scene(voxel)
        side = segmenter.atlas_side([a.labels for a in atlases], SegmenterConfig())
        got = pipeline._spread_gap_sigma(input_image, current, synthetic, side)
        assert got > 0
        assert got == spread_gap_sigma_reference(input_image, current, synthetic, atlases)

    def test_spread_gap_zero_when_synthetic_spread_is_wider(self):
        input_image, current, synthetic, atlases = self.scene()
        side = segmenter.atlas_side([a.labels for a in atlases], SegmenterConfig())
        got = pipeline._spread_gap_sigma(synthetic[0], atlases[0].labels, [input_image] * 3, side)
        assert got == 0.0
        assert got == spread_gap_sigma_reference(synthetic[0], atlases[0].labels,
                                                 [input_image] * 3, atlases)

    @pytest.mark.parametrize("seed", range(5))
    def test_noise_matches_image_plus_draw(self, seed):
        input_image = self.scene()[0]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        expected = input_image.data.astype(np.float64) + rng.normal(
            0.0, 3.5, size=input_image.header.dims)
        got = pipeline._with_noise(input_image, 3.5, seed)
        assert got.data.tobytes() == expected.astype(np.float32).tobytes()


class TestArtifacts:
    def test_save_loop_artifacts(self, small_cohort, tmp_path):
        atlases, input_image, truth = small_cohort
        result = run(input_image, atlases, LoopConfig(max_iterations=2, change_threshold=0.001))
        save_loop_artifacts(result, tmp_path, truth_labels=truth)
        for t in range(result.iterations_run + 1):
            assert (tmp_path / f"labels_{t}.mvf").exists()
        for t in range(1, result.iterations_run + 1):
            for i in range(len(atlases)):
                assert (tmp_path / f"atlas{i}_{t}.mvf").exists()
        assert not list(tmp_path.glob("synth_*"))
        traj = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert len(traj) == 1 + result.iterations_run
        assert traj[0] == (
            "iteration,label_change_fraction,dice_ventricles,dice_gray_matter,"
            "dice_white_matter,dice_brainstem,synth_train_mse,intensity_csf,"
            "intensity_ventricles,intensity_gray_matter,intensity_white_matter,"
            "intensity_brainstem"
        )

    def test_trajectory_holds_each_fit(self, small_cohort, tmp_path):
        atlases, input_image, truth = small_cohort
        result = run(input_image, atlases, LoopConfig(max_iterations=3, change_threshold=0.001))
        save_loop_artifacts(result, tmp_path, truth_labels=truth)
        header, *rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        header = header.split(",")
        assert ",".join(header).startswith(
            "iteration,label_change_fraction,dice_ventricles,dice_gray_matter,"
            "dice_white_matter,dice_brainstem,"
        )
        assert len(rows) == result.iterations_run
        mse_col = header.index("synth_train_mse")
        names = [f"intensity_{tissues.class_name(k)}" for k in range(1, 6)]
        assert header[mse_col + 1:] == names
        for row, record in zip(rows, result.records):
            fields = row.split(",")
            assert fields[mse_col] == f"{record.synth.train_mse:.10g}"
            got = np.array([float(v) for v in fields[mse_col + 1:]])
            np.testing.assert_allclose(got, record.synth.class_intensities, rtol=1e-9)
