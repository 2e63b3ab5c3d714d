import functools
import hashlib
import sys
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from camelion import metrics, pipeline, segmenter, tissues
from camelion.errors import (ArgumentError, CamelionError, EstimationError, PipelineError,
                             TrainingError)
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
from camelion.pv import PvConfig, class_stats, estimate_pv, estimate_tissue_pv
from camelion.segmenter import SegmenterConfig
from camelion.synth import SynthConfig
from camelion.util import derived_seed
from camelion.volumes import (
    AtlasPair,
    LabelVolume,
    ScalarVolume,
    VolumeHeader,
    encode_mvf,
    validate_partial_volumes,
)
from oracles import adaptation_loop_reference, spread_gap_sigma_reference

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
        pv = pv.dense().full()
        validate_partial_volumes(pv)
        mask = labels > 0
        assert np.all(pv.channels.max(axis=0)[mask] == 1.0)

    def test_argmax_consistency_with_labels(self, small_cohort):
        atlases, _, _ = small_cohort
        pvs = precompute_atlas_pv(atlases, PvConfig())
        for pair, pv in zip(atlases, pvs):
            pv = pv.dense().full()
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
    def pv_calls(self, monkeypatch, fresh_atlas_memo):
        calls = []

        def counting(image, labels, *args):
            calls.append(labels)
            return estimate_tissue_pv(image, labels, *args)

        monkeypatch.setattr(pipeline, "estimate_pv", counting)
        return calls

    @staticmethod
    def copies(atlases):
        return [
            AtlasPair(ScalarVolume(a.image.header, a.image.data.copy()),
                      LabelVolume(a.labels.header, a.labels.data.copy(), a.labels.num_classes))
            for a in atlases
        ]

    def test_equal_copies_are_another_set(self, small_cohort, pv_calls):
        # a set is found again by the identity of its arrays, not by content
        atlases, _, _ = small_cohort
        first = precompute_atlas_pv(atlases, PvConfig())
        again = precompute_atlas_pv(self.copies(atlases), PvConfig())
        assert len(pv_calls) == 2 * len(atlases)
        assert [encode_mvf(pv.dense().full()) for pv in again] == \
            [encode_mvf(pv.dense().full()) for pv in first]

    def test_changed_voxel_recomputes_whole_set(self, small_cohort, pv_calls):
        atlases, _, _ = small_cohort
        first = precompute_atlas_pv(atlases, PvConfig())
        edited = atlases[1].image.data.copy()
        edited[12, 12, 12] += 1.0
        changed = [atlases[0], AtlasPair(ScalarVolume(atlases[1].image.header, edited),
                                         atlases[1].labels)]
        out = precompute_atlas_pv(changed, PvConfig())
        assert len(pv_calls) == 2 * len(atlases)
        assert encode_mvf(out[0].dense().full()) == encode_mvf(first[0].dense().full())
        fresh = estimate_pv(changed[1].image, changed[1].labels, PvConfig())
        assert encode_mvf(out[1].dense().full()) == encode_mvf(fresh)

    def test_config_change_recomputes(self, small_cohort, pv_calls):
        atlases, _, _ = small_cohort
        precompute_atlas_pv(atlases, PvConfig())
        out = precompute_atlas_pv(atlases, PvConfig(beta=0.3))
        assert len(pv_calls) == 2 * len(atlases)
        for pair, pv in zip(atlases, out):
            fresh = estimate_pv(pair.image, pair.labels, PvConfig(beta=0.3))
            assert encode_mvf(pv.dense().full()) == encode_mvf(fresh)

    def test_only_latest_set_kept(self, small_cohort, pv_calls):
        atlases, _, _ = small_cohort
        precompute_atlas_pv(atlases, PvConfig())
        precompute_atlas_pv(atlases[:1], PvConfig(beta=0.3))
        precompute_atlas_pv(atlases[:1], PvConfig(beta=0.3))
        assert len(pv_calls) == len(atlases) + 1
        precompute_atlas_pv(atlases, PvConfig())
        assert len(pv_calls) == 2 * len(atlases) + 1

    def test_views_of_fresh_arrays_are_copied_and_frozen(self, small_cohort, pv_calls):
        # a volume built on a reshape view of a writeable array holds a
        # frozen copy, so the set is found again on the second run
        atlases, input_image, _ = small_cohort
        dims = atlases[0].image.header.dims
        views = [
            AtlasPair(ScalarVolume(a.image.header, a.image.data.copy().reshape(-1).reshape(dims)),
                      LabelVolume(a.labels.header, a.labels.data.copy().reshape(-1).reshape(dims),
                                  a.labels.num_classes))
            for a in atlases
        ]
        cfg = LoopConfig(max_iterations=1)
        for _ in range(2):
            run(input_image, views, cfg)
        assert sum(any(labels is a.labels for a in views) for labels in pv_calls) == len(views)

    def test_one_class_order_per_atlas(self, small_cohort, fresh_atlas_memo, monkeypatch):
        # the atlas side and the partial volumes share each atlas's order
        atlases, input_image, _ = small_cohort
        calls = []

        def counting(labels):
            calls.append(labels)
            return segmenter.class_order(labels)

        monkeypatch.setattr(pipeline, "class_order", counting)
        # a second PvConfig, then a second SegmenterConfig, on the same set
        one = LoopConfig(max_iterations=1)
        for cfg in (one, replace(one, pv=PvConfig(beta=0.3))):
            run(input_image, atlases, cfg)
        run_direct(input_image, atlases, replace(one, segmenter=SegmenterConfig(smoothing_weight=0.0)))
        assert [id(labels) for labels in calls] == [id(a.labels) for a in atlases]
        entry = pipeline._atlas_set(atlases)
        assert all(pv.index is order for pv, order in zip(entry.pvs, entry.side.order))

    def test_worker_count_does_not_change_pvs(self, small_cohort, pv_calls, monkeypatch):
        # one, two and four workers on the same set's entry: the compute runs
        # each time, with the same bytes and the set's own class orders
        atlases, _, _ = small_cohort
        outputs = []
        for workers in (1, 2, 4):
            monkeypatch.setattr(pipeline, "worker_count", lambda: workers)
            pipeline._atlas_set(atlases).pvs = None
            outputs.append(precompute_atlas_pv(atlases, PvConfig()))
        assert len(pv_calls) == 3 * len(atlases)
        orders = [order for order, _ in pipeline._atlas_set(atlases).orders]
        for pvs in outputs:
            assert all(pv.index is order for pv, order in zip(pvs, orders))
            assert [pv.dense().channels.tobytes() for pv in pvs] == [
                pv.dense().channels.tobytes() for pv in outputs[0]]

    def test_fractions_reduce_the_kept_channels(self, small_cohort, fresh_atlas_memo):
        # the per-class sums and Gram matrices, byte for byte, of the kept
        # C-contiguous partial volumes in class order, which equal the
        # estimate's columns at each order voxel
        atlases, _, _ = small_cohort
        pvs = [pv.dense() for pv in precompute_atlas_pv(atlases, PvConfig())]
        entry = pipeline._atlas_set(atlases)
        for pair, pv, (_, bounds), sums, grams in zip(
                atlases, pvs, entry.orders, entry.fractions.sums, entry.fractions.grams):
            estimate = estimate_pv(pair.image, pair.labels, PvConfig())
            assert pv.channels.tobytes() == estimate.channels.reshape(
                pv.num_classes, -1)[:, pv.index].tobytes()
            for k in range(bounds.size - 1):
                p = np.ascontiguousarray(pv.channels[:, bounds[k]:bounds[k + 1]], np.float64)
                assert sums[k].tobytes() == p.sum(axis=1).tobytes()
                assert grams[k].tobytes() == np.einsum("in,jn->ij", p, p).tobytes()

    @pytest.mark.parametrize("failing", [(1,), (1, 2)], ids=["one", "later-fails-first"])
    def test_failure_names_first_failing_atlas(self, small_cohort, monkeypatch,
                                                fresh_atlas_memo, failing):
        atlases, _, _ = small_cohort
        three = self.copies([*atlases, atlases[0]])

        def failing_estimate(image, labels, cfg):
            index = next(i for i, a in enumerate(three) if labels is a.labels)
            if index in failing:
                # the first failing atlas in atlas order fails last
                time.sleep(0.2 if index == failing[0] and len(failing) > 1 else 0.0)
                raise EstimationError(f"atlas {index} failed")
            return estimate_tissue_pv(image, labels, cfg)

        monkeypatch.setattr(pipeline, "estimate_pv", failing_estimate)
        with pytest.raises(PipelineError, match=f"atlas {failing[0]} failed") as err:
            precompute_atlas_pv(three, PvConfig())
        assert err.value.stage == "precompute_atlas_pv"
        assert pipeline._atlas_set(three).pvs is None


class TestTwoClassForm:
    """The atlas-set entry keeps each atlas's partial volumes as one other
    class and two float32 fractions a voxel, which expand to the bytes of
    the estimate in class order."""

    @staticmethod
    def scene(name):
        """The atlases and PvConfig of one scene: two noisy atlases as they
        are, on an anisotropic grid, or with a negative beta. The noise puts
        a few voxels at alpha = 0."""
        atlases = [AtlasPair(*make_subject(i, DEFAULT_PROTOCOL_B, seed=10 + i)[:2])
                   for i in range(2)]
        if name == "anisotropic":
            header = VolumeHeader(atlases[0].image.header.dims, (1.0, 1.5, 0.75))
            atlases = [AtlasPair(ScalarVolume(header, a.image.data),
                                 LabelVolume(header, a.labels.data, a.labels.num_classes))
                       for a in atlases]
        return atlases, PvConfig(beta=-0.05 if name == "negative-beta" else 0.1)

    @pytest.mark.parametrize("name", ["cohort", "anisotropic", "negative-beta"])
    def test_expands_to_the_estimate(self, fresh_atlas_memo, name):
        atlases, cfg = self.scene(name)
        pvs = precompute_atlas_pv(atlases, cfg)
        entry = pipeline._atlas_set(atlases)
        seen = set()
        for i, (pair, pv, (order, _)) in enumerate(zip(atlases, pvs, entry.orders)):
            estimate = estimate_tissue_pv(pair.image, pair.labels, cfg)
            classes = pair.labels.data.reshape(-1)[estimate.index]
            channels = np.take(estimate.channels, np.argsort(classes, kind="stable"), axis=1)
            dense = pv.dense()
            assert dense.index is order
            assert dense.channels.tobytes() == channels.tobytes()
            for k in range(pv.num_classes):
                want = channels[:, pv.bounds[k]:pv.bounds[k + 1]]
                assert pv.dense_slice(k).tobytes() == np.ascontiguousarray(want).tobytes()
                p = np.ascontiguousarray(want, np.float64)
                assert entry.fractions.sums[i][k].tobytes() == p.sum(axis=1).tobytes()
                assert entry.fractions.grams[i][k].tobytes() == \
                    np.einsum("in,jn->ij", p, p).tobytes()
                # the voxels of class k + 1 mix it with at most one other class
                others = np.delete(want, k, axis=0) != 0
                assert (others.sum(axis=0) <= 1).all()
                seen |= {f"alpha={a}" for a in (0, 1) if (want[k] == a).any()}
                seen |= {f"own {k + 1}"} if want.size else set()
                seen |= {f"other {j + 1}" for j in range(pv.num_classes)
                         if j != k and want[j].any()}
        assert {"alpha=0", "alpha=1", "own 1", "other 1"} <= seen

    def test_entry_keeps_at_most_9_bytes_a_voxel(self, small_cohort, fresh_atlas_memo):
        # the per-voxel arrays of each atlas, beside the class_order that the
        # AtlasSide shares: 20 bytes for five dense float32 channels
        atlases, _, _ = small_cohort
        precompute_atlas_pv(atlases, PvConfig())
        entry = pipeline._atlas_set(atlases)
        for pv, (order, bounds) in zip(entry.pvs, entry.orders):
            kept = [v for v in vars(pv).values()
                    if isinstance(v, np.ndarray) and v is not order and v is not bounds]
            assert sum(v.nbytes for v in kept) <= 9 * order.size


class TestWarmRun:
    """One subject run in-process cold, warm, after a run with another seed
    and after a run on another atlas set: the same bytes every time, with
    the atlas-set work done once and the kept noise moments dropped in
    time."""

    CFG = LoopConfig(max_iterations=3, change_threshold=0.0001, atlas_images=True)

    @staticmethod
    def outputs(result):
        volumes = [result.final_labels, *result.labels_history,
                   *(img for imgs in result.atlas_images_history for img in imgs)]
        records = [(r.change_fraction, r.input_sigma, r.noise_sigma, r.synth.train_mse,
                    r.synth.class_intensities.tobytes()) for r in result.records]
        return [encode_mvf(v) for v in volumes], repr(records), result.converged

    @staticmethod
    def kept_noise(atlases):
        """The loop seed and the iterations of the noise moments kept for
        atlases, the set the memo holds."""
        entry = pipeline._atlas_set(atlases)
        return entry.noise_seed, sorted(entry.noise)

    def test_every_situation_gives_the_cold_bytes(self, small_cohort, fresh_atlas_memo,
                                                   monkeypatch):
        atlases, input_image, _ = small_cohort
        seed = self.CFG.seed
        cold = run(input_image, atlases, self.CFG)
        assert all(r.noise_sigma > 0 for r in cold.records)
        # the first run keeps the noise moments of every iteration it ran
        ran = list(range(cold.iterations_run))
        assert self.kept_noise(atlases) == (seed, ran)
        first = pipeline._atlas_set(atlases).noise[0]

        warm = run(input_image, atlases, self.CFG)
        assert self.outputs(warm) == self.outputs(cold)
        assert self.kept_noise(atlases) == (seed, ran)
        assert pipeline._atlas_set(atlases).noise[0] is first

        run(input_image, atlases, replace(self.CFG, seed=seed + 1))
        assert self.kept_noise(atlases)[0] == seed + 1
        after_seed = run(input_image, atlases, self.CFG)
        assert self.outputs(after_seed) == self.outputs(cold)
        assert self.kept_noise(atlases) == (seed, ran)

        # the kept moments of the old set are gone before the new set's
        # partial volumes are computed
        kept = weakref.ref(pipeline._atlas_set(atlases).noise[0][1])
        alive_at_compute = []

        def checking(image, labels, cfg, stats=None):
            if any(labels is a.labels for a in atlases):
                alive_at_compute.append(kept() is not None)
            return estimate_tissue_pv(image, labels, cfg, stats)

        monkeypatch.setattr(pipeline, "estimate_pv", checking)
        other = run(input_image, atlases[::-1], self.CFG)
        assert alive_at_compute == [False] * len(atlases)
        assert self.kept_noise(atlases[::-1]) == (seed, list(range(other.iterations_run)))
        after_set = run(input_image, atlases, self.CFG)
        assert self.outputs(after_set) == self.outputs(cold)
        assert self.kept_noise(atlases) == (seed, ran)

    def test_new_pv_config_drops_the_kept_moments(self, small_cohort, fresh_atlas_memo):
        # the moments of the draws against the fractions are those of one PvConfig
        atlases, input_image, _ = small_cohort
        run(input_image, atlases, self.CFG)
        precompute_atlas_pv(atlases, PvConfig(beta=0.3))
        assert self.kept_noise(atlases) == (None, [])

    def test_direct_and_nhm_give_the_cold_bytes(self, small_cohort, fresh_atlas_memo):
        atlases, input_image, _ = small_cohort
        for arm in ("direct", "nhm"):
            fresh_atlas_memo()
            cold = ARMS[arm](input_image, atlases, self.CFG)
            warm = ARMS[arm](input_image, atlases, self.CFG)
            assert encode_mvf(warm) == encode_mvf(cold)


ARMS = {
    "camelion": lambda image, atlases, cfg: run(image, atlases, cfg),
    "direct": lambda image, atlases, cfg: run_direct(image, atlases, cfg),
    "nhm": lambda image, atlases, cfg: run_nhm(image, atlases, 0, cfg),
}


class TestAtlasSideLookup:
    @pytest.fixture
    def counts(self, monkeypatch, fresh_atlas_memo):
        counts = {"lookups": 0, "builds": 0}
        first_model = pipeline._first_model

        def counting_lookup(atlases, cfg):
            counts["lookups"] += 1
            return first_model(atlases, cfg)

        def counting_build(*args):
            counts["builds"] += 1
            return segmenter.atlas_side(*args)

        monkeypatch.setattr(pipeline, "_first_model", counting_lookup)
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


class TestAtlasSetSlots:
    """The slots of the atlas-set entry: each filled once, none left half
    filled by a failing stage, and none filled twice by racing threads."""

    CFG = LoopConfig(max_iterations=2, change_threshold=0.0001)

    @pytest.fixture
    def calls(self, small_cohort, monkeypatch):
        """The train, fit_moments, atlas_side and atlas estimate_pv calls:
        the first model trains and the loop's retrains fit from moments.
        atlas_side sleeps, so that a racing thread arrives while it runs."""
        atlases, _, _ = small_cohort
        calls = {"train": 0, "fit_moments": 0, "atlas_side": 0, "estimate_pv": 0}

        def counting(name, fn, *args, **kwargs):
            if name != "estimate_pv" or any(args[1] is a.labels for a in atlases):
                calls[name] += 1
            if name == "atlas_side":
                time.sleep(0.05)
            return fn(*args, **kwargs)

        for name in calls:
            monkeypatch.setattr(pipeline, name,
                                functools.partial(counting, name, getattr(pipeline, name)))
        return calls

    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_held_set_does_no_atlas_work(self, small_cohort, fresh_atlas_memo, calls, arm):
        atlases, input_image, _ = small_cohort
        run(input_image, atlases, self.CFG)
        for name in calls:
            calls[name] = 0
        out = ARMS[arm](input_image, atlases, self.CFG)
        # the loop fits only for its retrains
        retrains = out.iterations_run if arm == "camelion" else 0
        assert calls == {"train": 0, "fit_moments": retrains, "atlas_side": 0, "estimate_pv": 0}

    @pytest.mark.parametrize("name,stage", [("train", "train"),
                                            ("estimate_pv", "precompute_atlas_pv")])
    def test_failed_stage_leaves_its_slot_empty(self, small_cohort, fresh_atlas_memo,
                                                monkeypatch, name, stage):
        atlases, input_image, _ = small_cohort
        cold = TestWarmRun.outputs(run(input_image, atlases, self.CFG))
        fresh_atlas_memo()
        real = getattr(pipeline, name)

        def failing(*args):
            # the atlas side is built and the first atlas estimated before it
            if name == "train" or args[1] is atlases[-1].labels:
                raise CamelionError(f"{name} failed")
            return real(*args)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, name, failing)
            with pytest.raises(PipelineError, match=f"{name} failed") as err:
                run(input_image, atlases, self.CFG)
        assert err.value.stage == stage
        entry = pipeline._atlas_set(atlases)
        if name == "train":
            assert (entry.segmenter, entry.side, entry.model) == (None, None, None)
            assert entry.pvs is not None
        else:
            assert entry.pvs is None
        assert TestWarmRun.outputs(run(input_image, atlases, self.CFG)) == cold

    def test_threads_share_one_set(self, small_cohort, fresh_atlas_memo, calls):
        atlases, input_image, _ = small_cohort
        loop = run(input_image, atlases, self.CFG)
        serial = {"run": TestWarmRun.outputs(loop),
                  "direct": encode_mvf(run_direct(input_image, atlases, self.CFG))}
        fresh_atlas_memo()
        for name in calls:
            calls[name] = 0
        arms = {"run": lambda: TestWarmRun.outputs(run(input_image, atlases, self.CFG)),
                "direct": lambda: encode_mvf(run_direct(input_image, atlases, self.CFG))}
        start = threading.Barrier(len(arms))
        got, errors = {}, []

        def go(name):
            try:
                start.wait()
                got[name] = arms[name]()
            except Exception as exc:
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=go, args=(name,)) for name in arms]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        assert got == serial
        # one first model, shared, and the loop's retrains
        assert calls == {"train": 1, "fit_moments": loop.iterations_run, "atlas_side": 1,
                         "estimate_pv": len(atlases)}


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
        cfg = LoopConfig(max_iterations=1, change_threshold=0.0001, atlas_images=True)
        result = run(input_image, atlases, cfg)
        assert result.iterations_run == 1
        assert len(result.atlas_images_history) == 1
        assert not result.converged

    def test_deterministic(self, small_cohort, fresh_atlas_memo):
        # the first run fills the atlas-set memo, the second reuses it
        atlases, input_image, _ = small_cohort
        cfg = LoopConfig(max_iterations=2, atlas_images=True)
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
        monkeypatch.setattr(pipeline, "_with_noise", lambda values, sigma, normals: values)
        cfg = LoopConfig(max_iterations=1, atlas_images=True)
        result = run(input_image, atlases, cfg)
        c = result.records[0].synth.class_intensities
        pvs = precompute_atlas_pv(atlases, cfg.pv)
        for pv, synth_img in zip(pvs, result.atlas_images_history[0]):
            expected = np.tensordot(c, pv.dense().full().channels.astype(np.float64), axes=(0, 0))
            assert np.allclose(synth_img.data, expected, atol=1e-3)

    @pytest.mark.parametrize("backend", ["linear", "regressor"])
    def test_atlas_images_are_zero_off_tissue(self, small_cohort, backend):
        atlases, input_image, _ = small_cohort
        cfg = LoopConfig(max_iterations=2, change_threshold=0.0001,
                         synth=SynthConfig(backend=backend, epochs=1), atlas_images=True)
        result = run(input_image, atlases, cfg)
        assert result.atlas_images_history
        for images in result.atlas_images_history:
            for pair, image in zip(atlases, images):
                background = pair.labels.data == 0
                assert np.all(image.data[background] == 0.0)
                # noise was added on the tissue, so no tissue voxel is left at 0
                assert np.all(image.data[~background] != 0.0)

    def test_atlas_images_only_on_request(self, small_cohort, monkeypatch):
        atlases, input_image, _ = small_cohort
        cfg = LoopConfig(max_iterations=3, change_threshold=0.0001)
        assert not cfg.atlas_images
        kept = run(input_image, atlases, replace(cfg, atlas_images=True))
        assert len(kept.atlas_images_history) == kept.iterations_run

        def no_grid(values, pv):
            raise AssertionError("atlas images put on the grid without a request")

        def no_dense(pv):
            raise AssertionError("atlas partial volumes expanded without a request")

        monkeypatch.setattr(pipeline, "_on_grid", no_grid)
        monkeypatch.setattr(pipeline.AtlasPartialVolumes, "dense", no_dense)
        result = run(input_image, atlases, cfg)
        assert result.atlas_images_history == []
        # the images are kept or not; the loop itself is the same
        assert ([encode_mvf(v) for v in result.labels_history]
                == [encode_mvf(v) for v in kept.labels_history])
        assert result.converged == kept.converged
        for got, want in zip(result.records, kept.records, strict=True):
            assert (got.change_fraction, got.input_sigma, got.noise_sigma, got.synth.train_mse) \
                == (want.change_fraction, want.input_sigma, want.noise_sigma, want.synth.train_mse)
            assert got.synth.class_intensities.tobytes() == want.synth.class_intensities.tobytes()

    def test_records_carry_both_sigmas(self, small_cohort):
        atlases, input_image, _ = small_cohort
        cfg = LoopConfig(max_iterations=2, change_threshold=0.0001)
        result = run(input_image, atlases, cfg)
        for record, labels in zip(result.records, result.labels_history):
            assert record.input_sigma == class_stats(input_image, labels).sigma
            assert 0.0 < record.noise_sigma < record.input_sigma

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
            # each iteration that keeps its atlas images synthesizes every
            # atlas once
            calls.append(pv)
            if len(calls) == len(atlases) + 1:
                raise CamelionError("synthesis failed")
            return real(model, pv)

        monkeypatch.setattr(pipeline, "synthesize", synthesize_failing_in_iteration_1)
        # iteration 0 changes more than this, so the loop reaches iteration 1
        cfg = LoopConfig(max_iterations=3, change_threshold=0.0001, atlas_images=True)
        with pytest.raises(PipelineError) as err:
            run(input_image, atlases, cfg)
        assert err.value.stage == "synthesize[1]"
        assert len(err.value.partial.records) == 1
        assert len(err.value.partial.labels_history) == 2

    @pytest.mark.parametrize("atlas_images", [False, True])
    def test_partial_result_keeps_atlas_images_only_on_request(self, small_cohort, monkeypatch,
                                                               fresh_atlas_memo, atlas_images):
        atlases, input_image, _ = small_cohort
        real = pipeline.fit_moments
        calls = []

        def fit_failing_in_iteration_1(moments, side, cfg):
            # one retrain per iteration
            calls.append(moments)
            if len(calls) == 2:
                raise CamelionError("training failed")
            return real(moments, side, cfg)

        monkeypatch.setattr(pipeline, "fit_moments", fit_failing_in_iteration_1)
        cfg = LoopConfig(max_iterations=3, change_threshold=0.0001, atlas_images=atlas_images)
        with pytest.raises(PipelineError) as err:
            run(input_image, atlases, cfg)
        assert err.value.stage == "retrain[1]"
        partial = err.value.partial
        assert len(partial.records) == 1
        assert len(partial.atlas_images_history) == (1 if atlas_images else 0)

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
    """The spread gap from the atlases' class moments matches a full-grid
    scan of the synthetic images, and the atlas images' noise is drawn on
    the tissue vector before the values are added."""

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

    @staticmethod
    def spread_gap(input_image, current, synthetic, atlases):
        """The loop's spread gap, from the class moments of the synthetic
        images' tissue vectors and the input's class statistics."""
        side = segmenter.atlas_side([a.labels for a in atlases], SegmenterConfig())
        moments = segmenter.class_moments(side.tissue_values(synthetic), side)
        return pipeline._spread_gap_sigma(class_stats(input_image, current).sigma, moments, side)

    @pytest.mark.parametrize("voxel", [(1.0, 1.0, 1.0), (1.0, 2.0, 0.5)])
    def test_spread_gap_matches_full_scan(self, voxel):
        # sums and squares stand in for the residuals about each class
        # mean, so the last bits differ from the scan's
        input_image, current, synthetic, atlases = self.scene(voxel)
        got = self.spread_gap(input_image, current, synthetic, atlases)
        assert got > 0
        expected = spread_gap_sigma_reference(input_image, current, synthetic, atlases)
        assert got == pytest.approx(expected, rel=1e-9, abs=0)

    def test_spread_gap_zero_when_synthetic_spread_is_wider(self):
        input_image, current, synthetic, atlases = self.scene()
        got = self.spread_gap(synthetic[0], atlases[0].labels, [input_image] * 3, atlases)
        assert got == 0.0
        assert got == spread_gap_sigma_reference(synthetic[0], atlases[0].labels,
                                                 [input_image] * 3, atlases)

    @pytest.mark.parametrize("seed", range(5))
    def test_noise_matches_image_plus_draw(self, seed):
        # the values are the tissue vector of one atlas, as the loop renders
        # it for its atlas images, and prefixes of it; a fresh draw must give
        # the bytes of values plus Philox's normal(0.0, sigma) on the loop's
        # stream
        input_image, _, _, atlases = self.scene()
        side = segmenter.atlas_side([a.labels for a in atlases], SegmenterConfig())
        tissue = side.tissue_values([input_image] * 3)[1]
        for values, sigma in [(tissue, 3.5), (tissue[:257], 0.01), (tissue[:1], 120.0)]:
            stream = derived_seed(seed, 2, 211, 1)
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(stream)))
            expected = values.astype(np.float64) + rng.normal(0.0, sigma, size=values.size)
            got = pipeline._with_noise(
                values, sigma, functools.partial(pipeline._normals, seed, 2, 1, values.size))
            assert got.dtype == np.float32
            assert got.tobytes() == expected.astype(np.float32).tobytes()

    def test_no_noise_returns_the_values(self):
        values = np.arange(5, dtype=np.float32)

        def no_draw():
            raise AssertionError("drew normals for sigma <= 0")

        for sigma in (0.0, -1.0):
            assert pipeline._with_noise(values, sigma, no_draw) is values


class TestClosedFormMoments:
    """The retrain's class moments under linear synthesis, from the set's
    fraction sums and Gram matrices and the draws' moments, against a
    float64 render and noise of every atlas tissue voxel."""

    INTENSITIES = np.array([31.5, 12.25, 70.0, 104.75, 88.0])

    @staticmethod
    def set_of(atlases):
        """The tissue partial volumes, fractions and side of atlases."""
        pvs = precompute_atlas_pv(atlases, PvConfig())
        side = segmenter.atlas_side([a.labels for a in atlases], SegmenterConfig())
        return pvs, pipeline._atlas_set(atlases).fractions, side

    @staticmethod
    def per_voxel(atlases, pvs, c, sigma, seed, t):
        """Per atlas and class, the float64 sum and sum of squares of the
        rendered and noised values, each class selected from the atlas's
        labels; and the least and the greatest value."""
        k_max = c.size
        sums = np.zeros((len(atlases), k_max))
        squares = np.zeros((len(atlases), k_max))
        lo, hi = np.inf, -np.inf
        for i, (pair, pv) in enumerate(zip(atlases, pvs)):
            pv = pv.dense()
            p = pv.channels.astype(np.float64)
            values = np.zeros(pv.index.size)
            for k in range(k_max):
                values += c[k] * p[k]
            stream = np.random.SeedSequence(derived_seed(seed, t, 211, i))
            values += sigma * np.random.Generator(np.random.Philox(stream)) \
                .standard_normal(values.size)
            classes = pair.labels.data.reshape(-1)[pv.index]
            for k in range(k_max):
                vals = values[classes == k + 1]
                sums[i, k] = np.sum(vals)
                squares[i, k] = np.sum(vals * vals)
            lo, hi = min(lo, values.min()), max(hi, values.max())
        return sums, squares, lo, hi

    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 2.5, 400.0])
    def test_match_per_voxel_reduction(self, fresh_atlas_memo, sigma):
        _, _, _, atlases = TestSpreadGapAndNoise.scene()
        pvs, fractions, side = self.set_of(atlases)
        c = self.INTENSITIES
        got = pipeline._linear_moments(fractions, c, side)
        if sigma > 0:
            noise, cross = pipeline._reduce_noise(7, 2, [pv.dense_slice for pv in pvs], side)
            got = pipeline._plus_noise(got, noise, cross, c, sigma)
        sums, squares, lo, hi = self.per_voxel(atlases, pvs, c, sigma, 7, 2)
        # atlas 1 has no voxel of class 4
        assert sums[1, 3] == squares[1, 3] == got.sums[1, 3] == got.squares[1, 3] == 0.0
        np.testing.assert_allclose(got.sums, sums, rtol=1e-9, atol=0)
        np.testing.assert_allclose(got.squares, squares, rtol=1e-9, atol=0)
        # the bounds hold every value, up to the float32 fractions' sum
        slack = 1e-6 * np.abs(c).max()
        assert got.lo <= lo + slack and got.hi >= hi - slack
        if sigma == 0:
            assert (got.lo, got.hi) == (c.min(), c.max())

    def test_class_absent_from_every_atlas(self, fresh_atlas_memo):
        _, _, _, atlases = TestSpreadGapAndNoise.scene()
        without = [AtlasPair(a.image, LabelVolume(a.labels.header,
                                                  np.where(a.labels.data == 4, 1, a.labels.data),
                                                  num_classes=5)) for a in atlases]
        pvs, fractions, side = self.set_of(without)
        moments = pipeline._linear_moments(fractions, self.INTENSITIES, side)
        noise, cross = pipeline._reduce_noise(0, 0, [pv.dense_slice for pv in pvs], side)
        moments = pipeline._plus_noise(moments, noise, cross, self.INTENSITIES, 3.0)
        assert not moments.sums[:, 3].any()
        with pytest.raises(TrainingError, match="absent from all atlases"):
            segmenter.fit_moments(moments, side, SegmenterConfig())

    def test_noise_moments_do_not_depend_on_worker_count(self, small_cohort, fresh_atlas_memo,
                                                         monkeypatch):
        atlases, _, _ = small_cohort
        pvs, _, side = self.set_of(atlases)
        got = []
        for workers in (1, 2, 4):
            monkeypatch.setattr(pipeline, "worker_count", lambda: workers)
            noise, cross = pipeline._reduce_noise(5, 1, [pv.dense_slice for pv in pvs], side)
            got.append((noise.sums.tobytes(), noise.squares.tobytes(), cross.tobytes(),
                        noise.lo, noise.hi))
        assert got[1] == got[0] and got[2] == got[0]


class TestReferenceLoop:
    """Every iteration's labels equal those of the per-voxel loop in
    oracles.py: render, spread gap, noise and retrain on every atlas
    tissue voxel."""

    @pytest.mark.parametrize("means", [NOISELESS_A.class_means, (25.0, 15.0, 100.0, 60.0, 80.0)],
                             ids=["default", "gm-wm-swapped"])
    def test_labels_of_every_iteration(self, small_cohort, means):
        atlases, input_image, _ = small_cohort
        if means != NOISELESS_A.class_means:
            input_image = make_subject(5, ProtocolParams(means), seed=50)[0]
        cfg = LoopConfig(max_iterations=4, change_threshold=0.0001)
        result = run(input_image, atlases, cfg)
        assert all(r.noise_sigma > 0 for r in result.records)
        expected = adaptation_loop_reference(input_image, atlases, cfg)
        assert [v.data.tobytes() for v in result.labels_history] == \
            [v.data.tobytes() for v in expected]


class TestArtifacts:
    def test_save_loop_artifacts(self, small_cohort, tmp_path):
        atlases, input_image, truth = small_cohort
        result = run(input_image, atlases,
                     LoopConfig(max_iterations=2, change_threshold=0.001, atlas_images=True))
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
            "dice_white_matter,dice_brainstem,input_sigma,noise_sigma,synth_train_mse,intensity_csf,"
            "intensity_ventricles,intensity_gray_matter,intensity_white_matter,"
            "intensity_brainstem"
        )

    def test_default_result_writes_no_atlas_images(self, small_cohort, tmp_path):
        atlases, input_image, truth = small_cohort
        cfg = LoopConfig(max_iterations=2, change_threshold=0.001)
        for name, atlas_images in (("default", False), ("kept", True)):
            result = run(input_image, atlases, replace(cfg, atlas_images=atlas_images))
            save_loop_artifacts(result, tmp_path / name, truth_labels=truth)
        default, kept = (sorted(p.name for p in (tmp_path / name).iterdir())
                         for name in ("default", "kept"))
        assert default == [name for name in kept if not name.startswith("atlas")]
        assert "atlas0_1.mvf" in kept
        for name in default:
            assert (tmp_path / "default" / name).read_bytes() == \
                (tmp_path / "kept" / name).read_bytes(), name

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
