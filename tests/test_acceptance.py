"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances, printing one PASS line per criterion (run with -s to see them).

The quantitative experiments run on the default synthetic cohort
(10 atlas / 8 test subjects, 48^3 working grid, protocol B with the
gamma-0.7 contrast warp and bias field).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from camelion import metrics, tissues
from camelion.cli import main as cli_main
from camelion.config import DEFAULTS, loop_config, phantom_params, protocol
from camelion.phantom import (
    downsample_to_pv,
    generate_label_phantom,
    pv_to_labels,
    render,
    restrict_to_top_two,
)
from camelion.pipeline import LoopConfig, run, run_direct, run_nhm
from camelion.pv import PvConfig, _map_alpha_arrays, _objective, estimate_pv, second_class_map
from camelion.synth import fit_linear
from camelion.volumes import (
    AtlasPair,
    LabelVolume,
    PartialVolumeSet,
    ScalarVolume,
    VolumeHeader,
    read_mvf,
    validate_partial_volumes,
    write_mvf,
)
from camelion.util import derived_seed
from conftest import random_pv
from oracles import grid_search_alpha_batch, nearest_different_label

EVAL_CLASSES = tissues.DEFAULT_EVAL_CLASSES


def _passed(criterion, detail):
    print(f"[criterion {criterion}] PASS - {detail}")


def _default_subject(params, index, proto, stream):
    hr = generate_label_phantom(params, index)
    pv = restrict_to_top_two(downsample_to_pv(hr, params.supersample))
    truth = pv_to_labels(pv)
    image = render(pv, proto, derived_seed(params.seed, index, stream))
    return image, truth, pv


def _mean_dice(labels, truth):
    return float(np.mean([metrics.dice(labels, truth, k) for k in EVAL_CLASSES]))


@pytest.fixture(scope="module")
def default_experiment():
    """The cross-protocol experiment at built-in defaults (criteria 6-8)."""
    t0 = time.time()
    cfg = loop_config(dict(DEFAULTS))
    params = phantom_params(dict(DEFAULTS))
    proto_a = protocol(dict(DEFAULTS), "a")
    proto_b = protocol(dict(DEFAULTS), "b")
    n_atlas = DEFAULTS["phantom.n_atlas"]
    n_test = DEFAULTS["phantom.n_test"]

    atlases = []
    tests = []
    for i in range(n_atlas + n_test):
        image_a, truth, _ = _default_subject(params, i, proto_a, 1)
        if i < n_atlas:
            atlases.append(AtlasPair(image_a, truth))
        else:
            image_b, _, _ = _default_subject(params, i, proto_b, 2)
            tests.append((image_a, image_b, truth))

    per_subject = []
    for image_a, image_b, truth in tests:
        direct = run_direct(image_b, atlases, cfg)
        nhm = run_nhm(image_b, atlases, DEFAULTS["nhm.reference_atlas"], cfg)
        loop = run(image_b, atlases, cfg)
        # reference: the direct arm applied to the same-protocol image
        reference = run_direct(image_a, atlases, cfg)
        per_subject.append(
            {
                "direct": direct,
                "nhm": nhm,
                "loop": loop,
                "truth": truth,
                "reference_volumes": metrics.volumes(reference),
            }
        )
    return {"subjects": per_subject, "elapsed": time.time() - t0}


def test_c01_map_estimate_matches_grid_search():
    rng = np.random.default_rng(42)
    n = 10_000
    c_a = rng.uniform(0.0, 150.0, n)
    c_b = rng.uniform(0.0, 150.0, n)
    c_b = np.where(np.abs(c_a - c_b) < 1e-3, c_b + 1.0, c_b)
    f = rng.uniform(-20.0, 170.0, n)
    sigma = rng.uniform(0.5, 20.0, n)
    beta = np.where(rng.uniform(size=n) < 0.2, 0.0, rng.uniform(-2.0, 2.0, n))

    t0 = time.time()
    alpha = _map_alpha_arrays(f, c_a, c_b, sigma, beta)
    grid_alpha, grid_j = grid_search_alpha_batch(f, c_a, c_b, sigma, beta, step=1e-4)
    elapsed = time.time() - t0

    j = _objective(alpha, f, c_a, c_b, sigma, beta)
    worst_j = float(np.max(j - grid_j))
    worst_alpha = float(np.max(np.abs(alpha - grid_alpha)))
    assert worst_j <= 1e-8, f"objective exceeds grid optimum by {worst_j:g}"
    assert worst_alpha <= 2e-4, f"alpha deviates from grid by {worst_alpha:g}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed(1, f"10^4 tuples, max dJ={worst_j:.2e}, max |dalpha|={worst_alpha:.2e}, {elapsed:.1f}s")


def test_c02_forward_inverse_pv_recovery():
    params = phantom_params(dict(DEFAULTS))
    proto = protocol(dict(DEFAULTS), "a")
    # noiseless, gamma = 1 (the default protocol A is gamma 1 already)
    from dataclasses import replace

    proto = replace(proto, noise_sigma=0.0)
    hr = generate_label_phantom(params, 0)
    truth_pv = restrict_to_top_two(downsample_to_pv(hr, params.supersample))
    labels = pv_to_labels(truth_pv)
    image = render(truth_pv, proto, seed=0)

    t0 = time.time()
    estimated = estimate_pv(image, labels, PvConfig(beta=0.0))
    elapsed = time.time() - t0
    validate_partial_volumes(estimated)

    second = second_class_map(labels)
    supported = labels.data > 0
    for k in range(1, truth_pv.num_classes + 1):
        in_support = (labels.data == k) | (second.data == k)
        supported &= (truth_pv.channels[k - 1] == 0) | in_support
    err = np.abs(
        estimated.channels.astype(np.float64) - truth_pv.channels.astype(np.float64)
    ).mean(axis=0)[supported]
    mae = float(err.mean())
    assert mae < 0.05, f"mean absolute channel error {mae:.4f}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _passed(2, f"MAE {mae:.4f} over {int(supported.sum())} two-class voxels, {elapsed:.1f}s")


def test_c03_linear_synthesis_recovery(rng):
    true_c = np.array([25.0, 15.0, 60.0, 100.0, 45.0])
    pv = random_pv(rng, dims=(12, 12, 12))
    exact = np.tensordot(true_c, pv.channels.astype(np.float64), axes=(0, 0))
    model = fit_linear(pv, ScalarVolume(pv.header, exact.astype(np.float32)))
    worst = float(np.max(np.abs(model.class_intensities - true_c)))
    assert worst <= 1e-6, f"coefficient error {worst:g}"

    big = random_pv(rng, dims=(50, 50, 50))
    sigma = 4.0
    noisy = np.tensordot(true_c, big.channels.astype(np.float64), axes=(0, 0))
    noise_rng = np.random.default_rng(7)
    noisy += noise_rng.normal(0.0, sigma, noisy.shape) * big.channels.any(axis=0)
    noisy_model = fit_linear(big, ScalarVolume(big.header, noisy.astype(np.float32)))
    assert abs(noisy_model.train_mse - sigma**2) <= 0.1 * sigma**2, (
        f"train_mse {noisy_model.train_mse:.3f} vs sigma^2 {sigma**2}"
    )
    _passed(3, f"exact recovery {worst:.1e}; noisy train_mse {noisy_model.train_mse:.2f} ~ {sigma ** 2}")


def test_c04_second_class_map_matches_brute_force():
    rng = np.random.default_rng(123)
    voxels = [(1.0, 1.0, 1.0), (1.0, 1.25, 0.75)]
    t0 = time.time()
    for case in range(100):
        data = rng.integers(0, 6, size=(10, 10, 10)).astype(np.uint8)
        voxel = voxels[case % len(voxels)]
        labels = LabelVolume(VolumeHeader((10, 10, 10), voxel), data, num_classes=5)
        got = second_class_map(labels)
        expected = nearest_different_label(data, voxel)
        assert np.array_equal(got.data, expected), f"case {case} differs"
    _passed(4, f"100 seeded 10^3 cases identical to the O(N^2) scan, {time.time() - t0:.1f}s")


def test_c05_self_consistency_same_protocol():
    from dataclasses import replace

    params = phantom_params(dict(DEFAULTS))
    proto = replace(protocol(dict(DEFAULTS), "a"), noise_sigma=0.0)
    atlases = []
    for i in range(3):
        image, truth, _ = _default_subject(params, i, proto, 5)
        atlases.append(AtlasPair(image, truth))
    input_image, _, _ = _default_subject(params, 7, proto, 5)

    cfg = loop_config(dict(DEFAULTS))
    result = run(input_image, atlases, cfg)
    direct = run_direct(input_image, atlases, cfg)
    assert result.converged
    assert result.iterations_run == 1, f"ran {result.iterations_run} iterations"
    assert result.change_fractions[0] < 0.05
    per_class = {
        tissues.class_name(k): metrics.dice(result.final_labels, direct, k)
        for k in range(1, 6)
    }
    for name, value in per_class.items():
        assert value >= 0.99, f"{name} Dice vs direct = {value:.4f}"
    _passed(5, "converged at iteration 1, min per-class Dice vs direct = "
               f"{min(per_class.values()):.4f}")


def test_c06_cross_protocol_ordering(default_experiment):
    subjects = default_experiment["subjects"]
    means = {
        arm: float(np.mean([_mean_dice(s[arm] if arm != "loop" else s[arm].final_labels,
                                       s["truth"]) for s in subjects]))
        for arm in ("direct", "nhm", "loop")
    }
    assert means["loop"] > means["nhm"] > means["direct"], means
    assert means["loop"] - means["direct"] >= 0.05
    assert default_experiment["elapsed"] < 600.0
    _passed(6, f"camelion {means['loop']:.3f} > nhm {means['nhm']:.3f} > "
               f"direct {means['direct']:.3f} ({default_experiment['elapsed']:.0f}s)")


def test_c07_convergence_trajectory(default_experiment):
    subjects = default_experiment["subjects"]
    nondecreasing = 0
    for s in subjects:
        loop = s["loop"]
        assert loop.iterations_run <= 5
        trajectory = [_mean_dice(lab, s["truth"]) for lab in loop.labels_history[1:]]
        if all(b >= a - 0.01 for a, b in zip(trajectory, trajectory[1:])):
            nondecreasing += 1
    assert nondecreasing >= 1
    _passed(7, f"{nondecreasing}/{len(subjects)} subjects nondecreasing within 0.01; all stop <= 5")


def test_c08_volume_correlations(default_experiment):
    subjects = default_experiment["subjects"]
    reference = np.array([s["reference_volumes"] for s in subjects])
    report = {}
    for arm in ("direct", "loop"):
        vols = np.array(
            [metrics.volumes(s[arm] if arm != "loop" else s[arm].final_labels) for s in subjects]
        )
        report[arm] = {
            k: metrics.pearson(vols[:, k - 1], reference[:, k - 1])
            for k in (tissues.GRAY_MATTER, tissues.WHITE_MATTER, tissues.BRAINSTEM)
        }
    for k in (tissues.GRAY_MATTER, tissues.WHITE_MATTER, tissues.BRAINSTEM):
        assert report["loop"][k] >= report["direct"][k], (
            f"{tissues.class_name(k)}: camelion r {report['loop'][k]:.3f} "
            f"< direct r {report['direct'][k]:.3f}"
        )
    detail = ", ".join(
        f"{tissues.class_name(k)} {report['loop'][k]:.3f}>={report['direct'][k]:.3f}"
        for k in (tissues.GRAY_MATTER, tissues.WHITE_MATTER, tissues.BRAINSTEM)
    )
    _passed(8, detail)


def test_c09_invariant_suites(rng, tmp_path):
    # partial volume validation
    pv = random_pv(rng)
    validate_partial_volumes(pv)

    # round-trip bit exactness
    path = tmp_path / "v.mvf"
    write_mvf(pv, path)
    assert read_mvf(path).channels.tobytes() == pv.channels.tobytes()

    # dice / pearson / change-fraction properties
    a = LabelVolume(VolumeHeader((5, 5, 5)), rng.integers(0, 4, (5, 5, 5)).astype(np.uint8), 5)
    b = LabelVolume(VolumeHeader((5, 5, 5)), rng.integers(0, 4, (5, 5, 5)).astype(np.uint8), 5)
    c = LabelVolume(VolumeHeader((5, 5, 5)), rng.integers(0, 4, (5, 5, 5)).astype(np.uint8), 5)
    for k in range(1, 6):
        assert metrics.dice(a, b, k) == metrics.dice(b, a, k)
    x, y = rng.normal(size=10), rng.normal(size=10)
    assert metrics.pearson(2.0 * x + 3.0, y) == pytest.approx(metrics.pearson(x, y), abs=1e-9)
    assert metrics.label_change_fraction(a, a) == 0.0
    assert metrics.label_change_fraction(a, c) <= (
        metrics.label_change_fraction(a, b) + metrics.label_change_fraction(b, c) + 1e-12
    )

    # histogram matching identity and monotonicity
    from camelion.harmonize import LandmarkMap, apply

    img = ScalarVolume(VolumeHeader((6, 6, 6)), rng.uniform(10, 90, (6, 6, 6)).astype(np.float32))
    mask = LabelVolume(VolumeHeader((6, 6, 6)), np.ones((6, 6, 6), np.uint8), 1)
    ident = apply(LandmarkMap((10, 50, 90), (10, 50, 90)), img, mask)
    assert np.allclose(ident.data, img.data, atol=1e-6)
    warped = apply(LandmarkMap((10, 50, 90), (15, 40, 95)), img, mask)
    order = np.argsort(img.data.reshape(-1))
    assert np.all(np.diff(warped.data.reshape(-1)[order]) >= -1e-5)

    # beta-monotonicity of the MAP estimate
    from camelion.pv import map_alpha

    for f in (55.0, 75.0, 92.0):
        dist = [abs(map_alpha(f, 100.0, 40.0, 4.0, b) - 0.5) for b in (0.0, 0.5, 1.0, 2.0)]
        assert all(hi >= lo - 1e-12 for lo, hi in zip(dist, dist[1:]))
    _passed(9, "pv validation, round-trip, metric properties, NHM identity/monotonicity, beta monotonicity")


def test_c10_end_to_end_determinism(tmp_path):
    small = [
        "--set", "phantom.base_dims=16 16 16",
        "--set", "phantom.supersample=2",
        "--set", "phantom.n_atlas=2",
        "--set", "phantom.n_test=1",
    ]
    outputs = []
    for tag in ("one", "two"):
        root = tmp_path / tag
        cohort = root / "cohort"
        runs = root / "runs"
        evald = root / "eval"
        assert cli_main(["phantom", "--out", str(cohort), *small]) == 0
        for method in ("direct", "nhm", "camelion"):
            assert cli_main([
                "run", "--method", method, "--subject", "s002",
                "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *small,
            ]) == 0
        assert cli_main([
            "eval", "--manifest", str(cohort / "manifest.json"),
            "--runs", str(runs), "--out", str(evald), *small,
        ]) == 0
        outputs.append(root)

    first, second = outputs
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files, "no outputs produced"
    compared = 0
    for rel in files:
        assert (second / rel).is_file(), f"{rel} missing from second run"
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), f"{rel} differs"
        compared += 1
    _passed(10, f"{compared} files byte-identical across two executions")
