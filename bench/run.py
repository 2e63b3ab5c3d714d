"""The camelion benchmark: one command, three workloads, every metric with its unit.

    python3 bench/run.py --workload loop_linear --seed 12345 --seconds 30 --trace 0
    python3 bench/run.py --smoke

BENCHMARK.json names loop_linear and operator_cli; loop_regressor takes the
same arguments and prints the same metrics.

Run from the root of a checkout: the package is imported from ``src/`` and
scratch files go to ``.bench_work/`` (removed at the end, apart from the
spans of traced runs and the labels digests later runs compare against).
With ``--trace 0`` the result line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. ``--smoke`` runs every
workload on a tiny cohort, traced and untraced, and checks that each metric
named in BENCHMARK.json is emitted with its unit. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

CLOCK_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("loop_linear", "loop_regressor", "operator_cli")
THREAD_VARS = (
    "CAMELION_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# End-to-end metrics, emitted by every workload (see README.md for what
# each means on each workload). Failures are reported as ok_frac, the
# complement of failed_frac, because a metric that is 0 on correct code
# cannot carry a relative bound.
END_TO_END = [
    ("setup_s", "s"),
    ("subject_s.p50", "s"),
    ("subject_s.tail", "s"),
    ("subjects_per_s", "1/s"),
    ("dice_mean", "ratio"),
    ("workflow_s", "s"),
    ("cli_run_s.p50", "s"),
    ("cli_run_s.tail", "s"),
    ("output_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]


def pin_threads() -> int:
    """Cap the package's and the BLAS/OpenMP worker threads at nproc, before
    numpy is imported; commands started later inherit the setting."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it. Below 20 samples no percentile at or above the median has ten
    samples beyond it, and the tail is the maximum (percentile 100)."""
    s = sorted(samples)
    n = len(s)
    if n >= 20:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unavailable (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unresolved {ref}"


def environment(nproc: int, seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "nproc": nproc,
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def end_to_end(outcome, workload: str) -> tuple[dict, list[str]]:
    """End-to-end metrics and the lines that explain them."""
    ops = outcome.ops
    if workload == "operator_cli":
        subject = [op.seconds for op in ops if op.kind == "run" and op.method == "camelion"]
        requests = [op.seconds for op in ops if op.kind == "run"]
    else:
        subject = requests = [op.seconds for op in ops]
    # each subject once, so the figure does not depend on how many
    # repetitions fitted in the run
    dice_by_subject = {}
    for op in ops:
        if op.method == "camelion" and op.dice is not None:
            dice_by_subject.setdefault(op.subject, op.dice)
    dices = list(dice_by_subject.values())
    failed = sum(op.failed for op in ops)
    sub_tail, sub_pct = tail(subject)
    req_tail, req_pct = tail(requests)
    values = {
        "setup_s": statistics.median(outcome.setup_s),
        "subject_s.p50": statistics.median(subject),
        "subject_s.tail": sub_tail,
        "subjects_per_s": outcome.subjects_per_s,
        "dice_mean": statistics.fmean(dices) if dices else 0.0,
        "workflow_s": statistics.median(outcome.workflow_s),
        "cli_run_s.p50": statistics.median(requests),
        "cli_run_s.tail": req_tail,
        "output_mb": statistics.median(outcome.output_bytes) / 1e6 if outcome.output_bytes else 0.0,
        "peak_rss_mb": outcome.peak_rss_mb,
        "ok_frac": 1.0 - failed / len(ops),
    }
    notes = [
        f"setup_s: median of {len(outcome.setup_s)} set-ups "
        + ", ".join(f"{s:.3f}" for s in outcome.setup_s),
        f"subject_s: n={len(subject)}, tail is p{sub_pct:.0f}"
        + (" (the maximum: fewer than 20 samples)" if len(subject) < 20 else ""),
        f"cli_run_s: n={len(requests)}, tail is p{req_pct:.0f}"
        + (" (the maximum: fewer than 20 samples)" if len(requests) < 20 else ""),
        f"workflow_s: n={len(outcome.workflow_s)}"
        + ("" if workload == "operator_cli" else
           " (one pass, each subject at the median of its repetitions)"),
        f"failed_frac: {failed / len(ops):g} ({failed} failed of {len(ops)} attempted)",
        "times: " + ", ".join(f"{op.name} {op.seconds:.3f}" for op in ops),
    ]
    for op in ops:
        if op.failed:
            notes.append(f"FAILED {op.name}: {op.error or '; '.join(op.problems)}")
    return values, notes


def code_fingerprint() -> str:
    """Hash of the package and benchmark sources: runs share labels digests
    only with runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(workload: str, scale, seed: int, seconds: float, trace: bool):
    import workloads

    base = ROOT / ".bench_work"
    scale_tag = hashlib.sha256(repr(scale).encode()).hexdigest()[:8]
    run = workloads.Run(
        scale=scale, seed=seed, seconds=seconds, trace=trace,
        work=base / f"{workload}-seed{seed}-pid{os.getpid()}",
        traces=base / "traces",
        memory=base / "digests" / f"{code_fingerprint()}-{scale_tag}-{workload}-seed{seed}.json",
        clock_start=CLOCK_START,
    )
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        if workload == "operator_cli":
            return workloads.operator_workload(run)
        return workloads.loop_workload(run, workload.removeprefix("loop_"))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def result_line(workload, outcome, trace: bool) -> tuple[dict, list[str]]:
    values, notes = end_to_end(outcome, workload)
    if trace:
        metrics = outcome.per_layer
        v = {name: m["value"] for name, m in metrics.items()}
        run_s = v["pipeline.run.s"]
        if run_s > 0:
            pv_share = (v["pv.estimate_pv.s"] + v["pipeline.precompute_atlas_pv.self_s"]) / run_s
            synth_share = (v["synth.fit.s"] + v["synth.synthesize.s"]) / run_s
            notes.append(f"share of pipeline.run.s: pv + precompute self {pv_share:.1%}, "
                         f"synth {synth_share:.1%}, pipeline self {v['pipeline.run.self_s'] / run_s:.1%}")
        notes.append(f"trace.subjects_per_s {v['trace.subjects_per_s']:.6g} 1/s: compare with "
                     "subjects_per_s of an untraced run of the same seed for the tracing overhead")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    failed = sum(op.failed for op in outcome.ops)
    result = {
        "correct": failed == 0,
        "attempted": len(outcome.ops),
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


def smoke(seed: int) -> int:
    """Every workload on a tiny cohort, untraced and traced; check that each
    metric named in BENCHMARK.json is emitted with its unit."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            outcome = run_workload(workload, workloads.SMOKE_SCALE, seed, 0.0, bool(trace))
            result, notes = result_line(workload, outcome, bool(trace))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            bad = [f"{n} missing" for n in expected[trace] if n not in got]
            bad += [f"{n} unit {got[n]!r}, expected {u!r}"
                    for n, u in expected[trace].items() if n in got and got[n] != u]
            bad += [f"{n} not in BENCHMARK.json" for n in got if n not in expected[trace]]
            status = "ok" if not bad else "; ".join(bad)
            # the Dice floors and eval's correlations need the default cohort;
            # at this size they are reported, not checked
            print(f"smoke {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} below the "
                  f"default-cohort checks: {status}")
            problems += bad
    print("smoke passed" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-cohort check of every metric")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "camelion" / "__init__.py").is_file():
        print(f"error: no camelion package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    import camelion

    if Path(camelion.__file__).resolve().parent != SRC / "camelion":
        print(f"error: imported camelion from {camelion.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)

    import workloads

    trace = bool(args.trace)
    outcome = run_workload(args.workload, workloads.DEFAULT_SCALE, args.seed, args.seconds, trace)
    result, notes = result_line(args.workload, outcome, trace)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(f"  {note}")
    print("env " + json.dumps(environment(nproc, args.seed), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
