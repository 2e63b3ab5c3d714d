"""Operator entry point.

Subcommands: phantom (generate a cohort), run (one arm on one subject),
eval (collect metrics CSVs), config (inspect defaults). Exit codes are
fixed for scripting: 0 success, 2 configuration or input error (a bad
setting, or a malformed manifest or volume file), 3 I/O error, 4 pipeline
failure (a loop that fails after its first segmentation still writes the
artifacts of the iterations it completed).

Every command is deterministic given the same config and seed, and echoes
the merged effective configuration into its output directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import metrics, tissues
from .errors import (
    ArgumentError,
    CamelionError,
    ConfigError,
    CorrelationError,
    FormatError,
    PersistenceError,
    PipelineError,
)
from .phantom import generate_cohort, load_manifest
from .pipeline import check_reference_atlas, run, run_direct, run_nhm, save_loop_artifacts
from .volumes import AtlasPair, LabelVolume, ScalarVolume, read_mvf, write_mvf

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PIPELINE = 4

METHODS = ("direct", "nhm", "camelion")


def _add_config_args(parser):
    parser.add_argument("--config", metavar="FILE", help="config file of 'key = value' lines")
    parser.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="set_pairs",
        help="override one config value (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="override the master seed")


def _merged_config(args) -> dict:
    cfg = cfgmod.load_config(args.config, args.set_pairs)
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError("seed must be non-negative")
        cfg["seed"] = args.seed
    return cfg


def _echo_config(cfg: dict, out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "effective_config.txt").write_text(cfgmod.format_config(cfg))
    except OSError as exc:
        raise PersistenceError(f"cannot write config echo in {out_dir}: {exc}") from exc


def cmd_phantom(args) -> int:
    cfg = _merged_config(args)
    out_dir = Path(args.out)
    manifest = generate_cohort(
        cfgmod.phantom_params(cfg),
        cfg["phantom.n_atlas"],
        cfg["phantom.n_test"],
        cfgmod.protocol(cfg, "a"),
        cfgmod.protocol(cfg, "b"),
        out_dir,
    )
    # written last so that a rejected config leaves no output directory
    _echo_config(cfg, out_dir)
    print(out_dir / "manifest.json")
    print(f"{len(manifest['subjects'])} subjects "
          f"({cfg['phantom.n_atlas']} atlas, {cfg['phantom.n_test']} test)")
    return EXIT_OK


def _subject_entry(manifest: dict, subject_id: str) -> dict:
    for entry in manifest["subjects"]:
        if entry["id"] == subject_id:
            return entry
    raise ConfigError(f"subject {subject_id!r} not in manifest")


def _read_volume(path: Path, kind: type):
    """Read one cohort or run volume; a file of another kind is a config error."""
    volume = read_mvf(path)
    if not isinstance(volume, kind):
        raise ConfigError(f"{path} holds a {type(volume).__name__}, expected a {kind.__name__}")
    return volume


def _load_atlases(manifest: dict) -> list[AtlasPair]:
    root = Path(manifest["_dir"])
    pairs = []
    for entry in manifest["subjects"]:
        if entry["role"] != "atlas":
            continue
        image = _read_volume(root / entry["image_a"], ScalarVolume)
        labels = _read_volume(root / entry["labels"], LabelVolume)
        pairs.append(AtlasPair(image, labels))
    if not pairs:
        raise ConfigError("manifest contains no atlas subjects")
    return pairs


# the files a run writes into its <out>/<subject>/<method> directory,
# besides effective_config.txt
_ARTIFACT_PATTERNS = ("labels_*.mvf", "atlas*_*.mvf", "trajectory.csv")


def _clear_artifacts(out_dir: Path) -> None:
    """Remove an earlier run's artifacts from out_dir (labels_final.mvf
    included), so that a rerun with fewer iterations, or one that fails,
    leaves no stale file behind; any other file is kept."""
    if not out_dir.is_dir():
        return
    try:
        for pattern in _ARTIFACT_PATTERNS:
            for path in out_dir.glob(pattern):
                path.unlink()
    except OSError as exc:
        raise PersistenceError(f"cannot clear the earlier run in {out_dir}: {exc}") from exc


def cmd_run(args) -> int:
    cfg = _merged_config(args)
    loop_cfg = cfgmod.loop_config(cfg)
    manifest = load_manifest(args.manifest)
    entry = _subject_entry(manifest, args.subject)
    root = Path(manifest["_dir"])
    atlases = _load_atlases(manifest)
    input_image = _read_volume(root / entry["image_b"], ScalarVolume)
    if args.method == "camelion":
        # only the loop's trajectory is scored against the truth labels
        truth = _read_volume(root / entry["labels"], LabelVolume)
    # checked on every arm, so that a rejected setting leaves no output behind
    check_reference_atlas(cfg["nhm.reference_atlas"], len(atlases))

    out_dir = Path(args.out) / args.subject / args.method
    _clear_artifacts(out_dir)
    _echo_config(cfg, out_dir)

    if args.method == "camelion":
        try:
            result = run(input_image, atlases, loop_cfg)
        except PipelineError as exc:
            # keep the iterations that completed; without labels_final.mvf,
            # eval skips the run
            if exc.partial is not None:
                save_loop_artifacts(exc.partial, out_dir, truth_labels=truth)
            raise
        save_loop_artifacts(result, out_dir, truth_labels=truth)
        write_mvf(result.final_labels, out_dir / "labels_final.mvf")
        status = "converged" if result.converged else "hit the iteration cap"
        print(f"{args.subject}: {result.iterations_run} iterations ({status})")
    elif args.method == "direct":
        labels = run_direct(input_image, atlases, loop_cfg)
        write_mvf(labels, out_dir / "labels_final.mvf")
        print(f"{args.subject}: direct segmentation written")
    else:
        labels = run_nhm(input_image, atlases, cfg["nhm.reference_atlas"], loop_cfg)
        write_mvf(labels, out_dir / "labels_final.mvf")
        print(f"{args.subject}: histogram-matched segmentation written")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _merged_config(args)
    loop_cfg = cfgmod.loop_config(cfg)
    manifest = load_manifest(args.manifest)
    root = Path(manifest["_dir"])
    runs_dir = Path(args.runs)
    out_dir = Path(args.out)
    completed = []
    for entry in manifest["subjects"]:
        if entry["role"] != "test":
            continue
        done = [m for m in METHODS if (runs_dir / entry["id"] / m / "labels_final.mvf").exists()]
        if done:
            completed.append((entry, done))
    if not completed:
        raise ConfigError(f"no completed runs found under {runs_dir}")
    atlases = _load_atlases(manifest)

    reports = []
    for entry, done in completed:
        sid = entry["id"]
        truth = _read_volume(root / entry["labels"], LabelVolume)
        image_a = _read_volume(root / entry["image_a"], ScalarVolume)
        # reference: the direct arm applied to the same-protocol image
        ref_vols = metrics.volumes(run_direct(image_a, atlases, loop_cfg))
        for method in done:
            labels = _read_volume(runs_dir / sid / method / "labels_final.mvf", LabelVolume)
            dice_vec = np.array(
                [metrics.dice(labels, truth, k) for k in range(1, truth.num_classes + 1)]
            )
            reports.append(
                metrics.EvalReport(
                    subject_id=sid,
                    method=method,
                    dice_per_class=dice_vec,
                    volume_mm3=metrics.volumes(labels),
                    reference_volume_mm3=ref_vols,
                )
            )

    # echoed only once every input has been read, so that a rejected call
    # leaves no output behind
    _echo_config(cfg, out_dir)
    metrics.write_report(reports, out_dir / "report.csv")
    print(out_dir / "report.csv")

    corr_rows = []
    for method in METHODS:
        rows = sorted((rep for rep in reports if rep.method == method),
                      key=lambda rep: rep.subject_id)
        if len(rows) < 3:
            continue
        got = np.array([rep.volume_mm3 for rep in rows])
        ref = np.array([rep.reference_volume_mm3 for rep in rows])
        for k in tissues.DEFAULT_EVAL_CLASSES:
            try:
                r = metrics.pearson(got[:, k - 1], ref[:, k - 1])
            except CorrelationError:
                r = None  # zero variance on either side: written as an empty field
            corr_rows.append((method, tissues.class_name(k), r, len(rows)))
    if corr_rows:
        metrics.write_correlations(corr_rows, out_dir / "correlations.csv")
        print(out_dir / "correlations.csv")
    else:
        print("correlations omitted: fewer than 3 evaluated subjects per method")
    return EXIT_OK


def cmd_config(args) -> int:
    if args.print_defaults:
        sys.stdout.write(cfgmod.format_config(cfgmod.DEFAULTS))
        return EXIT_OK
    cfg = _merged_config(args)
    sys.stdout.write(cfgmod.format_config(cfg))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camelion",
        description="Contrast-adaptive tissue segmentation toolkit with a synthetic-phantom harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic cohort")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output cohort directory")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("run", help="run one segmentation arm on one subject")
    _add_config_args(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--subject", required=True, help="subject id from the manifest")
    p.add_argument("--manifest", required=True, help="cohort manifest path")
    p.add_argument("--out", required=True, help="runs output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="evaluate completed runs into CSV reports")
    _add_config_args(p)
    p.add_argument("--manifest", required=True, help="cohort manifest path")
    p.add_argument("--runs", required=True, help="runs directory (from 'camelion run')")
    p.add_argument("--out", required=True, help="evaluation output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("config", help="print configuration")
    _add_config_args(p)
    p.add_argument("--print-defaults", action="store_true", help="print built-in defaults")
    p.set_defaults(func=cmd_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ArgumentError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineError as exc:
        print(f"pipeline failure at {exc.stage}: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except (PersistenceError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CamelionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
