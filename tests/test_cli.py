import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import camelion
from camelion import cli, pipeline
from camelion.cli import main
from camelion.config import DEFAULTS, format_config, load_config, loop_config, parse_config_text
from camelion.errors import CamelionError, ConfigError

# small, fast setup for command-level tests
SMALL = [
    "--set", "phantom.base_dims=16 16 16",
    "--set", "phantom.supersample=2",
    "--set", "phantom.n_atlas=2",
    "--set", "phantom.n_test=1",
]


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert run_cli("phantom", "--out", str(out), *SMALL) == 0
    return out


class TestConfig:
    def test_default_cohort_is_ten_atlas_eight_test(self):
        assert DEFAULTS["phantom.n_atlas"] == 10
        assert DEFAULTS["phantom.n_test"] == 8
        assert DEFAULTS["loop.max_iterations"] == 5
        assert DEFAULTS["loop.change_threshold"] == 0.05

    def test_print_defaults_round_trips(self, capsys):
        assert run_cli("config", "--print-defaults") == 0
        text = capsys.readouterr().out
        parsed = parse_config_text(text)
        assert parsed == dict(DEFAULTS)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["bogus.key=1"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["phantom.supersample=two"])

    def test_file_overrides_and_flag_wins(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("seed = 7\nloop.max_iterations = 3  # comment\n")
        cfg = load_config(cfg_file, ["seed=9"])
        assert cfg["seed"] == 9
        assert cfg["loop.max_iterations"] == 3

    def test_format_parse_identity(self):
        # the defaults, then floats that six significant digits do not hold
        for overrides in ([], ["pv.beta=0.123456789"], ["protocol_b.gamma=0.7000001"],
                          ["nhm.percentiles=1 50 99.99999999"]):
            cfg = load_config(None, overrides)
            assert parse_config_text(format_config(cfg)) == cfg, overrides

    def test_bool_key_round_trips(self):
        assert DEFAULTS["loop.atlas_images"] is False
        assert "loop.atlas_images = false\n" in format_config(DEFAULTS)
        for raw, value in (("true", True), ("false", False), (" true ", True)):
            cfg = load_config(None, [f"loop.atlas_images={raw}"])
            assert cfg["loop.atlas_images"] is value
            assert parse_config_text(format_config(cfg)) == cfg
            assert loop_config(cfg).atlas_images is value

    @pytest.mark.parametrize("raw", ["True", "FALSE", "1", "0", "yes", ""])
    def test_bad_bool_value_exits_2(self, raw, capsys):
        assert run_cli("config", "--set", f"loop.atlas_images={raw}") == 2
        assert "expected true or false" in capsys.readouterr().err

    def test_unknown_key_in_file_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nope = 1\n")
        assert run_cli("config", "--config", str(cfg_file)) == 2

    def test_removed_synth_noise_key_exits_2(self):
        assert run_cli("config", "--set", "loop.synth_noise=false") == 2

    @pytest.mark.parametrize("key", ["synth.hidden_units", "synth.batch_size",
                                     "synth.learning_rate"])
    def test_removed_synth_knob_exits_2(self, key):
        assert run_cli("config", "--set", f"{key}=1") == 2


class TestPhantomCommand:
    def test_manifest_contents(self, cohort):
        manifest = json.loads((cohort / "manifest.json").read_text())
        assert len(manifest["subjects"]) == 3
        assert [s["role"] for s in manifest["subjects"]] == ["atlas", "atlas", "test"]
        assert (cohort / "effective_config.txt").exists()

    def test_idempotent_bytes(self, cohort, tmp_path):
        out2 = tmp_path / "again"
        assert run_cli("phantom", "--out", str(out2), *SMALL) == 0
        for f in sorted(cohort.iterdir()):
            assert f.read_bytes() == (out2 / f.name).read_bytes(), f.name

    def test_rerun_with_fewer_subjects_keeps_only_the_listed_files(self, tmp_path):
        out = tmp_path / "cohort"
        assert run_cli("phantom", "--out", str(out), *SMALL, "--set", "phantom.n_test=4") == 0
        (out / "notes.txt").write_text("kept")
        assert run_cli("phantom", "--out", str(out), *SMALL) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {entry[key] for entry in manifest["subjects"]
                  for key in ("image_a", "image_b", "labels")}
        assert {f.name for f in out.iterdir()} == listed | {
            "manifest.json", "effective_config.txt", "notes.txt"}

    def test_unwritable_out_is_exit_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should go")
        assert run_cli("phantom", "--out", str(blocker / "x"), *SMALL) == 3

    def test_bad_set_pair_is_exit_2(self, tmp_path):
        assert run_cli("phantom", "--out", str(tmp_path / "o"), "--set", "nope=1") == 2

    @pytest.mark.parametrize("setting", [
        "phantom.supersample=1",
        "phantom.n_atlas=0",
        "protocol_b.class_means=1 2 3",
        "protocol_a.class_means=1 2 3 4 5 6",
        "protocol_b.class_means=nan 20 75 95 50",
        "protocol_b.class_means=-10 -20 -30 -40 -50",
        "protocol_b.bias_amplitude=1.5",
    ])
    def test_rejected_config_writes_nothing(self, tmp_path, setting):
        out = tmp_path / "o"
        assert run_cli("phantom", "--out", str(out), *SMALL, "--set", setting) == 2
        assert not out.exists()


class TestRunCommand:
    def test_direct_writes_single_labels_file(self, cohort, tmp_path):
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", "direct", "--subject", "s002",
            "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL
        )
        assert code == 0
        produced = sorted(p.name for p in (runs / "s002" / "direct").iterdir())
        assert "labels_final.mvf" in produced
        assert not any(p.startswith("labels_0") for p in produced)
        assert not (runs / "atlas_pv").exists()

    def test_unknown_method_exits_2(self, cohort, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "run", "--method", "bogus", "--subject", "s002",
                "--manifest", str(cohort / "manifest.json"), "--out", str(tmp_path)
            )
        assert exc.value.code == 2

    def test_missing_subject_exits_2(self, cohort, tmp_path):
        code = run_cli(
            "run", "--method", "direct", "--subject", "s999",
            "--manifest", str(cohort / "manifest.json"), "--out", str(tmp_path), *SMALL
        )
        assert code == 2

    def test_camelion_writes_trajectory(self, cohort, tmp_path):
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", "camelion", "--subject", "s002",
            "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL,
            "--set", "loop.atlas_images=true",
        )
        assert code == 0
        out_dir = runs / "s002" / "camelion"
        traj = (out_dir / "trajectory.csv").read_text().strip().splitlines()
        n_iter = len(traj) - 1
        assert 1 <= n_iter <= 5
        assert (out_dir / "labels_final.mvf").exists()
        assert (out_dir / "labels_0.mvf").exists()
        assert (out_dir / "atlas0_1.mvf").exists()
        assert not list(out_dir.glob("synth_*"))
        assert [p.name for p in runs.iterdir()] == ["s002"]
        assert traj[0].split(",")[-8:] == [
            "input_sigma", "noise_sigma",
            "synth_train_mse", "intensity_csf", "intensity_ventricles",
            "intensity_gray_matter", "intensity_white_matter", "intensity_brainstem",
        ]
        for row in traj[1:]:
            input_sigma, noise_sigma = (float(v) for v in row.split(",")[-8:-6])
            assert 0.0 <= noise_sigma < input_sigma

    def test_regressor_trajectory_has_no_intensities(self, cohort, tmp_path):
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", "camelion", "--subject", "s002",
            "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL,
            "--set", "synth.backend=regressor", "--set", "synth.epochs=2",
        )
        assert code == 0
        header, *rows = (runs / "s002" / "camelion" / "trajectory.csv").read_text().splitlines()
        assert rows
        for row in rows:
            fields = row.split(",")
            assert float(fields[-6]) >= 0.0  # synth_train_mse
            assert fields[-5:] == [""] * 5

    def test_loop_failure_keeps_partial_results(self, cohort, tmp_path, monkeypatch):
        real = pipeline.fit_moments
        calls = []

        def retrain_failing_in_iteration_2(moments, side, cfg):
            # each iteration retrains once
            calls.append(moments)
            if len(calls) == 2:
                raise CamelionError("retrain failed")
            return real(moments, side, cfg)

        monkeypatch.setattr(pipeline, "fit_moments", retrain_failing_in_iteration_2)
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", "camelion", "--subject", "s002",
            "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL,
            "--set", "loop.change_threshold=0.0001",
        )
        assert code == 4
        out_dir = runs / "s002" / "camelion"
        assert (out_dir / "labels_0.mvf").exists()
        assert (out_dir / "labels_1.mvf").exists()
        assert not (out_dir / "labels_2.mvf").exists()
        assert not (out_dir / "labels_final.mvf").exists()
        traj = (out_dir / "trajectory.csv").read_text().strip().splitlines()
        assert len(traj) == 2

    def test_rerun_with_fewer_iterations_leaves_no_stale_artifacts(self, cohort, tmp_path):
        runs = tmp_path / "runs"
        args = ["run", "--method", "camelion", "--subject", "s002",
                "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL,
                "--set", "loop.change_threshold=0.0001", "--set", "loop.atlas_images=true"]
        assert run_cli(*args, "--set", "loop.max_iterations=3") == 0
        out_dir = runs / "s002" / "camelion"
        assert (out_dir / "labels_3.mvf").exists()
        (out_dir / "notes.txt").write_text("kept")
        assert run_cli(*args, "--set", "loop.max_iterations=1") == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "atlas0_1.mvf", "atlas1_1.mvf", "effective_config.txt", "labels_0.mvf",
            "labels_1.mvf", "labels_final.mvf", "notes.txt", "trajectory.csv"]
        assert len((out_dir / "trajectory.csv").read_text().splitlines()) == 2

    def test_default_run_writes_no_atlas_images(self, cohort, tmp_path):
        runs = {}
        for name, extra in (("default", []), ("kept", ["--set", "loop.atlas_images=true"])):
            runs[name] = tmp_path / name
            assert run_cli(
                "run", "--method", "camelion", "--subject", "s002",
                "--manifest", str(cohort / "manifest.json"), "--out", str(runs[name]), *SMALL,
                "--set", "loop.change_threshold=0.0001", *extra,
            ) == 0
        default, kept = (runs[name] / "s002" / "camelion" for name in ("default", "kept"))
        names = sorted(p.name for p in default.iterdir())
        assert not [name for name in names if name.startswith("atlas")]
        assert "atlas1_2.mvf" in {p.name for p in kept.iterdir()}
        assert names == sorted(p.name for p in kept.iterdir() if not p.name.startswith("atlas"))
        for name in names:
            if name != "effective_config.txt":
                assert (default / name).read_bytes() == (kept / name).read_bytes(), name
        # the echoed configurations differ in the key's line alone
        default_cfg, kept_cfg = ((d / "effective_config.txt").read_text().splitlines()
                                 for d in (default, kept))
        assert [a for a, b in zip(default_cfg, kept_cfg, strict=True) if a != b] == [
            "loop.atlas_images = false"]
        assert "loop.atlas_images = true" in kept_cfg

    def test_default_rerun_clears_earlier_atlas_images(self, cohort, tmp_path):
        runs = tmp_path / "runs"
        args = ["run", "--method", "camelion", "--subject", "s002",
                "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL]
        assert run_cli(*args, "--set", "loop.atlas_images=true") == 0
        out_dir = runs / "s002" / "camelion"
        assert list(out_dir.glob("atlas*_*.mvf"))
        assert run_cli(*args) == 0
        assert not list(out_dir.glob("atlas*_*.mvf"))
        assert (out_dir / "labels_final.mvf").exists()

    def test_failed_rerun_leaves_no_earlier_labels(self, cohort, tmp_path, monkeypatch):
        runs = tmp_path / "runs"
        args = ["run", "--method", "camelion", "--subject", "s002",
                "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL]
        assert run_cli(*args) == 0
        out_dir = runs / "s002" / "camelion"
        assert (out_dir / "labels_final.mvf").exists()

        def failing_retrain(*args, **kwargs):
            raise CamelionError("retrain failed")

        monkeypatch.setattr(pipeline, "fit_moments", failing_retrain)
        assert run_cli(*args) == 4
        # only the initial segmentation completed; eval finds no finished run
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "effective_config.txt", "labels_0.mvf", "trajectory.csv"]
        assert run_cli("eval", "--manifest", str(cohort / "manifest.json"),
                       "--runs", str(runs), "--out", str(tmp_path / "eval")) == 2

    def test_rejected_rerun_keeps_the_earlier_run(self, cohort, tmp_path):
        runs = tmp_path / "runs"
        args = ["run", "--method", "direct", "--subject", "s002",
                "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL]
        assert run_cli(*args) == 0
        out_dir = runs / "s002" / "direct"
        before = (out_dir / "labels_final.mvf").read_bytes()
        assert run_cli(*args, "--set", "nhm.reference_atlas=99") == 2
        assert (out_dir / "labels_final.mvf").read_bytes() == before

    def test_failure_before_first_labels_writes_only_config(self, cohort, tmp_path,
                                                             monkeypatch, fresh_atlas_memo):
        def failing_train(*args, **kwargs):
            raise CamelionError("training failed")

        monkeypatch.setattr(pipeline, "train", failing_train)
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", "camelion", "--subject", "s002",
            "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL,
        )
        assert code == 4
        assert [p.name for p in (runs / "s002" / "camelion").iterdir()] == [
            "effective_config.txt"]

    # each value fails a range check on every arm
    @pytest.mark.parametrize("setting", [
        "loop.mask_rel_threshold=2",
        "segmenter.smoothing_weight=inf",
        "segmenter.smoothing_weight=nan",
        "nhm.percentiles=0 50 99",
        "nhm.percentiles=50 20",
        "nhm.percentiles=nan 50",
        "nhm.reference_atlas=99",
        "nhm.reference_atlas=-1",
    ])
    @pytest.mark.parametrize("method", ["direct", "nhm", "camelion"])
    def test_rejected_setting_exits_2(self, cohort, tmp_path, method, setting):
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", method, "--subject", "s002",
            "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL,
            "--set", setting,
        )
        assert code == 2
        assert not runs.exists()

    def test_nhm_runs(self, cohort, tmp_path):
        code = run_cli(
            "run", "--method", "nhm", "--subject", "s002",
            "--manifest", str(cohort / "manifest.json"), "--out", str(tmp_path / "runs"), *SMALL
        )
        assert code == 0

    # s000 is an atlas, s002 the test subject; each file is replaced by one of
    # another kind (an image by a label map, a label map by an image)
    @pytest.mark.parametrize("method, subject, key", [
        ("camelion", "s002", "labels"),
        ("direct", "s002", "image_b"),
        ("nhm", "s000", "labels"),
        ("camelion", "s000", "image_a"),
    ])
    def test_wrong_kind_cohort_file_exits_2(self, cohort, tmp_path, method, subject, key):
        copy = tmp_path / "cohort"
        shutil.copytree(cohort, copy)
        other = "image_a" if key == "labels" else "labels"
        shutil.copyfile(copy / f"{subject}_{other}.mvf", copy / f"{subject}_{key}.mvf")
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", method, "--subject", "s002",
            "--manifest", str(copy / "manifest.json"), "--out", str(runs), *SMALL
        )
        assert code == 2
        assert not (runs / "s002" / method).exists()

    @pytest.mark.parametrize("method", ["direct", "nhm"])
    def test_baseline_arms_run_without_truth_labels(self, cohort, tmp_path, method):
        copy = tmp_path / "cohort"
        shutil.copytree(cohort, copy)
        (copy / "s002_labels.mvf").unlink()
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", method, "--subject", "s002",
            "--manifest", str(copy / "manifest.json"), "--out", str(runs), *SMALL
        )
        assert code == 0
        assert (runs / "s002" / method / "labels_final.mvf").exists()


@pytest.fixture(scope="module")
def runs(cohort, tmp_path_factory):
    runs = tmp_path_factory.mktemp("runs")
    for method in ("direct", "nhm", "camelion"):
        assert run_cli(
            "run", "--method", method, "--subject", "s002",
            "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL
        ) == 0
    return runs


class TestEvalCommand:
    def test_single_subject_report(self, cohort, runs, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run_cli(
            "eval", "--manifest", str(cohort / "manifest.json"),
            "--runs", str(runs), "--out", str(out), *SMALL
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "correlations omitted" in captured
        report = (out / "report.csv").read_text().strip().splitlines()
        # 1 subject x 3 methods x 4 reported classes + header
        assert len(report) == 1 + 12
        assert not (out / "correlations.csv").exists()

    def test_deterministic_output_bytes(self, cohort, runs, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        for out in (out1, out2):
            assert run_cli(
                "eval", "--manifest", str(cohort / "manifest.json"),
                "--runs", str(runs), "--out", str(out), *SMALL
            ) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_no_runs_exits_2(self, cohort, tmp_path):
        code = run_cli(
            "eval", "--manifest", str(cohort / "manifest.json"),
            "--runs", str(tmp_path / "empty"), "--out", str(tmp_path / "out"), *SMALL
        )
        assert code == 2

    @pytest.mark.parametrize("runs_dir", ["empty", "missing"])
    def test_no_runs_writes_nothing(self, cohort, tmp_path, runs_dir):
        (tmp_path / "empty").mkdir()
        out = tmp_path / "out"
        code = run_cli(
            "eval", "--manifest", str(cohort / "manifest.json"),
            "--runs", str(tmp_path / runs_dir), "--out", str(out), *SMALL
        )
        assert code == 2
        assert not out.exists()

    def test_rejected_config_writes_nothing(self, cohort, runs, tmp_path):
        out = tmp_path / "eval"
        code = run_cli(
            "eval", "--manifest", str(cohort / "manifest.json"),
            "--runs", str(runs), "--out", str(out), *SMALL,
            "--set", "loop.mask_rel_threshold=2",
        )
        assert code == 2
        assert not out.exists()

    def test_wrong_kind_run_labels_exits_2(self, cohort, runs, tmp_path):
        runs_copy = tmp_path / "runs"
        shutil.copytree(runs, runs_copy)
        labels = runs_copy / "s002" / "nhm" / "labels_final.mvf"
        shutil.copyfile(cohort / "s002_image_a.mvf", labels)
        out = tmp_path / "eval"
        code = run_cli(
            "eval", "--manifest", str(cohort / "manifest.json"),
            "--runs", str(runs_copy), "--out", str(out), *SMALL
        )
        assert code == 2
        assert not out.exists()

    def test_undefined_correlation_is_an_empty_field(self, tmp_path):
        # at this seed no 16^3 subject has a brainstem, so every brainstem
        # volume is 0 and its correlation is undefined
        cohort3 = tmp_path / "cohort"
        three_test = [*SMALL, "--set", "phantom.n_test=3"]
        assert run_cli("phantom", "--out", str(cohort3), *three_test) == 0
        runs3 = tmp_path / "runs"
        for sid in ("s002", "s003", "s004"):
            assert run_cli(
                "run", "--method", "direct", "--subject", sid,
                "--manifest", str(cohort3 / "manifest.json"), "--out", str(runs3), *three_test
            ) == 0
        out = tmp_path / "eval"
        assert run_cli(
            "eval", "--manifest", str(cohort3 / "manifest.json"),
            "--runs", str(runs3), "--out", str(out), *three_test
        ) == 0
        rows = (out / "correlations.csv").read_text().splitlines()
        assert rows[0] == "method,class_name,pearson_r,n_subjects"
        fields = {row.split(",")[1]: row.split(",")[2] for row in rows[1:]}
        assert sorted(fields) == ["brainstem", "gray_matter", "ventricles", "white_matter"]
        assert fields.pop("brainstem") == ""
        assert all(-1 <= float(r) <= 1 for r in fields.values())

    def test_reference_runs_only_for_evaluated_subjects(self, tmp_path, monkeypatch):
        cohort2 = tmp_path / "cohort"
        two_test = [*SMALL, "--set", "phantom.n_test=2"]
        assert run_cli("phantom", "--out", str(cohort2), *two_test) == 0
        runs2 = tmp_path / "runs"
        assert run_cli(
            "run", "--method", "direct", "--subject", "s002",
            "--manifest", str(cohort2 / "manifest.json"), "--out", str(runs2), *two_test
        ) == 0
        calls = []
        real = cli.run_direct

        def counting(image, atlases, cfg):
            calls.append(image)
            return real(image, atlases, cfg)

        monkeypatch.setattr(cli, "run_direct", counting)
        assert run_cli(
            "eval", "--manifest", str(cohort2 / "manifest.json"),
            "--runs", str(runs2), "--out", str(tmp_path / "eval"), *two_test
        ) == 0
        assert len(calls) == 1



def truncate(path):
    path.write_bytes(path.read_bytes()[:100])


class TestMalformedInputs:
    """A malformed manifest or a corrupt volume file is an input error
    (exit 2) that names the file and leaves no output behind."""

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"subjects": [{"id": "s002"}]}',
        '{"seed": 12345}',
        json.dumps({"subjects": [
            {"id": sid, "role": role, "image_a": "a.mvf", "image_b": "b.mvf", "labels": "l.mvf"}
            for sid, role in (("s000", "atlas"), ("s002", "test"), ("s002", "test"))]}),
    ])
    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_malformed_manifest_exits_2(self, cohort, runs, tmp_path, capsys, command, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        out = tmp_path / "out"
        if command == "run":
            argv = ["run", "--method", "direct", "--subject", "s002"]
        else:
            argv = ["eval", "--runs", str(runs)]
        code = run_cli(*argv, "--manifest", str(manifest), "--out", str(out), *SMALL)
        assert code == 2
        assert str(manifest) in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_cohort_file_exits_2(self, cohort, tmp_path, capsys):
        copy = tmp_path / "cohort"
        shutil.copytree(cohort, copy)
        truncate(copy / "s002_image_b.mvf")
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", "direct", "--subject", "s002",
            "--manifest", str(copy / "manifest.json"), "--out", str(runs), *SMALL
        )
        assert code == 2
        assert "s002_image_b.mvf" in capsys.readouterr().err
        assert not (runs / "s002" / "direct").exists()

    def test_truncated_run_labels_exits_2(self, cohort, runs, tmp_path, capsys):
        runs_copy = tmp_path / "runs"
        shutil.copytree(runs, runs_copy)
        truncate(runs_copy / "s002" / "nhm" / "labels_final.mvf")
        out = tmp_path / "eval"
        code = run_cli(
            "eval", "--manifest", str(cohort / "manifest.json"),
            "--runs", str(runs_copy), "--out", str(out), *SMALL
        )
        assert code == 2
        assert "labels_final.mvf" in capsys.readouterr().err
        assert not out.exists()


def test_every_subcommand_has_help(capsys):
    for cmd in ("phantom", "run", "eval", "config"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--help" in capsys.readouterr().out


def run_after_cli_import(check, block_scipy=False):
    """Run the Python statement check in a fresh process that has imported
    camelion.cli; with block_scipy, every import of scipy in it fails."""
    src = str(Path(camelion.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    block = "sys.modules['scipy'] = None; " if block_scipy else ""
    return subprocess.run([sys.executable, "-c", f"import sys; {block}import camelion.cli; {check}"],
                          env=env, timeout=60, capture_output=True, text=True)


SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def test_import_leaves_scipy_ndimage_unloaded(cohort, tmp_path):
    assert run_after_cli_import(f"sys.exit({SCIPY_LOADED})").returncode == 0
    # nor does any command on the 16^3 cohort load any scipy module
    manifest = str(cohort / "manifest.json")
    runs = str(tmp_path / "runs")
    commands = [["run", "--method", method, "--subject", "s002", "--manifest", manifest,
                 "--out", runs, *SMALL] for method in ("direct", "nhm", "camelion")]
    commands.append(["eval", "--manifest", manifest, "--runs", runs,
                     "--out", str(tmp_path / "eval"), *SMALL])
    for argv in commands:
        proc = run_after_cli_import(
            f"code = camelion.cli.main({argv!r}); print(code, {SCIPY_LOADED})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False", (argv[:3], proc.stdout)


def test_commands_run_without_scipy(cohort, tmp_path):
    # a process in which scipy cannot be imported gives the bytes of one in
    # which it can: the nearest-class map of classes farther apart than twice
    # the search radius, and every file of a camelion run
    blocked = run_after_cli_import("import scipy", block_scipy=True)
    assert blocked.returncode != 0 and "ModuleNotFoundError" in blocked.stderr
    far = ("import hashlib, numpy as np; from camelion.pv import SEARCH_RADIUS, second_class_map; "
           "from camelion.volumes import LabelVolume, VolumeHeader; "
           "data = np.zeros((12 + 2 * SEARCH_RADIUS, 5, 6), dtype=np.uint8); "
           "data[:5, :, :3] = 1; data[:5, :, 3:] = 2; data[-5:] = 3; "
           "vol = LabelVolume(VolumeHeader(data.shape, (1.0, 1.25, 0.75)), data, num_classes=5); "
           "print(hashlib.sha256(second_class_map(vol).data.tobytes()).hexdigest())")
    maps = [run_after_cli_import(far, block_scipy=block) for block in (False, True)]
    assert [p.returncode for p in maps] == [0, 0], maps[1].stderr
    assert maps[0].stdout == maps[1].stdout
    runs = []
    for block in (False, True):
        out = tmp_path / f"runs_{block}"
        argv = ["run", "--method", "camelion", "--subject", "s002",
                "--manifest", str(cohort / "manifest.json"), "--out", str(out), *SMALL]
        proc = run_after_cli_import(f"sys.exit(camelion.cli.main({argv!r}))", block_scipy=block)
        assert proc.returncode == 0, proc.stderr
        runs.append(out / "s002" / "camelion")
    names = sorted(p.name for p in runs[0].iterdir())
    assert "labels_final.mvf" in names
    assert names == sorted(p.name for p in runs[1].iterdir())
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_import_leaves_thread_pool_and_logging_unloaded():
    # the parallel sections run on util.map_in_order, not concurrent.futures,
    # which would import logging with it
    proc = run_after_cli_import(
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runs_leave_numpy_ma_unloaded(cohort, tmp_path):
    # np.percentile and np.unique import numpy.ma on their first call
    manifest = str(cohort / "manifest.json")
    for method in ("direct", "camelion"):
        argv = ["run", "--method", method, "--subject", "s002", "--manifest", manifest,
                "--out", str(tmp_path / "runs"), *SMALL]
        proc = run_after_cli_import(
            f"code = camelion.cli.main({argv!r}); print(code, 'numpy.ma' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False", (method, proc.stdout)


def test_cli_import_loads_every_module():
    # a module that the command line never imports is reached by no command
    modules = sorted(f"camelion.{p.stem}" for p in Path(camelion.__file__).parent.glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    proc = run_after_cli_import(
        f"print(' '.join(m for m in {modules!r} if m not in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
