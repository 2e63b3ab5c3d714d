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
from camelion.config import DEFAULTS, format_config, load_config, parse_config_text
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
        text = format_config(DEFAULTS)
        assert parse_config_text(text) == dict(DEFAULTS)

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
            "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL
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
        assert len(list((runs / "atlas_pv").glob("*.pvz"))) == 1
        assert traj[0].split(",")[-6:] == [
            "synth_train_mse", "intensity_csf", "intensity_ventricles",
            "intensity_gray_matter", "intensity_white_matter", "intensity_brainstem",
        ]

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
        real = pipeline.synthesize
        calls = []

        def synthesize_failing_in_iteration_2(model, pv):
            # each iteration synthesizes both atlases once
            calls.append(pv)
            if len(calls) == 3:
                raise CamelionError("synthesis failed")
            return real(model, pv)

        monkeypatch.setattr(pipeline, "synthesize", synthesize_failing_in_iteration_2)
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

    def test_failure_before_first_labels_writes_only_config(self, cohort, tmp_path,
                                                             monkeypatch):
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

    @pytest.mark.parametrize("method", ["direct", "nhm", "camelion"])
    def test_out_of_range_mask_threshold_exits_2(self, cohort, tmp_path, method):
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", method, "--subject", "s002",
            "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL,
            "--set", "loop.mask_rel_threshold=2",
        )
        assert code == 2
        assert not runs.exists()

    @pytest.mark.parametrize("weight", ["inf", "nan"])
    @pytest.mark.parametrize("method", ["direct", "nhm", "camelion"])
    def test_non_finite_smoothing_weight_exits_2(self, cohort, tmp_path, method, weight):
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", method, "--subject", "s002",
            "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL,
            "--set", f"segmenter.smoothing_weight={weight}",
        )
        assert code == 2
        assert not runs.exists()

    @pytest.mark.parametrize("percentiles", ["0 50 99", "50 20", "nan 50"])
    @pytest.mark.parametrize("method", ["direct", "nhm", "camelion"])
    def test_bad_nhm_percentiles_exits_2(self, cohort, tmp_path, method, percentiles):
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", method, "--subject", "s002",
            "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL,
            "--set", f"nhm.percentiles={percentiles}",
        )
        assert code == 2
        assert not runs.exists()

    @pytest.mark.parametrize("index", ["99", "-1"])
    @pytest.mark.parametrize("method", ["direct", "nhm", "camelion"])
    def test_out_of_range_reference_atlas_exits_2(self, cohort, tmp_path, method, index):
        runs = tmp_path / "runs"
        code = run_cli(
            "run", "--method", method, "--subject", "s002",
            "--manifest", str(cohort / "manifest.json"), "--out", str(runs), *SMALL,
            "--set", f"nhm.reference_atlas={index}",
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


def test_import_leaves_scipy_ndimage_unloaded():
    # config and phantom never call the two functions that need it
    src = str(Path(camelion.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, camelion.cli; sys.exit('scipy.ndimage' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
