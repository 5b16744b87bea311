import json
import os
import subprocess
import sys

import pytest

from driftloc import (
    build_cell_map,
    build_stochastic_map,
    format_directions,
    initial_distribution,
    sample_trajectory,
    synthesize_field,
    SyntheticFieldSpec,
)
from driftloc.cli import main
from conftest import CONFIG_DIR, FIXTURE_FIELD, GOLDEN_DIR, REPO_ROOT, SCHEMA_DIR


def run_cli(*argv):
    return main(list(argv))


def run_cli_process(*argv, **env):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a traceback."""
    path = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env)
    return subprocess.run(
        [sys.executable, "-m", "driftloc.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


class TestClassify:
    def test_zero_field_all_singleton_attractors(self, tmp_path, capsys):
        out = tmp_path / "dec.json"
        code = run_cli(
            "classify", "--synthetic", "uniform", "--rows", "4", "--cols", "4",
            "--r", "0.9", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n_persistent_groups"] == 16
        assert payload["n_transient_groups"] == 0
        assert all(g["size"] == 1 for g in payload["persistent_groups"])

    def test_uniform_east_persistent_only_eastern_region(self, tmp_path):
        out = tmp_path / "dec.json"
        code = run_cli(
            "classify", "--synthetic", "uniform", "--u", "1.0",
            "--rows", "5", "--cols", "8", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        cols = 8
        persistent = [z for g in payload["persistent_groups"] for z in g["cells"]]
        assert persistent, "no persistent cells found"
        for z in persistent:
            col = (z - 1) % cols
            assert col >= cols - 2, f"cell {z} (col {col}) should be transient"
        # the whole eastern boundary column is recurrent
        east_col = {r * cols + (cols - 1) + 1 for r in range(5)}
        assert east_col <= set(persistent)

    def test_double_gyre_fixture_structure(self, tmp_path):
        out = tmp_path / "dec.json"
        code = run_cli("classify", "--field", str(FIXTURE_FIELD), "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n_persistent_groups"] == 2
        assert payload["n_transient_groups"] == 3

    def test_bad_field_file_fails_with_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.field"
        bad.write_text("driftfield 1\nrows 2\ncols 2\ncells\n0 0 0 nan 0\n")
        code = run_cli("classify", "--field", str(bad))
        assert code == 1
        assert "line" in capsys.readouterr().err

    def test_fixture_report_matches_golden(self, tmp_path):
        out = tmp_path / "dec.json"
        assert run_cli("classify", "--field", str(FIXTURE_FIELD), "--out", str(out)) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "classify_fixture.json").read_bytes()

    def test_schema_valid(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        out = tmp_path / "dec.json"
        run_cli("classify", "--synthetic", "double_gyre", "--decay", "2.0",
                "--out", str(out))
        schema = json.loads((SCHEMA_DIR / "decomposition.schema.json").read_text())
        jsonschema.validate(json.loads(out.read_text()), schema)


class TestLocalize:
    def _field_and_obs(self, tmp_path, r=1.0, T=15):
        w, f = synthesize_field(SyntheticFieldSpec(kind="double_gyre", decay=2.0), 21, 29)
        field_path = tmp_path / "gyre.field"
        from driftloc import save_field

        save_field(field_path, f)
        P = build_stochastic_map(build_cell_map(f), r)
        x0 = w.index(15, 8)
        pi = initial_distribution(w, x0, "deterministic")
        path, obs = sample_trajectory(P, pi, T, seed=11)
        obs_path = tmp_path / "obs.txt"
        obs_path.write_text(format_directions(obs) + "\n")
        return field_path, obs_path, x0, path

    def test_noiseless_roundtrip(self, tmp_path):
        field_path, obs_path, x0, true_path = self._field_and_obs(tmp_path)
        out = tmp_path / "traj.json"
        code = run_cli(
            "localize", "--field", str(field_path), "--r", "1.0",
            "--x0", str(x0), "--obs", str(obs_path), "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["path"] == true_path
        assert payload["final"] == true_path[-1]
        assert payload["log_prob"] == 0.0

    def test_probabilistic_prior(self, tmp_path):
        field_path, obs_path, x0, _ = self._field_and_obs(tmp_path, r=0.9)
        out = tmp_path / "traj.json"
        code = run_cli(
            "localize", "--field", str(field_path), "--r", "0.9", "--pi", "prob",
            "--x0", str(x0), "--obs", str(obs_path), "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["path"]) == 16

    def test_infeasible_observation_exit_code(self, tmp_path, capsys):
        # uniform east at r=1: a West symbol can never be emitted
        w, f = synthesize_field(SyntheticFieldSpec(kind="uniform", u=1.0), 4, 6)
        from driftloc import save_field

        field_path = tmp_path / "east.field"
        save_field(field_path, f)
        obs_path = tmp_path / "obs.txt"
        obs_path.write_text("E E W\n")
        code = run_cli(
            "localize", "--field", str(field_path), "--r", "1.0",
            "--x0", "8", "--obs", str(obs_path),
        )
        assert code == 2
        assert "step 3" in capsys.readouterr().err

    def test_schema_valid(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        field_path, obs_path, x0, _ = self._field_and_obs(tmp_path, r=0.9)
        out = tmp_path / "traj.json"
        run_cli("localize", "--field", str(field_path), "--r", "0.9",
                "--x0", str(x0), "--obs", str(obs_path), "--out", str(out))
        schema = json.loads((SCHEMA_DIR / "trajectory.schema.json").read_text())
        jsonschema.validate(json.loads(out.read_text()), schema)


class TestExperiment:
    def _mini_config(self, tmp_path):
        cfg = {
            "field": {"path": str(FIXTURE_FIELD)},
            "r": 0.9,
            "modes": ["deterministic"],
            "T_list": [5, 10],
            "runs": 3,
            "base_seed": 99,
            "initial": "random",
        }
        p = tmp_path / "mini.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_writes_reports_and_reruns_identically(self, tmp_path):
        cfg = self._mini_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli("experiment", "--config", str(cfg), "--out-dir", str(out1)) == 0
        assert run_cli("experiment", "--config", str(cfg), "--out-dir", str(out2)) == 0
        csv1 = (out1 / "mini.summary.csv").read_bytes()
        csv2 = (out2 / "mini.summary.csv").read_bytes()
        assert csv1 == csv2
        assert (out1 / "mini.runs.json").read_bytes() == (out2 / "mini.runs.json").read_bytes()
        rows = csv1.decode().strip().splitlines()
        assert len(rows) == 3  # header + 2 conditions

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._mini_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_cli("experiment", "--config", str(cfg), "--out-dir", str(out1))
        run_cli("experiment", "--config", str(cfg), "--out-dir", str(out2),
                "--seed", "123")
        assert (out1 / "mini.runs.json").read_bytes() != (out2 / "mini.runs.json").read_bytes()

    def test_invalid_config_rejected_before_running(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"field": {"path": "x.field"}, "runs": 0}))
        code = run_cli("experiment", "--config", str(p), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "runs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_schema_valid(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        cfg = self._mini_config(tmp_path)
        out = tmp_path / "o"
        run_cli("experiment", "--config", str(cfg), "--out-dir", str(out))
        schema = json.loads((SCHEMA_DIR / "experiment_runs.schema.json").read_text())
        jsonschema.validate(json.loads((out / "mini.runs.json").read_text()), schema)

    def test_shipped_configs_resolve_fixture_paths(self):
        for name in ("fig5.json", "fig6.json", "fig7.json"):
            cfg = json.loads((CONFIG_DIR / name).read_text())
            resolved = (CONFIG_DIR / cfg["field"]["path"]).resolve()
            assert resolved.exists(), f"{name} points at a missing fixture"


class TestCellIndexOutOfRange:
    def assert_clean_error(self, proc):
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "out of range 1..609" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_localize_start_cell(self, tmp_path):
        obs = tmp_path / "obs.txt"
        obs.write_text("N\n")
        self.assert_clean_error(run_cli_process(
            "localize", "--field", str(FIXTURE_FIELD), "--x0", "0", "--obs", str(obs),
        ))

    def test_experiment_initial_cell(self, tmp_path):
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps({
            "field": {"path": str(FIXTURE_FIELD)}, "T_list": [5], "runs": 1,
            "initial": 99999,
        }))
        self.assert_clean_error(run_cli_process(
            "experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
        ))


class TestBadConfigValues:
    @pytest.mark.parametrize("change, needle", [
        ({"runs": "x"}, "runs must be an integer"),
        ({"r": "0.9"}, "r must be a number"),
        ({"T_list": 5}, "T_list must be a list of integers"),
        ({"field": {"path": 5}}, "field must be {'path': <file>}"),
        ({"modes": "deterministic"}, "modes must be a list of mode names"),
        ({"initial": 1.5}, "initial must be a cell index"),
        ({"initial": True}, "initial must be a cell index"),
        ({"group_by_region": True, "regions": ["B_9"]}, "no region 'B_9'"),
    ])
    def test_wrongly_typed_value(self, tmp_path, change, needle):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "field": {"path": str(FIXTURE_FIELD)}, "T_list": [5], "runs": 1, **change,
        }))
        proc = run_cli_process(
            "experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert needle in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc", [[], {"runs": 2}])
    def test_config_without_field_object(self, tmp_path, doc):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        proc = run_cli_process(
            "experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: config must be a JSON object")
        assert "Traceback" not in proc.stderr


class TestLogLevel:
    # A fresh process: under pytest the root logger already has handlers, so
    # logging.basicConfig would not apply the level in-process.
    def _classify(self, tmp_path, level):
        return run_cli_process(
            "classify", "--synthetic", "uniform", "--u", "1.0", "--rows", "4",
            "--cols", "5", "--out", str(tmp_path / "d.json"), DRIFTLOC_LOG_LEVEL=level,
        )

    def test_level_name_in_any_case(self, tmp_path):
        proc = self._classify(tmp_path, "debug")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "d.json").exists()

    def test_unknown_level_fails_with_diagnostics(self, tmp_path):
        proc = self._classify(tmp_path, "bogus")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "DRIFTLOC_LOG_LEVEL" in proc.stderr and "'bogus'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "d.json").exists()
