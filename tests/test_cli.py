import argparse
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from driftloc import (
    build_cell_map,
    build_stochastic_map,
    decompose,
    initial_distribution,
    resolve_field,
    save_field,
    synthesize_field,
    SyntheticFieldSpec,
)
from driftloc.cli import build_parser, main
from driftloc.gridworld import format_histories
from driftloc.report import report_json
from conftest import (
    CONFIG_DIR, FIXTURE_FIELD, GOLDEN_DIR, REPO_ROOT, SCHEMA_DIR, gyre_with_land, sample_run,
)


def run_cli(*argv):
    return main(list(argv))


def run_cli_process(*argv):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a traceback."""
    path = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
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

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_non_finite_dt_fails_with_diagnostics(self, tmp_path, dt):
        proc = run_cli_process(
            "classify", "--field", str(FIXTURE_FIELD), "--dt", dt,
            "--out", str(tmp_path / "d.json"),
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: dt must be positive and finite, got {dt}\n"
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,) "
                     "and data type int64"),
         "Unable to allocate 74.5 GiB for an array with shape (10000000000,) "
         "and data type int64"),
        (MemoryError(), "out of memory"),
    ])
    def test_out_of_memory_is_one_error_line(self, tmp_path, monkeypatch, capsys, exc, message):
        def build(cm, r):
            raise exc
        monkeypatch.setattr("driftloc.cli.build_stochastic_map", build)
        code = run_cli("classify", "--synthetic", "uniform", "--rows", "4", "--cols", "4",
                       "--out", str(tmp_path / "d.json"))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "d.json").exists()

    def test_fixture_report_matches_golden(self, tmp_path):
        out = tmp_path / "dec.json"
        assert run_cli("classify", "--field", str(FIXTURE_FIELD), "--out", str(out)) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "classify_fixture.json").read_bytes()

    def test_synthetic_flags_are_a_config_field_source(self, tmp_path):
        out = tmp_path / "dec.json"
        assert run_cli("classify", "--synthetic", "double_gyre", "--rows", "21", "--cols", "29",
                       "--decay", "2.0", "--out", str(out)) == 0
        source = {"synthetic": {"kind": "double_gyre", "rows": 21, "cols": 29, "decay": 2.0}}
        _, field = resolve_field(source)
        dec = decompose(build_stochastic_map(build_cell_map(field), 0.9))  # the CLI's default r
        assert out.read_text() == report_json(dec.to_dict()) + "\n"

    @pytest.mark.parametrize("flags, message", [
        (["double_gyre", "--rows", "3", "--cols", "3"],
         "rows and cols must be at least 4 for double_gyre, got 3x3"),
        (["uniform", "--rows", "1"], "rows and cols must be at least 2 for uniform, got 1x29"),
        (["double_gyre", "--decay", "-1"], "decay must be >= 0"),
        (["single_gyre", "--amplitude", "0"], "amplitude must be nonzero for single_gyre"),
        (["uniform", "--u", "inf"], "u must be finite"),
        (["saddle", "--amplitude", "nan"], "amplitude must be finite"),
    ])
    def test_bad_synthetic_flags_fail_with_diagnostics(self, tmp_path, capsys, flags, message):
        out = tmp_path / "d.json"
        assert run_cli("classify", "--synthetic", *flags, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_schema_valid(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        out = tmp_path / "dec.json"
        run_cli("classify", "--synthetic", "double_gyre", "--decay", "2.0",
                "--out", str(out))
        schema = json.loads((SCHEMA_DIR / "decomposition.schema.json").read_text())
        jsonschema.validate(json.loads(out.read_text()), schema)

    def test_request_peak(self, tmp_path, capsys):
        # The classify benchmark's size: 100x130 with a coast and islands.
        # Each stage frees its scratch, and the request frees the field and
        # the chain, once nothing reads them: about 2.9 MiB, 3.92 before.
        p = tmp_path / "large.field"
        save_field(p, gyre_with_land(100, 130, 0))
        tracemalloc.start()
        try:
            code = run_cli("classify", "--field", str(p), "--out", str(tmp_path / "dec.json"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 3.1 * 2**20, f"classify peaked at {peak / 2**20:.2f} MiB"


class TestLocalize:
    def _field_and_obs(self, tmp_path, r=1.0, T=15):
        w, f = synthesize_field(SyntheticFieldSpec(kind="double_gyre", decay=2.0), 21, 29)
        field_path = tmp_path / "gyre.field"
        from driftloc import save_field

        save_field(field_path, f)
        P = build_stochastic_map(build_cell_map(f), r)
        x0 = w.index(15, 8)
        pi = initial_distribution(w, x0, "deterministic")
        path, obs = sample_run(P, pi, T, seed=11)
        obs_path = tmp_path / "obs.txt"
        obs_path.write_text(format_histories([obs])[0] + "\n")
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

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        cfg = self._mini_config(tmp_path)
        code = run_cli("experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
                       "--seed", "-1")
        assert code == 1
        assert capsys.readouterr().err == "error: base_seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "o").exists()

    def test_negative_seed_override_rejected_before_the_field_loads(self, tmp_path, capsys):
        # --seed replaces the config's seed before validation, so a bad seed
        # is reported even when the field file is missing.
        p = tmp_path / "missing.json"
        p.write_text(json.dumps({"field": {"path": "no-such.field"}}))
        code = run_cli("experiment", "--config", str(p), "--out-dir", str(tmp_path / "o"),
                       "--seed", "-1")
        assert code == 1
        assert capsys.readouterr().err == "error: base_seed must be a non-negative integer, got -1\n"
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


class TestFieldPaths:
    """A config's field path is read relative to the config file; a --field
    path relative to the working directory."""

    def test_shipped_config_from_another_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = str((CONFIG_DIR / "fig6.json").resolve())
        assert run_cli("experiment", "--config", cfg, "--out-dir", "out") == 0
        for name in ("fig6.summary.csv", "fig6.runs.json"):
            assert (tmp_path / "out" / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()

    def test_absolute_field_path_ignores_the_config_directory(self, tmp_path):
        cfg = tmp_path / "sub" / "abs.json"
        cfg.parent.mkdir()
        cfg.write_text(json.dumps({"field": {"path": str(FIXTURE_FIELD)}, "T_list": [5],
                                   "runs": 2}))
        assert run_cli("experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 0
        runs = json.loads((tmp_path / "o" / "abs.runs.json").read_text())
        assert runs["config"]["field"] == {"path": str(FIXTURE_FIELD)}

    def test_missing_field_named_as_typed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("classify", "--field", "./missing.field") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(" './missing.field'\n")

    def test_missing_field_named_as_joined_to_the_config_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "c.json").write_text(
            json.dumps({"field": {"path": "./data/missing.field"}}))
        assert run_cli("experiment", "--config", "sub/c.json", "--out-dir", "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(" 'sub/data/missing.field'\n")
        assert not (tmp_path / "o").exists()


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
        ({"field": {"synthetic": {"kind": "uniform"}}},
         "field.synthetic.rows must be an integer, got None"),
        ({"field": {"synthetic": {"kind": "uniform", "rows": 6, "cols": 6, "speed": 1}}},
         "unknown field.synthetic keys: ['speed']"),
        ({"field": {"synthetic": {"kind": "uniform", "rows": "6", "cols": 6}}},
         "field.synthetic.rows must be an integer, got '6'"),
        ({"field": {"synthetic": {"kind": "uniform", "rows": 6, "cols": 6, "u": "1"}}},
         "field.synthetic.u must be a number, got '1'"),
        ({"field": {"synthetic": {"kind": "gyre", "rows": 6, "cols": 6}}},
         "field.synthetic.kind must be one of"),
        ({"field": {"path": "f", "synthetic": {"kind": "uniform", "rows": 6, "cols": 6}}},
         "field must hold exactly one of 'path' and 'synthetic', got keys ['path', 'synthetic']"),
        ({"field": {"synthetic": {"kind": "double_gyre", "rows": 3, "cols": 3}}},
         "field.synthetic.rows and cols must be at least 4 for double_gyre, got 3x3"),
        ({"field": {"synthetic": {"kind": "double_gyre", "rows": 6, "cols": 6, "decay": -1}}},
         "field.synthetic.decay must be >= 0"),
        ({"field": {"synthetic": {"kind": "uniform", "rows": 1, "cols": 6}}},
         "field.synthetic.rows and cols must be at least 2 for uniform, got 1x6"),
        ({"field": {"synthetic": {"kind": "single_gyre", "rows": 6, "cols": 6, "amplitude": 0}}},
         "field.synthetic.amplitude must be nonzero for single_gyre"),
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


class TestNumberBeyondTheFloatRange:
    """A JSON integer too large for a float is no finite number."""

    @pytest.mark.parametrize("change, message", [
        *(({"field": {"synthetic": {"kind": "double_gyre", "rows": 6, "cols": 6,
                                    name: 10**400}}},
           f"field.synthetic.{name} must be finite")
          for name in ("amplitude", "decay", "u", "v")),
        ({"dt": 10**400}, f"dt must be positive and finite, got {10**400}"),
    ], ids=["amplitude", "decay", "u", "v", "dt"])
    def test_one_error_line(self, tmp_path, change, message):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({
            "field": {"path": str(FIXTURE_FIELD)}, "T_list": [5], "runs": 1, **change,
        }))
        proc = run_cli_process(
            "experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
        )
        assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")
        assert not (tmp_path / "o").exists()


class TestInfeasibleRun:
    def test_message_names_the_run(self, tmp_path):
        # Compass noise flips headings the paper model cannot emit; with
        # these seeds run 2 of the first condition is the first infeasible.
        cfg = tmp_path / "noisy.json"
        cfg.write_text(json.dumps({
            "field": {"path": str(FIXTURE_FIELD)}, "T_list": [20], "runs": 20,
            "obs_noise": 0.2,
        }))
        proc = run_cli_process(
            "experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: condition 0 (T=20, mode deterministic, region B(1,2)), run 2: "
            "observation history infeasible at step 2\n"
        )
        assert not (tmp_path / "o").exists()


class TestModuleEntryPoint:
    def test_python_m_driftloc_classify_matches_golden(self, tmp_path):
        out = tmp_path / "dec.json"
        path = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
        proc = subprocess.run(
            [sys.executable, "-m", "driftloc", "classify", "--field", str(FIXTURE_FIELD),
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (GOLDEN_DIR / "classify_fixture.json").read_bytes()


class TestRepeatedCalls:
    """``main`` called again and again in one process, as a script or a
    closed-loop caller does: each call sees only its own arguments."""

    def test_parser_built_once(self, tmp_path, monkeypatch):
        used = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            used.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        for _ in range(3):
            assert run_cli("classify", "--synthetic", "uniform", "--rows", "4",
                           "--cols", "4", "--out", str(tmp_path / "d.json")) == 0
        assert len(used) == 3
        assert all(p is build_parser() for p in used)

    def test_localize_default_prior_after_prob(self, tmp_path):
        field_path, obs_path, x0, _ = TestLocalize()._field_and_obs(tmp_path, r=0.9)
        argv = ["localize", "--field", str(field_path), "--r", "0.9",
                "--x0", str(x0), "--obs", str(obs_path)]
        assert run_cli(*argv, "--pi", "prob", "--out", str(tmp_path / "prob.json")) == 0
        assert run_cli(*argv, "--out", str(tmp_path / "det.json")) == 0
        proc = run_cli_process(*argv, "--out", str(tmp_path / "fresh.json"))
        assert proc.returncode == 0, proc.stderr
        det = (tmp_path / "det.json").read_bytes()
        assert det == (tmp_path / "fresh.json").read_bytes()
        assert det != (tmp_path / "prob.json").read_bytes()

    def test_classify_field_after_synthetic(self, tmp_path):
        assert run_cli("classify", "--synthetic", "double_gyre", "--rows", "4",
                       "--cols", "6", "--out", str(tmp_path / "s.json")) == 0
        out = tmp_path / "dec.json"
        assert run_cli("classify", "--field", str(FIXTURE_FIELD), "--out", str(out)) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "classify_fixture.json").read_bytes()

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("localize", "--synthetic", "uniform", "--x0", "1")
        assert exc.value.code == 2
        assert "--obs" in capsys.readouterr().err
        assert run_cli("classify", "--synthetic", "uniform", "--rows", "4",
                       "--cols", "4", "--out", str(tmp_path / "d.json")) == 0

    @pytest.mark.parametrize("argv", [["--help"], ["localize", "--help"]])
    def test_help_twice_prints_the_same(self, argv, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and "usage: driftloc" in texts[0]


class TestPackageImport:
    def test_import_leaves_cli_unloaded(self):
        # The benchmark's setup_s times this import; the parser, logging and
        # numpy.random (about 6 MiB of max RSS) load on first use instead.
        code = (
            "import sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "import driftloc\n"
            "added = set(sys.modules) - before\n"
            "assert 'driftloc.sim' in added\n"
            "print(sorted(added & {'driftloc.cli', 'argparse', 'logging', 'numpy.random'}))\n"
        )
        path = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


    def test_commands_import_no_test_extras(self, tmp_path):
        # numpy is the one runtime dependency; the test extras are installed
        # beside it wherever the tests run, so a stray import would pass.
        code = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "from driftloc.cli import main\n"
            "field, tmp = sys.argv[1], Path(sys.argv[2])\n"
            "cfg = tmp / 'cfg.json'\n"
            "cfg.write_text(json.dumps({'field': {'path': field}, 'T_list': [5], 'runs': 2}))\n"
            "assert main(['experiment', '--config', str(cfg), '--out-dir', str(tmp)]) == 0\n"
            "run = json.loads((tmp / 'cfg.runs.json').read_text())['runs'][0]\n"
            "(tmp / 'obs.txt').write_text(run['observations'] + '\\n')\n"
            "assert main(['localize', '--field', field, '--x0', str(run['x_init']),\n"
            "             '--obs', str(tmp / 'obs.txt'), '--out', str(tmp / 't.json')]) == 0\n"
            "assert main(['classify', '--field', field, '--out', str(tmp / 'd.json')]) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] in {'scipy', 'jsonschema', 'hypothesis'}))\n"
        )
        path = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
        proc = subprocess.run(
            [sys.executable, "-c", code, str(FIXTURE_FIELD), str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

