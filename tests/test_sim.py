import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from driftloc import (
    CellIndexError,
    ConfigError,
    Direction,
    ExperimentConfig,
    build_cell_map,
    build_stochastic_map,
    ZeroProbabilityError,
    decompose,
    initial_distribution,
    load_field,
    run_experiment,
    sample_runs,
    save_field,
)
from conftest import CONFIG_DIR, REPO_ROOT, make_field, random_field, sample_run, slot_layout
from driftloc import sim
from driftloc.ingest import resolve_field
from driftloc.sim import error_reports


def chain_for(field_pair, r, dt=None):
    w, f = field_pair
    return w, build_stochastic_map(build_cell_map(f, dt=dt), r)


class TestSampleTrajectory:
    def test_deterministic_at_r1(self):
        rng = np.random.default_rng(6)
        w, f = random_field(rng, 5, 5, vmax=1.5)
        w, P = chain_for((w, f), 1.0)
        pi = initial_distribution(w, int(w.free_cells[4]), "deterministic")
        path, obs = sample_run(P, pi, 10, seed=1)
        # every step follows the unique supported transition
        S = slot_layout(P)
        for t in range(10):
            s = w.state_of(path[t])
            (k,) = np.flatnonzero(S.targets[s] >= 0)
            assert S.targets[s, k] == w.state_of(path[t + 1])
            assert S.probs[s, k] == 1.0

    def test_identity_chain_constant_path(self):
        w, P = chain_for(make_field(4, 4), 0.9)
        pi = initial_distribution(w, 6, "deterministic")
        path, obs = sample_run(P, pi, 8, seed=3)
        assert path == [6] * 9
        assert obs == [Direction.IDLE] * 8

    def test_lengths_and_reproducibility(self):
        rng = np.random.default_rng(9)
        w, f = random_field(rng, 5, 6, land_prob=0.1)
        w, P = chain_for((w, f), 0.8)
        pi = initial_distribution(w, int(w.free_cells[0]), "probabilistic")
        p1, o1 = sample_run(P, pi, 25, seed=42)
        p2, o2 = sample_run(P, pi, 25, seed=42)
        p3, _ = sample_run(P, pi, 25, seed=43)
        assert len(p1) == 26 and len(o1) == 25
        assert p1 == p2 and o1 == o2
        assert p1 != p3

    def test_empirical_step_frequencies_match_row(self):
        # multinomial concentration: 10^4 single-step draws from one interior
        # cell stay within 3 sigma of the row of P
        w, f = make_field(7, 7, u=0.4, v=0.9)
        w, P = chain_for((w, f), 0.9, dt=1.0)
        z = w.index(3, 3)
        pi = initial_distribution(w, z, "deterministic")
        n = 10_000
        counts = {}
        for i in range(n):
            path, _ = sample_run(P, pi, 1, seed=(1000, i))
            counts[path[1]] = counts.get(path[1], 0) + 1
        s = w.state_of(z)
        S = slot_layout(P)
        for k in np.flatnonzero(S.targets[s] >= 0):
            target = int(w.free_cells[S.targets[s, k]])
            p = S.probs[s, k]
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(target, 0) / n - p) <= 3 * sigma

    def test_observation_noise_flips_symbols(self):
        w, P = chain_for(make_field(4, 4), 0.9)
        pi = initial_distribution(w, 6, "deterministic")
        _, clean = sample_run(P, pi, 200, seed=5)
        _, noisy = sample_run(P, pi, 200, seed=5, obs_noise=0.3)
        flips = sum(a != b for a, b in zip(clean, noisy))
        assert 30 <= flips <= 90  # ~60 expected
        assert all(0 <= y < 9 for y in noisy)


class TestErrorReport:
    def test_identical_paths(self):
        w, _ = make_field(4, 4)
        assert errors_of([1, 2, 3], [1, 2, 3], w) == (0.0, 0.0)

    def test_constant_one_cell_offset(self):
        w, _ = make_field(5, 30)
        true_path = [w.index(2, c) for c in range(21)]
        decoded = [true_path[0]] + [w.index(2, c + 1) for c in range(1, 21)]
        final, traj = errors_of(true_path, decoded, w)
        assert final == 1.0
        assert traj == pytest.approx(20.0)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(14)
        w, _ = make_field(5, 5)
        for _ in range(20):
            a = rng.integers(1, 26, size=9).tolist()
            b = rng.integers(1, 26, size=9).tolist()
            final, traj = errors_of(a, b, w)
            # second route: raw coordinate arithmetic
            dist = []
            for za, zb in zip(a[1:], b[1:]):
                ra, ca = divmod(za - 1, 5)
                rb, cb = divmod(zb - 1, 5)
                dist.append(math.hypot(ra - rb, ca - cb))
            assert traj == pytest.approx(sum(dist))
            assert final == pytest.approx(dist[-1])
            assert traj >= final >= 0.0

    def test_length_mismatch(self):
        w, _ = make_field(3, 3)
        with pytest.raises(ValueError):
            errors_of([1, 2], [1, 2, 3], w)

    def test_out_of_range_cell(self):
        w, _ = make_field(3, 3)
        with pytest.raises(CellIndexError, match="cell index 10 "):
            errors_of([1, 2, 3], [1, 10, 0], w)
        with pytest.raises(CellIndexError, match="cell index 0 "):
            errors_of([1, 2, 3], [1, 2, 0], w)

    def test_trajectory_error_adds_left_to_right(self):
        # These step distances sum to different doubles left to right and
        # compensated (math.fsum, and builtin sum() from CPython 3.12 on).
        # The reports add left to right on every Python version.
        w, _ = make_field(10, 10)
        a = [86, 64, 52, 27, 31, 5, 8, 2, 18]
        b = [82, 65, 92, 51, 61, 98, 73, 64, 55]
        want = sequential_report(a, b, 10)
        assert want[1] != math.fsum(step_distances(a, b, 10))
        assert errors_of(a, b, w) == want

    def test_group_rows_equal_sequential_recomputation(self):
        rng = np.random.default_rng(15)
        w, _ = make_field(6, 7)
        for T in (0, 1, 12, 100):
            a = rng.integers(1, w.n_cells + 1, size=(5, T + 1))
            b = rng.integers(1, w.n_cells + 1, size=(5, T + 1))
            final, traj = error_reports(a, b, w)
            assert list(zip(final.tolist(), traj.tolist())) == [
                sequential_report(x, y, w.cols) for x, y in zip(a.tolist(), b.tolist())
            ]


def step_distances(a, b, cols):
    steps = []
    for za, zb in zip(a[1:], b[1:]):
        (ra, ca), (rb, cb) = divmod(za - 1, cols), divmod(zb - 1, cols)
        steps.append(math.hypot(ra - rb, ca - cb))
    return steps


def sequential_report(a, b, cols):
    """The report of two paths with its step distances added left to right."""
    steps = step_distances(a, b, cols)
    total = 0.0
    for d in steps:
        total += d
    return (steps[-1] if steps else 0.0, total)


def errors_of(true_path, decoded_path, w):
    """The (final, trajectory) errors of one run, from a group of one."""
    final, traj = error_reports([true_path], [decoded_path], w)
    return final.item(), traj.item()


class TestExperimentConfig:
    def test_from_dict_validates(self):
        cfg = ExperimentConfig.from_dict({
            "field": {"synthetic": {"kind": "uniform", "rows": 4, "cols": 4}},
            "T_list": [5], "runs": 2,
        })
        assert cfg.r == 0.9

    @pytest.mark.parametrize("patch", [
        {"r": 1.5},
        {"modes": ["bayesian"]},
        {"T_list": []},
        {"T_list": [0]},
        {"runs": 0},
        {"initial": "everywhere"},
        {"field": {}},
        {"regions": ["B_1"]},
        {"obs_noise": 1.0},
        {"dt": math.nan},
        {"dt": math.inf},
        {"initial": 50, "group_by_region": True},
        {"field": {"path": "x.field", "synthetic": {"kind": "uniform", "rows": 4, "cols": 4}}},
        {"field": {"synthetic": {"kind": "uniform", "rows": 4, "cols": 4}, "pth": "typo"}},
        {"regions": [], "group_by_region": True},
        {"field": {"synthetic": {"kind": "double_gyre", "rows": 3, "cols": 3}}},
        {"field": {"synthetic": {"kind": "uniform", "rows": 4, "cols": 4, "decay": -1}}},
        {"field": {"synthetic": {"kind": "uniform", "rows": 1, "cols": 4}}},
        {"field": {"synthetic": {"kind": "single_gyre", "rows": 4, "cols": 4, "amplitude": 0}}},
    ])
    def test_invalid_configs_rejected(self, patch):
        base = {
            "field": {"synthetic": {"kind": "uniform", "rows": 4, "cols": 4}},
            "T_list": [5], "runs": 2,
        }
        base.update(patch)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base)

    def test_frozen_and_checked_again_on_replace(self):
        cfg = ExperimentConfig.from_dict({"field": {"path": "x.field"}, "runs": 3})
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.runs = 0
        with pytest.raises(ConfigError, match="^runs must be >= 1$"):
            dataclasses.replace(cfg, runs=0)
        assert dataclasses.replace(cfg, runs=4).runs == 4

    def test_field_source_cannot_change_after_the_check(self):
        synth = {"kind": "double_gyre", "rows": 9, "cols": 13}
        source = {"synthetic": dict(synth)}
        cfg = ExperimentConfig(field=source, runs=3)
        source["synthetic"]["rows"] = 3
        assert cfg.field["synthetic"]["rows"] == 9
        with pytest.raises(TypeError):
            cfg.field["synthetic"]["rows"] = 3
        with pytest.raises(TypeError):
            cfg.field["path"] = "x.field"
        assert dataclasses.replace(cfg, runs=4).field == cfg.field
        assert cfg.to_dict()["field"] == {"synthetic": synth}
        assert type(cfg.to_dict()["field"]["synthetic"]) is dict

    def test_negative_seed_rejected_by_name(self):
        # SeedSequence rejects a negative entropy only inside run_experiment,
        # with a message that names no key.
        with pytest.raises(ConfigError, match="^base_seed must be a non-negative integer, got -1$"):
            ExperimentConfig.from_dict({"field": {"path": "x.field"}, "base_seed": -1})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"field": {"path": "x"}, "bogus": 1})

    def test_dict_roundtrip(self):
        cfg = ExperimentConfig(
            field={"synthetic": {"kind": "saddle", "rows": 5, "cols": 5}},
            r=0.8, dt=0.5, modes=("deterministic", "probabilistic"),
            T_list=(5, 10), runs=3, base_seed=11, initial=7,
            group_by_region=False, obs_noise=0.05,
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


class TestRunExperiment:
    def cfg(self, **kw):
        base = dict(
            field={"synthetic": {"kind": "double_gyre", "decay": 2.0,
                                 "rows": 9, "cols": 13}},
            r=0.9, T_list=(5, 10), runs=4, base_seed=7,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_summary_shape_and_reproducibility(self):
        res1 = run_experiment(self.cfg())
        res2 = run_experiment(self.cfg())
        assert res1.to_csv() == res2.to_csv()
        assert res1.to_json() == res2.to_json()
        assert len(res1.summary) == 2
        assert [row["T"] for row in res1.summary] == [5, 10]
        assert len(res1.runs) == 8

    def test_different_seed_changes_runs(self):
        res1 = run_experiment(self.cfg())
        res2 = run_experiment(self.cfg(base_seed=8))
        assert res1.to_json() != res2.to_json()

    def test_noiseless_deterministic_sanity(self):
        res = run_experiment(self.cfg(r=1.0, T_list=(8,), runs=6))
        for row in res.summary:
            assert row["final_max"] == 0.0
            assert row["traj_max"] == 0.0

    def test_run_record_invariants(self):
        res = run_experiment(self.cfg(T_list=(6,), runs=3))
        for rec in res.runs:
            assert len(rec["observations"].split()) == 6
            assert len(rec["true_path"]) == 7
            assert len(rec["decoded_path"]) == 7
            assert rec["trajectory_error"] >= rec["final_error"] >= 0.0

    def test_per_region_grouping(self):
        cfg = self.cfg(
            field={"synthetic": {"kind": "double_gyre", "decay": 2.5,
                                 "rows": 11, "cols": 15}},
            T_list=(5,), runs=3, group_by_region=True,
            regions=("B_1", "B_2", "B(1)", "B(2)", "B(1,2)"),
        )
        res = run_experiment(cfg)
        assert [row["region"] for row in res.summary] == list(cfg.regions)
        dec = decompose(chain_for(resolve_field(cfg.field), cfg.r, cfg.dt)[1])
        for rec in res.runs:
            assert rec["x_init"] in [int(z) for z in dec.region_cells(rec["region"])]

    def test_fixed_initial_cell(self):
        res = run_experiment(self.cfg(initial=50, T_list=(4,), runs=3))
        assert all(rec["x_init"] == 50 for rec in res.runs)

    def test_land_initial_rejected(self, tmp_path):
        land = np.zeros((5, 6), dtype=bool)
        land[0, :2] = True  # cells 1 and 2
        _, field = make_field(5, 6, u=0.4, v=-0.3, land=land)
        save_field(tmp_path / "coast.field", field)
        cfg = self.cfg(initial=2, field={"path": str(tmp_path / "coast.field")})
        with pytest.raises(ConfigError, match=r"initial cell .* is land"):
            run_experiment(cfg)

    def test_summary_leaves_numpy_ma_unimported(self):
        # np.median would import numpy.ma (about 1.2 MiB) for its NaN check.
        code = (
            "import sys\n"
            "from driftloc import ExperimentConfig, run_experiment\n"
            "run_experiment(ExperimentConfig(field={'synthetic': {'kind': 'double_gyre',"
            " 'rows': 9, 'cols': 13}}, T_list=(5, 6), runs=4))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    @pytest.mark.parametrize("runs", [1, 2, 5, 6])
    def test_summary_median_matches_numpy(self, runs):
        res = run_experiment(self.cfg(T_list=(12,), runs=runs))
        for column, key in (("final_median", "final_error"), ("traj_median", "trajectory_error")):
            errors = [rec[key] for rec in res.runs]
            assert res.summary[0][column] == float(np.median(errors))


class TestSampleRuns:
    """A lockstep group samples what each of its runs samples alone."""

    @staticmethod
    def assert_matches_single_runs(P, pis, T, seeds, obs_noise):
        cells, obs = sample_runs(
            P, pis, T, [np.random.default_rng(s) for s in seeds], obs_noise
        )
        assert cells.shape == (len(pis), T + 1) and obs.shape == (len(pis), T)
        for r, (pi, seed) in enumerate(zip(pis, seeds)):
            single = sample_run(P, pi, T, seed, obs_noise=obs_noise)
            assert (cells[r].tolist(), obs[r].tolist()) == single, r

    @pytest.mark.parametrize("obs_noise", [0.0, 0.2])
    def test_fixture_groups(self, gyre, obs_noise):
        w, P = gyre["workspace"], gyre["P"]
        for R, T in ((1, 1), (2, 7), (13, 40), (20, 100)):
            seeds = [np.random.SeedSequence((R, T, i)) for i in range(R)]
            pis = [
                initial_distribution(w, int(w.free_cells[(97 * i) % w.n_free]),
                                     ("deterministic", "probabilistic")[i % 2])
                for i in range(R)
            ]
            self.assert_matches_single_runs(P, pis, T, seeds, obs_noise)

    @pytest.mark.parametrize("obs_noise", [0.0, 0.2])
    def test_random_fields_with_land(self, obs_noise):
        rng = np.random.default_rng(62)
        for trial in range(20):
            w, f = random_field(rng, 5, 6, land_prob=0.25, vmax=2.0)
            w, P = chain_for((w, f), float(rng.choice([0.6, 0.9, 1.0])))
            R = int(rng.integers(1, 9))
            pis = [initial_distribution(w, int(rng.choice(w.free_cells)), "probabilistic")
                   for _ in range(R)]
            seeds = [int(s) for s in rng.integers(2**32, size=R)]
            self.assert_matches_single_runs(P, pis, int(rng.integers(1, 41)), seeds, obs_noise)


class TestLockstepExperiment:
    def test_infeasible_run_keeps_its_step(self):
        cfg = ExperimentConfig.from_dict({
            "field": {"path": str(CONFIG_DIR.parent / "fixtures" / "double_gyre_21x29.field")},
            "T_list": [20], "runs": 20, "obs_noise": 0.2,
        })
        with pytest.raises(ZeroProbabilityError) as exc:
            run_experiment(cfg)
        assert (exc.value.step, exc.value.run) == (2, 2)
        assert str(exc.value) == (
            "condition 0 (T=20, mode deterministic, region B(1,2)), run 2: "
            "observation history infeasible at step 2"
        )

    def test_result_does_not_depend_on_group_size(self, monkeypatch):
        # 15 runs a condition: groups of one run, of five (5, 5, 5), of the
        # default 13 (13, 2) and of all 15.
        fixture = CONFIG_DIR.parent / "fixtures" / "double_gyre_21x29.field"
        cfg = ExperimentConfig.from_dict({
            "field": {"path": str(fixture)},
            "modes": ["deterministic", "probabilistic"], "T_list": [4, 9], "runs": 15,
            "base_seed": 3, "group_by_region": True,
        })
        want = run_experiment(cfg)
        assert (len(want.summary), len(want.runs)) == (20, 300)  # five regions
        for states in (1, 5 * load_field(fixture)[0].n_free, 10**9):
            monkeypatch.setattr(sim, "_GROUP_STATES", states)
            got = run_experiment(cfg)
            assert got.to_json() == want.to_json()
            assert got.to_csv() == want.to_csv()

    def test_fig5_longest_condition_memory(self):
        # The fig5 protocol at T = 100: 50 runs, decoded 13 at a time.  One
        # group of all 50 peaks near 8 MiB; groups of 13 stay near 3.5 MiB.
        raw = json.loads((CONFIG_DIR / "fig5.json").read_text())
        raw["T_list"] = [100]
        cfg = ExperimentConfig.from_dict(raw)
        tracemalloc.start()
        try:
            res = run_experiment(cfg, CONFIG_DIR)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.runs) == 50
        assert peak < 5 * 2**20, f"run_experiment peaked at {peak / 2**20:.1f} MiB"
