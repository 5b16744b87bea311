"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from driftloc import (
    ExperimentConfig,
    HmmModel,
    build_cell_map,
    build_stochastic_map,
    decompose,
    emission_matrix,
    error_report,
    initial_distribution,
    run_experiment,
    sample_trajectory,
    strongly_connected_components,
    synthesize_field,
    viterbi,
    SyntheticFieldSpec,
)
from driftloc.cli import main as cli_main
from closure_reference import reachability
from conftest import (
    CONFIG_DIR, FIXTURE_FIELD, GOLDEN_DIR, SCHEMA_DIR, last_live_slot, make_field,
    random_field,
)
from test_gcm import bool_power_closure
from test_hmm import brute_force_best, path_logprob


def _report(n, name, detail):
    print(f"criterion {n} ({name}): PASS — {detail}")


class TestCriterion1ViterbiOracle:
    def test_viterbi_matches_exhaustive_enumeration(self):
        t0 = time.time()
        rng = np.random.default_rng(20260810)
        n_instances = 0
        while n_instances < 100:
            rows, cols = rng.choice([(3, 3), (3, 4), (4, 4)])
            w, f = random_field(rng, int(rows), int(cols), land_prob=0.12, vmax=1.3)
            r = float(rng.choice([0.7, 0.9]))
            P = build_stochastic_map(build_cell_map(f), r)
            Q = emission_matrix(P)
            x0 = int(rng.choice(w.free_cells))
            mode = "deterministic" if rng.random() < 0.5 else "probabilistic"
            model = HmmModel(P=P, Q=Q, pi=initial_distribution(w, x0, mode))
            T = int(rng.integers(3, 7))
            _, obs = sample_trajectory(P, model.pi, T, seed=rng)
            decoded, logp = viterbi(model, obs)
            oracle = brute_force_best(model, [int(y) for y in obs])
            assert abs(logp - oracle) <= 1e-9, (
                f"instance {n_instances}: viterbi {logp} != oracle {oracle}"
            )
            assert abs(path_logprob(model, decoded, obs) - logp) <= 1e-9
            n_instances += 1
        elapsed = time.time() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
        _report(1, "Viterbi oracle equivalence",
                f"{n_instances} instances exact within 1e-9 in {elapsed:.1f}s")


class TestCriterion2ReachabilityOracle:
    def test_condensation_matches_boolean_powers(self):
        t0 = time.time()
        rng = np.random.default_rng(777)
        n_instances = 0
        while n_instances < 100:
            w, f = random_field(rng, 5, 5, land_prob=0.2, vmax=1.5)
            assert w.n_free <= 25
            P = build_stochastic_map(build_cell_map(f), 0.85)
            dec = decompose(P)
            n = P.n_states
            adj = np.zeros((n, n), dtype=bool)
            for s, row in enumerate(P.targets):
                adj[s, row[row >= 0]] = True
            C = bool_power_closure(adj)

            attractors = [
                frozenset(w.state_of(int(z)) for z in g) for g in dec.persistent_groups
            ]
            for A in attractors:
                inside = np.zeros(n, dtype=bool)
                inside[sorted(A)] = True
                assert C[np.ix_(inside, inside)].all(), "attractor not communicating"
                assert not adj[np.ix_(inside, ~inside)].any(), "attractor not closed"
            # a closed communicating class: a state on a cycle together with
            # everything it reaches, when all of that reaches back to it
            classes = {
                frozenset(np.flatnonzero(C[s]).tolist())
                for s in range(n) if C[s, s] and not (C[s] & ~C[:, s]).any()
            }
            assert set(attractors) == classes, "attractors != closed classes"

            n_transient = 0
            for key, cells in dec.transient_groups.items():
                for z in cells:
                    s = w.state_of(int(z))
                    reached = tuple(
                        i + 1 for i, A in enumerate(attractors) if C[s, min(A)]
                    )
                    assert key == reached, f"state {s}: domiciles {key} != {reached}"
                    n_transient += 1
            assert n_transient + sum(map(len, attractors)) == n
            n_instances += 1
        elapsed = time.time() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
        _report(2, "reachability oracle equivalence",
                f"{n_instances} random maps: attractors and domiciles match "
                f"boolean powers in {elapsed:.1f}s")


def _fixture_suite():
    """Every fixture the stochasticity/partition criterion runs on."""
    fixtures = []
    from driftloc import load_field

    fixtures.append(("shipped double gyre", load_field(FIXTURE_FIELD)))
    fixtures.append(("uniform east", synthesize_field(
        SyntheticFieldSpec(kind="uniform", u=1.0), 6, 9)))
    fixtures.append(("zero field", make_field(5, 5)))
    fixtures.append(("single gyre", synthesize_field(
        SyntheticFieldSpec(kind="single_gyre", decay=1.0), 11, 11)))
    fixtures.append(("saddle", synthesize_field(
        SyntheticFieldSpec(kind="saddle"), 8, 8)))
    rng = np.random.default_rng(1234)
    fixtures.append(("random masked", random_field(rng, 7, 8, land_prob=0.25)))
    return fixtures


class TestCriterion3StochasticityAndPartition:
    def test_row_sums_partition_closure_communication(self):
        t0 = time.time()
        for name, (w, f) in _fixture_suite():
            for r in (0.9, 0.5):
                P = build_stochastic_map(build_cell_map(f), r)
                Q = emission_matrix(P)
                assert np.abs(P.probs.sum(axis=1) - 1.0).max() < 1e-12, name
                assert np.abs(Q.sum(axis=1) - 1.0).max() < 1e-12, name

                dec = decompose(P)
                cells = np.concatenate([dec.persistent_cells, dec.transient_cells])
                assert sorted(cells) == list(w.free_cells), f"{name}: not a partition"

                C = reachability(P)
                adj = P.adjacency()
                for g in dec.persistent_groups:
                    states = {w.state_of(int(z)) for z in g}
                    for s in states:
                        assert set(int(t) for t in adj[s]) <= states, (
                            f"{name}: group not closed"
                        )
                        for s2 in states:
                            assert C[s, s2] and C[s2, s], (
                                f"{name}: group not communicating"
                            )
        elapsed = time.time() - t0
        assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
        _report(3, "stochasticity and partition invariants",
                f"{len(_fixture_suite())} fixtures x 2 r-values in {elapsed:.1f}s")


class TestCriterion4StructuralReproduction:
    def test_double_gyre_two_attractors_three_transient_groups(self, gyre):
        t0 = time.time()
        dec = gyre["decomposition"]
        assert dec.n_groups == 2, f"expected 2 attractors, got {dec.n_groups}"
        keys = list(dec.transient_groups)
        assert len(keys) == 3, f"expected 3 transient groups, got {keys}"
        single = [k for k in keys if len(k) == 1]
        double = [k for k in keys if len(k) == 2]
        assert len(single) == 2 and len(double) == 1, keys
        assert set(single) == {(1,), (2,)} and double == [(1, 2)]
        elapsed = time.time() - t0
        assert elapsed < 5.0
        sizes = [len(g) for g in dec.persistent_groups]
        tsizes = {k: len(v) for k, v in dec.transient_groups.items()}
        _report(4, "structural reproduction",
                f"attractors {sizes}, transient groups {tsizes}")


class TestCriterion5NoiselessLimit:
    def test_r1_deterministic_prior_zero_error(self, gyre):
        t0 = time.time()
        w = gyre["workspace"]
        P = build_stochastic_map(gyre["cell_map"], 1.0)
        Q = emission_matrix(P)
        n_runs = 0
        for T in (20, 50, 100):
            for run in range(50):
                rng = np.random.default_rng(np.random.SeedSequence((5, T, run)))
                x0 = int(w.free_cells[rng.integers(w.n_free)])
                pi = initial_distribution(w, x0, "deterministic")
                true_path, obs = sample_trajectory(P, pi, T, seed=rng)
                model = HmmModel(P=P, Q=Q, pi=pi)
                decoded, logp = viterbi(model, obs)
                rep = error_report(true_path, decoded, w)
                assert rep.final_error == 0.0, f"T={T} run={run}"
                assert rep.trajectory_error == 0.0, f"T={T} run={run}"
                n_runs += 1
        elapsed = time.time() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
        _report(5, "noiseless limit", f"{n_runs} runs all exactly zero in {elapsed:.1f}s")


class TestCriterion6TrendReproduction:
    def test_trajectory_error_grows_and_final_error_stays_low(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        t0 = time.time()
        cfg = ExperimentConfig(
            field={"path": str(FIXTURE_FIELD)},
            r=0.9, modes=("deterministic",),
            T_list=(20, 40, 60, 80, 100), runs=50, base_seed=6,
        )
        res = run_experiment(cfg)
        T_values = [row["T"] for row in res.summary]
        traj_means = [row["traj_mean"] for row in res.summary]
        rho = scipy_stats.spearmanr(T_values, traj_means).statistic
        assert rho >= 0.9, f"Spearman {rho} < 0.9 over {traj_means}"
        final_100 = next(r["final_mean"] for r in res.summary if r["T"] == 100)
        assert final_100 < 3.0, f"mean final error at T=100 is {final_100}"
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        _report(6, "error trend",
                f"Spearman {rho:.3f}, mean final error at T=100 "
                f"{final_100:.2f} cells in {elapsed:.1f}s")


@pytest.fixture()
def schemas():
    jsonschema = pytest.importorskip("jsonschema")
    return {
        "runs": json.loads((SCHEMA_DIR / "experiment_runs.schema.json").read_text()),
        "validate": jsonschema.validate,
    }


class TestCriterion7ProtocolFidelity:
    def test_fig_configs_execute_exact_protocols(self, tmp_path, schemas):
        t0 = time.time()
        expected_rows = {"fig5": 5, "fig6": 5, "fig7": 2}
        expected_runs = {"fig5": 250, "fig6": 100, "fig7": 100}
        for stem in ("fig5", "fig6", "fig7"):
            cfg_path = CONFIG_DIR / f"{stem}.json"
            out1 = tmp_path / f"{stem}_a"
            out2 = tmp_path / f"{stem}_b"
            assert cli_main(["experiment", "--config", str(cfg_path),
                             "--out-dir", str(out1)]) == 0
            assert cli_main(["experiment", "--config", str(cfg_path),
                             "--out-dir", str(out2)]) == 0
            csv1 = (out1 / f"{stem}.summary.csv").read_bytes()
            json1 = (out1 / f"{stem}.runs.json").read_bytes()
            assert csv1 == (out2 / f"{stem}.summary.csv").read_bytes(), stem
            assert json1 == (out2 / f"{stem}.runs.json").read_bytes(), stem
            assert csv1 == (GOLDEN_DIR / f"{stem}.summary.csv").read_bytes(), stem
            assert json1 == (GOLDEN_DIR / f"{stem}.runs.json").read_bytes(), stem

            payload = json.loads(json1)
            schemas["validate"](payload, schemas["runs"])
            assert len(payload["summary"]) == expected_rows[stem], stem
            assert len(payload["runs"]) == expected_runs[stem], stem
            assert len(csv1.decode().strip().splitlines()) == expected_rows[stem] + 1

        # protocol details
        fig6 = json.loads((tmp_path / "fig6_a" / "fig6.runs.json").read_text())
        assert [r["region"] for r in fig6["summary"]] == [
            "B_1", "B_2", "B(1)", "B(2)", "B(1,2)"
        ]
        assert all(r["T"] == 40 and r["runs"] == 20 for r in fig6["summary"])
        fig7 = json.loads((tmp_path / "fig7_a" / "fig7.runs.json").read_text())
        assert sorted(r["mode"] for r in fig7["summary"]) == [
            "deterministic", "probabilistic"
        ]
        assert all(r["T"] == 50 and r["runs"] == 50 for r in fig7["summary"])
        elapsed = time.time() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
        _report(7, "experiment protocol fidelity",
                f"fig5/fig6/fig7 byte-identical, schema-valid in {elapsed:.1f}s")


class TestCriterion8Absorption:
    def test_every_transient_cell_absorbs_into_its_domiciles(self, gyre):
        t0 = time.time()
        w = gyre["workspace"]
        P = gyre["P"]
        dec = gyre["decomposition"]

        group_of = np.zeros(P.n_states, dtype=np.int64)
        for i, g in enumerate(dec.persistent_groups):
            for z in g:
                group_of[w.state_of(int(z))] = i + 1
        domiciles = {}
        for k, cells in dec.transient_groups.items():
            for z in cells:
                domiciles[w.state_of(int(z))] = set(k)

        trans_states = np.array(sorted(domiciles))
        trials = 1000
        max_steps = 1000
        cum = np.cumsum(P.probs, axis=1)
        last = last_live_slot(P)

        state = np.repeat(trans_states, trials)
        reached = np.zeros(len(state), dtype=np.int64)
        rng = np.random.default_rng(88)
        for _ in range(max_steps):
            active = np.flatnonzero(reached == 0)
            if len(active) == 0:
                break
            s = state[active]
            u = rng.random(len(s))
            k = (u[:, None] >= cum[s]).sum(axis=1)
            k = np.minimum(k, last[s])
            nxt = P.targets[s, k]
            state[active] = nxt
            g = group_of[nxt]
            reached[active[g > 0]] = g[g > 0]

        reached = reached.reshape(len(trans_states), trials)
        frac = (reached > 0).mean(axis=1)
        worst = float(frac.min())
        assert worst >= 0.99, f"worst absorption fraction {worst}"
        for i, s in enumerate(trans_states):
            got = set(int(g) for g in np.unique(reached[i])) - {0}
            assert got <= domiciles[int(s)], (
                f"state {int(s)} reached {got}, domiciles {domiciles[int(s)]}"
            )
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        _report(8, "absorption",
                f"{len(trans_states)} transient cells x {trials} trials, "
                f"worst absorption {worst:.4f}, domiciles consistent, "
                f"{elapsed:.1f}s")
