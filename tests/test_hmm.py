import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftloc import (
    Direction,
    HmmModel,
    LandCellError,
    SyntheticFieldSpec,
    Workspace,
    ZeroProbabilityError,
    build_cell_map,
    build_stochastic_map,
    emission_matrix,
    initial_distribution,
    synthesize_field,
    viterbi,
)
from conftest import gyre_with_land, make_field, packed, random_field, sample_run
from dense_reference import dense_viterbi, loop_emission_matrix


def model_for(field_pair, r, x_init, mode="deterministic", dt=None):
    w, f = field_pair
    P = build_stochastic_map(build_cell_map(f, dt=dt), r)
    return HmmModel(P=P, pi=initial_distribution(w, x_init, mode))


def log_tables(model):
    """Log tables built from the model's public arrays only.

    Returns ({successor state: log P} per state, log Q, log pi); the
    successors are the positive-probability slots of P's rows.
    """
    with np.errstate(divide="ignore"):
        logP = [
            {int(t): float(np.log(p)) for t, p in zip(row_t, row_p) if t >= 0 and p > 0}
            for row_t, row_p in zip(model.P.targets, model.P.probs)
        ]
        return logP, np.log(model.Q), np.log(model.pi)


def brute_force_best(model, obs):
    """Oracle: exhaustive enumeration of every feasible state sequence."""
    logP, logQ, logpi = log_tables(model)
    T = len(obs)
    best = -math.inf

    def walk(t, s, acc):
        nonlocal best
        if t == T:
            best = max(best, acc)
            return
        e = logQ[s, obs[t]]
        if not np.isfinite(e):
            return
        for s2, lp in logP[s].items():
            walk(t + 1, s2, acc + e + lp)

    for s0 in np.flatnonzero(np.isfinite(logpi)):
        walk(0, int(s0), float(logpi[s0]))
    return best


def path_logprob(model, cells, obs):
    """Log score of one explicit trajectory under the model."""
    logP, logQ, logpi = log_tables(model)
    w = model.workspace
    states = [w.state_of(z) for z in cells]
    total = logpi[states[0]]
    for t, y in enumerate(obs):
        total += logQ[states[t], int(y)] + logP[states[t]].get(states[t + 1], -math.inf)
    return float(total)


class TestEmissionMatrix:
    def test_deterministic_east(self):
        w, f = make_field(4, 4, u=1.0)
        smap = build_stochastic_map(build_cell_map(f), 1.0)
        Q = emission_matrix(smap)
        s = w.state_of(w.index(1, 1))
        assert Q[s, Direction.E] == 1.0
        assert Q[s].sum() == 1.0

    def test_interior_stencil_row(self):
        # image N with r = 0.9 and a 4-cell endpoint stencil: N carries 0.9,
        # IDLE / E / NE carry (1-r)/3 each.
        w, f = make_field(5, 5, u=0.4, v=0.9)
        smap = build_stochastic_map(build_cell_map(f, dt=1.0), 0.9)
        Q = emission_matrix(smap)
        s = w.state_of(w.index(2, 2))
        assert Q[s, Direction.N] == pytest.approx(0.9)
        for d in (Direction.IDLE, Direction.E, Direction.NE):
            assert Q[s, d] == pytest.approx(0.1 / 3)
        for d in (Direction.S, Direction.W, Direction.SW, Direction.SE, Direction.NW):
            assert Q[s, d] == 0.0

    def test_colliding_corner_four_quarter_entries(self):
        w, f = make_field(4, 4, u=-0.7, v=-0.7)
        smap = build_stochastic_map(build_cell_map(f, dt=1.0), 0.9)
        Q = emission_matrix(smap)
        s = w.state_of(1)
        nz = {Direction(d): Q[s, d] for d in np.flatnonzero(Q[s] > 0)}
        assert nz == {
            Direction.IDLE: 0.25, Direction.N: 0.25,
            Direction.E: 0.25, Direction.NE: 0.25,
        }

    def test_rows_stochastic(self):
        rng = np.random.default_rng(2)
        w, f = random_field(rng, 5, 6, land_prob=0.15)
        smap = build_stochastic_map(build_cell_map(f), 0.85)
        Q = emission_matrix(smap)
        assert np.abs(Q.sum(axis=1) - 1.0).max() < 1e-12


class TestInitialDistribution:
    def test_deterministic_point_mass(self):
        w, _ = make_field(4, 4)
        pi = initial_distribution(w, 6, "deterministic")
        assert pi[w.state_of(6)] == 1.0
        assert pi.sum() == 1.0

    def test_probabilistic_interior_ninth(self):
        w, _ = make_field(4, 4)
        pi = initial_distribution(w, w.index(1, 1), "probabilistic")
        assert np.count_nonzero(pi) == 9
        np.testing.assert_allclose(pi[pi > 0], 1 / 9)

    def test_probabilistic_corner_quarter(self):
        w, _ = make_field(4, 4)
        pi = initial_distribution(w, 1, "probabilistic")
        assert np.count_nonzero(pi) == 4
        assert pi[w.state_of(1)] == 0.25

    def test_land_start_rejected(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        w = Workspace(rows=3, cols=3, land_mask=mask)
        with pytest.raises(LandCellError):
            initial_distribution(w, 1, "deterministic")

    def test_unknown_mode(self):
        w, _ = make_field(3, 3)
        with pytest.raises(ValueError):
            initial_distribution(w, 1, "exact")


class TestViterbi:
    def test_noiseless_chain_recovers_truth(self):
        rng = np.random.default_rng(8)
        w, f = random_field(rng, 5, 5, vmax=1.5)
        model = model_for((w, f), 1.0, int(w.free_cells[7]))
        true_path, obs = sample_run(model.P, model.pi, 12, seed=4)
        decoded, logp = viterbi(model, obs)
        assert decoded == true_path
        assert logp == 0.0

    def test_single_step_point_mass(self):
        w, f = make_field(4, 4, u=1.0)
        x0 = w.index(1, 1)
        model = model_for((w, f), 1.0, x0)
        decoded, logp = viterbi(model, [Direction.E])
        assert decoded == [x0, w.index(1, 2)]
        assert logp == 0.0

    def test_identity_chain_all_idle(self):
        w, f = make_field(4, 4)
        x0 = w.index(2, 2)
        model = model_for((w, f), 0.9, x0)
        decoded, _ = viterbi(model, [Direction.IDLE] * 6)
        assert decoded == [x0] * 7
        assert decoded[-1] == x0

    def test_uniform_east_shifts_then_clamps(self):
        w, f = make_field(3, 6, u=1.0)
        x0 = w.index(1, 2)
        model = model_for((w, f), 1.0, x0)
        true_path, obs = sample_run(model.P, model.pi, 5, seed=0)
        decoded, _ = viterbi(model, obs)
        assert decoded == true_path
        # east run of 3, then pinned at the east edge
        assert decoded[-1] == w.index(1, 5)

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            w, f = random_field(rng, 4, 4, land_prob=0.1, vmax=1.3)
            r = float(rng.choice([0.7, 0.9]))
            x0 = int(rng.choice(w.free_cells))
            mode = "deterministic" if trial % 2 else "probabilistic"
            model = model_for((w, f), r, x0, mode)
            T = int(rng.integers(2, 6))
            true_path, obs = sample_run(model.P, model.pi, T, seed=trial)
            decoded, logp = viterbi(model, obs)
            assert logp == pytest.approx(brute_force_best(model, obs), abs=1e-9)
            assert path_logprob(model, decoded, obs) == pytest.approx(logp, abs=1e-9)

    def test_dominates_ground_truth(self):
        rng = np.random.default_rng(12)
        w, f = random_field(rng, 6, 6, vmax=1.5)
        model = model_for((w, f), 0.8, int(w.free_cells[10]), "probabilistic")
        for seed in range(5):
            true_path, obs = sample_run(model.P, model.pi, 15, seed=seed)
            decoded, logp = viterbi(model, obs)
            assert logp >= path_logprob(model, true_path, obs) - 1e-12

    def test_decoded_transitions_feasible(self):
        rng = np.random.default_rng(40)
        w, f = random_field(rng, 6, 6, vmax=2.0)
        model = model_for((w, f), 0.8, int(w.free_cells[3]), "probabilistic")
        true_path, obs = sample_run(model.P, model.pi, 20, seed=2)
        decoded, _ = viterbi(model, obs)
        successors, _, _ = log_tables(model)
        for t in range(len(obs)):
            s = model.workspace.state_of(decoded[t])
            s2 = model.workspace.state_of(decoded[t + 1])
            assert model.Q[s, int(obs[t])] > 0.0
            assert s2 in successors[s]

    def test_zero_probability_carries_step(self):
        w, f = make_field(3, 5, u=1.0)
        model = model_for((w, f), 1.0, w.index(1, 0))
        with pytest.raises(ZeroProbabilityError) as exc:
            viterbi(model, [Direction.E, Direction.E, Direction.W])
        assert exc.value.step == 3

    def test_empty_history_rejected(self):
        w, f = make_field(3, 3)
        model = model_for((w, f), 0.9, 1)
        with pytest.raises(ValueError):
            viterbi(model, [])

    def test_model_validation(self):
        w, f = make_field(3, 3)
        P = build_stochastic_map(build_cell_map(f), 0.9)
        for bad in (np.full(9, 0.2), np.full(10, 0.1), np.full(8, 0.125)):
            with pytest.raises(ValueError, match="initial distribution"):
                HmmModel(P=P, pi=bad)


def decode_outcome(decoder, model, obs):
    """(path, log prob), or ("infeasible", step) if the decoder raises."""
    try:
        return decoder(model, obs)
    except ZeroProbabilityError as exc:
        return ("infeasible", exc.step)


class TestDenseReferenceBitExact:
    """The sparse decoder reproduces the dense n x n decoder bit for bit."""

    def test_emission_matches_per_slot_loop(self, gyre):
        rng = np.random.default_rng(5)
        smaps = [build_stochastic_map(gyre["cell_map"], r) for r in (0.7, 0.9, 1.0)]
        for _ in range(10):
            w, f = random_field(rng, 6, 7, land_prob=0.25, vmax=2.0)
            smaps.append(build_stochastic_map(build_cell_map(f), float(rng.choice([0.6, 0.9]))))
        for smap in smaps:
            w = smap.workspace
            model = HmmModel(P=smap, pi=initial_distribution(w, int(w.free_cells[0]),
                                                             "deterministic"))
            # the frozen loop stops at a row's first empty slot: give it packed rows
            want = loop_emission_matrix(packed(smap)).tobytes()
            assert emission_matrix(smap).tobytes() == want
            assert model.Q.tobytes() == want

    def test_fixture_runs(self, gyre):
        w = gyre["workspace"]
        infeasible = 0
        for r in (0.7, 0.9, 1.0):
            P = build_stochastic_map(gyre["cell_map"], r)
            for mode in ("deterministic", "probabilistic"):
                for T in (20, 50):
                    for run in range(4):
                        seq = np.random.SeedSequence((round(10 * r), T, run))
                        rng = np.random.default_rng(seq)
                        x0 = int(w.free_cells[rng.integers(w.n_free)])
                        pi = initial_distribution(w, x0, mode)
                        # odd runs flip symbols, which makes many histories infeasible
                        _, obs = sample_run(P, pi, T, rng, obs_noise=0.1 * (run % 2))
                        model = HmmModel(P=P, pi=pi)
                        got = decode_outcome(viterbi, model, obs)
                        assert got == decode_outcome(dense_viterbi, model, obs), (r, mode, T, run)
                        infeasible += got[0] == "infeasible"
        assert 0 < infeasible < 24

    def test_random_fields_with_land(self):
        rng = np.random.default_rng(2024)
        steps = set()
        for trial in range(40):
            rows, cols = (int(v) for v in rng.integers(3, 9, size=2))
            w, f = random_field(rng, rows, cols, land_prob=0.25, vmax=2.0)
            r = float(rng.choice([0.6, 0.8, 0.95, 1.0]))
            mode = "deterministic" if trial % 2 else "probabilistic"
            model = model_for((w, f), r, int(rng.choice(w.free_cells)), mode)
            T = int(rng.integers(1, 30))
            if trial % 3:
                _, obs = sample_run(model.P, model.pi, T, rng)
            else:
                obs = [int(y) for y in rng.integers(0, 9, size=T)]
            got = decode_outcome(viterbi, model, obs)
            assert got == decode_outcome(dense_viterbi, model, obs), trial
            if got[0] == "infeasible":
                steps.add(got[1])
        assert len(steps) >= 2

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(3, 3), (3, 4), (4, 3), (4, 4)]),
        land_prob=st.sampled_from([0.0, 0.15, 0.3]),
        r=st.sampled_from([0.6, 0.9, 1.0]),
        mode=st.sampled_from(["deterministic", "probabilistic"]),
        T=st.integers(1, 4),
        sampled=st.booleans(),
    )
    def test_decode_equals_exhaustive_enumeration(self, seed, shape, land_prob, r, mode, T, sampled):
        rng = np.random.default_rng(seed)
        w, f = random_field(rng, *shape, land_prob=land_prob, vmax=1.5)
        model = model_for((w, f), r, int(rng.choice(w.free_cells)), mode)
        if sampled:
            _, obs = sample_run(model.P, model.pi, T, rng)
        else:
            obs = [int(y) for y in rng.integers(0, 9, size=T)]
        best = brute_force_best(model, obs)
        if best == -math.inf:
            with pytest.raises(ZeroProbabilityError):
                viterbi(model, obs)
        else:
            decoded, logp = viterbi(model, obs)
            assert logp == pytest.approx(best, abs=1e-9)
            assert path_logprob(model, decoded, obs) == pytest.approx(logp, abs=1e-9)


class TestMemory:
    def test_decode_allocates_no_n_squared_table(self):
        # 4 800 states: a dense log transition table alone would be 184 MB
        w, f = synthesize_field(SyntheticFieldSpec(kind="double_gyre", decay=2.0), 60, 80)
        P = build_stochastic_map(build_cell_map(f), 0.9)
        pi = initial_distribution(w, w.index(40, 20), "probabilistic")
        _, obs = sample_run(P, pi, 50, seed=3)
        tracemalloc.start()
        try:
            cells, _ = viterbi(HmmModel(P=P, pi=pi), obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells) == 51
        assert peak < 16 * 2**20, f"HmmModel + viterbi peaked at {peak / 2**20:.1f} MiB"

    def test_model_derives_q_only_when_read(self):
        # The decoder reads only log Q by symbol, so the model keeps no
        # (n, 9) emission table until Q itself is asked for.
        P = build_stochastic_map(build_cell_map(gyre_with_land(100, 130, 0)), 0.9)
        pi = np.full(P.n_states, 1.0 / P.n_states)
        table = P.n_states * 9 * 8
        tracemalloc.start()
        try:
            model = HmmModel(P, pi)
            built, _ = tracemalloc.get_traced_memory()
            Q = model.Q
            read, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        own = sum(a.nbytes for name, a in vars(model).items()
                  if name != "Q" and isinstance(a, np.ndarray) and a.base is None and a is not pi)
        assert built < own + table // 2, f"holds {built / 2**20:.2f} MiB, tables {own / 2**20:.2f}"
        assert read - built >= table
        assert model.Q is Q
        assert Q.tobytes() == emission_matrix(P).tobytes()
