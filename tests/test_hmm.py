import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftloc import (
    Direction,
    LandCellError,
    SyntheticFieldSpec,
    Workspace,
    ZeroProbabilityError,
    build_cell_map,
    build_stochastic_map,
    decompose,
    initial_distribution,
    synthesize_field,
    viterbi,
    viterbi_runs,
)
from conftest import (
    emission_matrix, gyre_with_land, make_field, oracle_model, random_field, sample_run,
    slot_layout,
)
from dense_reference import dense_viterbi, loop_emission_matrix


def model_for(field_pair, r, x_init, mode="deterministic", dt=None):
    """The field's chain and the prior of one start cell."""
    w, f = field_pair
    P = build_stochastic_map(build_cell_map(f, dt=dt), r)
    return P, initial_distribution(w, x_init, mode)


def log_tables(model):
    """Log tables built from the public arrays of an ``oracle_model``.

    Returns ({successor state: log P} per state, log Q, log pi); the
    successors are the positive-probability slots of P's rows.
    """
    with np.errstate(divide="ignore"):
        logP = [
            {int(t): float(np.log(p)) for t, p in zip(row_t, row_p) if t >= 0 and p > 0}
            for row_t, row_p in zip(model.P.targets, model.P.probs)
        ]
        return logP, np.log(model.Q), np.log(model.pi)


def feasible_paths(model, obs):
    """Oracle: every feasible state sequence of an ``oracle_model``, with its
    log score, in lexicographic order of the states."""
    logP, logQ, logpi = log_tables(model)
    T = len(obs)

    def walk(t, path, acc):
        if t == T:
            yield path, acc
            return
        s = path[-1]
        e = logQ[s, obs[t]]
        if not np.isfinite(e):
            return
        for s2, lp in sorted(logP[s].items()):
            yield from walk(t + 1, path + [s2], acc + e + lp)

    for s0 in np.flatnonzero(np.isfinite(logpi)):
        yield from walk(0, [int(s0)], float(logpi[s0]))


def brute_force_best(model, obs):
    """Oracle: the best log score over every feasible state sequence of an
    ``oracle_model``, -inf if there is none."""
    return max((acc for _, acc in feasible_paths(model, obs)), default=-math.inf)


def path_logprob(model, cells, obs):
    """Log score of one explicit trajectory under an ``oracle_model``."""
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
        P, pi = model_for((w, f), 1.0, int(w.free_cells[7]))
        true_path, obs = sample_run(P, pi, 12, seed=4)
        decoded, logp = viterbi(P, pi, obs)
        assert decoded == true_path
        assert logp == 0.0

    def test_single_step_point_mass(self):
        w, f = make_field(4, 4, u=1.0)
        x0 = w.index(1, 1)
        P, pi = model_for((w, f), 1.0, x0)
        decoded, logp = viterbi(P, pi, [Direction.E])
        assert decoded == [x0, w.index(1, 2)]
        assert logp == 0.0

    def test_identity_chain_all_idle(self):
        w, f = make_field(4, 4)
        x0 = w.index(2, 2)
        P, pi = model_for((w, f), 0.9, x0)
        decoded, _ = viterbi(P, pi, [Direction.IDLE] * 6)
        assert decoded == [x0] * 7
        assert decoded[-1] == x0

    def test_uniform_east_shifts_then_clamps(self):
        w, f = make_field(3, 6, u=1.0)
        x0 = w.index(1, 2)
        P, pi = model_for((w, f), 1.0, x0)
        true_path, obs = sample_run(P, pi, 5, seed=0)
        decoded, _ = viterbi(P, pi, obs)
        assert decoded == true_path
        # east run of 3, then pinned at the east edge
        assert decoded[-1] == w.index(1, 5)

    def test_tied_starts_decode_from_the_smallest(self):
        # A probabilistic prior on a uniform current: every start in its
        # support reads the same chain rows, so all nine attain the best
        # score, and the first optimal trajectory in lexicographic order
        # starts at the smallest of them.  Each run of a group does the same.
        w, f = make_field(8, 8, u=0.4, v=0.9)
        P = build_stochastic_map(build_cell_map(f, dt=1.0), 0.9)
        priors = [initial_distribution(w, w.index(*rc), "probabilistic") for rc in ((2, 2), (3, 4))]
        histories = [sample_run(P, pi, 3, seed)[1] for seed, pi in enumerate(priors)]
        cells, log_probs = viterbi_runs(P, priors, histories)
        for pi, obs, got, logp in zip(priors, histories, cells, log_probs):
            paths = list(feasible_paths(oracle_model(P, pi), obs))
            best = max(acc for _, acc in paths)
            assert len({path[0] for path, acc in paths if acc == best}) == 9
            first = next(path for path, acc in paths if acc == best)
            assert got.tolist() == w.free_cells[first].tolist()
            assert logp == pytest.approx(best, abs=1e-9)

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            w, f = random_field(rng, 4, 4, land_prob=0.1, vmax=1.3)
            r = float(rng.choice([0.7, 0.9]))
            x0 = int(rng.choice(w.free_cells))
            mode = "deterministic" if trial % 2 else "probabilistic"
            P, pi = model_for((w, f), r, x0, mode)
            ref = oracle_model(P, pi)
            T = int(rng.integers(2, 6))
            true_path, obs = sample_run(P, pi, T, seed=trial)
            decoded, logp = viterbi(P, pi, obs)
            assert logp == pytest.approx(brute_force_best(ref, obs), abs=1e-9)
            assert path_logprob(ref, decoded, obs) == pytest.approx(logp, abs=1e-9)

    def test_dominates_ground_truth(self):
        rng = np.random.default_rng(12)
        w, f = random_field(rng, 6, 6, vmax=1.5)
        P, pi = model_for((w, f), 0.8, int(w.free_cells[10]), "probabilistic")
        for seed in range(5):
            true_path, obs = sample_run(P, pi, 15, seed=seed)
            decoded, logp = viterbi(P, pi, obs)
            assert logp >= path_logprob(oracle_model(P, pi), true_path, obs) - 1e-12

    def test_decoded_transitions_feasible(self):
        rng = np.random.default_rng(40)
        w, f = random_field(rng, 6, 6, vmax=2.0)
        P, pi = model_for((w, f), 0.8, int(w.free_cells[3]), "probabilistic")
        true_path, obs = sample_run(P, pi, 20, seed=2)
        decoded, _ = viterbi(P, pi, obs)
        ref = oracle_model(P, pi)
        successors, _, _ = log_tables(ref)
        for t in range(len(obs)):
            s = w.state_of(decoded[t])
            s2 = w.state_of(decoded[t + 1])
            assert ref.Q[s, int(obs[t])] > 0.0
            assert s2 in successors[s]

    def test_zero_probability_carries_step(self):
        w, f = make_field(3, 5, u=1.0)
        P, pi = model_for((w, f), 1.0, w.index(1, 0))
        with pytest.raises(ZeroProbabilityError) as exc:
            viterbi(P, pi, [Direction.E, Direction.E, Direction.W])
        assert exc.value.step == 3

    def test_empty_history_rejected(self):
        w, f = make_field(3, 3)
        P, pi = model_for((w, f), 0.9, 1)
        with pytest.raises(ValueError):
            viterbi(P, pi, [])

    def test_prior_validation(self):
        w, f = make_field(3, 3)
        P = build_stochastic_map(build_cell_map(f), 0.9)
        nan, negative = np.full(9, np.nan), np.zeros(9)
        negative[:2] = 1.5, -0.5
        for bad in (np.full(9, 0.2), np.full(10, 0.1), np.full(8, 0.125), nan, negative):
            with pytest.raises(ValueError, match="initial distribution"):
                viterbi(P, bad, [Direction.IDLE])
            with pytest.raises(ValueError, match="initial distribution"):
                viterbi(P, bad.tolist(), [Direction.IDLE])
        pi = initial_distribution(w, 5, "deterministic")
        assert viterbi(P, pi.tolist(), [Direction.IDLE]) == viterbi(P, pi, [Direction.IDLE])


def decode_outcome(decoder, *args):
    """(path, log prob), or ("infeasible", step) if the decoder raises."""
    try:
        return decoder(*args)
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
            # the frozen loop stops at a row's first empty slot: give it packed rows
            want = loop_emission_matrix(slot_layout(smap, packed=True)).tobytes()
            assert emission_matrix(smap).tobytes() == want

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
                        got = decode_outcome(viterbi, P, pi, obs)
                        want = decode_outcome(dense_viterbi, oracle_model(P, pi), obs)
                        assert got == want, (r, mode, T, run)
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
            P, pi = model_for((w, f), r, int(rng.choice(w.free_cells)), mode)
            T = int(rng.integers(1, 30))
            if trial % 3:
                _, obs = sample_run(P, pi, T, rng)
            else:
                obs = [int(y) for y in rng.integers(0, 9, size=T)]
            got = decode_outcome(viterbi, P, pi, obs)
            assert got == decode_outcome(dense_viterbi, oracle_model(P, pi), obs), trial
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
        P, pi = model_for((w, f), r, int(rng.choice(w.free_cells)), mode)
        ref = oracle_model(P, pi)
        if sampled:
            _, obs = sample_run(P, pi, T, rng)
        else:
            obs = [int(y) for y in rng.integers(0, 9, size=T)]
        best = brute_force_best(ref, obs)
        if best == -math.inf:
            with pytest.raises(ZeroProbabilityError):
                viterbi(P, pi, obs)
        else:
            decoded, logp = viterbi(P, pi, obs)
            assert logp == pytest.approx(best, abs=1e-9)
            assert path_logprob(ref, decoded, obs) == pytest.approx(logp, abs=1e-9)


class TestMemory:
    def test_decode_allocates_no_n_squared_table(self):
        # 4 800 states: a dense log transition table alone would be 184 MB
        w, f = synthesize_field(SyntheticFieldSpec(kind="double_gyre", decay=2.0), 60, 80)
        P = build_stochastic_map(build_cell_map(f), 0.9)
        pi = initial_distribution(w, w.index(40, 20), "probabilistic")
        _, obs = sample_run(P, pi, 50, seed=3)
        tracemalloc.start()
        try:
            cells, _ = viterbi(P, pi, obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells) == 51
        assert peak < 16 * 2**20, f"viterbi peaked at {peak / 2**20:.1f} MiB"

    def test_decode_holds_one_score_row(self):
        # With the chain's tables built, a one-run decode holds one float64
        # score row of n + 1 entries, reused by every backward step, beside
        # its masks and feasible sets; the prior is read in place.
        w, f = synthesize_field(SyntheticFieldSpec(kind="double_gyre", decay=2.0), 300, 400)
        P = build_stochastic_map(build_cell_map(f), 0.9)
        P.col, P.log_probs
        pi = initial_distribution(w, 60010, "deterministic")
        _, obs = sample_run(P, pi, 20, seed=0)
        tracemalloc.start()
        try:
            cells, _ = viterbi_runs(P, [pi], [obs])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cells.shape == (1, 21)
        limit = 12 * (P.n_states + 1) + 2**16
        assert peak <= limit, f"peaked at {peak / 2**20:.2f} MiB, limit {limit / 2**20:.2f} MiB"

    def test_model_keeps_one_table(self):
        # The chain is the decoder's model: once a sample has built
        # ``probs``, a decode adds one table, log P in its W columns, read for
        # log Q through ``col`` too.  That table is (n + 1) * 8 W bytes, and
        # building it peaks near that.
        P = build_stochastic_map(build_cell_map(gyre_with_land(100, 130, 0)), 0.9)
        P.probs
        tracemalloc.start()
        try:
            logs = P.log_probs
            built, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = (P.n_states + 1) * 8 * P.targets.shape[1]
        assert logs.shape == P.probs.shape and logs.dtype == np.float64
        assert logs.nbytes == kept, (
            f"holds {logs.nbytes / 2**20:.2f} MiB, one table {kept / 2**20:.2f}"
        )
        assert built <= kept + 2**12, f"traced {built / 2**20:.2f} MiB after building"
        assert peak <= 1.5 * kept, f"peaked at {peak / 2**20:.2f} MiB for {kept / 2**20:.2f}"


class TestLogTable:
    """``StochasticCellMap.log_probs`` is built once per chain, on its first
    decode, and never by the decomposition."""

    def chain(self):
        w, f = synthesize_field(SyntheticFieldSpec(kind="double_gyre", decay=2.0), 9, 13)
        return w, build_stochastic_map(build_cell_map(f), 0.9)

    def test_read_only(self):
        _, P = self.chain()
        assert not P.log_probs.flags.writeable
        with pytest.raises(ValueError):
            P.log_probs[0, 0] = 0.0

    def test_decodes_share_one_table(self):
        w, P = self.chain()
        pi = initial_distribution(w, int(w.free_cells[40]), "deterministic")
        _, obs = sample_run(P, pi, 6, seed=1)
        first = viterbi(P, pi, obs)
        table = vars(P)["log_probs"]
        cells, log_probs = viterbi_runs(P, [pi, pi], [obs, obs])
        assert np.array_equal(cells, [first[0]] * 2)
        assert np.array_equal(log_probs, [first[1]] * 2)
        assert vars(P)["log_probs"] is table
        assert P.log_probs is table

    def test_decompose_never_builds_it(self):
        _, P = self.chain()
        decompose(P)
        assert "log_probs" not in vars(P)
