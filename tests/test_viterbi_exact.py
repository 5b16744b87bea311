"""The feasible-set decoder reproduces the decoders it replaced, bit for bit.

``viterbi`` scores only the states consistent with the observations.  Each
case here compares its path, log probability and ``ZeroProbabilityError.step``
with ``==`` against two frozen oracles: ``viterbi_reference`` (the decoder
that scored all n states at every step) and ``dense_reference`` (the dense
n x n decoder before it), each given ``conftest.oracle_model`` of the chain
and the prior.  Every decode reads the chain itself, whose log table the
first decode builds and every later decode on that chain shares.
``viterbi_runs`` decodes a group of histories in lockstep and must give each
run what the oracle gives it alone.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftloc import (
    Direction,
    SyntheticFieldSpec,
    ZeroProbabilityError,
    build_cell_map,
    build_stochastic_map,
    initial_distribution,
    load_field,
    sample_runs,
    synthesize_field,
    viterbi,
    viterbi_runs,
)
from conftest import (
    FIXTURE_FIELD, emission_matrix, make_field, oracle_model, random_field, sample_run,
)
from dense_reference import dense_viterbi
from viterbi_reference import reference_viterbi

HISTORIES = ("sampled", "noisy", "random")


def outcome(decoder, *args):
    """(path, log prob), or ("infeasible", step) if the decoder raises."""
    try:
        return decoder(*args)
    except ZeroProbabilityError as exc:
        return ("infeasible", exc.step)


def history(kind, P, pi, T, rng):
    """A sampled, noisy (20% of symbols flipped) or uniformly random history."""
    if kind == "random":
        return [int(y) for y in rng.integers(0, 9, size=T)]
    _, obs = sample_run(P, pi, T, rng, obs_noise=0.2 * (kind == "noisy"))
    return obs


def assert_matches_oracles(P, pi, obs, dense=True):
    got = outcome(viterbi, P, pi, obs)
    ref = oracle_model(P, pi)
    assert got == outcome(reference_viterbi, ref, obs)
    if dense:
        assert got == outcome(dense_viterbi, ref, obs)
    return got


class TestMatchesOracles:
    def test_fixture(self, gyre):
        w = gyre["workspace"]
        steps = []
        for r in (0.5, 0.9, 1.0):
            P = build_stochastic_map(gyre["cell_map"], r)
            for mode in ("deterministic", "probabilistic"):
                for T in (1, 20, 50):
                    for kind in HISTORIES:
                        rng = np.random.default_rng((round(10 * r), T, HISTORIES.index(kind)))
                        x0 = int(w.free_cells[rng.integers(w.n_free)])
                        pi = initial_distribution(w, x0, mode)
                        got = assert_matches_oracles(P, pi, history(kind, P, pi, T, rng))
                        if got[0] == "infeasible":
                            assert kind != "sampled"
                            steps.append(got[1])
        # infeasible histories are covered, at the first step and later ones
        assert 1 in steps and max(steps) > 1

    def test_mid_size_gyre(self):
        # 42 x 58 double gyre, 2 436 states; the dense oracle (47 MB a
        # table) joins at the shortest history only.
        w, f = synthesize_field(SyntheticFieldSpec(kind="double_gyre", decay=2.0), 42, 58)
        P = build_stochastic_map(build_cell_map(f), 0.9)
        for mode in ("deterministic", "probabilistic"):
            for T in (20, 50, 100):
                for kind in ("sampled", "noisy"):
                    rng = np.random.default_rng((T, HISTORIES.index(kind)))
                    x0 = int(w.free_cells[rng.integers(w.n_free)])
                    pi = initial_distribution(w, x0, mode)
                    obs = history(kind, P, pi, T, rng)
                    assert_matches_oracles(P, pi, obs, dense=T == 20 and kind == "sampled")

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(3, 8),
        cols=st.integers(3, 8),
        land_prob=st.sampled_from([0.0, 0.15, 0.3]),
        r=st.sampled_from([0.5, 0.8, 0.95, 1.0]),
        mode=st.sampled_from(["deterministic", "probabilistic"]),
        T=st.integers(1, 30),
        kind=st.sampled_from(HISTORIES),
    )
    def test_random_fields_with_land(self, seed, rows, cols, land_prob, r, mode, T, kind):
        rng = np.random.default_rng(seed)
        w, f = random_field(rng, rows, cols, land_prob=land_prob, vmax=2.0)
        P = build_stochastic_map(build_cell_map(f), r)
        pi = initial_distribution(w, int(rng.choice(w.free_cells)), mode)
        assert_matches_oracles(P, pi, history(kind, P, pi, T, rng))


class TestMemory:
    def test_long_decode_on_large_grid(self):
        # 30 000 states, T = 400: a (T + 1) x n score table alone would be
        # 96 MB.
        w, f = synthesize_field(SyntheticFieldSpec(kind="double_gyre", decay=2.0), 150, 200)
        P = build_stochastic_map(build_cell_map(f), 0.9)
        pi = initial_distribution(w, w.index(75, 50), "probabilistic")
        _, obs = sample_run(P, pi, 400, seed=11)
        tracemalloc.start()
        try:
            cells, _ = viterbi(P, pi, obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells) == 401
        assert peak < 32 * 2**20, f"viterbi peaked at {peak / 2**20:.1f} MiB"


def assert_group_matches_oracle(P, priors, histories):
    """viterbi_runs on the group equals reference_viterbi run by run; an
    infeasible group raises at its first infeasible run's step."""
    want = [outcome(reference_viterbi, oracle_model(P, pi), h)
            for pi, h in zip(priors, histories)]
    try:
        got = viterbi_runs(P, priors, histories)
    except ZeroProbabilityError as exc:
        first = next(i for i, w in enumerate(want) if w[0] == "infeasible")
        assert (exc.run, exc.step) == (first, want[first][1])
        return "infeasible"
    assert_runs_equal(got, want)
    return "feasible"


def assert_runs_equal(got, want):
    """The (cells, log probs) arrays of a group equal a list of (path, log
    prob) pairs, exactly and in the documented dtypes."""
    cells, log_probs = got
    assert cells.dtype == np.int64 and log_probs.dtype == np.float64
    assert np.array_equal(cells, [path for path, _ in want])
    assert np.array_equal(log_probs, [logp for _, logp in want])


class TestLockstepGroups:
    def test_fixture_groups(self, gyre):
        # Sampled histories are feasible, so every run of these groups is
        # decoded and compared; group sizes span one run to a full group.
        w, P = gyre["workspace"], gyre["P"]
        rng = np.random.default_rng(90)
        for R in (1, 2, 5, 13):
            for T in (1, 20, 50):
                priors, histories = [], []
                for i in range(R):
                    x0 = int(w.free_cells[rng.integers(w.n_free)])
                    mode = ("deterministic", "probabilistic")[i % 2]
                    priors.append(initial_distribution(w, x0, mode))
                    histories.append(history("sampled", P, priors[-1], T, rng))
                assert assert_group_matches_oracle(P, priors, histories) == "feasible"

    def test_group_target_table_memory(self, gyre):
        # The first group of fig5's T = 100 condition (base seed 501,
        # condition 4, runs 0-12).  A group builds one (R (n + 1), W) int64
        # table of absolute targets per call, 8 W bytes a run-state: 0.36 MiB
        # for 13 runs on the fixture.  This group peaks at 2.18 MiB, 1.84 MiB
        # of it the feasible sets and per-step rows.
        w, P = gyre["workspace"], gyre["P"]
        rngs = [np.random.default_rng(np.random.SeedSequence((501, 4, i))) for i in range(13)]
        priors = [initial_distribution(w, int(w.free_cells[rng.integers(w.n_free)]),
                                       "deterministic") for rng in rngs]
        _, histories = sample_runs(P, priors, 100, rngs)
        tracemalloc.start()
        try:
            got = viterbi_runs(P, priors, histories)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_runs_equal(got, [viterbi(P, pi, h) for pi, h in zip(priors, histories)])
        assert peak < 2.5 * 2**20, f"a group of 13 peaked at {peak / 2**20:.2f} MiB"

    def test_first_infeasible_run_wins(self, gyre):
        # A group whose run 1 dies before its run 0 does: the error is run 0's.
        w, P = gyre["workspace"], gyre["P"]
        rng = np.random.default_rng(91)
        late = early = None
        while late is None or early is None:
            x0 = int(w.free_cells[rng.integers(w.n_free)])
            pi = initial_distribution(w, x0, "deterministic")
            obs = history("noisy", P, pi, 30, rng)
            got = outcome(reference_viterbi, oracle_model(P, pi), obs)
            if got[0] == "infeasible" and got[1] > 10:
                late = late or (pi, obs)
            elif got[0] == "infeasible" and got[1] < 5:
                early = early or (pi, obs)
        (p0, h0), (p1, h1) = late, early
        h2 = history("sampled", P, p0, 30, rng)
        assert assert_group_matches_oracle(P, [p0, p0, p1], [h2, h0, h1]) == "infeasible"
        with pytest.raises(ZeroProbabilityError) as exc:
            viterbi_runs(P, [p0, p1], [h0, h1])
        assert exc.value.run == 0 and exc.value.step > 10

    def test_group_rejects_mismatched_inputs(self, gyre):
        w, P = gyre["workspace"], gyre["P"]
        pi = initial_distribution(w, int(w.free_cells[0]), "deterministic")
        with pytest.raises(ValueError, match="same length"):
            viterbi_runs(P, [pi, pi], [[0, 1], [0]])
        with pytest.raises(ValueError, match="priors"):
            viterbi_runs(P, [pi], [[0], [1]])
        with pytest.raises(ValueError, match="at least one symbol"):
            viterbi_runs(P, [], [])
        negative = np.zeros(w.n_free)
        negative[:2] = 1.5, -0.5
        # [pi, pi[:-1]] is a ragged group: each prior is checked on its own.
        sum_error = "is not nonnegative with sum 1"
        for bad, error in ((pi[:-1], "shape"), (np.full(w.n_free, 0.5), sum_error),
                           (np.full(w.n_free, np.nan), sum_error), (negative, sum_error)):
            for priors in ([bad], [pi, bad]):
                with pytest.raises(ValueError, match=f"initial distribution {error}"):
                    viterbi_runs(P, priors, [[0]] * len(priors))

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(3, 8),
        cols=st.integers(3, 8),
        land_prob=st.sampled_from([0.0, 0.15, 0.3]),
        r=st.sampled_from([0.5, 0.8, 0.95, 1.0]),
        T=st.integers(1, 40),
        runs=st.lists(
            st.tuples(
                st.sampled_from(["deterministic", "probabilistic"]),
                st.sampled_from(("sampled", "sampled", "noisy", "random")),
            ),
            min_size=1, max_size=8,
        ),
    )
    def test_random_fields_with_land(self, seed, rows, cols, land_prob, r, T, runs):
        rng = np.random.default_rng(seed)
        w, f = random_field(rng, rows, cols, land_prob=land_prob, vmax=2.0)
        P = build_stochastic_map(build_cell_map(f), r)
        priors, histories = [], []
        for mode, kind in runs:
            priors.append(initial_distribution(w, int(rng.choice(w.free_cells)), mode))
            histories.append(history(kind, P, priors[-1], T, rng))
        assert_group_matches_oracle(P, priors, histories)


def land_field_of_full_width():
    """A 7 x 7 field in which, at dt = 1, cell (3, 3) is colliding, its
    endpoint stencil touching the land cell (3, 5), while its whole Moore
    stencil is water: the uniform boundary rule gives it all nine slots."""
    land = np.zeros((7, 7), dtype=bool)
    land[3, 5] = True
    u = np.full((7, 7), 0.3)
    u[3, 3] = 1.5
    return make_field(7, 7, u=u, v=0.2, land=land)


def width_cases():
    """(name, chain, table width W) at each width the decoder tables take."""
    _, fixture = load_field(FIXTURE_FIELD)
    yield "r=1", build_stochastic_map(build_cell_map(fixture), 1.0), 1
    yield "default dt", build_stochastic_map(build_cell_map(fixture), 0.9), 6
    yield "dt=0.5", build_stochastic_map(build_cell_map(fixture, dt=0.5), 0.9), 9
    _, land = land_field_of_full_width()
    yield "land", build_stochastic_map(build_cell_map(land, dt=1.0), 0.9), 9


def assert_column_table(P):
    """The chain's ``col[y, s]`` is the column of ``log_probs`` that holds
    log Q[s, y], bit for bit, and W where Q[s, y] is 0 and on the sink state n."""
    n, width = P.n_states, P.log_probs.shape[1]
    col, Q = P.col, emission_matrix(P)
    assert col.shape == (9, n + 1) and col.dtype == np.uint8
    emits = col[:, :n].T < width
    assert (emits == (Q > 0.0)).all()
    assert (col[:, n] == width).all()
    s, y = np.nonzero(emits)
    got = P.log_probs[s, col[y, s]]
    assert got.tobytes() == np.log(Q[s, y]).tobytes()


class TestTableWidths:
    """The decoder tables hold W columns, the most live slots of any row;
    decodes at every width equal the oracle's, which reads all nine."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(3, 8),
        cols=st.integers(3, 8),
        land_prob=st.sampled_from([0.0, 0.15, 0.3]),
        r=st.sampled_from([0.5, 0.8, 0.95, 1.0]),
    )
    def test_column_table_on_random_fields_with_land(self, seed, rows, cols, land_prob, r):
        rng = np.random.default_rng(seed)
        w, f = random_field(rng, rows, cols, land_prob=land_prob, vmax=2.0)
        assert_column_table(build_stochastic_map(build_cell_map(f), r))

    @pytest.mark.parametrize("case", list(width_cases()), ids=lambda c: c[0])
    def test_decodes_equal_oracle(self, case):
        _, P, width = case
        w = P.workspace
        rng = np.random.default_rng(width)
        assert P.targets.shape == P.log_probs.shape == (w.n_free + 1, width)
        assert_column_table(P)
        priors, histories = [], []
        for i in range(12):
            x0 = int(w.free_cells[rng.integers(w.n_free)])
            pi = initial_distribution(w, x0, ("deterministic", "probabilistic")[i % 2])
            obs = history(HISTORIES[i % 3], P, pi, 25, rng)
            assert_matches_oracles(P, pi, obs, dense=False)
            if i % 3 == 0:  # sampled, hence feasible
                priors.append(pi)
                histories.append(obs)
        assert assert_group_matches_oracle(P, priors, histories) == "feasible"
        assert assert_group_matches_oracle(P, priors, np.array(histories)) == "feasible"


class TestSymbolCheck:
    def test_bad_symbol_raises_as_direction_does(self, gyre):
        w, P = gyre["workspace"], gyre["P"]
        pi = initial_distribution(w, int(w.free_cells[0]), "deterministic")
        pis = [pi, pi]
        # the first bad symbol, run by run, is the one reported
        for histories, bad in (
            ([[0, 1], [-1, 9]], -1),
            ([[0, 12], [-1, 3]], 12),
            (np.array([[0, 1], [2, 9]]), np.int64(9)),
            (np.array([[0, 1], [2, 9]], dtype=np.uint8), np.uint8(9)),
        ):
            with pytest.raises(ValueError) as want:
                Direction(bad)
            with pytest.raises(ValueError) as got:
                viterbi_runs(P, pis, histories)
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="'N' is not a valid Direction"):
            viterbi(P, pi, ["N"])
