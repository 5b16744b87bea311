"""The feasible-set decoder reproduces the decoders it replaced, bit for bit.

``viterbi`` scores only the states consistent with the observations.  Each
case here compares its path, log probability and ``ZeroProbabilityError.step``
with ``==`` against two frozen oracles: ``viterbi_reference`` (the decoder
that scored all n states at every step) and ``dense_reference`` (the dense
n x n decoder before it).
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftloc import (
    HmmModel,
    SyntheticFieldSpec,
    ZeroProbabilityError,
    build_cell_map,
    build_stochastic_map,
    emission_matrix,
    initial_distribution,
    sample_trajectory,
    synthesize_field,
    viterbi,
)
from conftest import random_field
from dense_reference import dense_viterbi
from viterbi_reference import reference_viterbi

HISTORIES = ("sampled", "noisy", "random")


def outcome(decoder, model, obs):
    """(path, log prob), or ("infeasible", step) if the decoder raises."""
    try:
        return decoder(model, obs)
    except ZeroProbabilityError as exc:
        return ("infeasible", exc.step)


def history(kind, model, T, rng):
    """A sampled, noisy (20% of symbols flipped) or uniformly random history."""
    if kind == "random":
        return [int(y) for y in rng.integers(0, 9, size=T)]
    _, obs = sample_trajectory(model.P, model.pi, T, rng, obs_noise=0.2 * (kind == "noisy"))
    return obs


def assert_matches_oracles(model, obs, dense=True):
    got = outcome(viterbi, model, obs)
    assert got == outcome(reference_viterbi, model, obs)
    if dense:
        assert got == outcome(dense_viterbi, model, obs)
    return got


class TestMatchesOracles:
    def test_fixture(self, gyre):
        w = gyre["workspace"]
        steps = []
        for r in (0.5, 0.9, 1.0):
            P = build_stochastic_map(gyre["cell_map"], r)
            Q = emission_matrix(P)
            for mode in ("deterministic", "probabilistic"):
                for T in (1, 20, 50):
                    for kind in HISTORIES:
                        rng = np.random.default_rng((round(10 * r), T, HISTORIES.index(kind)))
                        x0 = int(w.free_cells[rng.integers(w.n_free)])
                        model = HmmModel(P=P, Q=Q, pi=initial_distribution(w, x0, mode))
                        got = assert_matches_oracles(model, history(kind, model, T, rng))
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
        Q = emission_matrix(P)
        for mode in ("deterministic", "probabilistic"):
            for T in (20, 50, 100):
                for kind in ("sampled", "noisy"):
                    rng = np.random.default_rng((T, HISTORIES.index(kind)))
                    x0 = int(w.free_cells[rng.integers(w.n_free)])
                    model = HmmModel(P=P, Q=Q, pi=initial_distribution(w, x0, mode))
                    obs = history(kind, model, T, rng)
                    assert_matches_oracles(model, obs, dense=T == 20 and kind == "sampled")

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
        x0 = int(rng.choice(w.free_cells))
        model = HmmModel(P=P, Q=emission_matrix(P), pi=initial_distribution(w, x0, mode))
        assert_matches_oracles(model, history(kind, model, T, rng))


class TestMemory:
    def test_long_decode_on_large_grid(self):
        # 30 000 states, T = 400: a (T + 1) x n score table alone would be
        # 96 MB.
        w, f = synthesize_field(SyntheticFieldSpec(kind="double_gyre", decay=2.0), 150, 200)
        P = build_stochastic_map(build_cell_map(f), 0.9)
        Q = emission_matrix(P)
        pi = initial_distribution(w, w.index(75, 50), "probabilistic")
        _, obs = sample_trajectory(P, pi, 400, seed=11)
        tracemalloc.start()
        try:
            cells, _ = viterbi(HmmModel(P=P, Q=Q, pi=pi), obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells) == 401
        assert peak < 32 * 2**20, f"HmmModel + viterbi peaked at {peak / 2**20:.1f} MiB"
