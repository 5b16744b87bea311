"""The closure-free decomposition against the frozen closure-based one.

``closure_reference`` builds the n x n reachability closure C and reads the
attractors and domiciles off it; ``driftloc.decompose`` must give the same
groups, in the same order, with the same bytes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closure_reference as ref
from conftest import components, gyre_with_land, make_field, random_field
from driftloc import (
    SyntheticFieldSpec,
    build_cell_map,
    build_stochastic_map,
    decompose,
    synthesize_field,
)
from test_acceptance import _fixture_suite
from test_gcm import chain_from_edges

# the shipped fixture, uniform, zero, single-gyre, saddle and random masked fields
SUITE = {name: field for name, (_, field) in _fixture_suite()}


def chain(field, r):
    return build_stochastic_map(build_cell_map(field), r)


def assert_matches_reference(P):
    got, want = decompose(P), ref.decompose(P)
    assert got.to_dict() == want.to_dict()
    assert len(got.persistent_groups) == len(want.persistent_groups)
    for a, b in zip(got.persistent_groups, want.persistent_groups):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert list(got.transient_groups) == list(want.transient_groups)
    for k, b in want.transient_groups.items():
        a = got.transient_groups[k]
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert_same_sccs(P)
    return got


def assert_same_sccs(P):
    sccs, ref_sccs = components(P), ref.strongly_connected_components(P)
    assert len(sccs) == len(ref_sccs)
    for a, b in zip(sccs, ref_sccs):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@st.composite
def graphs(draw):
    """n states with arbitrary (non-Moore) edges, a cycle through a random
    subset of them, and a few dead-end rows; every other row has an edge."""
    n = draw(st.integers(2, 40))  # a workspace is at least 2x2
    state = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(state, state), max_size=3 * n))
    cycle = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    edges += list(zip(cycle, cycle[1:] + cycle[:1]))
    dead = draw(st.sets(state, max_size=max(1, n // 4)))
    edges = [(i, j) for i, j in edges if i not in dead]
    sources = {i for i, _ in edges}
    edges += [(i, draw(state)) for i in range(n) if i not in dead | sources]
    return n, edges, dead


class TestMatchesClosureReference:
    @pytest.mark.parametrize("name", list(SUITE))
    def test_fixture_suite(self, name):
        for r in (0.5, 0.9, 1.0):
            assert_matches_reference(chain(SUITE[name], r))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gyre_with_coast_and_islands(self, seed):
        field = gyre_with_land(40, 50, seed)
        for r in (0.9, 1.0):
            dec = assert_matches_reference(chain(field, r))
            assert dec.transient_groups

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(3, 6),
        cols=st.integers(3, 6),
        land_prob=st.sampled_from([0.0, 0.15, 0.3]),
        r=st.sampled_from([0.6, 0.9, 1.0]),
    )
    def test_random_fields_with_land(self, seed, rows, cols, land_prob, r):
        rng = np.random.default_rng(seed)
        _, field = random_field(rng, rows, cols, land_prob=land_prob, vmax=1.5)
        assert_matches_reference(chain(field, r))

    @settings(max_examples=200, deadline=None, database=None)
    @given(graph=graphs())
    def test_random_graphs(self, graph):
        n, edges, dead = graph
        P = chain_from_edges(n, edges, dead_ends=dead)
        if not dead:
            assert_matches_reference(P)
            return
        # A dead-end row is transient and reaches no attractor.
        with pytest.raises(RuntimeError) as got:
            decompose(P)
        with pytest.raises(RuntimeError) as want:
            ref.decompose(P)
        assert str(got.value) == str(want.value)
        assert_same_sccs(P)

    def test_thousands_of_transient_groups(self):
        # Even states are self-loop attractors; odd state 2k + 1 feeds the
        # attractor 2 * (7k mod 1000), so the 1 000 single-state groups come
        # keyed in another order than their states.
        n = 2000
        edges = [(s, s) for s in range(0, n, 2)]
        edges += [(2 * k + 1, 2 * (7 * k % 1000)) for k in range(n // 2)]
        dec = assert_matches_reference(chain_from_edges(n, edges))
        assert dec.n_groups == len(dec.transient_groups) == n // 2


class TestDeepGraph:
    """A path of 100 000 states into a self-loop: as deep as a depth-first
    search gets, so a recursive one would overflow the interpreter stack."""

    N = 100_000

    @pytest.mark.parametrize("ascending", [True, False])
    def test_path_into_a_self_loop(self, ascending):
        n = self.N
        step = 1 if ascending else -1
        end = n - 1 if ascending else 0
        edges = [(s, s + step) for s in range(n) if s != end] + [(end, end)]
        P = chain_from_edges(n, edges)
        # state s is water cell s + 1 of the single water row
        cells = np.arange(1, n + 1)
        dec = decompose(P)
        assert len(dec.persistent_groups) == 1
        assert dec.persistent_groups[0].tolist() == [end + 1]
        assert list(dec.transient_groups) == [(1,)]
        assert np.array_equal(dec.transient_groups[(1,)], np.delete(cells, end))
        sccs = components(P)
        assert len(sccs) == n
        assert np.array_equal(np.concatenate(sccs), np.arange(n))


class TestPartitionProperty:
    """Without an oracle: the groups partition the water states, and no live
    slot of an attractor's rows leaves it."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(3, 9),
        cols=st.integers(3, 9),
        land_prob=st.sampled_from([0.15, 0.3, 0.5]),
        r=st.sampled_from([0.6, 0.9, 1.0]),
        dt=st.sampled_from([None, 0.5, 2.0]),
    )
    def test_random_fields_with_land(self, seed, rows, cols, land_prob, r, dt):
        rng = np.random.default_rng(seed)
        w, field = random_field(rng, rows, cols, land_prob=land_prob, vmax=1.5)
        P = build_stochastic_map(build_cell_map(field, dt=dt), r)
        dec = decompose(P)
        groups = [*dec.persistent_groups, *dec.transient_groups.values()]
        cells = np.concatenate(groups)
        assert len(cells) == w.n_free
        assert np.array_equal(np.sort(cells), w.free_cells)
        assert all(len(k) > 0 for k in dec.transient_groups)
        for group in dec.persistent_groups:
            states = [w.state_of(z) for z in group.tolist()]
            targets = P.targets[states]
            assert np.isin(targets[targets >= 0], states).all()


class TestMemory:
    # 30 000 states: the closure C alone would be 858 MiB, and on the zero
    # field (one attractor per cell) a g x n domicile table just as much.
    @pytest.mark.parametrize("kind", ["double_gyre", "zero"])
    def test_decompose_allocates_no_n_squared_table(self, kind):
        if kind == "zero":
            w, field = make_field(150, 200)
        else:
            w, field = synthesize_field(SyntheticFieldSpec(kind=kind, decay=2.0), 150, 200)
        P = chain(field, 0.9)
        tracemalloc.start()
        try:
            dec = decompose(P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        groups = [*dec.persistent_groups, *dec.transient_groups.values()]
        assert sum(map(len, groups)) == w.n_free == 30_000
        assert peak < 32 * 2**20, f"decompose peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_decompose_peak_at_benchmark_size(self, seed):
        # The classify benchmark's size: 100x130 with a coast and islands.
        field = gyre_with_land(100, 130, seed)
        P = chain(field, 0.9)
        tracemalloc.start()
        try:
            dec = decompose(P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dec.n_groups == 2
        assert peak < 5 * 2**20, f"decompose peaked at {peak / 2**20:.2f} MiB"
