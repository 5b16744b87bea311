import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftloc import (
    SLOT_DIRECTIONS,
    CellIndexError,
    Direction,
    LandCellError,
    Workspace,
    build_cell_map,
    build_stochastic_map,
    decompose,
    direction_between,
    initial_distribution,
    viterbi,
    viterbi_runs,
)
import closure_reference as ref
from closure_reference import adjacency, reachability
from conftest import (
    colliding,
    components,
    from_slots,
    gyre_with_land,
    make_field,
    random_field,
    sample_run,
    slot_layout,
)
from driftloc.gcm import MAX_MAPPED


def chain_from_edges(n, edges, dead_ends=()):
    """Hand-built chain over n states, each row moving uniformly.

    The edges need not join Moore neighbors, so each row lists its successors
    in its first slots; the decomposition reads only the support graph.  The
    states in ``dead_ends`` get empty rows, which no field produces.
    """
    w = Workspace(rows=2, cols=n, land_mask=np.vstack(
        [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
    ))
    targets = np.full((n, 9), -1, dtype=np.int64)
    by_src = {}
    for i, j in edges:
        by_src.setdefault(i, []).append(j)
    for i in range(n):
        succ = sorted(set(by_src.get(i, [])))
        assert bool(succ) != (i in dead_ends), f"state {i}: edges {succ}"
        targets[i, :len(succ)] = succ
    return from_slots(w, targets)


def states_of(P, cells):
    """The chain states of decomposition cell indices."""
    return [P.workspace.state_of(int(z)) for z in cells]


def bool_power_closure(adj):
    """Oracle: >= 1-step transitive closure by boolean matrix powers."""
    A = adj.astype(bool)
    R = A.copy()
    while True:
        R2 = R | (R.astype(np.uint8) @ A.astype(np.uint8) > 0)
        if (R2 == R).all():
            return R
        R = R2


class TestBuildStochasticMap:
    def test_deterministic_limit_r1(self):
        w, f = make_field(5, 5, u=0.4, v=0.9)
        smap = build_stochastic_map(build_cell_map(f, dt=1.0), 1.0)
        z = w.index(2, 2)
        assert smap.mapped_set(z) == {w.index(3, 2): 1.0}

    def test_endpoint_stencil_interior(self):
        # displacement (0.4, 0.9): endpoint (2.4, 2.9) spreads over the four
        # surrounding cells; the nearest (the north neighbor) is the image
        # and carries r, the other three share (1-r)/3.
        w, f = make_field(5, 5, u=0.4, v=0.9)
        smap = build_stochastic_map(build_cell_map(f, dt=1.0), 0.9)
        z = w.index(2, 2)
        expected = {
            w.index(2, 2): 0.1 / 3,
            w.index(2, 3): 0.1 / 3,
            w.index(3, 2): 0.9,
            w.index(3, 3): 0.1 / 3,
        }
        got = smap.mapped_set(z)
        assert got.keys() == expected.keys()
        for c, p in expected.items():
            assert got[c] == pytest.approx(p, abs=1e-15)

    def test_half_cell_displacement_two_cell_stencil(self):
        # Endpoint exactly on the boundary between self and east: the tie
        # makes self the image; the spread covers only those two cells.
        w, f = make_field(5, 5, u=0.5)
        smap = build_stochastic_map(build_cell_map(f, dt=1.0), 0.9)
        z = w.index(2, 2)
        assert smap.mapped_set(z) == {z: 0.9, w.index(2, 3): pytest.approx(0.1)}

    def test_zero_displacement_is_identity_at_any_r(self):
        w, f = make_field(4, 4)
        smap = build_stochastic_map(build_cell_map(f, dt=1.0), 0.9)
        for z in w.free_cells:
            assert smap.mapped_set(int(z)) == {int(z): 1.0}

    def test_colliding_corner_uniform(self):
        # outward flow at the south-west corner: the stencil leaves the grid,
        # so the drifter stays or moves to any neighbor uniformly.
        w, f = make_field(4, 4, u=-0.7, v=-0.7)
        cm = build_cell_map(f, dt=1.0)
        smap = build_stochastic_map(cm, 0.9)
        got = smap.mapped_set(1)
        assert got == {
            1: 0.25, w.index(0, 1): 0.25, w.index(1, 0): 0.25, w.index(1, 1): 0.25,
        }
        assert bool(colliding(cm, 0.9)[w.state_of(1)])

    def test_mapped_set_of_a_land_cell(self):
        land = np.zeros((4, 4), dtype=bool)
        land[0, 0] = True  # cell 1
        _, f = make_field(4, 4, u=0.3, land=land)
        smap = build_stochastic_map(build_cell_map(f), 0.9)
        with pytest.raises(LandCellError, match="cell 1 is land"):
            smap.mapped_set(1)

    def test_land_in_stencil_triggers_uniform(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, 2] = True
        w = Workspace(rows=4, cols=4, land_mask=mask)
        f_u = np.full((4, 4), 0.9)
        from driftloc import VectorField

        f = VectorField(workspace=w, u=f_u, v=np.full((4, 4), 0.9))
        cm = build_cell_map(f, dt=1.0)
        smap = build_stochastic_map(cm, 0.9)
        z = w.index(1, 1)  # endpoint (1.9, 1.9): stencil touches land (2, 2)
        s = w.state_of(z)
        assert bool(colliding(cm, 0.9)[s])
        admissible = sorted(w.neighbors(z) | {z})
        assert smap.mapped_set(z) == {c: 1.0 / len(admissible) for c in admissible}

    def test_r_validation(self):
        w, f = make_field(3, 3)
        cm = build_cell_map(f)
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(ValueError):
                build_stochastic_map(cm, bad)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            w, f = random_field(rng, 5, 6, land_prob=0.15)
            for r in (0.6, 0.9, 1.0):
                smap = build_stochastic_map(build_cell_map(f), r)
                sums = slot_layout(smap).probs.sum(axis=1)
                assert np.abs(sums - 1.0).max() < 1e-12

    def test_support_independent_of_r(self):
        rng = np.random.default_rng(5)
        w, f = random_field(rng, 6, 6, land_prob=0.1)
        cm = build_cell_map(f)
        s1 = build_stochastic_map(cm, 0.5)
        s2 = build_stochastic_map(cm, 0.95)
        assert (s1.targets == s2.targets).all()

    def test_decomposition_independent_of_r(self):
        from driftloc import SyntheticFieldSpec, synthesize_field

        w, f = synthesize_field(
            SyntheticFieldSpec(kind="double_gyre", decay=2.5), 11, 15
        )
        cm = build_cell_map(f)
        d1 = decompose(build_stochastic_map(cm, 0.5))
        d2 = decompose(build_stochastic_map(cm, 0.95))
        assert len(d1.persistent_groups) == len(d2.persistent_groups)
        for a, b in zip(d1.persistent_groups, d2.persistent_groups):
            assert (a == b).all()
        assert list(d1.transient_groups) == list(d2.transient_groups)
        for k in d1.transient_groups:
            assert (d1.transient_groups[k] == d2.transient_groups[k]).all()

    def test_mapped_set_within_neighborhood(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            w, f = random_field(rng, 5, 5, land_prob=0.2, vmax=3.0)
            smap = build_stochastic_map(build_cell_map(f), 0.8)
            for z in w.free_cells:
                allowed = w.neighbors(int(z)) | {int(z)}
                assert set(smap.mapped_set(int(z))) <= allowed


class TestTransitionMatrix:
    IDLE_SLOT, W_SLOT, E_SLOT = 4, 3, 5  # Moore slots (0, 0), (0, -1), (0, +1)

    def test_identity_map_r1_is_identity_matrix(self):
        w, f = make_field(3, 3)
        P = slot_layout(build_stochastic_map(build_cell_map(f), 1.0))
        idle = self.IDLE_SLOT
        assert (P.targets[:, idle] == np.arange(9)).all()
        assert (np.delete(P.targets, idle, axis=1) == -1).all()
        assert (P.probs[:, idle] == 1.0).all()
        assert (np.delete(P.probs, idle, axis=1) == 0.0).all()

    def test_two_cell_swap_is_permutation(self):
        mask = np.ones((2, 2), dtype=bool)
        mask[0, :] = False
        w = Workspace(rows=2, cols=2, land_mask=mask)
        from driftloc import VectorField

        u = np.array([[1.0, -1.0], [0.0, 0.0]])
        f = VectorField(workspace=w, u=u, v=np.zeros((2, 2)))
        P = slot_layout(build_stochastic_map(build_cell_map(f, dt=1.0), 1.0))
        slots = [self.E_SLOT, self.W_SLOT]  # state 0 moves east, state 1 west
        assert (P.targets[[0, 1], slots] == [1, 0]).all()
        assert (P.probs[[0, 1], slots] == 1.0).all()
        live = np.zeros_like(P.targets, dtype=bool)
        live[[0, 1], slots] = True
        assert (P.targets[~live] == -1).all()
        assert (P.probs[~live] == 0.0).all()

    def test_any_input_rows_sum_to_one(self, gyre):
        sums = slot_layout(gyre["P"]).probs.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12


class TestChainLayout:
    """The chain's own layout, read without the slot helpers of conftest."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 8),
        cols=st.integers(2, 8),
        land_prob=st.sampled_from([0.0, 0.2, 0.4]),
        dt=st.sampled_from([None, 0.5, 1.0, 2.0]),
        r=st.sampled_from([0.6, 0.9, 1.0]),
    )
    def test_random_fields_with_land(self, seed, rows, cols, land_prob, dt, r):
        rng = np.random.default_rng(seed)
        w, f = random_field(rng, rows, cols, land_prob=land_prob, vmax=2.0)
        P = build_stochastic_map(build_cell_map(f, dt=dt), r)
        n, width = w.n_free, P.targets.shape[1]
        assert P.n_states == n
        assert P.targets.shape == P.probs.shape == (n + 1, width)
        assert P.col.shape == (9, n + 1)
        assert (P.targets.dtype, P.probs.dtype, P.col.dtype) == (np.int64, np.float64, np.uint8)

        # each row's moves first, in ascending target order, then the sink
        # state n with 0.0; row n is all pads, and W the most moves of a row
        live = P.targets < n
        counts = live.sum(axis=1)
        assert (live == (np.arange(width) < counts[:, None])).all()
        assert (np.diff(P.targets, axis=1)[live[:, 1:]] > 0).all()
        assert (P.targets[~live] == n).all() and (P.probs[~live] == 0.0).all()
        assert (P.probs[live] > 0.0).all()
        assert counts[n] == 0 and (P.col[:, n] == width).all()
        assert width == counts.max()
        assert np.abs(P.probs[:n].sum(axis=1) - 1.0).max() < 1e-12

        # col names each move once, by its heading, and W for no move
        slot = np.arange(9)[:, None]
        assert (np.sort(P.col, axis=0) == np.where(slot < counts, slot, width)).all()
        for y in Direction:
            s = np.flatnonzero(P.col[y] < width)
            for z, z2 in zip(w.free_cells[s], w.free_cells[P.targets[s, P.col[y, s]]]):
                assert direction_between(w, int(z), int(z2)) == y

        for z in w.free_cells:
            keys = list(P.mapped_set(int(z)))
            assert keys == sorted(keys) and len(keys) == counts[w.state_of(int(z))]

        # the kept slot arrays: a mask of the live slots, and the image slot,
        # live, or MAX_MAPPED in a uniform row
        assert (P.mask.shape, P.mask.dtype, P.image.dtype) == ((n,), np.uint16, np.int8)
        bits = P.mask[:, None] >> np.arange(9) & 1
        assert (bits.sum(axis=1) == counts[:n]).all()
        assert (bits == (P.col[list(SLOT_DIRECTIONS), :n].T < width)).all()
        imaged = P.image < MAX_MAPPED
        assert (bits[imaged, P.image[imaged]] == 1).all()
        assert r < 1.0 or imaged.all()


class TestDerivedTables:
    """``probs`` and ``col`` are derived from the chain's slot arrays on the
    first sample or decode, once per chain; the decomposition never builds
    them."""

    def chain(self):
        w, f = make_field(9, 13, u=0.3, v=-0.2)
        return w, build_stochastic_map(build_cell_map(f), 0.9)

    def test_classify_keeps_only_what_it_reads(self):
        # The classify benchmark's size: 100x130 with a coast and islands.
        P = build_stochastic_map(build_cell_map(gyre_with_land(100, 130, 0)), 0.9)
        decompose(P)
        assert "probs" not in vars(P) and "col" not in vars(P)
        assert "log_probs" not in vars(P)
        n, width = P.n_states, P.targets.shape[1]
        kept = sum(a.nbytes for a in vars(P).values() if isinstance(a, np.ndarray))
        assert kept == (n + 1) * 8 * width + 3 * n, (kept, n, width)

    @pytest.mark.parametrize("name", ["probs", "col"])
    def test_read_only(self, name):
        _, P = self.chain()
        table = getattr(P, name)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0

    def test_samples_and_decodes_share_one_table(self):
        w, P = self.chain()
        pi = initial_distribution(w, int(w.free_cells[40]), "deterministic")
        _, obs = sample_run(P, pi, 6, seed=1)
        tables = vars(P)["probs"], P.col
        first = viterbi(P, pi, obs)
        cells, log_probs = viterbi_runs(P, [pi, pi], [obs, obs])
        assert np.array_equal(cells, [first[0]] * 2)
        assert np.array_equal(log_probs, [first[1]] * 2)
        assert sample_run(P, pi, 6, seed=1)[1] == obs
        assert vars(P)["probs"] is tables[0] and vars(P)["col"] is tables[1]
        assert P.probs is tables[0] and P.col is tables[1]

    def test_decode_keeps_no_probs(self):
        # A decode reads log P alone; the same bytes whether or not a sample
        # built the probabilities first.
        w, P = self.chain()
        pi = initial_distribution(w, int(w.free_cells[40]), "deterministic")
        _, obs = sample_run(self.chain()[1], pi, 6, seed=1)  # on a twin, so P is only decoded
        viterbi(P, pi, obs)
        assert "probs" not in vars(P) and "log_probs" in vars(P)
        with np.errstate(divide="ignore"):
            assert P.log_probs.tobytes() == np.log(P.probs).tobytes()


class TestStronglyConnectedComponents:
    def test_identity_gives_singletons(self):
        w, f = make_field(3, 4)
        P = build_stochastic_map(build_cell_map(f), 0.9)
        sccs = components(P)
        assert [list(c) for c in sccs] == [[s] for s in range(12)]

    def test_single_cycle(self):
        P = chain_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        sccs = components(P)
        assert len(sccs) == 1
        assert list(sccs[0]) == [0, 1, 2, 3, 4]

    def test_two_cycles_with_bridge_vs_bruteforce(self):
        # 0-1-2 cycle -> bridge 2->3 -> 3-4-5 cycle
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        P = chain_from_edges(6, edges)
        sccs = components(P)
        assert [list(c) for c in sccs] == [[0, 1, 2], [3, 4, 5]]
        # oracle: pairwise mutual reachability from boolean powers
        adj = np.zeros((6, 6), dtype=bool)
        for i, j in edges:
            adj[i, j] = True
        C = bool_power_closure(adj)
        for comp in sccs:
            for a in comp:
                for b in comp:
                    assert a == b or (C[a, b] and C[b, a])
        assert not (C[0, 3] and C[3, 0])


class TestReachability:
    def test_identity_self_loops_only(self):
        w, f = make_field(3, 3)
        P = build_stochastic_map(build_cell_map(f), 0.9)
        assert (reachability(P) == np.eye(9, dtype=bool)).all()

    def test_linear_chain_strict_upper_triangle(self):
        P = chain_from_edges(3, [(0, 1), (1, 2), (2, 2)])
        C = reachability(P)
        expected = np.array(
            [[False, True, True], [False, False, True], [False, False, True]]
        )
        assert (C == expected).all()

    def test_random_maps_match_boolean_powers(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            n = 12
            edges = []
            for i in range(n):
                for j in rng.choice(n, size=rng.integers(1, 4), replace=False):
                    edges.append((i, int(j)))
            P = chain_from_edges(n, edges)
            adj = np.zeros((n, n), dtype=bool)
            for i, j in edges:
                adj[i, j] = True
            assert (reachability(P) == bool_power_closure(adj)).all()


def persistent_states(P):
    """The attractors' states, checked against the closure-based oracle."""
    dec = decompose(P)
    assert dec.to_dict() == ref.decompose(P).to_dict()
    return [states_of(P, g) for g in dec.persistent_groups]


class TestPersistentGroups:
    def test_single_absorbing_cell(self):
        # state 2 moves only to itself, in slot NW: not the IDLE slot
        P = chain_from_edges(3, [(0, 1), (1, 2), (2, 2)])
        assert slot_layout(P).targets[2].tolist() == [2] + [-1] * 8
        assert persistent_states(P) == [[2]]

    def test_cycle_plus_transient(self):
        # A <-> B cycle fed by transient c
        P = chain_from_edges(3, [(0, 1), (1, 0), (2, 0)])
        assert persistent_states(P) == [[0, 1]]

    def test_dead_end_state_is_not_an_attractor(self):
        # an all-padding row has no edge out, yet never cycles back: it is
        # transient, reaching no attractor, where [0] is the only one
        P = chain_from_edges(3, [(0, 0), (1, 0), (2, 0)])
        targets = slot_layout(P).targets.copy()
        targets[2] = -1
        P = from_slots(P.workspace, targets)
        for decomposition in (decompose, ref.decompose):
            with pytest.raises(RuntimeError, match="transient state 2 "):
                decomposition(P)
        # a dead end below a smaller state: the error names the upstream one
        upstream = chain_from_edges(3, [(0, 0), (1, 2)], dead_ends={2})
        for decomposition in (decompose, ref.decompose):
            with pytest.raises(RuntimeError, match="transient state 1 "):
                decomposition(upstream)
        targets[2] = targets[1]  # restored, 2 feeds [0] like 1
        assert persistent_states(from_slots(P.workspace, targets)) == [[0]]

    def test_double_gyre_two_attractors(self, gyre):
        dec = gyre["decomposition"]
        assert dec.n_groups == 2


class TestTransientGroups:
    def test_chain_single_domicile(self):
        P = chain_from_edges(3, [(0, 1), (1, 2), (2, 2)])
        trans = decompose(P).transient_groups
        assert list(trans) == [(1,)]
        assert states_of(P, trans[(1,)]) == [0, 1]

    def test_cell_feeding_two_basins(self):
        # 0 and 1 absorbing; 2 feeds both; 3 feeds only 0
        P = chain_from_edges(4, [(0, 0), (1, 1), (2, 0), (2, 1), (3, 0)])
        trans = decompose(P).transient_groups
        assert set(trans) == {(1, 2), (1,)}
        assert states_of(P, trans[(1, 2)]) == [2]
        assert states_of(P, trans[(1,)]) == [3]

    def test_double_gyre_three_transient_groups(self, gyre):
        dec = gyre["decomposition"]
        keys = set(dec.transient_groups)
        assert keys == {(1,), (2,), (1, 2)}


class TestDecompositionInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partition_closure_communication(self, seed):
        rng = np.random.default_rng(seed)
        w, f = random_field(rng, 6, 7, land_prob=0.1)
        P = build_stochastic_map(build_cell_map(f), 0.9)
        dec = decompose(P)
        C = reachability(P)

        all_cells = np.concatenate(
            [*dec.persistent_groups, *dec.transient_groups.values()]
        )
        assert sorted(all_cells) == list(w.free_cells)

        adj = adjacency(P)
        for g in dec.persistent_groups:
            states = {w.state_of(int(z)) for z in g}
            for s in states:
                assert set(int(t) for t in adj[s]) <= states  # closure
                for s2 in states:
                    assert C[s, s2] and C[s2, s]  # communication

    def test_absorption_from_transient_cells(self, gyre):
        # statistical sanity on the fixture: chains started in a sample of
        # transient cells land in an attractor well within n_free * 10 steps
        w = gyre["workspace"]
        P = gyre["P"]
        dec = gyre["decomposition"]
        group_of = np.zeros(P.n_states, dtype=int)
        for i, g in enumerate(dec.persistent_groups):
            for z in g:
                group_of[w.state_of(int(z))] = i + 1
        rng = np.random.default_rng(99)
        transient = np.sort(np.concatenate(list(dec.transient_groups.values())))
        sample = rng.choice(transient, size=20, replace=False)
        cum = np.cumsum(P.probs, axis=1)
        last = np.count_nonzero(P.probs, axis=1) - 1  # each row's last move
        absorbed = 0
        trials = 50
        for z in sample:
            for _ in range(trials):
                s = w.state_of(int(z))
                for _ in range(w.n_free * 10):
                    u = rng.random()
                    k = int(np.searchsorted(cum[s], u, side="right"))
                    k = min(k, int(last[s]))
                    s = int(P.targets[s, k])
                    if group_of[s]:
                        absorbed += 1
                        break
        assert absorbed / (len(sample) * trials) >= 0.99

    def test_decomposition_json_export(self, gyre):
        d = gyre["decomposition"].to_dict()
        assert d["n_persistent_groups"] == 2
        assert d["n_transient_groups"] == 3
        sizes = sum(g["size"] for g in d["persistent_groups"]) + sum(
            g["size"] for g in d["transient_groups"]
        )
        assert sizes == d["n_free"]
        labels = [g["label"] for g in d["transient_groups"]]
        assert labels == ["B(1)", "B(2)", "B(1,2)"]

    def test_region_of_every_cell(self, gyre):
        rng = np.random.default_rng(3)
        decs = [gyre["decomposition"]]
        for _ in range(2):
            _, f = random_field(rng, 7, 9, land_prob=0.25, vmax=1.5)
            decs.append(decompose(build_stochastic_map(build_cell_map(f), 0.9)))
        for dec in decs:
            w = dec.workspace
            owner = {}
            for label in dec.region_labels():
                for z in dec.region_cells(label):
                    owner[int(z)] = label
            assert sorted(owner) == list(w.free_cells)
            labels = dec.region_labels()
            for z in range(0, w.n_cells + 2):
                if z in owner:
                    assert labels[dec.region[w.state_of(z)]] == owner[z]
                    assert labels[dec.region[w.state_of(np.int64(z))]] == owner[z]
                elif 1 <= z <= w.n_cells:  # land
                    with pytest.raises(LandCellError):
                        w.state_of(z)
                else:  # off the grid
                    with pytest.raises(CellIndexError):
                        w.state_of(z)
