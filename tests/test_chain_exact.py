"""The slot-wise chain builders and sampler against the frozen per-cell loops.

``chain_reference`` builds the cell map and the packed chain cell by cell and
reads compass symbols off the sampled moves; the package must give the same
images, endpoints, collision flags and, once its W columns are widened to
nine, the same rows, byte for byte.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chain_reference as ref
from conftest import colliding, gyre_with_land, random_field, sample_run, slot_layout
from driftloc import (
    SLOT_DIRECTIONS,
    VectorField,
    build_cell_map,
    build_stochastic_map,
    initial_distribution,
)
from test_acceptance import _fixture_suite

SUITE = {name: field for name, (_, field) in _fixture_suite()}


def assert_matches_reference(field, dt, rs):
    cm, want_cm = build_cell_map(field, dt), ref.build_cell_map(field, dt)
    assert cm.dt == want_cm.dt
    assert cm.images.dtype == want_cm.images.dtype
    assert cm.images.tobytes() == want_cm.images.tobytes()
    assert cm.endpoints.tobytes() == want_cm.endpoints.tobytes()
    for r in rs:
        smap, want = build_stochastic_map(cm, r), ref.build_stochastic_map(want_cm, r)
        rows = slot_layout(smap, packed=True)
        assert smap.targets.dtype == np.int64
        assert rows.targets.tobytes() == want.targets.tobytes(), r
        assert rows.probs.tobytes() == want.probs.tobytes(), r
        assert colliding(cm, r).tobytes() == want.colliding.tobytes(), r
        assert_moore_slots(slot_layout(smap))


def assert_moore_slots(smap):
    """Every live slot k holds the move by the Moore offset of slot k."""
    w = smap.workspace
    s, k = np.nonzero(smap.targets >= 0)
    src = np.divmod(w.free_cells[s] - 1, w.cols)
    dst = np.divmod(w.free_cells[smap.targets[s, k]] - 1, w.cols)
    steps = np.array([d.step for d in SLOT_DIRECTIONS])[k]
    assert (dst[0] - src[0] == steps[:, 0]).all()
    assert (dst[1] - src[1] == steps[:, 1]).all()
    assert (smap.probs[smap.targets < 0] == 0.0).all()
    assert (smap.probs[smap.targets >= 0] > 0.0).all()


def half_cell(field):
    """The field with velocities rounded to half cells: endpoints on gridlines."""
    return VectorField(
        workspace=field.workspace, u=np.round(2 * field.u) / 2, v=np.round(2 * field.v) / 2
    )


class TestBuildersMatchLoops:
    @pytest.mark.parametrize("name", list(SUITE))
    def test_fixture_suite(self, name):
        for dt in (None, 0.5, 1.0, 2.0):
            assert_matches_reference(SUITE[name], dt, (0.5, 0.9, 1.0))

    def test_half_cell_endpoints_tie(self):
        # endpoints on gridlines: two-cell stencils and exact distance ties
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, field = random_field(rng, 6, 7, land_prob=0.2, vmax=1.5)
            for dt in (None, 1.0, 2.0):
                assert_matches_reference(half_cell(field), dt, (0.6, 1.0))

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 8),
        cols=st.integers(2, 8),
        land_prob=st.sampled_from([0.0, 0.2, 0.4]),
        halves=st.booleans(),
        dt=st.sampled_from([None, 0.5, 1.0, 2.0]),
        r=st.sampled_from([0.6, 0.9, 1.0]),
    )
    def test_random_fields_with_land(self, seed, rows, cols, land_prob, halves, dt, r):
        rng = np.random.default_rng(seed)
        _, field = random_field(rng, rows, cols, land_prob=land_prob, vmax=2.0)
        assert_matches_reference(half_cell(field) if halves else field, dt, (r,))


class TestSamplerMatchesLoop:
    @pytest.mark.parametrize("obs_noise", [0.0, 0.2])
    def test_fixture_runs(self, gyre, obs_noise):
        w = gyre["workspace"]
        for r in (0.7, 0.9, 1.0):
            smap = build_stochastic_map(gyre["cell_map"], r)
            rows = ref.build_stochastic_map(ref.build_cell_map(gyre["field"]), r)
            for mode in ("deterministic", "probabilistic"):
                for run in range(10):
                    seed = np.random.SeedSequence((round(10 * r), run))
                    x0 = int(w.free_cells[np.random.default_rng(seed).integers(w.n_free)])
                    pi = initial_distribution(w, x0, mode)
                    got = sample_run(smap, pi, 40, seed, obs_noise=obs_noise)
                    want = ref.sample_trajectory(rows, pi, 40, seed, obs_noise=obs_noise)
                    assert got == want, (r, mode, run)

    def test_random_fields_with_land(self):
        rng = np.random.default_rng(61)
        for trial in range(40):
            _, field = random_field(rng, 5, 6, land_prob=0.25, vmax=2.0)
            w = field.workspace
            r = float(rng.choice([0.6, 0.9, 1.0]))
            smap = build_stochastic_map(build_cell_map(field), r)
            rows = ref.build_stochastic_map(ref.build_cell_map(field), r)
            pi = initial_distribution(w, int(rng.choice(w.free_cells)), "probabilistic")
            noise = 0.3 * (trial % 2)
            seed = int(rng.integers(2**32))
            got = sample_run(smap, pi, 30, seed, obs_noise=noise)
            assert got == ref.sample_trajectory(rows, pi, 30, seed, obs_noise=noise), trial


class TestMemory:
    def test_stochastic_map_peak_near_what_it_keeps(self):
        # The classify benchmark's size: 100x130 with a coast and islands.
        # The builder reads the workspace's state grid and keeps its own
        # scratch to a few (n,) arrays beside the (n + 1, W) targets and the
        # two (n,) slot arrays it returns; an (n, 9) int64 scratch table made
        # 2.2x what it keeps.
        cm = build_cell_map(gyre_with_land(100, 130, 0))
        tracemalloc.start()
        try:
            smap = build_stochastic_map(cm, 0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n, width = smap.n_states, smap.targets.shape[1]
        kept = smap.targets.nbytes + smap.mask.nbytes + smap.image.nbytes
        assert kept == (n + 1) * 8 * width + 3 * n
        assert peak <= 1.75 * kept, f"peaked at {peak / 2**20:.2f} MiB, keeps {kept / 2**20:.2f}"
