import math

import numpy as np
import pytest

from driftloc import (
    SyntheticFieldSpec,
    VectorField,
    Workspace,
    build_cell_map,
    default_dt,
    synthesize_field,
)
from conftest import make_field


def euler_point(f, z, dt):
    """The Euler endpoint (x, y) that ``build_cell_map`` gives water cell z."""
    w = f.workspace
    return tuple(build_cell_map(f, dt).endpoints[w.state_of(z)].tolist())


def image(cm, z):
    """The image cell of water cell z in a cell map."""
    return int(cm.images[cm.workspace.state_of(z)])


def center(w, z):
    """Cell center in continuous grid coordinates (x = col, y = row)."""
    row, col = w.rowcol(z)
    return (float(col), float(row))


class TestEulerEndpoint:
    def test_zero_field_fixed_point(self):
        w, f = make_field(3, 3)
        assert euler_point(f, 5, dt=2.5) == (1.0, 1.0)

    def test_unit_advection_east(self):
        w, f = make_field(3, 3, u=1.0)
        assert euler_point(f, 5, dt=1.0) == (2.0, 1.0)

    def test_direct_application(self):
        w, f = make_field(3, 3, u=0.4, v=0.9)
        x, y = euler_point(f, 5, dt=1.0)
        assert (x, y) == (1.4, 1.9)

    def test_land_cell_rejected(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        w = Workspace(rows=3, cols=3, land_mask=mask)
        f = VectorField(workspace=w, u=np.zeros((3, 3)), v=np.zeros((3, 3)))
        # A land cell gets no endpoint: the map has one row per water cell.
        cm = build_cell_map(f, dt=1.0)
        assert len(cm.endpoints) == len(cm.images) == w.n_free == 8
        with pytest.raises(ValueError, match="is land"):
            w.state_of(1)

    def test_scaling_consistency(self):
        # dt * F is what matters: doubling F and halving dt changes nothing.
        w, f1 = make_field(4, 4, u=0.3, v=-0.7)
        _, f2 = make_field(4, 4, u=0.6, v=-1.4)
        assert (build_cell_map(f1, 1.0).endpoints == build_cell_map(f2, 0.5).endpoints).all()


class TestMappedCell:
    def test_zero_field_idle(self):
        w, f = make_field(3, 3)
        cm = build_cell_map(f, dt=1.0)
        for z in range(1, 10):
            assert image(cm, z) == z

    def test_strong_east_flow(self):
        w, f = make_field(3, 3, u=0.6)
        assert image(build_cell_map(f, dt=1.0), 4) == 5

    def test_equidistant_tie_prefers_smaller_index(self):
        # Endpoint exactly halfway between the center cell and its east
        # neighbor: both at distance 0.5, the smaller index (the cell itself)
        # wins.  Verified against exact enumeration of candidate distances.
        w, f = make_field(3, 3, u=0.5)
        z = w.index(1, 1)
        ex, ey = euler_point(f, z, 1.0)
        dists = {}
        for cand in sorted(w.neighbors(z) | {z}):
            r, c = w.rowcol(cand)
            dists[cand] = (c - ex) ** 2 + (r - ey) ** 2
        best = min(dists.values())
        ties = [cand for cand, d in dists.items() if d == best]
        assert ties == [5, 6]  # exact float tie by construction
        assert image(build_cell_map(f, 1.0), z) == 5

    def test_land_image_falls_back_to_nearest_water(self):
        # Strong east flow but the east neighbor is land: nearest water
        # candidate wins instead.
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 2] = True
        w = Workspace(rows=3, cols=3, land_mask=mask)
        f = VectorField(workspace=w, u=np.full((3, 3), 0.9), v=np.zeros((3, 3)))
        z = w.index(1, 1)
        img = image(build_cell_map(f, 1.0), z)
        assert img in (w.neighbors(z) | {z})
        assert not w.is_land(img)
        assert img == z  # center at distance 0.9 beats the diagonals (~1.345)


class TestBuildCellMap:
    def test_uniform_east_translation(self):
        w, f = make_field(4, 5, u=1.0)
        cm = build_cell_map(f)  # dt = 1/max|F| = 1
        assert cm.dt == 1.0
        for row in range(4):
            for col in range(4):
                assert image(cm, w.index(row, col)) == w.index(row, col + 1)

    def test_zero_field_identity(self):
        w, f = make_field(3, 4)
        cm = build_cell_map(f)
        for z in w.free_cells:
            assert image(cm, int(z)) == int(z)

    def test_image_locality(self):
        rng = np.random.default_rng(3)
        w = Workspace(rows=5, cols=5)
        f = VectorField(
            workspace=w,
            u=rng.uniform(-2, 2, (5, 5)),
            v=rng.uniform(-2, 2, (5, 5)),
        )
        cm = build_cell_map(f)
        for z in w.free_cells:
            assert image(cm, int(z)) in (w.neighbors(int(z)) | {int(z)})

    def test_shape_mismatch_rejected(self):
        w = Workspace(rows=3, cols=3)
        with pytest.raises(ValueError):
            VectorField(workspace=w, u=np.zeros((3, 4)), v=np.zeros((3, 3)))

    def test_determinism(self):
        w, f = make_field(6, 6, u=0.3, v=-0.4)
        cm1 = build_cell_map(f)
        cm2 = build_cell_map(f)
        assert (cm1.images == cm2.images).all()
        assert (cm1.endpoints == cm2.endpoints).all()

    def test_default_dt_unit_displacement(self):
        w, f = make_field(4, 4, u=3.0, v=4.0)
        assert default_dt(f) == pytest.approx(1 / 5.0)
        w, f = make_field(4, 4)
        assert default_dt(f) == 1.0

    def test_default_dt_ignores_the_speed_given_on_land(self):
        land = np.zeros((4, 4), dtype=bool)
        land[0, :] = True
        w, f = make_field(4, 4, u=np.where(land, 30.0, 3.0), v=np.where(land, -40.0, 4.0),
                          land=land)
        assert default_dt(f) == pytest.approx(1 / 5.0)
        w, f = make_field(4, 4, u=np.where(land, 30.0, 0.0), land=land)
        assert default_dt(f) == 1.0

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_dt_outside_zero_to_inf_rejected(self, dt):
        _, f = make_field(3, 3, u=1.0)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            build_cell_map(f, dt)

    @pytest.mark.parametrize("dt", [10**400, np.float64(math.inf)], ids=["10**400", "inf"])
    def test_dt_beyond_the_float_range_rejected(self, dt):
        # An integer too large for a float is no finite dt either.
        _, f = make_field(3, 3, u=1.0)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            build_cell_map(f, dt)

    def test_largest_float_dt_accepted(self):
        _, f = make_field(3, 3, u=0.0)
        assert build_cell_map(f, 10**308).dt == 1e308

    def test_default_dt_that_overflows_rejected(self):
        _, f = make_field(3, 3, u=1e-320)
        assert default_dt(f) == math.inf
        with pytest.raises(ValueError, match="dt must be positive and finite, got inf"):
            build_cell_map(f)


def _orbit_rotation_sign(points, center):
    """Accumulated signed winding of a polyline around a center."""
    total = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        a0 = math.atan2(y0 - center[1], x0 - center[0])
        a1 = math.atan2(y1 - center[1], x1 - center[0])
        da = (a1 - a0 + math.pi) % (2 * math.pi) - math.pi
        total += da
    return math.copysign(1.0, total)


class TestDoubleGyreOrbits:
    def test_orbits_circulate_oppositely_around_both_centers(self):
        # Oracle: integrate the continuous field with small Euler sub-steps
        # and compare the winding direction with the discrete cell-map orbit.
        # Starts sit in the fast band (the slow core quantizes to identity).
        w, f = synthesize_field(SyntheticFieldSpec(kind="double_gyre", decay=0.3), 21, 29)
        cm = build_cell_map(f)
        dt = cm.dt
        centers = {"left": (6.75, 10.0), "right": (21.25, 10.0)}
        starts = {"left": w.index(10, 2), "right": w.index(10, 26)}
        n_steps = 8
        signs = {}
        for side in ("left", "right"):
            z = starts[side]
            orbit = [center(w, z)]
            for _ in range(n_steps):
                z = image(cm, z)
                if center(w, z) != orbit[-1]:
                    orbit.append(center(w, z))
            assert len(orbit) >= 4, "orbit did not move"
            # continuous-flow oracle from the same start over the same time
            x, y = center(w, starts[side])
            cont = [(x, y)]
            for _ in range(100 * n_steps):
                r = min(max(int(round(y)), 0), w.rows - 1)
                c = min(max(int(round(x)), 0), w.cols - 1)
                x += 0.01 * dt * f.u[r, c]
                y += 0.01 * dt * f.v[r, c]
                cont.append((x, y))
            discrete = _orbit_rotation_sign(orbit, centers[side])
            continuous = _orbit_rotation_sign(cont, centers[side])
            assert discrete == continuous
            signs[side] = discrete
        assert signs["left"] == -signs["right"]
