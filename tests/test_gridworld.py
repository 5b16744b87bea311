import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftloc import (
    CellIndexError,
    Direction,
    DriftlocError,
    LandCellError,
    NonAdjacentCellsError,
    Workspace,
    direction_between,
    parse_directions,
)
from driftloc.gridworld import SLOT_DIRECTIONS, cell_distances, format_histories

# Each direction's (drow, dcol): north is +1 row, east is +1 col.
STEPS = {
    Direction.N: (1, 0),
    Direction.NE: (1, 1),
    Direction.E: (0, 1),
    Direction.SE: (-1, 1),
    Direction.S: (-1, 0),
    Direction.SW: (-1, -1),
    Direction.W: (0, -1),
    Direction.NW: (1, -1),
    Direction.IDLE: (0, 0),
}


def ws(rows=3, cols=3, land=None):
    mask = None
    if land is not None:
        mask = np.zeros((rows, cols), dtype=bool)
        for r, c in land:
            mask[r, c] = True
    return Workspace(rows=rows, cols=cols, land_mask=mask)


def distance(w, z, z2):
    """Distance between two cell centers, from a pair of one."""
    return float(cell_distances(w, z, z2))


class TestWorkspace:
    def test_row_major_indexing_from_southwest(self):
        w = ws()
        assert w.index(0, 0) == 1
        assert w.index(0, 2) == 3
        assert w.index(2, 2) == 9
        for z in range(1, 10):
            assert w.index(*w.rowcol(z)) == z

    def test_index_out_of_range(self):
        w = ws()
        with pytest.raises(IndexError):
            w.rowcol(0)
        with pytest.raises(IndexError):
            w.rowcol(10)
        with pytest.raises(IndexError):
            w.index(3, 0)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            Workspace(rows=1, cols=5)

    def test_all_land_rejected(self):
        with pytest.raises(ValueError):
            Workspace(rows=2, cols=2, land_mask=np.ones((2, 2), dtype=bool))

    def test_free_cell_enumeration_skips_land(self):
        w = ws(land=[(0, 0), (1, 1)])
        assert w.n_free == 7
        assert list(w.free_cells) == [2, 3, 4, 6, 7, 8, 9]
        assert w.state_of(2) == 0
        assert w.state_of(9) == 6
        with pytest.raises(ValueError):
            w.state_of(1)

    def test_land_cell_has_a_typed_error(self):
        w = ws(land=[(0, 0)])
        with pytest.raises(LandCellError, match="cell 1 is land") as err:
            w.state_of(1)
        assert isinstance(err.value, DriftlocError)


@st.composite
def land_masks(draw):
    """A 2-8 x 2-8 land mask with at least one water cell."""
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    mask = np.array(draw(st.lists(st.booleans(), min_size=rows * cols,
                                  max_size=rows * cols)))
    mask[draw(st.integers(0, rows * cols - 1))] = False
    return mask.reshape(rows, cols)


class TestStateGrid:
    """The padded state grid agrees with state_of and with the independent
    neighbors loop, which the chain oracle is built from."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(mask=land_masks())
    def test_grid_matches_state_of_and_neighbors(self, mask):
        rows, cols = mask.shape
        w = Workspace(rows=rows, cols=cols, land_mask=mask)
        grid = w.state_grid
        framed = grid.reshape(rows + 2, cols + 2)
        inner = np.zeros(framed.shape, dtype=bool)
        inner[1:-1, 1:-1] = True
        assert (framed[~inner] == -1).all()
        row, col = np.divmod(np.arange(w.n_cells), cols)  # cells 1..n_cells
        at_cells = w.padded(row, col)
        assert grid[at_cells].tolist() == framed[1:-1, 1:-1].ravel().tolist()
        for z in range(1, w.n_cells + 1):
            at = w.padded(*w.rowcol(z))
            assert at == at_cells[z - 1]
            if w.is_land(z):
                assert grid[at] == -1
                continue
            assert grid[at] == w.state_of(z)
            steps = [d.step for d in SLOT_DIRECTIONS if d is not Direction.IDLE]
            moves = [grid[at + dr * (cols + 2) + dc] for dr, dc in steps]
            near = {int(w.free_cells[s]) for s in moves if s >= 0}
            assert near == w.neighbors(z)


class TestNeighbors:
    def test_center_full_moore(self):
        w = ws()
        assert w.neighbors(w.index(1, 1)) == {1, 2, 3, 4, 6, 7, 8, 9}

    def test_corner_has_three(self):
        w = ws()
        assert w.neighbors(1) == {2, 4, 5}

    def test_land_excluded(self):
        w = ws(land=[(0, 1)])
        assert w.neighbors(w.index(1, 1)) == {1, 3, 4, 6, 7, 8, 9}
        assert len(w.neighbors(w.index(1, 1))) == 7

    def test_symmetry_over_water(self):
        rng = np.random.default_rng(1)
        w = ws(5, 5, land=[(1, 2), (3, 3)])
        for z in w.free_cells:
            for z2 in w.neighbors(int(z)):
                assert int(z) in w.neighbors(z2)


class TestDirections:
    def test_axis_and_identity_and_diagonal(self):
        w = ws()
        c = w.index(1, 1)
        assert direction_between(w, c, w.index(2, 1)) is Direction.N
        assert direction_between(w, c, c) is Direction.IDLE
        assert direction_between(w, c, w.index(2, 2)) is Direction.NE
        assert direction_between(w, c, w.index(0, 0)) is Direction.SW

    def test_every_step(self):
        assert {d: d.step for d in Direction} == STEPS

    def test_every_offset_from_an_interior_cell(self):
        w = ws(5, 5)
        c = w.index(2, 2)
        by_offset = {step: d for d, step in STEPS.items()}
        for dr in range(-2, 3):
            for dc in range(-2, 3):
                z2 = w.index(2 + dr, 2 + dc)
                if (dr, dc) in by_offset:
                    assert direction_between(w, c, z2) is by_offset[dr, dc]
                else:
                    with pytest.raises(NonAdjacentCellsError):
                        direction_between(w, c, z2)

    def test_non_adjacent_raises(self):
        w = ws()
        with pytest.raises(NonAdjacentCellsError):
            direction_between(w, 1, 9)

    def test_displacement_roundtrip(self):
        w = ws(4, 4)
        for z in range(1, 17):
            r, c = w.rowcol(z)
            for z2 in w.neighbors(z) | {z}:
                d = direction_between(w, z, z2)
                dr, dc = d.step
                assert w.index(r + dr, c + dc) == z2

    def test_parse_format_roundtrip(self):
        seq = [Direction.N, Direction.NE, Direction.IDLE, Direction.SW]
        assert parse_directions(format_histories([seq])[0]) == seq
        assert format_histories([seq])[0] == "N NE I SW"
        assert parse_directions("n, ne\nI") == [Direction.N, Direction.NE, Direction.IDLE]

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="XX"):
            parse_directions("N XX")

    def test_format_histories(self):
        assert format_histories(np.array([[0, 8], [5, 2]])) == ["N I", "SW E"]
        assert format_histories([[Direction.W, Direction.SE]]) == ["W SE"]
        assert format_histories([np.array([], dtype=np.int64)])[0] == ""
        assert format_histories([(d for d in (Direction.NW, Direction.S))])[0] == "NW S"

    def test_format_rejects_what_direction_rejects(self):
        for bad in ([0, 9], np.array([3, -1]), ["N"], [1.5]):
            with pytest.raises(ValueError) as want:
                [Direction(y) for y in bad]
            with pytest.raises(ValueError) as got:
                format_histories([bad])[0]
            assert str(got.value) == str(want.value)


class TestCellDistance:
    def test_identity_unit_diagonal(self):
        w = ws()
        assert distance(w, 5, 5) == 0.0
        assert distance(w, 4, 5) == 1.0
        assert distance(w, 1, 5) == pytest.approx(math.sqrt(2))

    def test_metric_properties(self):
        w = ws(6, 7)
        rng = np.random.default_rng(7)
        cells = rng.integers(1, w.n_cells + 1, size=(60, 3))
        for a, b, c in cells:
            ab = distance(w, a, b)
            assert ab == distance(w, b, a)
            assert (ab == 0.0) == (a == b)
            assert ab <= distance(w, a, c) + distance(w, c, b) + 1e-12

    def test_matches_hypot_on_every_offset_to_400(self):
        # The root of the exact integer square sum is correctly rounded, as
        # math.hypot is on these offsets; np.hypot is not on all of them.
        w = Workspace(rows=401, cols=401)
        cells = np.arange(1, w.n_cells + 1)
        rows, cols = np.divmod(cells - 1, w.cols)
        for r0, c0 in ((0, 0), (400, 400)):
            got = cell_distances(w, np.full(w.n_cells, w.index(r0, c0)), cells)
            want = [math.hypot(r - r0, c - c0) for r, c in zip(rows.tolist(), cols.tolist())]
            assert got.tolist() == want

    def test_first_cell_out_of_range_is_reported(self):
        w = ws()
        with pytest.raises(CellIndexError, match="cell index 0 out of range 1..9"):
            cell_distances(w, [[1, 0], [10, 1]], [[1, 11], [1, 1]])
        with pytest.raises(CellIndexError, match="cell index 12 "):
            cell_distances(w, [[1, 2]], [[12, -3]])
        with pytest.raises(CellIndexError, match="cell index 10 "):
            distance(w, 1, 10)
        with pytest.raises(CellIndexError, match="cell index 0 "):
            distance(w, 0, 1)
