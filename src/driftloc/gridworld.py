"""Discretized 2-D cell workspace: indexing, land mask, neighborhoods, compass geometry.

Cells are numbered 1..N in row-major order starting from the south-west
corner (row 0 = southernmost, col 0 = westernmost).  Row index increases
northward, column index increases eastward; compass N therefore means
"+1 row".  All distances are measured in cell units (index space), not
degrees or meters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import CellIndexError, NonAdjacentCellsError


class Direction(IntEnum):
    """Compass observation alphabet: eight headings plus IDLE (no move)."""

    N = 0
    NE = 1
    E = 2
    SE = 3
    S = 4
    SW = 5
    W = 6
    NW = 7
    IDLE = 8

    @property
    def symbol(self) -> str:
        return "I" if self is Direction.IDLE else self.name

    @property
    def step(self) -> tuple[int, int]:
        """(drow, dcol) displacement of one move in this direction."""
        return _DIRECTION_STEPS[self]


_DIRECTION_STEPS = {
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
_STEP_TO_DIRECTION = {step: d for d, step in _DIRECTION_STEPS.items()}
_SYMBOL_TO_DIRECTION = {d.symbol: d for d in Direction}

N_DIRECTIONS = len(Direction)

# Moore offsets in ascending cell-index order (row-major): used wherever a
# deterministic scan order over a neighborhood is required.
MOORE_OFFSETS = tuple(
    (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)
)


def parse_directions(text: str) -> list[Direction]:
    """Parse a whitespace/comma-separated observation string like "N NE I SW".

    Raises ValueError naming the offending token.
    """
    symbols = text.replace(",", " ").split()
    out = []
    for tok in symbols:
        d = _SYMBOL_TO_DIRECTION.get(tok.upper())
        if d is None:
            raise ValueError(f"unknown direction symbol {tok!r}")
        out.append(d)
    return out


def direction_array(histories) -> np.ndarray:
    """R equal-length observation histories as an (R, T) array of direction
    indices.

    Integer input is checked by one range test; other input symbol by symbol.
    An invalid symbol raises the ValueError that ``Direction(y)`` raises for
    the first one, history by history.
    """
    obs = np.asarray(histories)
    if obs.dtype.kind not in "iu" and obs.size:
        obs = np.array([[Direction(y) for y in h] for h in histories])
    obs = obs.astype(np.int64, copy=False)
    if obs.size and (obs.min() < 0 or obs.max() >= N_DIRECTIONS):
        r, t = divmod(int(np.argmax((obs < 0) | (obs >= N_DIRECTIONS))), obs.shape[1])
        Direction(histories[r][t])  # raises the enum's ValueError
    return obs


_SYMBOLS = tuple(d.symbol for d in Direction)


def format_histories(histories) -> list[str]:
    """Serialize R observation histories, each as one space-separated line."""
    rows = direction_array(histories).tolist()
    return [" ".join(map(_SYMBOLS.__getitem__, h)) for h in rows]


@dataclass(frozen=True, eq=False)
class Workspace:
    """Rectangular cell grid with a land mask.

    ``origin`` is the geographic (lon, lat) of the center of cell (0, 0);
    ``cell_size`` is (dlon, dlat) per cell.  ``land_mask[row, col]`` is True
    for inaccessible (land/littoral) cells.  Immutable after construction.
    """

    rows: int
    cols: int
    origin: tuple[float, float] = (0.0, 0.0)
    cell_size: tuple[float, float] = (1.0, 1.0)
    land_mask: np.ndarray = None  # (rows, cols) bool; default all water

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.rows}x{self.cols}")
        if self.land_mask is None:
            mask = np.zeros((self.rows, self.cols), dtype=bool)
        else:
            mask = np.asarray(self.land_mask, dtype=bool)
            if mask.shape != (self.rows, self.cols):
                raise ValueError(
                    f"land_mask shape {mask.shape} does not match grid "
                    f"{self.rows}x{self.cols}"
                )
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "land_mask", mask)

        # Free-cell enumeration: water cells in ascending index order get
        # contiguous state indices 0..n_free-1.  ``state_grid`` holds them,
        # flat and row-major, in the grid framed by one off-grid cell: -1 on
        # land and on the frame, so no Moore move from a cell leaves it.
        free = np.flatnonzero(~mask.reshape(-1)) + 1
        if free.size < 1:
            raise ValueError("workspace has no water cells")
        grid = np.full((self.rows + 2) * (self.cols + 2), -1, dtype=np.int64)
        grid[self.padded(*np.divmod(free - 1, self.cols))] = np.arange(free.size)
        free.setflags(write=False)
        grid.setflags(write=False)
        object.__setattr__(self, "free_cells", free)
        object.__setattr__(self, "state_grid", grid)

    # -- indexing -----------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @property
    def n_free(self) -> int:
        return len(self.free_cells)

    def _check(self, z: int) -> int:
        z = int(z)
        if not 1 <= z <= self.n_cells:
            raise CellIndexError(f"cell index {z} out of range 1..{self.n_cells}")
        return z

    def index(self, row: int, col: int) -> int:
        """Cell index of (row, col), 1-based row-major."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise CellIndexError(f"(row, col) = ({row}, {col}) outside grid")
        return row * self.cols + col + 1

    def rowcol(self, z: int) -> tuple[int, int]:
        z = self._check(z)
        return divmod(z - 1, self.cols)

    def is_land(self, z: int) -> bool:
        row, col = self.rowcol(z)
        return bool(self.land_mask[row, col])

    def padded(self, row, col):
        """Flat index in ``state_grid`` of (row, col), or of arrays of them.

        Row -1 or ``rows`` and column -1 or ``cols`` are the frame.
        """
        return (row + 1) * (self.cols + 2) + col + 1

    def state_of(self, z: int) -> int:
        """Free-cell state index of a water cell (raises on land)."""
        s = int(self.state_grid[self.padded(*self.rowcol(z))])
        if s < 0:
            raise ValueError(f"cell {z} is land and has no state index")
        return s

    # -- geometry -----------------------------------------------------------

    def neighbors(self, z: int) -> set[int]:
        """Moore neighborhood of z: in-grid water cells, z itself excluded."""
        row, col = self.rowcol(z)
        out = set()
        for dr, dc in MOORE_OFFSETS:
            r, c = row + dr, col + dc
            if 0 <= r < self.rows and 0 <= c < self.cols and not self.land_mask[r, c]:
                out.add(r * self.cols + c + 1)
        return out


def direction_between(w: Workspace, z: int, z2: int) -> Direction:
    """Compass direction of the displacement z -> z2 (IDLE iff z2 == z)."""
    r1, c1 = w.rowcol(z)
    r2, c2 = w.rowcol(z2)
    step = (r2 - r1, c2 - c1)
    d = _STEP_TO_DIRECTION.get(step)
    if d is None:
        raise NonAdjacentCellsError(
            f"cells {z} and {z2} are neither equal nor Moore-adjacent"
        )
    return d


def cell_distances(w: Workspace, z, z2) -> np.ndarray:
    """Euclidean distances between the centers of equal-shape arrays of cells.

    Raises CellIndexError for the first cell out of range, taking z[i] before
    z2[i] and the pairs in row-major order.
    """
    cells = np.stack([np.asarray(z, dtype=np.int64), np.asarray(z2, dtype=np.int64)], axis=-1)
    flat = cells.ravel()
    if flat.size and (flat.min() < 1 or flat.max() > w.n_cells):
        w._check(flat[np.argmax((flat < 1) | (flat > w.n_cells))])  # raises
    rows, cols = np.divmod(cells - 1, w.cols)
    dr = rows[..., 1] - rows[..., 0]
    dc = cols[..., 1] - cols[..., 0]
    # The root of the exact integer dr^2 + dc^2 is correctly rounded: it
    # equals math.hypot on every offset up to 400, where np.hypot does not.
    return np.sqrt(dr * dr + dc * dc)
