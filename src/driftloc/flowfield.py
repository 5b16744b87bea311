"""Per-cell current velocities and the deterministic Euler flow-line cell map.

Velocities are expressed in cell units per unit time (u eastward along
columns, v northward along rows).  A single Euler step of length ``dt``
advects a cell center to a continuous endpoint; the deterministic image of
the cell is the nearest admissible cell to that endpoint, where admissible
means the cell itself or one of its in-grid water Moore neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridworld import Workspace


@dataclass(frozen=True, eq=False)
class VectorField:
    """Horizontal velocity samples at every cell center of a workspace.

    Land-cell entries are forced to zero; water-cell entries must be finite.
    ``depth`` and ``time`` are the free-text labels of a field file.
    """

    workspace: Workspace
    u: np.ndarray  # (rows, cols) eastward, cell-widths per unit time
    v: np.ndarray  # (rows, cols) northward, cell-heights per unit time
    depth: str = ""
    time: str = ""

    def __post_init__(self):
        w = self.workspace
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.shape != (w.rows, w.cols) or v.shape != (w.rows, w.cols):
            raise ValueError(
                f"field shape {u.shape}/{v.shape} does not match grid "
                f"{w.rows}x{w.cols}"
            )
        water = ~w.land_mask
        if not (np.isfinite(u[water]).all() and np.isfinite(v[water]).all()):
            raise ValueError("non-finite velocity on a water cell")
        u = np.where(water, u, 0.0)
        v = np.where(water, v, 0.0)
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def speed(self) -> np.ndarray:
        return np.hypot(self.u, self.v)

    def max_speed(self) -> float:
        water = ~self.workspace.land_mask
        if not water.any():
            return 0.0
        return float(self.speed()[water].max())


def default_dt(field: VectorField) -> float:
    """Time for the fastest current in the field to traverse one cell.

    With this step no Euler endpoint lies more than one cell away from its
    origin.  Falls back to 1.0 for an everywhere-zero field.
    """
    vmax = field.max_speed()
    return 1.0 / vmax if vmax > 0.0 else 1.0


@dataclass(frozen=True, eq=False)
class CellMap:
    """Deterministic Euler image of every water cell, plus the raw endpoints.

    ``images[s]`` is the image cell index of the water cell with state index
    s; ``endpoints[s]`` is the continuous Euler endpoint (x, y) it was
    derived from.  The endpoints are retained because the stochastic mapping
    spreads probability around them.
    """

    workspace: Workspace
    dt: float
    images: np.ndarray  # (n_free,) int64, cell indices
    endpoints: np.ndarray  # (n_free, 2) float64, (x, y)

def build_cell_map(field: VectorField, dt: float | None = None) -> CellMap:
    """Euler-map every water cell; dt defaults to one cell at peak speed."""
    w = field.workspace
    if dt is None:
        dt = default_dt(field)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")

    free = w.free_cells
    rows, cols = np.divmod(free - 1, w.cols)
    ex = cols + dt * field.u[rows, cols]
    ey = rows + dt * field.v[rows, cols]
    endpoints = np.column_stack([ex, ey])

    # Nearest admissible cell: a running minimum over the nine candidates in
    # ascending cell index; strict < keeps the first, smallest-index minimum.
    images = np.zeros(len(free), dtype=np.int64)  # 0: no candidate yet
    best = np.zeros(len(free))
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            r, c = rows + dr, cols + dc
            d = (c - ex) ** 2 + (r - ey) ** 2
            water = w.state_grid.take(w.padded(r, c)) >= 0  # not land, not off-grid
            take = water & ((images == 0) | (d < best))
            best[take] = d[take]
            images[take] = free[take] + dr * w.cols + dc

    images.setflags(write=False)
    endpoints.setflags(write=False)
    return CellMap(workspace=w, dt=float(dt), images=images, endpoints=endpoints)
