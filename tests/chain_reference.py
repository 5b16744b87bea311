"""Reference implementations that the slot-wise chain builders replaced: the
per-cell Euler cell-map loop, the per-cell stochastic-map loop over packed
rows, and the sampler that reads compass symbols off the moves.

Frozen copies of the earlier code, kept as bit-exactness oracles.  The
stochastic map here packs each row's mapped cells into its first slots
(ascending cell index, -1 / 0.0 after them); the package stores the same
cells in fixed Moore slots.  Each builder costs a Python loop over the water
cells; use them on small grids only.
"""

from dataclasses import dataclass

import numpy as np

from driftloc import Workspace, default_dt, direction_between
from driftloc.gridworld import N_DIRECTIONS

MAX_MAPPED = 9


def _admissible(w: Workspace, z: int) -> list[int]:
    """{z} union water Moore neighbors, ascending cell index."""
    return sorted(w.neighbors(z) | {z})


def _nearest_admissible(w: Workspace, z: int, endpoint: tuple[float, float]) -> int:
    """Nearest admissible cell to the endpoint; ties break to smallest index."""
    ex, ey = endpoint
    best = None
    best_d = None
    for cand in _admissible(w, z):
        r, c = w.rowcol(cand)
        d = (c - ex) ** 2 + (r - ey) ** 2
        if best_d is None or d < best_d:
            best, best_d = cand, d
    return best


@dataclass(frozen=True, eq=False)
class LoopCellMap:
    workspace: Workspace
    dt: float
    images: np.ndarray
    endpoints: np.ndarray


def build_cell_map(field, dt=None) -> LoopCellMap:
    """Euler-map every water cell; dt defaults to one cell at peak speed."""
    w = field.workspace
    if dt is None:
        dt = default_dt(field)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")

    free = w.free_cells
    rows = (free - 1) // w.cols
    cols = (free - 1) % w.cols
    ex = cols + dt * field.u[rows, cols]
    ey = rows + dt * field.v[rows, cols]
    endpoints = np.column_stack([ex, ey])

    images = np.empty(len(free), dtype=np.int64)
    for s, z in enumerate(free):
        images[s] = _nearest_admissible(w, int(z), (ex[s], ey[s]))
    return LoopCellMap(workspace=w, dt=float(dt), images=images, endpoints=endpoints)


def _endpoint_stencil(ex: float, ey: float):
    """Grid cells (row, col) whose center is within one cell of the endpoint."""
    cells = []
    for ri in (int(np.floor(ey)), int(np.floor(ey)) + 1):
        if abs(ey - ri) >= 1.0:
            continue
        for ci in (int(np.floor(ex)), int(np.floor(ex)) + 1):
            if abs(ex - ci) >= 1.0:
                continue
            cells.append((ri, ci))
    return cells


@dataclass(frozen=True, eq=False)
class PackedChain:
    """Mapped sets in packed rows: the first slots of each row, then -1 / 0.0."""

    workspace: Workspace
    targets: np.ndarray
    probs: np.ndarray
    image: np.ndarray
    colliding: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.image)


def build_stochastic_map(cm, r: float) -> PackedChain:
    """Spread motion uncertainty around each Euler endpoint, cell by cell."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"perfect-motion probability r must be in (0, 1], got {r}")
    w = cm.workspace
    n = len(cm.images)
    targets = np.full((n, MAX_MAPPED), -1, dtype=np.int64)
    probs = np.zeros((n, MAX_MAPPED), dtype=np.float64)
    image = np.empty(n, dtype=np.int64)
    colliding = np.zeros(n, dtype=bool)

    for s in range(n):
        z = int(w.free_cells[s])
        m = int(cm.images[s])
        image[s] = w.state_of(m)
        ex, ey = cm.endpoints[s]

        stencil = _endpoint_stencil(float(ex), float(ey))
        hit_obstacle = any(
            not (0 <= ri < w.rows and 0 <= ci < w.cols) or w.land_mask[ri, ci]
            for ri, ci in stencil
        )
        colliding[s] = hit_obstacle

        if r == 1.0:
            cells = [m]
            p = [1.0]
        elif hit_obstacle:
            cells = _admissible(w, z)
            p = [1.0 / len(cells)] * len(cells)
        else:
            admissible = set(_admissible(w, z))
            cells = {ri * w.cols + ci + 1 for ri, ci in stencil} & admissible
            cells.add(m)
            cells = sorted(cells)
            if len(cells) == 1:
                p = [1.0]
            else:
                spread = (1.0 - r) / (len(cells) - 1)
                p = [r if c == m else spread for c in cells]

        for k, (c, pc) in enumerate(zip(cells, p)):
            targets[s, k] = w.state_of(c)
            probs[s, k] = pc

    return PackedChain(
        workspace=w, targets=targets, probs=probs, image=image, colliding=colliding
    )


def sample_trajectory(P, pi, T, seed, obs_noise=0.0):
    """Simulate a packed chain for T steps and report the compass history."""
    if T < 1:
        raise ValueError("trajectory length T must be >= 1")
    rng = np.random.default_rng(seed)
    w = P.workspace
    cum = np.cumsum(P.probs, axis=1)

    s = int(rng.choice(len(pi), p=pi))
    states = [s]
    for _ in range(T):
        u = rng.random()
        k = int(np.searchsorted(cum[s], u, side="right"))
        k = min(k, int((P.targets[s] >= 0).sum()) - 1)
        s = int(P.targets[s, k])
        states.append(s)

    cells = [int(w.free_cells[s]) for s in states]
    obs = [int(direction_between(w, cells[t], cells[t + 1])) for t in range(T)]
    if obs_noise > 0.0:
        for t in range(T):
            if rng.random() < obs_noise:
                obs[t] = int((obs[t] + 1 + rng.integers(N_DIRECTIONS - 1)) % N_DIRECTIONS)
    return cells, obs
