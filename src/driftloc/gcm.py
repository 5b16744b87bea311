"""Stochastic cell-to-cell mapping chain and its long-term flow decomposition.

The deterministic cell map is widened into a finite Markov chain: each water
cell z gets a mapped set A(z) with probabilities summing to one.  Motion
uncertainty is spread over the cells surrounding the continuous Euler
endpoint (the up-to-four cells whose centers lie within one cell of it),
clamped to the nine-action neighborhood of z.  The perfect-motion image
carries probability r and the remaining members share (1 - r) uniformly.
Cells whose endpoint stencil touches land or leaves the grid are "colliding"
cells: there the drifter stays or moves to any admissible neighbor with
uniform probability.  At r = 1 motion is perfectly reliable everywhere and
the chain degenerates to the deterministic map.

A(z) always lies in the 3 x 3 Moore stencil of z, so every row of the chain
has nine fixed slots: slot k = (drow + 1) * 3 + (dcol + 1) holds the move by
the Moore offset (drow, dcol), and a slot outside A(z) holds -1 / 0.0.  The
slots run in ascending cell index, and each one reads as one compass symbol
(``SLOT_DIRECTIONS``), so the compass emission matrix is a fixed column
permutation of the probabilities.  This module is the only one that knows
the layout.

The chain's support graph is decomposed into persistent groups (attractors:
closed, mutually communicating cell sets) and transient groups keyed by the
set of attractors each cell can reach (its domiciles).  Tarjan emits each
component after every component its edges enter, so one pass decides, as
each component is emitted, whether it is an attractor and what it reaches.
Time is O(n * 9) plus the size of each union of domicile sets formed.
Memory is the rows' successor lists plus one interned tuple per distinct
domicile set, and each of those is a key of the result or an attractor's own
singleton, so no n x n closure or attractor x state table is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CellIndexError
from .flowfield import CellMap
from .gridworld import Direction, Workspace

MAX_MAPPED = 9  # |A(z)| can never exceed the nine-action neighborhood

# The compass symbol of each slot: Direction.step is (drow, dcol), and the
# slots are those offsets in ascending order.
SLOT_DIRECTIONS = tuple(sorted(Direction, key=lambda d: d.step))


@dataclass(frozen=True, eq=False)
class StochasticCellMap:
    """The chain: mapped sets A(z) with probabilities, in fixed Moore slots.

    ``targets[s, k]`` / ``probs[s, k]`` are the state index and probability
    of the move of state s by the Moore offset of slot k, or -1 / 0.0 when
    that cell is not in A(z).  ``colliding[s]`` flags cells handled by the
    uniform boundary rule.
    """

    workspace: Workspace
    r: float
    dt: float
    targets: np.ndarray  # (n_free, MAX_MAPPED) int64 state indices, -1 off A(z)
    probs: np.ndarray  # (n_free, MAX_MAPPED) float64, 0.0 off A(z)
    colliding: np.ndarray  # (n_free,) bool

    @property
    def n_states(self) -> int:
        return len(self.targets)

    def mapped_set(self, z: int) -> dict[int, float]:
        """A(z) as {cell index: probability} for one water cell."""
        s = self.workspace.state_of(z)
        live = self.targets[s] >= 0
        cells = self.workspace.free_cells[self.targets[s, live]]
        return {int(c): float(p) for c, p in zip(cells, self.probs[s, live])}

    def adjacency(self) -> list[list[int]]:
        """Successor state lists (the support graph), one list per state."""
        live = self.targets >= 0
        flat = self.targets[live].tolist()  # row by row, slots in order
        ends = np.cumsum(live.sum(axis=1)).tolist()
        return [flat[a:b] for a, b in zip([0, *ends], ends)]


def build_stochastic_map(cm: CellMap, r: float) -> StochasticCellMap:
    """Spread motion uncertainty around each Euler endpoint.

    r is the probability of perfect motion, in (0, 1].  The decomposition
    structure (supports, hence attractors and transient groups) does not
    depend on r for r < 1; r = 1 removes the uncertainty entirely.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"perfect-motion probability r must be in (0, 1], got {r}")
    w = cm.workspace
    n = len(cm.images)
    states = np.arange(n)
    rows, cols = np.divmod(w.free_cells - 1, w.cols)
    image_rows, image_cols = np.divmod(cm.images - 1, w.cols)
    image_slot = (image_rows - rows + 1) * 3 + (image_cols - cols + 1)
    ex, ey = cm.endpoints[:, 0], cm.endpoints[:, 1]

    # state index of every cell; -1 on land and on a one-cell frame off-grid
    state_grid = np.full(w.n_cells, -1, dtype=np.int64)
    state_grid[w.free_cells - 1] = states
    state_grid = np.pad(state_grid.reshape(w.rows, w.cols), 1, constant_values=-1)

    # The endpoint stencil: the up-to-four cells whose centers lie within one
    # cell of the endpoint.  One of them on land or off-grid makes the cell
    # colliding; otherwise those in the Moore stencil join A(z) beside the
    # image.  Column MAX_MAPPED of ``member`` takes the corners outside it.
    member = np.zeros((n, MAX_MAPPED + 1), dtype=bool)
    member[states, image_slot] = True
    colliding = np.zeros(n, dtype=bool)
    for ri in (np.floor(ey), np.floor(ey) + 1):
        for ci in (np.floor(ex), np.floor(ex) + 1):
            on = (abs(ey - ri) < 1.0) & (abs(ex - ci) < 1.0)
            frame_r = np.clip(ri, -1, w.rows).astype(np.int64) + 1
            frame_c = np.clip(ci, -1, w.cols).astype(np.int64) + 1
            colliding |= on & (state_grid[frame_r, frame_c] < 0)
            if r < 1.0:
                dr, dc = ri - rows, ci - cols
                near = on & (abs(dr) <= 1) & (abs(dc) <= 1)
                slot = np.where(near, (dr + 1) * 3 + (dc + 1), MAX_MAPPED)
                member[states, slot.astype(np.int64)] = True
    uniform = colliding & (r < 1.0)

    targets = np.full((n, MAX_MAPPED), -1, dtype=np.int64)
    for k, d in enumerate(SLOT_DIRECTIONS):
        target = state_grid[rows + d.step[0] + 1, cols + d.step[1] + 1]
        live = (target >= 0) & (uniform | member[:, k])
        targets[live, k] = target[live]

    count = (targets >= 0).sum(axis=1)
    uniform_p = 1.0 / count
    image_p = np.where(count == 1, 1.0, r)
    spread = (1.0 - r) / np.maximum(count - 1, 1)
    probs = np.zeros((n, MAX_MAPPED), dtype=np.float64)
    for k in range(MAX_MAPPED):
        p = np.where(uniform, uniform_p, np.where(image_slot == k, image_p, spread))
        probs[:, k] = np.where(targets[:, k] >= 0, p, 0.0)

    for a in (targets, probs, colliding):
        a.setflags(write=False)
    return StochasticCellMap(
        workspace=w, r=float(r), dt=cm.dt, targets=targets, probs=probs,
        colliding=colliding,
    )


def _tarjan(succ: list[list[int]]):
    """Iterative Tarjan SCC, yielding each component (a list of states) as it
    is emitted: in reverse topological order of the condensation, so every
    component comes before any component that reaches it."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, None)]
        while work:
            v, children = work[-1]
            if children is None:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
                children = iter(succ[v])
                work[-1] = (v, children)
            for u in children:  # resumes where the last descent left off
                if index[u] == -1:
                    work.append((u, None))
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        u = stack.pop()
                        on_stack[u] = False
                        comp.append(u)
                        if u == v:
                            break
                    yield comp


def strongly_connected_components(P: StochasticCellMap) -> list[np.ndarray]:
    """Maximal SCCs of the support graph, ordered by smallest member state."""
    comps = [np.array(sorted(c), dtype=np.int64) for c in _tarjan(P.adjacency())]
    comps.sort(key=lambda c: int(c[0]))
    return comps


def _group_label(domiciles: tuple[int, ...]) -> str:
    return "B(" + ",".join(str(d) for d in domiciles) + ")"


@dataclass(frozen=True, eq=False)
class FlowDecomposition:
    """Partition of the water cells into attractors and transient groups.

    ``persistent_groups[i]`` holds the cell indices of attractor B_{i+1};
    ``transient_groups`` maps domicile tuples (1-based attractor numbers) to
    cell index arrays.  Together they partition the free cells.
    """

    workspace: Workspace
    persistent_groups: list[np.ndarray]  # cell indices, ascending
    transient_groups: dict[tuple[int, ...], np.ndarray]

    @property
    def n_groups(self) -> int:
        return len(self.persistent_groups)

    @property
    def persistent_cells(self) -> np.ndarray:
        if not self.persistent_groups:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(self.persistent_groups))

    @property
    def transient_cells(self) -> np.ndarray:
        if not self.transient_groups:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(list(self.transient_groups.values())))

    def __post_init__(self):
        # _region[s] indexes _labels and _groups, so region_of does no scan.
        labels = [f"B_{i + 1}" for i in range(self.n_groups)]
        labels += [_group_label(k) for k in self.transient_groups]
        groups = [*self.persistent_groups, *self.transient_groups.values()]
        region = np.empty(self.workspace.n_free, dtype=np.int64)  # groups partition it
        if groups:
            cells = np.concatenate(groups)
            ids = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
            region[np.searchsorted(self.workspace.free_cells, cells)] = ids
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_groups", groups)
        object.__setattr__(self, "_region", region)

    def region_labels(self) -> list[str]:
        return list(self._labels)

    def region_cells(self, label: str) -> np.ndarray:
        if label not in self._labels:
            raise KeyError(f"unknown region label {label!r}")
        return self._groups[self._labels.index(label)]

    def region_of(self, z: int) -> str:
        try:
            return self._labels[self._region[self.workspace.state_of(z)]]
        except (CellIndexError, ValueError):
            raise KeyError(f"cell {z} is not a water cell of this decomposition") from None

    def to_dict(self) -> dict:
        return {
            "rows": self.workspace.rows,
            "cols": self.workspace.cols,
            "n_free": self.workspace.n_free,
            "n_persistent_groups": self.n_groups,
            "n_transient_groups": len(self.transient_groups),
            "persistent_groups": [
                {"label": f"B_{i + 1}", "size": len(g), "cells": [int(z) for z in g]}
                for i, g in enumerate(self.persistent_groups)
            ],
            "transient_groups": [
                {
                    "label": _group_label(k),
                    "domiciles": list(k),
                    "size": len(cells),
                    "cells": [int(z) for z in cells],
                }
                for k, cells in self.transient_groups.items()
            ],
        }


def decompose(P: StochasticCellMap) -> FlowDecomposition:
    """Full long-term decomposition of the chain's support graph.

    One pass over the components in Tarjan's emission order, in which every
    component comes after all those its edges enter.  A component that
    cycles and has no edge leaving it is a new attractor; any other reaches
    the union of what the components its edges enter reach.  Reach sets are
    interned tuples of attractor ids, reused as they are wherever one set is
    entered, so the pass costs O(n * 9) time plus the unions it forms.
    Attractors are then numbered by smallest member and the transient states
    grouped by one stable sort on their reach set.  Raises RuntimeError for
    the smallest transient state that reaches no attractor (a dead-end row).
    """
    w = P.workspace
    succ = P.adjacency()
    reach = [-1] * len(succ)  # reach id of each state, set when it is emitted
    sets: list[tuple[int, ...]] = [()]  # reach id -> attractor ids it reaches
    ids = {(): 0}
    attractors: list[list[int]] = []  # member states, in emission order
    for comp in _tarjan(succ):
        # The members are not set yet, so -1 marks an edge inside the
        # component: it cycles (more than one member, or a self-loop).
        entered = {reach[u] for v in comp for u in succ[v]}
        cyclic = -1 in entered
        entered.discard(-1)
        if len(entered) == 1:
            (rid,) = entered
        else:
            if entered:
                key = tuple(sorted(set().union(*(sets[r] for r in entered))))
            elif cyclic:
                key = (len(attractors),)
                attractors.append(comp)
            else:
                key = ()
            rid = ids.setdefault(key, len(ids))
            if rid == len(sets):
                sets.append(key)
        for v in comp:
            reach[v] = rid

    # B_1..B_g are numbered by their smallest member state.
    order = sorted(range(len(attractors)), key=lambda a: min(attractors[a]))
    number = [0] * len(attractors)
    for i, a in enumerate(order, start=1):
        number[a] = i

    persistent = np.zeros(len(succ), dtype=bool)
    persistent[[v for comp in attractors for v in comp]] = True
    transient = np.flatnonzero(~persistent)
    rid_of = np.array(reach, dtype=np.int64)[transient]
    by_rid = np.argsort(rid_of, kind="stable")  # states stay ascending per group
    rids, starts = np.unique(rid_of[by_rid], return_index=True)
    groups = {}
    for rid, states in zip(rids.tolist(), np.split(transient[by_rid], starts[1:])):
        if rid == 0:  # the empty set: listed first, so states[0] is the smallest
            raise RuntimeError(
                f"transient state {states[0]} reaches no persistent group; "
                "the decomposition is inconsistent"
            )
        groups[tuple(sorted(number[a] for a in sets[rid]))] = w.free_cells[states]

    keys = sorted(groups, key=lambda k: (len(k), k))  # single domiciles first
    return FlowDecomposition(
        workspace=w,
        persistent_groups=[w.free_cells[sorted(attractors[a])] for a in order],
        transient_groups={k: groups[k] for k in keys},
    )
