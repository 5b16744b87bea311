"""Stochastic cell-to-cell mapping chain and its long-term flow decomposition.

``build_stochastic_map(cm, r)`` widens a deterministic cell map into a finite
Markov chain: each water cell z gets a mapped set A(z) inside its 3 x 3 Moore
stencil, with probabilities summing to one.  The perfect-motion image carries
probability r and the other cells around the continuous Euler endpoint share
1 - r uniformly; a "colliding" cell, whose endpoint stencil touches land or
leaves the grid, moves uniformly to any admissible neighbor.  At r = 1 the
chain is the deterministic map.  O(n * 9) time and memory.

``decompose(P)`` partitions the water cells into attractors (closed, mutually
communicating sets, numbered B_1..B_g by smallest member) and transient
groups keyed by the attractors their cells reach, single domiciles first and
then by domicile tuple, cells ascending in each.  O(n * 9) time and memory,
plus the unions of domicile sets formed; no n x n table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CellIndexError
from .flowfield import CellMap
from .gridworld import Direction, Workspace

MAX_MAPPED = 9  # |A(z)| can never exceed the nine-action neighborhood

# Every chain row has nine fixed slots: slot k = (drow + 1) * 3 + (dcol + 1)
# holds the move by the Moore offset (drow, dcol), so the slots run in
# ascending cell index.  Each slot reads as one compass symbol, so the compass
# emission matrix is a fixed column permutation of the probabilities.  This
# module is the only one that knows the layout.
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
            # the corner cell, or the frame cell beyond it when off-grid
            corner = w.padded(np.clip(ri, -1, w.rows), np.clip(ci, -1, w.cols))
            colliding |= on & (w.state_grid.take(corner.astype(np.int64)) < 0)
            if r < 1.0:
                dr, dc = ri - rows, ci - cols
                near = on & (abs(dr) <= 1) & (abs(dc) <= 1)
                slot = np.where(near, (dr + 1) * 3 + (dc + 1), MAX_MAPPED)
                member[states, slot.astype(np.int64)] = True
    uniform = colliding & (r < 1.0)

    targets = np.full((n, MAX_MAPPED), -1, dtype=np.int64)
    for k, d in enumerate(SLOT_DIRECTIONS):
        target = w.state_grid.take(w.padded(rows + d.step[0], cols + d.step[1]))
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


def _successors(P: StochasticCellMap) -> tuple[np.ndarray, np.ndarray]:
    """Each state's number of successors other than itself, and those
    successors as int32, row by row with the slots in order.  A self-loop
    never changes which component a state belongs to."""
    live = (P.targets >= 0) & (P.targets != np.arange(P.n_states)[:, None])
    return live.sum(axis=1), P.targets[live].astype(np.int32)


def _component_labels(counts: np.ndarray, succ: np.ndarray) -> tuple[np.ndarray, int]:
    """Each state's strongly connected component, numbered in emission order.

    One iterative Tarjan, in Pearce's one-array form, over flat successor
    lists: state v has ``counts[v]`` successors, listed after those of the
    states before it in ``succ``, and is read with an integer cursor.
    Emission order is reverse topological: every edge that leaves a
    component enters one with a smaller number.  Returns the int32 labels
    and the number of components.
    """
    n = len(counts)
    succ = succ.tolist()
    ends = np.cumsum(counts).tolist()
    cursor = [0, *ends[:-1]]  # next edge of each row to read
    # rindex[v] is 0 while v is unvisited, the lowest DFS number (from 1) v
    # reaches while its component is open, then done + the component's
    # number.  done exceeds every DFS number, so an edge into a closed
    # component never lowers rindex.
    rindex = [0] * n
    done = n + 1
    closed = 0
    stack: list[int] = []  # finished states whose component is still open
    count = 0
    for root in range(n):
        if rindex[root]:
            continue
        count += 1
        rindex[root] = count
        path = [root]
        number = [count]  # the DFS number of each state on the path
        while path:
            v = path[-1]
            rv = rindex[v]
            i, end = cursor[v], ends[v]
            while i < end:
                u = succ[i]
                ru = rindex[u]
                if not ru:  # descend; this edge is read again once u is done
                    cursor[v] = i
                    rindex[v] = rv
                    count += 1
                    rindex[u] = count
                    path.append(u)
                    number.append(count)
                    break
                if ru < rv:
                    rv = ru
                i += 1
            else:
                path.pop()
                if rv == number.pop():  # v roots a component: close it
                    label = done + closed
                    closed += 1
                    rindex[v] = label
                    while stack and rindex[stack[-1]] >= rv:
                        rindex[stack.pop()] = label
                else:
                    rindex[v] = rv
                    stack.append(v)
    return (np.array(rindex, dtype=np.int64) - done).astype(np.int32), closed


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

    @cached_property
    def _index(self):
        # Labels, cell arrays, and each state's index into both, so region_of
        # does no scan.  Built on first use: classify never reads it.
        labels = [f"B_{i + 1}" for i in range(self.n_groups)]
        labels += [_group_label(k) for k in self.transient_groups]
        groups = [*self.persistent_groups, *self.transient_groups.values()]
        region = np.empty(self.workspace.n_free, dtype=np.int64)  # groups partition it
        if groups:
            cells = np.concatenate(groups)
            ids = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
            region[np.searchsorted(self.workspace.free_cells, cells)] = ids
        return labels, groups, region

    def region_labels(self) -> list[str]:
        return list(self._index[0])

    def region_cells(self, label: str) -> np.ndarray:
        labels, groups, _ = self._index
        if label not in labels:
            raise KeyError(f"unknown region label {label!r}")
        return groups[labels.index(label)]

    def region_of(self, z: int) -> str:
        labels, _, region = self._index
        try:
            return labels[region[self.workspace.state_of(z)]]
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
                {"label": f"B_{i + 1}", "size": len(g), "cells": g.tolist()}
                for i, g in enumerate(self.persistent_groups)
            ],
            "transient_groups": [
                {
                    "label": _group_label(k),
                    "domiciles": list(k),
                    "size": len(cells),
                    "cells": cells.tolist(),
                }
                for k, cells in self.transient_groups.items()
            ],
        }


def decompose(P: StochasticCellMap) -> FlowDecomposition:
    """Full long-term decomposition of the chain's support graph.

    Attractors are the cyclic components that no edge leaves, numbered
    B_1..B_g by smallest member state.  Every other state is grouped by the
    set of attractors it reaches; groups are ordered single domiciles first,
    then by domicile tuple, with states ascending in each.  Costs O(n * 9)
    time and memory, plus the unions of domicile sets formed.  Raises
    RuntimeError for the smallest transient state that reaches no attractor
    (a dead-end row).
    """
    w = P.workspace
    counts, succ = _successors(P)
    labels, n_comps = _component_labels(counts, succ)
    src, dst = np.repeat(labels, counts), labels[succ]
    out = src != dst
    # Cross edges keyed source-major: each component's run of keys lists the
    # components it enters, all of them earlier in emission order.
    edges = np.sort(src[out].astype(np.int64) * n_comps + dst[out])
    edges = edges[np.diff(edges, prepend=-1) != 0]
    bounds = np.searchsorted(edges, np.arange(n_comps + 1) * n_comps)
    exits = bounds[1:] > bounds[:-1]

    sizes = np.bincount(labels, minlength=n_comps)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    by_label = np.argsort(labels, kind="stable")  # states ascending per label
    cyclic = sizes > 1
    cyclic[labels[(P.targets == np.arange(P.n_states)[:, None]).any(axis=1)]] = True
    is_attractor = cyclic & ~exits
    attractors = np.flatnonzero(is_attractor)
    attractors = attractors[np.argsort(by_label[starts[attractors]])]  # B_1..B_g

    # Reach ids index interned tuples of the attractor numbers reached; id 0
    # is the empty set (a dead end) and id i <= g is B_i alone.
    g = len(attractors)
    sets = [(), *((i,) for i in range(1, g + 1))]
    ids = {key: rid for rid, key in enumerate(sets)}
    reach = [0] * n_comps  # reach id of each component
    for rid, c in enumerate(attractors.tolist(), start=1):
        reach[c] = rid
    entered = (edges % n_comps).tolist()
    bounds = bounds.tolist()
    for c in np.flatnonzero(exits).tolist():  # in emission order
        rids = {reach[d] for d in entered[bounds[c]:bounds[c + 1]]}
        if len(rids) == 1:
            reach[c] = rids.pop()
            continue
        key = tuple(sorted(set().union(*(sets[r] for r in rids))))
        reach[c] = rid = ids.setdefault(key, len(ids))
        if rid == len(sets):
            sets.append(key)

    cells = w.free_cells[by_label]
    persistent = [cells[a:b] for a, b in zip(starts[attractors].tolist(),
                                               starts[attractors + 1].tolist())]
    transient = np.flatnonzero(~is_attractor[labels])
    rid_of = np.array(reach, dtype=np.int64)[labels[transient]]
    by_rid = np.argsort(rid_of, kind="stable")  # states stay ascending per group
    rids, firsts = np.unique(rid_of[by_rid], return_index=True)
    groups = {}
    for rid, states in zip(rids.tolist(), np.split(transient[by_rid], firsts[1:])):
        if rid == 0:  # the empty set: listed first, so states[0] is the smallest
            raise RuntimeError(
                f"transient state {states[0]} reaches no persistent group; "
                "the decomposition is inconsistent"
            )
        groups[sets[rid]] = w.free_cells[states]

    keys = sorted(groups, key=lambda k: (len(k), k))  # single domiciles first
    return FlowDecomposition(
        workspace=w,
        persistent_groups=persistent,
        transient_groups={k: groups[k] for k in keys},
    )
