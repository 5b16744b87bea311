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

The chain's support graph is decomposed into persistent groups (attractors:
closed, mutually communicating cell sets) and transient groups keyed by the
set of attractors each cell can reach (its domiciles).  It costs one Tarjan
pass plus one reverse breadth-first search per attractor, in O(n * 9) memory;
no n x n reachability closure is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flowfield import CellMap, _admissible
from .gridworld import Workspace

MAX_MAPPED = 9  # |A(z)| can never exceed the nine-action neighborhood


@dataclass(frozen=True, eq=False)
class StochasticCellMap:
    """Mapped sets A(z) with probabilities, in padded row form.

    ``targets[s, k]`` / ``probs[s, k]`` list the mapped cells (as state
    indices) and probabilities of state s, padded with -1 / 0.0.  Rows are
    sorted by target cell index.  ``image[s]`` is the perfect-motion target
    and ``colliding[s]`` flags cells handled by the uniform boundary rule.
    """

    workspace: Workspace
    r: float
    dt: float
    targets: np.ndarray  # (n_free, MAX_MAPPED) int64 state indices, -1 pad
    probs: np.ndarray  # (n_free, MAX_MAPPED) float64, 0.0 pad
    image: np.ndarray  # (n_free,) int64 state index of the Euler image
    colliding: np.ndarray  # (n_free,) bool

    @property
    def n_states(self) -> int:
        return len(self.image)

    def mapped_set(self, z: int) -> dict[int, float]:
        """A(z) as {cell index: probability} for one water cell."""
        s = self.workspace.state_of(z)
        k = int((self.targets[s] >= 0).sum())
        cells = self.workspace.free_cells[self.targets[s, :k]]
        return {int(c): float(p) for c, p in zip(cells, self.probs[s, :k])}


def _endpoint_stencil(ex: float, ey: float):
    """Grid cells (row, col) whose center is within one cell of the endpoint.

    These are the bilinear-interpolation cells of the endpoint: four for a
    generic point, two on a center gridline, one exactly at a cell center.
    Cells outside the grid are included (as raw coordinates) so the caller
    can detect collisions with the grid edge.
    """
    cells = []
    for ri in (int(np.floor(ey)), int(np.floor(ey)) + 1):
        if abs(ey - ri) >= 1.0:
            continue
        for ci in (int(np.floor(ex)), int(np.floor(ex)) + 1):
            if abs(ex - ci) >= 1.0:
                continue
            cells.append((ri, ci))
    return cells


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

    for a in (targets, probs, image, colliding):
        a.setflags(write=False)
    return StochasticCellMap(
        workspace=w, r=float(r), dt=cm.dt, targets=targets, probs=probs,
        image=image, colliding=colliding,
    )


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic one-step transition matrix in padded sparse row form.

    Rows are indexed by the free-cell enumeration of the workspace; each row
    has at most MAX_MAPPED nonzeros.
    """

    workspace: Workspace
    targets: np.ndarray  # (n, MAX_MAPPED) int64 state indices, -1 pad
    probs: np.ndarray  # (n, MAX_MAPPED) float64

    @property
    def n_states(self) -> int:
        return len(self.targets)

    def row_sums(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def adjacency(self) -> list[list[int]]:
        """Successor state lists (the support graph), one list per state."""
        return [[u for u in row if u >= 0] for row in self.targets.tolist()]


def transition_matrix(smap: StochasticCellMap) -> TransitionMatrix:
    return TransitionMatrix(
        workspace=smap.workspace, targets=smap.targets, probs=smap.probs
    )


def _tarjan(succ: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan SCC.  Components are emitted in reverse topological
    order of the condensation (every component before any that reaches it)."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
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
                    comps.append(comp)
    return comps


def strongly_connected_components(P: TransitionMatrix) -> list[np.ndarray]:
    """Maximal SCCs of the support graph, ordered by smallest member state."""
    comps = [np.array(sorted(c), dtype=np.int64) for c in _tarjan(P.adjacency())]
    comps.sort(key=lambda c: int(c[0]))
    return comps


def reachability(P: TransitionMatrix) -> np.ndarray:
    """Boolean matrix C with C[i, j] true iff state i reaches j in >= 1 step.

    Computed on the condensation DAG with bitset accumulation; semantically
    equal to the transitive closure of the support graph.  It allocates n x n,
    so ``decompose`` never calls it; it is kept for oracles and tests.
    """
    succ = P.adjacency()
    n = len(succ)
    comps = _tarjan(succ)  # reverse topological order
    comp_of = np.empty(n, dtype=np.int64)
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci

    member_bits = []
    for comp in comps:
        bits = 0
        for v in comp:
            bits |= 1 << v
        member_bits.append(bits)

    reach_bits = [0] * len(comps)
    for ci, comp in enumerate(comps):  # successors already processed
        cyclic = len(comp) > 1 or any(int(u) == comp[0] for u in succ[comp[0]])
        bits = member_bits[ci] if cyclic else 0
        for v in comp:
            for u in succ[v]:
                di = int(comp_of[int(u)])
                if di != ci:
                    bits |= member_bits[di] | reach_bits[di]
        reach_bits[ci] = bits

    nbytes = (n + 7) // 8
    C = np.empty((n, n), dtype=bool)
    for v in range(n):
        raw = reach_bits[comp_of[v]].to_bytes(nbytes, "little")
        C[v] = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:n]
    return C


def find_persistent_groups(
    P: TransitionMatrix, sccs: list[np.ndarray]
) -> list[np.ndarray]:
    """SCCs that are closed under the mapping: the attractors.

    A component is persistent iff it cycles (more than one member, or a
    self-loop) and no edge of the support graph leaves it.  Both tests run
    over the padded (n, 9) rows.  Returned in the order of ``sccs``, which
    numbers the groups B_1..B_g.
    """
    sizes = np.array([len(c) for c in sccs], dtype=np.int64)
    comp_of = np.empty(P.n_states, dtype=np.int64)
    comp_of[np.concatenate(sccs)] = np.repeat(np.arange(len(sccs)), sizes)

    leaves = ((P.targets >= 0) & (comp_of[P.targets] != comp_of[:, None])).any(axis=1)
    loops = (P.targets == np.arange(P.n_states)[:, None]).any(axis=1)
    closed = np.bincount(comp_of, weights=leaves, minlength=len(sccs)) == 0
    cyclic = (sizes > 1) | (np.bincount(comp_of, weights=loops, minlength=len(sccs)) > 0)
    return [c for c, keep in zip(sccs, closed & cyclic) if keep]


def find_transient_groups(
    P: TransitionMatrix,
    persistent_groups: list[np.ndarray],
    transient_states: np.ndarray,
) -> dict[tuple[int, ...], np.ndarray]:
    """Group transient states by their domicile set.

    The domicile set of a transient state is the set of attractor numbers
    (1-based positions in ``persistent_groups``) it can reach, found by one
    reverse breadth-first search per attractor over predecessor lists.  Keys
    with one element are single-domicile groups; larger keys are
    multiple-domicile groups (the paper's boundary regions).  Every transient
    state must have at least one domicile in a finite chain.
    """
    n = P.n_states
    dst = P.targets.reshape(-1)
    slots = np.flatnonzero(dst >= 0)
    slots = slots[np.argsort(dst[slots], kind="stable")]  # grouped by target
    preds = (slots // P.targets.shape[1]).tolist()
    start = np.concatenate(([0], np.cumsum(np.bincount(dst[slots], minlength=n)))).tolist()

    domiciles: list[list[int]] = [[] for _ in range(n)]
    seen = [0] * n
    for g, members in enumerate(persistent_groups, start=1):
        queue = members.tolist()
        for v in queue:  # grows while it is walked
            if seen[v] != g:
                seen[v] = g
                domiciles[v].append(g)
                queue.extend(preds[start[v]:start[v + 1]])

    out: dict[tuple[int, ...], list[int]] = {}
    for s in transient_states.tolist():
        if not domiciles[s]:
            raise RuntimeError(
                f"transient state {s} reaches no persistent group; "
                "the decomposition is inconsistent"
            )
        out.setdefault(tuple(domiciles[s]), []).append(s)
    # single-domicile groups first, then by domicile tuple
    ordered = sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return {k: np.array(sorted(v), dtype=np.int64) for k, v in ordered}


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

    def region_labels(self) -> list[str]:
        labels = [f"B_{i + 1}" for i in range(self.n_groups)]
        labels += [_group_label(k) for k in self.transient_groups]
        return labels

    def region_cells(self, label: str) -> np.ndarray:
        for i, g in enumerate(self.persistent_groups):
            if label == f"B_{i + 1}":
                return g
        for k, cells in self.transient_groups.items():
            if label == _group_label(k):
                return cells
        raise KeyError(f"unknown region label {label!r}")

    def region_of(self, z: int) -> str:
        for i, g in enumerate(self.persistent_groups):
            if z in g:
                return f"B_{i + 1}"
        for k, cells in self.transient_groups.items():
            if z in cells:
                return _group_label(k)
        raise KeyError(f"cell {z} is not a water cell of this decomposition")

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


def decompose(P: TransitionMatrix) -> FlowDecomposition:
    """Full long-term decomposition of the chain's support graph."""
    w = P.workspace
    sccs = strongly_connected_components(P)
    persistent = find_persistent_groups(P, sccs)

    is_transient = np.ones(P.n_states, dtype=bool)
    for g in persistent:
        is_transient[g] = False
    transient = find_transient_groups(P, persistent, np.flatnonzero(is_transient))

    return FlowDecomposition(
        workspace=w,
        persistent_groups=[w.free_cells[g] for g in persistent],
        transient_groups={k: w.free_cells[v] for k, v in transient.items()},
    )
