"""Stochastic cell-to-cell mapping chain and its long-term flow decomposition.

``build_stochastic_map(cm, r)`` widens a deterministic cell map into a finite
Markov chain: each water cell z gets a mapped set A(z) inside its 3 x 3 Moore
stencil, with probabilities summing to one.  The perfect-motion image carries
probability r and the other cells around the continuous Euler endpoint share
1 - r uniformly; a "colliding" cell, whose endpoint stencil touches land or
leaves the grid, moves uniformly to any admissible neighbor.  At r = 1 the
chain is the deterministic map.  Each row holds its state's moves in W
columns, W the largest |A(z)|.  The chain keeps what every command reads,
(8 W + 3) bytes a state: int64 targets, and per state a uint16 mask of its
live slots and its int8 image slot.  O(n * 9) time; the build holds only
(n,) scratch beside what it keeps, peaking under 1.75 times that.  The other
tables are derived on first read: the first sample adds ``probs`` (8 W bytes
a state), and the first decode ``col`` (9) and ``log_probs`` (8 W), which it
derives without keeping ``probs``.  ``decompose`` builds none of them.

``decompose(P)`` partitions the water cells into attractors (closed, mutually
communicating sets, numbered B_1..B_g by smallest member) and transient
groups keyed by the attractors their cells reach, single domiciles first and
then by domicile tuple, cells ascending in each.  It keeps one int64 group
number a state and the transient groups' domicile tuples; the group lists
and labels are derived from that table on first read.  O(n * 9) time and
memory, plus the unions of domicile sets formed; no n x n table is built,
Tarjan reads its successor arrays in place rather than as lists of Python
ints, and each intermediate is freed after its last reader.  Its traced
peak, about 80 bytes a state, is 0.96 MiB at 12 354 states and 9.5 MiB at
120 000.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CellIndexError, LandCellError
from .flowfield import CellMap
from .gridworld import N_DIRECTIONS, SLOT_DIRECTIONS, Workspace

MAX_MAPPED = 9  # |A(z)| can never exceed the nine-action neighborhood

# Bit k marks slot k in a mask of slots; index MAX_MAPPED, for a stencil
# corner outside the Moore stencil, marks none.
_SLOT_BIT = np.array([1 << k for k in range(MAX_MAPPED)] + [0], dtype=np.uint16)
# _RANKS[k, m] counts the slots of mask m below slot k, so row MAX_MAPPED is
# the number of slots in m.  _COLUMNS[y, m] is the rank in m of the slot with
# heading y, or MAX_MAPPED where m lacks that slot.  Slot k's rank in m is
# the popcount of m's low k bits, so row k of _RANKS repeats the first 2**k
# popcounts, and the row of _COLUMNS for slot k repeats 2**k entries
# MAX_MAPPED (bit k clear), then those popcounts (bit k set).  They are built
# from Python lists: numpy's broadcast shifts and argsort would page in code
# that a localize never runs otherwise, about 0.7 MiB of max RSS.
_POPCOUNT = [0]
for _ in range(MAX_MAPPED):
    _POPCOUNT += [p + 1 for p in _POPCOUNT]
_RANKS = np.array([_POPCOUNT[:1 << k] * (len(_POPCOUNT) >> k)
                   for k in range(MAX_MAPPED + 1)], dtype=np.uint8)
_COLUMNS = np.array([([MAX_MAPPED] * (1 << k) + _POPCOUNT[:1 << k]) * (len(_POPCOUNT) >> k + 1)
                     for k in map(SLOT_DIRECTIONS.index, range(MAX_MAPPED))], dtype=np.uint8)
del _POPCOUNT


@dataclass(frozen=True, eq=False)
class StochasticCellMap:
    """The chain: mapped sets A(z) with probabilities, in W columns a state.

    Row s of ``targets`` lists the moves of state s in A(z) first, in slot
    order (ascending target), then pads: the sink state n.  W is the largest
    |A(z)|: 6 on the fixture, 1 at r = 1, at most 9 (with a shorter Euler
    step, or beside land).  Row n is the sink's, all pads.  ``mask[s]`` has
    bit k set when slot k is in A(z), and ``image[s]`` is the slot of the
    perfect-motion image, or MAX_MAPPED in a row that moves uniformly.  The
    probabilities follow from those two and r; ``probs``, ``col`` and
    ``log_probs`` are built from them on first read, for sampling and
    decoding, and are read-only.
    """

    workspace: Workspace
    r: float
    dt: float
    targets: np.ndarray  # (n_free + 1, W) int64 state indices, n_free off A(z)
    mask: np.ndarray  # (n_free,) uint16, bit k for slot k in A(z)
    image: np.ndarray  # (n_free,) int8 image slot, MAX_MAPPED in a uniform row

    @property
    def n_states(self) -> int:
        return len(self.targets) - 1

    @cached_property
    def probs(self) -> np.ndarray:
        """Read-only (n + 1, W) float64 probabilities in the columns of
        ``targets``, 0.0 on the pads and the sink row; see ``_probabilities``."""
        probs = self._probabilities()
        probs.setflags(write=False)
        return probs

    def _probabilities(self) -> np.ndarray:
        """A new (n + 1, W) float64 probabilities in the columns of
        ``targets``, 0.0 on the pads and the sink row.  A row of m moves gives
        each 1 / m if it moves uniformly; otherwise its image gets r (1.0 if
        it is the only move) and each other move (1 - r) / (m - 1)."""
        n, width = self.n_states, self.targets.shape[1]
        # A move's probability by its row's count m and its kind: a share of
        # the spread (kind 0), the image (1), or a share of the uniform rule
        # (2), at share[kind * 10 + m].
        m = np.arange(MAX_MAPPED + 1)
        share = np.concatenate([(1.0 - self.r) / np.maximum(m - 1, 1),
                                np.where(m == 1, 1.0, self.r), 1.0 / np.maximum(m, 1)])
        count = _RANKS[MAX_MAPPED].take(self.mask)
        uniform = self.image == MAX_MAPPED
        probs = np.zeros((n + 1, width))
        other = share.take(count + uniform * np.uint8(2 * (MAX_MAPPED + 1)))
        np.copyto(probs[:n], other[:, None], where=self.targets[:n] < n)
        del other
        # Then each image move, in the column of its slot's rank.
        s = np.flatnonzero(~uniform)
        c = _RANKS[self.image.take(s), self.mask.take(s)]
        probs.reshape(-1)[s * width + c] = share.take(count.take(s) + (MAX_MAPPED + 1))
        return probs

    @cached_property
    def col(self) -> np.ndarray:
        """Read-only (9, n + 1) uint8 table: ``col[y, s]`` is the column of
        the move of s with heading y, or W if s has none, so the emission
        probability Q[s, y] is ``probs[s, col[y, s]]`` once a 0.0 column is
        appended."""
        n, width = self.n_states, self.targets.shape[1]
        col = np.empty((N_DIRECTIONS, n + 1), dtype=np.uint8)
        col[:, n] = width
        for y, columns in enumerate(np.minimum(_COLUMNS, width)):
            columns.take(self.mask, out=col[y, :n])
        col.setflags(write=False)
        return col

    @cached_property
    def log_probs(self) -> np.ndarray:
        """Read-only log ``probs``, -inf on the pads and the sink row: the
        decoder's table, built on the first decode and shared by every later
        one.  It is taken from ``probs`` if a sample built that, and
        otherwise from a fresh table that is not kept."""
        probs = vars(self).get("probs")
        logs = self._probabilities() if probs is None else probs.copy()
        with np.errstate(divide="ignore"):
            np.log(logs, out=logs)
        logs.setflags(write=False)
        return logs

    def mapped_set(self, z: int) -> dict[int, float]:
        """A(z) as {cell index: probability} for one water cell, cells ascending."""
        s = self.workspace.state_of(z)
        live = self.targets[s] < self.n_states
        cells = self.workspace.free_cells[self.targets[s, live]]
        return {int(c): float(p) for c, p in zip(cells, self.probs[s, live])}


def build_stochastic_map(cm: CellMap, r: float) -> StochasticCellMap:
    """Spread motion uncertainty around each Euler endpoint.

    r is the probability of perfect motion, in (0, 1].  The decomposition
    structure (supports, hence attractors and transient groups) does not
    depend on r for r < 1; r = 1 removes the uncertainty entirely.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"perfect-motion probability r must be in (0, 1], got {r}")
    w = cm.workspace
    rows, cols = np.divmod(w.free_cells - 1, w.cols)
    image, member, uniform = _stencil_slots(cm, rows, cols, r)
    base = w.padded(rows, cols)  # each state's index in the framed state grid
    del rows, cols  # beside the kept tables, only (n,) arrays stay
    uniform &= r < 1.0  # a colliding cell moves uniformly, unless r = 1
    image[uniform] = MAX_MAPPED

    # Slot k of state s moves to the state grid entry at base[s] plus the
    # slot's fixed offset in the framed grid: -1 on land and off the grid.
    # member becomes the mask of live slots, those in A(z).
    steps = [w.padded(*d.step) - w.padded(0, 0) for d in SLOT_DIRECTIONS]
    member[uniform] = (1 << MAX_MAPPED) - 1  # every admissible move
    for k, step in enumerate(steps):
        member[w.state_grid.take(base + step) < 0] &= ~_SLOT_BIT[k]

    # Each live slot goes to its rank among its row's live slots, so a row
    # lists its moves in slot order.
    n = len(base)
    width = int(_RANKS[MAX_MAPPED].take(member).max())
    targets = np.full((n + 1, width), n, dtype=np.int64)
    flat = targets.reshape(-1)
    for k, step in enumerate(steps):
        s = np.flatnonzero(member & _SLOT_BIT[k])
        c = _RANKS[k].take(member.take(s))
        moves = base.take(s)
        moves += step
        s *= width  # each move's index in the flat targets
        s += c
        flat[s] = w.state_grid.take(moves)
        del s, c, moves  # before the next slot's arrays are made

    for a in (targets, member, image):
        a.setflags(write=False)
    return StochasticCellMap(
        workspace=w, r=float(r), dt=cm.dt, targets=targets, mask=member, image=image
    )


def _stencil_slots(cm: CellMap, rows, cols, r: float):
    """Each state's image slot (int8), the mask of slots its image and
    endpoint stencils cover (bit k for slot k), and its collision flag.

    The endpoint stencil is the up-to-four cells whose centers lie within one
    cell of the endpoint.  One of them on land or off-grid makes the cell
    colliding; otherwise those in the Moore stencil join A(z) beside the
    image when r < 1.
    """
    w = cm.workspace
    image_rows, image_cols = np.divmod(cm.images - 1, w.cols)
    image_rows -= rows
    image_rows *= 3
    image_rows += image_cols - cols
    image_slot = (image_rows + 4).astype(np.int8)  # (drow + 1) * 3 + (dcol + 1)
    del image_rows, image_cols
    member = _SLOT_BIT[image_slot]
    colliding = np.zeros(len(image_slot), dtype=bool)
    off = w.state_grid < 0  # land and the frame, in the framed grid
    ex, ey = cm.endpoints[:, 0], cm.endpoints[:, 1]
    xs = _stencil_lines(ex, cols, w.cols)
    for on_y, framed_y, slot_y in _stencil_lines(ey, rows, w.rows):
        framed_y *= w.cols + 2
        slot_y *= 3
        for on_x, framed_x, slot_x in xs:
            on = on_y & on_x
            # the corner cell, or the frame cell beyond it when off-grid
            on &= off.take(framed_y + framed_x)
            colliding |= on
            if r < 1.0:
                member |= _SLOT_BIT.take(np.minimum(slot_y + slot_x, MAX_MAPPED))
    return image_slot, member, colliding


def _stencil_lines(e, own, size: int):
    """The two grid lines of one axis around each endpoint coordinate e,
    floor(e) and floor(e) + 1.  For each: whether it lies within one cell of
    e; its index in the framed grid, clipped to the frame; and its offset
    from the state's own line plus one (0, 1 or 2), or 10 where it is not
    within one cell of e or not beside the state's own line, so that
    3 * row part + column part passes MAX_MAPPED for any such corner."""
    lines = []
    line = np.floor(e)
    for _ in range(2):
        on = abs(e - line) < 1.0
        offset = line - own
        far = abs(offset) > 1
        far |= ~on
        offset += 1
        offset[far] = 10
        slot = offset.astype(np.uint8)
        del offset, far
        framed = np.clip(line, -1, size).astype(np.int64)
        framed += 1
        lines.append((on, framed, slot))
        line += 1
    return lines


def _successors(P: StochasticCellMap) -> tuple[np.ndarray, np.ndarray]:
    """Each state's number of successors other than itself, and those
    successors as int32, row by row in ascending order.  A self-loop
    never changes which component a state belongs to."""
    live = (P.targets < P.n_states) & (P.targets != np.arange(P.n_states + 1)[:, None])
    return live[:-1].sum(axis=1), P.targets[live].astype(np.int32, copy=False)


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
    ends = np.cumsum(counts)
    cursor = ends - counts  # next edge of each row to read
    # Memoryviews index the arrays in place as Python ints; lists of them
    # would hold an int object per entry.
    succ, ends, cursor = memoryview(succ), memoryview(ends), memoryview(cursor)
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


@dataclass(frozen=True, eq=False)
class FlowDecomposition:
    """Partition of the water cells into attractors and transient groups.

    ``region[s]`` is the group of state s: attractors B_1..B_g are groups
    0..g-1 (g = ``n_groups``), and transient group g + i has the domicile
    tuple ``domiciles[i]`` (1-based attractor numbers), single domiciles
    first, then by tuple.  The table is read-only and is all that is kept
    per state.  ``persistent_groups[i]`` (the cells of B_{i+1}),
    ``transient_groups`` (domicile tuple to cells) and the region labels
    are built on first read from one stable argsort of it, cells ascending
    in each group.
    """

    workspace: Workspace
    region: np.ndarray  # (n_free,) int64 group of each state
    n_groups: int
    domiciles: list[tuple[int, ...]]

    @cached_property
    def _groups(self) -> list[np.ndarray]:
        cells = self.workspace.free_cells[np.argsort(self.region, kind="stable")]
        cells.setflags(write=False)
        return np.split(cells, np.cumsum(np.bincount(self.region)[:-1]))

    @cached_property
    def _labels(self) -> list[str]:
        return [f"B_{i + 1}" for i in range(self.n_groups)] + [
            "B(" + ",".join(map(str, k)) + ")" for k in self.domiciles]

    @cached_property
    def persistent_groups(self) -> list[np.ndarray]:
        return self._groups[:self.n_groups]

    @cached_property
    def transient_groups(self) -> dict[tuple[int, ...], np.ndarray]:
        return dict(zip(self.domiciles, self._groups[self.n_groups:]))

    def region_labels(self) -> list[str]:
        return list(self._labels)

    def region_cells(self, label: str) -> np.ndarray:
        if label not in self._labels:
            raise KeyError(f"unknown region label {label!r}")
        return self._groups[self._labels.index(label)]

    def region_of(self, z: int) -> str:
        try:
            return self._labels[self.region[self.workspace.state_of(z)]]
        except (CellIndexError, LandCellError):
            raise KeyError(f"cell {z} is not a water cell of this decomposition") from None

    def to_dict(self) -> dict:
        g = self.n_groups
        return {
            "rows": self.workspace.rows,
            "cols": self.workspace.cols,
            "n_free": self.workspace.n_free,
            "n_persistent_groups": g,
            "n_transient_groups": len(self.domiciles),
            "persistent_groups": [
                {"label": label, "size": len(cells), "cells": cells.tolist()}
                for label, cells in zip(self._labels, self.persistent_groups)
            ],
            "transient_groups": [
                {"label": label, "domiciles": list(k), "size": len(cells), "cells": cells.tolist()}
                for label, (k, cells) in zip(self._labels[g:], self.transient_groups.items())
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
    # A state with more live moves than successors other than itself loops.
    looped = _RANKS[MAX_MAPPED].take(P.mask) > counts
    del counts, succ
    out = src != dst
    # Cross edges keyed source-major: each component's run of keys lists the
    # components it enters, all of them earlier in emission order.
    edges = np.sort(src[out].astype(np.int64) * n_comps + dst[out])
    del src, dst, out
    edges = edges[np.diff(edges, prepend=-1) != 0]
    bounds = np.searchsorted(edges, np.arange(n_comps + 1) * n_comps)
    exits = bounds[1:] > bounds[:-1]

    # Each component's smallest state and size; every label occurs.
    _, first, sizes = np.unique(labels, return_index=True, return_counts=True)
    cyclic = sizes > 1
    cyclic[labels[looped]] = True
    del looped
    is_attractor = cyclic & ~exits
    attractors = np.flatnonzero(is_attractor)
    attractors = attractors[np.argsort(first[attractors])]  # B_1..B_g

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
    del edges, entered, bounds

    # Each component's group: the attractors are groups 0..g-1, and each
    # reach set of a transient component one group after them.
    reach = np.array(reach, dtype=np.int64)
    rids = sorted(set(reach[~is_attractor].tolist()), key=lambda r: (len(sets[r]), sets[r]))
    if rids[:1] == [0]:  # the empty set sorts first
        raise RuntimeError(
            f"transient state {np.flatnonzero(reach[labels] == 0)[0]} reaches no "
            "persistent group; the decomposition is inconsistent"
        )
    group = np.empty(len(sets), dtype=np.int64)
    group[rids] = np.arange(g, g + len(rids))
    group = group[reach]
    group[attractors] = np.arange(g)
    region = group[labels]
    region.setflags(write=False)
    return FlowDecomposition(
        workspace=w, region=region, n_groups=g, domiciles=[sets[r] for r in rids]
    )
