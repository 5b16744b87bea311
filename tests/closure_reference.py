"""Reference implementations that the closure-free decomposition in
driftloc.gcm replaced: Tarjan over numpy rows, the dense reachability closure
C, and the C-based attractor and domicile tests.

Frozen copies of the earlier code, kept as bit-exactness oracles.  ``decompose``
builds the n x n boolean closure, so it costs n^2 bytes; use it on small
chains only.  ``reachability`` is the only n x n closure left, so the tests
that need C itself take it from here.
"""

from dataclasses import dataclass

import numpy as np

from driftloc import Workspace


def adjacency(P) -> list[list[int]]:
    """Successor state lists of the chain P (its support graph), one list per
    state, read from the live entries of ``P.targets``."""
    targets = P.targets[:-1]
    live = targets < P.n_states
    flat = targets[live].tolist()  # row by row, ascending
    ends = np.cumsum(live.sum(axis=1)).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def _tarjan(succ: list[np.ndarray]) -> list[list[int]]:
    """Iterative Tarjan SCC.  Components are emitted in reverse topological
    order of the condensation (every component before any that reaches it)."""
    n = len(succ)
    index = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, child_i = work[-1]
            if child_i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            children = succ[v]
            for i in range(child_i, len(children)):
                u = int(children[i])
                if index[u] == -1:
                    work[-1] = (v, i + 1)
                    work.append((u, 0))
                    descended = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if descended:
                continue
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


def strongly_connected_components(P) -> list[np.ndarray]:
    """Maximal SCCs of the support graph, ordered by smallest member state."""
    comps = _tarjan(adjacency(P))
    comps = [np.array(sorted(c), dtype=np.int64) for c in comps]
    comps.sort(key=lambda c: int(c[0]))
    return comps


def reachability(P) -> np.ndarray:
    """Boolean matrix C with C[i, j] true iff state i reaches j in >= 1 step.

    Computed on the condensation DAG with bitset accumulation; semantically
    equal to the transitive closure of the support graph.
    """
    succ = adjacency(P)
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
    sccs: list[np.ndarray], C: np.ndarray
) -> list[np.ndarray]:
    """SCCs that are closed under the mapping: the attractors.

    A component is persistent iff nothing outside it is reachable from it
    (and, for singletons, it actually cycles back to itself).  Returned in
    the order of ``sccs``, which numbers the groups B_1..B_g.
    """
    groups = []
    for comp in sccs:
        rep = int(comp[0])
        if len(comp) == 1 and not C[rep, rep]:
            continue
        inside = np.zeros(C.shape[0], dtype=bool)
        inside[comp] = True
        if C[rep, ~inside].any():
            continue
        groups.append(comp)
    return groups


def find_transient_groups(
    persistent_groups: list[np.ndarray],
    transient_states: np.ndarray,
    C: np.ndarray,
) -> dict[tuple[int, ...], np.ndarray]:
    """Group transient states by their domicile set.

    The domicile set of a transient state is the set of attractor numbers
    (1-based positions in ``persistent_groups``) it can reach.  Keys with one
    element are single-domicile groups; larger keys are multiple-domicile
    groups (the paper's boundary regions).  Every transient state must have
    at least one domicile in a finite chain.
    """
    reps = [int(g[0]) for g in persistent_groups]
    out: dict[tuple[int, ...], list[int]] = {}
    for s in transient_states:
        dom = tuple(i + 1 for i, rep in enumerate(reps) if C[int(s), rep])
        if not dom:
            raise RuntimeError(
                f"transient state {int(s)} reaches no persistent group; "
                "the decomposition is inconsistent"
            )
        out.setdefault(dom, []).append(int(s))
    # single-domicile groups first, then by domicile tuple
    ordered = sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return {k: np.array(sorted(v), dtype=np.int64) for k, v in ordered}


@dataclass(frozen=True, eq=False)
class ClosureDecomposition:
    """The oracle's groups as its own cell arrays: attractors B_1..B_g in
    order, and transient groups keyed by domicile tuple in order."""

    workspace: Workspace
    persistent_groups: list[np.ndarray]
    transient_groups: dict[tuple[int, ...], np.ndarray]

    def regions(self) -> dict[str, np.ndarray]:
        """Each group's cells by label, attractors first."""
        out = {f"B_{i + 1}": g for i, g in enumerate(self.persistent_groups)}
        for k, cells in self.transient_groups.items():
            out["B(" + ",".join(str(d) for d in k) + ")"] = cells
        return out

    def to_dict(self) -> dict:
        """The export of the earlier decomposition, read off these arrays."""
        g = len(self.persistent_groups)
        labels = list(self.regions())
        return {
            "rows": self.workspace.rows,
            "cols": self.workspace.cols,
            "n_free": self.workspace.n_free,
            "n_persistent_groups": g,
            "n_transient_groups": len(self.transient_groups),
            "persistent_groups": [
                {"label": label, "size": len(cells), "cells": cells.tolist()}
                for label, cells in zip(labels, self.persistent_groups)
            ],
            "transient_groups": [
                {"label": label, "domiciles": list(k), "size": len(cells), "cells": cells.tolist()}
                for label, (k, cells) in zip(labels[g:], self.transient_groups.items())
            ],
        }


def decompose(P) -> ClosureDecomposition:
    """Full long-term decomposition of the chain's support graph."""
    w = P.workspace
    sccs = strongly_connected_components(P)
    C = reachability(P)
    persistent = find_persistent_groups(sccs, C)

    persistent_states = (
        np.sort(np.concatenate(persistent))
        if persistent
        else np.empty(0, dtype=np.int64)
    )
    mask = np.zeros(P.n_states, dtype=bool)
    mask[persistent_states] = True
    transient_states = np.flatnonzero(~mask)
    transient = find_transient_groups(persistent, transient_states, C)

    return ClosureDecomposition(
        workspace=w,
        persistent_groups=[w.free_cells[g] for g in persistent],
        transient_groups={k: w.free_cells[v] for k, v in transient.items()},
    )
