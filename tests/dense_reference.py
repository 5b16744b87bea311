"""Reference implementations that driftloc.hmm replaced: the dense n x n
Viterbi decoder and the per-slot emission loop.

Frozen copies of the earlier code, kept as bit-exactness oracles.  The dense
decoder builds the full log transition matrix from the model's public padded
rows, so it costs O(T * n^2) time and 8 n^2 bytes; use it on small chains
only.
"""

import numpy as np

from driftloc import Direction, ZeroProbabilityError, direction_between
from driftloc.gridworld import N_DIRECTIONS


def loop_emission_matrix(smap) -> np.ndarray:
    """Q[s, y] accumulated slot by slot through direction_between."""
    w = smap.workspace
    n = smap.n_states
    Q = np.zeros((n, N_DIRECTIONS))
    for s in range(n):
        z = int(w.free_cells[s])
        row = smap.targets[s]
        for k in range(row.shape[0]):
            t = int(row[k])
            if t < 0:
                break
            y = direction_between(w, z, int(w.free_cells[t]))
            Q[s, y] += smap.probs[s, k]
    return Q


def dense_transitions(P) -> np.ndarray:
    """The padded rows of a transition matrix scattered into an n x n array."""
    n = P.n_states
    dense = np.zeros((n, n))
    rows = np.repeat(np.arange(n), P.targets.shape[1])
    cols = P.targets.reshape(-1)
    vals = P.probs.reshape(-1)
    keep = cols >= 0
    dense[rows[keep], cols[keep]] = vals[keep]
    return dense


def dense_check_feasible(model, obs, logP) -> None:
    support = np.isfinite(logP)
    reachable = model.pi > 0.0
    for t, y in enumerate(obs):
        departing = reachable & (model.Q[:, y] > 0.0)
        if not departing.any():
            raise ZeroProbabilityError(t + 1)
        reachable = support[departing].any(axis=0)


def dense_viterbi(model, observations) -> tuple[list[int], float]:
    obs = np.asarray([int(Direction(y)) for y in observations], dtype=np.int64)
    T = len(obs)
    if T < 1:
        raise ValueError("observation history must contain at least one symbol")
    with np.errstate(divide="ignore"):
        logP = np.log(dense_transitions(model.P))
        logQ, logpi = np.log(model.Q), np.log(model.pi)
    dense_check_feasible(model, obs, logP)

    n = model.P.n_states
    best = np.empty((T + 1, n))
    best[T] = 0.0
    for t in range(T, 0, -1):
        cont = logP + best[t][None, :]
        best[t - 1] = logQ[:, obs[t - 1]] + cont.max(axis=1)

    start_scores = logpi + best[0]
    total = float(start_scores.max())
    if not np.isfinite(total):
        raise ZeroProbabilityError(1)

    path = [int(np.argmax(start_scores))]
    for t in range(1, T + 1):
        scores = logP[path[-1]] + best[t]
        path.append(int(np.argmax(scores)))

    cells = [int(model.workspace.free_cells[s]) for s in path]
    return cells, total
