"""Viterbi trajectory decoding over the cell chain.

The localizer is the HMM (P, Q, pi), and the chain is all of it but pi: each
decode brings its own initial state distribution.  The compass reports the
heading of the move the drifter takes next, so the observation at step t is
emitted by the departing state: Q[z][y] is the probability of the move of z
in direction y.  Every move of a chain row is one Moore move, hence one
compass symbol, so Q is the chain's probabilities read through its column
table ``col``.  A decoded trajectory for T observations has T + 1 states and
maximizes

    pi[x_0] * prod_t Q[x_{t-1}][y_t] * P[x_{t-1}][x_t]

over all state sequences, with ties broken toward the lexicographically
smallest sequence.  All scoring happens in log space on the chain's rows,
only those of D_t: the states reachable after t observations that can emit
the next one.  The chain keeps each row's moves in W columns, W the most
moves of any row (6 on the fixture and on the 42 x 58 gyre); the decoder
reads log P from the chain's ``log_probs`` in the same columns, and log Q
from it through ``col``.  The first decode on a chain builds ``col`` and
``log_probs``, (8 W + 9) bytes a state beside the chain's own.
A decode costs O(sum_t |D_t| * W) time and O(sum_t |D_t|) memory, 5 bytes a
state (an int32 index and a uint8 slot), besides an O(n) mask pass per step
and one reused float64 score row; no prior is copied, and no n x n or
(T + 1) x n array is ever built.  A group of R runs decoded in lockstep
reads every step's targets with one take from an (R (n + 1), W) table of
absolute targets that it builds per call: 8 W bytes a run-state, 0.36 MiB
for 13 runs on the 609-state fixture, and returns (R, T + 1) cells and (R,)
log probabilities like ``sim.sample_runs``.
"""

from __future__ import annotations

import numpy as np

from .errors import LandCellError, ZeroProbabilityError
from .gcm import StochasticCellMap
from .gridworld import Workspace, direction_array


def initial_distribution(w: Workspace, x_init: int, mode: str) -> np.ndarray:
    """Initial state distribution over free cells.

    "deterministic": point mass at the known deployment cell.
    "probabilistic": uniform over the deployment cell and its water Moore
    neighbors (the deployment position is only known to one cell).
    """
    if w.is_land(x_init):
        raise LandCellError(f"initial cell {x_init} is land")
    pi = np.zeros(w.n_free)
    if mode == "deterministic":
        pi[w.state_of(x_init)] = 1.0
    elif mode == "probabilistic":
        support = sorted(w.neighbors(x_init) | {x_init})
        for z in support:
            pi[w.state_of(z)] = 1.0 / len(support)
    else:
        raise ValueError(f"unknown initial-distribution mode {mode!r}")
    return pi


def viterbi(P: StochasticCellMap, pi: np.ndarray, observations) -> tuple[list[int], float]:
    """Most likely state trajectory for a compass observation history, under
    the initial distribution pi over the free cells.

    Returns (trajectory, log probability); the trajectory is a list of T + 1
    cell indices.  Raises ZeroProbabilityError (carrying the 1-based step) if
    no state sequence is consistent with the observations.
    """
    cells, log_probs = viterbi_runs(P, [pi], [list(observations)])
    return cells[0].tolist(), float(log_probs[0])


def viterbi_runs(P: StochasticCellMap, priors, histories) -> tuple[np.ndarray, np.ndarray]:
    """Decode a group of runs on one chain: history r under initial distribution r.

    Every history must have the same length T >= 1, and every prior is an
    (n_free,) nonnegative vector with sum 1.  ``histories`` may be an (R, T)
    integer array, checked by one range test; a symbol that is no direction
    raises the ValueError of ``Direction(y)``.
    Returns ((R, T + 1) int64 cell indices, (R,) float64 log probabilities),
    the layout of ``sim.sample_runs``: row r is what ``viterbi`` gives for
    run r alone.  If some history is infeasible, raises the
    ZeroProbabilityError of the first such run, whose ``run`` is that run's
    index in the group.  The priors are read in place.  Besides its per-step
    masks, a decode holds one R (n + 1) float64 score row that every backward
    step reuses, and a group of R > 1 runs an (R (n + 1), W) int64 table of
    targets, 8 W bytes a run-state.  The first decode on a chain builds its
    ``col`` and ``log_probs``; every later one reads the same tables.
    """
    if len(histories) != len(priors):
        raise ValueError(f"{len(histories)} histories but {len(priors)} priors")
    T = len(histories[0]) if len(histories) else 0
    if T < 1:
        raise ValueError("observation history must contain at least one symbol")
    if any(len(h) != T for h in histories):
        raise ValueError("the histories of a group must have the same length")
    obs = direction_array(histories)  # (R, T)

    n = P.n_states
    R, N = len(obs), n + 1
    # Each prior, read in place, marks its run's start states.
    reached = np.zeros((R, N), dtype=bool)
    pis = []
    for pi, row in zip(priors, reached):
        pi = np.asarray(pi, dtype=float)
        if pi.shape != (n,):
            raise ValueError(f"initial distribution shape {pi.shape} != ({n},)")
        # pi >= 0 is False on NaN, and an infinite entry makes the sum miss 1.
        if not (pi >= 0.0).all() or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("initial distribution is not nonnegative with sum 1")
        np.greater(pi, 0.0, out=row[:n])
        pis.append(pi)
    # Run r's state s is index r * N + s; the blocks of N = n + 1 keep each
    # run's part of a sorted index set contiguous and in run order.  A step
    # reads its targets with one plain take from nxt: the chain's targets for
    # one run, and for a group those plus each block's offset r * N, built per
    # call (a padded slot then points at its own block's sink).  The log P
    # rows are read from the chain's one log table in take's "wrap" mode
    # (index mod N): repeating that table per run too made group decodes
    # slower.  Wrap mode reduces an index by repeated subtraction: negligible
    # on chains of hundreds of states, it dominates a step on a chain of a
    # few states with hundreds of runs.  The feasible sets, the bulk of a
    # decode's memory, are kept as int32.  cols_at(t) is the row of the
    # chain's (9, N) column table for each run's symbol at step t, run after
    # run.
    targets, col, log_probs = P.targets, P.col, P.log_probs
    width = targets.shape[1]
    index = np.int32 if R * N <= np.iinfo(np.int32).max else np.intp
    base = np.arange(0, R * N, N, dtype=index)
    if R == 1:
        nxt = targets

        def cols_at(t):
            return col[obs[0, t]]
    else:
        nxt = (targets + base[:, None, None]).reshape(R * N, width)

        def cols_at(t):
            return col[obs[:, t]].ravel()

    # Forward sweep: departing[t] is D_t, the states reachable after t
    # observations that can emit y_{t+1}, ascending; dead slots mark a sink.
    reached = reached.ravel()
    departing = []
    for t in range(T):
        here = (reached & (cols_at(t) < width)).nonzero()[0]
        departing.append(here.astype(index, copy=False))
        if not len(here):
            break
        reached[:] = False
        reached[nxt.take(here, axis=0)] = True
    # A run whose D_t is empty has empty sets after it, so the runs absent
    # from the last set are the infeasible ones.
    alive = np.zeros(R, dtype=bool)
    alive[departing[-1] // N] = True
    if not alive.all():
        r = int(np.argmin(alive))
        step = next(t for t, d in enumerate(departing, 1) if not (d // N == r).any())
        raise ZeroProbabilityError(step, run=r)

    # Backward pass: best[s] = best log score of observations t+1..T from s
    # after t of them; 0 at t = T, then kept on D_t only (-inf elsewhere).  A
    # live target of D_{t-1} is reachable after t, so off D_t it scores -inf
    # over all states too.  Decoding forward off these suffix scores over
    # slots in ascending target order makes np.argmax's first-maximum rule
    # yield the lexicographically smallest optimal trajectory; a forward
    # trellis with backpointers would break ties in reverse order instead.
    best = np.zeros(R * N)
    slots = [None] * T  # the winning slot of each state of D_t
    for t in range(T - 1, -1, -1):
        here = departing[t].astype(np.intp, copy=False)
        logp = log_probs.take(here, axis=0, mode="wrap")
        cont = best.take(nxt.take(here, axis=0))
        cont += logp
        k = cont.argmax(axis=1)
        slots[t] = k.astype(np.uint8)
        # Each row's maximum, read at its argmax: a reduction over rows of
        # nine is several times slower than argmax plus this gather.  The
        # emission log Q[s, y_t] is the same rows' entry in column col.
        rows = np.arange(0, cont.size, width)
        k += rows
        rows += cols_at(t).take(here)
        best.fill(-np.inf)
        best[here] = logp.ravel().take(rows) + cont.ravel().take(k)

    # Per run: the best start score over its block of D_0, and the first
    # state, the smallest, that attains it.
    path = np.empty((R, T + 1), dtype=index)  # states, run by run
    totals = np.empty(R)
    first = here.searchsorted(base)
    for r, (pi, start, stop) in enumerate(zip(pis, first, [*first[1:], len(here)])):
        states = here[start:stop]
        scores = best.take(states) + np.log(pi.take(states - base[r]))
        k = scores.argmax()
        path[r, 0], totals[r] = states[k] - base[r], scores[k]
    finite = np.isfinite(totals)
    if not finite.all():
        raise ZeroProbabilityError(1, run=int(np.argmin(finite)))

    for t in range(T):
        k = slots[t][departing[t].searchsorted(path[:, t] + base)]
        path[:, t + 1] = targets[path[:, t], k]

    return P.workspace.free_cells[path], totals
