"""Hidden Markov model over the cell chain and Viterbi trajectory decoding.

The model is (P, Q, pi): the chain, a compass emission matrix, and an initial
state distribution.  The compass reports the heading of the move the drifter
takes next, so the observation at step t is emitted by the departing state:
Q[z][y] is the probability of the move of z in direction y.  Every slot of a
chain row is one Moore move, hence one compass symbol, so Q is a fixed column
permutation of the chain's probabilities.  A decoded trajectory for T
observations has T + 1 states and maximizes

    pi[x_0] * prod_t Q[x_{t-1}][y_t] * P[x_{t-1}][x_t]

over all state sequences, with ties broken toward the lexicographically
smallest sequence.  All scoring happens in log space on the chain's rows,
only those of D_t: the states reachable after t observations that can emit
the next one.  The decoder tables keep each row's live slots in W columns,
W the most live slots of any row: 6 on the fixture and on the 42 x 58 gyre,
1 at r = 1, and at most 9 (with a shorter Euler step, or beside land).  A
decode costs O(sum_t |D_t| * W) time and O(sum_t |D_t|) memory, 5 bytes a
state (an int32 index and a uint8 slot), besides an O(n) mask pass per step;
no n x n or (T + 1) x n array is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LandCellError, ZeroProbabilityError
from .gcm import SLOT_DIRECTIONS, StochasticCellMap
from .gridworld import N_DIRECTIONS, Workspace, direction_array


def emission_matrix(smap: StochasticCellMap) -> np.ndarray:
    """(n_free, 9) row-stochastic matrix of compass-symbol probabilities.

    Q[s, y] is the probability of the move of state s in direction y: the
    chain's slot columns reordered from slot order to direction order.
    """
    return smap.probs[:, np.argsort(SLOT_DIRECTIONS)]


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


def _check_prior(pi: np.ndarray, n: int) -> None:
    if pi.shape != (n,):
        raise ValueError(f"initial distribution shape {pi.shape} != ({n},)")
    if abs(pi.sum() - 1.0) > 1e-12:
        raise ValueError("initial distribution does not sum to 1")


@dataclass(frozen=True, eq=False)
class HmmModel:
    """lambda = (P, Q, pi) over the free cells and the 9-symbol alphabet.

    Q is derived from the chain, ``emission_matrix(P)``, on first read: the
    decoder reads only its logarithm, kept by symbol.
    """

    P: StochasticCellMap
    pi: np.ndarray  # (n_free,)

    def __post_init__(self):
        n = self.P.n_states
        _check_prior(self.pi, n)
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_logpi", np.log(self.pi))
        # Decoder tables of W columns, W the most live slots of any row: row
        # s holds the live slots of state s first, in slot (ascending target)
        # order, so on a row with a finite maximum argmax's first-maximum
        # rule picks the target it would pick over all nine slots, those off
        # A(z) scoring -inf.  A row is padded, and a sink state n added, with
        # the target n, which reaches only itself, scores log 0 and emits
        # nothing.  The tables are shared by every decode against this
        # model; _logQ is a view of the first n states of _logQT.
        probs = self.P.probs
        live = np.flatnonzero(probs > 0.0)  # the live slots, row by row
        state = live // probs.shape[1]
        count = np.bincount(state, minlength=n)
        width = int(count.max())
        # Each live slot's place in the tables: its row, at its rank there.
        column = np.arange(len(live))
        column += state * width
        column -= (np.cumsum(count) - count)[state]
        del state
        logP_pad = np.full((n + 1, width), -np.inf)
        nxt = np.full((n + 1, width), n)
        logp = probs.ravel().take(live)
        logP_pad.ravel()[column] = np.log(logp, out=logp)
        nxt.ravel()[column] = self.P.targets.ravel().take(live)
        del live, column, logp  # freed before the emission table is made
        logQT = np.full((N_DIRECTIONS, n + 1), -np.inf)
        with np.errstate(divide="ignore"):
            np.log(emission_matrix(self.P).T, out=logQT[:, :n])
        object.__setattr__(self, "_logP_pad", logP_pad)  # (n + 1, W)
        object.__setattr__(self, "_next", nxt)  # (n + 1, W): target states
        object.__setattr__(self, "_logQT", logQT)  # (9, n + 1): log Q by symbol
        object.__setattr__(self, "_emits", logQT > -np.inf)
        object.__setattr__(self, "_logQ", logQT[:, :n].T)

    @cached_property
    def Q(self) -> np.ndarray:  # (n_free, 9)
        return emission_matrix(self.P)

    @property
    def workspace(self) -> Workspace:
        return self.P.workspace


def viterbi(model: HmmModel, observations) -> tuple[list[int], float]:
    """Most likely state trajectory for a compass observation history.

    Returns (trajectory, log probability); the trajectory is a list of T + 1
    cell indices.  Raises ZeroProbabilityError (carrying the 1-based step) if
    no state sequence is consistent with the observations.
    """
    return viterbi_runs(model, [model.pi], [list(observations)])[0]


def viterbi_runs(model: HmmModel, priors, histories) -> list[tuple[list[int], float]]:
    """Decode a group of runs on one chain: history r under initial distribution r.

    Every history must have the same length T >= 1; ``model.pi`` is not read.
    ``histories`` may be an (R, T) integer array, checked by one range test;
    a symbol that is no direction raises the ValueError of ``Direction(y)``.
    Returns one (trajectory, log probability) per run, each equal to what
    ``viterbi`` gives for that run alone.  If some history is infeasible,
    raises the ZeroProbabilityError of the first such run, whose ``run`` is
    that run's index in the group.
    """
    if len(histories) != len(priors):
        raise ValueError(f"{len(histories)} histories but {len(priors)} priors")
    T = len(histories[0]) if len(histories) else 0
    if T < 1:
        raise ValueError("observation history must contain at least one symbol")
    if any(len(h) != T for h in histories):
        raise ValueError("the histories of a group must have the same length")
    obs = direction_array(histories)  # (R, T)

    n = model.P.n_states
    for pi in priors:
        _check_prior(pi, n)
    # Run r's state s is index r * N + s; the blocks of N = n + 1 keep each
    # run's part of a sorted index set contiguous and in run order.  The
    # chain tables are read in take's "wrap" mode (index mod N), and a
    # state's targets are its index plus its hops (targets relative to the
    # state), so no table is repeated per run.  The feasible sets, the bulk
    # of a decode's memory, are kept as int32.  One run reads the tables in
    # place: its step makes the array calls of a one-run decode, with no
    # gather or add.  rows_at(table, t) is the row of a (9, N) table for
    # each run's symbol at step t, run after run.  Wrap mode reduces an index
    # by repeated subtraction: negligible on chains of hundreds of states, it
    # dominates a step on a chain of a few states with hundreds of runs.
    R, N = len(obs), n + 1
    index = np.int32 if R * N <= np.iinfo(np.int32).max else np.intp
    pis = np.array(priors, dtype=float)
    logpi = np.full((R, N), -np.inf)
    with np.errstate(divide="ignore"):
        logpi[:, :n] = np.log(pis)
    if R == 1:

        def rows_at(table, t):
            return table[obs[0, t]]

        def targets(here):
            return model._next.take(here, axis=0)
    else:
        hop = model._next - np.arange(N)[:, None]

        def rows_at(table, t):
            return table[obs[:, t]].ravel()

        def targets(here):
            nx = hop.take(here, axis=0, mode="wrap")
            nx += here[:, None]
            return nx
    base = np.arange(0, R * N, N, dtype=index)

    # Forward sweep: departing[t] is D_t, the states reachable after t
    # observations that can emit y_{t+1}, ascending; dead slots mark a sink.
    reached = np.zeros((R, N), dtype=bool)
    reached[:, :n] = pis > 0.0
    reached = reached.ravel()
    departing = []
    for t in range(T):
        here = (reached & rows_at(model._emits, t)).nonzero()[0]
        departing.append(here.astype(index, copy=False))
        if not len(here):
            break
        reached[:] = False
        reached[targets(here)] = True
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
        cont = best.take(targets(here))
        cont += model._logP_pad.take(here, axis=0, mode="wrap")
        k = cont.argmax(axis=1)
        slots[t] = k.astype(np.uint8)
        # Each row's maximum, read at its argmax: a reduction over rows of
        # nine is several times slower than argmax plus this gather.
        k += np.arange(0, cont.size, cont.shape[1])
        best = np.full(R * N, -np.inf)
        best[here] = rows_at(model._logQT, t).take(here) + cont.ravel().take(k)

    # Per run: the best start score over its block of D_0, and the first
    # state that attains it.
    start_scores = logpi.ravel().take(here) + best.take(here)
    first = here.searchsorted(base)
    totals = np.maximum.reduceat(start_scores, first)
    finite = np.isfinite(totals)
    if not finite.all():
        raise ZeroProbabilityError(1, run=int(np.argmin(finite)))
    top = np.flatnonzero(start_scores == totals.repeat(np.diff(first, append=len(here))))

    path = np.empty((R, T + 1), dtype=index)  # states, run by run
    path[:, 0] = here[top[top.searchsorted(first)]] - base
    for t in range(T):
        k = slots[t][departing[t].searchsorted(path[:, t] + base)]
        path[:, t + 1] = model._next[path[:, t], k]

    cells = model.workspace.free_cells[path]
    return [(c.tolist(), float(total)) for c, total in zip(cells, totals)]
