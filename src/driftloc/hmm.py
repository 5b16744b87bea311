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
smallest sequence.  All scoring happens in log space, directly on the chain's
rows of nine slots: a decode costs O(T * n * 9) time and O(T * n) memory for
n states, and no n x n array is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LandCellError, ZeroProbabilityError
from .gcm import SLOT_DIRECTIONS, StochasticCellMap
from .gridworld import N_DIRECTIONS, Direction, Workspace


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


@dataclass(frozen=True, eq=False)
class HmmModel:
    """lambda = (P, Q, pi) over the free cells and the 9-symbol alphabet."""

    P: StochasticCellMap
    Q: np.ndarray  # (n_free, 9)
    pi: np.ndarray  # (n_free,)

    def __post_init__(self):
        n = self.P.n_states
        if self.Q.shape != (n, N_DIRECTIONS):
            raise ValueError(f"emission matrix shape {self.Q.shape} != ({n}, 9)")
        if self.pi.shape != (n,):
            raise ValueError(f"initial distribution shape {self.pi.shape} != ({n},)")
        if abs(self.pi.sum() - 1.0) > 1e-12:
            raise ValueError("initial distribution does not sum to 1")
        # Log-space views, shared by every decode against this model; _logP
        # has P's slots, those off A(z) holding log 0 = -inf.
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_logP", np.log(self.P.probs))
            object.__setattr__(self, "_logQ", np.log(self.Q))
            object.__setattr__(self, "_logpi", np.log(self.pi))

    @property
    def workspace(self) -> Workspace:
        return self.P.workspace


def _check_feasible(model: HmmModel, obs: np.ndarray) -> None:
    """Forward sweep of reachable-state sets; raises at the first dead step."""
    live = np.isfinite(model._logP)
    reachable = model.pi > 0.0
    for t, y in enumerate(obs):
        departing = reachable & (model.Q[:, y] > 0.0)
        if not departing.any():
            raise ZeroProbabilityError(t + 1)
        reachable = np.zeros_like(reachable)
        reachable[model.P.targets[departing][live[departing]]] = True


def viterbi(model: HmmModel, observations) -> tuple[list[int], float]:
    """Most likely state trajectory for a compass observation history.

    Returns (trajectory, log probability); the trajectory is a list of T + 1
    cell indices.  Raises ZeroProbabilityError (carrying the 1-based step) if
    no state sequence is consistent with the observations.
    """
    obs = np.asarray([int(Direction(y)) for y in observations], dtype=np.int64)
    T = len(obs)
    if T < 1:
        raise ValueError("observation history must contain at least one symbol")
    _check_feasible(model, obs)

    logP, logQ, logpi = model._logP, model._logQ, model._logpi
    targets = model.P.targets

    # Backward pass: best[t][s] = best log score of observations t+1..T given
    # the chain sits at s after t of them (best[T] = 0).  Decoding forward
    # off these suffix scores over slots in ascending target order makes
    # np.argmax's first-maximum rule yield the lexicographically smallest
    # optimal trajectory; a forward trellis with backpointers would break ties
    # in reverse order instead.  Slots off A(z) score -inf and are never chosen.
    best = np.empty((T + 1, model.P.n_states))
    best[T] = 0.0
    for t in range(T, 0, -1):
        cont = logP + best[t][targets]
        best[t - 1] = logQ[:, obs[t - 1]] + cont.max(axis=1)

    start_scores = logpi + best[0]
    total = float(start_scores.max())
    if not np.isfinite(total):
        raise ZeroProbabilityError(1)

    path = [int(np.argmax(start_scores))]
    for t in range(1, T + 1):
        # the emission term of the departing state is fixed by path[-1]
        row = targets[path[-1]]
        scores = logP[path[-1]] + best[t][row]
        path.append(int(row[np.argmax(scores)]))

    cells = [int(model.workspace.free_cells[s]) for s in path]
    return cells, total

