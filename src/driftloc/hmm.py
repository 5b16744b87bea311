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
smallest sequence.  All scoring happens in log space on the chain's rows of
nine slots, only those of D_t: the states reachable after t observations that
can emit the next one.  A decode costs O(sum_t |D_t| * 9) time and
O(sum_t |D_t|) memory, besides an O(n) mask pass per step; no n x n or
(T + 1) x n array is ever built.
"""

from __future__ import annotations

import copy
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
        self._set_prior(self.pi)
        # Log-space views, shared by every decode against this model and by
        # the models with_prior derives from it; _logP has P's slots, those
        # off A(z) holding log 0 = -inf.
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_logP", np.log(self.P.probs))
            object.__setattr__(self, "_logQ", np.log(self.Q))
        # Decoder views: targets, -1 where _logP is -inf; emitters per symbol.
        live = np.isfinite(self._logP)
        object.__setattr__(self, "_next", np.where(live, self.P.targets, -1))
        object.__setattr__(self, "_emits", np.ascontiguousarray((self.Q > 0.0).T))

    def _set_prior(self, pi: np.ndarray) -> None:
        n = self.P.n_states
        if pi.shape != (n,):
            raise ValueError(f"initial distribution shape {pi.shape} != ({n},)")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("initial distribution does not sum to 1")
        object.__setattr__(self, "pi", pi)
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_logpi", np.log(pi))

    def with_prior(self, pi: np.ndarray) -> HmmModel:
        """The same chain and emissions under another initial distribution.

        Only ``pi`` is validated and logged; the chain-derived views are
        shared with this model, not rebuilt.
        """
        model = copy.copy(self)
        model._set_prior(pi)
        return model

    @property
    def workspace(self) -> Workspace:
        return self.P.workspace


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

    logP, logQ, logpi = model._logP, model._logQ, model._logpi
    targets, n = model.P.targets, model.P.n_states

    # Forward sweep: departing[t] is D_t, the states reachable after t
    # observations that can emit y_{t+1}, ascending; dead slots mark reached[n].
    reached = np.append(model.pi > 0.0, False)
    departing = []
    for t, y in enumerate(obs):
        here = (reached[:n] & model._emits[y]).nonzero()[0]
        if not len(here):
            raise ZeroProbabilityError(t + 1)
        departing.append(here)
        reached[:] = False
        reached[model._next.take(here, axis=0)] = True

    # Backward pass: best[s] = best log score of observations t+1..T from s
    # after t of them; 0 at t = T, then kept on D_t only (-inf elsewhere).  A
    # live target of D_{t-1} is reachable after t, so off D_t it scores -inf
    # over all n states too.  Decoding forward off these suffix scores over
    # slots in ascending target order makes np.argmax's first-maximum rule
    # yield the lexicographically smallest optimal trajectory; a forward
    # trellis with backpointers would break ties in reverse order instead.
    best = np.zeros(n)
    slots = [None] * T  # the winning slot of each state of D_t
    for t in range(T - 1, -1, -1):
        here = departing[t]
        cont = logP.take(here, axis=0) + best.take(targets.take(here, axis=0))
        slots[t] = cont.argmax(axis=1).astype(np.uint8)
        best = np.full(n, -np.inf)
        best[here] = logQ[here, obs[t]] + cont.max(axis=1)

    start_scores = logpi[here] + best[here]
    total = float(start_scores.max())
    if not np.isfinite(total):
        raise ZeroProbabilityError(1)

    path = [int(here[np.argmax(start_scores)])]
    for t in range(T):
        k = slots[t][departing[t].searchsorted(path[-1])]
        path.append(int(targets[path[-1], k]))

    cells = [int(model.workspace.free_cells[s]) for s in path]
    return cells, total
