"""Reference implementation that driftloc.hmm.viterbi replaced: the decoder
that scores every state at every step.

A frozen copy of the earlier code, kept as a bit-exactness oracle.  It makes a
full-n forward feasibility sweep, then a backward pass that keeps the
(T + 1) x n float table of suffix scores, so it costs O(T * n * 9) time and
8 (T + 1) n bytes; use it on small and mid-size chains only.
"""

import numpy as np

from driftloc import Direction, ZeroProbabilityError


def reference_log_chain(model) -> np.ndarray:
    """log P in the chain's nine slots, -inf off A(z): the table the decoder
    kept as ``model._logP`` when this copy was frozen."""
    with np.errstate(divide="ignore"):
        return np.log(model.P.probs)


def reference_log_emission(model) -> np.ndarray:
    """log Q, (n, 9): the table the decoder kept as ``model._logQ``."""
    with np.errstate(divide="ignore"):
        return np.log(model.Q)


def reference_log_prior(model) -> np.ndarray:
    """log pi: the vector the decoder kept as ``model._logpi``."""
    with np.errstate(divide="ignore"):
        return np.log(model.pi)


def reference_check_feasible(model, obs: np.ndarray) -> None:
    """Forward sweep of reachable-state sets; raises at the first dead step."""
    live = np.isfinite(reference_log_chain(model))
    reachable = model.pi > 0.0
    for t, y in enumerate(obs):
        departing = reachable & (model.Q[:, y] > 0.0)
        if not departing.any():
            raise ZeroProbabilityError(t + 1)
        reachable = np.zeros_like(reachable)
        reachable[model.P.targets[departing][live[departing]]] = True


def reference_viterbi(model, observations) -> tuple[list[int], float]:
    obs = np.asarray([int(Direction(y)) for y in observations], dtype=np.int64)
    T = len(obs)
    if T < 1:
        raise ValueError("observation history must contain at least one symbol")
    reference_check_feasible(model, obs)

    logP, logQ, logpi = (reference_log_chain(model), reference_log_emission(model),
                         reference_log_prior(model))
    targets = model.P.targets

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
        row = targets[path[-1]]
        scores = logP[path[-1]] + best[t][row]
        path.append(int(row[np.argmax(scores)]))

    cells = [int(model.workspace.free_cells[s]) for s in path]
    return cells, total
