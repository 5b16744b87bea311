"""Localize a drifter from its compass history alone.

A drifter deployed in the double-gyre field records only the heading of each
move (eight compass directions plus idle).  The chain is the HMM: each move
of a cell's mapped set is one compass heading, so the chain gives both the
transition and the emission probabilities.  Viterbi decoding returns the
most likely trajectory consistent with the observation history, from either
a known deployment cell (deterministic prior) or a one-cell-uncertain one
(probabilistic prior).
"""

from pathlib import Path

import numpy as np

from driftloc import (
    build_cell_map,
    build_stochastic_map,
    direction_between,
    initial_distribution,
    load_field,
    sample_runs,
    viterbi,
    viterbi_runs,
)
from driftloc.gridworld import format_histories
from driftloc.sim import error_reports

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "double_gyre_21x29.field"

w, field = load_field(FIXTURE)
P = build_stochastic_map(build_cell_map(field), r=0.9)

x_deploy = w.index(16, 10)
T = 40

# Both priors as one group of runs: each run draws from its own generator.
modes = ("deterministic", "probabilistic")
pis = [initial_distribution(w, x_deploy, mode) for mode in modes]
rngs = [np.random.default_rng((2026, i)) for i in range(len(modes))]
true_paths, histories = sample_runs(P, pis, T, rngs)
decoded_paths, log_probs = viterbi_runs(P, pis, histories)
finals, trajs = error_reports(true_paths, decoded_paths, w)

for mode, true_path, obs, decoded, logp, final, traj in zip(
    modes, true_paths, format_histories(histories[:, :16]), decoded_paths, log_probs,
    finals, trajs,
):
    print(f"--- {mode} prior, deployment cell {x_deploy} {w.rowcol(x_deploy)} ---")
    print(f"observations: {obs} ...")
    print(f"true path ends at      {w.rowcol(true_path[-1])}")
    print(f"decoded path ends at   {w.rowcol(decoded[-1])}  (log prob {logp:.2f})")
    print(f"final error            {final:.2f} cells")
    print(f"whole-trajectory error {traj:.2f} cells\n")

# The decoder dominates the truth: no feasible path scores better than the
# decoded one, including the path the drifter actually took.
pi = initial_distribution(w, x_deploy, "deterministic")
cells, histories = sample_runs(P, [pi], T, [np.random.default_rng(7)])
true_path, obs = cells[0].tolist(), histories[0].tolist()
decoded, logp = viterbi(P, pi, obs)


def score(cells):
    s = np.log(pi[w.state_of(cells[0])])
    for t, y in enumerate(obs):
        a, b = cells[t], cells[t + 1]
        moves = P.mapped_set(a)
        # The emission: the probability of the move of a with heading y.
        emit = sum(p for c, p in moves.items() if direction_between(w, a, c) == y)
        s += np.log(emit) + np.log(moves[b])
    return float(s)


print(f"decoded log prob {logp:.3f} >= true-path log prob {score(true_path):.3f}")
