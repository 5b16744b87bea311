"""Localize a drifter from its compass history alone.

A drifter deployed in the double-gyre field records only the heading of each
move (eight compass directions plus idle).  The chain plus a compass
emission model form an HMM; Viterbi decoding returns the most likely
trajectory consistent with the observation history, from either a known
deployment cell (deterministic prior) or a one-cell-uncertain one
(probabilistic prior).
"""

from pathlib import Path

import numpy as np

from driftloc import (
    HmmModel,
    build_cell_map,
    build_stochastic_map,
    emission_matrix,
    error_report,
    format_directions,
    initial_distribution,
    load_field,
    sample_trajectory,
    viterbi,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "double_gyre_21x29.field"

w, field = load_field(FIXTURE)
P = build_stochastic_map(build_cell_map(field), r=0.9)
Q = emission_matrix(P)

x_deploy = w.index(16, 10)
T = 40

for i, mode in enumerate(("deterministic", "probabilistic")):
    pi = initial_distribution(w, x_deploy, mode)
    true_path, obs = sample_trajectory(P, pi, T, seed=(2026, i))
    model = HmmModel(P=P, Q=Q, pi=pi)
    decoded, logp = viterbi(model, obs)
    rep = error_report(true_path, decoded, w)

    print(f"--- {mode} prior, deployment cell {x_deploy} {w.rowcol(x_deploy)} ---")
    print(f"observations: {format_directions(obs[:16])} ...")
    print(f"true path ends at      {w.rowcol(true_path[-1])}")
    print(f"decoded path ends at   {w.rowcol(decoded[-1])}  (log prob {logp:.2f})")
    print(f"final error            {rep.final_error:.2f} cells")
    print(f"whole-trajectory error {rep.trajectory_error:.2f} cells\n")

# The decoder dominates the truth: no feasible path scores better than the
# decoded one, including the path the drifter actually took.
pi = initial_distribution(w, x_deploy, "deterministic")
model = HmmModel(P=P, Q=Q, pi=pi)
true_path, obs = sample_trajectory(P, pi, T, seed=7)
decoded, logp = viterbi(model, obs)


def score(cells):
    s = np.log(pi[w.state_of(cells[0])])
    for t, y in enumerate(obs):
        a, b = cells[t], cells[t + 1]
        s += np.log(Q[w.state_of(a), int(y)]) + np.log(P.mapped_set(a)[b])
    return float(s)


print(f"decoded log prob {logp:.3f} >= true-path log prob {score(true_path):.3f}")
