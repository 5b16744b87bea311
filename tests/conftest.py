from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from driftloc import (
    SLOT_DIRECTIONS,
    StochasticCellMap,
    SyntheticFieldSpec,
    VectorField,
    Workspace,
    build_cell_map,
    build_stochastic_map,
    decompose,
    load_field,
    sample_runs,
    synthesize_field,
)
from driftloc import gcm
from driftloc.gcm import MAX_MAPPED

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_FIELD = REPO_ROOT / "fixtures" / "double_gyre_21x29.field"
CONFIG_DIR = REPO_ROOT / "configs"
SCHEMA_DIR = REPO_ROOT / "schemas"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"  # reports of the fixture, byte for byte


def make_field(rows, cols, u=0.0, v=0.0, land=None):
    """All-water (or masked) workspace with a constant or per-cell field."""
    w = Workspace(rows=rows, cols=cols, land_mask=land)
    u_arr = np.broadcast_to(np.asarray(u, dtype=float), (rows, cols)).copy()
    v_arr = np.broadcast_to(np.asarray(v, dtype=float), (rows, cols)).copy()
    return w, VectorField(workspace=w, u=u_arr, v=v_arr)


def gyre_with_land(rows, cols, seed):
    """Double gyre with a three-row coast and seeded 3x3 islands."""
    _, gyre = synthesize_field(SyntheticFieldSpec(kind="double_gyre", decay=2.0), rows, cols)
    rng = np.random.default_rng(seed)
    land = np.zeros((rows, cols), dtype=bool)
    land[-3:, :] = True
    for _ in range(8):
        r0 = int(rng.integers(0, rows - 6))
        c0 = int(rng.integers(0, cols - 3))
        land[r0:r0 + 3, c0:c0 + 3] = True
    w = Workspace(rows=rows, cols=cols, land_mask=land)
    return VectorField(workspace=w, u=gyre.u, v=gyre.v)


def random_field(rng, rows, cols, land_prob=0.0, vmax=1.2):
    """Random per-cell velocities; optional random land that keeps water connected enough."""
    while True:
        land = rng.random((rows, cols)) < land_prob
        if (~land).sum() >= 2:
            break
    u = rng.uniform(-vmax, vmax, (rows, cols))
    v = rng.uniform(-vmax, vmax, (rows, cols))
    w = Workspace(rows=rows, cols=cols, land_mask=land)
    return w, VectorField(workspace=w, u=u, v=v)


def slot_layout(P, packed=False):
    """The chain in the nine-slot rows of its earlier layout, which the
    frozen reference code and the slot-level tests read: (n, 9) int64
    targets, -1 off A(z), and probabilities, 0.0 there.  Slot k holds the
    move with heading ``SLOT_DIRECTIONS[k]``; with ``packed``, each row's
    moves come first instead, in slot order."""
    n, width = P.n_states, P.targets.shape[1]
    # One dead column more than nine, so that column W reads -1 / 0.0.
    targets = np.full((n, MAX_MAPPED + 1), -1, dtype=np.int64)
    probs = np.zeros((n, MAX_MAPPED + 1))
    targets[:, :width] = np.where(P.targets[:n] < n, P.targets[:n], -1)
    probs[:, :width] = P.probs[:n]
    if not packed:
        cols = P.col[list(SLOT_DIRECTIONS), :n].T.astype(np.int64)
        targets = np.take_along_axis(targets, cols, axis=1)
        probs = np.take_along_axis(probs, cols, axis=1)
    return SimpleNamespace(
        workspace=P.workspace, r=P.r, dt=P.dt, n_states=n,
        targets=targets[:, :MAX_MAPPED], probs=probs[:, :MAX_MAPPED],
    )


def from_slots(workspace, targets, r=1.0, dt=1.0):
    """A chain from (n, 9) slot rows, -1 off A(z), each row moving uniformly:
    the targets of ``slot_layout``, inverted.  Slot k reads as the heading
    ``SLOT_DIRECTIONS[k]``."""
    n = len(targets)
    live = targets >= 0
    width = int(live.sum(axis=1).max())
    s, k = np.nonzero(live)
    c = (np.cumsum(live, axis=1) - 1)[s, k]  # each live slot's rank in its row
    out = np.full((n + 1, width), n, dtype=np.int64)
    out[s, c] = targets[s, k]
    mask = (live << np.arange(MAX_MAPPED)).sum(axis=1).astype(np.uint16)
    image = np.full(n, MAX_MAPPED, dtype=np.int8)
    return StochasticCellMap(workspace=workspace, r=r, dt=dt, targets=out, mask=mask, image=image)


def colliding(cm, r):
    """Each state's collision flag, from the chain builder's stencil pass."""
    rows, cols = np.divmod(cm.workspace.free_cells - 1, cm.workspace.cols)
    return gcm._stencil_slots(cm, rows, cols, r)[2]


def emission_matrix(P):
    """(n, 9) row-stochastic matrix of compass-symbol probabilities, the Q of
    the HMM: Q[s, y] is the probability of the move of state s in direction
    y, the chain's column ``col[y, s]``, 0.0 where s has no such move."""
    probs = np.pad(P.probs, ((0, 0), (0, 1)))  # column W reads 0.0
    return np.take_along_axis(probs, P.col.T, axis=1)[:-1]


def oracle_model(P, pi):
    """The (P, Q, pi) model that the frozen oracles and the enumeration read:
    the chain in nine slots, its emission matrix, one prior and the chain's
    workspace."""
    return SimpleNamespace(P=slot_layout(P), Q=emission_matrix(P), pi=pi, workspace=P.workspace)


def sample_run(P, pi, T, seed, obs_noise=0.0):
    """One run of ``sample_runs`` from ``default_rng(seed)``: its T + 1 cells
    and T direction indices, as lists."""
    cells, obs = sample_runs(P, [pi], T, [np.random.default_rng(seed)], obs_noise)
    return cells[0].tolist(), obs[0].tolist()


def components(P):
    """The chain's strongly connected components, the labels of
    ``gcm._component_labels`` grouped: ascending states per component, the
    components ordered by their smallest state."""
    labels, _ = gcm._component_labels(*gcm._successors(P))
    by_label = np.argsort(labels, kind="stable")
    comps = np.split(by_label, np.flatnonzero(np.diff(labels[by_label])) + 1)
    return sorted(comps, key=lambda c: int(c[0]))


@pytest.fixture(scope="session")
def gyre():
    """The shipped 21x29 double-gyre fixture with its chain at r = 0.9, which
    every decode on it shares."""
    w, field = load_field(FIXTURE_FIELD)
    cm = build_cell_map(field)
    smap = build_stochastic_map(cm, 0.9)
    return {
        "workspace": w,
        "field": field,
        "cell_map": cm,
        "smap": smap,
        "P": smap,
        "decomposition": decompose(smap),
    }
