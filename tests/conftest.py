from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from driftloc import (
    HmmModel,
    SyntheticFieldSpec,
    VectorField,
    Workspace,
    build_cell_map,
    build_stochastic_map,
    decompose,
    emission_matrix,
    load_field,
    sample_runs,
    synthesize_field,
)
from driftloc import gcm

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


def packed(smap):
    """The chain with each row's live slots moved to its front, in slot order.

    This is the packed row layout of the earlier chain, which the frozen
    reference code reads.
    """
    order = np.argsort(smap.targets < 0, axis=1, kind="stable")
    return replace(
        smap,
        targets=np.take_along_axis(smap.targets, order, axis=1),
        probs=np.take_along_axis(smap.probs, order, axis=1),
    )


def oracle_model(P, pi):
    """The (P, Q, pi) model that the frozen oracles and the enumeration read:
    the chain, its emission matrix, one prior and the chain's workspace."""
    return SimpleNamespace(P=P, Q=emission_matrix(P), pi=pi, workspace=P.workspace)


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


def last_live_slot(P):
    """Per row, the last slot that holds a mapped cell."""
    return P.targets.shape[1] - 1 - np.argmax(P.targets[:, ::-1] >= 0, axis=1)


@pytest.fixture(scope="session")
def gyre():
    """The shipped 21x29 double-gyre fixture with its chain at r = 0.9 and
    that chain's decoder model."""
    w, field = load_field(FIXTURE_FIELD)
    cm = build_cell_map(field)
    smap = build_stochastic_map(cm, 0.9)
    return {
        "workspace": w,
        "field": field,
        "cell_map": cm,
        "smap": smap,
        "P": smap,
        "model": HmmModel(smap),
        "decomposition": decompose(smap),
    }
