from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from driftloc import (
    VectorField,
    Workspace,
    build_cell_map,
    build_stochastic_map,
    decompose,
    load_field,
    sample_runs,
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
    """The shipped 21x29 double-gyre fixture with its chain at r = 0.9."""
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
