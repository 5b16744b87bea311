"""Inputs, request cycles and output checks of the benchmark's workloads.

Inputs are made from the seed through driftloc's public API only:
``synthesize_field``, ``Workspace`` and ``VectorField`` for the land mask,
``save_field``, ``build_cell_map``, ``build_stochastic_map``,
``StochasticCellMap.mapped_set`` and ``direction_between``.  Nothing here
uses ``transition_matrix``, ``emission_matrix`` or ``viterbi_final_state``,
which the ROADMAP removes.  The program under test sees only the files
written here.  Why each workload exists is in README.md beside this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

from driftloc import (
    SyntheticFieldSpec,
    VectorField,
    Workspace,
    build_cell_map,
    build_stochastic_map,
    direction_between,
    load_field,
    save_field,
    synthesize_field,
)

R = 0.9  # the CLI's default perfect-motion probability

PROTOCOL_CONFIGS = ("fig6", "fig7", "fig5")

MID_ROWS, MID_COLS = 42, 58
MID_CYCLE = ((20, "det"), (50, "prob"), (100, "det"),
             (20, "prob"), (50, "det"), (100, "prob"))

# 12 354 states: a request takes 1-2 s, so a 30 s run holds 15 or more of
# them; a single request's time spreads by 15% on a busy shared host.
LARGE_ROWS, LARGE_COLS = 100, 130
COAST_ROWS = 3  # land strip along the northern edge
ISLAND_BLOCK = 10  # islands sit in distinct cells of a 10x10 lattice ...
ISLAND_SIZE = 4  # ... as 4x4 squares, so the land count never varies
N_ISLANDS = 16  # 390 coast + 16 * 16 island cells: 4.97% of the grid


class CheckError(Exception):
    """An operation's output is wrong."""


@dataclass
class Request:
    key: str  # names the request's inputs; repeats must give identical bytes
    argv: list[str]
    outputs: list[Path]
    check: Callable[[list[bytes]], None]
    ops: int = 1  # experiment runs for `experiment`, else one
    steps: list[int] = field(default_factory=list)  # decoded T of each run

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    field_path: Path  # the field every request's chain is built from
    water: np.ndarray  # (rows * cols + 1,) bool, indexed by cell number
    requests: list[Request]  # one cycle; passes repeat it in order

    @property
    def n_states(self) -> int:
        return int(self.water.sum())


def _schemas(root: Path) -> dict:
    return {
        name: jsonschema.Draft202012Validator(
            json.loads((root / "schemas" / f"{name}.schema.json").read_text())
        )
        for name in ("decomposition", "trajectory", "experiment_runs")
    }


def _validate(validator, doc) -> None:
    err = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if err is not None:
        raise CheckError(f"schema: {err.message} at /{'/'.join(map(str, err.path))}")


def _water_lookup(w: Workspace) -> np.ndarray:
    water = np.zeros(w.rows * w.cols + 1, dtype=bool)
    water[1:] = ~w.land_mask.reshape(-1)
    return water


def _check_path(path, T: int, wl_water: np.ndarray, cols: int, what: str) -> None:
    """T + 1 water cells, each step staying put or moving to a Moore neighbor."""
    p = np.asarray(path, dtype=np.int64)
    if p.shape != (T + 1,):
        raise CheckError(f"{what}: {len(path)} cells for T = {T}")
    if p.min() < 1 or p.max() >= len(wl_water) or not wl_water[p].all():
        raise CheckError(f"{what}: a cell is outside the water")
    row, col = np.divmod(p - 1, cols)
    if (np.abs(np.diff(row)) > 1).any() or (np.abs(np.diff(col)) > 1).any():
        raise CheckError(f"{what}: a step is not Moore-adjacent")


# -- protocol_fixture ---------------------------------------------------------


def protocol_fixture(root: Path, work: Path, seed: int) -> Workload:
    """The paper's fig5/6/7 study protocols on the shipped 609-state fixture.

    Each shipped config is sent one condition (mode, T and region) at a time,
    as a config of its own with every other setting kept, so that no request
    runs longer than a few seconds and the calibration kernel samples the
    machine between short requests (see run.py).  The chain is then built
    once per condition rather than once per config: under 1% of the work at
    609 states.
    """
    schemas = _schemas(root)
    fixture = root / "fixtures" / "double_gyre_21x29.field"
    w, _ = load_field(fixture)
    water = _water_lookup(w)
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)

    requests = []
    for name in PROTOCOL_CONFIGS:
        cfg = json.loads((root / "configs" / f"{name}.json").read_text())
        cfg["field"] = {"path": str(fixture)}
        regions = cfg["regions"] if cfg.get("group_by_region") else [None]
        # The config's own condition order: mode-major, then T, then region.
        conditions = [(mode, T, region) for mode in cfg["modes"]
                      for T in cfg["T_list"] for region in regions]
        for c, (mode, T, region) in enumerate(conditions):
            stem = f"{name}-c{c}"
            part = dict(cfg, modes=[mode], T_list=[T])
            if region is not None:
                part["regions"] = [region]
            cfg_path = work / f"{stem}.json"
            cfg_path.write_text(json.dumps(part))
            steps = [T] * cfg["runs"]

            def check(blobs, steps=steps, T=T, condition=(mode, T, region or "")):
                doc = json.loads(blobs[0])
                _validate(schemas["experiment_runs"], doc)
                runs = doc["runs"]
                if [r["T"] for r in runs] != steps:
                    raise CheckError(f"runs: expected {len(steps)} runs of T = {T}")
                for r in runs:
                    what = f"run {r['run']}"
                    if len(r["observations"].split()) != r["T"]:
                        raise CheckError(f"{what}: observation count != T")
                    _check_path(r["true_path"], r["T"], water, w.cols,
                                what + " true_path")
                    _check_path(r["decoded_path"], r["T"], water, w.cols,
                                what + " decoded_path")
                summary = doc["summary"]
                if len(summary) != 1 or (
                    summary[0]["mode"], summary[0]["T"], summary[0]["region"]
                ) != condition:
                    raise CheckError("summary: not the requested condition")
                if len(blobs[1].decode().splitlines()) != 2:
                    raise CheckError("summary CSV: wrong number of rows")

            requests.append(Request(
                key=stem,
                argv=["experiment", "--config", str(cfg_path), "--out-dir", str(out),
                      "--seed", str(seed * 100 + len(requests))],
                outputs=[out / f"{stem}.runs.json", out / f"{stem}.summary.csv"],
                check=check, ops=len(steps), steps=steps,
            ))
    return Workload(fixture, water, requests)


# -- localize_mid ---------------------------------------------------------------


def _sample_observations(smap, w: Workspace, start: int, T: int, rng) -> list[str]:
    """Compass symbols of a T-step trajectory drawn from the chain."""
    z = start
    symbols = []
    for _ in range(T):
        mapped = smap.mapped_set(z)
        cells = np.fromiter(mapped.keys(), dtype=np.int64)
        probs = np.fromiter(mapped.values(), dtype=np.float64)
        nxt = int(rng.choice(cells, p=probs / probs.sum()))
        symbols.append(direction_between(w, z, nxt).symbol)
        z = nxt
    return symbols


def localize_mid(root: Path, work: Path, seed: int) -> Workload:
    """CLI localize on a 42x58 double gyre (2 436 states), T mixed over 20/50/100."""
    schemas = _schemas(root)
    w, vfield = synthesize_field(
        SyntheticFieldSpec(kind="double_gyre", decay=2.0), MID_ROWS, MID_COLS
    )
    field_path = work / "mid.field"
    save_field(field_path, vfield)
    smap = build_stochastic_map(build_cell_map(vfield), R)
    water = _water_lookup(w)
    rng = np.random.default_rng(seed)

    requests = []
    for i, (T, prior) in enumerate(MID_CYCLE):
        x0 = int(rng.integers(1, w.rows * w.cols + 1))  # the grid is all water
        support = [x0]
        if prior == "prob":
            r0, c0 = divmod(x0 - 1, w.cols)
            support = [
                r * w.cols + c + 1
                for r in range(max(r0 - 1, 0), min(r0 + 2, w.rows))
                for c in range(max(c0 - 1, 0), min(c0 + 2, w.cols))
            ]
        start = int(rng.choice(support))
        obs_path = work / f"obs{i}.txt"
        symbols = _sample_observations(smap, w, start, T, rng)
        obs_path.write_text(" ".join(symbols) + "\n")
        out = work / f"loc{i}.json"

        def check(blobs, T=T, support=frozenset(support)):
            doc = json.loads(blobs[0])
            _validate(schemas["trajectory"], doc)
            _check_path(doc["path"], T, water, w.cols, "path")
            if doc["path"][0] not in support:
                raise CheckError("path: starts outside the prior's support")
            if doc["final"] != doc["path"][-1]:
                raise CheckError("final is not the path's last cell")

        requests.append(Request(
            key=f"req{i}",
            argv=["localize", "--field", str(field_path), "--x0", str(x0),
                  "--pi", prior, "--obs", str(obs_path), "--out", str(out)],
            outputs=[out], check=check, steps=[T],
        ))
    return Workload(field_path, water, requests)


# -- classify_large -------------------------------------------------------------


def _land_mask(rng) -> np.ndarray:
    mask = np.zeros((LARGE_ROWS, LARGE_COLS), dtype=bool)
    mask[LARGE_ROWS - COAST_ROWS:, :] = True
    block_rows = (LARGE_ROWS - COAST_ROWS) // ISLAND_BLOCK
    block_cols = LARGE_COLS // ISLAND_BLOCK
    for b in rng.choice(block_rows * block_cols, size=N_ISLANDS, replace=False):
        r0 = (b // block_cols) * ISLAND_BLOCK
        c0 = (b % block_cols) * ISLAND_BLOCK
        r0 += int(rng.integers(0, ISLAND_BLOCK - ISLAND_SIZE + 1))
        c0 += int(rng.integers(0, ISLAND_BLOCK - ISLAND_SIZE + 1))
        mask[r0:r0 + ISLAND_SIZE, c0:c0 + ISLAND_SIZE] = True
    return mask


def classify_large(root: Path, work: Path, seed: int) -> Workload:
    """CLI classify on a 100x130 double gyre with a seeded coast and islands."""
    schemas = _schemas(root)
    _, gyre = synthesize_field(
        SyntheticFieldSpec(kind="double_gyre", decay=2.0), LARGE_ROWS, LARGE_COLS
    )
    w = Workspace(rows=LARGE_ROWS, cols=LARGE_COLS,
                  land_mask=_land_mask(np.random.default_rng(seed)))
    field_path = work / "large.field"
    save_field(field_path, VectorField(workspace=w, u=gyre.u, v=gyre.v))
    water = _water_lookup(w)
    water_cells = np.flatnonzero(water)
    out = work / "classify.json"

    def check(blobs):
        doc = json.loads(blobs[0])
        _validate(schemas["decomposition"], doc)
        if (doc["rows"], doc["cols"], doc["n_free"]) != (
            w.rows, w.cols, len(water_cells)
        ):
            raise CheckError("grid size or water count differs from the field")
        groups = doc["persistent_groups"] + doc["transient_groups"]
        if any(g["size"] != len(g["cells"]) for g in groups):
            raise CheckError("a group's size differs from its cell count")
        cells = np.sort(np.concatenate([np.asarray(g["cells"], dtype=np.int64)
                                        for g in groups]))
        if not np.array_equal(cells, water_cells):
            raise CheckError("groups do not partition the water cells")

    return Workload(field_path, water, [Request(
        key="classify",
        argv=["classify", "--field", str(field_path), "--out", str(out)],
        outputs=[out], check=check,
    )])


WORKLOADS = {
    "protocol_fixture": protocol_fixture,
    "localize_mid": localize_mid,
    "classify_large": classify_large,
}


def chain_nnz(wl: Workload) -> int:
    """Nonzeros of the chain the requests build: the summed mapped-set sizes."""
    _, vfield = load_field(wl.field_path)
    smap = build_stochastic_map(build_cell_map(vfield), R)
    return sum(len(smap.mapped_set(int(z))) for z in np.flatnonzero(wl.water))
