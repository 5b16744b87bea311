"""Ground-truth chain simulation and Monte-Carlo localization error studies.

``sample_runs`` samples trajectories from the chain; the compass history is
the heading of each sampled move, optionally corrupted by symbol-flip noise.
``run_experiment`` runs seeded batches over observation lengths, prior modes
and start regions, decodes each run with Viterbi, and reports two errors in
cell units:

  final error      distance between true and decoded final cells
  trajectory error summed per-step distance between the two paths

Every run draws its generator from SeedSequence((base_seed, condition_index,
run_index)) and consumes it in a fixed order: start-cell draw (if
randomized), initial-state draw, one draw per step, then the noise draws (if
obs_noise > 0).  A run's result therefore depends neither on execution order
nor on the lockstep group it is sampled and decoded in.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, ZeroProbabilityError
from .flowfield import build_cell_map, is_finite
from .gcm import StochasticCellMap, build_stochastic_map, decompose
from .gridworld import N_DIRECTIONS, SLOT_DIRECTIONS, Workspace, cell_distances, format_histories
from .hmm import initial_distribution, viterbi_runs
from .ingest import SyntheticFieldSpec, is_a, resolve_field
from .report import report_json

MODES = ("deterministic", "probabilistic")

# The compass symbol of the move by (drow, dcol), at (drow + 1) * 3 + (dcol + 1).
_SLOT_SYMBOLS = np.array(SLOT_DIRECTIONS, dtype=np.int64)

# An experiment samples and decodes its runs in groups of about this many
# states in all.  A group's per-step arrays hold R n entries, its table of
# absolute targets 8 W bytes a run-state (at most about 0.6 MiB at W = 9),
# and its feasible sets grow with R.  On the fixture at T = 100, one group of
# all 50 runs was no faster than groups of 13 and peaked at 7.8 MiB of traced
# memory against 3.5 MiB; groups of 6 (4096 states) were about 15% slower.
_GROUP_STATES = 8192


def _is_list(x, *types) -> bool:
    return isinstance(x, (list, tuple)) and all(is_a(v, *types) for v in x)


def _nested(source: Mapping, wrap) -> Mapping:
    """A copy of a field source with ``wrap`` applied to it and to every
    mapping inside it."""
    return wrap({k: _nested(v, wrap) if isinstance(v, Mapping) else v
                 for k, v in source.items()})


def _check_synthetic(synth: Mapping) -> None:
    """Raise a ConfigError naming the key of a synthetic field source that
    ``ingest.resolve_field`` cannot build from."""
    spec = {"kind": None, **synth}
    rows, cols = spec.pop("rows", None), spec.pop("cols", None)
    unknown = set(spec) - {f.name for f in fields(SyntheticFieldSpec)}
    if unknown:
        raise ConfigError(f"unknown field.synthetic keys: {sorted(unknown)}")
    try:
        SyntheticFieldSpec(**spec).validate(rows, cols)
    except ValueError as exc:
        raise ConfigError(f"field.synthetic.{exc}") from None


def sample_runs(
    P: StochasticCellMap,
    pis,
    T: int,
    rngs,
    obs_noise: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate R runs of the chain in lockstep: run r from pis[r] with rngs[r].

    Returns ((R, T + 1) cell indices, (R, T) direction indices).  The
    observation at step t is the heading of the move x_{t-1} -> x_t; with
    obs_noise > 0 each symbol is replaced by a uniformly random different
    one with that probability.  Each generator is drawn from in the same
    order: initial state, T step uniforms, then the noise draws, so row r
    does not depend on the other runs.  The steps cost O(T) array calls over
    R runs and the chain's W columns; the first sample on a chain builds its
    ``probs``.
    """
    if T < 1:
        raise ValueError("trajectory length T must be >= 1")
    if len(pis) != len(rngs):
        raise ValueError(f"{len(pis)} initial distributions but {len(rngs)} generators")
    # Pads add 0.0, so they never end the search; a draw past the row's
    # rounded total falls back to its last move.
    cum = np.cumsum(P.probs, axis=1)
    last_live = np.count_nonzero(P.probs, axis=1) - 1

    R = len(rngs)
    states = np.empty((R, T + 1), dtype=np.int64)
    u = np.empty((R, T))
    for r, (pi, rng) in enumerate(zip(pis, rngs)):
        states[r, 0] = rng.choice(len(pi), p=pi)
        u[r] = rng.random(T)
    for t in range(T):
        s = states[:, t]
        # The count of a row's cumulative totals <= u is searchsorted(side="right").
        k = np.minimum((cum[s] <= u[:, t, None]).sum(axis=1), last_live[s])
        states[:, t + 1] = P.targets[s, k]

    cells = P.workspace.free_cells[states]
    rows, cols = np.divmod(cells - 1, P.workspace.cols)
    obs = _SLOT_SYMBOLS[(np.diff(rows) + 1) * 3 + np.diff(cols) + 1]
    if obs_noise > 0.0:
        for r, rng in enumerate(rngs):
            for t in range(T):
                if rng.random() < obs_noise:
                    obs[r, t] = (obs[r, t] + 1 + rng.integers(N_DIRECTIONS - 1)) % N_DIRECTIONS
    return cells, obs


def error_reports(true_paths, decoded_paths, w: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Final-location and whole-trajectory errors of R runs, in cell units,
    from (R, T + 1) true and decoded paths.  A cell out of range raises the
    CellIndexError of ``gridworld.cell_distances``.

    The trajectory error adds each run's step distances left to right, so it
    does not depend on the summation order of any one library or Python
    version.
    """
    shape, decoded_shape = np.shape(true_paths), np.shape(decoded_paths)
    if shape != decoded_shape:
        raise ValueError(f"path shapes differ: {shape} vs {decoded_shape}")
    steps = cell_distances(w, true_paths, decoded_paths)[:, 1:]
    if not steps.shape[1]:  # paths of one cell
        return np.zeros(len(steps)), np.zeros(len(steps))
    return steps[:, -1], steps.cumsum(axis=1)[:, -1]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one error experiment.

    ``field`` is either {"path": <field file>} or {"synthetic": {...}} (see
    ingest.SyntheticFieldSpec).  ``initial`` is "random" (uniform over water
    cells per run) or a fixed cell index.  With ``group_by_region`` each
    (T, mode) condition is repeated per decomposition region, drawing start
    cells from that region, so ``initial`` must be "random".  Construction
    raises a ConfigError naming the first bad key, so every config is checked
    once, and ``dataclasses.replace`` checks its copy again.  The config keeps
    a read-only copy of ``field``, so the source it checked is the one that
    ``run_experiment`` reads.
    """

    field: Mapping
    r: float = 0.9
    dt: float | None = None
    modes: tuple[str, ...] = ("deterministic",)
    T_list: tuple[int, ...] = (20, 40, 60, 80, 100)
    runs: int = 50
    base_seed: int = 0
    initial: int | str = "random"
    group_by_region: bool = False
    regions: tuple[str, ...] | None = None
    obs_noise: float = 0.0

    def __post_init__(self) -> None:
        field = self.field if isinstance(self.field, Mapping) else {}
        for key, ok, what in (
            ("field", is_a(field.get("path"), str)
             or isinstance(field.get("synthetic"), Mapping),
             "{'path': <file>} or {'synthetic': {...}}"),
            ("r", is_a(self.r, int, float), "a number"),
            ("dt", self.dt is None or is_a(self.dt, int, float), "a number or null"),
            ("modes", _is_list(self.modes, str), "a list of mode names"),
            ("T_list", _is_list(self.T_list, int), "a list of integers"),
            ("runs", is_a(self.runs, int), "an integer"),
            ("base_seed", is_a(self.base_seed, int) and self.base_seed >= 0,
             "a non-negative integer"),
            ("initial", is_a(self.initial, int) or self.initial == "random",
             "a cell index or 'random'"),
            ("group_by_region", isinstance(self.group_by_region, bool), "true or false"),
            ("regions", self.regions is None or _is_list(self.regions, str),
             "a list of region labels"),
            ("obs_noise", is_a(self.obs_noise, int, float), "a number"),
        ):
            if not ok:
                raise ConfigError(f"{key} must be {what}, got {getattr(self, key)!r}")
        if len(field) != 1:
            raise ConfigError(
                f"field must hold exactly one of 'path' and 'synthetic', got keys {list(field)}"
            )
        if "synthetic" in field:
            _check_synthetic(field["synthetic"])
        if not 0.0 < self.r <= 1.0:
            raise ConfigError(f"r must be in (0, 1], got {self.r}")
        if self.dt is not None and not (self.dt > 0.0 and is_finite(self.dt)):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        for m in self.modes:
            if m not in MODES:
                raise ConfigError(f"unknown mode {m!r}; expected one of {MODES}")
        if not self.modes:
            raise ConfigError("at least one mode is required")
        if not self.T_list or any(t < 1 for t in self.T_list):
            raise ConfigError("T_list must contain positive lengths")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if not 0.0 <= self.obs_noise < 1.0:
            raise ConfigError("obs_noise must be in [0, 1)")
        if self.regions is not None and not self.group_by_region:
            raise ConfigError("regions given without group_by_region")
        if self.regions is not None and not self.regions:
            raise ConfigError("regions must name at least one region")
        if self.initial != "random" and self.group_by_region:
            raise ConfigError(f"initial cell {self.initial} given with group_by_region")
        object.__setattr__(self, "field", _nested(field, MappingProxyType))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        if not isinstance(d, dict) or "field" not in d:
            raise ConfigError("config must be a JSON object with a 'field' key")
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        for key in ("modes", "T_list", "regions"):
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["field"] = _nested(self.field, dict)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


SUMMARY_COLUMNS = (
    "condition", "T", "mode", "region", "runs",
    "final_mean", "final_median", "final_std", "final_min", "final_max",
    "traj_mean", "traj_median", "traj_std", "traj_min", "traj_max",
)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    summary: list[dict]
    runs: list[dict]

    def to_csv(self) -> str:
        lines = [",".join(SUMMARY_COLUMNS)]
        for row in self.summary:
            lines.append(",".join(str(row[c]) for c in SUMMARY_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "config": self.config.to_dict(),
            "summary": self.summary,
            "runs": self.runs,
        }
        return report_json(payload) + "\n"

    def write(self, csv_path, json_path) -> None:
        with open(csv_path, "w") as f:
            f.write(self.to_csv())
        with open(json_path, "w") as f:
            f.write(self.to_json())


def _summarize(a: np.ndarray) -> tuple[float, float, float, float, float]:
    # The median as the middle of the sorted values: np.median imports
    # numpy.ma for its NaN check.
    median = np.sort(a)[(len(a) - 1) // 2:len(a) // 2 + 1].mean()
    return tuple(float(x) for x in (a.mean(), median, a.std(), a.min(), a.max()))


def run_experiment(cfg: ExperimentConfig, base=None) -> ExperimentResult:
    """Execute every (T, mode[, region]) condition of a config.

    A relative field path is read relative to the directory ``base`` when one
    is given (the CLI passes the config file's directory).
    """
    w, vfield = resolve_field(cfg.field, base)
    cm = build_cell_map(vfield, dt=cfg.dt)
    smap = build_stochastic_map(cm, cfg.r)
    del vfield, cm  # only the chain is read from here on
    dec = decompose(smap)

    if isinstance(cfg.initial, int) and w.is_land(cfg.initial):
        raise ConfigError(f"initial cell {cfg.initial} is land")

    labels = dec.region_labels()
    if cfg.group_by_region:
        regions = list(cfg.regions) if cfg.regions is not None else labels
        for label in regions:
            if label not in labels:
                raise ConfigError(f"regions: this field has no region {label!r}")
    else:
        regions = [None]

    # Fixed condition enumeration: mode-major, then T, then region.
    conditions = [
        (mode, T, region)
        for mode in cfg.modes
        for T in cfg.T_list
        for region in regions
    ]

    summary = []
    run_records = []
    group = max(1, _GROUP_STATES // smap.n_states)
    for cond_idx, (mode, T, region) in enumerate(conditions):
        pool = dec.region_cells(region) if region is not None else w.free_cells
        rngs = [np.random.default_rng(np.random.SeedSequence((cfg.base_seed, cond_idx, i)))
                for i in range(cfg.runs)]
        starts = [cfg.initial if isinstance(cfg.initial, int)
                  else int(pool[rng.integers(len(pool))]) for rng in rngs]
        run_regions = [labels[i] for i in dec.region[w.free_cells.searchsorted(starts)].tolist()]
        groups = []
        for lo in range(0, cfg.runs, group):
            hi = min(lo + group, cfg.runs)
            priors = [initial_distribution(w, x_init, mode) for x_init in starts[lo:hi]]
            true_paths, histories = sample_runs(smap, priors, T, rngs[lo:hi], cfg.obs_noise)
            try:
                groups.append((true_paths, histories, *viterbi_runs(smap, priors, histories)))
            except ZeroProbabilityError as exc:
                run_idx = lo + exc.run
                raise ZeroProbabilityError(
                    exc.step,
                    f"condition {cond_idx} (T={T}, mode {mode}, region {run_regions[run_idx]}), "
                    f"run {run_idx}: {exc}",
                    run=run_idx,
                ) from None
        true_paths, histories, decoded, log_probs = map(np.concatenate, zip(*groups))
        finals, trajs = error_reports(true_paths, decoded, w)
        for run_idx, (x_init, true_path, obs, path, logp, final, traj) in enumerate(zip(
            starts, true_paths.tolist(), format_histories(histories), decoded.tolist(),
            log_probs.tolist(), finals.tolist(), trajs.tolist(),
        )):
            run_records.append({
                "condition": cond_idx,
                "T": T,
                "mode": mode,
                "region": run_regions[run_idx],
                "run": run_idx,
                "x_init": x_init,
                "true_path": true_path,
                "observations": obs,
                "decoded_path": path,
                "log_prob": logp,
                "final_error": final,
                "trajectory_error": traj,
            })
        summary.append(dict(zip(SUMMARY_COLUMNS, (
            cond_idx, T, mode, region or "", cfg.runs,
            *_summarize(finals), *_summarize(trajs),
        ))))

    return ExperimentResult(config=cfg, summary=summary, runs=run_records)
