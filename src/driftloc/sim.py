"""Ground-truth chain simulation and Monte-Carlo localization error studies.

Trajectories are sampled from the chain; the compass history is the symbol
of each sampled slot (optionally corrupted by symbol-flip noise).  Experiments
run seeded batches over observation lengths, prior modes and start regions,
decode each run with Viterbi, and aggregate two error metrics:

  final error      distance between true and decoded final cells
  trajectory error summed per-step distance between the two paths

Every run draws its generator from SeedSequence((base_seed, condition_index,
run_index)), so results are reproducible run-by-run and independent of
execution order.  Within a run the stream is consumed in a fixed order:
start-cell draw (if randomized), initial-state draw, then one draw per step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flowfield import build_cell_map
from .gcm import (
    SLOT_DIRECTIONS,
    FlowDecomposition,
    StochasticCellMap,
    build_stochastic_map,
    decompose,
)
from .gridworld import N_DIRECTIONS, Workspace, cell_distance, format_directions
from .hmm import HmmModel, emission_matrix, initial_distribution, viterbi
from .ingest import resolve_field

MODES = ("deterministic", "probabilistic")


def _is_a(x, *types) -> bool:
    """``isinstance(x, types)``, except that a bool is no int."""
    return isinstance(x, types) and not isinstance(x, bool)


def _is_list(x, *types) -> bool:
    return isinstance(x, (list, tuple)) and all(_is_a(v, *types) for v in x)


def sample_trajectory(
    P: StochasticCellMap,
    pi: np.ndarray,
    T: int,
    seed,
    obs_noise: float = 0.0,
) -> tuple[list[int], list[int]]:
    """Simulate the chain for T steps and report the compass history.

    Returns (trajectory of T + 1 cell indices, T direction indices).  The
    observation at step t is the heading of the move x_{t-1} -> x_t; with
    obs_noise > 0 each symbol is replaced by a uniformly random different
    one with that probability.
    """
    if T < 1:
        raise ValueError("trajectory length T must be >= 1")
    rng = np.random.default_rng(seed)
    w = P.workspace
    # Slots off A(z) add 0.0, so they never end the search; a draw past the
    # row's rounded total falls back to its last live slot.
    cum = np.cumsum(P.probs, axis=1)
    last_live = P.targets.shape[1] - 1 - np.argmax(P.targets[:, ::-1] >= 0, axis=1)

    s = int(rng.choice(len(pi), p=pi))
    states = [s]
    obs = []
    for _ in range(T):
        u = rng.random()
        k = min(int(np.searchsorted(cum[s], u, side="right")), int(last_live[s]))
        s = int(P.targets[s, k])
        states.append(s)
        obs.append(int(SLOT_DIRECTIONS[k]))

    cells = [int(w.free_cells[s]) for s in states]
    if obs_noise > 0.0:
        for t in range(T):
            if rng.random() < obs_noise:
                obs[t] = int((obs[t] + 1 + rng.integers(N_DIRECTIONS - 1)) % N_DIRECTIONS)
    return cells, obs


@dataclass(frozen=True)
class ErrorReport:
    """Localization error of one decoded run, in cell units."""

    final_error: float
    trajectory_error: float


def error_report(true_path, decoded_path, w: Workspace) -> ErrorReport:
    """Final-location and whole-trajectory error between two equal-length paths."""
    if len(true_path) != len(decoded_path):
        raise ValueError(
            f"path lengths differ: {len(true_path)} vs {len(decoded_path)}"
        )
    steps = [
        cell_distance(w, a, b) for a, b in zip(true_path[1:], decoded_path[1:])
    ]
    return ErrorReport(
        final_error=float(steps[-1]) if steps else 0.0,
        trajectory_error=float(sum(steps)),
    )


@dataclass
class ExperimentConfig:
    """Declarative description of one error experiment.

    ``field`` is either {"path": <field file>} or {"synthetic": {...}} (see
    ingest.SyntheticFieldSpec).  ``initial`` is "random" (uniform over water
    cells per run) or a fixed cell index.  With ``group_by_region`` each
    (T, mode) condition is repeated per decomposition region, drawing start
    cells from that region.
    """

    field: dict
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

    def validate(self) -> None:
        field = self.field if isinstance(self.field, dict) else {}
        for key, ok, what in (
            ("field", _is_a(field.get("path"), str)
             or isinstance(field.get("synthetic"), dict),
             "{'path': <file>} or {'synthetic': {...}}"),
            ("r", _is_a(self.r, int, float), "a number"),
            ("dt", self.dt is None or _is_a(self.dt, int, float), "a number or null"),
            ("modes", _is_list(self.modes, str), "a list of mode names"),
            ("T_list", _is_list(self.T_list, int), "a list of integers"),
            ("runs", _is_a(self.runs, int), "an integer"),
            ("base_seed", _is_a(self.base_seed, int), "an integer"),
            ("initial", _is_a(self.initial, int) or self.initial == "random",
             "a cell index or 'random'"),
            ("group_by_region", isinstance(self.group_by_region, bool), "true or false"),
            ("regions", self.regions is None or _is_list(self.regions, str),
             "a list of region labels"),
            ("obs_noise", _is_a(self.obs_noise, int, float), "a number"),
        ):
            if not ok:
                raise ConfigError(f"{key} must be {what}, got {getattr(self, key)!r}")
        if not 0.0 < self.r <= 1.0:
            raise ConfigError(f"r must be in (0, 1], got {self.r}")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
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

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {
            "field", "r", "dt", "modes", "T_list", "runs", "base_seed",
            "initial", "group_by_region", "regions", "obs_noise",
        }
        if not isinstance(d, dict) or "field" not in d:
            raise ConfigError("config must be a JSON object with a 'field' key")
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        for key in ("modes", "T_list", "regions"):
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {
            "field": self.field,
            "r": self.r,
            "dt": self.dt,
            "modes": list(self.modes),
            "T_list": list(self.T_list),
            "runs": self.runs,
            "base_seed": self.base_seed,
            "initial": self.initial,
            "group_by_region": self.group_by_region,
            "regions": list(self.regions) if self.regions is not None else None,
            "obs_noise": self.obs_noise,
        }


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
    decomposition: FlowDecomposition

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
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, csv_path, json_path) -> None:
        with open(csv_path, "w") as f:
            f.write(self.to_csv())
        with open(json_path, "w") as f:
            f.write(self.to_json())


def _summarize(values: list[float]) -> tuple[float, float, float, float, float]:
    a = np.asarray(values)
    return (
        float(a.mean()), float(np.median(a)), float(a.std()),
        float(a.min()), float(a.max()),
    )


def run_experiment(cfg: ExperimentConfig, field_pair=None) -> ExperimentResult:
    """Execute every (T, mode[, region]) condition of a config.

    ``field_pair`` may pass a prebuilt (Workspace, VectorField) to skip the
    field source in the config (the CLI loads a field path relative to the
    config file and passes the result).
    """
    cfg.validate()
    if field_pair is None:
        field_pair = resolve_field(cfg.field)
    w, vfield = field_pair

    cm = build_cell_map(vfield, dt=cfg.dt)
    smap = build_stochastic_map(cm, cfg.r)
    Q = emission_matrix(smap)
    dec = decompose(smap)

    if isinstance(cfg.initial, int) and w.is_land(cfg.initial):
        raise ConfigError(f"initial cell {cfg.initial} is land")

    if cfg.group_by_region:
        regions = list(cfg.regions) if cfg.regions is not None else dec.region_labels()
        labels = dec.region_labels()
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
    model = None  # built once; each run swaps in its own prior
    for cond_idx, (mode, T, region) in enumerate(conditions):
        pool = dec.region_cells(region) if region is not None else w.free_cells
        finals, trajs = [], []
        for run_idx in range(cfg.runs):
            seed = np.random.SeedSequence((cfg.base_seed, cond_idx, run_idx))
            rng = np.random.default_rng(seed)
            if isinstance(cfg.initial, int) and region is None:
                x_init = cfg.initial
            else:
                x_init = int(pool[rng.integers(len(pool))])
            pi = initial_distribution(w, x_init, mode)
            true_path, obs = sample_trajectory(
                smap, pi, T, rng, obs_noise=cfg.obs_noise
            )
            if model is None:
                model = HmmModel(P=smap, Q=Q, pi=pi)
            else:
                model = model.with_prior(pi)
            decoded, logp = viterbi(model, obs)
            rep = error_report(true_path, decoded, w)
            finals.append(rep.final_error)
            trajs.append(rep.trajectory_error)
            run_records.append({
                "condition": cond_idx,
                "T": T,
                "mode": mode,
                "region": region if region is not None else dec.region_of(x_init),
                "run": run_idx,
                "x_init": x_init,
                "true_path": true_path,
                "observations": format_directions(obs),
                "decoded_path": decoded,
                "log_prob": logp,
                "final_error": rep.final_error,
                "trajectory_error": rep.trajectory_error,
            })
        f_stats = _summarize(finals)
        t_stats = _summarize(trajs)
        summary.append({
            "condition": cond_idx,
            "T": T,
            "mode": mode,
            "region": region or "",
            "runs": cfg.runs,
            "final_mean": f_stats[0], "final_median": f_stats[1],
            "final_std": f_stats[2], "final_min": f_stats[3],
            "final_max": f_stats[4],
            "traj_mean": t_stats[0], "traj_median": t_stats[1],
            "traj_std": t_stats[2], "traj_min": t_stats[3],
            "traj_max": t_stats[4],
        })

    return ExperimentResult(
        config=cfg, summary=summary, runs=run_records, decomposition=dec
    )
