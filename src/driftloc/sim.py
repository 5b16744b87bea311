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
start-cell draw (if randomized), initial-state draw, one draw per step, then
the noise draws (if obs_noise > 0).

An experiment draws the start cells of a condition's runs first, then samples
and decodes them in lockstep groups of about 8 192 states in all (13 runs on
the 609-state fixture): one array step of ``sample_runs`` and one of
``viterbi_runs`` serve every run of a group.  Sampling a group costs O(T)
array calls over R x 9 cumulative probabilities, plus R initial-state draws
and R T noise draws in Python when obs_noise > 0.  Decoding it costs
O(sum_t |D_t| * W) over the runs' summed feasible sets D_t, W being the most
live slots of any chain row (6 on the fixture; see ``hmm``).  The errors and
observation strings of a group come from a few array calls over its
(R, T + 1) paths and (R, T) symbols.  The trajectory error adds a run's step
distances left to right, so a report does not depend on how a Python
version's ``sum()`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ZeroProbabilityError
from .flowfield import build_cell_map
from .gcm import (
    SLOT_DIRECTIONS,
    FlowDecomposition,
    StochasticCellMap,
    build_stochastic_map,
    decompose,
)
from .gridworld import N_DIRECTIONS, Workspace, cell_distances, format_histories
from .hmm import HmmModel, initial_distribution, viterbi_runs
from .ingest import SyntheticFieldSpec, resolve_field
from .report import report_json

MODES = ("deterministic", "probabilistic")

# The compass symbol of each chain slot, as an index array.
_SLOT_SYMBOLS = np.array(SLOT_DIRECTIONS, dtype=np.int64)

# An experiment samples and decodes its runs in groups of about this many
# states in all.  A group's per-step arrays hold R n entries and its feasible
# sets grow with R.  On the fixture at T = 100, one group of all 50 runs was
# no faster than groups of 13 and peaked at 7.8 MiB of traced memory against
# 3.5 MiB; groups of 6 (4096 states) were about 15% slower.
_GROUP_STATES = 8192


def _is_a(x, *types) -> bool:
    """``isinstance(x, types)``, except that a bool is no int."""
    return isinstance(x, types) and not isinstance(x, bool)


def _is_list(x, *types) -> bool:
    return isinstance(x, (list, tuple)) and all(_is_a(v, *types) for v in x)


def _check_synthetic(synth: dict) -> None:
    """Raise a ConfigError naming the key of a synthetic field source that
    ``ingest.resolve_field`` cannot build from."""
    numbers = [f.name for f in fields(SyntheticFieldSpec) if f.name != "kind"]
    unknown = set(synth) - {"kind", "rows", "cols", *numbers}
    if unknown:
        raise ConfigError(f"unknown field.synthetic keys: {sorted(unknown)}")
    for key, ok, what in (
        ("kind", synth.get("kind") in SyntheticFieldSpec.KINDS,
         f"one of {SyntheticFieldSpec.KINDS}"),
        ("rows", _is_a(synth.get("rows"), int), "an integer"),
        ("cols", _is_a(synth.get("cols"), int), "an integer"),
        *((key, _is_a(synth.get(key, 0.0), int, float), "a number") for key in numbers),
    ):
        if not ok:
            raise ConfigError(
                f"field.synthetic.{key} must be {what}, got {synth.get(key)!r}"
            )


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
    R runs and 9 slots.
    """
    if T < 1:
        raise ValueError("trajectory length T must be >= 1")
    if len(pis) != len(rngs):
        raise ValueError(f"{len(pis)} initial distributions but {len(rngs)} generators")
    # Slots off A(z) add 0.0, so they never end the search; a draw past the
    # row's rounded total falls back to its last live slot.
    cum = np.cumsum(P.probs, axis=1)
    last_live = P.targets.shape[1] - 1 - np.argmax(P.targets[:, ::-1] >= 0, axis=1)

    R = len(rngs)
    states = np.empty((R, T + 1), dtype=np.int64)
    u = np.empty((R, T))
    for r, (pi, rng) in enumerate(zip(pis, rngs)):
        states[r, 0] = rng.choice(len(pi), p=pi)
        u[r] = rng.random(T)
    slots = np.empty((R, T), dtype=np.int64)
    for t in range(T):
        s = states[:, t]
        # The count of a row's cumulative totals <= u is searchsorted(side="right").
        k = np.minimum((cum[s] <= u[:, t, None]).sum(axis=1), last_live[s])
        slots[:, t] = k
        states[:, t + 1] = P.targets[s, k]

    obs = _SLOT_SYMBOLS[slots]
    if obs_noise > 0.0:
        for r, rng in enumerate(rngs):
            for t in range(T):
                if rng.random() < obs_noise:
                    obs[r, t] = (obs[r, t] + 1 + rng.integers(N_DIRECTIONS - 1)) % N_DIRECTIONS
    return P.workspace.free_cells[states], obs


def error_reports(true_paths, decoded_paths, w: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Final-location and whole-trajectory errors of R runs, in cell units,
    from (R, T + 1) true and decoded paths.

    The trajectory error adds each run's step distances left to right, so it
    does not depend on the summation order of any one library or Python
    version.
    """
    true_paths, decoded_paths = np.asarray(true_paths), np.asarray(decoded_paths)
    if true_paths.shape != decoded_paths.shape:
        raise ValueError(
            f"path lengths differ: {true_paths.shape[-1]} vs {decoded_paths.shape[-1]}"
        )
    steps = cell_distances(w, true_paths[:, 1:], decoded_paths[:, 1:])
    if not steps.shape[1]:  # paths of one cell
        return np.zeros(len(steps)), np.zeros(len(steps))
    return steps[:, -1], steps.cumsum(axis=1)[:, -1]


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
        if "synthetic" in field:
            _check_synthetic(field["synthetic"])
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
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
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
        return report_json(payload) + "\n"

    def write(self, csv_path, json_path) -> None:
        with open(csv_path, "w") as f:
            f.write(self.to_csv())
        with open(json_path, "w") as f:
            f.write(self.to_json())


def _summarize(values: list[float]) -> tuple[float, float, float, float, float]:
    a = np.asarray(values)
    # The median as the middle of the sorted values: np.median imports
    # numpy.ma for its NaN check.
    median = np.sort(a)[(len(a) - 1) // 2:len(a) // 2 + 1].mean()
    return tuple(float(x) for x in (a.mean(), median, a.std(), a.min(), a.max()))


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
    model = None  # built once per chain; each run brings its own prior
    group = max(1, _GROUP_STATES // smap.n_states)
    for cond_idx, (mode, T, region) in enumerate(conditions):
        pool = dec.region_cells(region) if region is not None else w.free_cells
        starts, rngs = [], []
        for run_idx in range(cfg.runs):
            seed = np.random.SeedSequence((cfg.base_seed, cond_idx, run_idx))
            rng = np.random.default_rng(seed)
            if isinstance(cfg.initial, int) and region is None:
                x_init = cfg.initial
            else:
                x_init = int(pool[rng.integers(len(pool))])
            starts.append(x_init)
            rngs.append(rng)

        finals, trajs = [], []
        for lo in range(0, cfg.runs, group):
            runs = range(lo, min(lo + group, cfg.runs))
            priors = [initial_distribution(w, starts[i], mode) for i in runs]
            if model is None:
                model = HmmModel(P=smap, pi=priors[0])
            true_paths, histories = sample_runs(
                smap, priors, T, rngs[lo:runs.stop], cfg.obs_noise
            )
            try:
                decodes = viterbi_runs(model, priors, histories)
            except ZeroProbabilityError as exc:
                run_idx = lo + exc.run
                run_region = region if region is not None else dec.region_of(starts[run_idx])
                raise ZeroProbabilityError(
                    exc.step,
                    f"condition {cond_idx} (T={T}, mode {mode}, region {run_region}), "
                    f"run {run_idx}: {exc}",
                    run=run_idx,
                ) from None
            group_finals, group_trajs = (
                errors.tolist()
                for errors in error_reports(true_paths, [d for d, _ in decodes], w)
            )
            finals += group_finals
            trajs += group_trajs
            for run_idx, true_path, obs, (decoded, logp), final, traj in zip(
                runs, true_paths.tolist(), format_histories(histories), decodes,
                group_finals, group_trajs,
            ):
                x_init = starts[run_idx]
                run_records.append({
                    "condition": cond_idx,
                    "T": T,
                    "mode": mode,
                    "region": region if region is not None else dec.region_of(x_init),
                    "run": run_idx,
                    "x_init": x_init,
                    "true_path": true_path,
                    "observations": obs,
                    "decoded_path": decoded,
                    "log_prob": logp,
                    "final_error": final,
                    "trajectory_error": traj,
                })
        summary.append(dict(zip(SUMMARY_COLUMNS, (
            cond_idx, T, mode, region or "", cfg.runs,
            *_summarize(finals), *_summarize(trajs),
        ))))

    return ExperimentResult(
        config=cfg, summary=summary, runs=run_records, decomposition=dec
    )
