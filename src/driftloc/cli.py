"""Command-line driver: classify a field, localize a drifter, run experiments.

    driftloc classify   --field F [--r R]            -> decomposition JSON
    driftloc localize   --field F --x0 Z --obs FILE  -> trajectory JSON
    driftloc experiment --config CFG --out-dir DIR   -> summary CSV + runs JSON

Every command is deterministic given its inputs and seed.

``main`` may be called repeatedly in one process: the parser is built once,
on the first call, and each call parses its own arguments into a fresh
namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import ConfigError, DriftlocError, ZeroProbabilityError
from .flowfield import build_cell_map
from .gcm import build_stochastic_map, decompose
from .gridworld import parse_directions
from .hmm import initial_distribution, viterbi
from .ingest import SyntheticFieldSpec, resolve_field
from .report import report_json
from .sim import ExperimentConfig, run_experiment

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _add_field_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--field", metavar="PATH", help="field file to load")
    src.add_argument(
        "--synthetic", metavar="KIND", choices=SyntheticFieldSpec.KINDS,
        help="generate a synthetic field instead of loading one",
    )
    p.add_argument("--rows", type=int, default=21, help="synthetic grid rows")
    p.add_argument("--cols", type=int, default=29, help="synthetic grid cols")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--decay", type=float, default=0.0,
                   help="inward spiral strength of gyre kinds")
    p.add_argument("--u", type=float, default=0.0, help="uniform-kind u")
    p.add_argument("--v", type=float, default=0.0, help="uniform-kind v")
    p.add_argument("--r", type=float, default=0.9,
                   help="perfect-motion probability in (0, 1]")
    p.add_argument("--dt", type=float, default=None,
                   help="Euler step; default: one cell at peak speed")


def _build_chain(args):
    # The field flags as the field source of a config.
    if args.field is not None:
        source = {"path": args.field}
    else:
        keys = ("rows", "cols", "amplitude", "decay", "u", "v")
        source = {"synthetic": {"kind": args.synthetic, **{k: getattr(args, k) for k in keys}}}
    _, field = resolve_field(source)
    cm = build_cell_map(field, dt=args.dt)
    del field  # the cell map holds what the chain reads
    return build_stochastic_map(cm, args.r)


def _emit(payload: dict, out: str | None) -> None:
    text = report_json(payload) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    dec = decompose(_build_chain(args))
    payload = dec.to_dict()
    print(
        f"{payload['n_persistent_groups']} persistent group(s), "
        f"{payload['n_transient_groups']} transient group(s) over "
        f"{payload['n_free']} water cells"
    )
    for g in payload["persistent_groups"]:
        print(f"  {g['label']}: {g['size']} cells")
    for g in payload["transient_groups"]:
        print(f"  {g['label']}: {g['size']} cells")
    _emit(payload, args.out)
    return EXIT_OK


def cmd_localize(args) -> int:
    smap = _build_chain(args)
    obs = parse_directions(Path(args.obs).read_text())
    if not obs:
        raise DriftlocError(f"observation file {args.obs} is empty")
    mode = {"det": "deterministic", "prob": "probabilistic"}[args.pi]
    pi = initial_distribution(smap.workspace, args.x0, mode)
    cells, logp = viterbi(smap, pi, obs)
    payload = {"path": cells, "final": cells[-1], "log_prob": logp}
    print(f"decoded {len(obs)} observations; final cell {cells[-1]}, "
          f"log probability {logp:.6f}")
    _emit(payload, args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg_path = Path(args.config)
    try:
        raw = json.loads(cfg_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {cfg_path}: {exc}") from None
    if args.seed is not None and isinstance(raw, dict):
        raw["base_seed"] = args.seed  # validated with the rest, before the field loads
    cfg = ExperimentConfig.from_dict(raw)

    # A field path is relative to the config file; the report keeps it as given.
    result = run_experiment(cfg, cfg_path.parent)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = cfg_path.stem
    csv_path = out_dir / f"{stem}.summary.csv"
    json_path = out_dir / f"{stem}.runs.json"
    result.write(csv_path, json_path)

    print(f"wrote {csv_path} and {json_path}")
    header = ("condition", "T", "mode", "region", "final_mean", "traj_mean")
    print("  ".join(f"{h:>12}" for h in header))
    for row in result.summary:
        print("  ".join(
            f"{row[h]:>12.4f}" if isinstance(row[h], float) else f"{str(row[h]):>12}"
            for h in header
        ))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="driftloc",
        description="Drifter localization in gridded current fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decompose a field into attractors "
                       "and transient groups")
    _add_field_args(p)
    p.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("localize", help="decode a trajectory from a compass "
                       "observation file")
    _add_field_args(p)
    p.add_argument("--x0", type=int, required=True, help="deployment cell index")
    p.add_argument("--pi", choices=("det", "prob"), default="det",
                   help="initial distribution: known cell or cell+neighbors")
    p.add_argument("--obs", required=True, metavar="PATH",
                   help="observation file (symbols N NE E SE S SW W NW I)")
    p.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("experiment", help="run a Monte-Carlo error experiment "
                       "from a config file")
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's base seed")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ZeroProbabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DriftlocError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:  # numpy's names the allocation that failed
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
