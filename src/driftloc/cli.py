"""Command-line driver: classify a field, localize a drifter, run experiments.

    driftloc classify   --field F [--r R]            -> decomposition JSON
    driftloc localize   --field F --x0 Z --obs FILE  -> trajectory JSON
    driftloc experiment --config CFG --out-dir DIR   -> summary CSV + runs JSON

Every command is deterministic given its inputs and seed.  The log level is
the level name in DRIFTLOC_LOG_LEVEL, in any case (default WARNING).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .errors import ConfigError, DriftlocError, FieldParseError, ZeroProbabilityError
from .flowfield import build_cell_map
from .gcm import build_stochastic_map, decompose
from .gridworld import parse_directions
from .hmm import HmmModel, emission_matrix, initial_distribution, viterbi
from .ingest import SyntheticFieldSpec, load_field, synthesize_field
from .sim import ExperimentConfig, run_experiment

log = logging.getLogger("driftloc")

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


def _resolve_field(args):
    if args.field is not None:
        return load_field(args.field)
    spec = SyntheticFieldSpec(
        kind=args.synthetic, amplitude=args.amplitude, decay=args.decay,
        u=args.u, v=args.v,
    )
    return synthesize_field(spec, args.rows, args.cols)


def _build_chain(args):
    w, field = _resolve_field(args)
    cm = build_cell_map(field, dt=args.dt)
    smap = build_stochastic_map(cm, args.r)
    return w, smap


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    w, smap = _build_chain(args)
    dec = decompose(smap)
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
    w, smap = _build_chain(args)
    obs = parse_directions(Path(args.obs).read_text())
    if not obs:
        raise DriftlocError(f"observation file {args.obs} is empty")
    pi = initial_distribution(w, args.x0, args.pi)
    model = HmmModel(P=smap, Q=emission_matrix(smap), pi=pi)
    cells, logp = viterbi(model, obs)
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
    cfg = ExperimentConfig.from_dict(raw)
    if args.seed is not None:
        cfg.base_seed = args.seed

    # A field path is relative to the config file; the report keeps it as given.
    field = cfg.field
    result = run_experiment(
        cfg, load_field(cfg_path.parent / field["path"]) if "path" in field else None
    )

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


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "pi", None) is not None and args.command == "localize":
        args.pi = {"det": "deterministic", "prob": "probabilistic"}[args.pi]
    try:
        name = os.environ.get("DRIFTLOC_LOG_LEVEL", "WARNING")
        level = logging.getLevelName(name.upper())
        if not isinstance(level, int):
            raise DriftlocError(f"DRIFTLOC_LOG_LEVEL: unknown log level {name!r}")
        logging.basicConfig(level=level)
        return args.func(args)
    except ZeroProbabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DriftlocError, FieldParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
