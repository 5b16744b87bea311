"""driftloc benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Requests go through ``driftloc.cli.main`` exactly as a
user's commands would, one after another (the next is sent only when the
previous returned).  Every output is checked; a wrong output or an exception
counts as a failed operation.

``--trace 0`` repeats the workload's request cycle for ``--seconds`` and
reports the end-to-end metrics, with request times rescaled by a fixed
kernel timed between requests in a child process (``calibrate.py``), so that
the host's drifting speed cancels out.  ``--trace 1`` runs one cycle twice,
untraced and with spans around every call into the program's layers, then
one request with per-layer peak-allocation tracing, and reports the
per-layer metrics.
The last line of standard output is the result as JSON; the line before it
records the environment and the exact work done.  README.md beside this file
says why each workload exists and which layer metric moves which end-to-end
metric.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"  # scratch inputs (removed) and span dumps (kept)
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 15
IMPORT_PROBE = ("import time; t = time.perf_counter(); import driftloc; "
                "print(time.perf_counter() - t)")
MIB = 1024 * 1024
CAL_WARMUP = 2  # calibration probes discarded before the first request

END_TO_END = {"setup_s": "s", "s_per_op": "s", "peak_rss_mb": "MiB"}
# Each workload's headline figure, printed in the report beside s_per_op.
HEADLINE = {
    "protocol_fixture": "protocol_runs_per_s",
    "localize_mid": "localize_s_p50",
    "classify_large": "classify_s_p50",
}
# Each workload's calibrate.py kernel, and the kernel's median seconds over
# five runs of the workload on the machine whose speed s_per_op is expressed
# in (an Intel Xeon with 2 vCPUs, Python 3.11, numpy 2.4).
CALIBRATION = {
    "protocol_fixture": ("small", 0.0485),
    "localize_mid": ("dense", 0.0625),
    "classify_large": ("gather", 0.0648),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(HEADLINE))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Sends requests, times them, checks their outputs and counts failures."""

    def __init__(self, cli, check_error, reference: dict | None):
        self.cli = cli
        self.check_error = check_error
        self.reference = reference  # key -> digest, or None when not checked
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def send(self, req, tracer=None) -> float:
        """Run one request; returns its wall seconds."""
        for p in req.outputs:
            p.unlink(missing_ok=True)
        sink = io.StringIO()
        span = tracer.span(f"cli.{req.command}") if tracer else contextlib.nullcontext()
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                with span:
                    rc = self.cli.main(list(req.argv))
            except (Exception, SystemExit) as exc:
                rc, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        self.attempted += 1
        if rc != 0:
            error = error or f"exit status {rc}: {sink.getvalue().strip()[-300:]}"
        else:
            error = self._check(req)
        if error:
            self.failed += 1
            print(f"FAILED {req.key}: {error}", file=sys.stderr)
        return seconds

    def _check(self, req) -> str | None:
        try:
            blobs = [p.read_bytes() for p in req.outputs]
            req.check(blobs)
        except (OSError, ValueError, KeyError, TypeError, self.check_error) as exc:
            return f"{type(exc).__name__}: {exc}"
        # Experiment reports name the field by absolute path; the digest must
        # not depend on where the checkout lives.
        digest = hashlib.sha256(
            b"\0".join(b.replace(os.fsencode(ROOT), b"<root>") for b in blobs)
        ).hexdigest()
        first = self.digests.setdefault(req.key, digest)
        if digest != first:
            return "output differs from an earlier repeat in this run"
        if self.reference is not None and self.reference.get(req.key) != digest:
            return f"output differs from the recorded reference for seed {REFERENCE_SEED}"
        return None


def seconds_per_op(samples) -> float:
    """Seconds per operation over one cycle, each request at its mean.

    Taking each request's mean over its repeats first keeps the figure
    independent of how many times each request fitted into the run.  The
    mean, not the median: the host's speed changes from second to second, so
    every repeat carries information, and the mean over a run was the steadier
    of the two across runs.
    """
    by_key: dict[str, list[float]] = {}
    ops: dict[str, int] = {}
    for key, seconds, n in samples:
        by_key.setdefault(key, []).append(seconds)
        ops[key] = n
    return sum(statistics.fmean(v) for v in by_key.values()) / sum(ops.values())


def tail(seconds: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(seconds)
    if n < 11:
        return None
    return {"pct": 100.0 * (n - 10) / n, "s": sorted(seconds)[n - 11], "n": n}


class Calibrator:
    """The calibrate.py child process: times a fixed kernel on request."""

    def __init__(self, kernel: str):
        self.kernel = kernel

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py"), self.kernel],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process ended early")
        return float(line)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def timed_run(wl, runner, seconds: float, calibration) -> tuple[dict, dict]:
    kernel, ref_s = calibration
    samples = []  # (request key, wall seconds, operations)
    scaled = []  # (request key, seconds at the reference machine speed, operations)
    steps = 0
    start = time.perf_counter()
    with Calibrator(kernel) as calibrate:
        for _ in range(CAL_WARMUP):
            calibrate()
        # Untimed warm-up inside the budget: first-call costs are paid once
        # per user process, not per request.  Its output is still checked.
        runner.send(min(wl.requests, key=lambda r: r.ops))
        cal = [calibrate()]
        i = 0
        while i < len(wl.requests) or time.perf_counter() - start < seconds:
            req = wl.requests[i % len(wl.requests)]
            wall = runner.send(req)
            cal.append(calibrate())
            samples.append((req.key, wall, req.ops))
            scaled.append((req.key, wall * ref_s / statistics.fmean(cal[-2:]),
                           req.ops))
            steps += sum(req.steps)
            i += 1
    request_s = [s for _, s, _ in samples]
    metrics = {
        "s_per_op": seconds_per_op(scaled),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    work = {
        "requests": len(samples),
        "operations": sum(ops for _, _, ops in samples),
        "wall_s_per_op": seconds_per_op(samples),
        "calibration": {"kernel": kernel, "reference_s": ref_s, "s": cal},
        "request_s": [round(s, 6) for s in request_s],
        "request_s_p50": statistics.median(request_s),
        "tail": tail(request_s),
        "state_steps": steps * wl.n_states,
    }
    return metrics, work


def _layer_metrics(summary: dict, peaks: dict, n_states: int, nnz: int) -> dict:
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    m = {}
    for name in ("hmm.viterbi", "hmm.HmmModel", "gcm.build_stochastic_map"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("hmm.viterbi", "hmm.HmmModel", "hmm.emission_matrix",
                 "flowfield.build_cell_map", "gcm.build_stochastic_map",
                 "gcm.decompose", "gcm.strongly_connected_components",
                 "gcm.reachability", "gcm.find_persistent_groups",
                 "gcm.find_transient_groups", "ingest.load_field",
                 "sim.sample_trajectory", "sim.error_report"):
        m[f"{name}.s"] = get(name, "s")
    for name in ("hmm.viterbi", "gcm.decompose", "sim.run_experiment",
                 "cli.classify", "cli.localize", "cli.experiment"):
        m[f"{name}.self_s"] = get(name, "self_s")
    state_steps = get("hmm.viterbi", "T") * n_states
    m["hmm.viterbi.state_steps"] = state_steps
    m["hmm.viterbi.ns_per_state_step"] = (
        1e9 * m["hmm.viterbi.s"] / state_steps if state_steps else 0.0
    )
    m["hmm.viterbi.infeasible"] = (
        summary.get("hmm.viterbi", {}).get("errors", {}).get("ZeroProbabilityError", 0)
    )
    chains = m["gcm.build_stochastic_map.calls"]
    m["hmm.models_per_chain"] = m["hmm.HmmModel.calls"] / chains if chains else 0.0
    m["gcm.nnz"] = nnz
    load_s = m["ingest.load_field.s"]
    m["ingest.load_field.mb_per_s"] = (
        get("ingest.load_field", "bytes") / 1e6 / load_s if load_s else 0.0
    )
    for name in ("gcm.decompose", "hmm.HmmModel", "hmm.viterbi"):
        m[f"{name}.peak_mb"] = peaks.get(name, 0) / MIB
    return m


LAYER_UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "state_steps": "count",
    "ns_per_state_step": "ns", "infeasible": "count", "models_per_chain": "count",
    "nnz": "count", "mb_per_s": "MB/s", "peak_mb": "MiB",
    "untraced_s": "s", "traced_s": "s", "overhead_pct": "%",
}


def traced_run(wl, runner, spans_mod, spans_file: Path, nnz: int) -> tuple[dict, dict]:
    cycle = wl.requests
    tracer = spans_mod.Tracer()
    untraced_s = traced_s = 0.0
    # Each request runs untraced and traced back to back, in alternating
    # order, so that drifting machine load and warm-up fall on both sides.
    for i, req in enumerate(cycle):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                with spans_mod.patched(spans_mod.TRACED, tracer.wrap) as present:
                    tracer.request = i
                    traced_s += runner.send(req, tracer)
            else:
                untraced_s += runner.send(req)

    peaks: dict[str, int] = {}
    peak_req = min(cycle, key=lambda r: r.ops)
    with spans_mod.patched(spans_mod.PEAK_TRACED, spans_mod.peak_wrapper(peaks)):
        runner.send(peak_req)

    summary = tracer.summary()
    metrics = _layer_metrics(summary, peaks, wl.n_states, nnz)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s

    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.write_text(json.dumps(tracer.spans))
    work = {
        "requests_per_pass": len(cycle),
        "peak_request": peak_req.key,
        "absent": sorted(set(spans_mod.TRACED) - set(present)),
        "not_called": sorted(set(present) - set(summary)),
        "self_s_ranking": sorted(
            ((name, round(agg["self_s"], 4)) for name, agg in summary.items()),
            key=lambda kv: -kv[1],
        ),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, work


def import_seconds(src: Path) -> float:
    """Seconds a fresh interpreter takes to import the program."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120,
    )
    return float(out.stdout)


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "driftloc" / "__init__.py").is_file():
        print(f"error: no driftloc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans as spans_mod
    import workloads
    from driftloc import cli

    import_s = [import_seconds(src) for _ in range(SETUP_REPEATS)]

    work_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    make = workloads.WORKLOADS[args.workload]
    reference = None
    if args.seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    try:
        gen_s = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir(parents=True)
            start = time.perf_counter()
            wl = make(ROOT, work_dir, args.seed)
            gen_s.append(time.perf_counter() - start)
        setup_s = statistics.median(import_s) + statistics.median(gen_s)

        runner = Runner(cli, workloads.CheckError, reference)
        if args.trace:
            spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            nnz = workloads.chain_nnz(wl)
            metrics, work = traced_run(wl, runner, spans_mod, spans_file, nnz)
            units = {k: LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
        else:
            metrics, work = timed_run(wl, runner, args.seconds,
                                      CALIBRATION[args.workload])
            metrics["setup_s"] = setup_s
            nnz = workloads.chain_nnz(wl)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "reference_checked": reference is not None,
        "digests": dict(sorted(runner.digests.items())),
        "setup": {"import_s": import_s, "generate_s": gen_s},
        "n_states": wl.n_states,
        "nnz": nnz,
        "T_mix": sorted({T for r in wl.requests for T in r.steps}),
        "cycle": [r.key for r in wl.requests],
        "runs_per_cycle": sum(r.ops for r in wl.requests),
        "environment": environment(),
        **work,
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{runner.attempted} requests, {runner.failed} failed")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    if not args.trace:
        cal = work["calibration"]
        print(f"  {'wall_s_per_op':<40} {work['wall_s_per_op']:>14.6g} s  "
              f"({cal['kernel']} kernel median {statistics.median(cal['s']):.4g} s"
              f" against {cal['reference_s']} s)")
        name = HEADLINE[args.workload]
        value, unit = (
            (1.0 / work["wall_s_per_op"], "1/s") if name.endswith("_per_s")
            else (work["request_s_p50"], "s")
        )
        print(f"  {name:<40} {value:>14.6g} {unit}  (over {work['requests']} "
              f"requests; tail {work['tail']})")
    print(json.dumps(info))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
