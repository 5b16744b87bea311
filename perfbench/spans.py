"""Spans around calls into driftloc's public functions, recorded from outside.

The benchmark never edits the program.  A traced pass swaps each name in
``TRACED`` for a wrapper in every ``driftloc`` module namespace that binds it
(``cli``, ``sim`` and ``gcm`` call each other through such bindings), so a
call from ``cli.cmd_classify`` to ``decompose`` or from ``gcm.decompose`` to
``reachability`` opens a span.  A name the program no longer has is reported
as absent; its metrics read 0.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "driftloc"

# "<module>.<name>" of every public callable a traced pass times.
TRACED = (
    "ingest.load_field",
    "flowfield.build_cell_map",
    "gcm.build_stochastic_map",
    "gcm.decompose",
    "gcm.strongly_connected_components",
    "gcm.reachability",
    "gcm.find_persistent_groups",
    "gcm.find_transient_groups",
    "hmm.emission_matrix",
    "hmm.HmmModel",
    "hmm.viterbi",
    "sim.run_experiment",
    "sim.sample_trajectory",
    "sim.error_report",
)

# Layers whose peak allocation is measured, in a pass of its own: tracemalloc
# slows Python-heavy code several-fold, so it never runs in a timed pass.
PEAK_TRACED = ("gcm.decompose", "hmm.HmmModel", "hmm.viterbi")


def _decoded_steps(args, kwargs, result) -> dict:
    return {"T": len(result[0]) - 1}


def _file_bytes(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Work counts read off a call's arguments or result after its span has ended.
OBSERVERS = {"hmm.viterbi": _decoded_steps, "ingest.load_field": _file_bytes}


@contextmanager
def patched(names, make_wrapper):
    """Bind ``make_wrapper(name, original)`` in place of each present name.

    Yields the names found; every binding is restored on exit.
    """
    modules = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
    saved = []
    present = []
    try:
        for qual in names:
            layer, attr = qual.split(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            original = getattr(home, attr, None)
            if not callable(original):
                continue
            wrapper = make_wrapper(qual, original)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    saved.append((m, attr, original))
                    setattr(m, attr, wrapper)
            present.append(qual)
        yield present
    finally:
        for m, attr, original in reversed(saved):
            setattr(m, attr, original)


class Tracer:
    """In-memory spans: name, start, end, parent index, request id, error."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.request = -1

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._open[-1] if self._open else -1,
            "request": self.request, "error": None,
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if observe is not None:
                try:
                    rec.update(observe(args, kwargs, result))
                except (TypeError, IndexError, KeyError, OSError):
                    pass  # the signature moved: the count is left out
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive s, self_s, errors and counts.

        Self time is a span's duration minus the durations of its children
        (calls are single-threaded, so children never overlap).
        """
        child_s = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] >= 0:
                child_s[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, dict] = {}
        for i, rec in enumerate(self.spans):
            agg = out.setdefault(rec["name"], {
                "calls": 0, "s": 0.0, "self_s": 0.0, "errors": {},
                "T": 0, "bytes": 0,
            })
            dur = rec["end"] - rec["start"]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child_s[i]
            if rec["error"]:
                agg["errors"][rec["error"]] = agg["errors"].get(rec["error"], 0) + 1
            agg["T"] += rec.get("T", 0)
            agg["bytes"] += rec.get("bytes", 0)
        return out


def peak_wrapper(peaks: dict[str, int]):
    """Wrapper factory recording each call's peak traced allocation in bytes.

    Tracing starts at the call and stops at its return, so a measured call
    never shares a peak with its caller or with a sibling.
    """

    def make(name, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0), peak)

        return measured

    return make
