"""A fixed machine-speed probe, run as a child process of run.py.

    python3 perfbench/calibrate.py {small|dense|gather}

Each line read from standard input runs the named kernel three times and
prints the median of their wall seconds; end of input ends the process.  The
kernels never touch driftloc, so their times move with the machine (a busy
host, a contended memory system) and not with the program.  Each uses the
machine the way one workload's hot loop does, because a slowdown of the host
hits cache-resident, streaming and cache-missing code by different amounts:

- ``small``: short dense Viterbi steps at the fixture's 609 states, whose
  arrays stay in cache, as in the many short decodes of ``protocol_fixture``.
- ``dense``: a fresh 2 436 x 2 436 float temporary reduced along rows, one
  dense Viterbi step of ``localize_mid``.
- ``gather``: random reads from a 200 MB array, like the row and bitset
  traffic over the closure of ``classify_large``.

The probe runs in its own process so that its memory never shows in the
benchmark's ``peak_rss_mb``.
"""

import statistics
import sys
import time

import numpy as np

REPEATS = 3


def small_kernel():
    n = 609
    log_p = np.full((n, n), -0.5)
    best = np.zeros(n)

    def run():
        for _ in range(60):
            (log_p + best[None, :]).max(axis=1)

    return run


def dense_kernel():
    n = 2436
    log_p = np.full((n, n), -0.5)
    best = np.zeros(n)

    def run():
        for _ in range(2):
            (log_p + best[None, :]).max(axis=1)

    return run


def gather_kernel():
    rng = np.random.default_rng(0)
    table = np.arange(25_000_000, dtype=np.int64)
    index = rng.integers(0, len(table), size=3_000_000)

    def run():
        table[index].sum()

    return run


KERNELS = {"small": small_kernel, "dense": dense_kernel, "gather": gather_kernel}


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in KERNELS:
        print(f"usage: calibrate.py {{{'|'.join(KERNELS)}}}", file=sys.stderr)
        return 2
    kernel = KERNELS[argv[0]]()
    kernel()  # first-touch costs of the kernel's arrays stay out of the probes

    def seconds() -> float:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start

    for _ in sys.stdin:
        print(repr(statistics.median(seconds() for _ in range(REPEATS))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
