"""Count threaded-BLAS stalls in fresh processes that build standard SQMs.

Starts ``--processes`` pairs of fresh Python processes, one process at a
time, alternating: one at the default BLAS thread count (the environment
without ``OPENBLAS_NUM_THREADS``), one with ``OPENBLAS_NUM_THREADS=1`` set
in its own environment only.  Each process times ``import numpy`` and the
builds of ``standard_sqm(9)`` and ``standard_sqm(10)`` with
``time.perf_counter`` and prints them.  The script prints one JSON object:
each process's times in milliseconds, in start order, and per thread
setting the number of stalled processes, those whose D = 10 build took more
than ``STALL_FACTOR`` times the median D = 10 build of the one-thread
processes.

    python scripts/blas_stall_probe.py --processes 10
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
STALL_FACTOR = 3.0
MAX_PROCESSES = 50
SETTINGS = ("default", "1")

# Run as ``python -c CHILD SRC``: one line of JSON with the child's times.
CHILD = """
import json, os, sys, time
t0 = time.perf_counter()
import numpy
times = {"import_numpy_ms": 1e3 * (time.perf_counter() - t0)}
sys.path.insert(0, sys.argv[1])
from qbayes import effects
for dim in (9, 10):
    t0 = time.perf_counter()
    effects.standard_sqm(dim)
    times[f"sqm_{dim}_ms"] = 1e3 * (time.perf_counter() - t0)
times["openblas_num_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
print(json.dumps(times))
"""


def run_child(threads: str) -> dict:
    """Times of one fresh process; ``threads`` is "default" or a thread count."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads != "default":
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC)], env=env, capture_output=True, text=True, check=True
    ).stdout
    return {"threads": threads, **json.loads(out)}


def probe(processes: int) -> dict:
    runs = [run_child(threads) for _ in range(processes) for threads in SETTINGS]
    single = statistics.median(r["sqm_10_ms"] for r in runs if r["threads"] == "1")
    for r in runs:
        r["stalled"] = r["sqm_10_ms"] > STALL_FACTOR * single
    return {
        "processes": processes,
        "stall_factor": STALL_FACTOR,
        "runs": runs,
        "stalls": {t: sum(r["stalled"] for r in runs if r["threads"] == t) for t in SETTINGS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--processes", type=int, default=10, help="processes per thread setting")
    args = parser.parse_args(argv)
    if not 1 <= args.processes <= MAX_PROCESSES:
        parser.error(f"--processes must lie between 1 and {MAX_PROCESSES}")
    print(json.dumps(probe(args.processes), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
