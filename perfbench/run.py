"""qbayes benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {suite,tomography,cli-cold} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a traced pass.  See
README.md in this directory.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3

# Per-layer metrics of a traced run.  A name ending in ``.calls`` or
# ``.self_s`` reads that field of the span of the same stem, unless the
# tracer keeps it as a counter (``linalg.hs_inner.calls``,
# ``states.in_sqm_set.rejects``); a ``cli.section.*.wall_s`` reads the
# summed duration of the benchmark's section spans.
PER_LAYER = (
    "import.qbayes_s",
    "import.scipy_optimize_s",
    "effects.gram_renormalize.calls",
    "effects.gram_renormalize.self_s",
    "effects.element_gram_min_singular_value.self_s",
    "effects.born.calls",
    "effects.born.self_s",
    "effects.reconstruct_from_frame.self_s",
    "effects.FrameFunction.from_state.self_s",
    "states.to_sqm.self_s",
    "states.from_sqm.calls",
    "states.from_sqm.self_s",
    "states.in_sqm_set.self_s",
    "states.in_sqm_set.rejects",
    "locality.reconstruct_joint_operator.calls",
    "locality.reconstruct_joint_operator.self_s",
    "locality.swap_counterexample.self_s",
    "locality.real_span_analysis.self_s",
    "linalg.hs_inner.calls",
    "linalg.trace_distance.calls",
    "linalg.trace_distance.self_s",
    "linalg.mat_sqrt.self_s",
    "linalg.eig_hermitian.calls",
    "update.factor_update.calls",
    "update.factor_update.self_s",
    "update.teleport.self_s",
    "entropy.subentropy.calls",
    "entropy.subentropy.self_s",
    "entropy.mean_entropy_mc.self_s",
    "entropy.check_refinement_inequalities.self_s",
    "definetti.merging_experiment.calls",
    "definetti.merging_experiment.self_s",
    "definetti.definetti_mix.self_s",
    "definetti.check_exchangeable.self_s",
    "definetti.real_counterexample.self_s",
    *(
        f"cli.section.{name}.wall_s"
        for name in (
            "sqm-build",
            "gleason-roundtrip",
            "certainty-bound",
            "teleport",
            "update-factor",
            "entropy-sweep",
            "locality-reconstruct",
            "swap-counterexample",
            "definetti-merge",
            "real-counterexample",
        )
    ),
    "trace.overhead_s",
    "machine.ref_kernel_s",
)


def unit_of(metric: str) -> str:
    return "count" if metric.endswith((".calls", ".rejects")) else "s"


def layer_value(name: str, special: dict, counters: dict, summary: dict):
    if name in special:
        return special[name]
    if name in counters or name.endswith(".rejects"):
        return counters.get(name, 0)
    stem, field = name.rsplit(".", 1)
    key = {"calls": "calls", "self_s": "self_s", "wall_s": "total_s"}[field]
    return summary.get(stem, {}).get(key, 0 if field == "calls" else 0.0)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read through its own API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def ref_kernel_s(reps: int = 5) -> float:
    """Median time of a fixed pure-numpy kernel, to make machine drift visible."""
    import numpy as np

    g = np.random.default_rng(0)
    a = g.standard_normal((96, 96)) + 1j * g.standard_normal((96, 96))
    h = a + a.conj().T
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(10):
            np.linalg.eigh(h)
            h @ h
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_seconds(dims, repeats: int, log) -> float:
    """Median wall time of a fresh interpreter importing qbayes and building the SQMs."""
    from perfbench.workloads import child_env

    code = f"from qbayes import effects\nfor d in {tuple(dims)!r}:\n    effects.standard_sqm(d)\n"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        times.append(time.perf_counter() - t0)
        log.record([f"setup probe exit {done.returncode}: {done.stderr[-300:]}"] if done.returncode else [])
    return statistics.median(times)


def import_seconds(repeats: int = IMPORTTIME_REPEATS) -> dict[str, float]:
    """Cumulative import times of qbayes and scipy.optimize from ``-X importtime``."""
    from perfbench.workloads import child_env

    samples: dict[str, list[float]] = {"qbayes": [], "scipy.optimize": []}
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qbayes"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
        )
        seen = {}
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                seen[fields[2].strip()] = int(fields[1]) / 1e6
        for name in samples:
            samples[name].append(seen.get(name, 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def timed_passes(workload, seconds: float, log) -> list[float]:
    """Run whole passes until ``seconds`` have elapsed; returns each pass's wall time."""
    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.run_pass(log)
        walls.append(time.perf_counter() - t0)
        workload.after_pass(log)
        if time.perf_counter() - start >= seconds:
            return walls


def measure(workload, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """One benchmark run: (result object, extra information for the log lines)."""
    from perfbench.tracer import Tracer, install, uninstall
    from perfbench.workloads import OUT_DIR, OpLog

    OUT_DIR.mkdir(exist_ok=True)
    log = OpLog()
    info = {"ref_kernel_s": ref_kernel_s()}
    correct = True
    if not trace:
        setup = setup_seconds(workload.sqm_dims, setup_repeats, log)
        workload.warm_up()
        walls = timed_passes(workload, seconds, log)
        latencies_ms = [x * 1e3 for x in log.latencies_s]
        metrics = {
            "setup_s": (setup, "s"),
            # The mean, not the median, of the passes: see "Machine noise" in README.md.
            "wall_s": (statistics.mean(walls), "s"),
            "op_ms.p50": (percentile(latencies_ms, 0.5), "ms"),
            "op_ms.p90": (percentile(latencies_ms, 0.9), "ms"),
            "peak_rss_mb": (workload.peak_rss_mib(), "MiB"),
        }
        info.update(passes=len(walls), samples=len(latencies_ms), median_pass_s=statistics.median(walls))
    else:
        tracer = Tracer()
        undo = install(tracer)
        try:
            with tracer.span("setup"):
                workload.warm_up()
        finally:
            uninstall(undo)
        walls = timed_passes(workload, seconds, log)
        undo = install(tracer)
        try:
            t0 = time.perf_counter()
            workload.run_pass(log, tracer)
            traced_wall = time.perf_counter() - t0
        finally:
            uninstall(undo)
        tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
        summary = tracer.summary()
        for name, expected in workload.expected_counters().items():
            got = tracer.counters.get(name, 0)
            if got != expected:
                correct = False
                log.errors.append(f"{name} = {got}, expected exactly {expected}")
        imports = import_seconds()
        special = {
            "import.qbayes_s": imports["qbayes"],
            "import.scipy_optimize_s": imports["scipy.optimize"],
            "trace.overhead_s": traced_wall - statistics.mean(walls),
            "machine.ref_kernel_s": info["ref_kernel_s"],
        }
        metrics = {name: (layer_value(name, special, tracer.counters, summary), unit_of(name)) for name in PER_LAYER}
        info.update(passes=len(walls), traced_wall_s=traced_wall)
    info.update(attempted=log.attempted, failed=log.failed, errors=log.errors)
    result = {
        "correct": correct and log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "tomography", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (SRC / "qbayes" / "__init__.py").is_file():
        print(f"perfbench: no qbayes package under {SRC}; run from a qbayes checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qbayes

    if Path(qbayes.__file__).resolve().parent != SRC / "qbayes":
        print(f"perfbench: imported qbayes from {qbayes.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    env = environment()
    workload = WORKLOADS[args.workload](args.seed)
    result, info = measure(workload, args.seconds, bool(args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"passes={info['passes']} ref_kernel_s={info['ref_kernel_s']:.6f}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    if not args.trace:
        print(f"op_ms samples {info['samples']} ({info['passes']} passes; median pass wall {info['median_pass_s']:.4f} s)")
    ratio = info["failed"] / info["attempted"]
    print(f"fail_ratio {ratio} ratio (failed {info['failed']} of {info['attempted']} attempted)")
    for error in info["errors"]:
        print(f"failure: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
