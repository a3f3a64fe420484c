"""Time each `qbayes` CLI section in process and print the medians as JSON.

Every (pass, dimension, seed, section) is one call of the section's function
with its trial count under ``all`` and its own generator, both taken from
``cli._section`` as ``cli.run`` takes them, and timed with
``time.perf_counter``.  One untimed pass over every dimension and section
comes first, so the standard measurements are built
and every module is imported before timing.  The script prints one JSON
object: per section and dimension the median wall time in milliseconds over
all seeds and passes, and the sum of those medians.  ``--sections`` times only
the named sections (all by default); the untimed pass runs those alone too.

    PYTHONPATH=src python scripts/section_times.py --dims 2 3 --seeds 1 4 --passes 4
    PYTHONPATH=src python scripts/section_times.py --sections entropy-sweep update-factor
"""

import argparse
import json
import statistics
import sys
import time

from qbayes import cli


def time_sections(dims, seeds, passes, sections) -> dict:
    samples = {}
    for timed in [False] + [True] * passes:
        for dim in dims:
            for seed in seeds if timed else seeds[:1]:
                for name in sections:
                    fn, trials, g = cli._section(name, seed, "all")
                    t0 = time.perf_counter()
                    fn(dim, trials, g)
                    if timed:
                        samples.setdefault(name, {}).setdefault(dim, []).append(time.perf_counter() - t0)
    medians = {
        name: {str(dim): 1e3 * statistics.median(s) for dim, s in by_dim.items()}
        for name, by_dim in samples.items()
    }
    return {
        "dims": list(dims),
        "seeds": [min(seeds), max(seeds)],
        "passes": passes,
        "median_ms": medians,
        "sum_of_medians_ms": sum(sum(by_dim.values()) for by_dim in medians.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs="+", default=(2, 3))
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 4), metavar=("FIRST", "LAST"))
    parser.add_argument("--passes", type=int, default=4)
    parser.add_argument(
        "--sections", nargs="+", choices=list(cli._COMMANDS), default=list(cli._COMMANDS), metavar="NAME"
    )
    args = parser.parse_args(argv)
    first, last = args.seeds
    if not 0 <= first <= last:
        parser.error("--seeds needs 0 <= FIRST <= LAST")
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if not all(2 <= d <= cli.MAX_DIM for d in args.dims):
        parser.error(f"--dims must lie between 2 and {cli.MAX_DIM}")
    seeds = list(range(first, last + 1))
    print(json.dumps(time_sections(args.dims, seeds, args.passes, args.sections), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
