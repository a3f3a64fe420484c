"""Run `qbayes all` over a range of seeds and dimensions and summarize the checks.

Every (dimension, seed) pair is one in-process ``cli.run(["all", ...])``.  The
script prints one JSON object: the number of runs, the number of failed runs,
and for each check its failure count and its worst margin, the distance of its
value from its threshold on the passing side (negative when it fails), with
the value, dimension and seed at which that margin occurred.  The exit status
is 0 when no run failed and 1 otherwise.

    PYTHONPATH=src python scripts/seed_scan.py --seeds 1 200 --dims 2 3
"""

import argparse
import json
import sys

from qbayes import cli


def margin(check: dict) -> float:
    """Distance of a check's value from its threshold, positive on the passing side."""
    gap = check["threshold"] - check["value"]
    return -gap if check["op"] == ">=" else gap


def scan(seeds, dims) -> dict:
    checks, failed_runs = {}, 0
    for dim in dims:
        for seed in seeds:
            code, report = cli.run(["all", "--dim", str(dim), "--seed", str(seed)])
            failed_runs += code != 0
            for c in report["checks"]:
                row = checks.setdefault(
                    c["name"], {"op": c["op"], "threshold": c["threshold"], "failures": 0}
                )
                row["failures"] += not c["pass"]
                m = margin(c)
                if "worst_margin" not in row or m < row["worst_margin"]:
                    row.update(worst_margin=m, worst_value=c["value"], worst_dim=dim, worst_seed=seed)
    return {
        "dims": list(dims),
        "seeds": [min(seeds), max(seeds)],
        "runs": len(dims) * len(seeds),
        "failed_runs": failed_runs,
        "checks": checks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 200), metavar=("FIRST", "LAST"))
    parser.add_argument("--dims", type=int, nargs="+", default=(2, 3))
    args = parser.parse_args(argv)
    first, last = args.seeds
    if not 0 <= first <= last:
        parser.error("--seeds needs 0 <= FIRST <= LAST")
    summary = scan(range(first, last + 1), args.dims)
    print(json.dumps(summary, indent=2))
    return 1 if summary["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
