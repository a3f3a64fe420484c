"""Run one qbayes CLI command with the layer modules traced.

    python -m perfbench.traced_cli SUMMARY.json SPANS.npz -- <qbayes arguments>

Behaves like ``python -m qbayes.cli <arguments>`` (same report on stdout,
same exit status) and also writes the per-span-name summary and counters
to SUMMARY.json and every span to SPANS.npz.  The cli-cold workload's
traced pass runs its ops through this module.
"""

import json
import sys

from perfbench.tracer import Tracer, install, uninstall


def main(argv: list[str]) -> int:
    summary_path, spans_path, sep, *cli_args = argv
    if sep != "--" or not cli_args:
        raise SystemExit("usage: python -m perfbench.traced_cli SUMMARY.json SPANS.npz -- ARGS")
    from qbayes import cli

    tracer = Tracer()
    undo = install(tracer)
    try:
        with tracer.span(f"cli.section.{cli_args[0]}"):
            code = cli.main(cli_args)
    finally:
        uninstall(undo)
    with open(summary_path, "w") as fh:
        json.dump({"spans": tracer.summary(), "counters": tracer.counters}, fh)
    tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
