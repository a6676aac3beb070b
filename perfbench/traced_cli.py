"""Run one hemanet CLI command with the per-layer hooks installed.

    python perfbench/traced_cli.py SPANS.json -- <hemanet arguments>

Writes the aggregated spans and counters to SPANS.json when the command
returns, and exits with the command's exit code.  In-process time runs from
the first statement of this script to the command's return.
"""
import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import CLI_HOOKS, Tracer  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    began = time.perf_counter()
    import hemanet.cli
    import_s = time.perf_counter() - began

    tracer = Tracer()
    tracer.install(CLI_HOOKS)
    try:
        code = hemanet.cli.main(cli_args)
    finally:
        doc = tracer.snapshot()
        doc["import_s"] = import_s
        doc["in_process_s"] = time.perf_counter() - _START
        doc["covered_s"] += import_s
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
