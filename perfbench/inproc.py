"""Run one lipext CLI command in this process and write its spans as JSON.

Usage: python3 perfbench/inproc.py OUT.json TRACE -- <lipext arguments>

TRACE 1 wraps the layers (see tracer.py) before ``lipext.cli.main`` runs;
TRACE 0 times ``main`` alone, which gives the untraced baseline for the
tracing overhead.  The report goes wherever the arguments' ``--output`` says,
and the exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

from tracer import ROOT, Tracer, install


def main() -> int:
    out, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        sys.exit(__doc__)
    cli = importlib.import_module("lipext.cli")
    tracer = Tracer()
    if trace == "1":
        install(tracer)
    with tracer.span(ROOT) as root:
        code = cli.main(argv)
    report = argv[argv.index("--output") + 1]
    root.counters["report_bytes"] = (os.path.getsize(report)
                                     if os.path.exists(report) else 0)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "absent": sorted(tracer.absent),
                   "spans": tracer.to_json()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
