"""One benchmark operation in a fresh process.

Usage: child.py RESULT_JSON TRACE(0|1) SETUP_ONLY(0|1) -- SIXCH_ARGS...

Imports `sixch.cli`, parses the workload's config (the set-up), then,
unless SETUP_ONLY, calls `sixch.cli.main(SIXCH_ARGS)` once, optionally
under the tracer.  Writes monotonic-clock marks (comparable with the
parent's clock on Linux) and the trace aggregate to RESULT_JSON and
exits with main's return code.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    result_path, trace, setup_only, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT TRACE SETUP_ONLY -- SIXCH_ARGS...")
    marks = {"start": time.monotonic()}
    import sixch.cli
    marks["imported"] = time.monotonic()
    config = argv[argv.index("--config") + 1]
    seed = int(argv[argv.index("--seed") + 1])
    sixch.cli.parse_config(config, seed_override=seed)
    marks["ready"] = time.monotonic()
    result = {"marks": marks, "sixch_file": sixch.cli.__file__, "rc": 0}
    if setup_only == "0":
        tracer = None
        if trace == "1":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        marks["solve_start"] = time.monotonic()
        result["rc"] = sixch.cli.main(argv)
        marks["solve_end"] = time.monotonic()
        if tracer is not None:
            result["trace"] = tracer.report()
    Path(result_path).write_text(json.dumps(result))
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
