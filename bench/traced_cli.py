"""Run the xpq command line with span tracing, as a child of the benchmark.

    python3 bench/traced_cli.py ARGS...

behaves like ``xpq ARGS...`` (same stdout, stderr and exit code, uncaught
exceptions included).  The import time of ``xpq.cli`` and the tracer's raw
totals go as one JSON object to the file descriptor named by the
environment variable BENCH_TRACE_FD, which the parent opened for it.
"""

import json
import os
import sys
import time


def main() -> int:
    out = os.fdopen(int(os.environ["BENCH_TRACE_FD"]), "w")
    start = time.perf_counter()
    import xpq.cli

    import_s = time.perf_counter() - start
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return xpq.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        snap = tracer.snapshot()
        snap["import_s"] = import_s
        with out:
            out.write(json.dumps(snap))


if __name__ == "__main__":
    sys.exit(main())
