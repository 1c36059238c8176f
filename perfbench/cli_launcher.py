"""Run ``curvband <subcommand> ...`` in this fresh interpreter, optionally traced.

Usage: python3 perfbench/cli_launcher.py [--timing FILE] [--spans FILE] <curvband arguments>

Equivalent to the ``curvband`` console script.  With ``--timing`` it writes
how many nanoseconds ``curvband.cli.main`` took to FILE when main returns:
the subcommand's run, without the interpreter start and ``import
curvband.cli`` before it.  With ``--spans`` it records the time that import
takes, installs the span wrappers, calls ``curvband.cli.main`` and writes
the spans to FILE when main returns.
"""

import sys
import time


def main(argv):
    options = {}
    while argv[:1] in (["--timing"], ["--spans"]):
        options[argv[0]], argv = argv[1], argv[2:]
    start = time.perf_counter_ns()
    import curvband.cli
    end = time.perf_counter_ns()

    tracer = None
    if "--spans" in options:
        from tracer import IMPORT_SPAN, Tracer
        tracer = Tracer()
        tracer.op = 0
        tracer.record(IMPORT_SPAN, start, end)
        tracer.install()
    try:
        start = time.perf_counter_ns()
        status = curvband.cli.main(argv)
        end = time.perf_counter_ns()
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(options["--spans"])
    if "--timing" in options:
        with open(options["--timing"], "w", encoding="utf-8") as fh:
            fh.write(f"{end - start}\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
