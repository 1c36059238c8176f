"""One fresh interpreter from start to ready, for the ``setup_s`` metric.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

For an in-process workload, ready means ``import curvband``, the first
round's objects built and one small warm-up solve done; for ``cli-runs`` it
means ``import curvband.cli``, all a CLI run does before its subcommand.  Prints ``time.monotonic_ns()`` at ready;
the parent subtracts the time it started this process.
"""

import sys
import time
from pathlib import Path


def main(name, seed):
    if name == "cli-runs":
        import curvband.cli  # noqa: F401
    else:
        import workloads
        workloads.make(name, int(seed), Path.cwd()).warm_up()
    print(time.monotonic_ns())
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
