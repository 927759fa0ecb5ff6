#!/usr/bin/env python3
"""Build the benchmark from the checkout and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mc-rand --seed 0 --seconds 20 --trace 0

The workloads, metrics and bounds are declared in BENCHMARK.json. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; progress and diagnostics go to standard
error. The exit code is 0 only if every output checked out.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of the repository (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled", BCCLB_NUM_DOMAINS="1")
    for var in ("BCCLB_TRACE", "BCCLB_CONN_ORACLE"):
        env.pop(var, None)
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stderr.flush()
    os.execve(EXE, [EXE] + sys.argv[1:], env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
