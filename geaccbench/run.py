#!/usr/bin/env python3
"""Build and run the geacc benchmark.

Run from the repository root:

    python3 geaccbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds geaccbench/geaccbench.exe from source with dune (one job, shared
cache off, so the build reads and writes only the checkout's _build), then
runs it with the same arguments, single-domain (GEACC_JOBS=1) and with
every geacc environment override cleared. The benchmark's last line of
standard output is its JSON result; build output goes to standard error.
Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = subprocess.run(
        ["dune", "build", "--root", root, "--cache=disabled", "-j", "1",
         "--display", "quiet", "./geaccbench/geaccbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, cwd=root)
    if build.returncode != 0:
        print("geaccbench: build failed", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("GEACC_")}
    env["GEACC_JOBS"] = "1"
    exe = os.path.join(root, "_build", "default", "geaccbench", "geaccbench.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, cwd=root,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("geaccbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
