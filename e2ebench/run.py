#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run one workload.

    python3 e2ebench/run.py --workload human_stream --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/ (incremental
after the first run); build output goes to stderr, so the last line on
stdout is the benchmark's JSON result. The exit code is e2e_pipeline's, or
1 when the build fails (for example outside a full checkout).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
JOBS = "4"


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", JOBS, "--target", "e2e_pipeline"],
    ]
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env) != 0:
            sys.stderr.write("e2ebench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    exe = os.path.join(BUILD, "e2e_pipeline")
    return subprocess.call([exe] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
