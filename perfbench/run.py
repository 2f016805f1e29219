#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is compiled from source
(perfbench/CMakeLists.txt builds ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, and the benchmark binary's output is passed
through: human-readable metric lines, then one JSON result line. Span dumps
of traced runs land in <build dir>/spans. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("slo-flap-192", "scale-digest-500", "chaos-grid-12")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no program sources at %s" % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", build_dir, "-j", jobs]
    for attempt in range(2):
        ok = True
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            ok = subprocess.call(configure, stdout=sys.stderr) == 0
        ok = ok and subprocess.call(compile_, stdout=sys.stderr) == 0
        if ok:
            return os.path.join(build_dir, "perfbench")
        if attempt == 0:
            # A cache left by a checkout at another path cannot be reused.
            shutil.rmtree(build_dir, ignore_errors=True)
    sys.exit("perfbench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, base)), "perfbench")
    binary = build(build_dir)
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.call([binary, "--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", args.trace,
                            "--out-dir", spans_dir])


if __name__ == "__main__":
    sys.exit(main())
