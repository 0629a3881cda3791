#!/usr/bin/env python3
"""ASDF end-to-end benchmark: build, then run one workload.

    python3 perfbench/run.py --workload sim_scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test      # build and run the benchmark's tests

Run from the root of a source tree. The benchmark package (this
directory) is configured and built out of tree under $CARGO_TARGET_DIR
(default .bench_build); later runs rebuild incrementally. The last line
of standard output is the JSON result of the run. Exit status is 0 when
the run completed and every output check passed.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_scale", "replay_50", "live_50")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir, targets):
    """Configures (once) and builds; the build log goes to stderr only
    when the build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("ASDF sources not found next to " + HERE)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] +
                 targets)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    build_dir = os.path.join(target_dir, "perfbench")

    if args.test:
        build(build_dir, ["perfbench_tests"])
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_tests")]).returncode

    build(build_dir, ["perfbench", "asdf_rpcd"])
    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%d" % args.seconds,
        "--trace=%d" % args.trace,
        "--rpcd=" + os.path.join(build_dir, "asdf_rpcd"),
        "--work-dir=" + os.path.join(target_dir, "work", args.workload),
        "--trace-file=" + os.path.join(target_dir, "trace",
                                       args.workload + ".csv"),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
