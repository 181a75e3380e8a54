#!/usr/bin/env python3
"""Build and run the vespera host-performance benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a vespera checkout. Configures and builds the
`perfbench` binary (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR or .bench_build, then runs one workload in one process
and prints the binary's metric lines followed, as the last line, by one
JSON object {correct, attempted, failed, metrics}.

Op outputs are checked against perfbench/refs/<workload>.seed<N>.txt
when that file exists, else against their first pass. Traced runs write
their spans to .bench_out/<workload>.seed<N>.spans.json.

Exit status: 0 on success, 1 when an op output differs from its
reference or the build fails, 2 on a bad command line.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("tpc_mix", "serve_sweep")


def bounded_int(lo, hi):
    """argparse type: a plain decimal integer in [lo, hi]."""

    def parse(text):
        if not text.isdigit() or not text.isascii():
            raise argparse.ArgumentTypeError(
                f"expected an integer in {lo} .. {hi}, got {text!r}")
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"expected an integer in {lo} .. {hi}, got {text!r}")
        return value

    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Build and run one vespera perfbench workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=bounded_int(0, 2**64 - 1), default=1)
    p.add_argument("--seconds", type=bounded_int(1, 3600), default=10)
    p.add_argument("--trace", type=bounded_int(0, 1), default=0)
    p.add_argument("--threads", type=bounded_int(1, 256))
    return p.parse_args(argv)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")


def build():
    """Configure and build the binary; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"]]
    for cmd in steps:
        step = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if step.returncode != 0:
            sys.stderr.write(step.stdout)
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def binary_args(args):
    cmd = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    return cmd


def main(argv):
    args = parse_args(argv)
    binary = build()
    cmd = [binary, *binary_args(args), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    refs = os.path.join(HERE, "refs",
                        f"{args.workload}.seed{args.seed}.txt")
    if os.path.exists(refs):
        cmd += ["--refs", refs]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            out_dir, f"{args.workload}.seed{args.seed}.spans.json")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    try:
        json.loads(run.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        print(f"perfbench: binary exited {run.returncode} without a "
              "result", file=sys.stderr)
        return run.returncode or 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
