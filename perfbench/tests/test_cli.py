#!/usr/bin/env python3
"""Tests of the perfbench command lines and of its output check.

    python3 perfbench/tests/test_cli.py

Builds the perfbench binary through perfbench/run.py if needed. Checks
that every malformed command line exits 2 with a message and no result,
for the binary and for run.py, and that altering one committed
reference value makes the run fail (fail_ratio > 0, nonzero exit).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  perfbench/run.py

BINARY = None
W = ["--workload", "serve_sweep"]

# (arguments, text the error message must contain)
BAD_COMMAND_LINES = [
    ([], "--workload"),
    (["--workload", "nope"], "nope"),
    (["--workload=tpc"], "tpc"),
    (W + ["--bogus"], "--bogus"),
    (W + ["--metric=x.json"], "--metric"),
    (W + ["--seed", "abc"], "abc"),
    (W + ["--seed", "-1"], "-1"),
    (W + ["--seed", "1.5"], "1.5"),
    (W + ["--seed", ""], "seed"),
    (W + ["--seed", "18446744073709551616"], "18446744073709551616"),
    (W + ["--seed=+3"], "+3"),
    (W + ["--threads", "abc"], "abc"),
    (W + ["--threads", "0"], "0"),
    (W + ["--threads", "257"], "257"),
    (W + ["--threads", "4x"], "4x"),
    (W + ["--seconds", "0"], "0"),
    (W + ["--seconds", "3601"], "3601"),
    (W + ["--trace", "2"], "2"),
    (W + ["--seed"], "--seed"),
]


def run_binary(args):
    return subprocess.run([BINARY, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)


class StrictArguments(unittest.TestCase):
    def check(self, cmd, args, needle):
        p = subprocess.run(cmd + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, cwd=ROOT)
        self.assertEqual(p.returncode, 2, f"{args}: {p.stderr}")
        self.assertEqual(p.stdout, "", f"{args} printed a result")
        self.assertIn(needle, p.stderr, f"{args}: {p.stderr}")

    def test_binary_rejects_bad_command_lines(self):
        for args, needle in BAD_COMMAND_LINES:
            with self.subTest(args=args):
                self.check([BINARY], args, needle)

    def test_run_py_rejects_bad_command_lines(self):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
        for args, needle in BAD_COMMAND_LINES:
            with self.subTest(args=args):
                self.check(cmd, args, needle)

    def test_binary_rejects_repeated_flags(self):
        self.check([BINARY], W + ["--seed", "1", "--seed", "2"], "twice")


class OutputCheck(unittest.TestCase):
    REFS = os.path.join(ROOT, "perfbench", "refs", "serve_sweep.seed1.txt")

    def run_with_refs(self, path):
        p = run_binary(W + ["--seed", "1", "--seconds", "1",
                            "--refs", path])
        return p, json.loads(p.stdout.splitlines()[-1])

    def test_committed_refs_pass(self):
        p, result = self.run_with_refs(self.REFS)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_altered_reference_value_fails(self):
        with open(self.REFS) as f:
            lines = f.read().splitlines(keepends=True)
        # Change the mantissa of the first hex-float output of op 0.
        altered, n = re.subn(r"(=0x[0-9a-f.]+)(p)", r"\g<1>1\2",
                             lines[1], count=1)
        self.assertEqual(n, 1)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "altered_refs.txt")
        with open(path, "w") as f:
            f.writelines([lines[0], altered, *lines[2:]])
        p, result = self.run_with_refs(path)
        self.assertNotEqual(p.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        ratio = re.search(r"fail_ratio\s+([0-9.]+)", p.stdout)
        self.assertGreater(float(ratio.group(1)), 0)

    def test_refs_for_another_seed_are_refused(self):
        p = run_binary(W + ["--seed", "2", "--seconds", "1",
                            "--refs", self.REFS])
        self.assertEqual(p.returncode, 2)
        self.assertIn("seed=1", p.stderr)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
