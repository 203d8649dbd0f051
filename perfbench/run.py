#!/usr/bin/env python3
"""Builds and runs the perfbench binary from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record

The binary is built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) on first use; later runs only re-check the build. Build output
goes to stderr. The binary's last stdout line, one JSON object with the keys
correct/attempted/failed/metrics, is the result; it is checked against the
metric names BENCHMARK.json declares before it is passed on.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.txt")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no pmk sources next to perfbench/", file=sys.stderr)
        return None
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, args):
    """Runs the binary; returns its parsed result line or None."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, cwd=ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def self_test(binary):
    """The output checks must be able to fail: a wrong recorded digest and a
    sabotaged campaign run must each give a nonzero error rate."""
    corrupt = os.path.join(build_dir(), "expected_corrupt.txt")
    with open(EXPECTED) as src, open(corrupt, "w") as dst:
        for line in src:
            parts = line.split()
            if len(parts) == 3 and parts[0] in ("campaign", "cold_after", "cold_before"):
                parts[2] = "%016x" % (int(parts[2], 16) ^ 1)
                line = " ".join(parts) + "\n"
            dst.write(line)
    base = ["--seed", "3", "--seconds", "1", "--trace", "0"]
    cases = [
        ("clean campaign", ["--workload", "campaign"], False),
        ("wrong campaign digests", ["--workload", "campaign", "--expected", corrupt], True),
        ("wrong cold digests", ["--workload", "wcet_cold", "--expected", corrupt], True),
        ("sabotaged campaign", ["--workload", "campaign", "--sabotage"], True),
    ]
    ok = True
    for name, extra, want_errors in cases:
        res = run_binary(binary, extra + base)
        rate = None if res is None else res["failed"] / res["attempted"]
        good = rate is not None and (rate > 0) == want_errors
        print("%-24s error_rate=%s %s" % (name, rate, "ok" if good else "FAILED"))
        ok = ok and good
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    if a.self_test:
        return 0 if self_test(binary) else 1
    if a.record:
        return subprocess.run([binary, "--record", EXPECTED], cwd=ROOT).returncode
    if not a.workload:
        ap.error("--workload is required")

    res = run_binary(binary, ["--workload", a.workload, "--seed", str(a.seed),
                              "--seconds", str(a.seconds), "--trace", str(a.trace),
                              "--expected", EXPECTED])
    if res is None:
        return 1
    if set(res["metrics"]) != declared_metrics(a.trace):
        print("perfbench: reported metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
