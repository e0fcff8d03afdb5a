#!/usr/bin/env python3
"""Build and run witbench, WatchIT's benchmark.

Usage (from the repository root):

    python3 witbench/run.py --workload helpdesk --seed 1 --seconds 20 --trace 0
    python3 witbench/run.py --selftest

The first call builds the WatchIT libraries from ./src plus the benchmark
into $CARGO_TARGET_DIR/witbench (default .bench_build/witbench). Build logs go
to stderr. The benchmark's stdout is passed through; its last line is one
JSON object {"correct", "attempted", "failed", "metrics"}. Before that line
is accepted, every metric name is checked against BENCHMARK.json: with
--trace 0 the set must equal "end_to_end", with --trace 1 "per_layer".
--selftest checks the benchmark's own arithmetic (witbench_selftest) and
the result-line checks below, then exits; every run does the same first.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TIMEOUT_S = 170


def fail(message, code=2):
    print("witbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at the repository root")
    with open(path) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "witbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no WatchIT source tree (src/CMakeLists.txt) next to witbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "witbench",
                  "witbench_selftest"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return out


def run_checked(cmd):
    """Runs cmd, echoing its stdout; returns (returncode, lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % TIMEOUT_S, 5)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.splitlines()
    for line in lines:
        print(line)
    sys.stdout.flush()
    return proc.returncode, lines


def check_result(line, expected):
    """Returns the parsed result line; raises ValueError when it breaks the format."""
    try:
        result = json.loads(line)
    except ValueError:
        raise ValueError("last line is not JSON")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        raise ValueError("result keys are not correct, attempted, failed, metrics")
    names = set(result["metrics"])
    bad = sorted(n for n in names if not NAME_RE.fullmatch(n))
    if bad:
        raise ValueError("metric names outside [A-Za-z0-9_.-]: %s" % bad)
    if names != expected:
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra %s"
                         % (sorted(expected - names), sorted(names - expected)))
    return result


def selftest(spec):
    """Checks the metric-name rule and check_result; returns the failures."""
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    for name in ("tickets_per_s", "deploy.image_lookup_us", "a-b_c.9", "9x"):
        check(NAME_RE.fullmatch(name), "name %r is valid" % name)
    for name in ("", ".lead", "-lead", "has space", "slash/x", "a" * 65, "t\u00e9", "x\n"):
        check(not NAME_RE.fullmatch(name), "name %r is refused" % name)
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            check(NAME_RE.fullmatch(m["name"]), "BENCHMARK.json name %r is valid" % m["name"])

    def rejects(line, expected):
        try:
            check_result(line, expected)
        except ValueError:
            return True
        return False

    def line(metrics):
        return json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {n: {"value": 1.5, "unit": "s"} for n in metrics}})

    expected = {"a_s", "b.ms"}
    check(check_result(line(["a_s", "b.ms"]), expected)["attempted"] == 1,
          "a line with exactly the expected names passes")
    check(rejects(line(["a_s"]), expected), "a missing metric is refused")
    check(rejects(line(["a_s", "b.ms", "c"]), expected), "an extra metric is refused")
    check(rejects(line(["a_s", "b ms"]), {"a_s", "b ms"}), "a malformed name is refused")
    check(rejects("correct=true", expected), "a line that is not JSON is refused")
    check(rejects(json.dumps({"correct": True, "metrics": {}}), set()),
          "a line without attempted/failed is refused")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    out = build()
    code, _ = run_checked([os.path.join(out, "witbench_selftest")])
    if code != 0:
        fail("witbench_selftest failed", 6)
    failures = selftest(spec)
    for what in failures:
        print("witbench: selftest FAIL: " + what, file=sys.stderr)
    if failures:
        fail("run.py selftest failed", 6)
    if args.selftest:
        return 0
    if args.workload not in workloads:
        fail("unknown workload %r (BENCHMARK.json lists %s)" % (args.workload, workloads))

    cmd = [os.path.join(out, "witbench"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    code, lines = run_checked(cmd)
    if not lines:
        fail("benchmark printed nothing", 4)
    section = "per_layer" if args.trace else "end_to_end"
    try:
        result = check_result(lines[-1], {m["name"] for m in spec[section]})
    except ValueError as e:
        fail(str(e), 4)
    if code != 0 or not result["correct"]:
        fail("correctness gate failed (exit %d)" % code, 3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
