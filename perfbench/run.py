#!/usr/bin/env python3
"""Repository benchmark for splace: builds and runs perfbench/splace_perf.

Run one workload (the form BENCHMARK.json's command takes):
    python3 perfbench/run.py --workload place_cold --seed 1 --seconds 40 --trace 0

Run every workload, untraced then traced, and print all metrics:
    python3 perfbench/run.py all [--seed N] [--seconds S]

Compare two sets of result files against the bounds in BENCHMARK.json
(one directory alone prints its own medians, quartiles and spreads):
    python3 perfbench/run.py compare BASE_DIR [NEW_DIR]

run.py builds splace_perf from ../src with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and writes one
result file per run into .bench_results/ (or --out-dir).
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ["serve_hot", "place_cold", "localize_episodes"]
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds splace_perf; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("splace sources (src/CMakeLists.txt) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "splace_perf"])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step), 1)
    return os.path.join(build_dir, "splace_perf")


def git_rev():
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over src/ and perfbench/ sources: a revision id that also
    works in a checkout without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path) and "__pycache__" not in path:
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def run_one(binary, workload, seed, seconds, trace, out_dir):
    """Runs one workload; stdout passes through. Returns (code, result)."""
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "%s-seed%d-trace%d-%d-%d.json" % (
        workload, seed, trace, int(time.time() * 1000), os.getpid()))
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None
    if not os.path.isfile(out):
        return code or 1, None
    with open(out) as handle:
        result = json.load(handle)
    result["provenance"].update({
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "recorded_unix": int(time.time()),
    })
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return code, result


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def cmd_all(args):
    binary = build()
    spec = load_benchmark()
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    summary = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_one(binary, workload, args.seed, seconds, trace,
                                   args.out_dir)
            status = status or code
            if result is not None:
                summary.append(result)
    print("\n== end-to-end summary (seed %d) ==" % args.seed)
    for result in summary:
        if result["trace"] != 0:
            continue
        for name, metric in result["end_to_end"].items():
            print("%-18s %-15s %14.6g %s" % (result["workload"], name,
                                             metric["value"], metric["unit"]))
        tracked = ", ".join("%s->%s" % (k, v["kind"])
                            for k, v in result["tracking"].items())
        print("%-18s tracking: %s" % (result["workload"], tracked))
    for result in summary:
        if result["trace"] == 1:
            ratio = result["metrics"]["tracing.throughput_ratio"]["value"]
            print("%-18s tracing overhead: traced/untraced throughput %.3f" %
                  (result["workload"], ratio))
    return status


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_results(directory):
    """{(workload, metric): [values]} over the untraced results in a dir."""
    values = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            result = json.load(handle)
        if result.get("trace") != 0 or not result.get("correct"):
            continue
        for name, metric in result["metrics"].items():
            values.setdefault((result["workload"], name), []).append(
                metric["value"])
    return values


def cmd_compare(args):
    spec = load_benchmark()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = load_results(args.base)
    new = load_results(args.new) if args.new else None
    if not base:
        fail("no untraced result files in " + args.base)
    regressions = 0
    header = "%-18s %-15s %-30s" % ("workload", "metric", "base q1/median/q3")
    print(header + ("" if new is None else " %-30s verdict" % "new q1/median/q3"))
    for (workload, name), base_values in sorted(base.items()):
        if name not in bounds:
            continue
        bound = bounds[name]["bound"]
        lower_better = bounds[name]["better"] == "lower"
        b1, bm, b3 = quartiles(base_values)
        spread = (b3 - b1) / bm if bm else 0.0
        line = "%-18s %-15s %9.4g/%9.4g/%9.4g" % (workload, name, b1, bm, b3)
        if new is None:
            ok = name == "setup_s" or spread <= bound
            print(line + "  spread %.4f of bound %.2f (n=%d)%s" % (
                spread, bound, len(base_values), "" if ok else "  TOO WIDE"))
            continue
        new_values = new.get((workload, name))
        if not new_values:
            print(line + "  (missing in new)")
            regressions += 1
            continue
        n1, nm, n3 = quartiles(new_values)
        worse = (nm - bm) / bm if lower_better else (bm - nm) / bm
        if worse > bound:
            verdict = "REGRESSION (%.1f%% worse, bound %.0f%%)" % (
                100 * worse, 100 * bound)
            regressions += 1
        elif name != "setup_s" and spread > bound:
            verdict = "unresolved (base spread %.3f > bound)" % spread
        else:
            verdict = "ok (%+.1f%%)" % (-100 * worse)
        print(line + " %9.4g/%9.4g/%9.4g %s" % (n1, nm, n3, verdict))
    return 1 if regressions else 0


def cmd_run(args):
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (known: %s)" % (args.workload,
                                                  ", ".join(WORKLOADS)))
    binary = build()
    code, _ = run_one(binary, args.workload, args.seed, args.seconds,
                      args.trace, args.out_dir)
    return code


def main(argv):
    default_out = os.path.join(ROOT, ".bench_results")
    if argv and argv[0] == "all":
        parser = argparse.ArgumentParser(prog="run.py all")
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=float, default=None)
        parser.add_argument("--out-dir", default=default_out)
        return cmd_all(parser.parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new", nargs="?")
        return cmd_compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", default=default_out)
    return cmd_run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
