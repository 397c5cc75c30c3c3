#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

One run of one workload, as BENCHMARK.json names it:

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

builds an optimised tree of the engine and the benchmark into
.bench_build (or $CARGO_TARGET_DIR) when needed, runs the workload in a
process of its own and relays its output. The last line of standard
output is the JSON result.

Steadiness check:

  python3 bench/e2e/run.py --repeat 10 [--workload NAME] [--seconds S]

runs every workload (or one) with seeds 1..N and prints, for each
end-to-end metric, the median and the quartile spread as a share of the
median, against the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH_DIR = pathlib.Path(__file__).resolve().parent
# A run ends well within this; a hung one is killed and reported.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no engine sources under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "e2e_bench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "e2e_bench"


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, stdout lines)."""
    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--out-dir", str(out_dir)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def repeat(binary, config, args):
    names = [w["name"] for w in config["workloads"]]
    if args.workload:
        names = [args.workload]
    seconds = args.seconds or config["run_seconds"]
    steady = True
    for name in names:
        runs = []
        steal = []
        for seed in range(1, args.repeat + 1):
            code, lines = run_once(binary, name, seed, seconds, 0)
            result = result_of(lines)
            if code != 0 or result is None:
                log(f"{name} seed {seed}: run failed (exit {code})")
                return 1
            runs.append(result)
            found = re.search(r"host steal ([0-9.]+)%", "\n".join(lines))
            if found:
                steal.append(float(found.group(1)))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{name}: {len(runs)} runs, correct="
              f"{all(r['correct'] for r in runs)}, failed share "
              f"{'steady' if len(shares) == 1 else 'VARIES'} {sorted(shares)}"
              f", host steal {min(steal, default=0):.1f}-"
              f"{max(steal, default=0):.1f}%")
        for metric in config["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median, share = spread(values)
            limit = metric["bound"] / 3
            flag = "ok" if share < limit or metric["name"] == "setup_s" \
                else "WIDE"
            if flag == "WIDE":
                steady = False
            print(f"  {metric['name']:<18} median {median:14.6g} "
                  f"{metric['unit']:<9} spread {share:7.2%} "
                  f"(bound {metric['bound']:.0%}, a third {limit:.2%}) {flag}")
    return 0 if steady else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int,
                        help="steadiness check: runs per workload")
    args = parser.parse_args()
    if args.repeat is None and None in (args.workload, args.seed,
                                        args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are needed")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        log(f"build failed: {err}")
        return 2
    if args.repeat is not None:
        with open(ROOT / "BENCHMARK.json") as f:
            return repeat(binary, json.load(f), args)
    try:
        code, lines = run_once(binary, args.workload, args.seed,
                               args.seconds, args.trace)
    except subprocess.TimeoutExpired:
        log(f"{args.workload}: no result within {RUN_TIMEOUT_S} s")
        return 1
    for line in lines[:-1]:
        print(line)
    if code != 0 or result_of(lines) is None:
        log(f"{args.workload}: exited {code} without a result")
        return code or 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
