#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every workload and seed it runs the command named in BENCHMARK.json
(from the repository root), takes the JSON object on the last line of
standard output, and reports per metric the median and the distance
between the first and third quartiles as a share of the median, next to
the metric's bound. With --record it also writes every run's figures,
the machine's core count, the build profile and the commit to a JSON
file (name it so it does not match the repository's BENCH_*.json
ignore pattern, e.g. perfbench/seed-record/set-1.json).

    python3 perfbench/spread.py --workloads nearline --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --record perfbench/seed-record/set-1.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """'1-5' -> [1..5]; '3,7,9' -> [3, 7, 9]."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def last_json_line(stdout):
    """The result object on the last non-empty line, or None."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return result


def spread(values):
    """Inter-quartile distance over the median (statistics.quantiles, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - started
    result = last_json_line(proc.stdout)
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, result {result}")
    return result, wall


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--record", help="write every run's figures to this JSON file")
    args = ap.parse_args()

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    record = {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "profile": "release (perfbench/Cargo.toml: lto = \"thin\")",
        "run_seconds": bench["run_seconds"],
        "trace": args.trace,
        "workloads": {},
    }
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, wall = run_once(bench, workload, seed, args.trace)
            runs.append({"seed": seed, "wall_s": round(wall, 2), "metrics": result["metrics"]})
            print(f"{workload} seed {seed}: {wall:.1f} s", flush=True)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            row = {"median": statistics.median(values), "unit": m["unit"]}
            if len(values) >= 2 and args.trace == 0:
                row["spread"] = spread(values)
                if m["name"] != "setup_s":
                    worst = max(worst, row["spread"] / m["bound"])
            summary[m["name"]] = row
            shown = f"spread {row['spread']:.3f} (bound {m['bound']})" if "spread" in row else ""
            print(f"  {m['name']:36s} median {row['median']:.6g} {m['unit']:6s} {shown}")
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.trace == 0:
        print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    if args.record:
        path = os.path.join(ROOT, args.record)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
