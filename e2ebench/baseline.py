#!/usr/bin/env python3
"""Repeat the benchmark and summarise each end-to-end metric's spread.

    python3 e2ebench/baseline.py --out e2ebench/baselines/BENCH_e2e.json
    python3 e2ebench/baseline.py --seeds 3,4,5,6,7,8,9,10,11,12

Runs every workload (or --workloads a,b) once per entry of --seeds (default
seed 1 five times: run-to-run noise alone) through e2ebench/run.py, and
reports per metric the median, the first and third quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and max/min.
Exits 1 when any spread reaches its bound in BENCHMARK.json; a spread at or
above a third of the bound is flagged. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), p.returncode))
    host = None
    for line in p.stderr.splitlines():
        if " host=" in line:
            host = json.loads(line.split(" host=", 1)[1])
            break
    return json.loads(lines[-1]), host


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med,
        "max_over_min": max(values) / min(values),
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,1,1,1,1")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seeds = [int(s) for s in args.seeds.split(",")]
    report = {"bench": "e2e_pipeline", "seconds": seconds, "seeds": seeds,
              "workloads": {}}
    within = True
    for w in workloads:
        per_metric, units = {}, {}
        for seed in seeds:
            res, host = run_once(w, seed, seconds)
            report.setdefault("host", host)
            if not res["correct"] or res["failed"]:
                raise SystemExit("%s seed %d: incorrect run: %s" % (w, seed, res))
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            sys.stderr.write("%s seed %d done\n" % (w, seed))
        report["workloads"][w] = {}
        for name, values in per_metric.items():
            s = summarise(values)
            s["unit"] = units[name]
            report["workloads"][w][name] = s
            bound = bounds[name]
            within &= s["spread"] < bound
            flag = ("SPREAD >= bound" if s["spread"] >= bound else
                    "spread >= bound/3" if s["spread"] >= bound / 3 else "ok")
            print("%-14s %-14s median %12.6g  q1 %12.6g  q3 %12.6g  spread %7.4f  "
                  "max/min %.4f  %s" % (w, name, s["median"], s["q1"], s["q3"],
                                        s["spread"], s["max_over_min"], flag))
    if args.out:
        with open(os.path.join(ROOT, args.out), "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
