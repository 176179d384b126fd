#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

From the root of a checkout:

    python3 hmsbench/spread.py --runs 10 --first-seed 100 --out spread.json

runs every workload --runs times at BENCHMARK.json's run_seconds, each run
with its own seed, cycling through the workloads so each one's runs spread
over the whole session instead of running back to back. It reports per
metric the median and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median: for every
end-to-end metric, and for the timing diagnostics the run prints but
BENCHMARK.json does not bound (DIAGNOSTICS).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

DIAGNOSTICS = ("latency_p50_ms", "throughput_per_s")


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every run's result and the spreads")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]

    runs = {w: [] for w in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in names:
            proc = subprocess.run(
                [sys.executable, "hmsbench/run.py", "--workload", w, "--seed",
                 str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not result or not result["correct"]:
                sys.exit(f"{w} seed {seed} failed (rc {proc.returncode}):\n"
                         + proc.stdout[-2000:] + proc.stderr[-2000:])
            stamp = next((json.loads(l.split("=", 1)[1]) for l in lines
                          if l.startswith("# stamp = ")), {})
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            for l in lines:  # "# name = value unit"
                name, _, value = l[2:].partition(" = ")
                if l.startswith("# ") and name in DIAGNOSTICS:
                    metrics[name] = float(value.split()[0])
            runs[w].append({"seed": seed, "time": time.strftime("%H:%M:%S"),
                            "stamp": stamp, "metrics": metrics})
            print(f"{time.strftime('%H:%M:%S')} {w} seed {seed}: " + ", ".join(
                f"{k}={v:.5g}" for k, v in metrics.items()),
                flush=True)

    report = {}
    for w in names:
        report[w] = {}
        for k in runs[w][0]["metrics"]:
            med, iqr = spread([r["metrics"][k] for r in runs[w]])
            report[w][k] = {"median": med, "iqr_share": iqr}
            print(f"{w:16s} {k:18s} median {med:12.5g}  IQR/median {iqr:.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"spread": report, "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
