#!/usr/bin/env python3
"""Run the benchmark over several seeds and record each metric's spread.

Run from the root of a goldweb checkout:

    python3 perfbench/spread.py --workloads swap-churn,browse-warm --seeds 1-10 --seconds 10 [--trace 1] [--out FILE]

For every workload it runs perfbench/run.py once per seed, then prints
(and with --out writes as JSON) each metric's median, first and third
quartile, and the quartile distance as a share of the median, together
with the environment record of the runs. Quartiles are Python's
statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (%d): %s" % (workload, seed, proc.returncode, proc.stderr[-2000:]))
    env = next((json.loads(l)["env"] for l in lines if l.startswith('{"env"')), None)
    return env, json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med if med else None,
            "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="swap-churn,browse-warm,browse-during-swaps,lint-corpus")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    record = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for w in args.workloads.split(","):
        runs, env = [], None
        for seed in args.seeds:
            env, res = run_once(w, seed, args.seconds, args.trace)
            runs.append(res)
            print("%s seed %d: correct=%s failed=%d/%d" % (w, seed, res["correct"], res["failed"], res["attempted"]),
                  file=sys.stderr, flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarize(vals), unit=runs[0]["metrics"][name]["unit"])
        record["workloads"][w] = {
            "env": env,
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        for name, m in sorted(metrics.items()):
            spread = m["iqr_over_median"]
            print("%-22s %-32s median %12.6g %-6s q1 %12.6g q3 %12.6g spread %s" % (
                w, name, m["median"], m["unit"], m["q1"], m["q3"],
                "n/a" if spread is None else "%.4f" % spread), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
