#!/usr/bin/env python3
"""Check that the benchmark is steady: run it over several seeds and
report each end-to-end metric's spread against its bound.

    python3 perfbench/steady.py [--workloads theorem1,search,serve]
        [--seeds 10] [--first-seed 1] [--trace-runs 2]
        [--save medians.json] [--against medians.json]

For every workload, runs `run.py --trace 0` once per seed and computes,
per end-to-end metric, the interquartile range of the values as a share
of their median (quartiles as statistics.quantiles(values, n=4) gives
them).  Every spread except setup_s must stay under the metric's bound;
the target is a third of it.  Then runs `run.py --trace 1` on
[--trace-runs] seeds and requires the exact work counters ("exact" lines)
to repeat exactly, and no NONDETERMINISTIC line.  --save writes the
medians; --against compares them with saved ones and fails when a median
got worse by more than its bound.  Exits 1 on any failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        return None, lines
    return json.loads(lines[-1]), lines


def worse(metric, new, old):
    """How much worse [new] is than [old], as a share of [old]."""
    d = (new - old) / old
    return d if metric["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace-runs", type=int, default=2)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    ok = True
    medians = {}
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            doc, lines = run(w, seed, seconds, 0)
            if doc is None or not doc["correct"] or doc["failed"]:
                print(f"{w} seed {seed}: FAILED run", file=sys.stderr)
                print("\n".join(lines[-5:]), file=sys.stderr)
                ok = False
                continue
            for k, v in doc["metrics"].items():
                values[k].append(v["value"])
            print(f"{w} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items()),
                file=sys.stderr, flush=True)
        medians[w] = {}
        for m in spec["end_to_end"]:
            vs = values[m["name"]]
            if len(vs) < 2:
                ok = False
                continue
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2
            medians[w][m["name"]] = q2
            verdict = "ok"
            if m["name"] != "setup_s" and spread >= m["bound"]:
                verdict, ok = "OVER BOUND", False
            elif m["name"] != "setup_s" and spread >= m["bound"] / 3:
                verdict = "over target (bound/3)"
            print(f"{w:9} {m['name']:18} median {q2:12.6g} {m['unit']:4} "
                  f"spread {spread:7.4f} bound {m['bound']:.2f}  {verdict}")
        counters = []
        for seed in range(args.first_seed, args.first_seed + args.trace_runs):
            doc, lines = run(w, seed, seconds, 1)
            if doc is None or not doc["correct"]:
                print(f"{w} traced seed {seed}: FAILED run", file=sys.stderr)
                ok = False
                continue
            for line in lines:
                if line.startswith("NONDETERMINISTIC"):
                    print(f"{w} seed {seed}: {line}")
                    ok = False
            counters.append({l.split()[1]: l.split()[2] for l in lines
                             if l.startswith("exact ")})
        if counters and any(c != counters[0] for c in counters):
            print(f"{w}: exact counters differ across runs: {counters}")
            ok = False
        elif counters:
            print(f"{w}: exact counters repeat over {len(counters)} traced runs: "
                  + ", ".join(f"{k}={v}" for k, v in counters[0].items()))
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(medians, fh, indent=2)
    if args.against:
        with open(args.against) as fh:
            old = json.load(fh)
        for w in workloads:
            for m in spec["end_to_end"]:
                a, b = old.get(w, {}).get(m["name"]), medians[w].get(m["name"])
                if a is None or b is None:
                    continue
                d = worse(m, b, a)
                verdict = "ok" if d <= m["bound"] else "WORSE THAN BOUND"
                if d > m["bound"]:
                    ok = False
                print(f"{w:9} {m['name']:18} median {a:.6g} -> {b:.6g} "
                      f"({d:+.4f} worse) {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
