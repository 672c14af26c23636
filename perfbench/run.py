#!/usr/bin/env python3
"""Build the tightspace benchmark and run one workload.

    python3 perfbench/run.py --workload theorem1|search|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench.exe with dune
(release profile, build tree under .bench_build/), prints the machine
context, then runs the workload in its own process.  The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}, whose
metrics are BENCHMARK.json's end_to_end list with --trace 0 and its
per_layer list with --trace 1.  Exits non-zero without a result when the
checkout cannot be built or the workload fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
RUN_DIR = ".bench_run"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170
SOURCES = ["dune-project", "dune", "lib", "bin", "perfbench"]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def tree_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else []
        for d, dirs, files in os.walk(top):
            dirs[:] = [x for x in dirs if not x.startswith(("_", "."))]
            paths += [os.path.join(d, f) for f in files]
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def output_of(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def context():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "commit": output_of(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None,
        "tree_sha256": tree_digest(),
        "ocaml": output_of(["ocamlfind", "ocamlopt", "-version"])
        or output_of(["ocamlopt", "-version"]),
    }


def build():
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", os.path.abspath(BUILD_DIR), "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")


def check_result(line, spec, trace):
    """The workload's result line, checked against BENCHMARK.json."""
    doc = json.loads(line)
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for k, v in doc["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail(f"metric {k} has no numeric value")
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["theorem1", "search", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("not at the root of a tightspace checkout (no dune-project or lib/)")
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")

    build()
    print("context " + json.dumps(context(), sort_keys=True), flush=True)

    run_dir = os.path.join(RUN_DIR, str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_TIMEOUT} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines:
        print(r.stdout, end="")
        fail(f"workload {args.workload} exited with code {r.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    doc = check_result(lines[-1], spec, args.trace == 1)
    print(json.dumps(doc), flush=True)


if __name__ == "__main__":
    main()
