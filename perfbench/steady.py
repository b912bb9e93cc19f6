#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report whether every
end-to-end metric repeats within its bound.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--traced 1]

For each workload it makes --runs untraced runs of BENCHMARK.json's
run_seconds, on seeds 1, 2, ..., and prints, per end-to-end metric, the
median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, the
bound from BENCHMARK.json and whether the spread fits it. It checks that
each run printed exactly the declared metrics with the declared units, that
the share of failed operations is the same in every run, and that every run
was correct. It then makes --traced traced runs. A traced run prints the
same per-layer metrics whichever workload it names, so these are made once,
not per workload; it prints how much longer a traced run takes than the
untraced workloads' median runs together (the tracing overhead).
Exit status 1 if any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def check_names(res, declared, where):
    ok = True
    got = res["metrics"]
    if set(got) != set(declared):
        print(f"  {where}: metrics {sorted(got)} != declared {sorted(declared)}")
        ok = False
    for name, m in got.items():
        if name in declared and m["unit"] != declared[name]["unit"]:
            print(f"  {where}: {name} unit {m['unit']} != declared {declared[name]['unit']}")
            ok = False
        if not isinstance(m["value"], (int, float)) or m["value"] <= 0:
            print(f"  {where}: {name} = {m['value']} is not a positive number")
            ok = False
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--traced", type=int, default=1)
    args = ap.parse_args()

    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",")
    ok = True
    untraced = 0.0
    for w in workloads:
        print(f"== {w}: {args.runs} runs, seeds 1..{args.runs}")
        values = {name: [] for name in e2e}
        shares, walls = set(), []
        for i in range(args.runs):
            seed = 1 + i
            res, wall = run_once(w, seed, seconds, 0)
            walls.append(wall)
            ok &= check_names(res, e2e, f"seed {seed}")
            if not res["correct"]:
                print(f"  seed {seed}: outputs incorrect")
                ok = False
            shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
            for name in e2e:
                values[name].append(res["metrics"].get(name, {}).get("value", float("nan")))
            print(f"  seed {seed}: {wall:.1f} s  " +
                  "  ".join(f"{n}={values[n][-1]:.6g}" for n in e2e))
        if len({0 if s == 0 else s[0] / s[1] for s in shares}) > 1:
            print(f"  failed share differs between runs: {shares}")
            ok = False
        for name, m in e2e.items():
            xs = values[name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            fits = spread <= m["bound"] / 3
            verdict = ("fits a third of bound" if fits else
                       "within bound" if spread <= m["bound"] else "OVER BOUND")
            if spread > m["bound"]:
                ok = False
            print(f"  {name:12s} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f}  bound {m['bound']}  {verdict}")
        untraced += statistics.median(walls)
    if args.traced:
        print(f"== traced: {args.traced} runs, seeds 1..{args.traced}")
    for i in range(args.traced):
        seed = 1 + i
        res, wall = run_once(workloads[0], seed, seconds, 1)
        ok &= check_names(res, layer, f"traced seed {seed}")
        if not res["correct"]:
            print(f"  traced seed {seed}: outputs incorrect")
            ok = False
        print(f"  traced run: {wall:.1f} s, untraced medians together {untraced:.1f} s, "
              f"tracing overhead {wall - untraced:+.1f} s")
    print("steady: ok" if ok else "steady: FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
