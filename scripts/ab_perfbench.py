#!/usr/bin/env python3
"""Alternating A/B runs of the live-runtime benchmark.

    python3 scripts/ab_perfbench.py --parent REV [--change REV] \
        --work DIR [--pairs 10] [--seeds 1,2,...] \
        [--workloads null-hub,kv-zipf-rw] [--seconds 40] [--trace 0] \
        [--log FILE]

Run from the repository root. Exports the two revisions (the change
defaults to HEAD) with `git archive` into DIR/parent and DIR/change,
then runs `perfbench/run.py` in each, pair by pair and workload by
workload, alternating which side goes first. Pair i uses the i-th seed
of --seeds (default 1..pairs).

Prints one line per run as it ends, then, per workload:
- for every end-to-end metric of the change's BENCHMARK.json: each
  side's median and quartiles, the change's wins (ties count for
  neither), the median's relative move against the metric's bound, and
  whether the gain rule holds: the change wins at least 9/10 of the
  pairs and the medians differ by more than the parent's interquartile
  range;
- the trial medians of light-phase cores, closed-loop CPU per op and
  saturated throughput that perf.exe prints on stderr.

A run that reports `correct: false`, or no result at all, is followed
by why: every `CHECK FAILED:` line and the `ops:` line perf.exe wrote,
or, when it wrote none, the last lines of its stderr. Each run's record
keeps them under "checks".

With --log every run is also appended to FILE as one JSON line.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("null-hub", "kv-zipf-rw")

# perf.exe's stderr: one line per trial and the untraced medians.
TRIAL = re.compile(r"^trial \d+: .* ([0-9.]+) cores; sat ([0-9.]+) ops/s, "
                   r"([0-9.]+) us/op")
SUMMARY = re.compile(r"^\s+(closed_loop\.sat_rps|closed_loop\.cpu_us_per_op)"
                     r"\s+([0-9.eE+-]+)")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def export(rev, dest):
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_one(checkout, workload, seed, seconds, trace):
    """One perfbench run; returns a dict with the JSON result (or None)
    and the figures parsed from stderr."""
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    cores = []
    extra = {}
    checks = []
    for line in p.stderr.splitlines():
        if line.startswith(("CHECK FAILED:", "ops:")):
            checks.append(line)
        m = TRIAL.match(line)
        if m and "(traced)" not in line:
            cores.append(float(m.group(1)))
        m = SUMMARY.match(line)
        if m:
            extra[m.group(1)] = float(m.group(2))
    if cores:
        extra["light_cores"] = statistics.median(cores)
    return {"code": p.returncode, "result": result, "extra": extra,
            "checks": checks, "stderr_tail": p.stderr.splitlines()[-5:]}


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0]) if xs else (float("nan"),) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def metric(run, name):
    r = run["result"]
    if r is None or name not in r.get("metrics", {}):
        return None
    return r["metrics"][name]["value"]


def summarize(workload, pairs, end_to_end):
    print("\n== %s: %d pairs" % (workload, len(pairs)))
    ok = all(p[s]["result"] and p[s]["result"].get("correct")
             and p[s]["result"].get("failed") == 0
             for p in pairs for s in ("parent", "change"))
    print("every run correct with 0 failed ops: %s" % ok)
    print("%-14s %-26s %-26s %6s %8s %s" % (
        "metric", "parent q1/med/q3", "change q1/med/q3", "wins",
        "move", "gain rule"))
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        par = [metric(p["parent"], name) for p in pairs]
        chg = [metric(p["change"], name) for p in pairs]
        both = [(a, b) for a, b in zip(par, chg)
                if a is not None and b is not None]
        if not both:
            continue
        par = [a for a, _ in both]
        chg = [b for _, b in both]
        wins = sum(1 for a, b in both if (b < a if lower else b > a))
        pq, cq = quartiles(par), quartiles(chg)
        move = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.
        better = cq[1] < pq[1] if lower else cq[1] > pq[1]
        rule = (wins >= 0.9 * len(both) and better
                and abs(cq[1] - pq[1]) > pq[2] - pq[0])
        worse_by = move if lower else -move
        print("%-14s %-26s %-26s %3d/%-2d %+7.1f%% %s%s" % (
            name, "%.4g/%.4g/%.4g" % pq, "%.4g/%.4g/%.4g" % cq, wins,
            len(both), 100 * move, "met" if rule else "not met",
            "  (worse than the %.2f bound)" % m["bound"]
            if worse_by > m["bound"] else ""))
    for key in ("light_cores", "closed_loop.cpu_us_per_op",
                "closed_loop.sat_rps"):
        par = [p["parent"]["extra"].get(key) for p in pairs]
        chg = [p["change"]["extra"].get(key) for p in pairs]
        par = [x for x in par if x is not None]
        chg = [x for x in chg if x is not None]
        if par and chg:
            print("%-26s parent %-26s change %s" % (
                key, "%.4g/%.4g/%.4g" % quartiles(par),
                "%.4g/%.4g/%.4g" % quartiles(chg)))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--work", required=True,
                    help="scratch directory for the two checkouts")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="",
                    help="comma-separated, one per pair (default 1..pairs)")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--log", default="")
    args = ap.parse_args()

    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.pairs + 1)))
    if len(seeds) < args.pairs:
        ap.error("--seeds lists fewer seeds than --pairs")
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in WORKLOADS:
            ap.error("unknown workload %s" % w)

    sides = {s: os.path.join(os.path.abspath(args.work), s)
             for s in ("parent", "change")}
    export(args.parent, sides["parent"])
    export(args.change, sides["change"])
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]

    results = {w: [] for w in workloads}
    for i in range(args.pairs):
        seed = seeds[i]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            pair = {}
            for side in order:
                t0 = time.monotonic()
                run = run_one(sides[side], w, seed, args.seconds, args.trace)
                pair[side] = run
                r = run["result"] or {}
                log("pair %d %s seed %d %-6s %s: %s; %s (%.0f s)" % (
                    i, w, seed, side,
                    "ok" if r.get("correct") else "FAILED",
                    " ".join("%s=%.4g" % (m["name"], metric(run, m["name"]))
                             for m in end_to_end
                             if metric(run, m["name"]) is not None),
                    " ".join("%s=%.4g" % kv for kv in sorted(run["extra"].items())),
                    time.monotonic() - t0))
                if not r.get("correct"):
                    log("\n".join(run["checks"] or run["stderr_tail"]))
                if args.log:
                    with open(args.log, "a") as f:
                        f.write(json.dumps({"pair": i, "workload": w,
                                            "seed": seed, "side": side,
                                            "first": order[0], **run}) + "\n")
            results[w].append(pair)
    for w in workloads:
        summarize(w, results[w], end_to_end)


if __name__ == "__main__":
    main()
