#!/usr/bin/env python3
"""Run one workload of the live-runtime benchmark.

    python3 perfbench/run.py --workload <null-hub|kv-zipf-rw> \
        --seed N --seconds S --trace <0|1>

Run from the root of a source checkout. Builds perfbench/perf.exe with
dune, runs it in a fresh process and prints its JSON result as the last
line of stdout. Exits non-zero, without a result, when the build or
the run fails, and non-zero with a result whose "correct" is false when
a correctness check failed. Scratch files go under .perfbench/ in the
checkout: the replayed WAL, removed when the run ends, and the Chrome
traces of traced runs, kept.
"""

import argparse
import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perf.exe")
WORKLOADS = ("null-hub", "kv-zipf-rw")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


CHILDREN = set()


def on_term(signum, _frame):
    """Stop every child before exiting on SIGTERM/SIGINT."""
    for pid in CHILDREN:
        try:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass
    sys.exit(128 + signum)


def spawn(argv, stdout_path, env=None, cpus=None):
    """Start argv in its own process group, stdout to a file, on the
    CPUs in cpus if given."""
    out = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    pid = os.fork()
    if pid == 0:
        try:
            os.setpgid(0, 0)
            if cpus is not None:
                os.sched_setaffinity(0, cpus)
            os.dup2(out, 1)
            os.execvpe(argv[0], argv, env if env is not None else os.environ)
        finally:
            os._exit(127)
    os.close(out)
    CHILDREN.add(pid)
    return pid


def wait(pid, timeout_s):
    """Wait for pid; kill its process group on timeout. Returns the exit
    code, or None on timeout."""
    deadline = time.monotonic() + timeout_s
    while True:
        wpid, status = os.waitpid(pid, os.WNOHANG)
        if wpid == pid:
            CHILDREN.discard(pid)
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            CHILDREN.discard(pid)
            return None
        time.sleep(0.05)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(WORK, "cache"))
    log_path = os.path.join(WORK, "build.log")
    pid = spawn(["dune", "build", "--root", ".", "./perfbench/perf.exe"],
                log_path, env)
    code = wait(pid, BUILD_TIMEOUT_S)
    if code != 0 or not os.path.exists(EXE):
        with open(log_path, errors="replace") as f:
            sys.stderr.write(f.read())
        log("perfbench: build failed")
        return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGINT, on_term)

    os.chdir(ROOT)
    os.makedirs(WORK, exist_ok=True)
    if not build():
        return 1

    out_path = os.path.join(WORK, "result-%d.txt" % os.getpid())
    argv = [EXE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--work-dir", WORK]
    # The cluster runs in one OCaml domain, so it computes on one CPU
    # at a time. Pinned to one CPU, its threads hand the domain lock to
    # each other on that CPU; unpinned, each hand-over may wake a thread
    # on the other CPU, and throughput varied by about 40% between runs.
    cpu = max(os.sched_getaffinity(0))
    try:
        pid = spawn(argv, out_path, cpus={cpu})
        code = wait(pid, RUN_TIMEOUT_S)
        # The run directory is removed by perf.exe itself, except when
        # it was killed.
        shutil.rmtree(os.path.join(WORK, "run-%d" % pid), ignore_errors=True)
        with open(out_path, errors="replace") as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    if code is None:
        log("perfbench: run timed out")
        return 1
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: no result (exit code %s)" % code)
        return 1
    print(json.dumps(result))
    return 0 if code == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
