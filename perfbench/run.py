#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload http|bild|python|wiki_smp|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark program is built with
dune, then run with the same arguments; its last line of output is one
JSON result. `--workload all` runs every workload untraced and traced
and exits non-zero if any of them failed a check.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["http", "bild", "python", "wiki_smp"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# A run stops before an experiment that would end past --seconds, but
# makes at least three; the margin covers those on a slow host.
RUN_MARGIN_S = 160


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build(root):
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("run.py: no dune-project here; run from a checkout root", file=sys.stderr)
        return False
    proc = subprocess.run(
        # The shared dune cache lives outside the checkout; keep every
        # write inside it.
        dune + ["build", "--root", ".", "--cache=disabled", "--display", "quiet",
                "./perfbench/main.exe"],
        cwd=root,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0


def run(root, workload, seed, seconds, trace):
    args = [
        os.path.join(root, EXE),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    timeout = seconds + RUN_MARGIN_S
    proc = subprocess.Popen(args, cwd=root)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {workload} exceeded {timeout}s", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not build(root):
        return 1
    sys.stdout.flush()
    if opts.workload != "all":
        return run(root, opts.workload, opts.seed, opts.seconds, opts.trace)
    failed = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            sys.stdout.flush()
            if run(root, workload, opts.seed, opts.seconds, trace) != 0:
                failed.append(f"{workload}/trace={trace}")
    print("all workloads: " + ("FAILED " + " ".join(failed) if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
