#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload kv_etc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check --workload churn_gc --seed 1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and is incremental, so only the first run in
a checkout compiles. The benchmark's last stdout line is its JSON result;
build output goes to stderr. A traced run (--trace 1) also writes a Chrome
trace-event file under <build dir>/traces/. Exits non-zero, without a result
line, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# Host-clock metrics; everything else is simulated and must repeat exactly.
HOST_METRICS = {"host_s", "setup_s", "peak_rss_mib"}


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} exited {done.returncode}", file=sys.stderr)
            return False
    return True


def bench_env():
    """The environment the benchmark runs in: glibc's malloc backs its heap
    with transparent huge pages (on hosts whose THP mode is "madvise" or
    "always"), so the workloads' scattered page-table and image structures
    cost far fewer TLB misses, and their host time varies less with how the
    host maps the process's memory."""
    env = dict(os.environ)
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + ["glibc.malloc.hugetlb=1"])
    return env


def run(cmd):
    """The benchmark's stdout, or None when it failed."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=bench_env(),
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: benchmark exited {done.returncode}", file=sys.stderr)
        return None
    return done.stdout.decode()


def fingerprint(out):
    """(simulated metrics, digests, correct) of one run's output."""
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    digests = [f for f in lines[-2].split() if "_digest=" in f]  # input, then counters
    sim = {k: v["value"] for k, v in result["metrics"].items() if k not in HOST_METRICS}
    return sim, digests, result["correct"]


def self_check(binary, args):
    """Same seed twice: identical simulated metrics and digests. Seed + 1:
    different inputs, and every check passes in all three runs."""
    runs = []
    for seed in (args.seed, args.seed, args.seed + 1):
        out = run([binary, "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"])
        if out is None:
            return 1
        runs.append(fingerprint(out))
    (sim_a, dig_a, ok_a), (sim_b, dig_b, ok_b), (_, dig_c, ok_c) = runs
    same = sim_a == sim_b and dig_a == dig_b
    differs = dig_a[0] != dig_c[0]
    correct = ok_a and ok_b and ok_c
    print(f"perfbench self-check {args.workload} seed={args.seed}: same-seed repeat "
          f"{'identical' if same else 'DIFFERS'}, seed+1 inputs "
          f"{'differ' if differs else 'IDENTICAL'}, checks {'pass' if correct else 'FAIL'}")
    if not same:
        for key in sorted(sim_a):
            if sim_a[key] != sim_b.get(key):
                print(f"  {key}: {sim_a[key]!r} vs {sim_b.get(key)!r}")
    return 0 if same and differs and correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["kv_etc", "app_standby", "churn_gc"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="same seed twice must match; seed+1 must differ")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    binary = os.path.join(out, "perfbench")
    if args.self_check:
        return self_check(binary, args)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    stdout = run(cmd)
    if stdout is None:
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
