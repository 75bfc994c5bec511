#!/usr/bin/env python3
"""Build and run the live-path benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload create-mem --seed 1 --seconds 10 --trace 0

The Go program under perfbench/ is built into .bench_build/ with a
build cache kept there too, so a run reads and writes only inside the
checkout. Every argument is passed through to the program; its last
line of standard output is the run's JSON result.

Optional: --out FILE --label NAME append the run's metrics as labelled
CSV rows to FILE, for perfbench/compare.py. --all in place of
--workload runs every workload in turn and fails if any run fails.
"""
import csv
import json
import os
import subprocess
import sys
import time

WORKLOADS = ["create-mem", "durable-churn", "storm-fanout", "frames"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOENV": "off",
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: building the benchmark failed\n")
        sys.exit(1)


def split_args(argv):
    """Separate run.py's own --out/--label from the program's arguments."""
    own, rest = {}, []
    i = 0
    while i < len(argv):
        if argv[i] in ("--out", "--label") and i + 1 < len(argv):
            own[argv[i][2:]] = argv[i + 1]
            i += 2
            continue
        rest.append(argv[i])
        i += 1
    return own, rest


def arg(rest, name, default=""):
    for i, a in enumerate(rest):
        if a == name and i + 1 < len(rest):
            return rest[i + 1]
    return default


def record(path, label, rest, result):
    fresh = not os.path.exists(path)
    with open(path, "a", newline="") as f:
        w = csv.writer(f)
        if fresh:
            w.writerow(["timestamp", "label", "workload", "seed", "trace", "metric", "value", "unit", "correct"])
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")
        for name, m in sorted(result["metrics"].items()):
            w.writerow([stamp, label, arg(rest, "--workload"), arg(rest, "--seed"), arg(rest, "--trace", "0"),
                        name, repr(m["value"]), m["unit"], result["correct"]])


def run_one(own, rest):
    proc = subprocess.run([BINARY] + rest, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 0 and "out" in own:
        lines = proc.stdout.strip().splitlines()
        record(own["out"], own.get("label", "run"), rest, json.loads(lines[-1]))
    return proc.returncode


def main():
    own, rest = split_args(sys.argv[1:])
    build()
    if "--all" not in rest:
        sys.exit(run_one(own, rest))
    rest = [a for a in rest if a != "--all"]
    failed = []
    for w in WORKLOADS:
        print(f"== {w}", flush=True)
        if run_one(own, ["--workload", w] + rest) != 0:
            failed.append(w)
    if failed:
        sys.stderr.write("run.py: failed workloads: " + ", ".join(failed) + "\n")
        sys.exit(1)


if __name__ == "__main__":
    main()
