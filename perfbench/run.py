#!/usr/bin/env python3
"""Builds the parse-path benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run the four in
turn (each in a process of its own, so that each reports its own peak
memory): their machine blocks and result lines, then one line with every
metric prefixed by its workload.

Run it from the repository root. The first run configures and builds the
`perfbench` package (perfbench/CMakeLists.txt) into .bench_build/; later
runs only check that the build is current. All build output goes to
stderr; the last line of stdout is the benchmark's JSON result. Exits
non-zero, without a result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["validate-data", "parse-code", "edit-typing", "rpc-small"]
# Time a workload may take beyond --seconds: set-ups, reference checks and
# the traced replay.
RUN_OVERHEAD_S = 150
# Directories whose contents decide the benchmark's binary.
SOURCE_DIRS = ["src", "grammars", os.path.join("bench", "common"), "perfbench"]


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def step(cmd):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr).returncode == 0
    except OSError as e:
        log(f"cannot run {cmd[0]}: {e}")
        return False


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return step(["cmake", "--build", BUILD, "--target", "perfbench",
                 "-j", jobs])


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    if not build():
        log("build failed")
        return 2
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    rev, digest = git_rev(), source_digest()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        cmd = [BINARY, "--workload", w, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--root", ROOT, "--out", OUT, "--git-rev", rev,
               "--source-digest", digest]
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            timeout = a.seconds + RUN_OVERHEAD_S
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"{w} timed out after {timeout:.0f} s")
            return 3
        if len(workloads) == 1:
            sys.stdout.write(out)
            sys.stdout.flush()
            if proc.returncode != 0:
                log(f"perfbench exited with {proc.returncode}")
            return proc.returncode
        lines = out.strip().splitlines()
        try:
            machine, result = json.loads(lines[-2]), json.loads(lines[-1])
        except (IndexError, ValueError):
            log(f"{w}: no result (exit code {proc.returncode})")
            return 3
        print(json.dumps({"workload": w, **machine}))
        print(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
    print(json.dumps(total), flush=True)
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
