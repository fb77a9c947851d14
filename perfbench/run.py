#!/usr/bin/env python3
"""Time-to-certified-answer benchmark for hi-opt (see perfbench/README.md).

    python3 perfbench/run.py --workload ladder_cold --seed 2017 \
        --seconds 20 --trace 0

Builds perfbench/ (and the hi-opt libraries it drives, from src/) into
.bench_build/perfbench, prepares the warm store ladder_warm resumes from,
runs the workload, and relays the binary's report.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits nonzero, without a result line, when anything fails to build or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ladder_cold", "ladder_warm", "crowd_sweep")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hi_perfbench")
RUN_TIMEOUT_S = 170
# Prepared warm stores kept per binary; older seeds are dropped first.
MAX_WARM_SEEDS = 24


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("hi-opt sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed")
        cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs()]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("build failed")


def sha256_file(path, h=None):
    h = h or hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h


def source_rev():
    """git revision when this is a clone, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                sha256_file(p, h)
    return "tree-sha256:" + h.hexdigest()[:16]


def warm_cache(seed):
    """The ladder_cold store and answer for `seed`, made once per binary."""
    key = sha256_file(BINARY).hexdigest()[:16]
    top = os.path.join(BUILD_DIR, "warm")
    base = os.path.join(top, key)
    cache = os.path.join(base, "seed-%d" % seed)
    if os.path.isdir(cache):
        return cache
    if os.path.isdir(top):
        for old in os.listdir(top):
            if old != key:
                shutil.rmtree(os.path.join(top, old), ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    seeds = sorted((os.path.getmtime(os.path.join(base, d)), d)
                   for d in os.listdir(base) if d.startswith("seed-"))
    for _, d in seeds[:max(0, len(seeds) - MAX_WARM_SEEDS + 1)]:
        shutil.rmtree(os.path.join(base, d), ignore_errors=True)
    tmp = "%s.tmp-%d" % (cache, os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    r = subprocess.run([BINARY, "--prepare", tmp, "--seed", str(seed)],
                       stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail("preparing the warm store failed")
    os.rename(tmp, cache)
    return cache


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2017)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    rev = source_rev()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_DIR, "runs"), "--rev", rev]
    if args.workload == "ladder_warm":
        cmd += ["--warm-cache", warm_cache(args.seed)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("benchmark exited with code %d" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print("\n".join(lines[:-1]))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
