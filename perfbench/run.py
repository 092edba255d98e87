#!/usr/bin/env python3
"""Build the repository benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload <char_cold|enforce_large|serve_mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every call configures and builds
perfbench/ (which pulls in the phes library sources next to it) into
.bench_build/perfbench; after the first call that is an incremental
no-op.  Build output
goes to stderr; stdout carries the benchmark's own lines, the last of
which is the JSON result.  Exits non-zero, without a result, when the
build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build():
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    """SHA-256 over the library, its headers and the benchmark sources."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_file):
        with open(ref_file) as fh:
            return fh.read().strip()
    return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["char_cold", "enforce_large", "serve_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 1

    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        log("run exceeded", RUN_TIMEOUT_S, "s")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode())
        log("perfbench exited with", proc.returncode)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
