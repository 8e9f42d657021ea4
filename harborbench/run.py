#!/usr/bin/env python3
"""Builds and runs the HARBOR benchmark (see NOTES.md beside this file).

Run from the repository root:

    python3 harborbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The binary is built from source into $CARGO_TARGET_DIR/harborbench (default
.bench_build/harborbench). Each run works in its own directory under there
and removes it afterwards. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "scan_ingest", "recover", "recover_online")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("harborbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(out_dir):
    """Configures once and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("the warehouse sources (src/) are not beside " + HERE)
    build_dir = os.path.join(out_dir, "build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "harborbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "harborbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "harborbench"))
    binary = build(out_dir)

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    scratch = os.path.join(out_dir, "runs", tag)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, tag + ".jsonl")]
    # The workload seed is the only seed: the library's HARBOR_SEED default
    # must not leak in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if k != "HARBOR_SEED"}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("harborbench exited with code %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(0)


if __name__ == "__main__":
    main()
