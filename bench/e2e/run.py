#!/usr/bin/env python3
"""Build bench_e2e from source if needed, then run one workload.

    python3 bench/e2e/run.py --workload <train|dp|md|serve> --seed N \
        --seconds S --trace <0|1>

Run from anywhere inside a checkout.  The build lives in
<checkout>/.bench_build/e2e (configured once, then brought up to date on
every call); build output goes to stderr so the last line of stdout is the
benchmark's one-line JSON result.  The binary runs with the build directory
as its working directory, where it leaves e2e_<workload>.json.  Exits
non-zero without a result when the build or the run fails.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build() -> Path:
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 8))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        # Configure until a configure has produced a build system.
        if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "bench_e2e", "-j", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return BUILD / "bench_e2e"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        exe = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"error: building bench_e2e failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # run() kills the child on timeout and waits for it to exit.
        r = subprocess.run(cmd, cwd=BUILD, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: bench_e2e exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
