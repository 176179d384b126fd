#!/usr/bin/env python3
"""Build and run the gpuhms serving benchmark.

Run from the root of a checkout:

    python3 hmsbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

Builds gpuhms_serve and the hmsbench program from source into
$CARGO_TARGET_DIR (default .bench_build), then runs one workload. The last
line of standard output is the JSON result; the exit code is 0 only when
every output check passed. See hmsbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("search-lowering", "search-replay", "serve-warm", "serve-churn")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        sys.exit("hmsbench: --seconds must be >= 1 and --seed >= 0")

    bench_dir = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))
    for needed in ("src/CMakeLists.txt", "examples/gpuhms_serve.cpp"):
        if not os.path.isfile(needed):
            sys.exit(f"hmsbench: {needed} not found; run from the root of a "
                     "gpuhms checkout")

    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "hmsbench")
    cmake = ["cmake", "-S", bench_dir, "-B", build,
             "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build, "CMakeCache.txt")):
        cmake += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (cmake, ["cmake", "--build", build, "-j", jobs]):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("hmsbench: build failed: " + " ".join(cmd))

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True) if shutil.which("git") else None
    # Relative, so the daemon's socket path stays within the 108-byte limit.
    workdir = os.path.relpath(os.path.join(build, "runs"))
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(build, "hmsbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(build, "gpuhms_serve"),
           "--workdir", workdir,
           "--commit", commit.stdout.strip()
           if commit and commit.returncode == 0 else "unknown"]
    # Replace this process: hmsbench is then the only process the caller
    # waits on, and the daemons it spawns die with it.
    sys.stdout.flush()
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    main()
