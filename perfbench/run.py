#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <mincut_cycle|mst_gnm|pa_apex> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark (Release, the repository's own CMake project)
under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild only what changed. Build output goes to stderr. The benchmark's own
stdout follows, its last line the JSON result; result and trace files land in
<build dir>/results. Exits non-zero, without a result, if the build or the
run fails.

BENCHMARK.json at the repository root lists the workloads and metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run exits within 180 s; the build is not counted


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return None
    return os.path.join(bdir, "perfbench")


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else "unknown"


def source_digest():
    """sha256 over the files the benchmark is built from."""
    h = hashlib.sha256()
    tops = ["src", "bench", "perfbench"]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in tops:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        if not os.path.isfile(path):
            continue
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args(argv)

    binary = build()
    if binary is None:
        return 1
    out_dir = os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir, "--commit", git_commit(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s, killed\n"
                         % RUN_TIMEOUT_S)
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
