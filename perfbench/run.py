#!/usr/bin/env python3
"""Build and run the linkpad benchmark for one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a linkpad source tree. The first run configures and
builds perfbench/ (which builds the library from the tree's sources) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. The last line of stdout is the JSON result; build
output and diagnostics go to stderr. Detailed per-run records (provenance
manifest, dispersion of every metric, spans of traced runs) land in
.bench_out/. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# What the benchmark needs from the tree besides its own files.
REQUIRED = ["CMakeLists.txt", "src/core/population.hpp", "src/core/shard_io.hpp"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(target):
    bdir = build_dir()
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            fail(f"build failed: {exc}", 3)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 3)
    return bdir / target


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: provenance that also
    works in a checkout that is not a git repository."""
    files = [ROOT / "CMakeLists.txt"]
    for sub in (ROOT / "src", HERE):
        files += [p for p in sub.rglob("*")
                  if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py")]
    h = hashlib.sha256()
    for path in sorted(set(files)):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=20030324)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        fail(f"not a linkpad source tree (missing {', '.join(missing)}); "
             "run from the repository root", 2)

    if args.self_test:
        binary = build("perfbench_tests")
        sys.exit(subprocess.run([str(binary)], stdout=sys.stderr).returncode)
    if not args.workload:
        parser.error("--workload is required")

    binary = build("linkpad_perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(ROOT / ".bench_out"),
           "--git-commit", git_commit(), "--source-digest", source_digest()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}", run.returncode)
    lines = run.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no JSON result line", 5)
    print(lines[-1])


if __name__ == "__main__":
    main()
