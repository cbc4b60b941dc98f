#!/usr/bin/env python3
"""Build and run the rvhpc benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload wire_hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (its own CMake project,
compiling the repository's src/ into it) under .bench_build, or under
$CARGO_TARGET_DIR when that is set; later calls rebuild only what changed.
The run itself is the rvbench binary.  Its last stdout line is the
one-object JSON result; everything it writes goes to .bench_work.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(targets):
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    subprocess.run(
        ["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1),
         "--target", *targets],
        check=True, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    return bdir


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no rvhpc sources under {ROOT / 'src'}; nothing to benchmark")
        return 2

    try:
        if args.selftest:
            bdir = build(["rvbench_selftest"])
            return subprocess.run([str(bdir / "rvbench_selftest")], cwd=ROOT,
                                  timeout=RUN_TIMEOUT_S).returncode
        if not args.workload:
            log("--workload is required")
            return 2
        bdir = build(["rvbench"])
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        return 1

    work = ROOT / ".bench_work"
    cmd = [str(bdir / "rvbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--commit", commit_id()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if run.returncode != 0:
        log(f"rvbench exited with {run.returncode}")
        return run.returncode
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
