#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
re-check the build. The benchmark's stdout is passed through unchanged: its
last line is the JSON result. A copy of each result, with its detail line
(host fingerprint, tail percentile, plans), is kept under
<build root>/results/ for perfbench/compare.py. The traced run's spans go to
<build root>/spans/.

Exit status: the benchmark's (0 = every query verified, 1 = a failed or
wrong query), 2 when the sources or arguments are missing, 3 when the build
fails or the benchmark prints no result, 124 on a timeout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure once, then build; compiler output goes to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {root / 'src'}; "
            "run from a full checkout")
        return 2
    build_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"build failed: {e}")
        return 3

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        spans_dir = build_root / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans_dir / f"{args.workload}-seed{args.seed}.json")]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 124
    sys.stdout.write(out)
    sys.stdout.flush()

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = next(json.loads(l[len("detail "):]) for l in reversed(lines)
                      if l.startswith("detail "))
    except (IndexError, StopIteration, json.JSONDecodeError):
        log(f"benchmark printed no result (exit {proc.returncode})")
        return 3
    results_dir = build_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": int(args.trace),
              "seconds": args.seconds, "wall_s": time.monotonic() - start,
              "detail": detail, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
