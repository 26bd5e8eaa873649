#!/usr/bin/env python3
"""Run one perfbench workload: build the benchmark from source, run it,
check its deterministic counts against earlier runs of the same code and
seed, and print the result object as the last line of standard output.

    python3 perfbench/run.py --workload compile_rl --seed 1 --seconds 28 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the current directory). Exit codes: 0 = every output and count
correct, 1 = a wrong output or a determinism violation (the result is still
printed), 2 = usage or build failure, 3 = the benchmark died without a result.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; build output -> stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    command = ["cmake", "--build", str(build_dir), "--target", "perfbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        return None
    binary = build_dir / "perfbench"
    return binary if binary.exists() else None


def source_key():
    """Hash of everything that decides the deterministic counts: the
    program's sources and the benchmark's own."""
    digest = hashlib.sha256()
    roots = [REPO / "src", HERE / "src", REPO / "CMakeLists.txt",
             HERE / "CMakeLists.txt"]
    for root in roots:
        files = sorted(root.rglob("*")) if root.is_dir() else [root]
        for path in files:
            if path.is_file():
                digest.update(str(path.relative_to(REPO)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(build_dir, workload, seed, counts):
    """Deterministic counts must repeat exactly between runs of the same
    code and seed, traced or not. Returns the mismatching names."""
    record_dir = build_dir / "determinism" / source_key()
    record_dir.mkdir(parents=True, exist_ok=True)
    record = record_dir / f"{workload}-seed{seed}.json"
    if not record.exists():
        record.write_text(json.dumps(counts, sort_keys=True))
        return []
    previous = json.loads(record.read_text())
    return sorted(name for name in set(previous) | set(counts)
                  if previous.get(name) != counts.get(name))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile_rl", "execute_solo",
                                 "service_packed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    if not (REPO / "src").is_dir() or not (REPO / "CMakeLists.txt").exists():
        log(f"the chehab sources are missing next to {HERE.name}/")
        return 2
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                             REPO / ".bench_build"))
    build_dir = (build_root / "perfbench").resolve()
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 2

    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(trace_dir)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 3
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(run.stdout)
        log(f"no result line (exit code {run.returncode})")
        return 3
    for line in lines[:-1]:
        print(line)

    code = run.returncode
    counts = next((json.loads(line[len("DETERMINISM "):]) for line in lines
                   if line.startswith("DETERMINISM ")), None)
    if counts is None:
        log("no deterministic counts in the output")
        result["correct"] = False
        code = 1
    else:
        mismatches = check_determinism(build_dir, args.workload, args.seed,
                                       counts)
        if mismatches:
            log("DETERMINISM VIOLATION: counts differ from an earlier run "
                f"of the same code and seed: {', '.join(mismatches)}")
            result["correct"] = False
            code = 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
