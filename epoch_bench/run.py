#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one measurement.

    python3 epoch_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout; build output goes to stderr, and the last
stdout line is the benchmark's JSON result. Exits non-zero, printing no
result, when the sources are missing or the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("epoch_bench: no sources under src/; nothing to benchmark")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "epoch_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "epoch_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target).resolve() / "epoch_bench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"epoch_bench: build failed: {err}", file=sys.stderr)
        return 1

    out_dir = build_dir / "runs"
    out_dir.mkdir(exist_ok=True)
    trace_out = out_dir / f"trace-{args.workload}-{args.seed}.json"
    result = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--trace-out", str(trace_out), "--repeat-dir", str(out_dir),
         "--build-id", str(binary.stat().st_mtime_ns)],
        stdout=subprocess.PIPE, text=True)
    if result.returncode != 0:
        return result.returncode
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
