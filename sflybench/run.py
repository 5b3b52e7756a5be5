#!/usr/bin/env python3
"""sfly-bench: the repository's end-to-end + per-layer benchmark.

    python3 sflybench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 sflybench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Builds the library, sflyd and the sfly_bench program from the sources of
the checkout it sits in (CMake, Release, build directory $CARGO_TARGET_DIR
or .bench_build), then runs one workload and relays the output of sfly_bench.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs the
four workloads one after another (the human-readable figures of each, no
single JSON line).  See sflybench/README.md.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["sim_sweep", "svc_mix", "large_route", "failure_trials"]
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def die_with_parent():
    """Runs in the sfly_bench child before exec: SIGKILL it if run.py dies."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def threads():
    # Load comes from one process using at most 4 threads/connections, so
    # figures from bigger machines stay comparable.
    return max(1, min(4, os.cpu_count() or 1))


def build(build_dir: Path) -> Path:
    """Configure (once) and build; returns the build directory."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"sfly-bench: repository sources not found under {ROOT}")
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").is_file():
        rc = subprocess.call(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if rc != 0:
            sys.exit(f"sfly-bench: cmake configure failed ({rc})")
    rc = subprocess.call(
        ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
         "--target", "sfly_bench", "sflyd"], stdout=log, stderr=log)
    if rc != 0:
        sys.exit(f"sfly-bench: build failed ({rc})")
    return build_dir


def run_timeout(seconds: float) -> float:
    """run.py kills a run's process group past this many seconds: the
    window plus as long again for the 1-thread reference pass, and room
    for the set-ups and a traced run's probes."""
    return 2 * seconds + 110


def run_one(build_dir: Path, workload: str, seed: int, seconds: float, trace: int) -> int:
    workdir = build_dir / "work" / workload
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "sfly_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(threads()), "--sflyd", str(build_dir / "repo" / "sflyd"),
           "--workdir", str(workdir)]
    # Own session: on timeout the whole group (sfly_bench + sflyd) is killed.
    # sfly_bench also dies with run.py, and sflyd with sfly_bench.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, preexec_fn=die_with_parent)
    try:
        out, _ = proc.communicate(timeout=run_timeout(seconds))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"sfly-bench: {workload} did not finish within {run_timeout(seconds):.0f} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = build((ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve())
    if args.workload != "all":
        return run_one(build_dir, args.workload, args.seed, args.seconds, args.trace)
    worst = 0
    for w in WORKLOADS:
        print(f"## workload {w}", flush=True)
        worst = max(worst, run_one(build_dir, w, args.seed, args.seconds, args.trace))
    return worst


if __name__ == "__main__":
    sys.exit(main())
