"""Pipeline benchmark for khovsolve.

One workload, in this process:

    python3 perfbench/run.py --workload fp-gr36-count --seed 1 --seconds 10 --trace 0

Every workload, each in its own fresh process, one after another:

    python3 perfbench/run.py --all --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the end-to-end metrics are measured with tracing off;
with ``--trace 1`` one round runs untraced and then traced, and the
per-layer metrics come from the traced round. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. ``--all`` also writes every result, with the environment, to
``perfbench/out/results.json``.

Results from different backends (numba or numpy kernels, BLAS builds) must
not be compared; each run prints its environment. Two runs never overlap:
a run that finds another one active exits with code 3.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fp-gr36-count", "qq-gr36-solve", "qq-gr25-osculating", "small-cli")
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")
EXIT_NO_PROGRAM = 2
EXIT_BUSY = 3


def environment(seed):
    import numpy as np

    from khovsolve import _kernels
    from workloads import PRIME

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "have_numba": bool(_kernels.HAVE_NUMBA),
        "seed": seed,
        "prime": PRIME,
    }


def run_one(args):
    """Measure one workload in this process; returns the exit code."""
    lock = open(__file__, "rb")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        print("error: another benchmark run is active; runs must not overlap",
              file=sys.stderr)
        return EXIT_BUSY
    with lock:
        import measure

        print("env", json.dumps(environment(args.seed), sort_keys=True))
        with measure.workdir(OUT) as tmp:
            if args.trace:
                spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
                report = measure.trace(args.workload, args.seed, Path(tmp), spans)
            else:
                report = measure.measure(args.workload, args.seed, args.seconds, Path(tmp))
        for line in report.notes:
            print(line)
        for label, sha in report.digests:
            print(f"digest {label} {sha}")
        for name, (value, unit) in report.metrics.items():
            print(f"{args.workload} {name} {value:.6g} {unit}")
        print(json.dumps({
            "correct": report.failed == 0,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in report.metrics.items()},
        }))
    return 0


def run_all(args):
    """Run each workload in a fresh process, one at a time."""
    results = {}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        code = code or proc.returncode
    OUT.mkdir(exist_ok=True)
    summary = {"env": environment(args.seed), "trace": args.trace,
               "seconds": args.seconds, "results": results}
    (OUT / "results.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": code == 0 and all(r and r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{w}.{n}": m for w, r in results.items() if r
                    for n, m in r["metrics"].items()},
    }))
    return code


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "khovsolve" / "__init__.py").is_file():
        print(f"error: no khovsolve sources under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
