"""Training benchmark for nodefuse: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {c8,texas} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. It generates the workload's dataset from the
seed under `.perfbench-work/`, measures it in a child process whose BLAS
thread count is pinned, checks the outputs, and prints, as its last line,
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json; with `--trace 1` the
per-layer ones, from a run with spans around the library's functions.
Earlier lines hold the environment and, when traced, the self-time
breakdown per epoch. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
WORKER_TIMEOUT_S = 170
BLAS_THREADS = 2    # fixed, so that machines with more cores measure alike
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from datasets import WORKLOADS, Workload, generate  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402


def environment(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
    }


def measure(w: Workload, seed: int, seconds: float, trace: int, work: Path) -> dict:
    """Generate `w`'s dataset under `work` and return the worker's JSON output."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               PYTHONDONTWRITEBYTECODE="1")
    env.update({var: str(threads) for var in BLAS_VARS})
    data = generate(w, seed, work / "data")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--data", str(data),
         "--spec", json.dumps(asdict(w)), "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["env"] = environment(threads)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the worker is killed and the dataset removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "nodefuse" / "__init__.py").is_file():
        print(f"error: no nodefuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        out = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_work(work)

    units = {row[0]: row[1] for row in (PER_LAYER if args.trace else END_TO_END)}
    if set(out["metrics"]) != set(units):
        print(f"error: metrics {sorted(set(out['metrics']) ^ set(units))} "
              "do not match perfbench/metrics.py", file=sys.stderr)
        return 1
    print(json.dumps({"env": out["env"], "samples": out["samples"]}))
    if args.trace:
        print(json.dumps({"breakdown": out["breakdown"]}))
    for what in out["checks_failed"]:
        print(f"check failed: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": not out["checks_failed"],
        "attempted": out["checks_attempted"],
        "failed": len(out["checks_failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in out["metrics"].items()},
    }))
    return 0


def remove_work(work: Path):
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()    # only once no other run is using it
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
