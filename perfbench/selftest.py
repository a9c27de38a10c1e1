"""Self-test of the benchmark harness; runs in seconds.

    python3 perfbench/selftest.py

For each workload it measures a tiny variant (same code path, a 120-node
graph) untraced and traced, and asserts that:
- BENCHMARK.json lists the workloads and the metric tables of metrics.py;
- each run reports exactly the metric names BENCHMARK.json lists;
- every output check the run attempted passed;
- the traced spans of an epoch add up to its wall time within 5%;
- without the repository's sources, run.py fails and prints no result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

from datasets import WORKLOADS, Workload
from metrics import benchmark_entries
from run import HERE, ROOT, WORK_ROOT, measure, remove_work

SPAN_TOLERANCE = 0.05


def tiny(w: Workload) -> Workload:
    """A seconds-sized variant of `w` that runs the same code path."""
    f = min(w.n_features, 64)
    return replace(w, n_nodes=min(w.n_nodes, 120), n_edges=min(w.n_edges, 600),
                   n_features=f, topic_words=min(w.topic_words, f // 8), epochs=3,
                   trace_epochs=3)


def check_benchmark_json(bench: dict) -> list[str]:
    e2e, layers = benchmark_entries()
    errors = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from datasets.WORKLOADS")
    if bench["end_to_end"] != e2e or bench["per_layer"] != layers:
        errors.append("BENCHMARK.json metrics differ from metrics.py")
    return errors


def check_run(name: str, trace: int, out: dict, expected: set[str]) -> list[str]:
    errors = []
    if set(out["metrics"]) != expected:
        errors.append(f"{name} trace={trace}: metric names "
                      f"{sorted(set(out['metrics']) ^ expected)} differ")
    if out["checks_failed"]:
        errors.append(f"{name} trace={trace}: checks failed: {out['checks_failed']}")
    if trace:
        b = out["breakdown"]
        gap = abs(b["span_window_s"] - b["epoch_wall_s"]) / b["epoch_wall_s"]
        if gap > SPAN_TOLERANCE:
            errors.append(f"{name}: spans cover {b['span_window_s']:.6f} s of a "
                          f"{b['epoch_wall_s']:.6f} s epoch ({100 * gap:.1f}% off)")
    return errors


def check_fails_without_sources() -> list[str]:
    bare = WORK_ROOT / f"bare-{os.getpid()}"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "texas", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=60)
    finally:
        remove_work(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py without sources exited 0 or printed a result"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_benchmark_json(bench)
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    for name, w in WORKLOADS.items():
        small = tiny(w)
        for trace in (0, 1):
            work = WORK_ROOT / f"selftest-{name}-{trace}-{os.getpid()}"
            try:
                out = measure(small, seed=0, seconds=0.1, trace=trace, work=work)
            finally:
                remove_work(work)
            errors += check_run(name, trace, out, names[trace])
            print(f"{name} trace={trace}: {out['samples']}")
    errors += check_fails_without_sources()
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
