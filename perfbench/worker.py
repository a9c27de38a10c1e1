"""Measuring process: set up, train, evaluate and check one workload.

It runs in its own process with the BLAS thread count fixed by its parent
(`run.py`), sees only the generated dataset directory, and drives the same
library calls as the CLI: `load_graph` -> `train(..., phase_hook=...)` ->
`embed` -> `linear_probe`, and `evaluate_clustering` when traced. It prints
one JSON object with its metrics, check counts and, when traced, the span
breakdown.

The load is a closed loop with one client: training runs of a fixed epoch
count follow one another until the time budget is spent. Library functions
are looked up on their modules at call time, so the tracer can wrap them.

    python3 perfbench/worker.py --data DIR --spec JSON --seed N \
        --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nodefuse.evaluation as evaluation
import nodefuse.graph as graph
import nodefuse.model as model
import nodefuse.training as training
from nodefuse.tensor import Tensor
from tracer import NTXENT_BWD, Tracer

# Set-up and evaluation are timed in blocks: the call repeats until BLOCK_S
# has passed, and the block reports the mean per call. On texas one call
# takes 20-300 ms, and on a shared machine such a short sample swings with
# the neighbours' load.
BLOCK_S = 1.0
# Set-up blocks are taken at both ends of the process. The host's speed
# drifts over tens of seconds, so blocks taken only at the start would sample
# one moment, while the epochs sample the whole run.
SETUP_BLOCKS = 2    # at each end
SPLIT_RATIO = (0.48, 0.32, 0.2)
N_SPLITS = 10
F_EMBED = 256
DIMS = (F_EMBED, 64, 30)


@dataclass
class Checks:
    attempted: int = 0
    failed: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed.append(what)


@dataclass
class Run:
    traced: bool
    start: float
    end: float
    epoch_s: list[float]        # EpochRecord.seconds, warm-up first
    pre_epoch_s: float          # train() wall time not inside any epoch
    marks: list[tuple[int, str, float]]
    loss_final: float
    probe_acc: float
    eval_s: float               # embed + linear_probe, mean over a block
    wall_s: float               # the whole run, checks and evaluation included


def block_mean(fn):
    """Call `fn` until BLOCK_S has passed; return (seconds per call, last result)."""
    calls, t0 = 0, time.perf_counter()
    while True:
        out = fn()
        calls += 1
        spent = time.perf_counter() - t0
        if spent >= BLOCK_S:
            return spent / calls, out


def _ckpt_roundtrip(params, path: Path) -> bool:
    model.save_checkpoint(params, path)
    back = model.load_checkpoint(path)
    a, b = params.all_params(), back.all_params()
    return (back.dims == params.dims and a.keys() == b.keys()
            and all(np.array_equal(a[k].data, b[k].data) for k in a))


def one_run(g, cfg, seed: int, work: Path, checks: Checks, traced: bool) -> Run:
    marks: list[tuple[int, str, float]] = []

    def hook(epoch, phase, params):
        marks.append((epoch, phase, time.perf_counter()))

    t0 = time.perf_counter()
    report = training.train(g, cfg, phase_hook=hook)
    t1 = time.perf_counter()
    recs = report.records
    checks.expect(len(recs) == cfg.epochs, "fixed epoch count")
    checks.expect(all(math.isfinite(r.contrast_loss) and math.isfinite(r.controller_loss)
                      for r in recs), "finite losses")

    params = report.params
    x = Tensor(g.features.astype(params.enc_w1.data.dtype))
    adj = graph.normalized_adjacency_sparse(g).astype(x.data.dtype)
    lam = model.controller_lambda(params, model.encode_semantic(params, x),
                                  model.encode_contextual(params, x, adj),
                                  g.degree).values
    checks.expect(bool(np.all((lam > 0) & (lam < 1))), "lambda in (0, 1)")
    checks.expect(_ckpt_roundtrip(params, work / "model.ckpt"), "checkpoint round-trip")

    def evaluate():
        emb = training.embed(g, params)
        splits = graph.make_splits(g, SPLIT_RATIO, N_SPLITS, seed)
        return emb, evaluation.linear_probe(emb, g.labels, splits, seed=seed)

    eval_s, (emb, probe) = block_mean(evaluate)
    if traced:
        evaluation.evaluate_clustering(emb, g.labels, seed=seed)
    checks.expect(emb.shape == (g.n_nodes, F_EMBED), "embedding shape")
    checks.expect(probe.mean > 1.0 / g.n_classes, "probe accuracy above chance")

    return Run(traced=traced, start=t0, end=t1,
               epoch_s=[r.seconds for r in recs],
               pre_epoch_s=(t1 - t0) - sum(r.seconds for r in recs),
               marks=marks, loss_final=recs[-1].contrast_loss,
               probe_acc=probe.mean, eval_s=eval_s,
               wall_s=time.perf_counter() - t0)


def epoch_windows(tracer: Tracer, run: Run):
    """(epoch, start, contrast hook, controller hook) for each epoch of `run`.

    An epoch starts where train() calls `mask_features`, its first call, and
    ends at the controller phase hook; the contrast hook splits the phases.
    """
    starts = [s.start for s in tracer.within(run.start, run.end)
              if s.name == "augment.mask_features"]
    hooks: dict[int, dict[str, float]] = {}
    for epoch, phase, t in run.marks:
        hooks.setdefault(epoch, {})[phase] = t
    return [(e, st, hooks[e]["contrast"], hooks[e]["controller"])
            for e, st in zip(sorted(hooks), starts)]


@dataclass
class Tally:
    seconds: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    work: float = 0.0


def layer_metrics(tracer: Tracer, runs: list[Run], g, dtype) -> tuple[dict, dict]:
    """Per-layer metrics from the traced runs, plus the self-time breakdown.

    Epoch sums cover the measured epochs (warm-up excluded) and are divided
    by their count. `training.other.s` is epoch wall time (EpochRecord) minus
    the self time of every span inside the epoch: the work no span covers.
    """
    traced = [r for r in runs if r.traced]
    tally: dict[str, Tally] = {}
    contrast = controller = window = wall = other = 0.0
    n_epochs = 0
    for run in traced:
        for e, start, hook_c, hook_k in epoch_windows(tracer, run)[1:]:
            spans = tracer.within(start, hook_k)
            for s in spans:
                t = tally.setdefault(s.name, Tally())
                t.seconds += s.duration
                t.self_s += s.self_time
                t.calls += 1
                t.work += s.work
            n_epochs += 1
            contrast += hook_c - start
            controller += hook_k - hook_c
            window += hook_k - start
            wall += run.epoch_s[e - 1]
            other += run.epoch_s[e - 1] - sum(s.self_time for s in spans)

    def epoch(name, stat="seconds"):
        t = tally.get(name)
        return getattr(t, stat) / n_epochs if t else 0.0

    def per_call(name):
        return statistics.median(s.duration for s in tracer.spans if s.name == name)

    m = {
        "graph.load_graph.s": per_call("graph.load_graph"),
        "graph.build_graph.s": per_call("graph.build_graph"),
        "graph.normalized_adjacency_sparse.s": epoch("graph.normalized_adjacency_sparse"),
        "augment.drop_edges.s": epoch("augment.drop_edges"),
        "augment.mask_features.s": epoch("augment.mask_features"),
        "model.encode_semantic.s": epoch("model.encode_semantic"),
        "model.encode_contextual.s": epoch("model.encode_contextual"),
        "model.project.s": epoch("model.project"),
        "model.controller_lambda.s": epoch("model.controller_lambda"),
        "losses.view_loss.s": epoch("losses.view_loss"),
        "losses.controller_loss.s": epoch("losses.controller_loss"),
        "tensor.ntxent_view.fwd_s": epoch("tensor.ntxent_view"),
        "tensor.ntxent_view.bwd_s": epoch(NTXENT_BWD),
        "tensor.ntxent_view.calls": epoch("tensor.ntxent_view", "calls"),
        # computed: the three N x N buffers one call keeps alive
        "tensor.ntxent_view.nxn_bytes": 3 * g.n_nodes ** 2 * np.dtype(dtype).itemsize,
        "tensor.ntxent_view.gemm_flop": epoch("tensor.ntxent_view", "work"),
        "tensor.spmm.s": epoch("tensor.spmm"),
        "tensor.spmm.calls": epoch("tensor.spmm", "calls"),
        "tensor.spmm.nnz_cols": epoch("tensor.spmm", "work"),
        "tensor.matmul.s": epoch("tensor.matmul"),
        "tensor.matmul.calls": epoch("tensor.matmul", "calls"),
        "tensor.backward.self_s": epoch("tensor.backward", "self_s"),
        "tensor.adam_step.s": epoch("tensor.adam_step"),
        "training.contrast_phase.s": contrast / n_epochs,
        "training.controller_phase.s": controller / n_epochs,
        "training.first_epoch.s": statistics.median(r.epoch_s[0] for r in traced),
        "training.other.s": other / n_epochs,
        "training.embed.s": per_call("training.embed"),
        "evaluation.linear_probe.s": per_call("evaluation.linear_probe"),
        "evaluation.kmeans.s": sum(s.duration for s in tracer.spans
                                   if s.name == "evaluation.kmeans") / len(traced),
        "trace.overhead_pct": 100.0 * (epoch_median(traced)
                                       / epoch_median([r for r in runs if not r.traced]) - 1),
    }
    breakdown = {
        "epochs": n_epochs,
        "epoch_wall_s": wall / n_epochs,
        "span_window_s": window / n_epochs,
        "self_s": {name: t.self_s / n_epochs for name, t in
                   sorted(tally.items(), key=lambda kv: -kv[1].self_s)},
    }
    breakdown["self_s"]["training.other"] = other / n_epochs
    return m, breakdown


def epoch_median(runs: list[Run]) -> float:
    """Median epoch over all runs, each run's warm-up epoch excluded."""
    return statistics.median(s for r in runs for s in r.epoch_s[1:])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data", required=True, type=Path)
    ap.add_argument("--spec", required=True, help="workload as JSON")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    spec = json.loads(args.spec)
    trace = bool(args.trace)
    tracer = Tracer()
    checks = Checks()
    work = args.data.parent

    load_s = []

    def setup_blocks():
        with tracer.installed() if trace else nullcontext():
            for _ in range(SETUP_BLOCKS):
                seconds, g = block_mean(lambda: graph.load_graph(args.data))
                load_s.append(seconds)
        return g

    g = setup_blocks()
    checks.expect((g.n_nodes, g.n_edges, g.n_features)
                  == (spec["n_nodes"], spec["n_edges"], spec["n_features"]),
                  "dataset shape")

    epochs = spec["trace_epochs"] if trace else spec["epochs"]
    cfg = training.TrainConfig(seed=args.seed, epochs=epochs, patience=None,
                               precision=spec["precision"], dims=DIMS)
    # Training runs repeat while the next one fits in the time budget. A
    # traced process first makes one untraced run, to measure the overhead.
    # k-means is timed only when traced: its Lloyd iteration count depends
    # on the data, so it would make eval_s vary with the seed.
    runs: list[Run] = []
    t_begin = time.perf_counter()
    while True:
        traced = trace and bool(runs)
        with tracer.installed() if traced else nullcontext():
            runs.append(one_run(g, cfg, args.seed, work, checks, traced))
        spent = time.perf_counter() - t_begin
        if (runs[-1].traced or not trace) and spent + runs[-1].wall_s > args.seconds:
            break
    setup_blocks()

    out = {"checks_attempted": checks.attempted, "checks_failed": checks.failed}
    if trace:
        out["metrics"], out["breakdown"] = layer_metrics(tracer, runs, g, cfg.dtype)
    else:
        out["metrics"] = {
            "epoch_s": epoch_median(runs),
            "setup_s": statistics.median(load_s)
                       + statistics.median(r.pre_epoch_s for r in runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "eval_s": statistics.median(r.eval_s for r in runs),
            "probe_acc": runs[-1].probe_acc,
            "loss_final": runs[-1].loss_final,
        }
    out["samples"] = {"runs": len(runs), "epochs": sum(len(r.epoch_s) - 1 for r in runs),
                      "setup_blocks": len(load_s)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
