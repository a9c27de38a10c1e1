"""The benchmark's metrics, and which end-to-end metric each layer should move.

BENCHMARK.json carries name, unit and direction (and, end to end, the bound).
The `moves` column lives here because BENCHMARK.json admits no other keys:
it names the end-to-end metric a per-layer metric should move and the
workloads where that effect is expected to show, written down before any
optimization is measured.
"""

from __future__ import annotations

# name, unit, better, bound
END_TO_END = [
    ("epoch_s", "s", "lower", 0.25),       # median epoch, warm-up excluded
    ("setup_s", "s", "lower", 0.25),       # load_graph + train() before epoch 1
    ("peak_rss_mb", "MB", "lower", 0.1),   # peak RSS of the measuring process
    ("eval_s", "s", "lower", 0.25),        # embed + linear_probe
    ("probe_acc", "fraction", "higher", 0.25),  # mean linear-probe test accuracy
    ("loss_final", "nats", "lower", 0.05),  # contrast loss at the last epoch
]

# name, unit, better, moves: (end-to-end metric, workloads where it shows).
# Times are seconds per measured epoch unless the name says otherwise:
# graph.load_graph/build_graph are per call in set-up, the evaluation spans
# per evaluation. "computed" metrics are derived from call arguments.
PER_LAYER = [
    ("graph.load_graph.s", "s", "lower", ("setup_s", "c8")),
    ("graph.build_graph.s", "s", "lower", ("setup_s", "c8")),
    ("graph.normalized_adjacency_sparse.s", "s", "lower", ("epoch_s", "c8")),
    ("augment.drop_edges.s", "s", "lower", ("epoch_s", "c8")),
    ("augment.mask_features.s", "s", "lower", ("epoch_s", "c8")),
    ("model.encode_semantic.s", "s", "lower", ("epoch_s", "texas")),
    ("model.encode_contextual.s", "s", "lower", ("epoch_s", "c8 texas")),
    ("model.project.s", "s", "lower", ("epoch_s", "c8 texas")),
    ("model.controller_lambda.s", "s", "lower", ("epoch_s", "c8 texas")),
    ("losses.view_loss.s", "s", "lower", ("epoch_s", "c8")),
    ("losses.controller_loss.s", "s", "lower", ("epoch_s", "c8 texas")),
    ("tensor.ntxent_view.fwd_s", "s", "lower", ("epoch_s", "c8")),
    ("tensor.ntxent_view.bwd_s", "s", "lower", ("epoch_s", "c8")),
    ("tensor.ntxent_view.calls", "count", "lower", ("epoch_s", "c8")),
    ("tensor.ntxent_view.nxn_bytes", "bytes", "lower", ("peak_rss_mb", "c8")),
    ("tensor.ntxent_view.gemm_flop", "flop", "lower", ("epoch_s", "c8")),
    ("tensor.spmm.s", "s", "lower", ("epoch_s", "c8")),
    ("tensor.spmm.calls", "count", "lower", ("epoch_s", "c8")),
    ("tensor.spmm.nnz_cols", "count", "lower", ("epoch_s", "c8")),
    ("tensor.matmul.s", "s", "lower", ("epoch_s", "texas")),
    ("tensor.matmul.calls", "count", "lower", ("epoch_s", "texas")),
    ("tensor.backward.self_s", "s", "lower", ("epoch_s", "texas c8")),
    ("tensor.adam_step.s", "s", "lower", ("epoch_s", "texas")),
    ("training.contrast_phase.s", "s", "lower", ("epoch_s", "c8 texas")),
    ("training.controller_phase.s", "s", "lower", ("epoch_s", "c8 texas")),
    ("training.first_epoch.s", "s", "lower", ("setup_s", "c8 texas")),
    ("training.other.s", "s", "lower", ("epoch_s", "texas")),
    ("training.embed.s", "s", "lower", ("eval_s", "c8 texas")),
    ("evaluation.linear_probe.s", "s", "lower", ("eval_s", "c8 texas")),
    ("evaluation.kmeans.s", "s", "lower", ("eval_s", "none: not in eval_s, see README")),
    ("trace.overhead_pct", "%", "lower", ("epoch_s", "c8 texas: traced minus untraced")),
]


def benchmark_entries():
    """The `end_to_end` and `per_layer` lists as BENCHMARK.json holds them."""
    e2e = [{"name": n, "unit": u, "better": b, "bound": bound}
           for n, u, b, bound in END_TO_END]
    layers = [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER]
    return e2e, layers
