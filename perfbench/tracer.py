"""Outside-in tracer: nested timing spans around nodefuse's public functions.

The tracer changes no file of the library. It replaces a function at the
name its caller looks up, because a `from .x import f` binds `f` into the
caller's module at import time:

- functions that `training.py` imports (`drop_edges`, `encode_*`, ...) are
  wrapped in `nodefuse.training`;
- tensor ops are wrapped in `nodefuse.tensor`, since callers write `T.<op>`;
- `project` and `view_loss` are wrapped in `nodefuse.losses`, their caller;
- the NT-Xent backward is wrapped through the `_backward` closure of the
  tensor that `ntxent_view` returns.

Spans nest through a stack. When a span closes, its duration is charged to
its parent's child time, so self time = duration - time in child spans.
All spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

import nodefuse.evaluation
import nodefuse.graph
import nodefuse.losses
import nodefuse.tensor
import nodefuse.training


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    child: float = 0.0       # seconds covered by direct child spans
    work: float = 0.0        # a size computed from the call's arguments

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


def _nxn_work(zn, an, inv_tau):
    """GEMM flops of one NT-Xent call: 3 N x N x d products forward, 6 back."""
    n, d = zn.shape
    return 9 * 2.0 * n * n * d


def _spmm_work(adj, x):
    return float(adj.nnz) * x.cols


# (module, attribute, span name, work function): the module is the one whose
# globals the caller reads; the span name is where the function is defined.
TARGETS = [
    (nodefuse.graph, "load_graph", "graph.load_graph", None),
    (nodefuse.graph, "build_graph", "graph.build_graph", None),
    (nodefuse.training, "train", "training.train", None),
    (nodefuse.training, "embed", "training.embed", None),
    (nodefuse.training, "normalized_adjacency_sparse",
     "graph.normalized_adjacency_sparse", None),
    (nodefuse.training, "mask_features", "augment.mask_features", None),
    (nodefuse.training, "drop_edges", "augment.drop_edges", None),
    (nodefuse.training, "encode_semantic", "model.encode_semantic", None),
    (nodefuse.training, "encode_contextual", "model.encode_contextual", None),
    (nodefuse.training, "controller_lambda", "model.controller_lambda", None),
    (nodefuse.training, "fuse", "model.fuse", None),
    (nodefuse.training, "controller_loss", "losses.controller_loss", None),
    (nodefuse.training, "adam_step", "tensor.adam_step", None),
    (nodefuse.losses, "project", "model.project", None),
    (nodefuse.losses, "view_loss", "losses.view_loss", None),
    (nodefuse.tensor, "backward", "tensor.backward", None),
    (nodefuse.tensor, "ntxent_view", "tensor.ntxent_view", _nxn_work),
    (nodefuse.tensor, "spmm", "tensor.spmm", _spmm_work),
    (nodefuse.tensor, "matmul", "tensor.matmul", None),
    (nodefuse.tensor, "normalize_rows", "tensor.normalize_rows", None),
    (nodefuse.tensor, "cosine_rows", "tensor.cosine_rows", None),
    (nodefuse.tensor, "relu", "tensor.relu", None),
    (nodefuse.tensor, "add", "tensor.add", None),
    (nodefuse.tensor, "mul", "tensor.mul", None),
    (nodefuse.tensor, "scale", "tensor.scale", None),
    (nodefuse.tensor, "sigmoid", "tensor.sigmoid", None),
    (nodefuse.tensor, "concat_cols", "tensor.concat_cols", None),
    (nodefuse.tensor, "rowscale", "tensor.rowscale", None),
    (nodefuse.evaluation, "linear_probe", "evaluation.linear_probe", None),
    (nodefuse.evaluation, "kmeans", "evaluation.kmeans", None),
]

NTXENT_BWD = "tensor.ntxent_view.bwd"


class Tracer:
    """Records nested spans while installed; `spans` is kept in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, work: float) -> Span:
        s = Span(name, time.perf_counter(), work=work)
        self.spans.append(s)
        self._stack.append(s)
        return s

    def _close(self, s: Span):
        s.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += s.duration

    def _wrap(self, fn, name, work_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name, work_fn(*args, **kwargs) if work_fn else 0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if name == "tensor.ntxent_view" and out._backward is not None:
                out._backward = self._wrap(out._backward, NTXENT_BWD, None)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        for module, attr, name, work_fn in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, work_fn))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, fn = self._saved.pop()
                setattr(module, attr, fn)

    def within(self, start: float, end: float) -> list[Span]:
        return [s for s in self.spans if start <= s.start and s.end <= end]
