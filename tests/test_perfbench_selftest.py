"""The benchmark harness's own self-test, run as a tier-1 test, and the
contract between its tracer and the tape.

perfbench/ drives the library through its public functions and traces some
of them by name, so a signature change that breaks the harness fails here.
The self-test takes about 30 s.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np

from nodefuse import TrainConfig, train

from conftest import random_graph

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout


def test_tracer_times_every_ntxent_backward(monkeypatch):
    # the tracer wraps the `_backward` of each tensor `ntxent_view` returns;
    # if the tape stopped calling it, `tensor.ntxent_view.bwd_s` would read 0
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    g = random_graph(np.random.default_rng(3), n=20, f=10)
    t = tracer.Tracer()
    with t.installed():
        train(g, TrainConfig(dims=(6, 4, 3), epochs=1, patience=None))
    names = [s.name for s in t.spans]
    assert names.count("tensor.ntxent_view") == 3
    assert names.count(tracer.NTXENT_BWD) == 3


def test_tracer_targets_resolve(monkeypatch):
    # a library rename that the tracer still names fails here, by name, in
    # well under the self-test's time
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracer.TARGETS
               if not callable(getattr(module, attr, None))]
    assert not missing, missing
