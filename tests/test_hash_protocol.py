import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "hash_protocol.py"
_spec = importlib.util.spec_from_file_location("hash_protocol", _TOOL)
hash_protocol = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hash_protocol)


def test_numbers_of_a_checkpoint_and_of_json_lines(tmp_path):
    with open(tmp_path / "model.ckpt", "wb") as fh:
        np.savez(fh, enc_w1=np.arange(4.0).reshape(2, 2), proj_b1=np.zeros((1, 3)))
    records = [{"dataset": "toy", "task": "cluster", "metric": "acc", "mean": 0.5,
                "std": 0.0, "values": [0.5]},
               {"dataset": "toy", "task": "cluster", "metric": "nmi", "mean": 0.25,
                "std": 0.0, "values": [0.25]}]
    (tmp_path / "eval_results.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    (tmp_path / "train_report.jsonl").write_text(
        '{"epoch": 1, "contrast_loss": 2.5}\n{"epoch": 2, "contrast_loss": 2.0}\n')

    ckpt = hash_protocol._numbers(tmp_path / "model.ckpt")
    assert sorted(ckpt) == ["enc_w1", "proj_b1"]
    assert np.array_equal(ckpt["enc_w1"], np.arange(4.0).reshape(2, 2))
    evals = hash_protocol._numbers(tmp_path / "eval_results.jsonl")
    assert {k: v.tolist() for k, v in evals.items()} == {
        "acc.mean": [0.5], "acc.std": [0.0], "acc.values": [0.5],
        "nmi.mean": [0.25], "nmi.std": [0.0], "nmi.values": [0.25]}
    report = hash_protocol._numbers(tmp_path / "train_report.jsonl")
    assert {k: v.tolist() for k, v in report.items()} == {"contrast_loss": [2.5, 2.0]}


def test_differences_relative_and_scaled():
    old = np.array([2.0, 1e-9, 0.0, -4.0])
    new = np.array([2.0, 1.1e-9, 0.0, -4.0 + 4e-12])
    rel, scaled = hash_protocol._differences(old, new)
    assert rel == pytest.approx(0.1e-9 / 1.1e-9)
    assert scaled == pytest.approx(0.1e-9 / 4.0)
    assert hash_protocol._differences(np.zeros(3), np.zeros(3)) == (0.0, 0.0)
