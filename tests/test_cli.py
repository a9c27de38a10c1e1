import dataclasses
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodefuse import (AugmentConfig, ContrastConfig, ControllerConfig,
                      TrainConfig, cli)
from nodefuse.cli import _SCHEMA, main
from nodefuse.model import ModelParams

from conftest import (MALFORMED, random_graph, with_checkpoint_arrays,
                      with_checkpoint_value, write_dataset)


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    g = random_graph(rng, n=15, f=6, n_classes=3)
    return write_dataset(tmp_path / "data", g.n_nodes,
                         [tuple(e) for e in g.edges], g.features,
                         labels=g.labels, n_classes=3, name="toy")


# outside [0, 1], the controller's range, for the config and for `eval`
BAD_FIXED_LAMBDAS = ["nan", "inf", "1e308", "-0.1", "1.5"]


def write_config(tmp_path, dataset, **extra):
    cfg = {
        "dataset_dir": str(dataset),
        "seed": 0,
        "train": {"epochs": 3, "dims": [5, 4, 3], "dropout": 0.0},
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def set_first_feature(dataset, row, text):
    lines = (dataset / "features.csv").read_text().splitlines()
    lines[row] = text + lines[row][lines[row].index(","):]
    (dataset / "features.csv").write_text("\n".join(lines) + "\n")


def test_schema_keys_are_config_fields():
    # the schema is the one copy of the field names outside the config classes;
    # build_train_config passes each of these keys to its class as a keyword
    feeds = {"train": TrainConfig, "contrast": ContrastConfig,
             "controller": ControllerConfig, "augment": AugmentConfig}
    for section, config in feeds.items():
        fields = {f.name for f in dataclasses.fields(config)}
        assert set(_SCHEMA[section]) <= fields, section
    train_fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert {"seed", "precision", "fixed_lambda"} <= train_fields


class TestTrain:
    def test_smoke_writes_three_files(self, tmp_path, dataset):
        cfg = write_config(tmp_path, dataset)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "model.ckpt").is_file()
        assert (out / "train_report.jsonl").is_file()
        assert (out / "config_snapshot.json").is_file()
        lines = (out / "train_report.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["epoch"] == 1

    def test_unknown_field_named_in_error(self, tmp_path, dataset, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"dataset_dir": str(dataset),
                                        "learning_rate": 0.1}))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{\n  "dataset_dir": "x",\n  bad\n}')
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path, dataset):
        cfg = write_config(tmp_path, dataset)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(cfg), "--out", str(out_a)])
        main(["train", "--config", str(cfg), "--out", str(out_b)])
        for name in ("train_report.jsonl", "model.ckpt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_all_contrast_terms_disabled(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset,
                           ablation={"disable_semantic_contrast": True,
                                     "disable_context_contrast": True,
                                     "disable_fusion_contrast": True})
        assert main(["train", "--config", str(cfg)]) == 2
        assert "disabled" in capsys.readouterr().err

    def test_all_contrast_weights_zero(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset, contrast={"beta1": 0, "beta2": 0},
                           ablation={"disable_semantic_contrast": True})
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("view, beta", [("context", "beta1"), ("fusion", "beta2")])
    def test_disabled_term_equals_zero_weight(self, tmp_path, dataset, view, beta):
        # the ablation key wins over a weight the contrast section also sets
        spellings = {"key": dict(contrast={beta: 0.7},
                                 ablation={f"disable_{view}_contrast": True}),
                     "weight": dict(contrast={beta: 0.0})}
        for name, extra in spellings.items():
            (tmp_path / name).mkdir()
            cfg = write_config(tmp_path / name, dataset, **extra)
            assert main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / name / "out")]) == 0
        for file in ("train_report.jsonl", "model.ckpt"):
            assert ((tmp_path / "key" / "out" / file).read_bytes()
                    == (tmp_path / "weight" / "out" / file).read_bytes())

    def test_eval_section_is_unknown_field(self, tmp_path, dataset, capsys):
        # `eval` takes its settings from its flags only
        cfg = write_config(tmp_path, dataset, eval={"task": "classify", "n_splits": 3})
        assert main(["train", "--config", str(cfg)]) == 2
        assert "unknown config field: eval" in capsys.readouterr().err

    @pytest.mark.parametrize("value", BAD_FIXED_LAMBDAS)
    def test_fixed_lambda_outside_unit_interval(self, tmp_path, dataset, value, capsys):
        cfg = write_config(tmp_path, dataset, ablation={"fixed_lambda": float(value)})
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "fixed_lambda" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_dataset(self, tmp_path, dataset):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"dataset_dir": str(tmp_path / "nope")}))
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_single_node_graph_exits_2(self, tmp_path, capsys):
        d = write_dataset(tmp_path / "one", 1, [], np.ones((1, 6)))
        cfg = write_config(tmp_path, d)
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset)
        cfg.write_bytes(cfg.read_bytes().replace(b'"seed"', b'"s\xe9ed"'))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err

    @pytest.mark.parametrize("dims", [[8.9, 4, 3], [True, 4, 3], [5, 4.0, 3]])
    def test_dims_not_integers(self, tmp_path, dataset, dims, capsys):
        cfg = write_config(tmp_path, dataset,
                           train={"epochs": 1, "dims": dims, "dropout": 0.0})
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "train.dims" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dims_too_large_to_allocate(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset,
                           train={"epochs": 1, "dims": [2 ** 63, 4, 3], "dropout": 0.0})
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "enc_w1" in err

    @pytest.mark.parametrize("patience", [-3, 0])
    def test_patience_below_one(self, tmp_path, dataset, patience, capsys):
        cfg = write_config(tmp_path, dataset, train={"epochs": 3, "dims": [5, 4, 3],
                                                     "patience": patience})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "patience" in capsys.readouterr().err

    def test_patience_null_trains_every_epoch(self, tmp_path, dataset):
        cfg = write_config(tmp_path, dataset, train={"epochs": 3, "dims": [5, 4, 3],
                                                     "patience": None})
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "train_report.jsonl").read_text().splitlines()) == 3

    def test_features_overflowing_float32_exit_2(self, tmp_path, dataset, capsys):
        set_first_feature(dataset, 2, "1e100")
        cfg = write_config(tmp_path, dataset, precision="float32")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: the squared norm of feature row 2 overflows float32\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("precision,tau", [("float32", 0.01), ("float64", 0.001)])
    def test_unrepresentable_denominator_exits_3(self, tmp_path, capsys,
                                                 precision, tau):
        # every NT-Xent term of some row underflows, so t / denominator
        # overflows; the run stops in the contrast phase with no warning
        g = random_graph(np.random.default_rng(0), n=8, f=6)
        d = write_dataset(tmp_path / "eight", g.n_nodes, [tuple(e) for e in g.edges],
                          g.features)
        cfg = write_config(tmp_path, d, precision=precision, contrast={"tau": tau},
                           train={"epochs": 2, "dims": [5, 4, 3], "dropout": 0.0})
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: non-finite loss at epoch 1, phase 'contrast'\n")


def train_checkpoint(tmp_path, dataset):
    cfg = write_config(tmp_path, dataset)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "model.ckpt"


# eval arguments that must end in an `error:` line and exit 2; the flag says
# whether the dataset keeps its labels
BAD_EVAL_ARGS = {
    "ratio_two_parts": (["--ratio", "48/32"], True),
    "ratio_not_numbers": (["--ratio", "a/b/c"], True),
    "ratio_all_zero": (["--ratio", "0/0/0"], True),
    "ratio_not_finite": (["--ratio", "nan/1/1"], True),
    "unlabeled_classify": (["--task", "classify"], False),
    "unlabeled_cluster": (["--task", "cluster"], False),
    "restarts_zero": (["--task", "cluster", "--restarts", "0"], True),
    "n_splits_zero": (["--n-splits", "0"], True),
    "seed_negative": (["--seed", "-1"], True),
    **{f"fixed_lambda_{v}": ([f"--fixed-lambda={v}"], True) for v in BAD_FIXED_LAMBDAS},
    "fixed_lambda_nan_cluster": (["--task", "cluster", "--fixed-lambda", "nan"], True),
}


class TestEval:

    def test_classify_writes_accuracies(self, tmp_path, dataset, capsys):
        ckpt = train_checkpoint(tmp_path, dataset)
        out = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                   "--task", "classify", "--n-splits", "4", "--ratio", "60/20/20",
                   "--out", str(out)])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out
        (rec,) = [json.loads(line) for line
                  in (out / "eval_results.jsonl").read_text().splitlines()]
        assert rec["metric"] == "accuracy"
        assert len(rec["values"]) == 4
        assert all(0.0 <= v <= 1.0 for v in rec["values"])

    def test_cluster_reports_three_metrics(self, tmp_path, dataset, capsys):
        ckpt = train_checkpoint(tmp_path, dataset)
        out = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                   "--task", "cluster", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        for token in ("ACC", "NMI", "ARI"):
            assert token in printed
        recs = [json.loads(line) for line
                in (out / "eval_results.jsonl").read_text().splitlines()]
        assert [r["metric"] for r in recs] == ["acc", "nmi", "ari"]

    def test_cluster_rerun_byte_identical(self, tmp_path, dataset):
        ckpt = train_checkpoint(tmp_path, dataset)
        outs = [tmp_path / "eval_a", tmp_path / "eval_b"]
        for out in outs:
            assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                         "--task", "cluster", "--out", str(out)]) == 0
        a, b = ((out / "eval_results.jsonl").read_bytes() for out in outs)
        assert a == b

    def test_missing_checkpoint(self, tmp_path, dataset):
        rc = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--dataset", str(dataset)])
        assert rc == 4

    def test_corrupt_checkpoint_exits_4(self, tmp_path, dataset, capsys):
        ckpt = train_checkpoint(tmp_path, dataset)
        ckpt.write_bytes(ckpt.read_bytes()[:200])
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ckpt) in err

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
    @pytest.mark.parametrize("task", ["classify", "cluster"])
    def test_non_finite_weight_or_embedding_exits_4(self, tmp_path, dataset, task,
                                                     value, capsys):
        # nan and inf fail the load; 1e300 loads but overflows the embeddings
        ckpt = train_checkpoint(tmp_path, dataset)
        ckpt.write_bytes(with_checkpoint_value(ckpt.read_bytes(), value))
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                   "--task", task, "--out", str(tmp_path / "eval")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(ckpt) in err
        assert not (tmp_path / "eval").exists()

    def test_float16_checkpoint_exits_4(self, tmp_path, dataset, capsys):
        ckpt = train_checkpoint(tmp_path, dataset)
        ckpt.write_bytes(with_checkpoint_arrays(
            ckpt.read_bytes(), lambda arr: arr.astype(np.float16)))
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(ckpt) in err

    @pytest.mark.parametrize("case", sorted(BAD_EVAL_ARGS))
    def test_bad_arguments_exit_2(self, tmp_path, dataset, case, capsys):
        ckpt = train_checkpoint(tmp_path, dataset)
        extra, labeled = BAD_EVAL_ARGS[case]
        if not labeled:
            (dataset / "labels.txt").unlink()
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                   "--out", str(tmp_path / "eval"), *extra])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "eval" / "eval_results.jsonl").exists()

    def test_features_overflowing_float32_exit_2(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset, precision="float32")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        set_first_feature(dataset, 4, "-1e30")
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(tmp_path / "out" / "model.ckpt"),
                   "--dataset", str(dataset), "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: the squared norm of feature row 4 overflows float32\n")
        assert not (tmp_path / "eval").exists()

    def test_feature_width_mismatch(self, tmp_path, dataset):
        ckpt = train_checkpoint(tmp_path, dataset)
        rng = np.random.default_rng(1)
        g = random_graph(rng, n=10, f=9, n_classes=3)
        other = write_dataset(tmp_path / "other", g.n_nodes,
                              [tuple(e) for e in g.edges], g.features,
                              labels=g.labels, n_classes=3, name="other")
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(other)])
        assert rc == 4


class TestAnalyze:
    def test_histogram_counts_conserved(self, tmp_path, dataset):
        out = tmp_path / "an"
        assert main(["analyze", "--dataset", str(dataset), "--out", str(out)]) == 0
        payload = json.loads((out / "similarity_histogram.json").read_text())
        assert len(payload["bin_counts"]) == 50
        assert len(payload["bin_edges"]) == 51
        n_non_isolated = sum(not b for b in payload["isolated"])
        assert sum(payload["bin_counts"]) == n_non_isolated
        assert len(payload["similarity"]) == 15

    def test_homogeneous_features_fill_top_bin(self, tmp_path):
        feats = np.tile([1.0, 2.0, 3.0], (6, 1))
        d = write_dataset(tmp_path / "homog", 6,
                          [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], feats)
        out = tmp_path / "an"
        assert main(["analyze", "--dataset", str(d), "--out", str(out)]) == 0
        payload = json.loads((out / "similarity_histogram.json").read_text())
        assert payload["bin_counts"][-1] == 6

    def test_stable_across_runs(self, tmp_path, dataset):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["analyze", "--dataset", str(dataset), "--out", str(out_a)])
        main(["analyze", "--dataset", str(dataset), "--out", str(out_b)])
        assert ((out_a / "similarity_histogram.json").read_bytes()
                == (out_b / "similarity_histogram.json").read_bytes())


class TestOutputNamesFile:
    """An --out that is a file, or lies under one, is exit 2 and one error line."""

    @pytest.fixture(params=["file", "under_file"])
    def out(self, request, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        return taken if request.param == "file" else taken / "sub"

    def check(self, rc, capsys, tmp_path):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (tmp_path / "taken").read_text() == "keep me\n"

    def test_train_fails_before_training(self, tmp_path, dataset, out, capsys,
                                         monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("trained"))
        cfg = write_config(tmp_path, dataset)
        self.check(main(["train", "--config", str(cfg), "--out", str(out)]),
                   capsys, tmp_path)

    def test_train_output_dir_from_config(self, tmp_path, dataset, out, capsys,
                                          monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("trained"))
        cfg = write_config(tmp_path, dataset, output_dir=str(out))
        self.check(main(["train", "--config", str(cfg)]), capsys, tmp_path)

    def test_eval(self, tmp_path, dataset, out, capsys):
        ckpt = train_checkpoint(tmp_path, dataset)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                   "--out", str(out)])
        self.check(rc, capsys, tmp_path)

    def test_analyze(self, tmp_path, dataset, out, capsys):
        rc = main(["analyze", "--dataset", str(dataset), "--out", str(out)])
        self.check(rc, capsys, tmp_path)


@pytest.mark.parametrize("command, name", [("train", "model.ckpt"),
                                           ("train", "train_report.jsonl"),
                                           ("train", "config_snapshot.json"),
                                           ("eval", "eval_results.jsonl"),
                                           ("analyze", "similarity_histogram.json")])
def test_output_file_that_is_a_directory_exits_2(tmp_path, dataset, command, name, capsys,
                                                 monkeypatch):
    args = {"train": lambda: ["--config", str(write_config(tmp_path, dataset))],
            "eval": lambda: ["--checkpoint", str(train_checkpoint(tmp_path, dataset)),
                             "--dataset", str(dataset)],
            "analyze": lambda: ["--dataset", str(dataset)]}[command]()
    # each command finds a taken output name before it does its work: train
    # loses no model, eval runs no probe and analyze no similarity pass
    for work in ("train", "linear_probe", "neighborhood_similarity"):
        monkeypatch.setattr(cli, work, lambda *a, **k: pytest.fail("did the work"))
    out = tmp_path / "written"
    (out / name).mkdir(parents=True)
    capsys.readouterr()
    assert main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err


@pytest.mark.parametrize("case", sorted(MALFORMED))
class TestMalformedDataset:
    def test_train_exits_2(self, tmp_path, dataset, case, capsys):
        MALFORMED[case](dataset)
        cfg = write_config(tmp_path, dataset)
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_eval_exits_2(self, tmp_path, dataset, case, capsys):
        ckpt = train_checkpoint(tmp_path, dataset)
        MALFORMED[case](dataset)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                   "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "eval").exists()

    def test_analyze_exits_2(self, tmp_path, dataset, case, capsys):
        MALFORMED[case](dataset)
        rc = main(["analyze", "--dataset", str(dataset), "--out", str(tmp_path / "an")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


# Fuzzing the CLI: whatever the dataset, config, checkpoint or eval arguments,
# main() returns a documented exit code and never raises.

EXIT_CODES = {0, 2, 3, 4}
_JUNK = [None, "x", True, [], {}]
# The valid floats reach down to tau 0.01, where a float32 run can diverge:
# NT-Xent's denominators underflow, and train exits 3 without a warning.
_VALUES = {
    float: [-1.0, 0.0, 0.01, 0.2, 0.5, 1.0, 3.0, float("nan"), float("inf")],
    int: [-1, 0, 1, 2],
    bool: [True, False],
    str: ["float32", "float64", "float16", ""],
    list: [[5, 4, 3], [1, 1, 1], [0, 4, 3], [5, 4], ["a", 4, 3], [None, 4, 3]],
    type(None): [None],
}
_FILES = ["meta.json", "edges.tsv", "features.csv", "labels.txt"]
_WEIGHTS = [f.name for f in dataclasses.fields(ModelParams)]
_RATIO_PARTS = ["48", "32", "20", "0", "-1", "0.5", "a", "nan", "1e400", ""]


def _leaves(schema, prefix=()):
    for key, kind in schema.items():
        if isinstance(kind, dict):
            yield from _leaves(kind, prefix + (key,))
        else:
            # a key the schema leaves to its config class draws every kind
            yield prefix + (key,), tuple(_VALUES) if kind is None else (kind,)


_CONFIG_LEAVES = list(_leaves(_SCHEMA))


@st.composite
def config_edits(draw):
    """(path, value) pairs; a value of KeyError deletes the field."""
    edits = []
    for _ in range(draw(st.integers(0, 3))):
        path, kinds = draw(st.sampled_from(_CONFIG_LEAVES))
        typed = [v for kind in kinds for v in _VALUES[kind]]
        if path[0] in ("dataset_dir", "output_dir"):
            typed = []      # any string names a path; deletion covers these
        edits.append((path, draw(st.sampled_from(typed + _JUNK + [KeyError]))))
    return edits


dataset_edits = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("malformed"), st.sampled_from(sorted(MALFORMED))),
    st.tuples(st.just("truncate"), st.sampled_from(_FILES), st.floats(0.0, 1.0)),
    st.tuples(st.just("delete"), st.sampled_from(_FILES)),
)

checkpoint_edits = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("flip"), st.lists(st.tuples(st.floats(0.0, 1.0),
                                                  st.integers(1, 255)),
                                        min_size=1, max_size=3)),
    st.tuples(st.just("replace"), st.binary(max_size=64)),
    # a byte flip only breaks the zip CRC: this edit writes a valid archive
    # whose weights are not finite or overflow the embeddings
    st.tuples(st.just("set"), st.sampled_from(_WEIGHTS), st.floats(0.0, 1.0),
              st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300])),
    # one array of another dtype, or of another shape (its values repeated)
    st.tuples(st.just("retype"), st.sampled_from(_WEIGHTS),
              st.sampled_from([np.float16, np.float32, np.float64, np.int64,
                               np.bool_, np.complex128])),
    st.tuples(st.just("reshape"), st.sampled_from(_WEIGHTS),
              st.lists(st.integers(0, 7), max_size=3).map(tuple)),
)

# each eval example changes at most two of these from a valid run
EVAL_FIELDS = {
    "dataset": dataset_edits,
    "checkpoint": checkpoint_edits,
    "task": st.sampled_from(["classify", "cluster"]),
    "ratio": st.lists(st.sampled_from(_RATIO_PARTS), min_size=1, max_size=4).map("/".join),
    "n_splits": st.sampled_from(_VALUES[int]),
    "restarts": st.sampled_from(_VALUES[int]),
    "seed": st.sampled_from(_VALUES[int]),
}
VALID_EVAL = {"dataset": ("none",), "checkpoint": ("none",), "task": "classify",
              "ratio": "48/32/20", "n_splits": 2, "restarts": 2, "seed": 0}


def apply_dataset_edit(d: Path, edit):
    kind, *arg = edit
    if kind == "malformed":
        MALFORMED[arg[0]](d)
    elif kind == "truncate":
        data = (d / arg[0]).read_bytes()
        (d / arg[0]).write_bytes(data[:int(len(data) * arg[1])])
    elif kind == "delete":
        (d / arg[0]).unlink()


def edit_checkpoint(data: bytes, edit) -> bytes:
    kind, *arg = edit
    if kind == "truncate":
        return data[:int(len(data) * arg[0])]
    if kind == "flip":
        out = bytearray(data)
        for where, mask in arg[0]:
            out[min(int(len(out) * where), len(out) - 1)] ^= mask
        return bytes(out)
    if kind == "replace":
        return arg[0]
    if kind == "set":
        name, at, value = arg
        return with_checkpoint_value(data, value, name, at)
    if kind == "retype":
        name, dtype = arg
        return with_checkpoint_arrays(data, lambda arr: arr.astype(dtype), [name])
    if kind == "reshape":
        name, shape = arg
        return with_checkpoint_arrays(data, lambda arr: np.resize(arr, shape), [name])
    return data


def fuzz_dataset(d: Path) -> Path:
    g = random_graph(np.random.default_rng(3), n=10, f=4, n_classes=3)
    return write_dataset(d, g.n_nodes, [tuple(e) for e in g.edges], g.features,
                         labels=g.labels, n_classes=3, name="fuzz")


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    return train_checkpoint(tmp, fuzz_dataset(tmp / "data")).read_bytes()


@settings(max_examples=150, deadline=None)
@given(edit=dataset_edits, cfg_edits=config_edits())
def test_fuzz_train(edit, cfg_edits):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        d = fuzz_dataset(tmp / "data")
        apply_dataset_edit(d, edit)
        cfg = {"dataset_dir": str(d), "seed": 0,
               "train": {"epochs": 1, "dims": [5, 4, 3], "dropout": 0.0}}
        for path, value in cfg_edits:
            section = cfg
            for key in path[:-1]:
                if not isinstance(section.get(key), dict):
                    section[key] = {}
                section = section[key]
            if value is KeyError:
                section.pop(path[-1], None)
            else:
                section[path[-1]] = value
        (tmp / "config.json").write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(tmp / "config.json"),
                   "--out", str(tmp / "out")])
    assert rc in EXIT_CODES


@settings(max_examples=150, deadline=None)
@given(changed=st.sets(st.sampled_from(sorted(EVAL_FIELDS)), max_size=2), data=st.data())
def test_fuzz_eval(fuzz_checkpoint, changed, data):
    run = dict(VALID_EVAL)
    for name in sorted(changed):
        run[name] = data.draw(EVAL_FIELDS[name], label=name)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        d = fuzz_dataset(tmp / "data")
        apply_dataset_edit(d, run["dataset"])
        ckpt = tmp / "model.ckpt"
        ckpt.write_bytes(edit_checkpoint(fuzz_checkpoint, run["checkpoint"]))
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(d),
                   "--out", str(tmp / "eval"), f"--task={run['task']}",
                   f"--ratio={run['ratio']}", f"--n-splits={run['n_splits']}",
                   f"--restarts={run['restarts']}", f"--seed={run['seed']}"])
    assert rc in EXIT_CODES
