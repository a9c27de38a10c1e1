import json

import numpy as np
import pytest

from nodefuse.cli import main

from conftest import MALFORMED, random_graph, write_dataset


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    g = random_graph(rng, n=15, f=6, n_classes=3)
    return write_dataset(tmp_path / "data", g.n_nodes,
                         [tuple(e) for e in g.edges], g.features,
                         labels=g.labels, n_classes=3, name="toy")


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

    def test_missing_dataset(self, tmp_path, dataset):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"dataset_dir": str(tmp_path / "nope")}))
        assert main(["train", "--config", str(cfg_path)]) == 2


class TestEval:
    def _train(self, tmp_path, dataset):
        cfg = write_config(tmp_path, dataset)
        out = tmp_path / "out"
        main(["train", "--config", str(cfg), "--out", str(out)])
        return out / "model.ckpt"

    def test_classify_writes_accuracies(self, tmp_path, dataset, capsys):
        ckpt = self._train(tmp_path, dataset)
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
        ckpt = self._train(tmp_path, dataset)
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

    def test_missing_checkpoint(self, tmp_path, dataset):
        rc = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--dataset", str(dataset)])
        assert rc == 4

    def test_feature_width_mismatch(self, tmp_path, dataset):
        ckpt = self._train(tmp_path, dataset)
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


@pytest.mark.parametrize("case", sorted(MALFORMED))
class TestMalformedDataset:
    def test_train_exits_2(self, tmp_path, dataset, case, capsys):
        MALFORMED[case](dataset)
        cfg = write_config(tmp_path, dataset)
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_analyze_exits_2(self, tmp_path, dataset, case, capsys):
        MALFORMED[case](dataset)
        rc = main(["analyze", "--dataset", str(dataset), "--out", str(tmp_path / "an")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
