"""Command-line surface: train / eval / analyze over a declarative JSON config."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .augment import AugmentConfig
from .errors import (CheckpointError, ContractError, LoadError, NodefuseError,
                     TrainingDiverged)
from .evaluation import evaluate_clustering, linear_probe
from .graph import load_graph, make_splits, neighborhood_similarity
from .losses import ContrastConfig, ControllerConfig
from .model import load_checkpoint, save_checkpoint
from .training import TrainConfig, embed, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_MISMATCH = 4

# main's only error handler; the first class that matches sets the exit code
_EXIT_CODES = ((CheckpointError, EXIT_MISMATCH), (TrainingDiverged, EXIT_DIVERGED),
               (NodefuseError, EXIT_CONFIG))


class ConfigError(NodefuseError):
    pass


_SCHEMA = {
    "dataset_dir": str,
    "output_dir": str,
    "seed": int,
    "precision": str,
    "train": {
        "lr": float,
        "lr_controller": float,
        "epochs": int,
        "dropout": float,
        "patience": (int, type(None)),
        "dims": list,
    },
    "contrast": {"tau": float, "beta1": float, "beta2": float},
    "controller": {"alpha1": float, "alpha2": float, "epsilon": float},
    "augment": {"p_s": float, "p_c": float},
    "eval": {"task": str, "n_splits": int, "ratio": list, "restarts": int},
    "ablation": {
        "disable_semantic_contrast": bool,
        "disable_context_contrast": bool,
        "disable_fusion_contrast": bool,
        "fixed_lambda": (float, type(None)),
    },
}


def _check_keys(cfg: dict, schema: dict, prefix: str = ""):
    for key, val in cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown config field: {prefix}{key}")
        expect = schema[key]
        if isinstance(expect, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config field {prefix}{key} must be a section")
            _check_keys(val, expect, prefix=f"{prefix}{key}.")
        else:
            kinds = expect if isinstance(expect, tuple) else (expect,)
            if float in kinds:
                kinds = kinds + (int,)
            if not isinstance(val, kinds) or (bool not in kinds and isinstance(val, bool)):
                raise ConfigError(
                    f"config field {prefix}{key} has wrong type "
                    f"{type(val).__name__}"
                )
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"config field {prefix}{key} must be finite, got {val}")


def load_config(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _check_keys(cfg, _SCHEMA)
    if "dataset_dir" not in cfg:
        raise ConfigError("missing config field: dataset_dir")
    return cfg


def build_train_config(cfg: dict, seed_override: int | None = None) -> TrainConfig:
    """A TrainConfig from the fields the config sets; TrainConfig has the defaults."""
    kwargs = dict(cfg.get("train", {}))
    for key in ("seed", "precision"):
        if key in cfg:
            kwargs[key] = cfg[key]
    if seed_override is not None:
        kwargs["seed"] = seed_override
    abl = cfg.get("ablation", {})
    for view in ("semantic", "context", "fusion"):
        if f"disable_{view}_contrast" in abl:
            kwargs[f"include_{view}"] = not abl[f"disable_{view}_contrast"]
    if "fixed_lambda" in abl:
        kwargs["fixed_lambda"] = abl["fixed_lambda"]
    try:
        if "dims" in kwargs:
            kwargs["dims"] = tuple(int(d) for d in kwargs["dims"])
        return TrainConfig(contrast=ContrastConfig(**cfg.get("contrast", {})),
                           controller=ControllerConfig(**cfg.get("controller", {})),
                           augment=AugmentConfig(**cfg.get("augment", {})),
                           **kwargs)
    except (ContractError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_ratio(text: str) -> tuple[float, float, float]:
    """'48/32/20' as train/val/test fractions; make_splits checks their range."""
    try:
        train, val, test = (float(r) for r in text.split("/"))
        total = train + val + test
        return train / total, val / total, test / total
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--ratio must be a/b/c with a nonzero sum, got {text!r}") from None


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    tcfg = build_train_config(cfg, seed_override=args.seed)
    out_dir = Path(args.out or cfg.get("output_dir", "."))
    g = load_graph(cfg["dataset_dir"])
    report = train(g, tcfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(report.params, out_dir / "model.ckpt")
    (out_dir / "train_report.jsonl").write_text(report.to_jsonl())
    snapshot = dict(cfg)
    if args.seed is not None:
        snapshot["seed"] = args.seed
    (out_dir / "config_snapshot.json").write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"trained {len(report.records)} epochs; outputs in {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ratio = _parse_ratio(args.ratio)
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    params = load_checkpoint(args.checkpoint)
    g = load_graph(args.dataset)
    if g.labels is None:
        raise LoadError(f"eval needs labels: {Path(args.dataset) / 'labels.txt'} is missing")
    if g.n_features != params.dims.f_in:
        raise CheckpointError(f"dataset has {g.n_features} features but the checkpoint "
                              f"{args.checkpoint} expects {params.dims.f_in}")
    reps = embed(g, params, fixed_lambda=args.fixed_lambda)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    if args.task == "classify":
        splits = make_splits(g, ratio, n_splits=args.n_splits, seed=args.seed)
        result = linear_probe(reps, g.labels, splits, seed=args.seed)
        records.append({"dataset": g.name, "task": "classify", "metric": "accuracy",
                        "mean": result.mean, "std": result.std,
                        "values": result.accuracies})
        print(f"{g.name} classify accuracy: "
              f"{100 * result.mean:.2f} +- {100 * result.std:.2f}")
    else:
        result = evaluate_clustering(reps, g.labels, seed=args.seed,
                                     restarts=args.restarts)
        for metric, value in (("acc", result.acc), ("nmi", result.nmi),
                              ("ari", result.ari)):
            records.append({"dataset": g.name, "task": "cluster", "metric": metric,
                            "mean": value, "std": 0.0, "values": [value]})
        print(f"{g.name} cluster ACC {100 * result.acc:.2f} "
              f"NMI {100 * result.nmi:.2f} ARI {100 * result.ari:.2f}")
    with (out_dir / "eval_results.jsonl").open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = load_graph(args.dataset)
    sims, isolated = neighborhood_similarity(g)
    counts, edges = np.histogram(sims[~isolated], bins=50, range=(-1.0, 1.0))
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "dataset": g.name,
        "similarity": [float(s) for s in sims],
        "isolated": [bool(b) for b in isolated],
        "bin_edges": [float(e) for e in edges],
        "bin_counts": [int(c) for c in counts],
    }
    out_path = out_dir / "similarity_histogram.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path} ({int((~isolated).sum())} non-isolated nodes)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodefuse",
        description="Self-supervised node representations via dual-view fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--task", choices=["classify", "cluster"], default="classify")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--n-splits", type=int, default=10)
    p_eval.add_argument("--ratio", default="48/32/20")
    p_eval.add_argument("--restarts", type=int, default=10)
    p_eval.add_argument("--fixed-lambda", type=float, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_an = sub.add_parser("analyze", help="ego-neighborhood similarity histogram")
    p_an.add_argument("--dataset", required=True)
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NodefuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
