"""Command-line surface: train / eval / analyze over a declarative JSON config."""

from __future__ import annotations

import argparse
import json
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


# The type a key names is checked here; None leaves the value to the config
# class it feeds, which checks that it is a number in range.
_SCHEMA = {
    "dataset_dir": str,
    "output_dir": str,
    "seed": None,
    "precision": None,
    "train": dict.fromkeys(("lr", "lr_controller", "epochs", "dropout", "patience", "dims")),
    "contrast": dict.fromkeys(("tau", "beta1", "beta2")),
    "controller": dict.fromkeys(("alpha1", "alpha2", "epsilon")),
    "augment": dict.fromkeys(("p_s", "p_c")),
    "ablation": {
        "disable_semantic_contrast": bool,
        "disable_context_contrast": bool,
        "disable_fusion_contrast": bool,
        "fixed_lambda": None,
    },
}
# the config path of each config-class field a section sets, for messages
_PATHS = {key: f"{name}.{key}" for name, section in _SCHEMA.items()
          if isinstance(section, dict) for key in section}


def _check_keys(cfg: dict, schema: dict, prefix: str = ""):
    for key, val in cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown config field: {prefix}{key}")
        expect = schema[key]
        if isinstance(expect, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config field {prefix}{key} must be a section")
            _check_keys(val, expect, prefix=f"{prefix}{key}.")
        elif expect is not None and type(val) is not expect:
            raise ConfigError(
                f"config field {prefix}{key} has wrong type {type(val).__name__}")


def load_config(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _check_keys(cfg, _SCHEMA)
    if "dataset_dir" not in cfg:
        raise ConfigError("missing config field: dataset_dir")
    return cfg


def build_train_config(cfg: dict, seed_override: int | None = None) -> TrainConfig:
    """A TrainConfig from the fields the config sets; TrainConfig has the
    defaults, and the config classes check every value."""
    kwargs = dict(cfg.get("train", {}))
    for key in ("seed", "precision"):
        if key in cfg:
            kwargs[key] = cfg[key]
    if seed_override is not None:
        kwargs["seed"] = seed_override
    abl = cfg.get("ablation", {})
    contrast = dict(cfg.get("contrast", {}))
    if "disable_semantic_contrast" in abl:
        contrast["include_semantic"] = not abl["disable_semantic_contrast"]
    # a disabled term's weight is 0, whatever the contrast section sets
    for view, beta in (("context", "beta1"), ("fusion", "beta2")):
        if abl.get(f"disable_{view}_contrast"):
            contrast[beta] = 0.0
    if "fixed_lambda" in abl:
        kwargs["fixed_lambda"] = abl["fixed_lambda"]
    try:
        return TrainConfig(contrast=ContrastConfig(**contrast),
                           controller=ControllerConfig(**cfg.get("controller", {})),
                           augment=AugmentConfig(**cfg.get("augment", {})),
                           **kwargs)
    except ContractError as exc:
        where = f" (config field {_PATHS[exc.field]})" if exc.field in _PATHS else ""
        raise ConfigError(f"{exc}{where}") from exc


def _parse_ratio(text: str) -> tuple[float, float, float]:
    """'48/32/20' as train/val/test fractions; make_splits checks their range."""
    try:
        train, val, test = (float(r) for r in text.split("/"))
        total = train + val + test
        return train / total, val / total, test / total
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--ratio must be a/b/c with a nonzero sum, got {text!r}") from None


def _output_dir(out, create: bool = True, names=()) -> Path:
    """`out` as an output directory, made unless `create` is False (a check
    that writes nothing); a path that is or lies under a file, or whose
    output file `names` include a directory, is a ConfigError."""
    path = Path(out or ".")
    try:
        if create:
            path.mkdir(parents=True, exist_ok=True)
        else:
            nearest = next(p for p in (path, *path.parents) if p.exists())
            if not nearest.is_dir():
                raise NotADirectoryError(f"{nearest} is not a directory")
        for name in names:
            if (path / name).is_dir():
                raise IsADirectoryError(f"{path / name} is a directory")
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {path}: {exc}") from exc
    return path


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    tcfg = build_train_config(cfg, seed_override=args.seed)
    out_dir = _output_dir(args.out or cfg.get("output_dir"), create=False,
                          names=("model.ckpt", "train_report.jsonl", "config_snapshot.json"))
    g = load_graph(cfg["dataset_dir"])
    report = train(g, tcfg)
    _output_dir(out_dir)
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
    params = load_checkpoint(args.checkpoint)
    g = load_graph(args.dataset)
    if g.labels is None:
        raise LoadError(f"eval needs labels: {Path(args.dataset) / 'labels.txt'} is missing")
    if g.n_features != params.dims.f_in:
        raise CheckpointError(f"dataset has {g.n_features} features but the checkpoint "
                              f"{args.checkpoint} expects {params.dims.f_in}")
    _output_dir(args.out, create=False, names=("eval_results.jsonl",))
    reps = embed(g, params, fixed_lambda=args.fixed_lambda)
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.einsum("ij,ij->i", reps.data, reps.data))
    if not finite.all():
        raise CheckpointError(f"the weights in {args.checkpoint} give non-finite "
                              f"embeddings on {g.name}")
    out_dir = _output_dir(args.out)
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
    _output_dir(args.out, create=False, names=("similarity_histogram.json",))
    sims, isolated = neighborhood_similarity(g)
    counts, edges = np.histogram(sims[~isolated], bins=50, range=(-1.0, 1.0))
    out_dir = _output_dir(args.out)
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
        try:
            return args.func(args)
        except OSError as exc:  # an output path that is a directory, a full disk
            raise ConfigError(f"cannot read or write a file: {exc}") from exc
    except NodefuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
