"""Print the sha256 of every output of a fixed set of CLI runs of a checkout.

    python3 tools/hash_protocol.py [CHECKOUT]
    python3 tools/hash_protocol.py --compare BASE [CHECKOUT]

CHECKOUT is a nodefuse source tree (default: the one holding this script);
its `src/` is what runs. The protocol generates the texas-shaped benchmark
dataset at seed 5 with `perfbench/datasets.generate` from the tree holding
this script, so both sides of a comparison read the same files. For the
default config and each `ablation` key (`fixed_lambda` 0.5), in float64 and
float32, it runs `nodefuse train` (25 epochs, seed 3), then `nodefuse eval`
with `--task classify` and `--task cluster` (seed 7), each in a fresh process
with one BLAS thread. It prints one `sha256  path` line per `model.ckpt`,
`train_report.jsonl` and `eval_results.jsonl`, 40 in all, and writes nothing
outside a temporary directory. Two checkouts give the same bits exactly
when their outputs agree:

    diff <(python3 tools/hash_protocol.py ../parent) <(python3 tools/hash_protocol.py .)

With `--compare BASE`, it runs the protocol for BASE and for CHECKOUT and
says how far the bits of each output that differs moved. For every
`model.ckpt` array and every float or list field of a JSON-lines file
(prefixed by an `eval_results.jsonl` record's metric), it prints two
numbers: `rel`, the largest relative difference |a - b| / max(|a|, |b|)
over its entries (0 where both are 0), and `scaled`, the largest |a - b|
over the largest |a| or |b| of the array. An entry near 0 can make `rel`
large while `scaled` stays at rounding size. It ends with the count of
outputs that differ.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
ABLATIONS = {"default": {},
             "no_semantic": {"disable_semantic_contrast": True},
             "no_context": {"disable_context_contrast": True},
             "no_fusion": {"disable_fusion_contrast": True},
             "fixed_lambda": {"fixed_lambda": 0.5}}
PRECISIONS = ("float64", "float32")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _generate(out_dir: Path) -> Path:
    """The texas-shaped dataset at seed 5; no bytecode is written beside it."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE / "perfbench"))
    import datasets
    return datasets.generate(datasets.WORKLOADS["texas"], 5, out_dir)


def _cli(checkout: Path, cwd: Path, *args: str):
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "PYTHONDONTWRITEBYTECODE": "1", **dict.fromkeys(THREAD_VARS, "1")}
    subprocess.run([sys.executable, "-m", "nodefuse.cli", *args], cwd=cwd, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def protocol(checkout: Path, work: Path) -> list[Path]:
    """Run every case under `work`; return the output files in print order."""
    data = _generate(work / "texas")
    outputs = []
    for precision in PRECISIONS:
        for name, ablation in ABLATIONS.items():
            run = work / precision / name
            run.mkdir(parents=True)
            config = {"dataset_dir": str(data), "output_dir": str(run),
                      "precision": precision, "train": {"epochs": 25},
                      "ablation": ablation}
            (run / "config.json").write_text(json.dumps(config))
            _cli(checkout, work, "train", "--config", str(run / "config.json"), "--seed", "3")
            fixed = ([] if "fixed_lambda" not in ablation
                     else ["--fixed-lambda", str(ablation["fixed_lambda"])])
            for task in ("classify", "cluster"):
                _cli(checkout, work, "eval", "--checkpoint", str(run / "model.ckpt"),
                     "--dataset", str(data), "--task", task, "--seed", "7",
                     "--out", str(run / task), *fixed)
            outputs += [run / "model.ckpt", run / "train_report.jsonl",
                        run / "classify" / "eval_results.jsonl",
                        run / "cluster" / "eval_results.jsonl"]
    return outputs


def _numbers(path: Path) -> dict[str, np.ndarray]:
    """A checkpoint's arrays, or a JSON-lines file's float and list fields,
    each over all its records, by name."""
    if path.suffix == ".ckpt":
        with np.load(path) as data:
            return {name: data[name].astype(np.float64) for name in data.files}
    found: dict[str, list] = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        for key, value in record.items():
            if isinstance(value, (float, list)):
                name = f"{record['metric']}.{key}" if "metric" in record else key
                found.setdefault(name, []).extend(np.ravel(value))
    return {name: np.asarray(values, dtype=np.float64) for name, values in found.items()}


def _differences(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(rel, scaled) of the module docstring."""
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    rel = np.where(scale > 0, diff / np.where(scale > 0, scale, 1.0), 0.0)
    top = scale.max(initial=0.0)
    scaled = diff.max(initial=0.0) / top if top > 0 else 0.0
    return float(rel.max(initial=0.0)), float(scaled)


def compare(base: Path, checkout: Path) -> int:
    """Print how far each output of `checkout` that differs from `base`'s moved."""
    with tempfile.TemporaryDirectory() as tmp_base, tempfile.TemporaryDirectory() as tmp:
        pairs = list(zip(protocol(base, Path(tmp_base)), protocol(checkout, Path(tmp))))
        n_differ = 0
        for old, new in pairs:
            if old.read_bytes() == new.read_bytes():
                continue
            n_differ += 1
            print(new.relative_to(tmp))
            old_numbers, new_numbers = _numbers(old), _numbers(new)
            for name in sorted(old_numbers.keys() | new_numbers.keys()):
                a, b = old_numbers.get(name), new_numbers.get(name)
                if a is None or b is None or a.shape != b.shape:
                    shapes = [None if v is None else v.shape for v in (a, b)]
                    print(f"    {name}  shape {shapes[0]} -> {shapes[1]}")
                else:
                    rel, scaled = _differences(a, b)
                    print(f"    {name}  rel {rel:.3g}  scaled {scaled:.3g}")
        print(f"{n_differ} of {len(pairs)} outputs differ")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--compare"]:
        if len(argv) not in (2, 3):
            print("usage: hash_protocol.py --compare BASE [CHECKOUT]", file=sys.stderr)
            return 2
        return compare(Path(argv[1]).resolve(), Path(argv[2] if argv[2:] else HERE).resolve())
    checkout = Path(argv[0] if argv else HERE).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for path in protocol(checkout, work):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
