"""Print the sha256 of every output of a fixed set of CLI runs of a checkout.

    python3 tools/hash_protocol.py [CHECKOUT]

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
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    checkout = Path(argv[0] if argv else HERE).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for path in protocol(checkout, work):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
