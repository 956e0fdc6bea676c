"""Byte oracle: run a fixed set of sevreg commands and print a digest of
every file they write.

    python3 tools/byte_oracle.py [--src PATH/TO/src] > oracle.txt

The commands run in a fresh temporary directory, each as its own
`python3 -m sevreg` process importing the package from `--src` (default:
the `src` beside this script):

- `gen-data` of the default world and of the fast world;
- on the fast world, with seeds [0, 1]: `sweep-tau`, `ablate`,
  `run-all strategy=simclr`, the stage chain `stage1` -> `stage2` ->
  `stage3` -> `evaluate` (seed 0), and `dump-embeddings` of the chain's
  stage-2 checkpoint;
- on the default world, a coarse `run-all` with seeds [0].

It prints one `sha256  path` line per file, sorted by path. A change that
must keep every output byte for byte is checked with

    diff <(python3 tools/byte_oracle.py --src ../parent/src) \\
         <(python3 tools/byte_oracle.py)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# The acceptance suite's fast configuration (criteria 8-10).
FAST = {
    "data.world.feat_dim": 8,
    "data.world.signal_dims": 4,
    "data.world.nuisance_dims": 3,
    "data.world.n_labeled": 400,
    "data.world.n_unlabeled": 160,
    "data.world.n_typical": 120,
    "data.world.n_shifted_test": 100,
    "data.world.labeled_speakers": 20,
    "data.world.unlabeled_speakers": 10,
    "data.world.typical_speakers": 6,
    "data.world.shifted_speakers": 8,
    "data.world.t_range": [6, 12],
    "model.hidden_dim": 32,
    "model.embed_dim": 16,
    "stage1.lr": 3e-3,
    "stage1.epochs": 4,
    "stage3.lr": 3e-3,
    "stage3.epochs": 4,
    "stage2.batch_size": 32,
}


def overrides(values: dict) -> list[str]:
    return [f"{key}={json.dumps(value)}" for key, value in values.items()]


def commands() -> list[list[str]]:
    """Each command's argv after `python3 -m sevreg`, in the order they run."""
    fast = overrides({**FAST, "data.root": "data_fast", "run_root": "runs_fast",
                      "seed": 0, "seeds": [0, 1]})
    chain = overrides({**FAST, "data.root": "data_fast", "seed": 0, "seeds": [0]})
    default = overrides({"data.root": "data_default", "run_root": "runs_default",
                         "strategy": "coarse", "seed": 0, "seeds": [0]})
    steps = ["stage1", "stage2", "stage3", "evaluate"]
    return [
        ["gen-data", *default],
        ["gen-data", *fast],
        ["sweep-tau", *fast],
        ["ablate", *fast],
        ["run-all", *fast, "strategy=\"simclr\""],
        *([step, "--run-dir", "chain", *chain] for step in steps),
        ["dump-embeddings", "--checkpoint", "chain/stage2.dsqc", "--corpus", "labeled",
         "--out", "chain/embeddings.dsqe", *chain],
        ["run-all", *default],
    ]


def run(src: Path, work: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv in commands():
        done = subprocess.run(
            [sys.executable, "-m", "sevreg", *argv], cwd=work, env=env,
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.exit(f"sevreg {argv[0]} exited {done.returncode}:\n{done.stderr}")


def digests(work: Path) -> list[str]:
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(work)}"
        for path in sorted(p for p in work.rglob("*") if p.is_file())
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
        help="the src directory of the checkout to run (default: this one's)",
    )
    args = parser.parse_args()
    src = args.src.resolve()
    if not (src / "sevreg" / "__init__.py").is_file():
        sys.exit(f"no sevreg package under {src}")
    with tempfile.TemporaryDirectory(prefix="sevreg-oracle-") as tmp:
        run(src, Path(tmp))
        print("\n".join(digests(Path(tmp))))


if __name__ == "__main__":
    main()
