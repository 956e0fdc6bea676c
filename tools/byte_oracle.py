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
must keep every output byte for byte is checked against the committed
manifest, `tools/oracle.sha256`:

    python3 tools/byte_oracle.py --check

which exits 1 and names every file that differs, is missing or is new; a
missing and a new file with the same digest are one file that moved (files
of one digest pair in path order), as under a change of run ids. The
manifest's header records the numpy version, the OpenBLAS version and the
CPU model it was made on; matmul bits depend on the BLAS kernel, so
`--check` refuses to compare (exit 2) where any of them differs. Then diff
two checkouts on the same machine instead:

    diff <(python3 tools/byte_oracle.py --src ../parent/src) \\
         <(python3 tools/byte_oracle.py)

A change that moves bytes on purpose rewrites the manifest in the same
commit with `--write`, so the diff shows which files moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).resolve().parent / "oracle.sha256"

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


def machine_facts() -> dict[str, str]:
    """What the digests depend on beyond the source: numpy, its BLAS, the CPU."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
        cpu = next(line.split(":", 1)[1].strip() for line in lines if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "cpu": cpu}


def write_manifest(lines: list[str], path: Path) -> None:
    header = [f"# {key}: {value}" for key, value in machine_facts().items()]
    path.write_text("\n".join([*header, *lines]) + "\n")


def check(lines: list[str], path: Path) -> int:
    """0 if `lines` equal the manifest, 1 if files differ, moved, are missing
    or are new (each named), 2 if the manifest was made on another machine."""
    text = path.read_text().splitlines()
    facts = dict(line[2:].split(": ", 1) for line in text if line.startswith("# "))
    ours = machine_facts()
    if facts != ours:
        print(f"refusing to compare: {path} was made on {facts}, this is {ours}", file=sys.stderr)
        return 2
    want = dict(line.split("  ", 1)[::-1] for line in text if not line.startswith("# "))
    got = dict(line.split("  ", 1)[::-1] for line in lines)
    new = {}  # digest -> the new files of that digest, in path order
    for name in sorted(got.keys() - want.keys()):
        new.setdefault(got[name], []).append(name)
    changed = [f"changed {name}" for name in want.keys() & got.keys() if want[name] != got[name]]
    for old in sorted(want.keys() - got.keys()):
        moved = new.get(want[old])
        changed.append(f"moved {old} -> {moved.pop(0)}" if moved else f"missing {old}")
    changed = sorted(changed + [f"new {name}" for names in new.values() for name in names])
    print("\n".join(changed) or f"{len(got)} files identical to {path}")
    return 1 if changed else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
        help="the src directory of the checkout to run (default: this one's)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare with the manifest")
    mode.add_argument("--write", action="store_true", help="rewrite the manifest")
    parser.add_argument("--manifest", type=Path, default=MANIFEST, help=f"default: {MANIFEST.name}")
    args = parser.parse_args()
    src = args.src.resolve()
    if not (src / "sevreg" / "__init__.py").is_file():
        sys.exit(f"no sevreg package under {src}")
    with tempfile.TemporaryDirectory(prefix="sevreg-oracle-") as tmp:
        run(src, Path(tmp))
        lines = digests(Path(tmp))
    if args.check:
        sys.exit(check(lines, args.manifest))
    if args.write:
        write_manifest(lines, args.manifest)
    else:
        print("\n".join(lines))


if __name__ == "__main__":
    main()
