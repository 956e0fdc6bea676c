"""End-to-end CLI wiring: subcommands, overrides, exit codes, artifacts."""

import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sevreg
from sevreg.cli import main
from sevreg.nn import build_net

WORLD = {
    "feat_dim": 8,
    "signal_dims": 4,
    "nuisance_dims": 3,
    "n_labeled": 400,
    "n_unlabeled": 160,
    "n_typical": 120,
    "n_shifted_test": 100,
    "labeled_speakers": 20,
    "unlabeled_speakers": 10,
    "typical_speakers": 6,
    "shifted_speakers": 8,
    "t_range": [6, 12],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared data directory plus a template config document."""
    root = tmp_path_factory.mktemp("cli")
    doc = {
        "data": {"root": str(root / "data"), "world": WORLD},
        "model": {"hidden_dim": 32, "embed_dim": 16},
        "stage1": {"lr": 3e-3, "epochs": 4},
        "stage3": {"lr": 3e-3, "epochs": 4},
        "stage2": {"batch_size": 32, "epochs": 1},
        "strategy": "coarse",
        "seed": 0,
        "seeds": [0],
        "run_root": str(root / "runs"),
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(config_path)]) == 0
    return root, config_path, doc


# Config keys that selected no path any command takes; they are unknown now.
REMOVED_KEYS = (
    "stage2.pairing.strategy",
    "model.pool",
    "model.feature_norm",
    "model.normalize_embeddings",
    "stage2.typical_fraction",
    "stage1.decoupled_weight_decay",
    "stage3.decoupled_weight_decay",
)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(root: Path, doc: dict, name: str, **updates) -> Path:
    merged = json.loads(json.dumps(doc))
    merged.update(updates)
    path = root / name
    path.write_text(json.dumps(merged))
    return path


class TestConfigHandling:
    def test_invalid_delta_override_exits_1_no_artifacts(self, workspace, tmp_path):
        root, config_path, _ = workspace
        run_root = tmp_path / "runs"
        code = main(
            ["run-all", "--config", str(config_path), "stage1.huber_delta=-1"]
        )
        assert code == 1
        assert not run_root.exists()

    def test_unknown_override_key_exits_1(self, workspace):
        _, config_path, _ = workspace
        assert main(["run-all", "--config", str(config_path), "stage1.lrr=0.1"]) == 1

    def test_missing_corpus_exits_1(self, workspace, tmp_path):
        root, _, doc = workspace
        cfg = write_config(
            tmp_path, doc, "missing.json", data={"root": str(tmp_path / "nope"), "world": WORLD}
        )
        assert main(["run-all", "--config", str(cfg)]) == 1

    def test_bad_strategy_exits_1(self, workspace):
        _, config_path, _ = workspace
        assert main(["run-all", "--config", str(config_path), "strategy=magic"]) == 1

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_exits_1(self, workspace, tmp_path, capsys, key):
        _, config_path, doc = workspace
        assert main(["run-all", "--config", str(config_path), f"{key}=1"]) == 1
        section, *rest = key.split(".")
        nested = json.loads(json.dumps(doc.get(section, {})))
        node = nested
        for part in rest[:-1]:
            node = node.setdefault(part, {})
        node[rest[-1]] = 1
        cfg = write_config(tmp_path, doc, "removed.json", **{section: nested})
        assert main(["run-all", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_schema_comes_from_annotations(self):
        from sevreg.config import RunConfig, config_from_dict, config_to_dict

        def leaves(node):
            return sum(leaves(v) for v in node.values()) if isinstance(node, dict) else 1

        assert leaves(config_to_dict(RunConfig())) == 59
        doc = config_to_dict(RunConfig(seeds=(7, 8)))
        doc["data"]["world"]["split"] = [0.6, 0.2, 0.2]
        doc["stage2"]["pairing"]["tau"] = 2.0
        cfg = config_from_dict(doc)
        assert cfg.seeds == (7, 8)
        assert cfg.data.world.split == (0.6, 0.2, 0.2)
        assert cfg.stage2.pairing.tau == 2.0
        assert config_to_dict(cfg) == doc

    def test_override_value_parsing(self, workspace):
        from sevreg.config import apply_overrides, config_from_dict

        doc = apply_overrides(
            {}, ["seeds=[3, 4]", "strategy=dis", "stage2.pairing.tau=0.5"]
        )
        cfg = config_from_dict(doc)
        assert cfg.seeds == (3, 4)
        assert cfg.strategy == "dis"
        assert cfg.stage2.pairing.tau == 0.5

    @pytest.mark.parametrize(
        "override",
        ['stage1.lr="abc"', "stage2.pairing=3", "seeds=3", "model.hidden_dim=1.5"],
    )
    def test_mistyped_value_exits_1(self, workspace, capsys, override):
        _, config_path, _ = workspace
        assert main(["run-all", "--config", str(config_path), override]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind", ["not_utf8", "directory", "nested_too_deep", "list", "null"]
    )
    def test_unreadable_config_exits_1(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "not_utf8":
            path.write_bytes(b'{"strategy": "\xff"}')
        elif kind == "directory":
            path.mkdir()
        elif kind == "nested_too_deep":
            path.write_text("[" * 100_000 + "]" * 100_000)
        else:  # valid JSON, but not an object for the override to go into
            path.write_text("[1]" if kind == "list" else "null")
        assert main(["gen-data", "--config", str(path), "stage1.epochs=1"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "manifest,offset",
        [
            ("{not json", 1),
            ('{"name": "labeled"}', None),
            ('{"name": "labeled", "utterances": [{}]}', None),
            ("[]", None),
            ('{"\u00e9": x}', 7),
            (b'{"name": "\xff"}', 10),
        ],
        ids=["not_json", "no_utterances", "no_id", "list", "non_ascii", "not_utf8"],
    )
    def test_corrupt_manifest_exits_1(self, workspace, tmp_path, capsys, manifest, offset):
        from sevreg.cli import CORPUS_NAMES

        root, _, doc = workspace
        data = tmp_path / "data"
        for name in CORPUS_NAMES[1:]:
            (data / name).parent.mkdir(parents=True, exist_ok=True)
            (data / name).symlink_to(root / "data" / name)
        (data / CORPUS_NAMES[0]).mkdir()
        raw = manifest.encode() if isinstance(manifest, str) else manifest
        (data / CORPUS_NAMES[0] / "manifest.json").write_bytes(raw)
        cfg = write_config(tmp_path, doc, "m.json", data={"root": str(data), "world": WORLD})
        assert main(["run-all", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err
        assert str(data / CORPUS_NAMES[0] / "manifest.json") in err
        # A parse error names the byte JSON stopped at; a bad structure has none.
        if offset is None:
            assert "byte offset" not in err
        else:
            assert f"(byte offset {offset})" in err

    def test_interrupted_gen_data_exits_1(self, workspace, tmp_path, capsys):
        from sevreg.cli import CORPUS_NAMES

        root, _, doc = workspace
        data = tmp_path / "data"
        for name in CORPUS_NAMES[1:]:
            (data / name).parent.mkdir(parents=True, exist_ok=True)
            (data / name).symlink_to(root / "data" / name)
        # gen-data writes features.dsqf first and the manifest last.
        (data / CORPUS_NAMES[0]).mkdir()
        shutil.copyfile(
            root / "data" / CORPUS_NAMES[0] / "features.dsqf",
            data / CORPUS_NAMES[0] / "features.dsqf",
        )
        run_root = tmp_path / "runs"
        cfg = write_config(
            tmp_path, doc, "partial.json",
            data={"root": str(data), "world": WORLD}, run_root=str(run_root),
        )
        assert main(["run-all", "--config", str(cfg)]) == 1
        assert "run gen-data first" in capsys.readouterr().err
        assert not run_root.exists()

    def test_gen_data_writes_two_files_per_corpus(self, workspace):
        from sevreg.cli import CORPUS_NAMES

        root, _, _ = workspace
        data = root / "data"
        written = sorted(str(p.relative_to(data)) for p in data.rglob("*") if p.is_file())
        corpus_files = ("features.dsqf", "manifest.json")
        assert written == sorted(
            ["config.json"] + [f"{name}/{file}" for name in CORPUS_NAMES for file in corpus_files]
        )

    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (lambda raw: raw[:4] + b"\x01" + raw[5:], "unsupported version 1 (byte offset 4)"),
            (lambda raw: raw[:-4], "overruns the file"),
            (lambda raw: raw + b"\0", "1 trailing bytes"),
            (None, "re-run gen-data"),
        ],
        ids=["version_1", "truncated", "trailing", "per_utterance_layout"],
    )
    def test_corrupt_or_old_corpus_exits_1(self, workspace, tmp_path, capsys, corrupt, named):
        """A damaged features.dsqf, or a corpus of one DSQF file per utterance
        under features/ (DSQF version 1), exits 1 before anything is written."""
        from sevreg.cli import CORPUS_NAMES

        root, _, doc = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        corpus = data / CORPUS_NAMES[1]
        features = corpus / "features.dsqf"
        if corrupt is None:
            features.unlink()
            (corpus / "features").mkdir()
            (corpus / "features" / "u0.dsqf").write_bytes(b"DSQF" + b"\x01\0\0\0" * 3)
        else:
            features.write_bytes(corrupt(features.read_bytes()))
        run_root = tmp_path / "runs"
        cfg = write_config(
            tmp_path, doc, "corrupt.json",
            data={"root": str(data), "world": WORLD}, run_root=str(run_root),
        )
        assert main(["run-all", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and named in err
        assert str(corpus) in err
        assert not run_root.exists()

    def test_training_divergence_exits_2(self, workspace, monkeypatch):
        _, config_path, _ = workspace
        from sevreg import cli
        from sevreg.errors import TrainingDivergedError

        def boom(cfg, corpora, out_root):
            raise TrainingDivergedError("loss went non-finite")

        monkeypatch.setattr(cli, "run_all", boom)
        assert main(["run-all", "--config", str(config_path)]) == 2


class TestStageChain:
    def test_stage_commands_chain(self, workspace, tmp_path):
        _, config_path, _ = workspace
        run_dir = tmp_path / "chain"
        base = ["--config", str(config_path), "--run-dir", str(run_dir)]
        assert main(["stage1", *base]) == 0
        assert (run_dir / "stage1.dsqc").exists()
        assert (run_dir / "pseudo_histogram.json").exists()
        assert main(["stage2", *base]) == 0
        assert (run_dir / "stage2.dsqc").exists()
        assert main(["stage3", *base]) == 0
        assert (run_dir / "model.dsqc").exists()
        assert main(["evaluate", *base]) == 0
        rows = read_csv_rows(run_dir / "results.csv")
        assert {r["dataset"] for r in rows} == {"test", "shifted_test"}

    def test_pseudo_label_is_no_command(self, workspace, tmp_path, capsys):
        """stage1 pseudo-labels the pool and stage2 reads its checkpoint, so
        no step writes a pseudo-labelled corpus."""
        _, config_path, _ = workspace
        argv = ["pseudo-label", "--config", str(config_path), "--run-dir", str(tmp_path / "run")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'pseudo-label'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "blob",
        [
            b"DSQC\x02\x00\x00\x00\x05\x00",
            b"DSQC\x02\x00\x00\x00\x10\x00\x00\x00\x00\x00\x00\x00{\"st",
        ],
        ids=["ten_bytes", "truncated_metadata"],
    )
    def test_evaluate_corrupt_checkpoint_exits_1(self, workspace, tmp_path, capsys, blob):
        _, config_path, _ = workspace
        run_dir = tmp_path / "corrupt"
        run_dir.mkdir()
        (run_dir / "model.dsqc").write_bytes(blob)
        code = main(["evaluate", "--config", str(config_path), "--run-dir", str(run_dir)])
        assert code == 1
        assert "byte offset" in capsys.readouterr().err
        assert not (run_dir / "results.csv").exists()

    def test_evaluate_huge_value_count_exits_1(self, workspace, tmp_path, capsys):
        from test_formats import huge_count_checkpoint

        _, config_path, _ = workspace
        run_dir = tmp_path / "count"
        run_dir.mkdir()
        (run_dir / "model.dsqc").write_bytes(huge_count_checkpoint())
        code = main(["evaluate", "--config", str(config_path), "--run-dir", str(run_dir)])
        assert code == 1
        assert "parameters of shape (4294967295,) overruns" in capsys.readouterr().err
        assert not (run_dir / "results.csv").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_evaluate_non_finite_checkpoint_exits_1(
        self, workspace, tmp_path, capsys, value
    ):
        from sevreg.pipeline import load_checkpoint, save_checkpoint

        _, config_path, _ = workspace
        run_dir = tmp_path / "nonfinite"
        base = ["--config", str(config_path), "--run-dir", str(run_dir)]
        assert main(["stage1", *base]) == 0
        ckpt = load_checkpoint(run_dir / "stage1.dsqc")
        ckpt.flat[-1] = value  # the head bias
        save_checkpoint(run_dir / "model.dsqc", ckpt)
        assert main(["evaluate", *base]) == 1
        assert "non-finite values in parameters" in capsys.readouterr().err
        assert not (run_dir / "results.csv").exists()

    def test_dump_embeddings(self, workspace, tmp_path):
        _, config_path, _ = workspace
        run_dir = tmp_path / "emb"
        base = ["--config", str(config_path), "--run-dir", str(run_dir)]
        assert main(["stage1", *base]) == 0
        out = tmp_path / "emb.dsqe"
        assert (
            main(
                [
                    "dump-embeddings", "--config", str(config_path),
                    "--checkpoint", str(run_dir / "stage1.dsqc"),
                    "--corpus", "typical", "--out", str(out),
                ]
            )
            == 0
        )
        from sevreg.evaluation import read_embeddings

        vecs, labels, provs = read_embeddings(out)
        assert vecs.shape == (WORLD["n_typical"], 64)  # 2 * hidden_dim
        assert set(provs) == {"typical"}


@pytest.fixture(scope="module")
def teacher_checkpoint(workspace, tmp_path_factory):
    """The bytes of a stage-1 checkpoint of the template config."""
    _, config_path, _ = workspace
    run_dir = tmp_path_factory.mktemp("teacher")
    assert main(["stage1", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
    return (run_dir / "stage1.dsqc").read_bytes()


CHAIN = ("stage1", "stage2", "stage3", "evaluate")
NO_TEACHER = ("stage2", "stage3", "evaluate")

# The files a run-all seed directory may hold.
SEED_FILES = (
    "stage1.dsqc", "stage2.dsqc", "model.dsqc",
    "history.json", "pseudo_histogram.json", "report.json",
)


@pytest.mark.parametrize(
    "command, directory",
    [
        ("evaluate", "--checkpoint"),
        ("dump-embeddings", "--checkpoint"),
        ("dump-embeddings", "--out"),
    ],
    ids=["evaluate_checkpoint", "dump_embeddings_checkpoint", "dump_embeddings_out"],
)
def test_directory_where_a_file_is_expected_exits_1(
    workspace, teacher_checkpoint, tmp_path, capsys, command, directory
):
    _, config_path, _ = workspace
    (tmp_path / "adir").mkdir()
    (tmp_path / "stage1.dsqc").write_bytes(teacher_checkpoint)
    paths = {"--checkpoint": str(tmp_path / "stage1.dsqc"), "--out": str(tmp_path / "emb.dsqe")}
    paths[directory] = str(tmp_path / "adir")
    args = [command, "--config", str(config_path), "--checkpoint", paths["--checkpoint"]]
    if command == "evaluate":
        args += ["--run-dir", str(tmp_path / "run")]
    else:
        args += ["--out", paths["--out"]]
    before = sorted(tmp_path.rglob("*"))
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and "Is a directory" in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture
def no_forward(monkeypatch):
    """Fails the test if the command runs a forward pass."""
    from sevreg import pipeline

    calls = []

    def forward_batch(*args, **kwargs):
        calls.append(args)
        raise AssertionError("forward_batch ran")

    monkeypatch.setattr(pipeline, "forward_batch", forward_batch)
    yield
    assert not calls, "forward_batch ran"


@pytest.mark.parametrize(
    "out, message",
    [
        ("adir", "Is a directory"),
        ("missing/emb.dsqe", "does not exist"),
        ("afile/emb.dsqe", "is a file, not a directory"),
    ],
    ids=["directory", "missing_parent", "file_parent"],
)
def test_dump_embeddings_checks_out_before_the_forward(
    workspace, teacher_checkpoint, tmp_path, capsys, no_forward, out, message
):
    _, config_path, _ = workspace
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("not a directory\n")
    (tmp_path / "stage1.dsqc").write_bytes(teacher_checkpoint)
    before = sorted(tmp_path.rglob("*"))
    args = [
        "dump-embeddings", "--config", str(config_path),
        "--checkpoint", str(tmp_path / "stage1.dsqc"), "--out", str(tmp_path / out),
    ]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and message in err
    assert sorted(tmp_path.rglob("*")) == before


class TestChainEqualsRunAll:
    """The stage commands run run-all's steps for one seed, `cfg.seed`, so the
    chain must reproduce run-all's final model and results byte for byte."""

    @pytest.mark.parametrize(
        "overrides, steps",
        [
            ([], CHAIN),
            (["strategy=simclr"], NO_TEACHER),
            (["ablation.use_pseudo=false"], NO_TEACHER),
            (["ablation.skip_stage2=true"], ("stage3", "evaluate")),
            (["strategy=dis", "ablation.skip_stage1=true"], NO_TEACHER),
            (["strategy=baseline", "stage3.epochs=2"], ("stage3", "evaluate")),
        ],
        ids=["coarse", "simclr", "no_pseudo", "skip_stage2", "dis_skip_stage1", "baseline"],
    )
    def test_chain_matches_run_all(self, workspace, tmp_path, overrides, steps):
        _, config_path, _ = workspace
        run_root = tmp_path / "runs"
        common = [
            "--config", str(config_path), "seed=2", "seeds=[2]",
            f"run_root={run_root}", *overrides,
        ]
        assert main(["run-all", *common]) == 0
        (run_all_dir,) = run_root.iterdir()
        run_dir = tmp_path / "chain"
        for step in steps:
            assert main([step, *common, "--run-dir", str(run_dir)]) == 0, step
        seed_dir = run_all_dir / "seed_2"
        written = [name for name in SEED_FILES if (seed_dir / name).exists()]
        assert [name for name in SEED_FILES if (run_dir / name).exists()] == written
        for name in written:
            assert (run_dir / name).read_bytes() == (seed_dir / name).read_bytes(), name
        assert (run_dir / "results.csv").read_bytes() == (
            run_all_dir / "results.csv"
        ).read_bytes()
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(
            [*written, "config.json", "results.csv"]
        )

    def test_stage3_resumes_a_run_all_seed_directory(self, workspace, tmp_path):
        """Each seed directory's checkpoints record that directory's seed, so
        the stage chain with that seed resumes from it."""
        _, config_path, _ = workspace
        run_root = tmp_path / "runs"
        common = ["--config", str(config_path), "seeds=[0,1]", f"run_root={run_root}"]
        assert main(["run-all", *common]) == 0
        (run_all_dir,) = run_root.iterdir()
        run_dir = tmp_path / "seed_1"
        shutil.copytree(run_all_dir / "seed_1", run_dir)
        (run_dir / "model.dsqc").unlink()
        assert main(["stage3", *common, "seed=1", "--run-dir", str(run_dir)]) == 0
        for name in ("model.dsqc", "history.json"):
            assert (run_dir / name).read_bytes() == (
                run_all_dir / "seed_1" / name
            ).read_bytes(), name

    def test_stage3_without_stage2_checkpoint_exits_1(self, workspace, tmp_path):
        _, config_path, _ = workspace
        run_dir = tmp_path / "nostage2"
        base = ["--config", str(config_path), "--run-dir", str(run_dir)]
        assert main(["stage1", *base]) == 0
        assert main(["stage3", *base]) == 1
        assert not (run_dir / "model.dsqc").exists()

    @pytest.mark.parametrize(
        "override", ["strategy=baseline", "ablation.skip_stage2=true"]
    )
    def test_stage2_without_a_stage2_exits_1(self, workspace, tmp_path, override):
        _, config_path, _ = workspace
        run_dir = tmp_path / "nostage2"
        code = main(
            ["stage2", "--config", str(config_path), override, "--run-dir", str(run_dir)]
        )
        assert code == 1
        assert not run_dir.exists()

    @pytest.mark.parametrize("step", ["stage1"])
    @pytest.mark.parametrize(
        "override",
        [
            "strategy=baseline", "strategy=simclr", "ablation.skip_stage1=true",
            "ablation.skip_stage2=true", "ablation.use_pseudo=false",
        ],
    )
    def test_teacher_steps_nothing_reads_exit_1(
        self, workspace, teacher_checkpoint, tmp_path, capsys, step, override
    ):
        _, config_path, _ = workspace
        run_dir = tmp_path / "noteacher"
        run_dir.mkdir()
        (run_dir / "stage1.dsqc").write_bytes(teacher_checkpoint)
        code = main(
            [step, "--config", str(config_path), override, "--run-dir", str(run_dir)]
        )
        assert code == 1
        assert "reads no stage-1 teacher" in capsys.readouterr().err
        assert list(run_dir.iterdir()) == [run_dir / "stage1.dsqc"]
        assert (run_dir / "stage1.dsqc").read_bytes() == teacher_checkpoint


@pytest.fixture(scope="module")
def stage2_inputs(workspace, tmp_path_factory):
    """A run dir after stage1 and stage2 of the template config."""
    _, config_path, _ = workspace
    run_dir = tmp_path_factory.mktemp("inputs")
    for step in ("stage1", "stage2"):
        assert main([step, "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
    return run_dir


def cut(ckpt, key, index=...):
    """The checkpoint with the values at `index` of parameter `key` cut from
    its flat array."""
    positions = build_net(seed_or_rng=0, **ckpt.meta["model"]).named(np.arange(ckpt.flat.size))
    return replace(ckpt, flat=np.delete(ckpt.flat, positions[key][index]))


def drop_bias(ckpt):
    return cut(ckpt, "adaptor1.bias")


def narrow_trunk(ckpt):
    return cut(ckpt, "adaptor2.weight", np.s_[:, -1])


BAD_HISTORY = {
    "not_json": b"{not json",
    "list": b'[\n  {\n    "epoch": 0\n  }\n]\n',
    "no_final": b'{"stage1": [], "stage2": []}\n',
}


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if a stage step starts training."""
    from sevreg import experiments

    def trained(*args, **kwargs):
        pytest.fail("a stage trained despite a corrupt input")

    for name in ("train_regression", "train_stage2", "train_stage3"):
        monkeypatch.setattr(experiments, name, trained)


@pytest.mark.usefixtures("no_training")
class TestStageInputs:
    """A corrupt or foreign stage input exits 1 before any training, and
    writes nothing."""

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (drop_bias, "parameter values"),
            (narrow_trunk, "parameter values"),
            (None, "byte offset"),
        ],
        ids=["no_adaptor1_bias", "misshapen_trunk", "ten_bytes"],
    )
    def test_stage3_corrupt_stage2_checkpoint_exits_1(
        self, workspace, stage2_inputs, tmp_path, capsys, mutate, named
    ):
        from sevreg.pipeline import load_checkpoint, save_checkpoint

        _, config_path, _ = workspace
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        if mutate is None:
            (run_dir / "stage2.dsqc").write_bytes(b"DSQC\x02\x00\x00\x00\x05\x00")
        else:
            ckpt = mutate(load_checkpoint(stage2_inputs / "stage2.dsqc"))
            save_checkpoint(run_dir / "stage2.dsqc", ckpt)
        code = main(["stage3", "--config", str(config_path), "--run-dir", str(run_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert "validation error" in err
        assert named in err
        assert not (run_dir / "model.dsqc").exists()

    @pytest.mark.parametrize(
        "step, checkpoint, overrides, named",
        [
            ("stage3", "stage2.dsqc", ["seed=5", "seeds=[5]"], "another seed"),
            ("stage2", "stage1.dsqc", ["seed=5", "seeds=[5]"], "another seed"),
            ("stage2", "stage1.dsqc", ["model.hidden_dim=16"], "another model"),
            ("stage2", "stage1.dsqc", ["stage1.lr=0.001"], "another stage1"),
            ("stage2", "stage1.dsqc", ["data.world.seed=7"], "another data.world"),
            ("stage3", "stage2.dsqc", ["stage2.pairing.tau=5.0"], "another stage2"),
            ("stage3", "stage2.dsqc", ["strategy=dis"], "another strategy"),
            ("stage3", "stage2.dsqc", None, "records no config object"),
        ],
        ids=[
            "stage3_seed", "stage2_seed", "stage2_hidden_dim", "stage2_stage1_lr",
            "stage2_world_seed", "stage3_stage2_tau", "stage3_strategy", "stage3_no_config",
        ],
    )
    def test_checkpoint_of_another_chain_exits_1(
        self, workspace, stage2_inputs, tmp_path, capsys, step, checkpoint, overrides, named
    ):
        from sevreg.pipeline import load_checkpoint, save_checkpoint

        _, config_path, _ = workspace
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        shutil.copyfile(stage2_inputs / "history.json", run_dir / "history.json")
        if overrides is None:
            ckpt = load_checkpoint(stage2_inputs / checkpoint)
            del ckpt.meta["config"]
            save_checkpoint(run_dir / checkpoint, ckpt)
        else:
            shutil.copyfile(stage2_inputs / checkpoint, run_dir / checkpoint)
        before = {path: path.read_bytes() for path in run_dir.rglob("*")}
        args = [step, "--config", str(config_path), *(overrides or []), "--run-dir", str(run_dir)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and named in err
        assert {path: path.read_bytes() for path in run_dir.rglob("*")} == before

    def test_evaluate_projector_checkpoint_exits_1(
        self, workspace, stage2_inputs, tmp_path, capsys
    ):
        _, config_path, _ = workspace
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        code = main(
            [
                "evaluate", "--config", str(config_path), "--run-dir", str(run_dir),
                "--checkpoint", str(stage2_inputs / "stage2.dsqc"),
            ]
        )
        assert code == 1
        assert "one-output regressor" in capsys.readouterr().err
        assert list(run_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "step, inputs",
        [("stage1", ()), ("stage2", ("stage1.dsqc",)), ("stage3", ("stage2.dsqc",))],
        ids=["stage1", "stage2", "stage3"],
    )
    @pytest.mark.parametrize("history", BAD_HISTORY.values(), ids=list(BAD_HISTORY))
    def test_bad_history_exits_1(
        self, workspace, stage2_inputs, tmp_path, capsys, step, inputs, history
    ):
        _, config_path, _ = workspace
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for name in inputs:
            shutil.copyfile(stage2_inputs / name, run_dir / name)
        (run_dir / "history.json").write_bytes(history)
        before = sorted(run_dir.rglob("*"))
        code = main([step, "--config", str(config_path), "--run-dir", str(run_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert "validation error" in err
        assert str(run_dir / "history.json") in err
        assert (run_dir / "history.json").read_bytes() == history
        assert sorted(run_dir.rglob("*")) == before

    @pytest.mark.parametrize("nested", [False, True], ids=["file", "below_file"])
    @pytest.mark.parametrize("step", ["stage1", "stage3", "evaluate", "run-all"])
    def test_run_dir_that_is_a_file_exits_1(self, workspace, tmp_path, capsys, step, nested):
        _, config_path, _ = workspace
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory")
        target = taken / "run" if nested else taken
        if step == "run-all":
            argv = [step, "--config", str(config_path), f"run_root={target}"]
        else:
            argv = [step, "--config", str(config_path), "--run-dir", str(target)]
        assert main(argv) == 1
        assert f"validation error: '{taken}' is a file, not a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_bytes() == b"not a directory"


class TestRunAll:
    def test_rows_per_seed_and_resolved_config(self, workspace, tmp_path):
        root, _, doc = workspace
        cfg = write_config(
            tmp_path, doc, "five.json", seeds=[0, 1, 2, 3, 4],
            run_root=str(tmp_path / "runs"),
            stage1={"lr": 3e-3, "epochs": 2}, stage3={"lr": 3e-3, "epochs": 2},
            strategy="baseline",
        )
        assert main(["run-all", "--config", str(cfg)]) == 0
        run_dirs = list((tmp_path / "runs").iterdir())
        assert len(run_dirs) == 1
        rows = read_csv_rows(run_dirs[0] / "results.csv")
        for dataset in ("test", "shifted_test"):
            assert sum(r["dataset"] == dataset for r in rows) == 5
        resolved = json.loads((run_dirs[0] / "config.json").read_text())
        assert resolved["seeds"] == [0, 1, 2, 3, 4]
        assert (run_dirs[0] / "summary.json").exists()
        for seed in range(5):
            assert (run_dirs[0] / f"seed_{seed}" / "model.dsqc").exists()

    def test_determinism_across_invocations_and_env_root(
        self, workspace, tmp_path, monkeypatch
    ):
        root, config_path, doc = workspace
        cfg = write_config(
            tmp_path, doc, "det.json", run_root=str(tmp_path / "runsA")
        )
        assert main(["run-all", "--config", str(cfg)]) == 0
        run_a = next((tmp_path / "runsA").iterdir())
        monkeypatch.setenv("SEVREG_RUN_ROOT", str(tmp_path / "runsB"))
        assert main(["run-all", "--config", str(cfg)]) == 0
        monkeypatch.delenv("SEVREG_RUN_ROOT")
        run_b = (tmp_path / "runsB") / run_a.name  # same run id, new root
        assert run_b.exists()
        for rel in ("results.csv", "seed_0/model.dsqc", "seed_0/stage2.dsqc"):
            assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes()


class TestHarnesses:
    def test_sweep_tau_subset_grid(self, workspace, tmp_path):
        root, _, doc = workspace
        cfg = write_config(
            tmp_path, doc, "sweep.json", run_root=str(tmp_path / "runs"),
        )
        assert main(["sweep-tau", "--config", str(cfg), "--grid", "1.0", "10.0"]) == 0
        sweep_dir = next(p for p in (tmp_path / "runs").iterdir() if p.name.startswith("sweep_"))
        payload = json.loads((sweep_dir / "sweep_tau.json").read_text())
        assert payload["grid"] == [1.0, 10.0]
        taus = {row["tau"] for row in payload["improvements"]}
        assert taus == {1.0, 10.0}
        for row in payload["improvements"]:
            assert row["median_srcc"] is not None

    def test_sweep_tau_rejects_baseline(self, workspace, tmp_path):
        root, _, doc = workspace
        cfg = write_config(
            tmp_path, doc, "sb.json", strategy="baseline",
            run_root=str(tmp_path / "runs"),
        )
        assert main(["sweep-tau", "--config", str(cfg)]) == 1

    def test_ablate_subset(self, workspace, tmp_path):
        root, _, doc = workspace
        cfg = write_config(
            tmp_path, doc, "ab.json", run_root=str(tmp_path / "runs"),
            stage1={"lr": 3e-3, "epochs": 2}, stage3={"lr": 3e-3, "epochs": 2},
        )
        assert (
            main(
                [
                    "ablate", "--config", str(cfg),
                    "--variants", "wo_var", "skip_stage2",
                ]
            )
            == 0
        )
        ablate_dir = next(p for p in (tmp_path / "runs").iterdir() if p.name.startswith("ablate_"))
        summary = json.loads((ablate_dir / "ablate_summary.json").read_text())
        assert set(summary) == {"wo_var", "skip_stage2"}
        assert summary["wo_var"]["run_id"] != summary["skip_stage2"]["run_id"]


# Imported as sitecustomize by every process of a run, its workers too: each
# seed gets a worker process of its own, also on a one-CPU machine.
ONE_WORKER_PER_SEED = """
from sevreg import experiments

experiments.workers = lambda n_seeds: n_seeds
"""

FAIL_SEED_1 = """
from sevreg import errors

real_run_single = experiments.run_single


def run_single(cfg, corpora, seed, *args, **kwargs):
    if seed == 1:
        raise errors.{error}("seed 1 failed on purpose")
    return real_run_single(cfg, corpora, seed, *args, **kwargs)


experiments.run_single = run_single
"""


def sevreg_process(args: list[str], tmp_path: Path, site: str) -> subprocess.CompletedProcess:
    """`python -m sevreg <args>` in a new process with `site` as its
    sitecustomize."""
    site_dir = tmp_path / "site"
    site_dir.mkdir()
    (site_dir / "sitecustomize.py").write_text(site)
    src = str(Path(sevreg.__file__).resolve().parents[1])
    path = [str(site_dir), src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("SEVREG_RUN_ROOT", None)
    return subprocess.run(
        [sys.executable, "-m", "sevreg", *args],
        env=env, capture_output=True, text=True, timeout=600,
    )


class TestWorkerProcesses:
    def test_worker_logs_reach_stderr(self, workspace, tmp_path):
        _, _, doc = workspace
        # a teacher that never leaves its init predicts one clamped score, so
        # its validation SRCC is undefined
        cfg = write_config(
            tmp_path, doc, "logs.json", seeds=[0, 1], run_root=str(tmp_path / "runs"),
            stage1={"lr": 1e-9, "epochs": 1},
        )
        proc = sevreg_process(["run-all", "--config", str(cfg)], tmp_path, ONE_WORKER_PER_SEED)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        for start in (
            "INFO stage-2 corpus: N=",
            "INFO pseudo-label histogram: {",
            "WARNING validation SRCC was undefined on all 1 epochs",
        ):
            assert sum(line.startswith(start) for line in lines) == 2, proc.stderr

    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            ("TrainingDivergedError", 2, "runtime failure"),
            ("ConfigError", 1, "validation error"),
            ("FeatureFormatError", 1, "validation error"),
        ],
    )
    def test_worker_failure_keeps_exit_code(self, workspace, tmp_path, error, code, prefix):
        _, _, doc = workspace
        run_root = tmp_path / "runs"
        cfg = write_config(tmp_path, doc, "fail.json", seeds=[0, 1], run_root=str(run_root))
        site = ONE_WORKER_PER_SEED + FAIL_SEED_1.format(error=error)
        proc = sevreg_process(["run-all", "--config", str(cfg)], tmp_path, site)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.splitlines()[-1] == f"{prefix}: seed 1 failed on purpose"
        assert not list(run_root.rglob("results.csv"))
