"""The shared framing of DSQF, DSQC and DSQE files: one error convention, and
no corrupt file gets past its reader as anything but FeatureFormatError."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from stacks import stack_of

from sevreg.data import read_feature_file, write_feature_file
from sevreg.errors import EmptyInputError, FeatureFormatError
from sevreg.evaluation import read_embeddings, write_embeddings
from sevreg.nn import build_net
from sevreg.pipeline import checkpoint_from_net, load_checkpoint, save_checkpoint


def dsqf(path):
    """Two utterances of D 3 and lengths 4 and 2: a 16-byte header, the
    lengths at 16, the payload at 24, 96 bytes in all."""
    rng = np.random.default_rng(0)
    write_feature_file(path, stack_of([rng.standard_normal((4, 3)), rng.standard_normal((2, 3))]))


def dsqc(path):
    net = build_net(feat_dim=3, seed_or_rng=0, hidden_dim=4, out_dim=2)
    save_checkpoint(path, checkpoint_from_net(net, "stage1", {"lr": 0.1}))


def dsqe(path):
    rng = np.random.default_rng(1)
    write_embeddings(
        path, rng.standard_normal((3, 4)), [1.0, None, 7.0], ["labeled", "pseudo", "typical"]
    )


FORMATS = {
    "dsqf": (dsqf, read_feature_file),
    "dsqc": (dsqc, load_checkpoint),
    "dsqe": (dsqe, read_embeddings),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats")
    blobs = {}
    for name, (write, read) in FORMATS.items():
        path = root / f"valid.{name}"
        write(path)
        read(path)
        blobs[name] = path.read_bytes()
    return root, blobs


@pytest.mark.parametrize("name", sorted(FORMATS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_any_corruption_loads_or_raises_format_error(valid_files, name, data):
    root, blobs = valid_files
    raw = bytearray(blobs[name])
    kind = data.draw(st.sampled_from(["truncate", "flip", "overwrite"]))
    if kind == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "flip":
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        raw[bit // 8] ^= 1 << (bit % 8)
    else:
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    path = root / f"mutant.{name}"
    path.write_bytes(bytes(raw))
    try:
        FORMATS[name][1](path)
    except FeatureFormatError:
        pass


class TestSharedOffsets:
    """Bad magic at 0, bad version and a short header at 4, a truncated
    payload where it starts, trailing bytes at the first extra byte, and
    non-finite DSQF values at the payload offset."""

    @pytest.mark.parametrize(
        "corrupt, offset",
        [
            (lambda raw: b"DSQE" + raw[4:], 0),
            (lambda raw: raw[:4] + b"\x01" + raw[5:], 4),
            (lambda raw: raw[:10], 4),
            (lambda raw: raw[:8] + struct.pack("<I", 0) + raw[12:], 8),
            (lambda raw: raw[:12] + struct.pack("<I", 0) + raw[16:], 12),
            (lambda raw: raw[:18], 16),
            (lambda raw: raw[:20] + struct.pack("<I", 0) + raw[24:], 20),
            (lambda raw: raw[:-1], 24),
            (lambda raw: raw[:24] + struct.pack("<f", np.nan) + raw[28:], 24),
            (lambda raw: raw + b"\0\0", 96),
        ],
        ids=[
            "magic", "version", "short_header", "zero_count", "zero_dim",
            "truncated_lengths", "zero_length", "truncated", "nan", "trailing",
        ],
    )
    def test_dsqf(self, tmp_path, corrupt, offset):
        path = tmp_path / "f.dsqf"
        dsqf(path)
        assert len(path.read_bytes()) == 96
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(FeatureFormatError) as err:
            read_feature_file(path)
        assert err.value.offset == offset

    def test_dsqc_bad_version_at_4(self, tmp_path):
        path = tmp_path / "c.dsqc"
        dsqc(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + b"\x07" + raw[5:])
        with pytest.raises(FeatureFormatError, match="unsupported version 7") as err:
            load_checkpoint(path)
        assert err.value.offset == 4


class TestLeaksBecomeFormatErrors:
    """Each of these escaped as a bare ValueError or loaded without complaint."""

    @pytest.mark.parametrize("dim", [1 << 31, (1 << 32) - 1])
    def test_dsqe_huge_dim(self, tmp_path, dim):
        path = tmp_path / "e.dsqe"
        path.write_bytes(b"DSQE" + struct.pack("<III", 1, 0, dim))
        with pytest.raises(FeatureFormatError) as err:
            read_embeddings(path)
        assert err.value.offset == 16

    def test_dsqc_huge_value_count(self, tmp_path, monkeypatch):
        path = tmp_path / "c.dsqc"
        path.write_bytes(huge_count_checkpoint())

        def built(*args, **kwargs):
            pytest.fail("the reader built the array before it checked the count")

        monkeypatch.setattr(np, "frombuffer", built)
        with pytest.raises(FeatureFormatError, match=r"shape \(4294967295,\) overruns") as err:
            load_checkpoint(path)
        assert err.value.offset == path.stat().st_size

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_dsqf_non_finite_values(self, tmp_path, value):
        path = tmp_path / "f.dsqf"
        values = np.ones((2, 3), dtype="<f4")
        values[1, 2] = value
        path.write_bytes(b"DSQF" + struct.pack("<IIII", 2, 1, 3, 2) + values.tobytes())
        with pytest.raises(FeatureFormatError, match="non-finite") as err:
            read_feature_file(path)
        assert err.value.offset == 20

    def test_dsqf_huge_count(self, tmp_path, monkeypatch):
        path = tmp_path / "f.dsqf"
        path.write_bytes(b"DSQF" + struct.pack("<III", 2, (1 << 32) - 1, 3))

        def built(*args, **kwargs):
            pytest.fail("the reader built the array before it checked the count")

        monkeypatch.setattr(np, "frombuffer", built)
        with pytest.raises(FeatureFormatError, match="utterance lengths") as err:
            read_feature_file(path)
        assert err.value.offset == 16


def huge_count_checkpoint() -> bytes:
    """A DSQC file whose header counts 2^32 - 1 parameter values (16 GiB of
    float32) but which ends after its metadata."""
    meta = b'{"stage": "stage1"}'
    return b"DSQC" + struct.pack("<III", 2, len(meta), (1 << 32) - 1) + meta


def test_empty_embedding_dump_rejected_on_write(tmp_path):
    with pytest.raises(EmptyInputError):
        write_embeddings(tmp_path / "e.dsqe", np.zeros((0, 4)), [], [])


def test_deeply_nested_manifest_exits_1(tmp_path, capsys):
    """A manifest nested past the JSON parser's recursion limit is a format
    error (exit 1), as deep checkpoint metadata or a deep history.json is,
    not a runtime failure (exit 2)."""
    from sevreg.cli import CORPUS_NAMES, main

    for name in CORPUS_NAMES:
        (tmp_path / "data" / name).mkdir(parents=True)
        (tmp_path / "data" / name / "manifest.json").write_text("[" * 200_000 + "]" * 200_000)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"root": str(tmp_path / "data")}}))
    assert main(["run-all", "--config", str(config), "run_root=" + str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and "corrupt corpus manifest" in err
