"""Atomic artifact writes: a writer that fails leaves the previous file."""

import struct

import numpy as np
import pytest

from gowrank import cli, model
from gowrank.artifacts import atomic_write
from gowrank.datagen import overfit_corpus
from gowrank.evaluation import write_report
from gowrank.model import HyperParams, init_params, save_checkpoint
from gowrank.retrieval import write_run


class _Boom:
    def __iter__(self):
        raise RuntimeError("boom")


def _raise_mid_write(path):
    with atomic_write(path) as fh:
        fh.write("partial")
        raise RuntimeError("boom")


def _params():
    return init_params(HyperParams(steps=1, pool_k=3, max_query_len=4),
                       np.random.default_rng(0))


WRITERS = {
    "atomic_write": _raise_mid_write,
    # the second query's block raises after the first block is written
    "run": lambda path: write_run(path, {"q1": [("d1", 1.0)], "q2": _Boom()}, "t"),
    # json.dump streams the first key before the unserializable value
    "report": lambda path: write_report({"a": 1, "b": object()}, path),
}


class TestAtomicWrite:
    def test_replaces_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_write(path) as fh:
            fh.write("new\n")
        with atomic_write(tmp_path / "out.bin", binary=True) as fh:
            fh.write(b"\x00\x01")
        assert path.read_text() == "new\n"
        assert (tmp_path / "out.bin").read_bytes() == b"\x00\x01"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "out.txt"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_writer_keeps_old_bytes(self, tmp_path, writer):
        path = tmp_path / "artifact"
        path.write_bytes(b"old bytes\n")
        with pytest.raises((RuntimeError, TypeError)):
            WRITERS[writer](path)
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_failed_checkpoint_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, _params())
        before = path.read_bytes()
        monkeypatch.setattr(model, "CHECKPOINT_MAGIC", "not bytes")
        with pytest.raises(TypeError):
            save_checkpoint(path, _params())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("crash", ["encode", "write"])
    def test_failed_index_keeps_old_index_file(self, tmp_path, monkeypatch, crash):
        overfit_corpus(seed=0).write(tmp_path)
        argv = ["index", "--corpus", str(tmp_path / "corpus.jsonl"),
                "--index-dir", str(tmp_path / "index"), "--min-freq", "1"]
        assert cli.main(argv) == 0
        index_dir = tmp_path / "index"
        before = {p.name: p.read_bytes() for p in index_dir.iterdir()}
        assert sorted(before) == ["index.bin"]
        if crash == "encode":
            calls = []
            real_encode = cli.encode_document

            def encode_then_fail(*args):
                calls.append(args)
                if len(calls) == 2:
                    raise RuntimeError("crash mid-index")
                return real_encode(*args)

            monkeypatch.setattr(cli, "encode_document", encode_then_fail)
            expected = RuntimeError
        else:
            # the preamble cannot pack a negative version: the write fails
            # after the temporary file is open
            monkeypatch.setattr(cli, "INDEX_VERSION", -1)
            expected = struct.error
        with pytest.raises(expected):
            cli.main(argv)
        assert {p.name: p.read_bytes() for p in index_dir.iterdir()} == before
