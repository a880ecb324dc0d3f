"""Artifacts: a writer that fails leaves the previous file, the .npz
reader refuses what `write_arrays` does not write, and a damaged index or
checkpoint is refused or loads unchanged."""

import io
import random
import zipfile

import numpy as np
import pytest

import helpers
from gowrank import cli, indexfile
from gowrank.artifacts import atomic_write, read_arrays, write_arrays
from gowrank.datagen import overfit_corpus
from gowrank.errors import DataFormatError
from gowrank.evaluation import write_report
from gowrank.model import (
    HyperParams,
    init_params,
    iter_tensors,
    load_checkpoint,
    save_checkpoint,
)
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


# name: (writer that fails midway, the exception it raises)
WRITERS = {
    "atomic_write": (_raise_mid_write, RuntimeError),
    # the second query's block raises after the first block is written
    "run": (lambda path: write_run(path, {"q1": [("d1", 1.0)], "q2": _Boom()}, "t"),
            RuntimeError),
    # json.dump streams the first key before the unserializable value
    "report": (lambda path: write_report({"a": 1, "b": object()}, path), TypeError),
    # the header member is written before the object array is refused
    "arrays": (lambda path: write_arrays(path, {}, {"a": np.array([None])}),
               ValueError),
}


def _fail_on_second_member(monkeypatch):
    """Make np.savez raise as it starts its second member, after the
    first one is in the temporary file."""
    write_array = np.lib.format.write_array
    calls = []

    def write_then_fail(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("crash mid-write")
        return write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", write_then_fail)


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
        write, error = WRITERS[writer]
        with pytest.raises(error):
            write(path)
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_failed_checkpoint_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, _params())
        before = path.read_bytes()
        _fail_on_second_member(monkeypatch)
        with pytest.raises(RuntimeError, match="crash mid-write"):
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
        assert sorted(before) == ["index.npz"]
        if crash == "encode":
            calls = []
            real_encode = cli.encode_document

            def encode_then_fail(*args):
                calls.append(args)
                if len(calls) == 2:
                    raise RuntimeError("crash mid-index")
                return real_encode(*args)

            monkeypatch.setattr(cli, "encode_document", encode_then_fail)
        else:
            _fail_on_second_member(monkeypatch)
        with pytest.raises(RuntimeError, match="crash mid-"):
            cli.main(argv)
        assert {p.name: p.read_bytes() for p in index_dir.iterdir()} == before


def _savez(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(b"{}", np.uint8), **arrays)


# (case, how the file is written, fragment of the message)
FOREIGN_FILES = [
    ("plain-npy", lambda path: path.write_bytes(helpers.npy_bytes(np.arange(3))),
     "unreadable (BadZipFile: File is not a zip file)"),
    ("text", lambda path: path.write_text("offsets tokens\n"),
     "unreadable (BadZipFile: File is not a zip file)"),
    ("pickled-member", lambda path: _savez(path, a=np.array([{"x": 1}])),
     "Object arrays cannot be loaded when allow_pickle=False"),
    ("compressed-member", lambda path: np.savez_compressed(
        path, header=np.frombuffer(b"{}", np.uint8)),
     "member 'header.npy' is repeated, compressed, encrypted or not .npy"),
    ("not-npy-member", lambda path: helpers.write_members(path, [("a.txt", b"1 2 3")]),
     "member 'a.txt' is repeated, compressed, encrypted or not .npy"),
    ("no-header", lambda path: helpers.write_members(
        path, [("a.npy", helpers.npy_bytes(np.arange(3)))]),
     "unreadable (KeyError: 'header')"),
    ("short-member", lambda path: helpers.write_members(
        path, [("a.npy", helpers.npy_bytes(np.arange(3))[:-1])]),
     "unreadable (ValueError: EOF: reading array data, expected 24 bytes got 23)"),
    ("bytes-after-array", lambda path: helpers.write_members(
        path, [("a.npy", helpers.npy_bytes(np.arange(3), tail=b"\0"))]),
     "unreadable (ValueError: member 'a.npy' has bytes after its array)"),
]


class TestArrays:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "a.npz"
        arrays = {"offsets": np.array([0, 2, 5], dtype="<i8"),
                  "tokens": np.arange(5, dtype="<i4"),
                  "out_b": np.array(0.25), "empty": np.zeros((0, 3))}
        write_arrays(path, {"version": 2, "names": ["é"]}, arrays)
        header, got = read_arrays(path, "gowrank index")
        assert header == {"version": 2, "names": ["é"]}
        assert list(got) == list(arrays)
        for name, array in arrays.items():
            assert got[name].dtype == array.dtype and got[name].shape == array.shape
            np.testing.assert_array_equal(got[name], array)

    @pytest.mark.parametrize("make, fragment", [case[1:] for case in FOREIGN_FILES],
                             ids=[case[0] for case in FOREIGN_FILES])
    def test_refuses_what_write_arrays_does_not_write(self, tmp_path, make, fragment):
        path = tmp_path / "a.npz"
        make(path)
        with pytest.raises(DataFormatError) as info:
            read_arrays(path, "gowrank index")
        assert str(info.value).startswith(f"{path}: ")
        assert fragment in str(info.value)
        assert str(info.value).endswith("run `gowrank index` to write it again")

    def test_missing_file_names_its_writer(self, tmp_path):
        with pytest.raises(DataFormatError,
                           match="a.npz: missing; run `gowrank train` to write it$"):
            read_arrays(tmp_path / "a.npz", "gowrank train")


# --- corruption table ---------------------------------------------------------
#
# Every damaged copy of a small index and checkpoint must be refused with a
# DataFormatError naming the file, or load exactly what the intact file
# holds.  Each copy costs about a millisecond to load, so the table stays
# near a second per artifact by taking every STRIDE-th byte of the file
# and every byte of the structure of its first MEMBERS members only: the
# checkpoint's thirteen members repeat one layout.

STRIDE = 11
MEMBERS = 3


def _structure(data: bytes) -> list[int]:
    """Positions of the npy header and the central-directory entry of each
    of the first MEMBERS members, and of the end records after the central
    directory."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        infos = archive.infolist()
    spots = []
    for i, info in enumerate(infos):
        start = data.index(b"\x93NUMPY", info.header_offset)
        if i < MEMBERS:
            length = 10 + int.from_bytes(data[start + 8:start + 10], "little")
            spots += range(start, start + length)
    # the central directory follows the last member's array
    directory = start + infos[-1].file_size
    assert data[directory:directory + 4] == b"PK\x01\x02"
    sizes = [46 + len(i.filename) + len(i.extra) + len(i.comment) for i in infos]
    spots += range(directory, directory + sum(sizes[:MEMBERS]))
    return spots + list(range(directory + sum(sizes), len(data)))


def _damaged(data: bytes, seed: int):
    """(kind, bytes) of every damaged copy of `data` in the table."""
    rng = random.Random(seed)
    for cut in range(0, len(data), STRIDE):
        yield "truncated", data[:cut]
    for pos in sorted(set(range(0, len(data), STRIDE)) | set(_structure(data))):
        flipped = bytearray(data)
        flipped[pos] ^= 1 << rng.randrange(8)
        yield "flipped", bytes(flipped)
    for _ in range(20):
        edited = bytearray(data)
        for _ in range(rng.choice([2, 3])):
            edited[rng.randrange(len(data))] = rng.randrange(256)
        yield "edited", bytes(edited)


def _index_content(path):
    vocab, docs = indexfile.read_index(path.parent)
    return vocab.to_payload(), [(d.doc_id, d.tokens.tolist(), d.raw_length)
                                for d in docs.values()]


def _checkpoint_content(path):
    params, extra = load_checkpoint(path)
    return vars(params.hyper), extra, [(n, t.tolist()) for n, t in iter_tensors(params)]


ARTIFACTS = {"index": ("index/index.npz", _index_content),
             "checkpoint": ("model.ckpt", _checkpoint_content)}


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    """An overfit-corpus world with an index and a small checkpoint."""
    root = tmp_path_factory.mktemp("small")
    overfit_corpus(seed=0).write(root)
    assert cli.main(["index", "--corpus", str(root / "corpus.jsonl"),
                     "--index-dir", str(root / "index"), "--min-freq", "1"]) == 0
    save_checkpoint(root / "model.ckpt", init_params(
        HyperParams(steps=2, pool_k=5, max_query_len=4), np.random.default_rng(0)))
    return root


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_damaged_artifact_is_refused_or_unchanged(small_world, artifact):
    name, content = ARTIFACTS[artifact]
    path = small_world / name
    data = path.read_bytes()
    intact = content(path)
    refused = set()
    try:
        for kind, damaged in _damaged(data, seed=len(data)):
            path.write_bytes(damaged)
            try:
                same = content(path) == intact
            except DataFormatError as exc:
                assert str(exc).startswith(f"{path}: "), exc
                refused.add(kind)
            else:
                assert same, f"{kind} copy of {path} loaded changed content"
    finally:
        path.write_bytes(data)
    assert refused == {"truncated", "flipped", "edited"}


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
@pytest.mark.parametrize("kind", ["truncated", "flipped", "edited"])
def test_damaged_artifact_exits_2_from_rerank(small_world, tmp_path, capsys,
                                              artifact, kind):
    name, content = ARTIFACTS[artifact]
    data = (small_world / name).read_bytes()
    world = tmp_path / "world"
    (world / "index").mkdir(parents=True)
    for other in ("index/index.npz", "model.ckpt", "queries.tsv", "embeddings.txt"):
        (world / other).write_bytes((small_world / other).read_bytes())
    # the first copy of this kind that the loader refuses
    for got, damaged in _damaged(data, seed=len(data)):
        if got == kind:
            (world / name).write_bytes(damaged)
            try:
                content(world / name)
            except DataFormatError:
                break
    rc = cli.main(["rerank", "--index-dir", str(world / "index"),
                   "--queries", str(world / "queries.tsv"),
                   "--embeddings", str(world / "embeddings.txt"),
                   "--checkpoint", str(world / "model.ckpt"),
                   "--run-out", str(world / "x.run")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"data error: {world / name}: " in err
    assert "Traceback" not in err
    assert not (world / "x.run").exists()
