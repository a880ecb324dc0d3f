"""Artifacts: a writer that fails leaves the previous file, the .npz
reader refuses what `write_arrays` does not write, a damaged index or
checkpoint is refused or loads unchanged, a damaged graph store is
ignored or loads unchanged, a damaged store segment is ignored and the
store written whole again, an edited corpus is indexed as the reference
indexes it or refused with exit 2, a punctuated one is indexed as the
reference indexes it, edited queries are reranked or refused with exit
2, and edited qrels are evaluated or refused with exit 2."""

import errno
import io
import json
import logging
import os
import random
import shutil
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import helpers
from gowrank import cli, embeddings, indexfile
from gowrank.artifacts import atomic_write, read_arrays, write_arrays
from gowrank.config import RunConfig
from gowrank.corpus import default_stopwords, read_corpus, tokenize
from gowrank.datagen import bridged_corpus, overfit_corpus
from gowrank.errors import DataFormatError
from gowrank.evaluation import write_report
from gowrank.graph import graph_stores, store_arrays, stored_graphs
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
    """Make write_arrays raise as it starts its second member, after the
    first one is in the temporary file."""
    write_header = np.lib.format.write_array_header_1_0
    calls = []

    def write_then_fail(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("crash mid-write")
        return write_header(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", write_then_fail)


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
            real_text_ids = cli.text_ids

            def encode_then_fail(*args):
                calls.append(args)
                if len(calls) == 2:
                    raise RuntimeError("crash mid-index")
                return real_text_ids(*args)

            monkeypatch.setattr(cli, "text_ids", encode_then_fail)
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
    vocab, docs, _ = indexfile.read_index(path.parent)
    return vocab.to_payload(), [(d.doc_id, d.tokens.tolist(), d.raw_length)
                                for d in docs.values()]


def _checkpoint_content(path):
    params, extra = load_checkpoint(path)
    return vars(params.hyper), extra, [(n, t.tolist()) for n, t in iter_tensors(params)]


def _graphs_content(path):
    """The graphs that a command reads from the store at `path`.  A store
    it ignores, with a warning, is refused here as a DataFormatError."""
    cfg = RunConfig(index_dir=str(path.parent))
    _, docs, index_sha256 = indexfile.read_index(path.parent)
    with graph_stores(cfg.index_dir, cfg.window, docs, index_sha256, ["graph"]) as graphs:
        pass
    if not graphs["graph"]:
        raise DataFormatError(f"{path}: ignored")
    return [(doc_id, g.node_terms, *(getattr(g, name).tolist() for name in
                                     ("indptr", "indices", "counts", "weights")))
            for doc_id, g in graphs["graph"].items()]


ARTIFACTS = {"index": ("index/index.npz", _index_content),
             "checkpoint": ("model.ckpt", _checkpoint_content),
             "graphs": ("index/graphs-graph-w5.npz", _graphs_content)}
RERANK_INPUTS = ("index/index.npz", "model.ckpt", "queries.tsv", "embeddings.txt")


def _rerank(world, run, queries="queries.tsv", *flags):
    return cli.main(["rerank", "--index-dir", str(world / "index"),
                     "--queries", str(world / queries),
                     "--embeddings", str(world / "embeddings.txt"),
                     "--checkpoint", str(world / "model.ckpt"), "--run-out", str(run), *flags])


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    """An overfit-corpus world with an index and a small checkpoint."""
    root = tmp_path_factory.mktemp("small")
    overfit_corpus(seed=0).write(root)
    assert cli.main(["index", "--corpus", str(root / "corpus.jsonl"),
                     "--index-dir", str(root / "index"), "--min-freq", "1"]) == 0
    save_checkpoint(root / "model.ckpt", init_params(
        HyperParams(steps=2, pool_k=5, max_query_len=4), np.random.default_rng(0)))
    # a store of one query's pool keeps the damage table near a second
    (root / "q1.tsv").write_text((root / "queries.tsv").read_text().splitlines()[0] + "\n")
    assert _rerank(root, root / "q1.run", "q1.tsv") == 0
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


def _first_refused(kind, data, content, path):
    """Write to `path` the first damaged copy of `data` of `kind` that
    `content` refuses."""
    for got, damaged in _damaged(data, seed=len(data)):
        if got == kind:
            path.write_bytes(damaged)
            try:
                content(path)
            except DataFormatError:
                return


def _copy_world(small_world, world, names):
    (world / "index").mkdir(parents=True)
    for name in names:
        (world / name).write_bytes((small_world / name).read_bytes())


@pytest.mark.parametrize("artifact", ["checkpoint", "index"])
@pytest.mark.parametrize("kind", ["truncated", "flipped", "edited"])
def test_damaged_artifact_exits_2_from_rerank(small_world, tmp_path, capsys,
                                              artifact, kind):
    name, content = ARTIFACTS[artifact]
    data = (small_world / name).read_bytes()
    world = tmp_path / "world"
    _copy_world(small_world, world, RERANK_INPUTS)
    _first_refused(kind, data, content, world / name)
    rc = _rerank(world, world / "x.run")
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"data error: {world / name}: " in err
    assert "Traceback" not in err
    assert not (world / "x.run").exists()


@pytest.mark.parametrize("kind", ["truncated", "flipped", "edited"])
def test_damaged_graph_store_is_warned_about_and_rebuilt(small_world, tmp_path, caplog,
                                                         kind):
    # the graphs are derived data: a damaged store costs a rebuild, never
    # an error or another ranking
    name, content = ARTIFACTS["graphs"]
    world = tmp_path / "world"
    _copy_world(small_world, world, [*RERANK_INPUTS, "q1.tsv"])
    _first_refused(kind, (small_world / name).read_bytes(), content, world / name)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="gowrank"):
        assert _rerank(world, world / "q1.run", "q1.tsv") == 0
    store = [(r.levelname, r.getMessage()) for r in caplog.records
             if r.getMessage().startswith(f"graph store {world / name}")]
    assert [level for level, _ in store] == ["WARNING", "INFO"]
    assert store[1][1].endswith(": miss (damaged), written")
    assert (world / name).read_bytes() == (small_world / name).read_bytes()
    assert (world / "q1.run").read_bytes() == (small_world / "q1.run").read_bytes()


# --- graph store segments ----------------------------------------------------
#
# A warm command appends the graphs it built to the store as one segment
# file; a segment that does not read is ignored, and the store is written
# again whole, without segments.

SEGMENT = "index/graphs-graph-w5.1.npz"


def _store_log(caplog, world):
    return [(r.levelname, r.getMessage()) for r in caplog.records
            if r.getMessage().startswith(f"graph store {world / 'index'}")]


def _first_queries(world, count):
    """A queries file of the first `count` queries of `world`."""
    lines = (world / "queries.tsv").read_text().splitlines(keepends=True)
    (world / f"first{count}.tsv").write_text("".join(lines[:count]))
    return f"first{count}.tsv"


@pytest.fixture(scope="module")
def segmented_world(small_world, tmp_path_factory):
    """small_world's inputs, a store of the 35 graphs of the pools of seven
    queries, one segment of the 5 that the eighth query's pool adds, and the
    run of all eight."""
    root = tmp_path_factory.mktemp("segmented")
    _copy_world(small_world, root, RERANK_INPUTS)
    assert _rerank(root, root / "first7.run", _first_queries(root, 7)) == 0
    assert _rerank(root, root / "all.run") == 0
    assert (root / SEGMENT).exists()
    return root


def _segment_content(path):
    return stored_graphs(read_arrays(path, "t")[1], 40)


def _other_index(world):
    header, arrays = read_arrays(world / SEGMENT, "t")
    write_arrays(world / SEGMENT, {**header, "index_sha256": "0" * 64}, arrays)


def _base_row(world):
    rows, graphs = stored_graphs(read_arrays(world / ARTIFACTS["graphs"][0], "t")[1], 40)
    header = read_arrays(world / SEGMENT, "t")[0]
    write_arrays(world / SEGMENT, header, store_arrays(rows[-1:], graphs[-1:]))


def _outside_row(world):
    header, arrays = read_arrays(world / SEGMENT, "t")
    write_arrays(world / SEGMENT, header, {**arrays, "rows": arrays["rows"] + 40})


SEGMENT_DAMAGE = {
    "truncated": lambda world: _first_refused(
        "truncated", (world / SEGMENT).read_bytes(), _segment_content, world / SEGMENT),
    "flipped": lambda world: _first_refused(
        "flipped", (world / SEGMENT).read_bytes(), _segment_content, world / SEGMENT),
    "other-index": _other_index,
    "base-row": _base_row,
    "outside-row": _outside_row,
}


@pytest.mark.parametrize("kind", sorted(SEGMENT_DAMAGE))
def test_damaged_segment_is_warned_about_once_and_the_store_rewritten(
        segmented_world, tmp_path, caplog, kind):
    world = tmp_path / "world"
    shutil.copytree(segmented_world, world)
    SEGMENT_DAMAGE[kind](world)
    with caplog.at_level(logging.INFO, logger="gowrank"):
        assert _rerank(world, world / "x.run") == 0
    log = _store_log(caplog, world)
    warnings = [message for level, message in log if level == "WARNING"]
    # a segment of another index is a leftover of an interrupted rewrite
    assert len(warnings) == (kind != "other-index"), log
    assert all(message.startswith(f"graph store {world / SEGMENT} ignored: ")
               for message in warnings)
    assert log[-1] == ("INFO", f"graph store {world / ARTIFACTS['graphs'][0]}: "
                               f"hit, written (35 read, 40 written)")
    assert (world / "x.run").read_bytes() == (segmented_world / "all.run").read_bytes()
    assert not (world / SEGMENT).exists()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="gowrank"):
        assert _rerank(world, world / "y.run") == 0
    assert _store_log(caplog, world) == [
        ("INFO", f"graph store {world / ARTIFACTS['graphs'][0]}: hit")]
    assert (world / "y.run").read_bytes() == (segmented_world / "all.run").read_bytes()


def test_appending_rerank_leaves_the_base_file_untouched(small_world, segmented_world,
                                                         tmp_path, caplog):
    world = tmp_path / "world"
    _copy_world(small_world, world, RERANK_INPUTS)
    assert _rerank(world, world / "first7.run", _first_queries(world, 7)) == 0
    base = (world / ARTIFACTS["graphs"][0]).read_bytes()
    with caplog.at_level(logging.INFO, logger="gowrank"):
        assert _rerank(world, world / "all.run") == 0
    assert _store_log(caplog, world) == [
        ("INFO", f"graph store {world / ARTIFACTS['graphs'][0]}: "
                 f"hit, appended (35 read, 5 written)")]
    assert (world / ARTIFACTS["graphs"][0]).read_bytes() == base
    assert (world / SEGMENT).read_bytes() == (segmented_world / SEGMENT).read_bytes()
    # the graphs read back from base and segment are those of one whole store
    whole = tmp_path / "whole"
    _copy_world(small_world, whole, RERANK_INPUTS)
    assert _rerank(whole, whole / "all.run") == 0
    assert not (whole / SEGMENT).exists()
    got, want = (sorted(_graphs_content(w / ARTIFACTS["graphs"][0])) for w in (world, whole))
    assert got == want and len(got) == 40


def _three_file_store(small_world, world):
    """Names of a store of 20 graphs in `world` and its segments of 4 and 1,
    each under half the file before it."""
    _copy_world(small_world, world, RERANK_INPUTS)
    assert _rerank(world, world / "x.run", _first_queries(world, 4)) == 0
    assert _rerank(world, world / "x.run", _first_queries(world, 5), "--candidates", "4") == 0
    assert _rerank(world, world / "x.run", _first_queries(world, 6), "--candidates", "1") == 0
    stores = sorted(p.name for p in (world / "index").glob("graphs-*"))
    assert stores == ["graphs-graph-w5.1.npz", "graphs-graph-w5.2.npz", "graphs-graph-w5.npz"]
    return stores


@pytest.mark.parametrize("interrupted", [False, True])
def test_rewriting_rerank_removes_every_segment(small_world, segmented_world, tmp_path,
                                                monkeypatch, caplog, interrupted):
    # a store of 20 graphs, then segments of 4 and 1: each under half the
    # file before it; the 15 graphs of the last rerank are not.  A rewrite
    # stopped before it removed the segments leaves them behind, and the
    # next command ignores them and writes the store again
    world = tmp_path / "world"
    stores = _three_file_store(small_world, world)
    base = f"graph store {world / ARTIFACTS['graphs'][0]}"
    want = [("INFO", f"{base}: hit, written (25 read, 40 written)")]
    if interrupted:
        with monkeypatch.context() as patch:
            patch.setattr(Path, "unlink", lambda *_, **__: sys.exit("interrupted"))
            with pytest.raises(SystemExit):
                _rerank(world, world / "x.run")
        assert sorted(p.name for p in (world / "index").glob("graphs-*")) == stores
        want = [("WARNING", f"graph store {world / 'index' / name} ignored: it holds a graph "
                            f"that an earlier file holds") for name in stores[:2]]
        want += [("INFO", f"{base}: hit, written (40 read, 40 written)")]
    with caplog.at_level(logging.INFO, logger="gowrank"):
        assert _rerank(world, world / "all.run") == 0
    assert _store_log(caplog, world) == want
    assert [p.name for p in (world / "index").glob("graphs-*")] == ["graphs-graph-w5.npz"]
    assert (world / "all.run").read_bytes() == (segmented_world / "all.run").read_bytes()


def test_failed_rewrite_keeps_the_base_file_and_every_segment(small_world, segmented_world,
                                                              tmp_path, monkeypatch, caplog):
    # the segments go only once the base file holds every graph: a refused
    # rewrite leaves the three files to read, and the next command rewrites
    world = tmp_path / "world"
    stores = _three_file_store(small_world, world)
    files = {name: (world / "index" / name).read_bytes() for name in stores}
    base = world / ARTIFACTS["graphs"][0]
    with monkeypatch.context() as patch:
        _fail_os_call(patch, "replace", base, errno.EACCES)
        with caplog.at_level(logging.INFO, logger="gowrank"):
            assert _rerank(world, world / "x.run") == 0
    (level, warning), info = _store_log(caplog, world)
    assert level == "WARNING" and warning.startswith(
        f"graph store {base} not written: [Errno 13] Permission denied: ")
    assert info == ("INFO", f"graph store {base}: hit")
    assert {name: (world / "index" / name).read_bytes() for name in stores} == files
    assert (world / "x.run").read_bytes() == (segmented_world / "all.run").read_bytes()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="gowrank"):
        assert _rerank(world, world / "all.run") == 0
    assert _store_log(caplog, world) == [
        ("INFO", f"graph store {base}: hit, written (25 read, 40 written)")]
    assert [p.name for p in (world / "index").glob("graphs-*")] == ["graphs-graph-w5.npz"]


def _edited(data: bytes, kind: str, rng: random.Random, line_edits) -> bytes:
    """`data` with one edit of `kind`: a flipped bit, a cut, a byte that is
    not UTF-8, a removed or repeated line, or `line_edits[kind](lines, at,
    rng)`, an edit of its lines at line `at`."""
    edited = bytearray(data)
    if kind == "flipped":
        edited[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    elif kind == "truncated":
        del edited[rng.randrange(len(data)):]
    elif kind == "not-utf8":
        edited[rng.randrange(len(data))] = rng.choice([0x80, 0xC3, 0xFF])
    else:
        lines = data.splitlines(keepends=True)
        at = rng.randrange(len(lines))
        if kind == "deleted":
            del lines[at]
        elif kind == "duplicated":
            lines.insert(at, lines[at])
        else:
            line_edits[kind](lines, at, rng)
        edited = b"".join(lines)
    return bytes(edited)


def _new_record(lines, at, rng):
    words = rng.choices(["w001", "q01a", "q01x", "ünï", "new"], k=rng.randrange(12))
    lines.insert(at, json.dumps({"doc_id": f"new{at}", "text": " ".join(words)})
                 .encode() + b"\n")


def _record_with_previous_id(lines, at, rng):
    record = json.loads(lines[at])
    record["doc_id"] = json.loads(lines[at - 1])["doc_id"]
    lines[at] = json.dumps(record).encode() + b"\n"


# (kind of seeded edit of a bridged corpus.jsonl, the exit codes `index`
# may give for it)
CORPUS_EDITS = [("flipped", {0, 2}), ("truncated", {0, 2}), ("inserted", {0}),
                ("deleted", {0}), ("duplicated", {2}), ("not-utf8", {2}),
                ("duplicate-id", {2})]
CORPUS_LINE_EDITS = {"inserted": _new_record, "duplicate-id": _record_with_previous_id}


@pytest.fixture(scope="module")
def bridged_bytes(tmp_path_factory):
    root = tmp_path_factory.mktemp("bridged")
    bridged_corpus(seed=0).write(root)
    return (root / "corpus.jsonl").read_bytes()


@pytest.mark.parametrize("number", range(60))
def test_edited_corpus_is_indexed_as_the_reference_or_refused(bridged_bytes, tmp_path,
                                                              capsys, number):
    kind, codes = CORPUS_EDITS[number % len(CORPUS_EDITS)]
    mode = ("corpus", "docs")[number // len(CORPUS_EDITS) % 2]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(_edited(bridged_bytes, kind, random.Random(number), CORPUS_LINE_EDITS))
    rc = cli.main(["index", "--corpus", str(path), "--index-dir", str(tmp_path / "index"),
                   "--min-freq", "2", "--min-freq-mode", mode])
    err = capsys.readouterr().err
    assert rc in codes and "Traceback" not in err, (kind, rc, err)
    if rc == 2:
        assert err.startswith(f"data error: {path}"), err
        assert not (tmp_path / "index" / indexfile.INDEX_FILE).exists()
        return
    _assert_oracle_index(path, tmp_path, mode)


def _assert_oracle_index(path, tmp_path, mode):
    """tmp_path/index holds the reference's index.npz of the corpus at `path`."""
    tokenized = {doc_id: tokenize(text) for doc_id, text in read_corpus(path)}
    helpers.write_oracle_index(tmp_path / "oracle.npz", tokenized, default_stopwords(),
                               2, mode == "docs")
    assert ((tmp_path / "index" / indexfile.INDEX_FILE).read_bytes()
            == (tmp_path / "oracle.npz").read_bytes())


def _punctuated(data: bytes, kind: str, rng: random.Random) -> bytes:
    """The corpus `data` with 1-199 edits of `kind` (see helpers.edit_text)
    to texts of records drawn at random, written as UTF-8, not escaped."""
    records = [json.loads(line) for line in data.splitlines()]
    for _ in range(rng.randrange(1, 200)):
        record = rng.choice(records)
        record["text"] = helpers.edit_text(record["text"], kind, rng)
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode()


@pytest.mark.parametrize("number", range(16))
def test_punctuated_corpus_is_indexed_as_the_reference(bridged_bytes, tmp_path, number):
    # the bridged corpus holds plain lowercase words: these edits are the
    # ones that make `index` strip and lowercase
    kind = helpers.TEXT_EDITS[number % len(helpers.TEXT_EDITS)]
    mode = ("corpus", "docs")[number // len(helpers.TEXT_EDITS) % 2]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(_punctuated(bridged_bytes, kind, random.Random(number)))
    assert cli.main(["index", "--corpus", str(path), "--index-dir", str(tmp_path / "index"),
                     "--min-freq", "2", "--min-freq-mode", mode]) == 0
    _assert_oracle_index(path, tmp_path, mode)


def _new_query(lines, at, rng):
    words = rng.choices(["q01a", "q01b", "w001", "ünï", "new"], k=rng.randrange(5))
    lines.insert(at, f"new{at}\t{' '.join(words)}\n".encode())


def _query_with_previous_id(lines, at, rng):
    lines[at] = lines[at - 1].split(b"\t")[0] + b"\t" + lines[at].split(b"\t", 1)[1]


def _query_without_tab(lines, at, rng):
    lines[at] = lines[at].replace(b"\t", b" ")


# (kind of seeded edit of a bridged queries.tsv, the exit codes `rerank`
# may give for it)
QUERY_EDITS = [("flipped", {0, 2}), ("truncated", {0, 2}), ("inserted", {0}),
               ("deleted", {0}), ("duplicated", {2}), ("not-utf8", {2}),
               ("duplicate-id", {2}), ("no-tab", {2})]
QUERY_LINE_EDITS = {"inserted": _new_query, "duplicate-id": _query_with_previous_id,
                    "no-tab": _query_without_tab}


@pytest.fixture(scope="module")
def bridged_world(tmp_path_factory):
    """A bridged-corpus world with an index, a checkpoint trained for one
    short epoch, and the caches and graph store of one rerank."""
    root = tmp_path_factory.mktemp("bridged-world")
    bridged_corpus(seed=0).write(root)
    assert cli.main(["index", "--corpus", str(root / "corpus.jsonl"),
                     "--index-dir", str(root / "index"), "--min-freq", "2"]) == 0
    assert cli.main(["train", "--index-dir", str(root / "index"),
                     "--queries", str(root / "queries.tsv"), "--qrels", str(root / "qrels.txt"),
                     "--embeddings", str(root / "embeddings.txt"),
                     "--checkpoint", str(root / "model.ckpt"), "--epochs", "1",
                     "--steps-per-epoch", "2", "--batch", "4",
                     "--log-out", str(root / "train.log")]) == 0
    assert _rerank(root, root / "rerank.run") == 0
    return root


@pytest.mark.parametrize("number", range(60))
def test_edited_queries_are_reranked_or_refused(bridged_world, tmp_path, capsys, number):
    kind, codes = QUERY_EDITS[number % len(QUERY_EDITS)]
    world = tmp_path / "world"
    shutil.copytree(bridged_world / "index", world / "index")
    for name in ("model.ckpt", "embeddings.txt"):
        (world / name).write_bytes((bridged_world / name).read_bytes())
    path = world / "queries.tsv"
    path.write_bytes(_edited((bridged_world / "queries.tsv").read_bytes(), kind,
                             random.Random(number), QUERY_LINE_EDITS))
    rc = _rerank(world, world / "x.run")
    err = capsys.readouterr().err
    assert rc in codes and "Traceback" not in err, (kind, rc, err)
    if rc == 2:
        assert f"\ndata error: {path}:" in f"\n{err}", err
        assert not (world / "x.run").exists()


def _vector_edit(edit):
    """A line edit that applies `edit(values, rng)` to the values of the
    vector at line `at`, or at line 1 for the header."""
    def edited(lines, at, rng):
        token, *values = lines[max(at, 1)].split()
        lines[max(at, 1)] = b" ".join([token, *edit(values, rng)]) + b"\n"
    return edited


def _one_value(choices):
    def edit(values, rng):
        values[rng.randrange(len(values))] = rng.choice(choices)
        return values
    return edit


def _second_header(lines, at, rng):
    lines.insert(max(at, 1), lines[0])


# (kind of seeded edit of a bridged embeddings.txt, the exit codes `rerank`
# may give for it): a value is parsed, and so checked, only in the vector
# of a vocabulary term
EMBEDDING_EDITS = [("flipped", {0, 2}), ("truncated", {0, 2}), ("not-utf8", {2}),
                   ("deleted", {2}), ("duplicated", {2}), ("non-finite", {0, 2}),
                   ("non-numeric", {0, 2}), ("short-row", {2}), ("long-row", {2}),
                   ("zero-row", {0}), ("second-header", {2})]
EMBEDDING_LINE_EDITS = {
    "non-finite": _vector_edit(_one_value([b"nan", b"inf", b"-inf", b"1e999"])),
    "non-numeric": _vector_edit(_one_value([b"one", b"0x1", b"1,5", b"--1", b"1e"])),
    "short-row": _vector_edit(lambda values, rng: values[:-1]),
    "long-row": _vector_edit(lambda values, rng: values + [b"0.5"]),
    "zero-row": _vector_edit(lambda values, rng: [b"0"] * len(values)),
    "second-header": _second_header,
}


@pytest.mark.parametrize("number", range(60))
def test_edited_embeddings_are_reranked_or_refused(bridged_world, tmp_path, capsys,
                                                   number):
    """`rerank` with no embeddings cache refuses the edit or ranks with it,
    and then ranks the same from the cache it wrote."""
    kind, codes = EMBEDDING_EDITS[number % len(EMBEDDING_EDITS)]
    world = tmp_path / "world"
    (world / "index").mkdir(parents=True)
    shutil.copy(bridged_world / "index" / indexfile.INDEX_FILE, world / "index")
    shutil.copy(bridged_world / "model.ckpt", world)
    shutil.copy(bridged_world / "queries.tsv", world)
    path = world / "embeddings.txt"
    path.write_bytes(_edited((bridged_world / "embeddings.txt").read_bytes(), kind,
                             random.Random(number), EMBEDDING_LINE_EDITS))
    rc = _rerank(world, world / "x.run")
    err = capsys.readouterr().err
    assert rc in codes and "Traceback" not in err, (kind, rc, err)
    if rc == 2:
        assert f"\ndata error: {path}" in f"\n{err}", err
        assert not (world / "x.run").exists()
        return
    assert (world / "index" / embeddings.CACHE_FILE).exists()
    assert _rerank(world, world / "y.run") == 0
    assert (world / "y.run").read_bytes() == (world / "x.run").read_bytes()


def _negative_grade(lines, at, rng):
    lines[at] = b" ".join(lines[at].split()[:3] + [b"-%d" % rng.randrange(1, 4)]) + b"\n"


def _non_integer_grade(lines, at, rng):
    grade = rng.choice([b"1.5", b"2.0", b"one", b"0x1", b"1e0"])
    lines[at] = b" ".join(lines[at].split()[:3] + [grade]) + b"\n"


def _three_fields(lines, at, rng):
    fields = lines[at].split()
    del fields[rng.randrange(4)]
    lines[at] = b" ".join(fields) + b"\n"


def _five_fields(lines, at, rng):
    fields = lines[at].split()
    fields.insert(rng.randrange(5), rng.choice(fields))
    lines[at] = b" ".join(fields) + b"\n"


# (kind of seeded edit of a bridged qrels.txt, the exit codes `eval` may
# give for it)
QREL_EDITS = [("flipped", {0, 2}), ("truncated", {0, 2}), ("not-utf8", {2}),
              ("deleted", {0}), ("duplicated", {2}), ("negative-grade", {2}),
              ("non-integer-grade", {2}), ("three-fields", {2}), ("five-fields", {2})]
QREL_LINE_EDITS = {"negative-grade": _negative_grade, "non-integer-grade": _non_integer_grade,
                   "three-fields": _three_fields, "five-fields": _five_fields}


@pytest.mark.parametrize("number", range(60))
def test_edited_qrels_are_evaluated_or_refused(bridged_world, tmp_path, capsys, number):
    kind, codes = QREL_EDITS[number % len(QREL_EDITS)]
    path, run = tmp_path / "qrels.txt", bridged_world / "rerank.run"
    path.write_bytes(_edited((bridged_world / "qrels.txt").read_bytes(), kind,
                             random.Random(number), QREL_LINE_EDITS))
    rc = cli.main(["eval", "--run", str(run), "--qrels", str(path)])
    out, err = capsys.readouterr()
    assert rc in codes and "Traceback" not in err, (kind, rc, err)
    if rc == 2:
        assert any(f"\ndata error: {named}:" in f"\n{err}" for named in (path, run)), err
    else:
        assert out.startswith("nDCG@20 "), out


# a run.conf of training knobs; the paths and `epochs` come as flags, so
# that an edit neither names another file nor trains for long
RUN_CONF = {"window": 5, "steps": 1, "pool_k": 4, "max_query_len": 8, "batch": 4,
            "steps_per_epoch": 2, "candidates": 20, "seed": 7, "folds": 4,
            "fold_rotation": 1, "min_freq": 2, "adjacency_mode": "graph"}
INT_KEYS = [key for key, value in RUN_CONF.items() if isinstance(value, int)]
# (the edit, the exit codes `train` may give for it, the words one of which
# its data error names): `_edited`'s kinds anywhere, an int key set to a
# value, and a key that RunConfig does not have
RUN_CONF_EDITS = [
    *[((kind, number), codes, ("run.conf", *RUN_CONF)) for kind, codes in
      (("flipped", {0, 2}), ("truncated", {0, 2}), ("not-utf8", {2}), ("deleted", {0}),
       ("duplicated", {2})) for number in range(5)],
    *[(("set", key, value), {0, 2} if value in ("0", str(2**63)) else {2}, (key,))
      for key in INT_KEYS for value in ("-1", "0", str(2**63), "12o")],
    (("set", "wibble", "1"), {2}, ("run.conf",)),
]


@pytest.mark.parametrize("edit, codes, named", RUN_CONF_EDITS,
                         ids=["-".join(map(str, edit)) for edit, _, _ in RUN_CONF_EDITS])
def test_edited_run_conf_is_run_or_refused(bridged_world, tmp_path, capsys, edit, codes,
                                           named):
    conf = tmp_path / "run.conf"
    data = "".join(f"{key} = {value}\n" for key, value in RUN_CONF.items()).encode()
    if edit[0] == "set":
        _, key, value = edit
        lines = [line for line in data.splitlines(keepends=True)
                 if not line.startswith(f"{key} =".encode())]
        data = b"".join(lines) + f"{key} = {value}\n".encode()
    else:
        data = _edited(data, edit[0], random.Random(edit[1]), {})
    conf.write_bytes(data)
    shutil.copytree(bridged_world / "index", tmp_path / "index")
    rc = cli.main(["train", "--config", str(conf), "--epochs", "2",
                   "--index-dir", str(tmp_path / "index"),
                   "--checkpoint", str(tmp_path / "model.ckpt"),
                   "--log-out", str(tmp_path / "train.log"),
                   *[f"--{name}={bridged_world / f'{name}.{ext}'}" for name, ext in
                     (("queries", "tsv"), ("qrels", "txt"), ("embeddings", "txt"))]])
    err = capsys.readouterr().err
    assert rc in codes and "Traceback" not in err, (data, rc, err)
    if rc == 2:
        line = next(line for line in err.splitlines() if line.startswith("data error: "))
        assert any(word in line for word in named), (data, line)
        assert not (tmp_path / "model.ckpt").exists()
    else:
        assert (tmp_path / "model.ckpt").exists()


def _fail_os_call(monkeypatch, name, target, code):
    """Make `os.fsync` of `target`'s temporary file, or the `os.replace` of
    that file onto `target`, raise OSError `code` as the kernel would; every
    other call of this process goes through."""
    real = getattr(os, name)

    def failing(*args):
        if name == "fsync":
            here = any(os.path.samestat(os.fstat(args[0]), tmp.stat())
                       for tmp in target.parent.glob(f".{target.name}.*"))
            error = OSError(code, os.strerror(code))
        else:
            here = Path(args[1]) == target
            error = OSError(code, os.strerror(code), str(args[0]), None, str(args[1]))
        if here:
            raise error
        return real(*args)

    monkeypatch.setattr(os, name, failing)


@pytest.mark.parametrize("fault", [("fsync", errno.ENOSPC), ("replace", errno.EROFS),
                                   ("replace", errno.EACCES)],
                         ids=["fsync-ENOSPC", "replace-EROFS", "replace-EACCES"])
@pytest.mark.parametrize("command", ["train", "rerank"])
def test_failed_artifact_write_exits_2_and_keeps_the_earlier_file(
        bridged_world, tmp_path, capsys, monkeypatch, command, fault):
    # a full disk at the flush; a read-only file system or a directory
    # without write permission at the rename
    world = tmp_path / "world"
    shutil.copytree(bridged_world / "index", world / "index")
    for name in ("model.ckpt", "embeddings.txt", "queries.tsv", "qrels.txt"):
        shutil.copy(bridged_world / name, world)
    target = world / ("new.ckpt" if command == "train" else "x.run")
    target.write_bytes(b"earlier artifact\n")
    _fail_os_call(monkeypatch, fault[0], target, fault[1])
    if command == "train":
        rc = cli.main(["train", "--index-dir", str(world / "index"),
                       "--queries", str(world / "queries.tsv"),
                       "--qrels", str(world / "qrels.txt"),
                       "--embeddings", str(world / "embeddings.txt"),
                       "--checkpoint", str(target), "--epochs", "1",
                       "--steps-per-epoch", "2", "--batch", "4",
                       "--log-out", str(world / "train.log")])
    else:
        rc = _rerank(world, target)
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err, err
    assert f"\ndata error: [Errno {fault[1]}] {os.strerror(fault[1])}" in f"\n{err}", err
    assert f"'{target}'" in err  # the flush's error as well as the rename's names it
    assert target.read_bytes() == b"earlier artifact\n"
    assert not [p for p in world.rglob("*") if p.name.endswith(".tmp")]


def test_segment_write_refused_permission_is_warned_once(small_world, segmented_world,
                                                         tmp_path, monkeypatch, caplog):
    world = tmp_path / "world"
    _copy_world(small_world, world, RERANK_INPUTS)
    assert _rerank(world, world / "first7.run", _first_queries(world, 7)) == 0
    base = (world / ARTIFACTS["graphs"][0]).read_bytes()
    _fail_os_call(monkeypatch, "replace", world / SEGMENT, errno.EACCES)
    with caplog.at_level(logging.INFO, logger="gowrank"):
        assert _rerank(world, world / "all.run") == 0
    (level, warning), info = _store_log(caplog, world)
    assert level == "WARNING" and warning.startswith(
        f"graph store {world / SEGMENT} not written: [Errno 13] Permission denied: ")
    assert info == ("INFO", f"graph store {world / ARTIFACTS['graphs'][0]}: hit")
    assert (world / "all.run").read_bytes() == (segmented_world / "all.run").read_bytes()
    assert (world / ARTIFACTS["graphs"][0]).read_bytes() == base
    assert not (world / SEGMENT).exists()
    assert not [p for p in world.rglob("*") if p.name.endswith(".tmp")]
