"""End-to-end command-line behavior on a small generated collection:
artifact layout, exit codes, determinism, and the ablation invariant."""

import hashlib
import json
import logging
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

import helpers
from gowrank import cli, embeddings, training
from gowrank.artifacts import read_arrays, write_arrays
from gowrank.cli import main
from gowrank.config import load_config
from gowrank.datagen import bridged_corpus, overfit_corpus
from gowrank.evaluation import parse_qrels, parse_run
from gowrank.model import HyperParams, init_params, load_checkpoint, save_checkpoint
from gowrank.retrieval import top_candidates, write_run


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus files plus a config; commands run against this directory."""
    root = tmp_path_factory.mktemp("cli")
    overfit_corpus(seed=0).write(root)
    (root / "run.conf").write_text(
        "\n".join(
            [
                f"corpus = {root/'corpus.jsonl'}",
                f"queries = {root/'queries.tsv'}",
                f"qrels = {root/'qrels.txt'}",
                f"embeddings = {root/'embeddings.txt'}",
                f"index_dir = {root/'index'}",
                f"checkpoint = {root/'model.ckpt'}",
                "min_freq = 1",
                "epochs = 3",
                "lr = 0.005",
                "batch = 8",
                "steps_per_epoch = 4",
                "folds = 4",
            ]
        )
        + "\n"
    )
    return root


def _run(workdir, *argv):
    return main([argv[0], "--config", str(workdir / "run.conf"), *argv[1:]])


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["index", "--no-such-flag"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert main(["index", "--corpus", str(tmp_path / "nope.jsonl")]) == 2

    def test_duplicate_doc_id_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doc_id": "d1", "text": "a b"}\n' * 2)
        rc = main(["index", "--corpus", str(corpus),
                   "--index-dir", str(tmp_path / "index")])
        assert rc == 2
        assert "corpus.jsonl:2: duplicate doc_id" in capsys.readouterr().err

    def test_doc_id_with_whitespace_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doc_id": "d1", "text": "a b"}\n'
                          '{"doc_id": "doc with space", "text": "a b"}\n')
        rc = main(["index", "--corpus", str(corpus),
                   "--index-dir", str(tmp_path / "index")])
        assert rc == 2
        assert (f"{corpus}:2: doc_id 'doc with space' is empty or contains "
                "whitespace") in capsys.readouterr().err
        assert not (tmp_path / "index" / "index.npz").exists()

    def test_bad_config_value_is_data_error(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("adjacency_mode = diagonal\n")
        assert main(["index", "--config", str(conf)]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "inf", "lr must be finite and > 0, got inf"),
        ("--fold-rotation", "99", "fold_rotation must be in [0, folds=5), got 99"),
        ("--fold-rotation", "-1", "fold_rotation must be in [0, folds=5), got -1"),
    ])
    def test_out_of_range_value_is_data_error_naming_its_key(
        self, tmp_path, capsys, flag, value, message
    ):
        assert main(["train", flag, value, "--log-out", str(tmp_path / "t.log")]) == 2
        assert f"data error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "t.log").exists()


@pytest.fixture(scope="module")
def clean_world(tmp_path_factory):
    """Inputs, an index and a checkpoint that `rerank` accepts as they are."""
    root = tmp_path_factory.mktemp("clean")
    overfit_corpus(seed=1).write(root)
    assert main(["index", "--corpus", str(root / "corpus.jsonl"), "--min-freq", "1",
                 "--index-dir", str(root / "index")]) == 0
    params = init_params(HyperParams(), np.random.default_rng(0))
    save_checkpoint(root / "model.ckpt", params)
    return root


def _edit_line(path, lineno, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("".join(lines))


def _append_copy(path, lineno, header=None):
    lines = path.read_text().splitlines(keepends=True)
    lines.append(lines[lineno - 1])
    if header:
        lines[0] = header(lines[0])
    path.write_text("".join(lines))


def _bad_byte(path, lineno, byte):
    """Line edit in bytes: `byte`, which is not UTF-8, ends line `lineno`."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1].rstrip(b"\n") + byte + b"\n"
    path.write_bytes(b"".join(lines))


def _edit_index(world, edit):
    """Rewrite world/index/index.npz with `edit(header, offsets, tokens)`,
    which changes its arguments in place or returns new ones."""
    path = world / "index" / "index.npz"
    header, arrays = read_arrays(path, "gowrank index")
    parts = [header, arrays["offsets"], arrays["tokens"]]
    header, offsets, tokens = edit(*parts) or parts
    write_arrays(path, header, {"offsets": offsets, "tokens": tokens})


def _edit_members(path, edit):
    """Rewrite the archive at `path` as `edit(name, data)` of each member's
    (name, bytes)."""
    helpers.write_members(path, [(name, edit(name, data))
                                 for name, data in helpers.archive_members(path)])


def _old_index_layout(world):
    """The index dir as versions before index.bin left it."""
    (world / "index" / "index.npz").unlink()
    (world / "index" / "vocab.json").write_text('{"terms": []}')
    (world / "index" / "docs.jsonl").write_text('{"doc_id": "o000", "tokens": []}\n')


def _old_index_file(world):
    """The index dir as versions before index.npz left it: a preamble
    (magic, version, header length) and a JSON header."""
    (world / "index" / "index.npz").unlink()
    header = b'{"doc_ids": [], "raw_lengths": []}'
    (world / "index" / "index.bin").write_bytes(
        b"GOWINDEX" + struct.pack("<IQ", 1, len(header)) + header + bytes(8))


def _old_checkpoint(world):
    """A checkpoint as versions before the .npz format wrote it: magic, a
    header length and a JSON header (listing no tensors, so no tensor
    bytes follow)."""
    header = b'{"extra": {}, "hyper": {}, "tensors": [], "version": 1}'
    (world / "model.ckpt").write_bytes(
        b"GOWRANK1" + struct.pack("<I", len(header)) + header)


def _bump_count(line):
    count, dim = line.split()
    return f"{int(count) + 1} {dim}\n"


def _vocabulary_edit(key, edit):
    """Index edit: the vocabulary's `key` becomes `edit(old value)`."""
    def index_edit(header, offsets, tokens):
        vocabulary = header["vocabulary"]
        vocabulary[key] = edit(vocabulary[key])
    return lambda world: _edit_index(world, index_edit)


def _nan_weight(world):
    params = init_params(HyperParams(), np.random.default_rng(0))
    params.out_w[0] = np.nan
    save_checkpoint(world / "model.ckpt", params)


def _first_value(text):
    """Line edit: the first value of an embedding row becomes `text`."""
    def edit(line):
        token, _, rest = line.split(" ", 2)
        return f"{token} {text} {rest}"
    return edit


# (case, file, mutation of the world dir, fragment the message must contain)
MALFORMED_ARTIFACTS = [
    # the first member's zip magic PK\x03\x04 overwritten
    ("index-bad-magic", "index/index.npz",
     lambda w: (w / "index/index.npz").write_bytes(
         b"NOTZ" + (w / "index/index.npz").read_bytes()[4:]),
     "index.npz: unreadable (BadZipFile: Bad magic number for file header); "
     "run `gowrank index` to write it again"),
    ("index-unknown-version", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: h.__setitem__("version", 3)),
     "index.npz: index version 3, expected 2"),
    # the file cut inside the header member, which holds the vocabulary
    ("vocab-truncated", "index/index.npz",
     lambda w: (w / "index/index.npz").write_bytes(
         (w / "index/index.npz").read_bytes()[:100]),
     "index.npz: unreadable (BadZipFile: File is not a zip file)"),
    ("docs-garbage-line", "index/index.npz",
     lambda w: _edit_members(w / "index/index.npz", lambda name, data: (
         helpers.npy_bytes(np.frombuffer(b"{not json", np.uint8))
         if name == "header.npy" else data)),
     "index.npz: unreadable (JSONDecodeError: Expecting property name"),
    ("docs-not-an-object", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: [[1, 2], o, t]),
     "index.npz: bad index header: TypeError"),
    ("docs-missing-key", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: [
         {k: v for k, v in h.items() if k != "doc_ids"}, o, t]),
     "index.npz: bad index header: KeyError('doc_ids')"),
    ("index-vocabulary-doc-freq-short", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: h["vocabulary"].__setitem__(
         "doc_freq", h["vocabulary"]["doc_freq"][:10])),
     "index.npz: bad index header: ValueError('terms and doc_freq must be lists"),
    ("index-vocabulary-term-not-a-str", "index/index.npz",
     _vocabulary_edit("terms", lambda terms: [7] + terms[1:]),
     "index.npz: bad index header: TypeError('terms and stopwords must be lists of str"),
    # a query with the term took doc_freq "3" to a TypeError in idf()
    ("index-vocabulary-doc-freq-a-str", "index/index.npz",
     _vocabulary_edit("doc_freq", lambda df: ["3"] + df[1:]),
     "index.npz: bad index header: TypeError('terms and stopwords must be lists of str"),
    ("index-vocabulary-doc-freq-negative", "index/index.npz",
     _vocabulary_edit("doc_freq", lambda df: df[:-1] + [-1]),
     "index.npz: bad index header: TypeError('terms and stopwords must be lists of str"),
    # set("the") would be the stopwords {"t", "h", "e"}
    ("index-vocabulary-stopwords-a-str", "index/index.npz",
     _vocabulary_edit("stopwords", lambda _: "the"),
     "index.npz: bad index header: TypeError('terms and stopwords must be lists of str"),
    ("index-vocabulary-min-freq-not-an-int", "index/index.npz",
     _vocabulary_edit("min_freq", str),
     "index.npz: bad index header: TypeError('terms and stopwords must be lists of str"),
    # ["a", "b", "a"] read as {"a": 2, "b": 1}, so id 0 could never match
    ("index-vocabulary-repeated-term", "index/index.npz",
     _vocabulary_edit("terms", lambda terms: terms[:-1] + terms[:1]),
     "index.npz: bad index header: ValueError('terms must not repeat')"),
    ("index-doc-ids-not-a-list", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: h.__setitem__("doc_ids", "o000")),
     "index.npz: bad index header: TypeError('doc_ids and raw_lengths must be lists"),
    # the zip's end record cut short
    ("docs-truncated", "index/index.npz",
     lambda w: (w / "index/index.npz").write_bytes(
         (w / "index/index.npz").read_bytes()[:-6]),
     "index.npz: unreadable (BadZipFile: File is not a zip file)"),
    # four bytes after the token array, inside its member
    ("index-trailing-bytes", "index/index.npz",
     lambda w: _edit_members(w / "index/index.npz", lambda name, data: (
         data + b"\x00" * 4 if name == "tokens.npy" else data)),
     "index.npz: unreadable (ValueError: member 'tokens.npy' has bytes after "
     "its array)"),
    ("index-offsets-decrease", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: o.__setitem__(3, o[2] - 1)),
     "index.npz: record 3 (doc_id 'o002'): its offsets 33 .. 32 decrease"),
    ("index-offsets-not-from-zero", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: o.__setitem__(0, 1)),
     "index.npz: the offsets start at 1, not 0"),
    ("index-offsets-past-token-count", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: o.__setitem__(-1, o[-1] + 1)),
     "index.npz: the offsets of 40 documents end at 657, not at the 656 tokens"),
    ("index-tokens-not-int32", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: [h, o, t.astype("<i8")]),
     "index.npz: arrays {'offsets': 'int64[41]', 'tokens': 'int64[656]'}, "
     "expected int64 offsets [41] and int32 tokens"),
    # o[r - 1] is the first token of record r: the record lookup is
    # tested at a document boundary
    ("docs-token-id-too-large", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: t.__setitem__(
         o[1], len(h["vocabulary"]["terms"]))),
     "index.npz: record 2 (doc_id 'o001'): token id 184 outside [0, 184)"),
    ("docs-token-id-negative", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: t.__setitem__(o[3], -1)),
     "index.npz: record 4 (doc_id 'o003'): token id -1 outside [0, 184)"),
    ("docs-duplicate-doc-id", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: h["doc_ids"].__setitem__(
         40 - 1, h["doc_ids"][0])),
     "index.npz: record 40 (doc_id 'o000'): duplicate doc_id"),
    ("index-doc-id-with-space", "index/index.npz",
     lambda w: _edit_index(w, lambda h, o, t: h["doc_ids"].__setitem__(
         5 - 1, "o 004")),
     "index.npz: record 5 (doc_id 'o 004'): not a doc id"),
    ("index-old-layout", "index/index.npz",
     _old_index_layout,
     "index.npz: missing; run `gowrank index` to write it"),
    ("index-old-format", "index/index.npz",
     _old_index_file,
     "index.npz: missing; run `gowrank index` to write it"),
    ("queries-duplicate-id", "queries.tsv",
     lambda w: _append_copy(w / "queries.tsv", 2),
     "queries.tsv:9: duplicate query_id 'q01'"),
    ("queries-not-utf8", "queries.tsv",
     lambda w: _bad_byte(w / "queries.tsv", 3, b"\xff"),
     "queries.tsv:3: not UTF-8: byte 0xff"),
    ("embeddings-not-utf8", "embeddings.txt",
     lambda w: _bad_byte(w / "embeddings.txt", 5, b"\xe9"),
     "embeddings.txt:5: not UTF-8: byte 0xe9"),
    ("embeddings-second-vector", "embeddings.txt",
     lambda w: _append_copy(w / "embeddings.txt", 2, header=_bump_count),
     "embeddings.txt:192: second vector for 'q00a'"),
    ("embeddings-nan", "embeddings.txt",
     lambda w: _edit_line(w / "embeddings.txt", 2, _first_value("nan")),
     "embeddings.txt:2: non-finite value in the vector for 'q00a'"),
    ("embeddings-overflow", "embeddings.txt",
     lambda w: _edit_line(w / "embeddings.txt", 2, _first_value("1e999")),
     "embeddings.txt:2: non-finite value in the vector for 'q00a'"),
    # float() reads "1_0" as 10.0; the C parser takes no underscores
    ("embeddings-underscore-float", "embeddings.txt",
     lambda w: _edit_line(w / "embeddings.txt", 2, _first_value("1_0")),
     "embeddings.txt:2: bad float '1_0' in the vector for 'q00a'"),
    # lines 150 and 170 hold vocabulary rows of the third chunk
    ("embeddings-bad-float-past-first-chunk", "embeddings.txt",
     lambda w: _edit_line(w / "embeddings.txt", 150, _first_value("\uff11")),
     "embeddings.txt:150: bad float '\uff11' in the vector for 'w108'"),
    ("embeddings-nan-past-first-chunk", "embeddings.txt",
     lambda w: _edit_line(w / "embeddings.txt", 170, _first_value("nan")),
     "embeddings.txt:170: non-finite value in the vector for 'w128'"),
    ("checkpoint-empty-header", "model.ckpt",
     lambda w: helpers.rewrite_checkpoint_header(w / "model.ckpt", lambda h: {}),
     "bad checkpoint header: KeyError('version')"),
    # a member named only ".npy"
    ("checkpoint-entry-without-name", "model.ckpt",
     lambda w: helpers.rewrite_checkpoint_header(
         w / "model.ckpt", lambda h: h, lambda a: {**a, "": a["out_b"]}),
     "unexpected tensors [''], missing tensors []"),
    ("checkpoint-unknown-hyper", "model.ckpt",
     lambda w: helpers.rewrite_checkpoint_header(w / "model.ckpt", lambda h: {
         **h, "hyper": {**h["hyper"], "hidden": 16}}),
     "bad checkpoint header: TypeError"),
    ("checkpoint-zero-pool-k", "model.ckpt",
     lambda w: save_checkpoint(w / "model.ckpt", init_params(
         HyperParams(pool_k=0), np.random.default_rng(0))),
     "bad hyperparameters"),
    ("checkpoint-repeated-tensor", "model.ckpt",
     lambda w: helpers.write_members(w / "model.ckpt", helpers.archive_members(
         w / "model.ckpt") + [("out_b.npy", helpers.npy_bytes(5.0))]),
     "member 'out_b.npy' is repeated, compressed, encrypted or not .npy"),
    # loaded, it made rerank write `nan` scores that eval then refused
    ("checkpoint-nan-weight", "model.ckpt",
     _nan_weight,
     "model.ckpt: non-finite value in tensor 'out_w'"),
    # eight bytes after the last tensor's array, inside its member
    ("checkpoint-trailing-bytes", "model.ckpt",
     lambda w: _edit_members(w / "model.ckpt", lambda name, data: (
         data + b"\x00" * 8 if name == "idf_scale.npy" else data)),
     "member 'idf_scale.npy' has bytes after its array"),
    ("checkpoint-old-format", "model.ckpt",
     _old_checkpoint,
     "model.ckpt: unreadable (BadZipFile: File is not a zip file); "
     "run `gowrank train` to write it again"),
]


def _rerank_world(world, *flags):
    return main([
        "rerank", "--index-dir", str(world / "index"),
        "--queries", str(world / "queries.tsv"),
        "--embeddings", str(world / "embeddings.txt"),
        "--checkpoint", str(world / "model.ckpt"),
        "--run-out", str(world / "x.run"), *flags,
    ])


@pytest.mark.parametrize(
    "artifact, mutate, fragment",
    [case[1:] for case in MALFORMED_ARTIFACTS],
    ids=[case[0] for case in MALFORMED_ARTIFACTS],
)
def test_malformed_artifact_is_data_error_naming_the_file(
    clean_world, tmp_path, capsys, monkeypatch, artifact, mutate, fragment
):
    # the world's 184 vocabulary rows are parsed in three chunks, so a
    # fault past the first chunk must still name its own line
    monkeypatch.setattr(embeddings, "CHUNK_ROWS", 64)
    world = tmp_path / "world"
    shutil.copytree(clean_world, world)
    mutate(world)
    rc = _rerank_world(world)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert str(world / artifact) in err
    assert fragment in err
    assert "Traceback" not in err
    assert not (world / "x.run").exists()


def test_query_id_with_whitespace_is_data_error(clean_world, tmp_path, capsys):
    world = tmp_path / "world"
    shutil.copytree(clean_world, world)
    _edit_line(world / "queries.tsv", 3, lambda line: "q 02" + line[3:])
    assert _rerank_world(world) == 2
    err = capsys.readouterr().err
    assert (f"{world / 'queries.tsv'}:3: query_id 'q 02' is empty or contains "
            "whitespace") in err
    assert not (world / "x.run").exists()


@pytest.mark.parametrize("tag", ["my tag", "", "tab\there"])
def test_tag_with_whitespace_is_usage_error(clean_world, tmp_path, capsys, tag):
    world = tmp_path / "world"
    shutil.copytree(clean_world, world)
    assert _rerank_world(world, "--tag", tag) == 1
    assert "is empty or contains whitespace" in capsys.readouterr().err
    assert not (world / "x.run").exists()


def test_index_bytes_are_pinned(tmp_path, capsys):
    """`index` on bridged_corpus(seed=0) at min_freq 1 writes this exact
    index.npz; rendered as the vocab.json and docs.jsonl that earlier
    versions wrote, it still gives their pinned bytes, so term ids and
    counts cannot move with how they are tallied or stored."""
    bridged_corpus(seed=0).write(tmp_path)
    assert main(["index", "--corpus", str(tmp_path / "corpus.jsonl"),
                 "--index-dir", str(tmp_path / "index"), "--min-freq", "1"]) == 0
    vocab, docs = cli._read_index(tmp_path / "index")
    rendered = {
        "index.npz": (tmp_path / "index" / "index.npz").read_bytes(),
        "vocab.json": json.dumps(vocab.to_payload(), sort_keys=True).encode(),
        "docs.jsonl": "".join(
            json.dumps({"doc_id": doc.doc_id, "tokens": doc.tokens.tolist(),
                        "raw_length": doc.raw_length}, sort_keys=True) + "\n"
            for doc in docs.values()).encode(),
    }
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in rendered.items()}
    assert digests == {
        "index.npz": "28aed14a1b401c4c10ae94b2c1b1ff763848df16550a5e60fa0d5842668c6569",
        "vocab.json": "68b664f886ba063eb11feb01927f933c32414d8f0e1a82c21b7057e92ebddc3c",
        "docs.jsonl": "58c52c295c686e0d4420c38a46eff3b1abbccc0e1ca8ce6e706b8913966694dd",
    }


# (input, its file in the world dir, flags after the subcommand, with file
# names relative to the world dir)
NOT_UTF8_INPUTS = [
    ("corpus", "corpus.jsonl", []),
    ("stopwords", "stop.txt", ["--stopwords", "stop.txt"]),
    ("config", "run.conf", ["--config", "run.conf"]),
    ("qrels", "qrels.txt", ["--run", "good.run", "--qrels", "qrels.txt"]),
    ("run", "good.run", ["--run", "good.run", "--qrels", "qrels.txt"]),
]


@pytest.mark.parametrize(
    "bad_file, flags",
    [case[1:] for case in NOT_UTF8_INPUTS],
    ids=[case[0] for case in NOT_UTF8_INPUTS],
)
def test_input_not_utf8_is_data_error_naming_the_line(
    clean_world, tmp_path, capsys, bad_file, flags
):
    world = tmp_path / "world"
    shutil.copytree(clean_world, world)
    (world / "stop.txt").write_text("the\nof\nand\n")
    (world / "run.conf").write_text("min_freq = 1\nwindow = 5\nsteps = 2\n")
    qrels = parse_qrels(world / "qrels.txt")
    (world / "good.run").write_text("".join(
        f"{qid} Q0 {doc} 1 0.5 t\n" for qid in sorted(qrels) for doc in qrels[qid]))
    _bad_byte(world / bad_file, 2, b"\xe9")
    command = "eval" if "--run" in flags else "index"
    args = [arg if arg.startswith("--") else str(world / arg) for arg in flags]
    if command == "index":
        args += ["--corpus", str(world / "corpus.jsonl"),
                 "--index-dir", str(world / "fresh")]
    rc = main([command, *args])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"{world / bad_file}:2: not UTF-8: byte 0xe9" in err
    assert "Traceback" not in err


class TestPipeline:
    def test_index_writes_vocabulary_and_documents(self, workdir):
        assert _run(workdir, "index") == 0
        assert [p.name for p in (workdir / "index").iterdir()] == ["index.npz"]
        vocab, docs = cli._read_index(workdir / "index")
        assert len(vocab) > 0
        assert vocab.min_freq == 1
        assert list(docs) == sorted(docs) and len(docs) == 40
        # every document is a read-only int32 slice of one buffer
        buffer = next(iter(docs.values())).tokens.base
        assert buffer.dtype == np.int32 and not buffer.flags.writeable
        assert sum(len(doc.tokens) for doc in docs.values()) == buffer.size
        for doc in docs.values():
            assert doc.tokens.base is buffer
            assert doc.tokens.dtype == np.int32 and not doc.tokens.flags.writeable
            assert doc.raw_length >= len(doc.tokens)

    def test_train_writes_checkpoint_and_log(self, workdir):
        assert _run(workdir, "train", "--log-out", str(workdir / "train.log")) == 0
        params, extra = load_checkpoint(workdir / "model.ckpt")
        assert params.hyper.steps == 2
        assert extra["seed"] == 0
        records = [
            json.loads(line)
            for line in (workdir / "train.log").read_text().splitlines()
        ]
        assert [r["epoch"] for r in records] == [1, 2, 3]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_training_exits_3_writing_nothing(self, repeat_world, tmp_path,
                                                        capsys):
        # a finite but huge step overflows the weights, then the scores
        log, ckpt = str(tmp_path / "t.log"), str(tmp_path / "m.ckpt")
        assert _run(repeat_world, "train", "--lr", "1e308", "--log-out", log,
                    "--checkpoint", ckpt) == 3
        assert "numerical failure: epoch 1: non-finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rerank_scores_exactly_the_first_stage_pool(self, workdir):
        run_path = workdir / "rerank.run"
        assert _run(workdir, "rerank", "--run-out", str(run_path)) == 0
        run = parse_run(run_path)
        qrels = parse_qrels(workdir / "qrels.txt")
        assert set(run) == set(qrels)
        for qid, rows in run.items():
            docs = {doc for doc, _, _ in rows}
            # every judged doc contains the query terms, so the BM25
            # pool is exactly the judged set on this collection
            assert docs == set(qrels[qid])

    def test_rerank_is_deterministic(self, workdir):
        a, b = workdir / "again_a.run", workdir / "again_b.run"
        assert _run(workdir, "rerank", "--run-out", str(a)) == 0
        assert _run(workdir, "rerank", "--run-out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_reports_means(self, workdir, capsys):
        run_path = workdir / "rerank.run"
        report_path = workdir / "report.json"
        rc = _run(workdir, "eval", "--run", str(run_path),
                  "--report-out", str(report_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "nDCG@20" in out
        report = json.loads(report_path.read_text())
        assert report["num_queries"] == 8
        assert 0.0 <= report["mean"]["ndcg@20"] <= 1.0

    def test_eval_missing_run_is_data_error(self, workdir):
        assert _run(workdir, "eval", "--run", str(workdir / "ghost.run")) == 2

    def test_eval_of_a_run_with_no_judged_query_is_data_error(self, tmp_path, capsys):
        (tmp_path / "qrels.txt").write_text("q1 0 d1 1\n")
        (tmp_path / "r.run").write_text("zzz Q0 d1 1 0.5 tag\n")
        rc = main(["eval", "--run", str(tmp_path / "r.run"),
                   "--qrels", str(tmp_path / "qrels.txt"),
                   "--report-out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert (f"{tmp_path / 'r.run'}: no query of the run has a judgment above "
                f"grade 0 in {tmp_path / 'qrels.txt'}") in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_corrupt_checkpoint_is_data_error(self, workdir, tmp_path):
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, init_params(HyperParams(), np.random.default_rng(0)))
        data = good.read_bytes()
        mid = len(data) // 2
        garbled = data[:mid] + bytes([data[mid] ^ 1]) + data[mid + 1:]
        bad = tmp_path / "bad.ckpt"
        # junk, cut in the first zip header, cut in the header member, one
        # bit flipped in the tensor bytes
        for content in (b"not a checkpoint at all", data[:10], data[:40], garbled):
            bad.write_bytes(content)
            rc = _run(workdir, "rerank", "--checkpoint", str(bad),
                      "--run-out", str(tmp_path / "x.run"))
            assert rc == 2


class TestAblate:
    def test_table_and_run_files(self, workdir):
        out_dir = workdir / "ablation"
        assert _run(workdir, "ablate", "--out-dir", str(out_dir)) == 0
        table = json.loads((out_dir / "table.json").read_text())
        assert set(table) == {
            "graph/t=2", "sequence/t=2", "zero/t=2",
            "graph/t=0", "graph/t=1", "graph/t=3", "graph/t=4",
        }
        for name in table:
            mode, _, t = name.partition("/t=")
            assert (out_dir / f"run_{mode}_t{t}.txt").exists()
        assert (out_dir / "table.txt").read_text().count("\n") >= 8

    def test_graph_default_cell_matches_plain_rerank(self, workdir):
        run_path = workdir / "rerank.run"
        if not run_path.exists():
            _run(workdir, "rerank", "--run-out", str(run_path))
        cell = workdir / "ablation" / "run_graph_t2.txt"
        assert cell.read_bytes() == run_path.read_bytes()


class TestConfigPrecedence:
    def test_flag_beats_file(self, workdir, tmp_path):
        idx = tmp_path / "idx_flag"
        rc = _run(workdir, "index", "--min-freq", "3", "--index-dir", str(idx))
        assert rc == 0
        vocab = cli._read_index(idx)[0]
        assert vocab.min_freq == 3

    def test_env_beats_file_but_not_flag(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("GOWRANK_MIN_FREQ", "2")
        idx = tmp_path / "idx_env"
        assert _run(workdir, "index", "--index-dir", str(idx)) == 0
        vocab = cli._read_index(idx)[0]
        assert vocab.min_freq == 2

        idx2 = tmp_path / "idx_env_flag"
        assert _run(workdir, "index", "--min-freq", "4",
                    "--index-dir", str(idx2)) == 0
        vocab = cli._read_index(idx2)[0]
        assert vocab.min_freq == 4

    def test_off_grid_value_warned_once(self, workdir, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="gowrank.config"):
            rc = _run(workdir, "index", "--window", "11", "--batch", "100",
                      "--index-dir", str(tmp_path / "idx"))
        assert rc == 0
        warned = sorted(r.getMessage() for r in caplog.records
                        if "tuned range" in r.getMessage())
        assert warned == ["batch=100 is outside the tuned range [8, 64]",
                          "window=11 is outside the tuned range [3, 9]"]


class TestGradcheckCommand:
    def test_passes_and_prints_report(self, capsys):
        assert main(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert out.count("max rel err") == 4  # three instances + overall

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seed_is_usage_error(self, capsys, seeds):
        assert main(["gradcheck", "--seeds", seeds]) == 1
        out, err = capsys.readouterr()
        assert f"usage error: --seeds {seeds}: at least one seed is needed" in err
        assert out == ""


# (query id, title) appended to the overfit collection's queries: each
# text is issued under two ids, written two ways where it can be
REPEATED_QUERIES = [
    ("a1", "Apple pie"),
    ("a2", "apple, PIE!"),
    ("q00x", "Q00A, q00b."),
    # ten indexed terms, two more than the model scores
    ("long1", "q01a q01b q01s0 q01s1 q01s2 q02a q02b q02s0 q02s1 q02s2"),
    ("long2", "Q01A q01b q01s0 q01s1 q01s2 q02a q02b q02s0 q02s1 Q02S2"),
    # terms outside the vocabulary: indexed as OOV, matching no document
    ("none1", "zebra quagga"),
    ("none2", "Zebra, QUAGGA"),
]


@pytest.fixture(scope="module")
def repeat_world(tmp_path_factory):
    """An index, a trained checkpoint and a config over queries whose
    texts repeat under other ids."""
    root = tmp_path_factory.mktemp("repeat")
    overfit_corpus(seed=2).write(root)
    with open(root / "corpus.jsonl", "a") as fh:
        fh.write('{"doc_id": "p000", "text": "apple pie with cream q03a"}\n'
                 '{"doc_id": "p001", "text": "a pie crust and apple slices"}\n')
    with open(root / "queries.tsv", "a") as fh:
        fh.writelines(f"{qid}\t{title}\n" for qid, title in REPEATED_QUERIES)
    (root / "run.conf").write_text("".join(f"{line}\n" for line in [
        f"corpus = {root / 'corpus.jsonl'}",
        f"queries = {root / 'queries.tsv'}",
        f"qrels = {root / 'qrels.txt'}",
        f"embeddings = {root / 'embeddings.txt'}",
        f"index_dir = {root / 'index'}",
        f"checkpoint = {root / 'model.ckpt'}",
        "min_freq = 1", "epochs = 2", "lr = 0.005", "batch = 8",
        "steps_per_epoch = 2", "folds = 4",
    ]))
    assert _run(root, "index") == 0
    assert _run(root, "train", "--log-out", str(root / "train.log")) == 0
    return root


class TestRepeatedQueryTexts:
    """`rerank` retrieves and scores each distinct query text once; every
    id still gets its own run-file block and its own warnings."""

    def _rerank(self, world, out):
        assert _run(world, "rerank", "--run-out", str(out)) == 0
        return out.read_text().splitlines()

    def test_run_matches_a_fresh_scoring_per_id(self, repeat_world, tmp_path):
        cfg = load_config(repeat_world / "run.conf")
        _, docs, queries, emb, index = cli._load_world(cfg)
        params, _ = load_checkpoint(cfg.checkpoint)
        assert queries["a1"].tokens == queries["a2"].tokens
        oracle = {}
        for qid in sorted(queries):
            pool = top_candidates(queries[qid], index, cfg.candidates)
            if queries[qid].tokens and pool:
                ctx = training.ScoringContext(docs, queries, emb, cfg.window,
                                              cfg.adjacency_mode)
                oracle[qid] = training.score_pool(ctx, qid, pool, params)
        write_run(tmp_path / "oracle.run", oracle, "gowrank")
        lines = self._rerank(repeat_world, tmp_path / "x.run")
        assert lines == (tmp_path / "oracle.run").read_text().splitlines()
        blocks = {qid: [line.split()[2:5] for line in lines if line.split()[0] == qid]
                  for qid in ("a1", "a2", "long1", "long2")}
        assert blocks["a1"] and blocks["a1"] == blocks["a2"]
        assert blocks["long1"] and blocks["long1"] == blocks["long2"]

    def test_each_distinct_text_retrieved_and_scored_once(
        self, repeat_world, tmp_path, monkeypatch
    ):
        retrieved, scored = [], []
        forward_batch = training.forward_batch

        def counted_top_candidates(query, *args):
            retrieved.append(tuple(query.tokens))
            return top_candidates(query, *args)

        def counted_forward_batch(docs, *args):
            # docs holds (graph, features, query) per pool document
            scored.append({tuple(query.tokens) for _, _, query in docs})
            return forward_batch(docs, *args)

        monkeypatch.setattr(cli, "top_candidates", counted_top_candidates)
        monkeypatch.setattr(training, "forward_batch", counted_forward_batch)
        self._rerank(repeat_world, tmp_path / "x.run")
        queries = cli._load_world(load_config(repeat_world / "run.conf"))[2]
        texts = {tuple(q.tokens) for q in queries.values() if q.tokens}
        assert len(texts) < len(queries)
        assert sorted(retrieved) == sorted(texts)
        # every matched text's pool, in one call for the whole command
        unmatched = tuple(queries["none1"].tokens)
        assert scored == [texts - {unmatched}]

    def test_truncation_warned_for_each_id_of_a_long_text(
        self, repeat_world, tmp_path, caplog
    ):
        with caplog.at_level(logging.WARNING):
            self._rerank(repeat_world, tmp_path / "x.run")
        warned = [r.getMessage() for r in caplog.records
                  if "keeping the first" in r.getMessage()]
        assert warned == ["query long1 has 10 terms; keeping the first 8",
                          "query long2 has 10 terms; keeping the first 8"]

    def test_warnings_follow_the_sorted_ids(self, repeat_world, tmp_path, caplog):
        # a truncation is warned in the loop over ids, not when the pools
        # are scored after it, so long1's warning precedes none1's
        with caplog.at_level(logging.WARNING):
            self._rerank(repeat_world, tmp_path / "x.run")
        assert [r.getMessage() for r in caplog.records
                if r.levelno >= logging.WARNING] == [
            "query long1 has 10 terms; keeping the first 8",
            "query long2 has 10 terms; keeping the first 8",
            "query none1 matched no documents; skipped",
            "query none2 matched no documents; skipped",
        ]

    def test_unmatched_text_warned_for_each_id(self, repeat_world, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            lines = self._rerank(repeat_world, tmp_path / "x.run")
        warned = [r.getMessage() for r in caplog.records
                  if "matched no documents" in r.getMessage()]
        assert warned == ["query none1 matched no documents; skipped",
                          "query none2 matched no documents; skipped"]
        assert not any(line.split()[0].startswith("none") for line in lines)

    def test_ablate_graph_cell_matches_train_and_rerank(self, repeat_world, tmp_path):
        self._rerank(repeat_world, tmp_path / "x.run")
        assert _run(repeat_world, "ablate", "--out-dir", str(tmp_path / "ablation")) == 0
        cell = tmp_path / "ablation" / "run_graph_t2.txt"
        assert cell.read_bytes() == (tmp_path / "x.run").read_bytes()
