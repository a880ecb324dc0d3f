"""Shared fixtures-by-hand for index, model, gradient and checkpoint tests."""

import io
import random
import string
import warnings
import zipfile

import numpy as np

from gowrank import artifacts
from gowrank.artifacts import read_arrays, write_arrays
from gowrank.corpus import Query, TokenizedDoc
from gowrank.graph import DocumentGraph, build_graph
from gowrank.indexfile import INDEX_VERSION
from gowrank.model import HyperParams, ModelParams, init_params, iter_tensors
from gowrank.scoring import ScoringContext

import reference


# what a text may hold besides plain words: the punctuation that `tokenize`
# strips, and whitespace other than the space that `str.split` splits on
EDGE_MARKS = string.punctuation + "‘’“”"
SPACES = ["\t", "\xa0", "\x85", "\u2003", "\u3000", "\u2028", "\x1c", "\x1d", "\x1e",
          "\x1f"]
TEXT_EDITS = ["attached", "pure", "whitespace", "cased"]


def openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run time,
    so that OPENBLAS_CORETYPE can force another one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


def fail_cache_write(monkeypatch, target, error: OSError) -> None:
    """Make `artifacts.write_arrays`, which every `artifacts.Cache` writes
    through, raise `error` for the file `target` alone."""
    write = artifacts.write_arrays

    def failing(path, *args):
        if str(path) == str(target):
            raise error
        write(path, *args)

    monkeypatch.setattr(artifacts, "write_arrays", failing)


def edit_text(text: str, kind: str, rng: random.Random) -> str:
    """`text` with one edit of `kind` (one of TEXT_EDITS) at a random word:
    punctuation attached to one end of it, a word of punctuation alone put
    before it, whitespace other than a space put inside it or at one end,
    or the word in upper or title case."""
    words = text.split(" ")
    at = rng.randrange(len(words))
    marks = "".join(rng.choices(EDGE_MARKS, k=rng.randrange(1, 4)))
    if kind == "attached":
        words[at] = marks + words[at] if rng.randrange(2) else words[at] + marks
    elif kind == "pure":
        words.insert(at, marks)
    elif kind == "whitespace":
        cut = rng.randrange(len(words[at]) + 1)
        words[at] = words[at][:cut] + rng.choice(SPACES) + words[at][cut:]
    else:
        words[at] = rng.choice([str.upper, str.title])(words[at])
    return " ".join(words)


def random_graph(rng, n, window=None) -> DocumentGraph:
    """A word graph with exactly n nodes, built from a random token stream."""
    if n == 0:
        return build_graph(TokenizedDoc("d", [], 0))
    base = np.arange(n)
    extra = rng.integers(0, n, size=max(n, 4))
    seq = np.concatenate([base, extra])
    rng.shuffle(seq)
    window = window or int(rng.choice([2, 3, 5]))
    return build_graph(TokenizedDoc("d", [int(t) for t in seq], len(seq)), window)


def features(graph: DocumentGraph, query: Query, emb) -> np.ndarray:
    """The interaction features of `query` against `graph`, formed by a
    ScoringContext that holds the graph (so it reads no document)."""
    ctx = ScoringContext({}, {query.query_id: query}, emb, 5, "graph", {"d": graph})
    return ctx.feats(query.query_id, "d")


def random_params(rng, hyper: HyperParams) -> ModelParams:
    """Fully randomized parameters (biases included) for oracle/grad tests."""
    params = init_params(hyper, rng)
    for _, tensor in iter_tensors(params):
        tensor[...] = rng.uniform(-0.8, 0.8, size=tensor.shape)
    params.idf_scale[...] = rng.uniform(0.2, 1.5)
    return params


def random_instance(rng, n, m, steps, k, m_max=8):
    """(graph, S, query, params) with n nodes and m real query terms."""
    hyper = HyperParams(steps=steps, pool_k=k, max_query_len=m_max)
    graph = random_graph(rng, n)
    S = rng.uniform(-1.0, 1.0, size=(n, m))
    idf = rng.uniform(0.1, 3.0, size=m)
    query = Query(query_id="q", tokens=list(range(m)), idf=idf)
    params = random_params(rng, hyper)
    return graph, S, query, params


def oracle_rel(graph, S, query, params) -> float:
    """Evaluate the straight-line reference on the query's M columns.

    Parameter blocks are cut down to the real query width; the one layer
    is applied at every step.
    """
    m = S.shape[1]
    layer = params.layer
    sub = lambda w: w[:m, :m].tolist()  # noqa: E731
    vec = lambda b: b[:m].tolist()  # noqa: E731
    return reference.rel_score(
        norm_adj=reference.norm_adjacency(graph).toarray().tolist(),
        S=S.tolist(),
        idf=query.idf.tolist(),
        steps=params.hyper.steps,
        k=params.hyper.pool_k,
        msg_w=sub(layer.msg_w),
        w_up=sub(layer.w_up),
        u_up=sub(layer.u_up),
        b_up=vec(layer.b_up),
        w_reset=sub(layer.w_reset),
        u_reset=sub(layer.u_reset),
        b_reset=vec(layer.b_reset),
        w_cand=sub(layer.w_cand),
        u_cand=sub(layer.u_cand),
        b_cand=vec(layer.b_cand),
        out_w=params.out_w.tolist(),
        out_b=float(params.out_b),
        idf_scale=float(params.idf_scale),
    )


def rel_diff(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom else 0.0


def write_oracle_index(path, tokenized, stopwords, min_freq, count_documents):
    """The index.npz of the tokenized documents `tokenized` ({doc id:
    tokens}) at `path`, from the reference's Counter vocabulary and
    encoding, through `write_arrays`."""
    terms, doc_freq, num_docs = reference.counter_vocabulary(
        tokenized.values(), stopwords, min_freq, count_documents)
    doc_ids = sorted(tokenized)
    encoded = [reference.encode(terms, tokenized[doc_id]) for doc_id in doc_ids]
    vocabulary = {"terms": terms, "doc_freq": doc_freq, "num_docs": num_docs,
                  "stopwords": sorted(stopwords), "min_freq": min_freq}
    header = {"version": INDEX_VERSION, "vocabulary": vocabulary, "doc_ids": doc_ids,
              "raw_lengths": [len(tokenized[doc_id]) for doc_id in doc_ids]}
    offsets = np.cumsum([0] + [len(ids) for ids in encoded], dtype="<i8")
    tokens = np.array([i for ids in encoded for i in ids], dtype="<i4")
    write_arrays(path, header, {"offsets": offsets, "tokens": tokens})


def rewrite_checkpoint_header(path, edit, members=dict):
    """Rewrite a checkpoint with `edit(header)` as its header and
    `members(tensors)` as its arrays, through the package's own writer."""
    header, arrays = read_arrays(path, "gowrank train")
    write_arrays(path, edit(header), members(arrays))


def npy_bytes(array, tail=b""):
    """`array` as the bytes of an .npy file, with `tail` appended."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(array), allow_pickle=False)
    return buf.getvalue() + tail


def write_members(path, members):
    """An uncompressed zip at `path` of the (name, bytes) `members`, as
    given: names may repeat and bytes need not be one array."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zipfile warns of a repeated name
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members:
                archive.writestr(name, data)


def archive_members(path):
    """The (name, bytes) members of the zip at `path`, in order."""
    with zipfile.ZipFile(path) as archive:
        return [(info.filename, archive.read(info)) for info in archive.infolist()]
