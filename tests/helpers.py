"""Shared fixtures-by-hand for model, gradient and checkpoint tests."""

import io
import warnings
import zipfile

import numpy as np

from gowrank.artifacts import read_arrays, write_arrays
from gowrank.corpus import Query, TokenizedDoc
from gowrank.graph import DocumentGraph, build_graph
from gowrank.model import HyperParams, ModelParams, init_params, iter_tensors

import reference


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
