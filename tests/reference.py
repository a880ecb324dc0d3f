"""Independent straight-line re-implementations used as oracles.

`rel_score` re-computes the relevance score with plain Python lists and
math calls, no numpy, no shared code with the package.  It takes exactly
M query columns and M x M weights, the leading blocks the production path
scores with.

`cosine` is the pairwise similarity `ScoringContext.feats` computes as
one matrix product of unit rows.

`loop_graph` builds a graph-of-word the slow way, one window and one term
pair at a time, and hands the counts to scipy exactly as the first
implementation of `gowrank.graph` did, so its CSR arrays are the layout
the run files were produced from.  `norm_adjacency` is the one place a
test turns a graph's arrays into a CSR matrix.

`dict_postings` builds the BM25 postings the way the first
`retrieval.PostingsIndex` did, one dict insert per token, so the CSR
index can be checked statistic by statistic.

`transpose_postings` builds every term's postings the way the CSR
`retrieval.PostingsIndex` did before postings were built on first use:
one doc-by-term incidence matrix transposed once, its runs of a repeated
(term, document) collapsed into the tf, so the one-pass fill can be
checked array by array and dtype by dtype.

`line_embeddings` reads a word-vector file the way the first
`embeddings.load_embeddings` did, one `float()` call per value, so the
chunked numpy parse can be checked row by row.

`loop_tokenize` tokenizes a text the way the first `corpus.tokenize` did,
one word at a time in a loop, so the comprehension and `text_ids`'s memo
can be checked against it.

`counter_vocabulary` and `encode` build the vocabulary and encode a
document the way the first `corpus.build_vocabulary` and
`Vocabulary.encode` did: two `Counter`s, a set per document and a
comprehension, so the batched numpy counts can be checked term by term.

`doc_forward` and `doc_backprop` are the model's first numpy path, one
document at a time: the forward pass over one graph and the reverse
replay of its trace.  The batched `model.forward_batch` and
`model.backward` are checked against them.

`gru_update` is the gated update as one expression per gate, with
broadcast biases and strided transposed weights, as the first batched
`model.gru_update` wrote it; the in-place version must match it bit for
bit.

`sort_readout` is the k-max readout as a full stable sort of every padded
column, and `masked_unit_rows` gathers unit rows through a boolean mask
into zeros: the first batched `model.readout` and unit-row gather, which
`model.readout`'s partition and `EmbeddingTable.unit_rows`'s one gather
must match bit for bit.
"""

import math
import string
from collections import Counter
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit


def cosine(u, v):
    """dot(u,v) / (|u||v|); 0 whenever either norm is 0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def loop_graph(tokens, window):
    """(node_terms, adjacency, norm_adjacency) of a token-id list.

    Nodes are unique terms in first-occurrence order; each stride-1 span of
    `window` tokens (or the whole document when it is shorter) adds 1 to
    every unordered pair of distinct terms it contains.
    """
    node_terms, node_of = [], {}
    for tid in tokens:
        if tid not in node_of:
            node_of[tid] = len(node_terms)
            node_terms.append(tid)
    n = len(node_terms)
    if not tokens:
        spans = []
    elif len(tokens) < window:
        spans = [(0, len(tokens))]
    else:
        spans = [(i, i + window) for i in range(len(tokens) - window + 1)]
    counts = {}
    for lo, hi in spans:
        present = sorted({node_of[t] for t in tokens[lo:hi]})
        for a_pos, a in enumerate(present):
            for b in present[a_pos + 1:]:
                counts[(a, b)] = counts.get((a, b), 0) + 1
    rows, cols, vals = [], [], []
    for (a, b), c in counts.items():
        rows += [a, b]
        cols += [b, a]
        vals += [c, c]
    if counts:
        adjacency = csr_matrix(
            (np.array(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
        )
    else:
        adjacency = csr_matrix((n, n), dtype=np.float64)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degrees)
    positive = degrees > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degrees[positive])
    # the two scales multiply first, so the result is exactly symmetric
    norm = csr_matrix(adjacency.multiply(np.outer(inv_sqrt, inv_sqrt)))
    return node_terms, adjacency, norm


def norm_adjacency(graph):
    """A `DocumentGraph`'s normalized adjacency, as a CSR matrix over the
    graph's own arrays."""
    n = graph.num_nodes
    return csr_matrix((graph.weights, graph.indices, graph.indptr), shape=(n, n))


def gru_update(a, h, layer):
    """(h', update gate, reset gate, candidate) of states h and messages a."""
    z = expit(a @ layer.w_up.T + h @ layer.u_up.T + layer.b_up)
    r = expit(a @ layer.w_reset.T + h @ layer.u_reset.T + layer.b_reset)
    cand = np.tanh(a @ layer.w_cand.T + (r * h) @ layer.u_cand.T + layer.b_cand)
    return cand * z + h * (1.0 - z), z, r, cand


def sort_readout(h_final, k, sizes):
    """(pooled (B, m, k), source rows (B, m, k), -1 for padded slots): the
    first k of a stable ascending sort of each document's negated column,
    padded to the longest document with NaN keys, which sort last."""
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    slot = np.arange(sizes.max(initial=0))
    keys = np.full((len(sizes), h_final.shape[1], len(slot)), np.nan)
    keys.transpose(0, 2, 1)[slot < sizes[:, None]] = -h_final
    order = np.argsort(keys, axis=2, kind="stable")[:, :, :k]
    real = order < sizes[:, None, None]
    take = order.shape[2]
    pooled = np.zeros((len(sizes), h_final.shape[1], k), dtype=np.float64)
    idx = np.full(pooled.shape, -1, dtype=np.int64)
    pooled[:, :, :take] = np.where(real, -np.take_along_axis(keys, order, axis=2), 0.0)
    idx[:, :, :take] = np.where(real, order + starts[:, None, None], -1)
    return pooled, idx


def masked_unit_rows(unit, dim, term_ids):
    """Rows of the (V, dim) table `unit` for `term_ids`, zero for any id
    outside [0, V)."""
    ids = np.asarray(term_ids, dtype=np.int64)
    inside = (ids >= 0) & (ids < len(unit))
    rows = np.zeros((len(ids), dim), dtype=np.float64)
    rows[inside] = unit[ids[inside]]
    return rows


def sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def rel_score(
    norm_adj,  # n x n nested lists, already degree-normalized
    S,  # n x M nested lists of cosine features
    idf,  # length-M list
    steps,
    k,
    msg_w,  # M x M
    w_up, u_up, b_up,
    w_reset, u_reset, b_reset,
    w_cand, u_cand, b_cand,
    out_w,  # length-k
    out_b,  # scalar
    idf_scale,  # scalar
):
    n = len(S)
    m = len(idf)

    h = [[S[i][j] for j in range(m)] for i in range(n)]

    for _ in range(steps):
        # messages: a_i = sum_j adj[i][j] * (msg_w @ h_j)
        mixed = [
            [sum(msg_w[d][c] * h[i][c] for c in range(m)) for d in range(m)]
            for i in range(n)
        ]
        a = [
            [
                sum(norm_adj[i][j] * mixed[j][d] for j in range(n))
                for d in range(m)
            ]
            for i in range(n)
        ]
        new_h = []
        for i in range(n):
            z = [
                sigmoid(
                    sum(w_up[d][c] * a[i][c] for c in range(m))
                    + sum(u_up[d][c] * h[i][c] for c in range(m))
                    + b_up[d]
                )
                for d in range(m)
            ]
            r = [
                sigmoid(
                    sum(w_reset[d][c] * a[i][c] for c in range(m))
                    + sum(u_reset[d][c] * h[i][c] for c in range(m))
                    + b_reset[d]
                )
                for d in range(m)
            ]
            rh = [r[c] * h[i][c] for c in range(m)]
            cand = [
                math.tanh(
                    sum(w_cand[d][c] * a[i][c] for c in range(m))
                    + sum(u_cand[d][c] * rh[c] for c in range(m))
                    + b_cand[d]
                )
                for d in range(m)
            ]
            new_h.append(
                [cand[d] * z[d] + h[i][d] * (1.0 - z[d]) for d in range(m)]
            )
        h = new_h

    # k-max per query column, ties to the smaller node index, zero padding
    pooled = []
    for j in range(m):
        col = [h[i][j] for i in range(n)]
        order = sorted(range(n), key=lambda i: (-col[i], i))[:k]
        vals = [col[i] for i in order]
        vals += [0.0] * (k - len(vals))
        pooled.append(vals)

    # idf softmax gates with max-subtraction
    y = [idf_scale * idf[j] for j in range(m)]
    top = max(y)
    exps = [math.exp(v - top) for v in y]
    total = sum(exps)
    gates = [e / total for e in exps]

    rel = 0.0
    for j in range(m):
        pre = sum(out_w[t] * pooled[j][t] for t in range(k)) + out_b
        rel += gates[j] * math.tanh(pre)
    return rel


def dict_postings(docs):
    """(postings, doc_len, coll_freq, coll_len) of a TokenizedDoc stream.

    postings maps term -> {doc_id: tf}; doc_len doc_id -> token count;
    coll_freq term -> occurrences in the collection.
    """
    postings, doc_len, coll_freq, coll_len = {}, {}, {}, 0
    for doc in docs:
        doc_len[doc.doc_id] = len(doc.tokens)
        coll_len += len(doc.tokens)
        for tid in doc.tokens:
            plist = postings.setdefault(tid, {})
            plist[doc.doc_id] = plist.get(doc.doc_id, 0) + 1
            coll_freq[tid] = coll_freq.get(tid, 0) + 1
    return postings, doc_len, coll_freq, coll_len


def transpose_postings(token_lists):
    """(indptr, rows, tf) of the term-major postings of documents given as
    token-id lists, rows in input order: term t's rows are
    rows[indptr[t]:indptr[t + 1]], ascending, and tf their counts."""
    gathered = [np.asarray(tokens, dtype=np.intc) for tokens in token_lists]
    flat = np.concatenate(gathered)
    indptr = np.zeros(len(gathered) + 1, dtype=np.int64)
    np.cumsum([len(tokens) for tokens in gathered], out=indptr[1:])
    incidence = csr_matrix((np.ones(flat.size, dtype=np.int8), flat, indptr),
                           shape=(len(gathered), len(np.bincount(flat))))
    postings = incidence.tocsc()
    rows, colptr = postings.indices, postings.indptr
    first = np.ones(rows.size, dtype=bool)  # the first posting of a run
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    first[colptr[:-1][np.diff(colptr) > 0]] = True
    starts = np.flatnonzero(first)
    tf = np.empty(starts.size, dtype=np.intc)
    np.subtract(starts[1:], starts[:-1], out=tf[:-1])
    tf[-1:] = colptr[-1] - starts[-1:]
    return np.searchsorted(starts, colptr).astype(colptr.dtype), rows[first], tf


def loop_tokenize(text):
    """Split on whitespace, lowercase, strip surrounding punctuation, drop
    the empty tokens."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation + "‘’“”")
        if tok:
            out.append(tok)
    return out


def counter_vocabulary(docs, stopwords, min_freq, count_documents):
    """(terms, doc_freq, num_docs) of tokenized documents: the terms that are
    not stopwords and reach `min_freq` in corpus occurrences, or in
    documents with `count_documents`, in order of first appearance."""
    corpus_freq, doc_freq = Counter(), Counter()
    num_docs = 0
    for tokens in docs:
        num_docs += 1
        corpus_freq.update(tokens)
        doc_freq.update(set(tokens))
    freq = doc_freq if count_documents else corpus_freq
    terms = [t for t in corpus_freq if t not in stopwords and freq[t] >= min_freq]
    return terms, [doc_freq[t] for t in terms], num_docs


def encode(terms, tokens):
    """The ids of `tokens` in `terms`, tokens not in it dropped."""
    t2i = {t: i for i, t in enumerate(terms)}
    return [t2i[t] for t in tokens if t in t2i]


def line_embeddings(path, vocab):
    """(vectors, has_vector) of a word2vec text file, aligned to vocab ids.

    Raises ValueError starting `path:line:` on the first malformed line,
    or `path:` when the header's count disagrees with the rows.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}:1: expected header `count dim`")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError(f"{path}:1: expected header `count dim`") from exc
        if dim < 1:
            raise ValueError(f"{path}:1: dim must be positive, got {dim}")
        vectors = np.zeros((len(vocab), dim), dtype=np.float64)
        has_vector = np.zeros(len(vocab), dtype=bool)
        seen = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ")
            if parts and parts[-1] == "":
                parts.pop()
            if len(parts) != dim + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected token + {dim} values, got {len(parts) - 1}"
                )
            seen += 1
            token = parts[0]
            tid = vocab.term_to_id.get(token)
            if tid is None:
                continue
            if has_vector[tid]:
                raise ValueError(f"{path}:{lineno}: second vector for {token!r}")
            try:
                vectors[tid] = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad float: {exc}") from exc
            if not np.isfinite(vectors[tid]).all():
                raise ValueError(f"{path}:{lineno}: non-finite value for {token!r}")
            has_vector[tid] = True
        if seen != count:
            raise ValueError(f"{path}: header announced {count} vectors, file has {seen}")
    return vectors, has_vector


def _blocks(layer, m):
    """Each tensor of a LayerParams cut to the first m query columns."""
    return SimpleNamespace(
        **{k: w[:m, :m] if w.ndim == 2 else w[:m] for k, w in vars(layer).items()}
    )


def doc_forward(graph, S, query, params):
    """(rel, trace) of one document, as the per-document model computed it.

    The trace is a namespace of the intermediates: (n, m) states and step
    activations, (m, k) pooled values and node indices, (m,) gates, term
    scores and idf.
    """
    hyper = params.hyper
    m = min(S.shape[1], hyper.max_query_len)
    h = S[:, :m]
    norm_adj = norm_adjacency(graph)
    t = SimpleNamespace(states=[h], messages=[], upd=[], reset=[], cand=[],
                        idf=query.idf[:m], norm_adj=norm_adj)
    layer = _blocks(params.layer, m)
    for _ in range(hyper.steps):
        a = norm_adj @ (h @ layer.msg_w.T)
        z = expit(a @ layer.w_up.T + h @ layer.u_up.T + layer.b_up)
        r = expit(a @ layer.w_reset.T + h @ layer.u_reset.T + layer.b_reset)
        c = np.tanh(a @ layer.w_cand.T + (r * h) @ layer.u_cand.T + layer.b_cand)
        h = c * z + h * (1.0 - z)
        for trail, x in ((t.messages, a), (t.upd, z), (t.reset, r),
                         (t.cand, c), (t.states, h)):
            trail.append(x)

    k = hyper.pool_k
    n = h.shape[0]
    t.pooled = np.zeros((m, k))
    t.pooled_idx = np.full((m, k), -1, dtype=np.int64)
    take = min(k, n)
    order = np.argsort(-h, axis=0, kind="stable")[:take].T
    t.pooled[:, :take] = np.take_along_axis(h.T, order, axis=1)
    t.pooled_idx[:, :take] = order

    y = float(params.idf_scale) * t.idf
    e = np.exp(y - y.max())
    t.gates = e / e.sum()
    t.term_scores = np.tanh(t.pooled @ params.out_w + float(params.out_b))
    rel = float(t.gates @ t.term_scores)
    return rel, t


def doc_backprop(trace, params, d_rel, tape):
    """Add d_rel * d(rel)/d(params) of one `doc_forward` trace into `tape`."""
    m = trace.states[0].shape[1]
    g = trace.gates
    s = trace.term_scores
    ds = d_rel * g
    dg = d_rel * s
    dpre = ds * (1.0 - s * s)
    tape.out_w += trace.pooled.T @ dpre
    tape.out_b += dpre.sum()
    dx = np.outer(dpre, params.out_w)
    dy = g * (dg - float(dg @ g))
    tape.idf_scale += dy @ trace.idf

    dh = np.zeros_like(trace.states[-1])
    term, slot = np.nonzero(trace.pooled_idx >= 0)
    dh[trace.pooled_idx[term, slot], term] = dx[term, slot]

    layer = _blocks(params.layer, m)
    grad = _blocks(tape.layer, m)
    for step in reversed(range(params.hyper.steps)):
        h_in = trace.states[step]
        a = trace.messages[step]
        z = trace.upd[step]
        r = trace.reset[step]
        cand = trace.cand[step]

        dz = dh * (cand - h_in)
        dcand = dh * z
        dh_acc = dh * (1.0 - z)

        dp_c = dcand * (1.0 - cand * cand)
        grad.w_cand += dp_c.T @ a
        grad.u_cand += dp_c.T @ (r * h_in)
        grad.b_cand += dp_c.sum(axis=0)
        da = dp_c @ layer.w_cand
        drh = dp_c @ layer.u_cand
        dr = drh * h_in
        dh_acc += drh * r

        dp_r = dr * r * (1.0 - r)
        grad.w_reset += dp_r.T @ a
        grad.u_reset += dp_r.T @ h_in
        grad.b_reset += dp_r.sum(axis=0)
        da += dp_r @ layer.w_reset
        dh_acc += dp_r @ layer.u_reset

        dp_z = dz * z * (1.0 - z)
        grad.w_up += dp_z.T @ a
        grad.u_up += dp_z.T @ h_in
        grad.b_up += dp_z.sum(axis=0)
        da += dp_z @ layer.w_up
        dh_acc += dp_z @ layer.u_up

        d_mixed = trace.norm_adj.T @ da
        grad.msg_w += d_mixed.T @ h_in
        dh_acc += d_mixed @ layer.msg_w
        dh = dh_acc
