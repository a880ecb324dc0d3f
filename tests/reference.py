"""Independent straight-line re-implementation of the relevance score.

Used as the dual-implementation oracle: plain Python lists and math calls,
no numpy, no shared code with the package.  Takes exactly M query columns
and M x M weights, the leading blocks the production path scores with.
"""

import math


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
