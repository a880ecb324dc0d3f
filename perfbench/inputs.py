"""Seeded input generators for the benchmark workloads.

Every file a workload feeds to `gowrank` is written here from the seed
alone, before any timer starts; the program under test only ever sees
the generated files.  `WORKLOADS` holds every generator parameter and the
CLI settings of each workload, and is copied into each result.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from gowrank.datagen import SyntheticData, bridged_corpus

# Zipf corpus shared by the two rerank workloads.
ZIPF = {
    "num_docs": 2000,
    "doc_len": 500,
    "vocab_size": 20000,
    "zipf_exponent": 1.0,
    "dim": 50,
    # query terms are drawn, without reuse, from this band of frequency
    # ranks: each matches roughly 80-300 of the 2000 documents, so every
    # query fills its 100-document pool
    "query_rank_band": [300, 1200],
    "query_len": [2, 4],
    "num_query_texts": 9,
    # per query text: documents with the query terms planted as one
    # contiguous phrase (relevant) or scattered >= 8 tokens apart (judged
    # non-relevant); each planted document gets `plant_copies` copies
    "relevant_per_query": 6,
    "nonrelevant_per_query": 6,
    "plant_copies": 2,
    "scatter_gap": 8,
}

# Short fixed training schedule run by the rerank workloads, so that every
# workload runs index -> train -> rerank -> eval.
_RERANK_TRAIN = {
    "min_freq": 1, "window": 5, "pool_k": 40, "candidates": 100,
    "lr": 0.01, "epochs": 4, "steps_per_epoch": 4, "batch": 8, "folds": 4,
}

# `inputs_per_run` input sets are drawn per run, from sub-seeds of the run's
# seed (`sub_seeds`), and each metric is averaged over them: on the bridged
# corpus the share of active hinges, and so the backward work, varies by
# up to a third from one seed to the next.
WORKLOADS = {
    "train-bridged": {
        "inputs_per_run": 4,
        "generator": "gowrank.datagen.bridged_corpus",
        "generator_params": {"num_queries": 40, "relevant_per_query": 2,
                             "twins_per_query": 6, "dim": 8},
        # the README walkthrough config
        "config": {"min_freq": 1, "window": 7, "pool_k": 12, "lr": 0.005,
                   "epochs": 30, "steps_per_epoch": 8, "batch": 16},
    },
    "rerank-cold": {
        "inputs_per_run": 1,
        "generator": "perfbench.inputs.zipf_inputs",
        "generator_params": dict(ZIPF, query_texts_used=9, repeat_factor=1),
        "config": _RERANK_TRAIN,
    },
    "rerank-warm": {
        "inputs_per_run": 1,
        "generator": "perfbench.inputs.zipf_inputs",
        "generator_params": dict(ZIPF, query_texts_used=3, repeat_factor=3),
        "config": _RERANK_TRAIN,
    },
}


def _term(rank: int) -> str:
    return f"z{rank:05d}"


def _zipf_tokens(rng: np.random.Generator, p: dict) -> np.ndarray:
    """(num_docs, doc_len) array of term ranks drawn from a Zipf law."""
    ranks = np.arange(1, p["vocab_size"] + 1, dtype=np.float64)
    weights = ranks ** -p["zipf_exponent"]
    cdf = np.cumsum(weights / weights.sum())
    u = rng.random((p["num_docs"], p["doc_len"]))
    return np.minimum(np.searchsorted(cdf, u), p["vocab_size"] - 1) + 1


def _plant(rng, row: np.ndarray, terms: list[int], copies: int,
           phrase: bool, gap: int) -> None:
    """Overwrite tokens of one document with the query terms."""
    m = len(terms)
    if phrase:
        starts = rng.choice(len(row) // (m + 1), size=copies, replace=False)
        for s in starts:
            row[s * (m + 1): s * (m + 1) + m] = terms
        return
    slots = rng.choice(len(row) // gap, size=copies * m, replace=False)
    for slot, term in zip(slots, terms * copies):
        row[slot * gap] = term


def zipf_inputs(seed: int, params: dict) -> SyntheticData:
    """Corpus, embeddings, queries and qrels for a rerank workload.

    The corpus and query texts depend only on (seed, ZIPF); the workload
    picks `query_texts_used` texts and issues each under `repeat_factor`
    query ids.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5a1f]))
    tokens = _zipf_tokens(rng, params)
    lo, hi = params["query_rank_band"]
    band = rng.permutation(np.arange(lo, hi))
    docs_left = rng.permutation(params["num_docs"])
    texts, judged = [], []
    used = 0
    for _ in range(params["num_query_texts"]):
        m = int(rng.integers(params["query_len"][0], params["query_len"][1] + 1))
        terms = [int(t) for t in band[used: used + m]]
        used += m
        grades = {}
        planted = params["relevant_per_query"] + params["nonrelevant_per_query"]
        for i, doc in enumerate(docs_left[:planted]):
            relevant = i < params["relevant_per_query"]
            _plant(rng, tokens[doc], terms, params["plant_copies"],
                   relevant, params["scatter_gap"])
            grades[int(doc)] = 1 if relevant else 0
        docs_left = docs_left[planted:]
        texts.append(" ".join(_term(t) for t in terms))
        judged.append(grades)

    vectors = rng.normal(size=(params["vocab_size"], params["dim"]))
    queries, qrels = [], []
    for t in range(params["query_texts_used"]):
        for r in range(params["repeat_factor"]):
            qid = f"q{t:02d}r{r}"
            queries.append((qid, texts[t]))
            qrels += [(qid, f"d{doc:05d}", g) for doc, g in sorted(judged[t].items())]
    docs = [(f"d{i:05d}", " ".join(_term(int(t)) for t in row))
            for i, row in enumerate(tokens)]
    embeddings = {_term(r + 1): vectors[r] for r in range(len(vectors))}
    return SyntheticData(docs, queries, qrels, embeddings, params["dim"])


def sub_seeds(workload: str, seed: int) -> list[int]:
    """The seeds of the input sets one run of `workload` draws from `seed`."""
    k = WORKLOADS[workload]["inputs_per_run"]
    return [seed * k + j for j in range(k)]


def generate(workload: str, seed: int, out: Path) -> Path:
    """Write the workload's input files and its config; returns the config.

    Artifact paths (index, checkpoint, run file) are left to the caller.
    """
    spec = WORKLOADS[workload]
    if workload == "train-bridged":
        data = bridged_corpus(seed=seed, **spec["generator_params"])
    else:
        data = zipf_inputs(seed, spec["generator_params"])
    data.write(out)
    cfg = {
        "corpus": out / "corpus.jsonl", "queries": out / "queries.tsv",
        "qrels": out / "qrels.txt", "embeddings": out / "embeddings.txt",
        "seed": seed, **spec["config"],
    }
    path = out / "run.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
    return path
