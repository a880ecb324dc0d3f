"""Command-line surface: index, train, rerank, eval, ablate, gradcheck.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every artifact is a pure function of (inputs, config, seed) on one BLAS kernel.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .artifacts import atomic_write
from .config import RunConfig, load_config
from .corpus import (
    count_vocabulary,
    default_stopwords,
    make_query,
    read_corpus,
    read_queries,
    read_stopwords,
    text_ids,
    tokenize,
)
from .embeddings import load_embeddings
from .errors import DataFormatError, NumericalError, UsageError
from .evaluation import evaluate_run, kfold_split, parse_qrels, write_report
from .gradcheck import grad_check
from .graph import graph_stores
from .indexfile import read_index, write_index
from .model import load_checkpoint, save_checkpoint
from .retrieval import build_index, write_run
from .scoring import ScoringContext, rerank
from .training import train

log = logging.getLogger(__name__)

ABLATE_DEPTHS = (0, 1, 2, 3, 4)
GRADCHECK_INSTANCES = (
    {"n": 12, "m": 4, "steps": 2, "k": 3},
    {"n": 1, "m": 2, "steps": 2, "k": 3},
    {"n": 5, "m": 3, "steps": 2, "k": 8},
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as an exception, not sys.exit(2)."""

    def error(self, message):
        raise UsageError(message)


_CONFIG_FLAGS = [f.name for f in dataclasses.fields(RunConfig)]


def _common_flags() -> _Parser:
    common = _Parser(add_help=False)
    group = common.add_argument_group("configuration overrides")
    group.add_argument("--config", default=None, metavar="FILE",
                       help="flat key = value config file")
    for field in dataclasses.fields(RunConfig):
        kind = {"int": int, "float": float, "str": str}[field.type]
        group.add_argument("--" + field.name.replace("_", "-"), dest=field.name,
                           default=None, type=kind)
    return common


def build_parser() -> _Parser:
    common = _common_flags()
    parser = _Parser(prog="gowrank",
                     description="Graph-based candidate re-ranking pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("index", parents=[common],
                   help="tokenize the corpus and build vocabulary + postings")
    train_p = sub.add_parser("train", parents=[common],
                             help="train a re-ranker on the k-fold train split")
    train_p.add_argument("--log-out", default="train.log",
                         help="JSONL per-epoch training log")
    rerank_p = sub.add_parser("rerank", parents=[common],
                              help="re-score first-stage candidates with a checkpoint")
    rerank_p.add_argument("--run-out", default="rerank.run")
    rerank_p.add_argument("--tag", default="gowrank")
    eval_p = sub.add_parser("eval", parents=[common],
                            help="score a run file against judgments")
    eval_p.add_argument("--run", required=True)
    eval_p.add_argument("--report-out", default=None,
                        help="optional JSON report path")
    ablate_p = sub.add_parser("ablate", parents=[common],
                              help="train/rerank under each adjacency mode and depth")
    ablate_p.add_argument("--out-dir", default="ablation")
    grad_p = sub.add_parser("gradcheck", parents=[common],
                            help="verify analytic gradients with central differences")
    grad_p.add_argument("--seeds", type=int, default=10)
    grad_p.add_argument("--tolerance", type=float, default=1e-5)
    return parser


def _make_config(args) -> RunConfig:
    overrides = {name: getattr(args, name) for name in _CONFIG_FLAGS}
    return load_config(args.config, overrides, os.environ)


def _stopword_set(cfg: RunConfig):
    return read_stopwords(cfg.stopwords) if cfg.stopwords else default_stopwords()


def cmd_index(cfg: RunConfig, args) -> int:
    ids_of: dict[str, int] = {}
    id_of_word: dict[str, int] = {}
    docs = {doc_id: text_ids(ids_of, id_of_word, text)
            for doc_id, text in read_corpus(cfg.corpus)}
    del id_of_word  # its table goes back to the system before the counts and the write
    out = Path(cfg.index_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab, vocab_ids = count_vocabulary(docs.values(), ids_of, _stopword_set(cfg),
                                        cfg.min_freq, cfg.min_freq_mode == "docs")
    write_index(out, vocab, vocab_ids, docs)
    print(f"indexed {len(docs)} documents, vocabulary size {len(vocab)}")
    return 0


def _load_world(cfg: RunConfig):
    """Everything downstream commands need, rebuilt from the index dir, and
    the sha256 of the index bytes read."""
    vocab, docs, index_sha256 = read_index(cfg.index_dir)
    queries = {
        qid: make_query(vocab, qid, tokenize(title))
        for qid, title in read_queries(cfg.queries)
    }
    emb = load_embeddings(cfg.embeddings, vocab, cfg.index_dir)
    index = build_index(docs.values())
    index.fill(t for query in queries.values() for t in query.tokens)  # one pass for all
    return docs, queries, emb, index, index_sha256


def _split(cfg: RunConfig, queries):
    return kfold_split(sorted(queries), cfg.folds, cfg.seed, cfg.fold_rotation)


def cmd_train(cfg: RunConfig, args) -> int:
    docs, queries, emb, index, index_sha256 = _load_world(cfg)
    qrels = parse_qrels(cfg.qrels)
    split = _split(cfg, queries)
    with graph_stores(cfg.index_dir, cfg.window, docs, index_sha256,
                      [cfg.adjacency_mode]) as graphs:
        params, records = train(docs, queries, qrels, index, emb, cfg, split.train,
                                split.validation, graphs[cfg.adjacency_mode])
        _write_training(cfg, args.log_out, params, records)
    best = max((r["val_ndcg20"] for r in records), default=0.0)
    print(f"trained {len(records)} epochs; best validation nDCG@20 {best:.4f}; "
          f"checkpoint -> {cfg.checkpoint}")
    return 0


def _write_training(cfg: RunConfig, log_path, params, records) -> None:
    """`train`'s JSONL log, one record per epoch, then its checkpoint."""
    with atomic_write(log_path) as fh:
        fh.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)
    save_checkpoint(cfg.checkpoint, params, extra={key: getattr(cfg, key) for key in (
        "window", "adjacency_mode", "min_freq", "seed")})  # cmd_rerank checks the first two


def cmd_rerank(cfg: RunConfig, args) -> int:
    # the tag is the last whitespace-separated field of every run line
    if args.tag.split() != [args.tag]:
        raise UsageError(f"--tag {args.tag!r} is empty or contains whitespace")
    docs, queries, emb, index, index_sha256 = _load_world(cfg)
    params, extra = load_checkpoint(cfg.checkpoint)
    for key in ("window", "adjacency_mode"):
        if key in extra and extra[key] != getattr(cfg, key):
            log.warning("checkpoint was trained with %s=%s but config says %s",
                        key, extra[key], getattr(cfg, key))
    with graph_stores(cfg.index_dir, cfg.window, docs, index_sha256,
                      [cfg.adjacency_mode]) as graphs:
        ctx = ScoringContext(docs, queries, emb, cfg.window, cfg.adjacency_mode,
                             graphs[cfg.adjacency_mode])
        ranked = rerank(ctx, index, cfg.candidates, params)
        del ctx, queries, emb, index  # freed before the store is written: ~5 MB off the peak
        write_run(args.run_out, ranked, args.tag)
    print(f"wrote {sum(len(v) for v in ranked.values())} lines "
          f"for {len(ranked)} queries -> {args.run_out}")
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    report = evaluate_run(args.run, cfg.qrels)
    if args.report_out:
        write_report(report, args.report_out)
    mean = report["mean"]
    print(f"nDCG@20 {mean['ndcg@20']:.4f}  P@20 {mean['p@20']:.4f}  "
          f"({report['num_queries']} queries, "
          f"{len(report['unjudged'])} without judgments)")
    return 0


def cmd_ablate(cfg: RunConfig, args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    docs, queries, emb, index, index_sha256 = _load_world(cfg)
    qrels = parse_qrels(cfg.qrels)
    split = _split(cfg, queries)

    cells = [(mode, cfg.steps) for mode in ("graph", "sequence", "zero")]
    cells += [("graph", t) for t in ABLATE_DEPTHS if ("graph", t) not in cells]
    results = {}
    with graph_stores(cfg.index_dir, cfg.window, docs, index_sha256,
                      ("graph", "sequence", "zero")) as graphs:
        for mode, steps in cells:
            cell_cfg = dataclasses.replace(cfg, adjacency_mode=mode, steps=steps)
            params, _ = train(
                docs, queries, qrels, index, emb, cell_cfg,
                train_qids=split.train, val_qids=split.validation, graphs=graphs[mode],
            )
            run_path = out / f"run_{mode}_t{steps}.txt"
            ranked = rerank(ScoringContext(docs, queries, emb, cfg.window, mode, graphs[mode]),
                            index, cfg.candidates, params)
            # the cell identity lives in the filename; a fixed tag keeps the
            # graph/t=2 cell byte-identical to a default rerank
            write_run(run_path, ranked, "gowrank")
            report = evaluate_run(run_path, cfg.qrels)
            results[f"{mode}/t={steps}"] = report["mean"]["ndcg@20"]
            log.info("ablation cell %s/t=%d: nDCG@20 %.4f",
                     mode, steps, results[f"{mode}/t={steps}"])

    lines = ["setting          nDCG@20", "-" * 25]
    for name, value in results.items():
        lines.append(f"{name:<16} {value:.4f}")
    table = "\n".join(lines) + "\n"
    with atomic_write(out / "table.txt") as fh:
        fh.write(table)
    with atomic_write(out / "table.json") as fh:
        fh.write(json.dumps(results, sort_keys=True, indent=2) + "\n")
    print(table, end="")
    return 0


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds {args.seeds}: at least one seed is needed")
    if not 0.0 < args.tolerance < float("inf"):
        raise UsageError(f"--tolerance {args.tolerance}: must be finite and > 0")
    worst_overall = 0.0
    failed = False
    for spec in GRADCHECK_INSTANCES:
        worst = 0.0
        for seed in range(args.seeds):
            report = grad_check(seed=seed, tolerance=args.tolerance, **spec)
            worst = max(worst, report["max_rel_err"])
        ok = worst < args.tolerance
        failed = failed or not ok
        worst_overall = max(worst_overall, worst)
        shape = f"n={spec['n']} M={spec['m']} t={spec['steps']} k={spec['k']}"
        print(f"{shape:<24} max rel err {worst:.3e}  "
              f"{'ok' if ok else 'FAIL'}")
    print(f"overall max rel err {worst_overall:.3e} "
          f"({'PASS' if not failed else 'FAIL'} at {args.tolerance})")
    if failed:
        raise NumericalError("gradient check exceeded tolerance")
    return 0


_DISPATCH = {
    "index": cmd_index,
    "train": cmd_train,
    "rerank": cmd_rerank,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s"
    )
    try:
        args = build_parser().parse_args(argv)
        cfg = _make_config(args)
        # every numeric output is checked for finiteness; numpy's warnings repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return _DISPATCH[args.command](cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
