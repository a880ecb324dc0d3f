"""End-to-end command-line behavior on a small generated collection:
artifact layout, exit codes, determinism, and the ablation invariant."""

import json
from pathlib import Path

import numpy as np
import pytest

from gowrank.cli import main
from gowrank.corpus import Vocabulary
from gowrank.datagen import overfit_corpus
from gowrank.evaluation import parse_qrels, parse_run
from gowrank.model import HyperParams, init_params, load_checkpoint, save_checkpoint


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

    def test_bad_config_value_is_data_error(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("adjacency_mode = diagonal\n")
        assert main(["index", "--config", str(conf)]) == 2


class TestPipeline:
    def test_index_writes_vocabulary_and_documents(self, workdir):
        assert _run(workdir, "index") == 0
        vocab = Vocabulary.from_json((workdir / "index" / "vocab.json").read_text())
        assert len(vocab) > 0
        assert vocab.min_freq == 1
        lines = (workdir / "index" / "docs.jsonl").read_text().splitlines()
        assert len(lines) == 40
        row = json.loads(lines[0])
        assert set(row) == {"doc_id", "tokens", "raw_length"}

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

    def test_corrupt_checkpoint_is_data_error(self, workdir, tmp_path):
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, init_params(HyperParams(), np.random.default_rng(0)))
        data = good.read_bytes()
        garbled = data[:12] + b"\xff" + data[13:]
        bad = tmp_path / "bad.ckpt"
        # junk, cut in the header-length field, cut in the header, bad header
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
        vocab = Vocabulary.from_json((idx / "vocab.json").read_text())
        assert vocab.min_freq == 3

    def test_env_beats_file_but_not_flag(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("GOWRANK_MIN_FREQ", "2")
        idx = tmp_path / "idx_env"
        assert _run(workdir, "index", "--index-dir", str(idx)) == 0
        vocab = Vocabulary.from_json((idx / "vocab.json").read_text())
        assert vocab.min_freq == 2

        idx2 = tmp_path / "idx_env_flag"
        assert _run(workdir, "index", "--min-freq", "4",
                    "--index-dir", str(idx2)) == 0
        vocab = Vocabulary.from_json((idx2 / "vocab.json").read_text())
        assert vocab.min_freq == 4


class TestGradcheckCommand:
    def test_passes_and_prints_report(self, capsys):
        assert main(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert out.count("max rel err") == 4  # three instances + overall
