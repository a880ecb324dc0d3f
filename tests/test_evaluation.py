"""Metrics vs brute-force oracles, fold splitting, and strict file parsing."""

import json
import math

import numpy as np
import pytest

from gowrank.errors import DataFormatError
from gowrank.evaluation import (
    FoldSplit,
    evaluate_run,
    kfold_split,
    ndcg_at,
    parse_qrels,
    parse_run,
    precision_at,
    write_report,
)

LOG2 = math.log(2.0)


def brute_ndcg(ranked, judged, cutoff):
    """Oracle: same definition, independent arithmetic (natural-log ratio)."""
    dcg = 0.0
    for i, doc in enumerate(ranked):
        if i >= cutoff:
            break
        grade = judged[doc] if doc in judged else 0
        dcg += (2.0**grade - 1.0) / (math.log(i + 2.0) / LOG2)
    ideal = sorted(judged.values(), reverse=True)[:cutoff]
    idcg = sum(
        (2.0**g - 1.0) / (math.log(i + 2.0) / LOG2) for i, g in enumerate(ideal)
    )
    return dcg / idcg if idcg > 0 else 0.0


def brute_precision(ranked, judged, cutoff):
    hits = 0
    for doc in ranked[:cutoff]:
        if doc in judged and judged[doc] > 0:
            hits += 1
    return hits / cutoff


class TestNdcg:
    def test_perfect_ranking_is_one(self):
        judged = {"d1": 3, "d2": 2, "d3": 1, "d4": 0}
        assert ndcg_at(["d1", "d2", "d3", "d4"], judged) == pytest.approx(1.0)

    def test_no_relevant_judged_is_zero(self):
        assert ndcg_at(["d1", "d2"], {"d1": 0, "d2": 0}) == 0.0

    def test_worst_vs_best_ordering(self):
        judged = {"d1": 2, "d2": 1, "d3": 0, "d4": 0}
        best = ndcg_at(["d1", "d2", "d3", "d4"], judged)
        worst = ndcg_at(["d4", "d3", "d2", "d1"], judged)
        assert best == pytest.approx(1.0)
        assert worst < best

    def test_matches_bruteforce_on_random_rankings(self):
        rng = np.random.default_rng(53)
        docs = [f"d{i}" for i in range(30)]
        worst = 0.0
        for _ in range(1000):
            judged = {
                d: int(g)
                for d, g in zip(docs, rng.integers(0, 4, size=30))
                if rng.random() < 0.8  # leave some docs unjudged
            }
            ranked = [docs[i] for i in rng.permutation(30)]
            cutoff = int(rng.choice([5, 10, 20]))
            got = ndcg_at(ranked, judged, cutoff)
            want = brute_ndcg(ranked, judged, cutoff)
            worst = max(worst, abs(got - want))
            assert 0.0 <= got <= 1.0 + 1e-12
        assert worst < 1e-12

    def test_upward_swap_of_relevant_never_hurts(self):
        rng = np.random.default_rng(59)
        docs = [f"d{i}" for i in range(15)]
        for _ in range(200):
            judged = {d: int(g) for d, g in zip(docs, rng.integers(0, 3, size=15))}
            if max(judged.values()) == 0:
                continue
            ranked = [docs[i] for i in rng.permutation(15)]
            base = ndcg_at(ranked, judged, 10)
            # find a relevant doc directly below a non-relevant one
            for pos in range(1, 15):
                above, here = ranked[pos - 1], ranked[pos]
                if judged[here] > 0 and judged[above] == 0:
                    swapped = list(ranked)
                    swapped[pos - 1], swapped[pos] = here, above
                    assert ndcg_at(swapped, judged, 10) >= base - 1e-15
                    break

    def test_unjudged_docs_gain_nothing(self):
        judged = {"d1": 1}
        with_unjudged = ndcg_at(["x", "y", "d1"], judged)
        assert with_unjudged == pytest.approx(
            (1.0 / math.log2(4)) / 1.0, abs=1e-12
        )


class TestPrecision:
    def test_all_relevant(self):
        judged = {f"d{i}": 1 for i in range(20)}
        assert precision_at([f"d{i}" for i in range(20)], judged) == 1.0

    def test_short_run_fixed_denominator(self):
        judged = {f"d{i}": 1 for i in range(5)}
        ranked = [f"d{i}" for i in range(5)]  # only 5 docs returned
        assert precision_at(ranked, judged, 20) == pytest.approx(0.25)

    def test_grade_zero_not_a_hit(self):
        assert precision_at(["d1"], {"d1": 0}, 20) == 0.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(61)
        docs = [f"d{i}" for i in range(25)]
        for _ in range(300):
            judged = {
                d: int(g)
                for d, g in zip(docs, rng.integers(0, 3, size=25))
                if rng.random() < 0.7
            }
            ranked = [docs[i] for i in rng.permutation(25)]
            cutoff = int(rng.choice([5, 10, 20]))
            assert precision_at(ranked, judged, cutoff) == brute_precision(
                ranked, judged, cutoff
            )


class TestRankOnlyDependence:
    def test_affine_score_invariance(self):
        # metrics consume ranked doc lists; re-sorting affinely scaled
        # scores under the (-score, doc_id) rule gives the same list
        rng = np.random.default_rng(67)
        docs = [f"d{i}" for i in range(20)]
        scores = rng.normal(size=20)
        order = sorted(range(20), key=lambda i: (-scores[i], docs[i]))
        scaled = scores * 3.7 + 11.0
        order2 = sorted(range(20), key=lambda i: (-scaled[i], docs[i]))
        assert order == order2


def _folds(qids, k=5, seed=0):
    """The k folds of a split: the shuffle does not depend on the rotation,
    so fold r is the test fold of rotation r."""
    return [kfold_split(qids, k, seed, r).test for r in range(k)]


class TestKfold:
    def test_partition_and_balance(self):
        qids = [f"q{i:03d}" for i in range(23)]
        folds = _folds(qids, seed=3)
        all_assigned = [q for fold in folds for q in fold]
        assert sorted(all_assigned) == sorted(qids)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_paper_scale_sizes(self):
        folds250 = _folds([f"q{i}" for i in range(250)], seed=0)
        assert [len(f) for f in folds250] == [50] * 5
        folds200 = _folds([f"q{i}" for i in range(200)], seed=0)
        assert [len(f) for f in folds200] == [40] * 5

    def test_roles_partition_queries(self):
        qids = [f"q{i}" for i in range(30)]
        tests = _folds(qids, seed=7)
        # the k test folds partition the ids
        assert sorted(q for fold in tests for q in fold) == sorted(qids)
        for rotation in range(5):
            split = kfold_split(qids, folds=5, seed=7, rotation=rotation)
            combined = split.train + split.validation + split.test
            assert sorted(combined) == sorted(qids)
            # validation is another rotation's test fold
            assert split.validation in tests[:rotation] + tests[rotation + 1:]
            assert len(split.validation) in (5, 6, 7)
            assert not set(split.test) & set(split.validation)

    def test_deterministic(self):
        qids = [f"q{i}" for i in range(40)]
        a = kfold_split(qids, seed=11, rotation=2)
        b = kfold_split(qids, seed=11, rotation=2)
        assert _folds(qids, seed=11) == _folds(qids, seed=11)
        assert a.validation == b.validation
        assert _folds(qids, seed=11) != _folds(qids, seed=12)

    def test_too_few_queries(self):
        with pytest.raises(DataFormatError, match="at least 5"):
            kfold_split(["q1", "q2"], folds=5, seed=0)

    def test_bad_rotation(self):
        with pytest.raises(DataFormatError, match="rotation"):
            kfold_split([f"q{i}" for i in range(10)], rotation=5)


class TestParseQrels:
    def test_valid(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 2\nq1 0 d2 0\nq2 0 d1 1\n")
        qrels = parse_qrels(p)
        assert qrels == {"q1": {"d1": 2, "d2": 0}, "q2": {"d1": 1}}

    def test_field_count(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1\n")
        with pytest.raises(DataFormatError, match=":1"):
            parse_qrels(p)

    def test_bad_grade(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 high\n")
        with pytest.raises(DataFormatError, match="integer"):
            parse_qrels(p)

    def test_negative_grade(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 -1\n")
        with pytest.raises(DataFormatError, match="negative"):
            parse_qrels(p)

    def test_duplicate_pair(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 1\nq1 0 d1 2\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            parse_qrels(p)


class TestParseRun:
    def test_valid(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 d1 1 2.500000 tag\nq1 Q0 d2 2 1.000000 tag\n")
        runs = parse_run(p)
        assert runs["q1"] == [("d1", 1, 2.5), ("d2", 2, 1.0)]

    def test_q0_required(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 XX d1 1 2.5 tag\n")
        with pytest.raises(DataFormatError, match="Q0"):
            parse_run(p)

    def test_field_count(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 d1 1 2.5\n")
        with pytest.raises(DataFormatError, match="6 fields"):
            parse_run(p)

    def test_bad_score(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 d1 1 high tag\n")
        with pytest.raises(DataFormatError, match="rank/score"):
            parse_run(p)

    def test_nonfinite_score(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 d1 1 nan tag\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            parse_run(p)

    def test_duplicate_doc(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 d1 1 2.0 tag\nq1 Q0 d1 2 1.0 tag\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            parse_run(p)


class TestEvaluateRun:
    def _write(self, tmp_path, run_lines, qrels_lines):
        run = tmp_path / "run.txt"
        run.write_text("".join(line + "\n" for line in run_lines))
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("".join(line + "\n" for line in qrels_lines))
        return run, qrels

    def test_perfect_single_query(self, tmp_path):
        run, qrels = self._write(
            tmp_path,
            ["q1 Q0 d1 1 2.0 t", "q1 Q0 d2 2 1.0 t"],
            ["q1 0 d1 2", "q1 0 d2 1"],
        )
        report = evaluate_run(run, qrels)
        assert report["mean"]["ndcg@20"] == pytest.approx(1.0)
        assert report["mean"]["p@20"] == pytest.approx(2 / 20)
        assert report["unjudged"] == []

    def test_unknown_query_listed_unjudged(self, tmp_path):
        run, qrels = self._write(
            tmp_path,
            ["q1 Q0 d1 1 2.0 t", "q9 Q0 d1 1 2.0 t"],
            ["q1 0 d1 1"],
        )
        report = evaluate_run(run, qrels)
        assert report["unjudged"] == ["q9"]
        assert report["num_queries"] == 1

    def test_zero_idcg_excluded_by_default(self, tmp_path):
        run, qrels = self._write(
            tmp_path,
            ["q1 Q0 d1 1 2.0 t", "q2 Q0 d9 1 2.0 t"],
            ["q1 0 d1 1", "q2 0 d9 0"],
        )
        report = evaluate_run(run, qrels)
        assert report["unjudged"] == ["q2"]
        assert report["num_queries"] == 1

    def test_three_query_fixture_hand_values(self, tmp_path):
        # query A: judged d1:2 d2:1 d3:0, ranked [d2, d1, d4]
        #   DCG = 1/log2(2) + 3/log2(3); IDCG = 3/log2(2) + 1/log2(3)
        # query B: judged d5:1, ranked [d6, d5] -> DCG = 1/log2(3), IDCG = 1
        # query C: ranked [d7], judged only at grade 0 -> excluded
        run, qrels = self._write(
            tmp_path,
            [
                "qA Q0 d2 1 3.0 t",
                "qA Q0 d1 2 2.0 t",
                "qA Q0 d4 3 1.0 t",
                "qB Q0 d6 1 2.0 t",
                "qB Q0 d5 2 1.0 t",
                "qC Q0 d7 1 1.0 t",
            ],
            [
                "qA 0 d1 2",
                "qA 0 d2 1",
                "qA 0 d3 0",
                "qB 0 d5 1",
                "qC 0 d7 0",
            ],
        )
        report = evaluate_run(run, qrels)
        ndcg_a = (1.0 + 3.0 / math.log2(3)) / (3.0 + 1.0 / math.log2(3))
        ndcg_b = 1.0 / math.log2(3)
        assert report["per_query"]["qA"]["ndcg@20"] == pytest.approx(ndcg_a, abs=1e-12)
        assert report["per_query"]["qB"]["ndcg@20"] == pytest.approx(ndcg_b, abs=1e-12)
        assert report["per_query"]["qA"]["p@20"] == pytest.approx(0.1)
        assert report["per_query"]["qB"]["p@20"] == pytest.approx(0.05)
        assert report["unjudged"] == ["qC"]
        assert report["mean"]["ndcg@20"] == pytest.approx((ndcg_a + ndcg_b) / 2, abs=1e-12)

    def test_resorts_by_score_ignoring_stated_ranks(self, tmp_path):
        # file order and rank column disagree with scores; scores win
        run, qrels = self._write(
            tmp_path,
            ["q1 Q0 dworse 1 1.0 t", "q1 Q0 dbest 2 9.0 t"],
            ["q1 0 dbest 1", "q1 0 dworse 0"],
        )
        report = evaluate_run(run, qrels)
        assert report["per_query"]["q1"]["ndcg@20"] == pytest.approx(1.0)

    def test_report_roundtrips_as_json(self, tmp_path):
        run, qrels = self._write(
            tmp_path, ["q1 Q0 d1 1 1.0 t"], ["q1 0 d1 1"]
        )
        report = evaluate_run(run, qrels)
        out = tmp_path / "report.json"
        write_report(report, out)
        assert json.loads(out.read_text()) == report
