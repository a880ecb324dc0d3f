"""Embedding loading and cosine similarity."""

import numpy as np
import pytest

from gowrank.corpus import Vocabulary
from gowrank.embeddings import EmbeddingTable, cosine, load_embeddings
from gowrank.errors import DataFormatError


def _vocab(terms):
    return Vocabulary(
        terms=list(terms),
        term_to_id={t: i for i, t in enumerate(terms)},
        doc_freq=[1] * len(terms),
        num_docs=10,
    )


def _write(tmp_path, text, name="vec.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadEmbeddings:
    def test_full_coverage(self, tmp_path):
        p = _write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n")
        table = load_embeddings(p, _vocab(["a", "b"]))
        assert table.coverage == 1.0
        np.testing.assert_array_equal(table.vectors[0], [1, 0, 0])
        np.testing.assert_array_equal(table.vectors[1], [0, 1, 0])

    def test_partial_coverage(self, tmp_path):
        p = _write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n")
        table = load_embeddings(p, _vocab(["a", "b", "c"]))
        assert table.coverage == pytest.approx(2 / 3)
        assert not table.has_vector[2]
        np.testing.assert_array_equal(table.vectors[2], [0, 0, 0])

    def test_short_line_rejected(self, tmp_path):
        p = _write(tmp_path, "1 3\na 1 0\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_embeddings(p, _vocab(["a"]))

    def test_bad_header(self, tmp_path):
        p = _write(tmp_path, "three hundred\na 1 0 0\n")
        with pytest.raises(DataFormatError, match=":1"):
            load_embeddings(p, _vocab(["a"]))

    def test_bad_float(self, tmp_path):
        p = _write(tmp_path, "1 2\na 1 oops\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_embeddings(p, _vocab(["a"]))

    def test_count_mismatch(self, tmp_path):
        p = _write(tmp_path, "3 2\na 1 0\nb 0 1\n")
        with pytest.raises(DataFormatError, match="announced 3"):
            load_embeddings(p, _vocab(["a", "b"]))

    def test_extra_tokens_skipped(self, tmp_path):
        p = _write(tmp_path, "3 2\na 1 0\nzzz 5 5\nb 0 1\n")
        table = load_embeddings(p, _vocab(["a", "b"]))
        assert table.coverage == 1.0

    def test_trailing_space_tolerated(self, tmp_path):
        p = _write(tmp_path, "1 2\na 1 0 \n")
        table = load_embeddings(p, _vocab(["a"]))
        np.testing.assert_array_equal(table.vectors[0], [1, 0])


class TestUnitRows:
    def test_unit_norms(self):
        table = EmbeddingTable(
            2, np.array([[3.0, 4.0], [0.0, 0.0]]), np.array([True, False])
        )
        np.testing.assert_allclose(table.unit[0], [0.6, 0.8])
        np.testing.assert_array_equal(table.unit[1], [0.0, 0.0])

    def test_unit_vector_out_of_range(self):
        table = EmbeddingTable(2, np.ones((1, 2)), np.array([True]))
        np.testing.assert_array_equal(table.unit_vector(-1), [0, 0])
        np.testing.assert_array_equal(table.unit_vector(5), [0, 0])

    def test_nonfinite_rejected(self):
        with pytest.raises(DataFormatError):
            EmbeddingTable(2, np.array([[np.nan, 0.0]]), np.array([True]))


class TestCosine:
    def test_identical_direction(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_known_value(self):
        # 4 / (sqrt(5) * sqrt(5)) = 0.8 exactly
        assert cosine(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == pytest.approx(
            0.8, abs=1e-15
        )

    def test_zero_norm(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(2), np.ones(3))

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            u = rng.normal(size=8)
            v = rng.normal(size=8)
            alpha = rng.uniform(0.1, 10.0)
            assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
            assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-12)
            assert abs(cosine(u, v)) <= 1.0 + 1e-12

