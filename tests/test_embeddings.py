"""Embedding loading, unit rows, and the cosine reference."""

import numpy as np
import pytest

from gowrank import embeddings
from gowrank.corpus import Vocabulary
from gowrank.embeddings import CHUNK_ROWS, EmbeddingTable, load_embeddings
from gowrank.errors import DataFormatError
from reference import cosine, line_embeddings


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
        assert table.has_vector.all()
        np.testing.assert_array_equal(table.unit[0], [1, 0, 0])
        np.testing.assert_array_equal(table.unit[1], [0, 1, 0])

    def test_partial_coverage(self, tmp_path):
        p = _write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n")
        table = load_embeddings(p, _vocab(["a", "b", "c"]))
        assert table.has_vector.sum() == 2
        assert not table.has_vector[2]
        np.testing.assert_array_equal(table.unit[2], [0, 0, 0])

    def test_short_line_rejected(self, tmp_path):
        p = _write(tmp_path, "1 3\na 1 0\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_embeddings(p, _vocab(["a"]))

    def test_token_without_values_rejected(self, tmp_path):
        p = _write(tmp_path, "2 1\na 1\nb\n")
        with pytest.raises(DataFormatError, match=r":3: expected token \+ 1 values, got 0"):
            load_embeddings(p, _vocab(["a", "b"]))

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
        assert table.has_vector.all()

    def test_second_vector_for_vocabulary_token_rejected(self, tmp_path):
        p = _write(tmp_path, "3 2\na 1 0\nb 0 1\na 5 5\n")
        with pytest.raises(DataFormatError, match=r"vec\.txt:4: second vector for 'a'"):
            load_embeddings(p, _vocab(["a", "b"]))

    def test_repeated_token_outside_vocabulary_skipped(self, tmp_path):
        p = _write(tmp_path, "3 2\na 1 0\nzzz 5 5\nzzz 6 6\n")
        table = load_embeddings(p, _vocab(["a"]))
        np.testing.assert_array_equal(table.unit[0], [1, 0])

    def test_trailing_space_tolerated(self, tmp_path):
        p = _write(tmp_path, "1 2\na 1 0 \n")
        table = load_embeddings(p, _vocab(["a"]))
        np.testing.assert_array_equal(table.unit[0], [1, 0])

    def test_empty_value_is_a_bad_float(self, tmp_path):
        # two trailing spaces leave dim 1's one value empty, a row the
        # C parser would skip rather than reject
        p = _write(tmp_path, "3 1\na 1\nb  \nc 2\n")
        with pytest.raises(DataFormatError,
                           match=r"vec\.txt:3: bad float '' in the vector for 'b'"):
            load_embeddings(p, _vocab(["a", "b", "c"]))


# How `_vector_file` spells a value: each a str.format spec, or a function.
_SPELLINGS = [
    repr, "{:.6f}", "{:g}", "{:E}", "{:+.3e}", "{:.0f}",
    lambda v: f"{v:.4f}".replace("0.", ".", 1),  # no leading zero
    lambda v: f"{v:.0f}.",  # no digits after the point
]


def _vector_file(path, seed, dim, vocab_rows, oov_rows=0, *, trailing=False,
                 blanks=False, newline="\n", spellings=(repr,), oov_pool=None,
                 final_newline=True):
    """Write a word2vec text file of `vocab_rows` rows for the terms t0..,
    in shuffled order among `oov_rows` rows outside the vocabulary; return
    a vocabulary of those terms plus 5 without a row."""
    rng = np.random.default_rng(seed)
    terms = [f"t{i}" for i in range(vocab_rows)]
    oov = [f"x{rng.integers(oov_pool) if oov_pool else i}" for i in range(oov_rows)]
    tokens = terms + oov
    rng.shuffle(tokens)
    values = rng.normal(size=(len(tokens), dim)) * 10.0 ** rng.integers(-3, 4, size=(len(tokens), 1))
    values[rng.random(len(tokens)) < 0.02] = 0.0
    lines = []
    for token, row in zip(tokens, values):
        cells = []
        for v in row:
            spell = spellings[rng.integers(len(spellings))]
            cells.append(spell(float(v)) if callable(spell) else spell.format(v))
        lines.append(" ".join([token, *cells]) + (" " if trailing and rng.random() < 0.5 else ""))
        if blanks and rng.random() < 0.1:
            lines.append(["", " ", "\t", "  \t "][rng.integers(4)])
    text = newline.join([f"{len(tokens)} {dim}", *lines])
    path.write_bytes((text + (newline if final_newline else "")).encode())
    return _vocab(terms + [f"absent{i}" for i in range(5)])


# (case, dim, vocabulary rows, rows outside it, options for _vector_file)
VECTOR_FILES = [
    ("plain", 50, 300, 0, {}),
    ("trailing-spaces", 8, 200, 20, {"trailing": True}),
    ("blank-lines", 8, 200, 20, {"blanks": True}),
    ("crlf", 8, 200, 20, {"newline": "\r\n", "trailing": True, "blanks": True}),
    ("oov-repeated", 8, 100, 300, {"oov_pool": 7}),
    ("dim-1", 1, 300, 30, {"trailing": True, "blanks": True}),
    ("past-one-chunk", 4, 2 * CHUNK_ROWS + 17, 500, {}),
    ("exactly-one-chunk", 3, CHUNK_ROWS, 5, {}),
    ("number-spellings", 6, 300, 10, {"spellings": _SPELLINGS}),
    ("no-final-newline", 3, 10, 2, {"final_newline": False, "trailing": True}),
    ("no-vocabulary-rows", 3, 0, 40, {}),
]


@pytest.mark.parametrize(
    "dim, vocab_rows, oov_rows, options",
    [case[1:] for case in VECTOR_FILES],
    ids=[case[0] for case in VECTOR_FILES],
)
def test_rows_equal_the_per_float_oracle(tmp_path, dim, vocab_rows, oov_rows, options):
    """`unit` and `has_vector` are byte-equal to those of the rows the
    first loader parsed one `float()` at a time."""
    p = tmp_path / "vec.txt"
    vocab = _vector_file(p, 11, dim, vocab_rows, oov_rows, **options)
    table = load_embeddings(p, vocab)
    want = EmbeddingTable(dim, *line_embeddings(p, vocab))
    assert table.has_vector.tobytes() == want.has_vector.tobytes()
    assert table.has_vector.sum() == vocab_rows
    assert table.unit.dtype == want.unit.dtype
    assert table.unit.tobytes() == want.unit.tobytes()


def test_no_parse_call_takes_more_than_one_chunk(tmp_path, monkeypatch):
    calls = []
    parse = embeddings._parse
    monkeypatch.setattr(embeddings, "_parse", lambda rows: calls.append(len(rows)) or parse(rows))
    p = tmp_path / "vec.txt"
    vocab = _vector_file(p, 3, 2, 2 * CHUNK_ROWS + 5, 100)
    load_embeddings(p, vocab)
    assert calls == [CHUNK_ROWS, CHUNK_ROWS, 5]


def _set_line(path, lineno, edit):
    lines = path.read_text().split("\n")
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("\n".join(lines))


def _first_value(text):
    def edit(line):
        token, _, rest = line.split(" ", 2)
        return f"{token} {text} {rest}"
    return edit


# (case, edit of a vocabulary row of a 3-d file, given the token of an
# earlier vocabulary row)
MALFORMED_ROWS = [
    ("short", lambda line, _: line.rsplit(" ", 1)[0]),
    ("long", lambda line, _: line + " 1.5"),
    ("token-only", lambda line, _: line.split(" ")[0]),
    ("two-trailing-spaces", lambda line, _: line + "  "),
    ("empty-value", lambda line, _: _first_value("")(line)),
    ("leading-space", lambda line, _: " " + line),
    ("tab-separated", lambda line, _: line.replace(" ", "\t")),
    ("word", lambda line, _: _first_value("oops")(line)),
    ("hex", lambda line, _: _first_value("0x1p3")(line)),
    ("nan", lambda line, _: _first_value("nan")(line)),
    ("inf", lambda line, _: _first_value("-inf")(line)),
    ("overflow", lambda line, _: _first_value("1e999")(line)),
    ("second-vector", lambda line, earlier: earlier + " " + line.split(" ", 1)[1]),
]


@pytest.mark.parametrize("edit", [case[1] for case in MALFORMED_ROWS],
                         ids=[case[0] for case in MALFORMED_ROWS])
@pytest.mark.parametrize("after", [30, CHUNK_ROWS + 200],
                         ids=["first-chunk", "past-first-chunk"])
def test_fault_is_named_at_the_oracles_line(tmp_path, edit, after):
    """A file with one malformed row fails at the line where the per-float
    oracle fails."""
    p = tmp_path / "vec.txt"
    vocab = _vector_file(p, 5, 3, CHUNK_ROWS + 300, 40)
    lines = p.read_text().split("\n")
    rows = [i for i, line in enumerate(lines, 1) if i > 1 and line.startswith("t")]
    lineno = next(i for i in rows if i > after)
    _set_line(p, lineno, lambda line: edit(line, lines[rows[0] - 1].split(" ")[0]))
    with pytest.raises(ValueError) as oracle:
        line_embeddings(p, vocab)
    with pytest.raises(DataFormatError) as exc:
        load_embeddings(p, vocab)
    # the same line and the same kind of fault, e.g. "bad float"
    def head(info):
        return [word.rstrip(":") for word in str(info.value).split()[:3]]
    assert head(oracle)[0] == f"{p}:{lineno}"
    assert head(exc) == head(oracle)


def test_first_of_two_faults_is_named(tmp_path):
    """A bad value waiting in an unparsed chunk is reported before a row
    with the wrong field count further down."""
    p = tmp_path / "vec.txt"
    vocab = _vector_file(p, 6, 3, 500)
    _set_line(p, 100, _first_value("nan"))
    _set_line(p, 120, _first_value("oops"))
    _set_line(p, 140, lambda line: line + " 1")
    with pytest.raises(DataFormatError, match=r"vec\.txt:100: non-finite"):
        load_embeddings(p, vocab)
    _set_line(p, 100, _first_value("1"))
    with pytest.raises(DataFormatError, match=r"vec\.txt:120: bad float 'oops'"):
        load_embeddings(p, vocab)


@pytest.mark.parametrize("value", ["1_0", "\uff11", "\u0661\u0662", "1_000.5",
                                   "1\x1c", "\x1f1"])
@pytest.mark.parametrize("lineno", [2, CHUNK_ROWS + 50])
def test_value_float_accepts_but_the_c_parser_rejects(tmp_path, value, lineno):
    """Values on which `float()` and numpy's C parser disagree are a bad
    float naming the line and the value: underscores and non-ASCII digits,
    which `float()` reads, and the ASCII separators \\x1c-\\x1f, which the
    C parser strips as whitespace."""
    def reads(parse):
        try:
            parse(value)
        except ValueError:
            return False
        return True

    assert reads(float) != reads(
        lambda text: np.loadtxt([text], delimiter=" ", comments=None))
    p = tmp_path / "vec.txt"
    vocab = _vector_file(p, 8, 3, CHUNK_ROWS + 100)
    _set_line(p, lineno, _first_value(value))
    token = p.read_text().split("\n")[lineno - 1].split(" ")[0]
    with pytest.raises(DataFormatError) as exc:
        load_embeddings(p, vocab)
    assert str(exc.value) == (f"{p}:{lineno}: bad float {value!r} in the vector "
                              f"for {token!r}")


class TestUnitRows:
    def test_unit_norms(self):
        table = EmbeddingTable(
            2, np.array([[3.0, 4.0], [0.0, 0.0]]), np.array([True, False])
        )
        np.testing.assert_allclose(table.unit[0], [0.6, 0.8])
        np.testing.assert_array_equal(table.unit[1], [0.0, 0.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_are_exactly_v_over_norm(self, dtype):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(50, 7)).astype(dtype)
        table = EmbeddingTable(7, vectors, np.ones(50, dtype=bool))
        v = vectors.astype(np.float64)
        assert table.unit.dtype == np.float64
        np.testing.assert_array_equal(
            table.unit, v / np.linalg.norm(v, axis=1)[:, None]
        )

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

