import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primdeg import (
    ParseError,
    PatternMatrix,
    PatternTensor,
    TensorDocument,
    load_document,
    majorization_pattern,
    make_pattern,
    parse_document,
    render_document,
    save_document,
    wielandt_matrix,
    wielandt_tensor,
)
from primdeg.cli import main, random_pattern
from primdeg.dense import DenseTensor, densify, to_pattern
from primdeg.formats import SparseTensor, render_matrix, render_pattern, render_sparse

PATTERN_TEXT = """\
tensor-pattern v1
order 3
dim 3
row 1: {2} {1,3}
row 2: {1}
row 3:
"""

SPARSE_TEXT = """\
tensor-sparse v1
order 3
dim 2
entry 1 2 2 1.5
entry 2 1 1 2.0
"""


def sparse_of(t: DenseTensor) -> SparseTensor:
    """The sparse payload holding the positive cells of a dense tensor."""
    return SparseTensor(
        t.order,
        t.dim,
        tuple(
            (tuple(int(i) + 1 for i in idx), float(t.values[tuple(idx)]))
            for idx in np.argwhere(t.values > 0)
        ),
    )


def dense_of(t: SparseTensor) -> np.ndarray:
    vals = np.zeros((t.dim,) * t.order)
    for idx, value in t.entries:
        vals[tuple(i - 1 for i in idx)] = value
    return vals


def random_sparse_inputs():
    """The seeded dense tensors of the sparse round-trip checks."""
    rng = random.Random(7)
    for _ in range(20):
        dim = rng.randint(1, 3)
        order = rng.randint(2, 3)
        yield densify(random_pattern(rng, order, dim))


MATRIX_TEXT = """\
matrix v1
dim 3
0 1 0
0 0 1
1 1 0
"""


class TestParse:
    def test_pattern_document(self):
        doc = parse_document(PATTERN_TEXT)
        assert doc.kind == "pattern"
        t = doc.payload
        assert isinstance(t, PatternTensor)
        assert t.order == 3 and t.dim == 3
        assert [s.members for s in t.rows[0].sets] == [(2,), (1, 3)]
        assert [s.members for s in t.rows[1].sets] == [(1,)]
        assert len(t.rows[2]) == 0

    def test_sparse_document(self):
        doc = parse_document(SPARSE_TEXT)
        assert doc.kind == "sparse"
        t = doc.payload
        assert isinstance(t, SparseTensor)
        assert (t.order, t.dim) == (3, 2)
        assert t.entries == (((1, 2, 2), 1.5), ((2, 1, 1), 2.0))
        assert sum(v for _, v in t.entries) == 3.5

    def test_matrix_document(self):
        doc = parse_document(MATRIX_TEXT)
        assert doc.kind == "matrix"
        m = doc.payload
        assert isinstance(m, PatternMatrix)
        assert m.to_rows01() == [[0, 1, 0], [0, 0, 1], [1, 1, 0]]

    def test_blank_lines_and_padding_tolerated(self):
        text = "\n  tensor-pattern v1  \n\norder 2\n dim 2 \n\nrow 1: {2}\nrow 2: {1}\n\n"
        doc = parse_document(text)
        assert doc.kind == "pattern"
        assert doc.payload.dim == 2

    def test_as_pattern_tensor_views(self):
        m = parse_document(MATRIX_TEXT).as_pattern_tensor()
        assert m.order == 2
        assert [s.members for s in m.rows[0].sets] == [(2,)]
        s = parse_document(SPARSE_TEXT).as_pattern_tensor()
        assert [x.members for x in s.rows[0].sets] == [(2,)]
        p = parse_document(PATTERN_TEXT)
        assert p.as_pattern_tensor() is p.payload


class TestParseErrors:
    def check(self, text, line_no, fragment):
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert info.value.line_no == line_no
        assert fragment in str(info.value)
        assert str(info.value).startswith(f"line {line_no}:")

    def test_unknown_header(self):
        self.check("tensor-dense v1\n", 1, "header")

    def test_empty_input(self):
        self.check("", 1, "empty document")
        self.check("\n\n", 1, "empty document")

    def test_bad_order_line(self):
        self.check("tensor-pattern v1\nsize 3\n", 2, "order")
        self.check("tensor-pattern v1\norder x\n", 2, "order")
        self.check("tensor-pattern v1\norder 1\ndim 2\n", 2, "order must be >= 2")
        self.check("tensor-sparse v1\norder 0\ndim 2\n", 2, "order must be >= 2, got 0")
        self.check("tensor-sparse v1\norder 1\ndim 2\nentry 1 1.0\n", 2, "order must be >= 2, got 1")

    def test_bad_dim_line(self):
        self.check("tensor-pattern v1\norder 3\ndim 0\n", 3, "dim must be >= 1")
        self.check("matrix v1\ndimension 3\n", 2, "dim")
        self.check("matrix v1\ndim 0\n", 2, "dim must be >= 1")
        self.check("tensor-sparse v1\norder 2\ndim 0\n", 3, "dim must be >= 1")
        self.check("tensor-sparse v1\norder 2\ndim 999\n", 3, "exceeds the cap")
        self.check("tensor-pattern v1\norder 3\ndim 200\n", 3, "exceeds the cap")
        self.check("tensor-pattern v1\norder 3\ndim 200\nrow 1: {2}\n", 3, "exceeds the cap")
        self.check("matrix v1\ndim 200\n", 2, "exceeds the cap")
        self.check("matrix v1\ndim 200\n" + "0 " * 199 + "1\n", 2, "exceeds the cap")

    def test_bad_row_line(self):
        base = "tensor-pattern v1\norder 3\ndim 3\n"
        self.check(base + "row one: {2}\n", 4, "row")
        self.check(base + "row 4: {2}\n", 4, "out of range")
        self.check(base + "row 1: {2} junk\n", 4, "unexpected text")
        self.check(base + "row 1: {}\n", 4, "empty set")
        self.check(base + "row 1: {0}\n", 4, "out of range")
        self.check(base + "row 1: {1,2,4}\n", 4, "out of range")
        self.check(base + "row 1: {1,2,3}\n", 4, "larger than order-1")
        self.check(base + "row 1: {a}\n", 4, "non-integer")
        for bad in ("{1,,2}", "{,1}", "{2,}", "{ , }", "{1, ,2}"):
            self.check(base + f"row 1: {{1}}\nrow 2: {{3}} {bad}\n", 5, "empty member")

    def test_analyze_exits_one_on_an_empty_member(self, tmp_path, capsys):
        path = tmp_path / "doc.txt"
        path.write_text("tensor-pattern v1\norder 3\ndim 2\nrow 1: {1,,2}\nrow 2: {1}\n")
        assert main(["analyze", str(path)]) == 1
        assert "line 4: empty member in {1,,2}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            # members: a sign, an underscore, a leading zero, a non-ASCII digit
            ("row 1: {+2}\n", 4, "non-integer member in {+2}"),
            ("row 1: {0_2}\n", 4, "non-integer member in {0_2}"),
            ("row 1: {02}\n", 4, "non-integer member in {02}"),
            ("row 1: {1,-2}\n", 4, "non-integer member in {1,-2}"),
            ("row 1: {\u0662}\n", 4, "non-integer member"),
            ("row 1: {\uff12}\n", 4, "non-integer member"),
            # row numbers
            ("row \u0661: {2}\n", 4, "expected 'row U: ...'"),
            ("row +1: {2}\n", 4, "expected 'row U: ...'"),
            ("row 01: {2}\n", 4, "expected 'row U: ...'"),
            ("row 1_0: {2}\n", 4, "expected 'row U: ...'"),
        ],
    )
    def test_integers_are_plain_ascii_digits(self, text, line, fragment):
        self.check("tensor-pattern v1\norder 3\ndim 3\n" + text, line, fragment)

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("tensor-pattern v1\norder +3\ndim 3\n", 2, "expected 'order N'"),
            ("tensor-pattern v1\norder 03\ndim 3\n", 2, "expected 'order N'"),
            ("tensor-sparse v1\norder 3\ndim 0_3\n", 3, "expected 'dim N'"),
            ("tensor-pattern v1\norder 3\ndim \u0663\n", 3, "expected 'dim N'"),
            ("matrix v1\ndim 02\n0 1\n1 0\n", 2, "expected 'dim N'"),
            # a bare 0 still reads, so it gets its range message
            ("tensor-pattern v1\norder 0\ndim 3\n", 2, "order must be >= 2, got 0"),
            ("matrix v1\ndim 0\n", 2, "dim must be >= 1, got 0"),
        ],
    )
    def test_header_counts_are_plain_ascii_digits(self, text, line, fragment):
        self.check(text, line, fragment)

    @pytest.mark.parametrize(
        "entry",
        [
            "entry 1 +2 1_0",
            "entry 1 2 1_0",
            "entry 1 02 1.0",
            "entry 1 2_0 1.0",
            "entry \u0661 2 1.0",
            "entry 1 2 \u0661",
            "entry 1 2 1.\u0665",
            "entry 1 2 \uff11",
        ],
    )
    def test_sparse_fields_are_plain_ascii(self, entry):
        self.check("tensor-sparse v1\norder 2\ndim 2\nentry 1 1 2.0\n" + entry + "\n", 5, "malformed entry")

    def test_plain_numbers_still_read(self):
        doc = parse_document("tensor-sparse v1\norder 2\ndim 10\nentry 1 10 +2\nentry 10 1 1e-3\nentry 2 2 0\n")
        assert doc.payload.entries == (((1, 10), 2.0), ((10, 1), 0.001))
        t = parse_document("tensor-pattern v1\norder 3\ndim 10\nrow 10: {10} {1,9}\n").payload
        assert t.rows[9].masks == (0b100000001, 1 << 9)

    def test_duplicate_row(self):
        base = "tensor-pattern v1\norder 3\ndim 2\n"
        self.check(base + "row 1: {2}\nrow 1: {1}\n", 5, "twice")

    def test_bad_sparse_entry(self):
        base = "tensor-sparse v1\norder 3\ndim 2\n"
        self.check(base + "entry 1 2 1.5\n", 4, "3 indices")
        self.check(base + "entry 1 2 3 1.5\n", 4, "out of range")
        self.check(base + "entry 1 2 2 -1.5\n", 4, "nonnegative")
        self.check(base + "entry 1 2 2 abc\n", 4, "malformed entry")
        base2 = "tensor-sparse v1\norder 2\ndim 2\n"
        self.check(base2 + "entry 1 2 nan\n", 4, "must be finite")
        self.check(base2 + "entry 2 1 inf\n", 4, "must be finite")
        self.check(base2 + "entry 1 1 1.0\nentry 1 1 0\n", 5, "cell 1 1 given twice")

    def test_bad_matrix_cell(self):
        base = "matrix v1\ndim 2\n"
        self.check(base + "0 2\n1 0\n", 3, "0/1")
        self.check(base + "0 1 1\n1 0\n", 3, "0/1")
        self.check(base + "0 1\n", 3, "expected 2 matrix rows")

    def test_trailing_garbage(self):
        self.check(MATRIX_TEXT + "extra\n", 6, "matrix rows")


class TestRender:
    def test_pattern_canonical_form(self):
        t = wielandt_tensor(3, 3)
        text = render_pattern(t)
        assert text == (
            "tensor-pattern v1\n"
            "order 3\n"
            "dim 3\n"
            "row 1: {2} {3}\n"
            "row 2: {1}\n"
            "row 3: {2}\n"
        )

    def test_empty_row_rendered_bare(self):
        t = parse_document(PATTERN_TEXT).payload
        assert "row 3:\n" in render_pattern(t)

    def test_matrix_rendering(self):
        assert render_matrix(wielandt_matrix(3)) == (
            "matrix v1\ndim 3\n0 1 1\n1 0 0\n0 1 0\n"
        )

    def test_sparse_values_round_trip_exactly(self):
        text = render_sparse(SparseTensor(2, 2, (((1, 2), 0.1), ((2, 1), 3.0))))
        assert text == "tensor-sparse v1\norder 2\ndim 2\nentry 1 2 0.1\nentry 2 1 3.0\n"
        t = parse_document(text).payload
        assert dict(t.entries) == {(1, 2): 0.1, (2, 1): 3.0}

    def test_render_document_dispatches(self):
        for text in (PATTERN_TEXT, SPARSE_TEXT, MATRIX_TEXT):
            doc = parse_document(text)
            assert parse_document(render_document(doc)) == doc


class TestRoundTrips:
    def test_parse_render_parse_is_identity(self):
        for text in (PATTERN_TEXT, SPARSE_TEXT, MATRIX_TEXT):
            doc = parse_document(text)
            rendered = render_document(doc)
            assert render_document(parse_document(rendered)) == rendered

    def test_random_patterns_round_trip(self):
        rng = random.Random(20260819)
        for _ in range(40):
            order = rng.randint(2, 5)
            dim = rng.randint(1, 6)
            t = random_pattern(rng, order, dim)
            doc = TensorDocument("pattern", t)
            assert parse_document(render_document(doc)).payload == t

    def test_random_sparse_round_trip(self):
        for t in random_sparse_inputs():
            doc = TensorDocument("sparse", sparse_of(t))
            back = parse_document(render_document(doc)).payload
            assert back == doc.payload
            assert np.array_equal(dense_of(back), t.values)

    def test_random_sparse_pattern_matches_dense_oracle(self):
        for t in random_sparse_inputs():
            text = render_sparse(sparse_of(t))
            assert parse_document(text).as_pattern_tensor() == to_pattern(t)

    def test_shuffled_sparse_cells_render_like_dense_route(self):
        # every cell listed, zeros included, in random order; the canonical
        # rendering is the positive cells in the dense array's C order
        rng = random.Random(11)
        for _ in range(30):
            order, dim = rng.randint(2, 4), rng.randint(1, 3)
            vals = np.array([rng.choice([0.0, 0.0, 0.1, 1.5, 2.0, 1e-300]) for _ in range(dim**order)])
            t = DenseTensor(order, dim, vals.reshape((dim,) * order))
            cells = [tuple(int(i) + 1 for i in idx) for idx in np.ndindex(t.values.shape)]
            rng.shuffle(cells)
            text = f"tensor-sparse v1\norder {order}\ndim {dim}\n" + "".join(
                f"entry {' '.join(map(str, c))} {t.value_at(c)!r}\n" for c in cells
            )
            doc = parse_document(text)
            assert render_document(doc) == render_sparse(sparse_of(t))
            assert doc.as_pattern_tensor() == to_pattern(t)

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "t.txt"
        doc = parse_document(PATTERN_TEXT)
        save_document(path, doc)
        assert load_document(path) == doc
        assert path.read_text() == render_document(doc)


@st.composite
def written_patterns(draw):
    """A pattern document as a person might write it: sets unsorted, members
    repeated or out of order, supersets and duplicates of other sets, rows in
    any order or left out; with the cells ``make_pattern`` takes for it."""
    order, dim = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    entries, lines = [], []
    for u in draw(st.permutations(range(1, dim + 1))):
        if draw(st.integers(0, 4)) == 0:
            continue  # a row left out is empty
        groups = []
        for _ in range(draw(st.integers(0, 4))):
            members = draw(st.lists(st.integers(1, dim), min_size=1, max_size=order - 1))
            members += draw(st.lists(st.sampled_from(members), max_size=2))  # repeats
            distinct = sorted(set(members))
            entries.append((u, distinct + distinct[-1:] * (order - 1 - len(distinct))))
            groups.append("{" + " , ".join(map(str, members)) + "}")
        lines.append(f"row {u}:  " + "  ".join(groups))
    text = f"tensor-pattern v1\norder {order}\ndim {dim}\n" + "\n".join(lines) + "\n"
    return text, make_pattern(order, dim, entries)


@st.composite
def rendered_documents(draw):
    """The canonical rendering of a small seeded document of each format."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    order, dim = draw(st.integers(2, 4)), draw(st.integers(1, 8))
    t = random_pattern(rng, order, dim)
    kind = draw(st.sampled_from(["pattern", "sparse", "matrix"]))
    if kind == "pattern":
        return render_pattern(t)
    if kind == "matrix":
        return render_matrix(majorization_pattern(t))
    cells = {
        (u, *s.members, *s.members[-1:] * (order - 1 - len(s))): rng.choice([0.5, 2.0, 1e-300, 3.25])
        for u, fam in enumerate(t.rows, start=1)
        for s in fam.sets
    }
    return render_sparse(SparseTensor(order, dim, tuple(sorted(cells.items()))))


DAMAGE = [*"0123456789{},:- .\nerowdimntyx", "{}", "{1,2,3,4}", ",1", "nan", "-1"]


@st.composite
def damaged_documents(draw):
    """A rendering cut short, or with 1-3 characters, tokens, lines or set
    members inserted, replaced, deleted or repeated after the header line,
    mostly in the body. A seeded rng places the damage, so it falls evenly."""
    text = draw(rendered_documents())
    rng = random.Random(draw(st.integers(0, 2**32)))
    head = text.index("\n") + 1
    start = head if rng.random() < 0.2 else text.index("\n", text.index("dim ")) + 1
    if rng.random() < 0.3:
        return text, text[: rng.randrange(start, len(text))]
    damaged = text
    for _ in range(rng.randint(1, 3)):
        i, c = rng.randint(start, len(damaged)), rng.choice(DAMAGE)
        op = rng.choice(["insert", "replace", "delete", "line", "member", "member"])
        closes = [k for k in range(start, len(damaged)) if damaged[k] == "}"]
        if op == "member" and closes:
            # one more member, maybe out of range or empty, or an empty set after it
            k = rng.choice(closes)
            extra = rng.choice([f",{rng.randint(0, 9)}", f",{rng.randint(1, 4)}", ",", "} {"])
            damaged = damaged[:k] + extra + damaged[k:]
        elif op == "insert":
            damaged = damaged[:i] + c + damaged[i:]
        elif op == "replace":
            damaged = damaged[:i] + c + damaged[i + 1 :]
        elif op == "delete":
            damaged = damaged[:i] + damaged[i + 1 :]
        else:
            lines = damaged.splitlines(keepends=True)
            j = rng.randrange(1, len(lines))
            damaged = "".join(lines[: j + 1] + lines[j:])
    return text, damaged


class TestFuzz:
    @given(written_patterns())
    def test_written_patterns_parse_to_make_pattern(self, written):
        text, expected = written
        assert parse_document(text).payload == expected

    @settings(max_examples=500)
    @given(damaged_documents())
    def test_damage_parses_or_raises_parse_error(self, damage):
        # a damaged document either still reads as a document, which then
        # renders and reads back to itself, or fails with a ParseError that
        # names one of its lines; nothing else escapes the parser
        text, damaged = damage
        try:
            doc = parse_document(damaged)
        except ParseError as e:
            assert 1 <= e.line_no <= max(1, len(damaged.splitlines()))
            return
        assert parse_document(render_document(doc)) == doc
        if damaged.strip() == text.strip():
            assert doc == parse_document(text)

    @given(damaged_documents())
    def test_analyze_exits_one_on_parse_errors(self, tmp_path_factory, damage):
        _, damaged = damage
        try:
            parse_document(damaged)
            expected = 0
        except ParseError:
            expected = 1
        path = tmp_path_factory.mktemp("fuzz") / "doc.txt"
        path.write_text(damaged)
        assert main(["analyze", str(path)]) == expected
