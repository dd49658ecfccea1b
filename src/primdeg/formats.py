"""Plain-text tensor documents: parsing, canonical rendering, round-trips.

Three formats, all 1-based, one header line each:

    tensor-pattern v1          tensor-sparse v1         matrix v1
    order 5                    order 3                  dim 5
    dim 5                      dim 3                    0 0 0 1 1
    row 1: {2} {4,5}           entry 1 2 3 1.5          1 0 0 0 0
    row 2: {1}                 entry 2 1 1 2.0          ...
    ...                        ...

Rendering is canonical (rows in order, sets sorted by mask, members ascending,
floats in shortest round-trip form), so write-then-read is the identity and
documents diff cleanly. Parsing is forgiving about blank lines and extra
whitespace but rejects anything else with the offending line number. A sparse
document keeps only its positive cells; a NaN or infinite value, or a cell
given twice, is an error rather than a silent rewrite.
"""

from __future__ import annotations

import math
import re
from functools import reduce
from operator import or_

from .bitsets import Record, SupportFamily, _braces, _check_dim, _set
from .digraphs import PatternMatrix, monomial_lift
from .errors import CapExceededError, ParseError
from .patterns import PatternTensor, make_pattern

PATTERN_HEADER = "tensor-pattern v1"
SPARSE_HEADER = "tensor-sparse v1"
MATRIX_HEADER = "matrix v1"

_SET_RE = re.compile(r"\{([^{}]*)\}")
# An index or a count: ASCII digits with no sign, underscore or leading zero.
_INT_RE = re.compile(r"0|[1-9][0-9]*")
_ROW_RE = re.compile(rf"row\s+({_INT_RE.pattern}):(.*)")
# A body of row lines, each ended by "\n", that _ROW_RE and the checks after it
# accept if its row numbers, members and set sizes are in range: every group
# ASCII digits and commas, with no empty member. Whitespace is [^\S\n], so no
# match runs over a line's end.
_WELL_FORMED_BODY_RE = re.compile(r"(?:row[^\S\n]+[1-9][0-9]*:(?:[^\S\n]*\{[0-9]+(?:,[0-9]+)*\})*\n)*")
# In a well-formed body: a row number, or the members of one group.
_ROW_OR_GROUP_RE = re.compile(r"row[^\S\n]+([0-9]+):|\{([0-9,]+)\}")


class SparseTensor(Record):
    """The content of a sparse document: its positive cells, each a pair of a
    1-based index tuple and a finite value, in lexicographic index order."""

    def __init__(self, order: int, dim: int, entries: tuple[tuple[tuple[int, ...], float], ...]) -> None:
        _set(self, "order", order)
        _set(self, "dim", dim)
        _set(self, "entries", entries)


class TensorDocument(Record):
    """One parsed document: kind is 'pattern', 'sparse', or 'matrix'."""

    def __init__(self, kind: str, payload: PatternTensor | SparseTensor | PatternMatrix) -> None:
        _set(self, "kind", kind)
        _set(self, "payload", payload)

    def as_pattern_tensor(self) -> PatternTensor:
        """The pattern-analysis view of any document kind.

        A matrix becomes its order-2 tensor view; a sparse numeric tensor is
        collapsed to its zero pattern.
        """
        t = self.payload
        if isinstance(t, PatternTensor):
            return t
        if isinstance(t, PatternMatrix):
            return monomial_lift(t, 2)
        return make_pattern(t.order, t.dim, ((idx[0], idx[1:]) for idx, _ in t.entries))


def _lines_of(text: str) -> list[tuple[int, str]]:
    return [(no, line) for no, line in enumerate(map(str.strip, text.splitlines()), start=1) if line]


def _keyed_int(lines: list[tuple[int, str]], pos: int, key: str) -> int:
    if pos >= len(lines):
        raise ParseError(lines[-1][0] if lines else 1, f"missing '{key} N' line")
    no, line = lines[pos]
    parts = line.split()
    if len(parts) != 2 or parts[0] != key or not _INT_RE.fullmatch(parts[1]):
        raise ParseError(no, f"expected '{key} N', got {line!r}")
    return int(parts[1])


def _keyed_order(lines: list[tuple[int, str]]) -> int:
    """The ``order N`` line, which follows a tensor header."""
    order = _keyed_int(lines, 1, "order")
    if order < 2:
        raise ParseError(lines[1][0], f"order must be >= 2, got {order}")
    return order


def _keyed_dim(lines: list[tuple[int, str]], pos: int) -> int:
    """The ``dim N`` line at ``pos``, checked against 1 and the dimension cap."""
    dim = _keyed_int(lines, pos, "dim")
    no = lines[pos][0]
    if dim < 1:
        raise ParseError(no, f"dim must be >= 1, got {dim}")
    try:
        _check_dim(dim)
    except CapExceededError as e:
        raise ParseError(no, str(e)) from None
    return dim


def _parse_pattern(lines: list[tuple[int, str]]) -> PatternTensor:
    order = _keyed_order(lines)
    dim = _keyed_dim(lines, 2)
    rows = _read_rows(lines, order, dim)
    if rows is None:  # check each line in full: the first to fail names its line
        rows = {}
        for no, line in lines[3:]:
            _parse_row(no, line, order, dim, rows)
    families = (SupportFamily.from_masks(dim, rows.get(u, ())) for u in range(1, dim + 1))
    return PatternTensor(order, dim, tuple(families))


def _read_rows(lines: list[tuple[int, str]], order: int, dim: int) -> dict[int, list[int]] | None:
    """Row number -> its masks, read in one pass over the row lines, or None
    if the pass cannot accept them, which a line the full check accepts may
    also cause."""
    body = "".join([line + "\n" for _, line in lines[3:]])
    if not _WELL_FORMED_BODY_RE.fullmatch(body):
        return None
    bit = {str(i): 1 << (i - 1) for i in range(1, dim + 1)}  # a member's text -> its bit
    rows: dict[int, list[int]] = {}
    masks: list[int] = []
    try:
        for u, group in _ROW_OR_GROUP_RE.findall(body):
            if u:
                row = int(u)
                if row > dim or row in rows:
                    return None
                masks = rows[row] = []
            elif "," not in group:
                masks.append(bit[group])
            else:
                mask = reduce(or_, map(bit.__getitem__, group.split(",")))
                if mask.bit_count() >= order:
                    return None
                masks.append(mask)
    except KeyError:  # a member out of range or with a leading zero
        return None
    return rows


def _parse_row(no: int, line: str, order: int, dim: int, row_masks: dict[int, list[int]]) -> None:
    """Check the row line ``no`` in full and add its masks to ``row_masks``,
    or raise the ParseError of the first check it fails."""
    m = _ROW_RE.fullmatch(line)
    if not m:
        raise ParseError(no, f"expected 'row U: ...', got {line!r}")
    u = int(m.group(1))
    if not 1 <= u <= dim:
        raise ParseError(no, f"row {u} out of range 1..{dim}")
    if u in row_masks:
        raise ParseError(no, f"row {u} given twice")
    rest = m.group(2).strip()
    if rest and _SET_RE.sub("", rest).strip():
        raise ParseError(no, f"unexpected text outside {{...}} groups: {rest!r}")
    masks = row_masks[u] = []
    for group in _SET_RE.findall(rest):
        if not group.strip():
            raise ParseError(no, "empty set {} is not a valid support")
        parts = [p.strip() for p in group.split(",")]
        if not all(parts):
            raise ParseError(no, f"empty member in {{{group}}}")
        if not all(map(_INT_RE.fullmatch, parts)):
            raise ParseError(no, f"non-integer member in {{{group}}}")
        members = [int(p) for p in parts]
        mask = 0
        for i in members:
            if not 1 <= i <= dim:
                raise ParseError(no, f"index {i} out of range 1..{dim}")
            mask |= 1 << (i - 1)
        if mask.bit_count() > order - 1:
            raise ParseError(no, f"set {{{group}}} larger than order-1 = {order - 1}")
        masks.append(mask)


def _parse_sparse(lines: list[tuple[int, str]]) -> SparseTensor:
    order = _keyed_order(lines)
    dim = _keyed_dim(lines, 2)
    values: dict[tuple[int, ...], float] = {}
    for no, line in lines[3:]:
        parts = line.split()
        if parts[0] != "entry":
            raise ParseError(no, f"expected 'entry i1 ... i{order} VALUE', got {line!r}")
        if len(parts) != order + 2:
            raise ParseError(no, f"expected {order} indices and a value, got {len(parts) - 1} fields")
        try:
            if not all(map(_INT_RE.fullmatch, parts[1:-1])) or "_" in parts[-1] or not parts[-1].isascii():
                raise ValueError
            idx = tuple(int(p) for p in parts[1:-1])
            value = float(parts[-1])
        except ValueError:
            raise ParseError(no, f"malformed entry line: {line!r}") from None
        for i in idx:
            if not 1 <= i <= dim:
                raise ParseError(no, f"index {i} out of range 1..{dim}")
        if not math.isfinite(value):
            raise ParseError(no, f"value must be finite, got {parts[-1]!r}")
        if value < 0:
            raise ParseError(no, f"value must be nonnegative, got {value}")
        if idx in values:
            raise ParseError(no, f"cell {' '.join(map(str, idx))} given twice")
        values[idx] = value
    return SparseTensor(order, dim, tuple((idx, v) for idx, v in sorted(values.items()) if v > 0))


def _parse_matrix(lines: list[tuple[int, str]]) -> PatternMatrix:
    dim = _keyed_dim(lines, 1)
    body = lines[2:]
    if len(body) != dim:
        no = body[-1][0] if body else lines[1][0]
        raise ParseError(no, f"expected {dim} matrix rows, got {len(body)}")
    rows = []
    for no, line in body:
        parts = line.split()
        if len(parts) != dim or any(p not in ("0", "1") for p in parts):
            raise ParseError(no, f"expected {dim} space-separated 0/1 values, got {line!r}")
        rows.append([int(p) for p in parts])
    return PatternMatrix.from_rows01(rows)


def parse_document(text: str) -> TensorDocument:
    lines = _lines_of(text)
    if not lines:
        raise ParseError(1, "empty document")
    no, header = lines[0]
    if header == PATTERN_HEADER:
        return TensorDocument("pattern", _parse_pattern(lines))
    if header == SPARSE_HEADER:
        return TensorDocument("sparse", _parse_sparse(lines))
    if header == MATRIX_HEADER:
        return TensorDocument("matrix", _parse_matrix(lines))
    raise ParseError(
        no,
        f"unknown header {header!r}; expected one of "
        f"{PATTERN_HEADER!r}, {SPARSE_HEADER!r}, {MATRIX_HEADER!r}",
    )


def _decode(data: bytes) -> str:
    try:  # a byte that is not UTF-8 is a ParseError at its line, as _lines_of counts lines
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = len((data[: e.start].decode() + ".").splitlines())
        raise ParseError(line, f"not UTF-8: byte {data[e.start]:#04x}") from None


def load_document(path: str) -> TensorDocument:
    with open(path, "rb") as fh:
        return parse_document(_decode(fh.read()))


def render_pattern(tensor: PatternTensor) -> str:
    lines = [PATTERN_HEADER, f"order {tensor.order}", f"dim {tensor.dim}"]
    for u, fam in enumerate(tensor.rows, start=1):
        lines.append(f"row {u}: {' '.join(map(_braces, fam.masks))}".rstrip())
    return "\n".join(lines) + "\n"


def render_sparse(tensor: SparseTensor) -> str:
    lines = [SPARSE_HEADER, f"order {tensor.order}", f"dim {tensor.dim}"]
    for idx, value in tensor.entries:
        lines.append(f"entry {' '.join(map(str, idx))} {value!r}")
    return "\n".join(lines) + "\n"


def render_matrix(matrix: PatternMatrix) -> str:
    lines = [MATRIX_HEADER, f"dim {matrix.dim}"]
    for row in matrix.to_rows01():
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def render_document(doc: TensorDocument | PatternTensor | SparseTensor | PatternMatrix) -> str:
    payload = doc.payload if isinstance(doc, TensorDocument) else doc
    if isinstance(payload, PatternTensor):
        return render_pattern(payload)
    if isinstance(payload, SparseTensor):
        return render_sparse(payload)
    if isinstance(payload, PatternMatrix):
        return render_matrix(payload)
    raise TypeError(f"cannot render {type(payload).__name__}")


def save_document(path: str, doc: TensorDocument | PatternTensor | SparseTensor | PatternMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_document(doc))
