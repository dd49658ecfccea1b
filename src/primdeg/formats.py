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
from dataclasses import dataclass

from .bitsets import IndexSet, SupportFamily, _check_dim
from .digraphs import PatternMatrix, monomial_lift
from .errors import CapExceededError, ParseError
from .patterns import PatternTensor, make_pattern

PATTERN_HEADER = "tensor-pattern v1"
SPARSE_HEADER = "tensor-sparse v1"
MATRIX_HEADER = "matrix v1"

_SET_RE = re.compile(r"\{([^{}]*)\}")
# An index or a count: ASCII digits with no sign, underscore or leading zero.
_INT_RE = re.compile(r"0|[1-9][0-9]*")


@dataclass(frozen=True)
class SparseTensor:
    """The content of a sparse document: its positive cells, each a pair of a
    1-based index tuple and a finite value, in lexicographic index order."""

    order: int
    dim: int
    entries: tuple[tuple[tuple[int, ...], float], ...]


@dataclass(frozen=True)
class TensorDocument:
    """One parsed document: kind is 'pattern', 'sparse', or 'matrix'."""

    kind: str
    payload: PatternTensor | SparseTensor | PatternMatrix

    def as_pattern_tensor(self) -> PatternTensor:
        """The pattern-analysis view of any document kind.

        A matrix becomes its order-2 tensor view; a sparse numeric tensor is
        collapsed to its zero pattern.
        """
        if self.kind == "pattern":
            assert isinstance(self.payload, PatternTensor)
            return self.payload
        if self.kind == "matrix":
            assert isinstance(self.payload, PatternMatrix)
            return monomial_lift(self.payload, 2)
        assert isinstance(self.payload, SparseTensor)
        t = self.payload
        return make_pattern(t.order, t.dim, ((idx[0], idx[1:]) for idx, _ in t.entries))


def _lines_of(text: str) -> list[tuple[int, str]]:
    return [
        (no, line.strip())
        for no, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]


def _keyed_int(lines: list[tuple[int, str]], pos: int, key: str) -> int:
    if pos >= len(lines):
        raise ParseError(lines[-1][0] if lines else 1, f"missing '{key} N' line")
    no, line = lines[pos]
    m = re.fullmatch(rf"{key}\s+({_INT_RE.pattern})", line)
    if not m:
        raise ParseError(no, f"expected '{key} N', got {line!r}")
    return int(m.group(1))


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
    row_masks: dict[int, list[int]] = {}
    for no, line in lines[3:]:
        m = re.fullmatch(rf"row\s+({_INT_RE.pattern}):(.*)", line)
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
    rows = (SupportFamily.from_masks(dim, row_masks.get(u, ())) for u in range(1, dim + 1))
    return PatternTensor(order, dim, tuple(rows))


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


def load_document(path: str) -> TensorDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def _render_set(s: IndexSet) -> str:
    return "{" + ",".join(str(i) for i in s.members) + "}"


def render_pattern(tensor: PatternTensor) -> str:
    lines = [PATTERN_HEADER, f"order {tensor.order}", f"dim {tensor.dim}"]
    for u in range(1, tensor.dim + 1):
        sets = " ".join(_render_set(s) for s in tensor.rows[u - 1].sets)
        lines.append(f"row {u}: {sets}".rstrip())
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
