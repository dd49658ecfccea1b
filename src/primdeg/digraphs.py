"""Zero-one matrices, their digraphs, and exact-length reachability.

A :class:`PatternMatrix` records which entries of a nonnegative matrix are
positive and is also the digraph D(M): row i holds the out-neighbors of vertex
i. The reversed digraph rev(D(M)), with an arc j -> i for each positive entry
(i, j), is the transposed matrix.

This layer sits above the engine in ``patterns``. A matrix enters it as its
order-2 monomial lift: ``analyze`` gives its exponent, and the one-column
orbit (``patterns._orbit``) its walk frontiers. A tensor's majorization
pattern is read back as a matrix.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence

from .bitsets import IndexSet, Record, SupportFamily, _check_dim, _set, transpose_masks
from .patterns import PatternTensor, _orbit, analyze


class PatternMatrix(Record):
    """Positivity pattern of a square nonnegative matrix; row i is an IndexSet.

    Read as a digraph on 1..dim, row i is the out-neighbor set of vertex i.
    """

    def __init__(self, dim: int, rows: tuple[IndexSet, ...]) -> None:
        _check_dim(dim)
        if len(rows) != dim:
            raise ValueError(f"expected {dim} rows, got {len(rows)}")
        for r in rows:
            if r.dim != dim:
                raise ValueError(f"row dimension {r.dim} does not match {dim}")
        _set(self, "dim", dim)
        _set(self, "rows", rows)

    @classmethod
    def from_entries(cls, dim: int, entries: Iterable[tuple[int, int]]) -> "PatternMatrix":
        """Build from positive positions given as 1-based (row, column) pairs."""
        masks = [0] * dim
        for i, j in entries:
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError(f"entry ({i},{j}) out of range 1..{dim}")
            masks[i - 1] |= 1 << (j - 1)
        return cls(dim, tuple(IndexSet(m, dim) for m in masks))

    @classmethod
    def from_rows01(cls, rows: Sequence[Sequence[int]]) -> "PatternMatrix":
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("matrix rows must be square")
        return cls.from_entries(dim, ((i, j) for i, r in enumerate(rows, 1) for j, v in enumerate(r, 1) if v))

    def to_rows01(self) -> list[list[int]]:
        return [[1 if j in r else 0 for j in range(1, self.dim + 1)] for r in self.rows]

    def reversed_digraph(self) -> "PatternMatrix":
        """The transpose: an arc j -> i for every positive entry (i, j).

        Row j is column j of this matrix. Involutive.
        """
        cols = transpose_masks([r.mask for r in self.rows])
        return PatternMatrix(self.dim, tuple(IndexSet(m, self.dim) for m in cols))


def monomial_lift(matrix: PatternMatrix, order: int) -> PatternTensor:
    """Order-m tensor positive exactly on cells (u, v, v, ..., v) with (u, v)
    positive in the matrix: row u holds the singleton {v} for each such v.

    For order 2 this is the matrix itself. Its trace states, degrees, and
    primitivity verdict coincide with the matrix's for every order >= 2.
    """
    rows = tuple(SupportFamily.of_singletons(matrix.dim, r.mask) for r in matrix.rows)
    return PatternTensor(order, matrix.dim, rows)


def majorization_pattern(tensor: PatternTensor) -> PatternMatrix:
    """The matrix pattern with (u, j) positive iff cell (u, j, j, ..., j) is.

    Only singleton supports contribute; singletons always survive antichain
    minimization, so this is well defined on the stored representation.
    """
    rows = tuple(IndexSet(fam.singles, tensor.dim) for fam in tensor.rows)
    return PatternMatrix(tensor.dim, rows)


def exact_length_frontier(d: PatternMatrix, start: int, length: int) -> IndexSet:
    """Vertices reachable from ``start`` by walks of length exactly ``length``
    in the digraph ``d``.

    A walk can step to u exactly from an in-neighbor of u, so the frontier is
    the trace state S_length of column ``start`` in the order-2 view of
    d.reversed_digraph(), whose row u holds the in-neighbors of u. Length 0
    returns {start} itself.
    """
    if not 1 <= start <= d.dim:
        raise ValueError(f"vertex {start} out of range 1..{d.dim}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if length == 0:
        return IndexSet.singleton(start, d.dim)
    orbit = _orbit(monomial_lift(d.reversed_digraph(), 2), start)
    return IndexSet(next(islice(orbit, length - 1, None)), d.dim)


def matrix_gamma(matrix: PatternMatrix) -> int | None:
    """Primitive exponent of a zero-one matrix, or None when it is not primitive.

    This is the least k with every entry of the k-th boolean power positive.
    It is ``analyze`` of the order-2 tensor view of the matrix, which squares
    or runs it, so matrices and monomial tensors share one code path.
    """
    return analyze(monomial_lift(matrix, 2)).gamma


def wielandt_matrix(dim: int) -> PatternMatrix:
    """The classical extremal zero-one matrix with exponent (dim-1)^2 + 1.

    Positive entries: (1, dim-1), (1, dim), and the subdiagonal (i+1, i) for
    i = 1..dim-1. Its reversed digraph is the path 1 -> 2 -> ... -> dim plus the
    return arcs dim-1 -> 1 and dim -> 1, i.e. a shared (dim-1)-cycle and
    dim-cycle with coprime lengths.
    """
    if dim < 3:
        raise ValueError(f"dim must be >= 3, got {dim}")
    entries = [(1, dim - 1), (1, dim)] + [(i + 1, i) for i in range(1, dim)]
    return PatternMatrix.from_entries(dim, entries)


def frobenius_representable(a: int, b: int, target: int) -> bool:
    """Whether target = a*x + b*y has a solution in nonnegative integers x, y."""
    if a < 1 or b < 1:
        raise ValueError("a and b must be >= 1")
    if target < 0:
        raise ValueError(f"target must be >= 0, got {target}")
    if a > b:
        a, b = b, a
    return any((target - a * x) % b == 0 for x in range(target // a + 1))
