"""Zero-one matrices, their digraphs, and exact-length reachability.

A :class:`PatternMatrix` records only which entries of a nonnegative matrix are
positive. Two digraph views matter: D(M) has an arc i -> j when entry (i, j) is
positive, and the reversed digraph rev(D(M)) has an arc j -> i for the same
entry. Walk counting in the reversed digraph is what drives the column-trace
machinery for tensors, so the matrix-level operations here double as an
independent cross-check route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bitsets import IndexSet, _check_dim


@dataclass(frozen=True)
class PatternMatrix:
    """Positivity pattern of a square nonnegative matrix; row i is an IndexSet."""

    dim: int
    rows: tuple[IndexSet, ...]

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if len(self.rows) != self.dim:
            raise ValueError(f"expected {self.dim} rows, got {len(self.rows)}")
        for r in self.rows:
            if r.dim != self.dim:
                raise ValueError(f"row dimension {r.dim} does not match {self.dim}")

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
        _check_dim(dim)
        out = []
        for r in rows:
            if len(r) != dim:
                raise ValueError("matrix rows must be square")
            out.append(IndexSet.from_members((j + 1 for j, v in enumerate(r) if v), dim))
        return cls(dim, tuple(out))

    def to_rows01(self) -> list[list[int]]:
        return [[1 if j in r else 0 for j in range(1, self.dim + 1)] for r in self.rows]

    def entry(self, i: int, j: int) -> bool:
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise ValueError(f"position ({i},{j}) out of range 1..{self.dim}")
        return j in self.rows[i - 1]

    def column(self, j: int) -> IndexSet:
        if not 1 <= j <= self.dim:
            raise ValueError(f"column {j} out of range 1..{self.dim}")
        bit = 1 << (j - 1)
        mask = 0
        for i, r in enumerate(self.rows):
            if r.mask & bit:
                mask |= 1 << i
        return IndexSet(mask, self.dim)

    def columns(self) -> tuple[IndexSet, ...]:
        return tuple(self.column(j) for j in range(1, self.dim + 1))

    def digraph(self) -> "Digraph":
        """Digraph with an arc i -> j for every positive entry (i, j)."""
        return Digraph(self.dim, self.rows)

    def reversed_digraph(self) -> "Digraph":
        """Digraph with an arc j -> i for every positive entry (i, j)."""
        return Digraph(self.dim, self.columns())


@dataclass(frozen=True)
class Digraph:
    """A digraph on vertices 1..dim given by out-neighbor sets."""

    dim: int
    out_neighbors: tuple[IndexSet, ...]

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if len(self.out_neighbors) != self.dim:
            raise ValueError(f"expected {self.dim} out-neighbor sets, got {len(self.out_neighbors)}")
        for s in self.out_neighbors:
            if s.dim != self.dim:
                raise ValueError(f"out-neighbor set dimension {s.dim} does not match {self.dim}")

    def has_arc(self, u: int, v: int) -> bool:
        if not 1 <= u <= self.dim:
            raise ValueError(f"vertex {u} out of range 1..{self.dim}")
        return v in self.out_neighbors[u - 1]


def reverse(d: Digraph) -> Digraph:
    """Flip every arc. Involutive: reverse(reverse(d)) == d."""
    masks = [0] * d.dim
    for u in range(d.dim):
        m = d.out_neighbors[u].mask
        while m:
            low = m & -m
            masks[low.bit_length() - 1] |= 1 << u
            m ^= low
    return Digraph(d.dim, tuple(IndexSet(m, d.dim) for m in masks))


def exact_length_frontier(d: Digraph, start: int, length: int) -> IndexSet:
    """Vertices reachable from ``start`` by walks of length exactly ``length``.

    A walk can step to u exactly from an in-neighbor of u, so the frontier is
    the trace state S_length of column ``start`` in the order-2 view of
    reverse(d), whose row u holds the in-neighbors of u. Length 0 returns
    {start} itself.
    """
    if not 1 <= start <= d.dim:
        raise ValueError(f"vertex {start} out of range 1..{d.dim}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if length == 0:
        return IndexSet.singleton(start, d.dim)
    # Imported locally: patterns imports this module for PatternMatrix.
    from .patterns import PatternTensor, column_states

    view = PatternTensor.from_matrix(PatternMatrix(d.dim, reverse(d).out_neighbors), 2)
    return column_states(view, start, length)[-1]


def matrix_gamma(matrix: PatternMatrix, max_steps: int | None = None) -> int | None:
    """Primitive exponent of a zero-one matrix, or None when it is not primitive.

    This is the least k with every entry of the k-th boolean power positive.
    It is computed by running the order-2 tensor view of the matrix through the
    column-trace engine, so matrices and monomial tensors share one code path.
    """
    # Imported locally: patterns imports this module for PatternMatrix.
    from .patterns import PatternTensor, analyze

    report = analyze(PatternTensor.from_matrix(matrix, 2), max_steps=max_steps)
    return report.gamma


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


# Admissible simple-path lengths from vertex dim-1 to u in the reversed Wielandt
# digraph: 0 to itself, 1 to dim (one arc), and u or u+1 to u <= dim-2 (directly
# around the short cycle, or via dim first).
def _path_lengths(dim: int, u: int) -> tuple[int, ...]:
    if u == dim - 1:
        return (0,)
    if u == dim:
        return (1,)
    return (u, u + 1)


def walk_decomposition(dim: int, vertex: int, length: int) -> tuple[int, int, int] | None:
    """Decompose a walk length in the reversed Wielandt digraph, if possible.

    Returns (l, a, b) with l a simple-path length from vertex dim-1 to
    ``vertex``, a, b >= 0, and l + a*(dim-1) + b*dim == length; None when no
    such decomposition exists (equivalently, no walk of that exact length ends
    at ``vertex``). Among admissible triples, the earlier table entry for l is
    preferred and ties go to the smallest a.
    """
    if dim < 3:
        raise ValueError(f"dim must be >= 3, got {dim}")
    if not 1 <= vertex <= dim:
        raise ValueError(f"vertex {vertex} out of range 1..{dim}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    for l in _path_lengths(dim, vertex):
        rest = length - l
        if rest < 0:
            continue
        for a in range(rest // (dim - 1) + 1):
            if (rest - a * (dim - 1)) % dim == 0:
                return (l, a, (rest - a * (dim - 1)) // dim)
    return None
