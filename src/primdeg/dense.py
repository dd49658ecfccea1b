"""Explicit dense tensors: the slow, literal route used to cross-check patterns.

Everything here follows the defining formulas directly. The general product of
an order-m tensor with an order-k tensor is the order-(m-1)(k-1)+1 tensor

    d[i, a_1, ..., a_{m-1}] = sum over i_2..i_m of
        a[i, i_2, ..., i_m] * b[i_2, a_1] * ... * b[i_m, a_{m-1}]

with each a_t a (k-1)-tuple of indices. Powers under this product, basis
iterates, and the majorization recursion all talk about positivity only, so
those paths run in the boolean semiring (0/1 values, int64 accumulation, then
clamp); value explosion is impossible there. The real-valued product exists for
the associativity demonstration and checks its accumulation stayed finite.

Cell counts are capped (default 2**20, override with PRIMDEG_DENSE_CELL_CAP);
a result beyond the cap is rejected, never truncated.

This is an oracle, not an analysis route: it is the only module that needs
numpy, and only ``oracle-check`` and the tests import it. :func:`cross_check`
holds every comparison ``oracle-check`` makes on one pattern.
"""

from __future__ import annotations

import os
import random

import numpy as np

from .bitsets import IndexSet, Record, _check_dim, _set
from .digraphs import PatternMatrix
from .errors import CapExceededError
from .patterns import PatternTensor, analyze, column_states, default_bound, make_pattern

DENSE_CELL_CAP = int(os.environ.get("PRIMDEG_DENSE_CELL_CAP", str(1 << 20)))


def _check_cells(order: int, dim: int) -> None:
    if dim**order > DENSE_CELL_CAP:
        raise CapExceededError(
            f"dense tensor with order {order}, dim {dim} has {dim**order} cells, "
            f"cap is {DENSE_CELL_CAP} (set PRIMDEG_DENSE_CELL_CAP to raise it)"
        )


class DenseTensor(Record):
    """An explicit nonnegative tensor of shape (dim,) * order, 1-based indexing; equal only to itself."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, order: int, dim: int, values: np.ndarray) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        _check_dim(dim)
        _check_cells(order, dim)
        if values.shape != (dim,) * order:
            raise ValueError(f"values shape {values.shape} does not match (dim,)*order")
        if np.any(values < 0):
            raise ValueError("values must be nonnegative")
        values.setflags(write=False)
        _set(self, "order", order)
        _set(self, "dim", dim)
        _set(self, "values", values)

    @classmethod
    def zeros(cls, order: int, dim: int) -> "DenseTensor":
        _check_dim(dim)
        _check_cells(order, dim)
        return cls(order, dim, np.zeros((dim,) * order))

    @classmethod
    def from_array(cls, values: np.ndarray) -> "DenseTensor":
        arr = np.asarray(values, dtype=float)
        if arr.ndim < 1:
            raise ValueError("array must have at least one axis")
        dims = set(arr.shape)
        if len(dims) != 1:
            raise ValueError(f"all axes must have equal length, got shape {arr.shape}")
        return cls(arr.ndim, arr.shape[0], arr.copy())

    def value_at(self, idx: tuple[int, ...]) -> float:
        """Value of one cell addressed by 1-based indices."""
        if len(idx) != self.order:
            raise ValueError(f"index {idx} has arity {len(idx)}, expected {self.order}")
        for i in idx:
            if not 1 <= i <= self.dim:
                raise ValueError(f"index {i} out of range 1..{self.dim}")
        return float(self.values[tuple(i - 1 for i in idx)])


def _product_array(a_vals: np.ndarray, b_vals: np.ndarray, order: int, dim: int) -> np.ndarray:
    """The contraction chain shared by the real and boolean products."""
    b_flat = b_vals.reshape(dim, -1)
    r = a_vals
    for _ in range(order - 1):
        r = np.tensordot(r, b_flat, axes=([1], [0]))
    return r


def general_product(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Real-valued general tensor product; order (m-1)(k-1)+1.

    Associative, and for two matrices it degenerates to the ordinary matrix
    product. Raises OverflowError if the float64 accumulation left the finite
    range.
    """
    if a.order < 2:
        raise ValueError(f"left factor must have order >= 2, got {a.order}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    out_order = (a.order - 1) * (b.order - 1) + 1
    _check_cells(out_order, a.dim)
    with np.errstate(over="ignore"):  # reported below as OverflowError
        r = _product_array(a.values, b.values, a.order, a.dim)
    r = r.reshape((a.dim,) * out_order)
    if not np.all(np.isfinite(r)):
        raise OverflowError("general product overflowed float64; use the pattern route")
    return DenseTensor(out_order, a.dim, r)


def _pattern_product_array(a_vals: np.ndarray, b_vals: np.ndarray, order: int, dim: int) -> np.ndarray:
    a01 = (a_vals > 0).astype(np.int64)
    b01 = (b_vals > 0).astype(np.int64)
    return (_product_array(a01, b01, order, dim) > 0).astype(float)


def power_patterns(a: DenseTensor, steps: int) -> list[DenseTensor]:
    """Zero patterns of the powers a^1, ..., a^steps under the general product.

    Computed in the boolean semiring with a^{t+1} = a * a^t; each power's cell
    count is checked against the cap (order grows as (m-1)^t + 1).
    """
    if a.order < 2:
        raise ValueError(f"order must be >= 2, got {a.order}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    out = [DenseTensor(a.order, a.dim, (a.values > 0).astype(float))]
    for _ in range(steps - 1):
        prev = out[-1]
        out_order = (a.order - 1) * (prev.order - 1) + 1
        _check_cells(out_order, a.dim)
        vals = _pattern_product_array(a.values, prev.values, a.order, a.dim)
        out.append(DenseTensor(out_order, a.dim, vals.reshape((a.dim,) * out_order)))
    return out


def majorization_of(a: DenseTensor) -> PatternMatrix:
    """Pattern of the matrix with entry (i, j) taken from cell (i, j, j, ..., j)."""
    if a.order < 2:
        raise ValueError(f"order must be >= 2, got {a.order}")
    n = a.dim
    entries = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if a.values[(i - 1,) + (j - 1,) * (a.order - 1)] > 0:
                entries.append((i, j))
    return PatternMatrix.from_entries(n, entries)


def apply_to_basis(a: DenseTensor, column: int, steps: int) -> list[np.ndarray]:
    """Supports of the basis iterates x^{t+1} = a(x^t) starting from e_column.

    Returns boolean indicator vectors for t = 1..steps, evaluated in the
    boolean semiring (only positivity of the iterates is meaningful; their
    real values blow up doubly exponentially).
    """
    if a.order < 2:
        raise ValueError(f"order must be >= 2, got {a.order}")
    if not 1 <= column <= a.dim:
        raise ValueError(f"column {column} out of range 1..{a.dim}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = np.zeros(a.dim, dtype=bool)
    x[column - 1] = True
    out = []
    for _ in range(steps):
        x = _pattern_product_array(a.values, x, a.order, a.dim).reshape(a.dim) > 0
        out.append(x)
    return out


def support_of(vector: np.ndarray) -> IndexSet:
    """IndexSet of positions where a vector is positive (1-based)."""
    arr = np.asarray(vector)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got {arr.ndim} axes")
    return IndexSet.from_members((int(i) + 1 for i in np.nonzero(arr)[0]), arr.shape[0])


def majorization_recursion(a: DenseTensor, steps: int) -> list[PatternMatrix]:
    """Majorization patterns of a^1, ..., a^steps without forming any power.

    Column j of the next pattern is the boolean application of ``a`` to column
    j of the current one; this is the recursion that powers the column-trace
    engine, evaluated here on the dense representation as a cross-check.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    n = a.dim
    current = majorization_of(a)
    out = [current]
    cols = [np.array([(i + 1) in c for i in range(n)]) for c in current.reversed_digraph().rows]
    for _ in range(steps - 1):
        cols = [_pattern_product_array(a.values, c, a.order, n).reshape(n) > 0 for c in cols]
        entries = [
            (i + 1, j + 1)
            for j, c in enumerate(cols)
            for i in range(n)
            if c[i]
        ]
        out.append(PatternMatrix.from_entries(n, entries))
    return out


def densify(tensor: PatternTensor) -> DenseTensor:
    """Canonical dense realization of a pattern: one cell per stored support.

    A support {s_1 < ... < s_r} becomes the cell (u, s_1, ..., s_r, s_r, ...,
    s_r) padded to arity order-1, with value 1. Minimization already removed
    dominated supports, so to_pattern(densify(t)) == t.
    """
    _check_cells(tensor.order, tensor.dim)
    vals = np.zeros((tensor.dim,) * tensor.order)
    for u in range(1, tensor.dim + 1):
        for s in tensor.rows[u - 1].sets:
            members = s.members
            padded = members + (members[-1],) * (tensor.order - 1 - len(members))
            vals[(u - 1,) + tuple(i - 1 for i in padded)] = 1.0
    return DenseTensor(tensor.order, tensor.dim, vals)


def to_pattern(a: DenseTensor) -> PatternTensor:
    """Collapse a dense tensor to its zero pattern (rows as minimal antichains)."""
    if a.order < 2:
        raise ValueError(f"order must be >= 2, got {a.order}")
    entries = [
        (int(idx[0]) + 1, tuple(int(i) + 1 for i in idx[1:]))
        for idx in np.argwhere(a.values > 0)
    ]
    return make_pattern(a.order, a.dim, entries)


def cross_check(tensor: PatternTensor, max_k: int, rng: random.Random) -> tuple[list[str], list[str]]:
    """Compare the pattern engine with the dense routes on one pattern.

    For every column j and step k <= max_k the trace state S_k must equal the
    support of the k-th basis iterate and the j-th column of the k-th
    majorization recursion pattern. Order 2 also compares ``analyze``'s gamma
    with the first power, up to (dim-1)^2 + 1, whose pattern is all positive.
    Order 3 at dim <= 3 rebuilds the explicit powers up to min(max_k, 3) and
    compares their majorization columns; order 3 at dim 2 also checks the
    associativity of the real product on an integer triple drawn from ``rng``.
    Returns the disagreements and the names of the optional checks that ran.
    """
    n = tensor.dim
    states = [column_states(tensor, j, max_k) for j in range(1, n + 1)]
    d = densify(tensor)
    problems: list[str] = []
    ran: list[str] = []
    for j in range(1, n + 1):
        for k, x in enumerate(apply_to_basis(d, j, max_k), start=1):
            if support_of(x) != states[j - 1][k - 1]:
                problems.append(f"basis iterate support differs at j={j} k={k}")
    for k, p in enumerate(majorization_recursion(d, max_k), start=1):
        for j, col in enumerate(p.reversed_digraph().rows, start=1):
            if col != states[j - 1][k - 1]:
                problems.append(f"majorization recursion differs at j={j} k={k}")
    if tensor.order == 2:
        ran.append("degree")
        powers = power_patterns(d, default_bound(n))
        g_dense = next((k for k, p in enumerate(powers, start=1) if p.values.all()), None)
        g_tensor = analyze(tensor).gamma
        if g_dense != g_tensor:
            problems.append(f"dense power degree {g_dense} != analyze gamma {g_tensor}")
    if tensor.order == 3 and n <= 3:
        ran.append("explicit-powers")
        for k, p in enumerate(power_patterns(d, min(max_k, 3)), start=1):
            for j, col in enumerate(majorization_of(p).reversed_digraph().rows, start=1):
                if col != states[j - 1][k - 1]:
                    problems.append(f"explicit power pattern differs at j={j} k={k}")
    if tensor.order == 3 and n == 2:
        ran.append("associativity")
        # three random integer 2x2x2 tensors, cells drawn in C order
        a, b, c = (
            DenseTensor.from_array(
                [[[rng.randint(0, 3) for _ in range(2)] for _ in range(2)] for _ in range(2)]
            )
            for _ in range(3)
        )
        left = general_product(general_product(a, b), c)
        right = general_product(a, general_product(b, c))
        if left.values.shape != right.values.shape or (left.values != right.values).any():
            problems.append("associativity failed on random triple")
    return problems, ran
