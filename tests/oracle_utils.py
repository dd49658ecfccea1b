"""Independent oracle implementations used to pin expected values.

Nothing here shares code with the package's trace engine: matrices go through
numpy boolean powers, steps go through a direct scan of raw entries or, for
lane masks, a per-row loop, and the general product is evaluated by literal
nested loops over its defining sum.
The reference row parser checks every row line in full, the way the parser
does for a document that its one-pass read does not accept, and the
reference minimizer compares each candidate with every mask kept before it.
"""

from __future__ import annotations

import itertools
import re
from functools import reduce
from operator import and_, or_

import numpy as np

from primdeg import ParseError, PatternMatrix, PatternTensor, SupportFamily
from primdeg.formats import _keyed_dim, _keyed_order

_SET_RE = re.compile(r"\{([^{}]*)\}")
_INT_RE = re.compile(r"0|[1-9][0-9]*")
_ROW_RE = re.compile(rf"row\s+({_INT_RE.pattern}):(.*)")


def matrix_to_array(matrix: PatternMatrix) -> np.ndarray:
    return np.array(matrix.to_rows01(), dtype=np.uint8)


def gamma_by_bool_powers(arr: np.ndarray, bound: int) -> int | None:
    """Least k <= bound with the k-th boolean power all-positive, else None."""
    power = (arr > 0).astype(np.uint8)
    base = power.copy()
    for k in range(1, bound + 1):
        if k > 1:
            power = ((power @ base) > 0).astype(np.uint8)
        if power.all():
            return k
    return None


def frontier_by_bool_powers(arr: np.ndarray, column: int, k: int) -> frozenset[int]:
    """{u : (arr^k)[u-1, column-1] > 0} via boolean powers; k = 0 gives {column}."""
    n = arr.shape[0]
    if k == 0:
        return frozenset({column})
    power = (arr > 0).astype(np.uint8)
    base = power.copy()
    for _ in range(k - 1):
        power = ((power @ base) > 0).astype(np.uint8)
    return frozenset(int(u) + 1 for u in range(n) if power[u, column - 1])


def raw_step(entries: list[tuple[int, tuple[int, ...]]], members: frozenset[int]) -> frozenset[int]:
    """Direct scan of raw (row, multiset) entries, no antichain involved."""
    return frozenset(row for row, multiset in entries if set(multiset) <= members)


def raw_states(
    dim: int,
    entries: list[tuple[int, tuple[int, ...]]],
    column: int,
    steps: int,
) -> list[frozenset[int]]:
    state = frozenset({column})
    out = []
    for _ in range(steps):
        state = raw_step(entries, state)
        out.append(state)
    return out


def sliced_step(rows: list[list[tuple[int, ...]]], R: list[int]) -> list[int]:
    """One step of every lane at once, ``R[u]`` being row u's lane mask and a
    pseudo-index reading past the n rows: the OR of ANDs that
    ``patterns._vector_step``'s program computes, one row at a time."""
    return [reduce(or_, [reduce(and_, map(R.__getitem__, m)) for m in row], 0) for row in rows]


def reference_minimize_masks(masks) -> tuple[int, ...]:
    """``bitsets.minimize_masks`` as a quadratic scan: the distinct masks in
    ascending order, each kept unless a mask kept before it is its subset,
    with the same ValueErrors for masks below 1."""
    ordered = sorted(set(masks))
    if ordered and ordered[0] < 1:
        bad = min([m for m in ordered if m < 1], key=lambda m: (m.bit_count(), m))
        raise ValueError(f"mask {bad:#x} out of range" if bad else "empty set is not a valid support")
    kept: list[int] = []
    for cand in ordered:
        for k in kept:
            if k & cand == k:
                break
        else:
            kept.append(cand)
    return tuple(kept)


def brute_general_product(a_vals: np.ndarray, b_vals: np.ndarray) -> np.ndarray:
    """Literal nested-loop evaluation of the general product's defining sum."""
    n = a_vals.shape[0]
    m = a_vals.ndim
    k = b_vals.ndim
    out_order = (m - 1) * (k - 1) + 1
    out = np.zeros((n,) * out_order)
    for i in range(n):
        for alphas in itertools.product(
            itertools.product(range(n), repeat=k - 1), repeat=m - 1
        ):
            total = 0.0
            for i_rest in itertools.product(range(n), repeat=m - 1):
                term = a_vals[(i,) + i_rest]
                for t in range(m - 1):
                    term *= b_vals[(i_rest[t],) + alphas[t]]
                total += term
            out[(i,) + tuple(x for al in alphas for x in al)] = total
    return out


def reference_parse_pattern(text: str) -> PatternTensor:
    """A ``tensor-pattern v1`` document read line by line with every check on
    every row line, in the order of the messages they raise."""
    lines = [(no, line.strip()) for no, line in enumerate(text.splitlines(), start=1) if line.strip()]
    order = _keyed_order(lines)
    dim = _keyed_dim(lines, 2)
    row_masks: dict[int, list[int]] = {}
    for no, line in lines[3:]:
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
    rows = (SupportFamily.from_masks(dim, row_masks.get(u, ())) for u in range(1, dim + 1))
    return PatternTensor(order, dim, tuple(rows))
