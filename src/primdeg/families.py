"""Constructions that realize every primitive degree from 1 to (n-1)^2 + 1.

Two families cover the range for order >= dimension >= 3:

* degrees t <= n come from monomial lifts of matrices built to have exponent
  exactly t (all-positive first column, a superdiagonal path of length t-1,
  all-positive columns after t);
* degrees t = n + k come from the Wielandt lift with one extra support, the
  k-th trace state of column n-1, added to every row. That addition leaves the
  first k states of column n-1 untouched and then completes the climb in one
  step, so column n-1 resolves at k+1 and the last column, which trails it by
  n-1 steps, resolves at n+k; no other column is slower.

Every builder re-verifies the degree it claims with the analysis machinery and
raises VerificationError on disagreement rather than returning a wrong witness.
:func:`degree_witness` and :func:`exponent_set` build the Wielandt lift and walk
column n-1 once, and verify their witnesses in one ascending ``gammas`` batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import IndexSet, bit_indices
from .digraphs import PatternMatrix, matrix_gamma, monomial_lift, wielandt_matrix
from .errors import VerificationError
# ``analyze`` is unused here; bench/tracing.py wraps it by this name.
from .patterns import PatternTensor, analyze, column_states, default_bound, gammas  # noqa: F401


def wielandt_tensor(order: int, dim: int) -> PatternTensor:
    """Monomial lift of the Wielandt matrix; primitive with the extremal degree
    (dim-1)^2 + 1 for every order >= 2, dim >= 3."""
    return monomial_lift(wielandt_matrix(dim), order)


def wielandt_frontier_tensor(order: int, dim: int, k: int) -> PatternTensor:
    """The Wielandt lift with its k-th column-(dim-1) state added to every row.

    Requires order >= dim >= 3 (the added set can have dim-1 members, which
    must fit in a support of size order-1) and 1 <= k <= dim^2 - 3*dim + 2
    (beyond that the state is no longer a proper subset). The result keeps the
    Wielandt majorization pattern and has primitive degree dim + k, attained by
    the last column.
    """
    if dim < 3:
        raise ValueError(f"dim must be >= 3, got {dim}")
    if order < dim:
        raise ValueError(f"order must be >= dim, got order {order} < dim {dim}")
    k_max = dim * dim - 3 * dim + 2
    if not 1 <= k <= k_max:
        raise ValueError(f"k must be in 1..{k_max} for dim {dim}, got {k}")
    base = wielandt_tensor(order, dim)
    extra = column_states(base, dim - 1, k)[-1]
    return PatternTensor(order, dim, tuple(fam.add(extra) for fam in base.rows))


def small_exponent_matrix(dim: int, target: int) -> PatternMatrix:
    """A zero-one matrix with exponent exactly ``target``, for 1 <= target <= dim.

    Column 1 is all-positive, the superdiagonal carries a path of length
    target-1, and columns target+1..dim are all-positive. In the reversed
    digraph vertex 1 and the high vertices see everything at once while
    2..target sit on a descending chain, so the slowest column needs exactly
    ``target`` steps. The exponent is re-verified before returning.
    """
    if dim < 3:
        raise ValueError(f"dim must be >= 3, got {dim}")
    if not 1 <= target <= dim:
        raise ValueError(f"target must be in 1..{dim}, got {target}")
    entries = [(i, 1) for i in range(1, dim + 1)]
    entries += [(i, i + 1) for i in range(1, target)]
    for j in range(target + 1, dim + 1):
        entries += [(i, j) for i in range(1, dim + 1)]
    matrix = PatternMatrix.from_entries(dim, entries)
    got = matrix_gamma(matrix)
    if got != target:
        raise VerificationError(
            f"small_exponent_matrix(dim={dim}, target={target}) self-check failed: "
            f"exponent is {got}"
        )
    return matrix


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one constructed tensor, recorded alongside its witnesses."""

    kind: str  # "monomial-lift" | "wielandt-frontier"
    order: int
    dim: int
    k: int | None = None
    t: int | None = None


def degree_witness(order: int, dim: int, degree: int) -> tuple[PatternTensor, FamilySpec]:
    """A primitive tensor of the given order/dim whose degree is exactly ``degree``.

    Degrees up to dim come from small-exponent matrix lifts; larger ones from
    the frontier family with k = degree - dim. Requires order >= dim >= 3 and
    1 <= degree <= (dim-1)^2 + 1. The built tensor's degree is recomputed
    and a disagreement raises VerificationError.
    """
    witnesses, failures = _witnesses(order, dim, range(degree, degree + 1))
    if failures:
        raise VerificationError(failures[0][1])
    return witnesses[0].tensor, witnesses[0].spec


@dataclass(frozen=True)
class DegreeWitness:
    degree: int
    spec: FamilySpec
    tensor: PatternTensor


@dataclass(frozen=True)
class ExponentSetResult:
    """Witnessed degrees for one (order, dim), against the expected full interval."""

    order: int
    dim: int
    witnesses: tuple[DegreeWitness, ...]
    failures: tuple[tuple[int, str], ...]

    @property
    def achieved(self) -> frozenset[int]:
        return frozenset(w.degree for w in self.witnesses)

    @property
    def expected(self) -> frozenset[int]:
        return frozenset(range(1, default_bound(self.dim) + 1))

    @property
    def complete(self) -> bool:
        return not self.failures and self.achieved == self.expected


def exponent_set(order: int, dim: int) -> ExponentSetResult:
    """Construct and machine-verify a witness for every degree 1..(dim-1)^2+1.

    Per-degree verification failures are recorded in ``failures`` instead of
    aborting the sweep, so a discrepancy names the degree that broke.
    """
    witnesses, failures = _witnesses(order, dim, range(1, default_bound(dim) + 1))
    return ExponentSetResult(order, dim, tuple(witnesses), tuple(failures))


def _witnesses(order: int, dim: int, degrees: range) -> tuple[list[DegreeWitness], list[tuple[int, str]]]:
    """Build a witness for each of the ascending ``degrees``, verify them all
    with one ``gammas`` call, and return the verified ones and the failures by
    degree: a construction's VerificationError, or a gamma other than the degree."""
    if dim < 3:
        raise ValueError(f"dim must be >= 3, got {dim}")
    if order < dim:
        raise ValueError(f"order must be >= dim, got order {order} < dim {dim}")
    top = default_bound(dim)
    if bad := [d for d in degrees if not 1 <= d <= top]:
        raise ValueError(f"degree must be in 1..{top} for dim {dim}, got {bad[0]}")
    base = wielandt_tensor(order, dim)
    # one walk of column dim-1 gives the extra support of every frontier witness
    extras = column_states(base, dim - 1, max(degrees[-1] - dim, 0))
    built: list[DegreeWitness] = []
    failures: list[tuple[int, str]] = []
    for degree in degrees:
        if (k := degree - dim) > 0:
            spec = FamilySpec("wielandt-frontier", order, dim, k=k, t=degree)
            rows = tuple(fam.add(extras[k - 1]) for fam in base.rows)
            built.append(DegreeWitness(degree, spec, PatternTensor(order, dim, rows)))
            continue
        try:
            matrix = small_exponent_matrix(dim, degree)
        except VerificationError as e:
            failures.append((degree, str(e)))
            continue
        spec = FamilySpec("monomial-lift", order, dim, t=degree)
        built.append(DegreeWitness(degree, spec, monomial_lift(matrix, order)))
    witnesses = []
    for w, got in zip(built, gammas(dim, ([fam.masks for fam in w.tensor.rows] for w in built))):
        if got == w.degree:
            witnesses.append(w)
        else:
            claim = f"degree_witness(order={order}, dim={dim}, degree={w.degree})"
            failures.append((w.degree, f"{claim} self-check failed: analyzed degree is {got}"))
    return witnesses, sorted(failures)


def brute_force_matrix_exponent_set(dim: int) -> set[int]:
    """Exponents attained by zero-one matrices of the given dimension, by
    running all 2**(dim*dim) patterns through the batch engine as rows of
    singleton masks. Intentionally capped at dim <= 4 (65536 patterns)."""
    if not 1 <= dim <= 4:
        raise ValueError(f"dim must be in 1..4, got {dim}")
    row_mask = (1 << dim) - 1
    rows = [tuple(1 << j for j in bit_indices(m)) for m in range(1 << dim)]
    # bit layout: row-major, bit (i*dim + j) <-> entry (i+1, j+1)
    matrices = (
        [rows[(bits >> (i * dim)) & row_mask] for i in range(dim)]
        for bits in range(1 << (dim * dim))
    )
    return {g for g in gammas(dim, matrices) if g is not None}


def _monomial_pattern_from_bits(bits: int, dim: int, order: int) -> PatternTensor:
    """Helper for enumeration tests: bit (i*dim + j) set means entry (i+1, j+1)."""
    row_mask = (1 << dim) - 1
    rows = tuple(IndexSet((bits >> (i * dim)) & row_mask, dim) for i in range(dim))
    return monomial_lift(PatternMatrix(dim, rows), order)
