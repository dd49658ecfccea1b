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

Every builder verifies the degree it claims once and raises VerificationError
on disagreement rather than returning a wrong witness. :func:`small_exponent_matrix`
checks its matrix with ``matrix_gamma``. :func:`degree_witness` and :func:`exponent_set`
build the lifts' matrices from the same rows unchecked and verify them all in one
``gammas`` call. They verify every frontier witness with ``extra_support_gammas``,
whose one walk of the Wielandt lift's column orbits steps each state once: the
orbits lie on one chain of (n-1)^2+1 states. A witness tensor is built only when read.
"""

from __future__ import annotations

from itertools import islice

from .bitsets import IndexSet, Record, SupportFamily, _set, bit_indices
from .digraphs import PatternMatrix, matrix_gamma, monomial_lift, wielandt_matrix
from .errors import VerificationError
from .patterns import PatternTensor, _orbit, default_bound, extra_support_gammas, gammas
from .patterns import analyze, column_states  # noqa: F401  (unused; bench/tracing.py wraps them by these names)


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
    the last column. :func:`degree_witness` builds it and verifies that degree,
    raising VerificationError on disagreement.
    """
    _check_sizes(order, dim)
    k_max = dim * dim - 3 * dim + 2
    if not 1 <= k <= k_max:
        raise ValueError(f"k must be in 1..{k_max} for dim {dim}, got {k}")
    return degree_witness(order, dim, dim + k)[0]


def _check_sizes(order: int, dim: int) -> None:
    """The sizes the frontier family needs: order >= dim >= 3."""
    if dim < 3:
        raise ValueError(f"dim must be >= 3, got {dim}")
    if order < dim:
        raise ValueError(f"order must be >= dim, got order {order} < dim {dim}")


def small_exponent_matrix(dim: int, target: int) -> PatternMatrix:
    """A zero-one matrix with exponent exactly ``target``, for 1 <= target <= dim.

    Column 1 is all-positive, the superdiagonal carries a path of length
    target-1, and columns target+1..dim are all-positive. In the reversed
    digraph vertex 1 and the high vertices see everything at once while
    2..target sit on a descending chain, so the slowest column needs exactly
    ``target`` steps. The exponent is verified with ``matrix_gamma`` before
    returning (the sweep verifies the same rows in its ``gammas`` call instead).
    """
    if dim < 3:
        raise ValueError(f"dim must be >= 3, got {dim}")
    if not 1 <= target <= dim:
        raise ValueError(f"target must be in 1..{dim}, got {target}")
    matrix = _small_exponent_rows(dim, target)
    got = matrix_gamma(matrix)
    if got != target:
        raise VerificationError(
            f"small_exponent_matrix(dim={dim}, target={target}) self-check failed: "
            f"exponent is {got}"
        )
    return matrix


def _small_exponent_rows(dim: int, target: int) -> PatternMatrix:
    """The unverified small-exponent matrix: row i holds bit 0, bit i when
    i < target, and bits target..dim-1."""
    high = (1 << dim) - (1 << target)
    rows = (1 | high | (1 << i if i < target else 0) for i in range(1, dim + 1))
    return PatternMatrix(dim, tuple(IndexSet(r, dim) for r in rows))


class FamilySpec(Record):
    """Recipe for one constructed tensor, recorded alongside its witnesses."""

    def __init__(self, kind: str, order: int, dim: int, k: int | None = None, t: int | None = None) -> None:
        _set(self, "kind", kind)  # "monomial-lift" | "wielandt-frontier"
        _set(self, "order", order)
        _set(self, "dim", dim)
        _set(self, "k", k)
        _set(self, "t", t)


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


class DegreeWitness(Record):
    """A verified degree and the recipe of its witness: the small-exponent matrix
    of a lift, or the Wielandt lift and the extra support E_k of a frontier
    witness. Verification reads only the recipe; :attr:`tensor` builds the
    tensor each time it is read."""

    def __init__(self, degree: int, spec: FamilySpec, recipe: PatternMatrix | tuple[PatternTensor, int]) -> None:
        _set(self, "degree", degree)
        _set(self, "spec", spec)
        _set(self, "recipe", recipe)

    @property
    def tensor(self) -> PatternTensor:
        if isinstance(self.recipe, PatternMatrix):
            return monomial_lift(self.recipe, self.spec.order)
        base, e = self.recipe
        # a row with a singleton in E_k dominates E_k, so it stays as it is
        rows = tuple(fam if fam.singles & e else SupportFamily.from_masks(base.dim, (*fam.masks, e)) for fam in base.rows)
        return PatternTensor(base.order, base.dim, rows)


class ExponentSetResult(Record):
    """Witnessed degrees for one (order, dim), against the expected full interval."""

    def __init__(
        self, order: int, dim: int, witnesses: tuple[DegreeWitness, ...], failures: tuple[tuple[int, str], ...]
    ) -> None:
        _set(self, "order", order)
        _set(self, "dim", dim)
        _set(self, "witnesses", witnesses)
        _set(self, "failures", failures)

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
    """Machine-verify a witness for every degree 1..(dim-1)^2+1 off its recipe; a
    witness tensor is built only when its ``tensor`` is read, never to verify it.

    Per-degree verification failures are recorded in ``failures`` instead of
    aborting the sweep, so a discrepancy names the degree that broke.
    """
    witnesses, failures = _witnesses(order, dim, range(1, default_bound(dim) + 1))
    return ExponentSetResult(order, dim, tuple(witnesses), tuple(failures))


def _witnesses(order: int, dim: int, degrees: range) -> tuple[list[DegreeWitness], list[tuple[int, str]]]:
    """Verify a witness for each of the ascending ``degrees`` off its recipe, building no
    tensor (lifts off their matrix rows, frontier ones off the base and E_k). Return the verified
    ones and, in degree order, the failures: those whose gamma is not their degree."""
    _check_sizes(order, dim)
    top = default_bound(dim)
    if bad := [d for d in degrees if not 1 <= d <= top]:
        raise ValueError(f"degree must be in 1..{top} for dim {dim}, got {bad[0]}")
    base = wielandt_tensor(order, dim)
    # column dim-1's states S_1, S_2, ... are the extra supports E_1, E_2, ... of the frontier witnesses
    extras = list(islice(_orbit(base, dim - 1), max(degrees[-1] - dim, 0)))
    lifts = [
        DegreeWitness(d, FamilySpec("monomial-lift", order, dim, t=d), _small_exponent_rows(dim, d))
        for d in degrees if d <= dim
    ]
    fronts = [
        DegreeWitness(d, FamilySpec("wielandt-frontier", order, dim, k=d - dim, t=d), (base, extras[d - dim - 1]))
        for d in degrees if d > dim
    ]
    ones = [1 << i for i in range(dim)]  # a lift's row u: one singleton per entry of matrix row u
    verdicts = gammas(dim, ([[o for o in ones if o & r.mask] for r in w.recipe.rows] for w in lifts))
    verdicts += extra_support_gammas(base, [w.recipe[1] for w in fronts])
    witnesses, failures = [], []
    for w, got in zip(lifts + fronts, verdicts):
        if got == w.degree:
            witnesses.append(w)
        else:
            claim = f"degree_witness(order={order}, dim={dim}, degree={w.degree})"
            failures.append((w.degree, f"{claim} self-check failed: analyzed degree is {got}"))
    return witnesses, failures


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
