"""Zero-pattern tensors and the trace decision procedure for primitivity.

A nonnegative tensor of order m and dimension n is represented purely by its
zero pattern: row u keeps the family of index sets {i2, ..., im} (as sets, not
multisets) over its positive cells. Only set containment matters for
primitivity, so each row family is stored as an inclusion-minimal antichain.

The engine iterates, for a start column j, the reachability states

    S_1 = {u : row u has a support contained in {j}},
    S_{k+1} = {u : row u has a support contained in S_k}.

The tensor is j-primitive exactly when some S_k equals the full index set [n],
and the least such k is the column degree gamma_j. The tensor is primitive when
that holds for every column, and its primitive degree gamma is the largest
gamma_j. States evolve deterministically, so every trace either reaches [n],
revisits an earlier state (a certificate that [n] is unreachable), or runs out
of its step budget. For a primitive tensor every column reaches [n] within
(n-1)^2 + 1 steps, which is the default budget.

:func:`column_trace` follows one start column. Everything else goes through
one sliced run, which follows many start columns of one or more tensors of
dimension n at once. Bit t*n + j-1 of a mask R_u is a lane: it says row u is
in column j's state of tensor t. One step sets R_u to the OR of the R_i of
row u's singleton supports and, for each larger support, the AND of its
members' R_i. A larger support that several rows hold, such as the extra
support of a frontier witness, is met once at the start of the step into
one more R entry, which those rows read like a singleton; a support held by
one row is met inline. A lane has reached [n] when its bit
survives the AND of all R_u. Lanes are resolved in groups: a group ends when
all its lanes have reached [n], or when one of its lanes that is not full
matches a snapshot of Brent's cycle detection, taken at steps 1, 2, 4, 8,
... (that column cycles, so [n] is out of its reach, and the steps since the
snapshot are its exact period), or when the budget runs out.

:func:`analyze` is a batch of one tensor whose groups are its single
columns. A second pass compares S_i with S_{i+period} to find where each
cycle starts, and columns still open when a lowered budget runs out are
traced alone by ``column_trace``, so every certificate equals the one
``column_trace`` gives.

:func:`gammas` runs batches whose groups are whole tensors, for callers that
need only gamma: a tensor's gamma is the step at which all n of its lanes
reached [n], and None if one of them cycled or the default budget ran out.
It reads each tensor as its n rows of support masks, so callers that draw or
enumerate patterns build no :class:`PatternTensor`. The masks need not be
minimized: duplicates merge in the lane table, and as the step is monotone a
superset of another support never changes it. A support that every tensor
in the batch holds in row u enters as it is. A support that only some hold
gets one extra member, a pseudo-index c past the n rows whose R_c is the
lane mask of those tensors; R_c is appended unchanged after every step, so
the AND keeps that support on its own tensors' lanes, and two rows share
such a support when they share its pseudo-index too. Every lane mask is an
int over the whole batch, so building one costs time quadratic in its size;
``gammas`` therefore runs its input in chunks of ``GAMMA_CHUNK`` tensors.

This module imports only ``bitsets`` from the package. Matrices, digraphs and
the majorization pattern live one layer up, in ``digraphs``, which runs them
through this engine as order-2 tensors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import islice
from operator import and_, or_, xor
from typing import Iterable, Iterator, Sequence

from .bitsets import IndexSet, SupportFamily, _check_dim, bit_indices, transpose_masks

# Tensors per sliced run of :func:`gammas`. Larger chunks step a little faster
# but hold more tensors in memory at once.
GAMMA_CHUNK = 128

# What the sliced step reads: the multi-index supports that several rows
# share, then each row's singleton indices and its own multi-index supports.
LaneRows = tuple[tuple[tuple[int, ...], ...], list[tuple[list[int], list[tuple[int, ...]]]]]


@dataclass(frozen=True)
class PatternTensor:
    """Zero pattern of a nonnegative tensor of order >= 2 on indices 1..dim.

    ``rows[u-1]`` is the antichain of supports appearing in row u. Every stored
    set has between 1 and order-1 members (a support is the set collapse of an
    (order-1)-tuple of indices).
    """

    order: int
    dim: int
    rows: tuple[SupportFamily, ...]

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        _check_dim(self.dim)
        if len(self.rows) != self.dim:
            raise ValueError(f"expected {self.dim} rows, got {len(self.rows)}")
        for u, fam in enumerate(self.rows, start=1):
            if fam.dim != self.dim:
                raise ValueError(f"row {u} dimension {fam.dim} does not match {self.dim}")
            # singletons always fit (order >= 2); only multi-index supports can be too big
            size = max(map(int.bit_count, fam.multis), default=1)
            if size > self.order - 1:
                raise ValueError(
                    f"row {u} holds a support of size {size}, "
                    f"limit is order-1 = {self.order - 1}"
                )


def make_pattern(
    order: int,
    dim: int,
    entries: Iterable[tuple[int, Sequence[int]]],
) -> PatternTensor:
    """Build a PatternTensor from positive cells.

    Each entry is (row, multiset) where ``multiset`` is the (order-1)-tuple of
    trailing indices of a positive cell; it is collapsed to its underlying set
    and inserted into the row's antichain. Duplicate or dominated entries are
    absorbed.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    _check_dim(dim)
    raw: list[list[int]] = [[] for _ in range(dim)]
    for row, multiset in entries:
        if not 1 <= row <= dim:
            raise ValueError(f"row {row} out of range 1..{dim}")
        if len(multiset) != order - 1:
            raise ValueError(
                f"multiset {tuple(multiset)} has arity {len(multiset)}, expected {order - 1}"
            )
        mask = 0
        for i in multiset:
            if not 1 <= i <= dim:
                raise ValueError(f"index {i} out of range 1..{dim}")
            mask |= 1 << (i - 1)
        raw[row - 1].append(mask)
    rows = tuple(SupportFamily.from_masks(dim, masks) for masks in raw)
    return PatternTensor(order, dim, rows)


def _step_mask(tensor: PatternTensor, state: int) -> int:
    out = 0
    bit = 1
    for fam in tensor.rows:
        if fam.singles & state:
            out |= bit
        else:
            for m in fam.multis:
                if m & state == m:
                    out |= bit
                    break
        bit <<= 1
    return out


def _orbit(tensor: PatternTensor, column: int) -> Iterator[int]:
    """S_1, S_2, ... of one start column as masks, without end.

    The one single-column loop over the recursion: traces, raw orbits and walk
    frontiers read their states from it. :func:`analyze` steps every column
    at once instead and falls back to it only when the budget runs out.
    """
    state = 1 << (column - 1)
    while True:
        state = _step_mask(tensor, state)
        yield state


def step(tensor: PatternTensor, state: IndexSet) -> IndexSet:
    """One fixpoint step: rows whose family has some support contained in ``state``.

    Monotone in ``state`` and insensitive to antichain minimization of the rows.
    """
    if state.dim != tensor.dim:
        raise ValueError(f"dimension mismatch: state dim {state.dim} vs tensor dim {tensor.dim}")
    return IndexSet(_step_mask(tensor, state.mask), tensor.dim)


def column_states(tensor: PatternTensor, column: int, steps: int) -> tuple[IndexSet, ...]:
    """The raw orbit S_1, ..., S_steps for a start column, with no stopping rule.

    Useful for cross-checking against oracle routes that compute the same
    states by other means; :func:`column_trace` is the terminating variant.
    """
    if not 1 <= column <= tensor.dim:
        raise ValueError(f"column {column} out of range 1..{tensor.dim}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    return tuple(IndexSet(m, tensor.dim) for m in islice(_orbit(tensor, column), steps))


@dataclass(frozen=True)
class Reached:
    """The trace hit the full set [n] at the recorded step."""

    step: int


@dataclass(frozen=True)
class Cycled:
    """A state repeated before [n] appeared, so [n] is unreachable.

    ``first_repeat_at`` is the step at which the repetition was observed; the
    equal earlier state sits at step ``first_repeat_at - period``. The repeated
    state is included in the trace's state list.
    """

    first_repeat_at: int
    period: int


@dataclass(frozen=True)
class Exhausted:
    """The step budget ran out with neither [n] nor a repeat (possible only
    when the budget is below the number of distinct states)."""

    bound: int


Outcome = Reached | Cycled | Exhausted


@dataclass(frozen=True)
class ColumnTrace:
    """The recorded orbit of one start column together with its outcome.

    ``masks[k-1]`` is the bitmask of S_k over indices 1..dim. The orbit ends
    at the step where the outcome fired.
    """

    column: int
    masks: tuple[int, ...]
    dim: int
    outcome: Outcome

    @property
    def states(self) -> tuple[IndexSet, ...]:
        """The orbit as IndexSets, ``states[k-1]`` = S_k; built on each read."""
        return tuple(IndexSet(m, self.dim) for m in self.masks)


def default_bound(dim: int) -> int:
    """Step budget sufficient for any primitive tensor: (dim-1)^2 + 1."""
    return (dim - 1) ** 2 + 1


def column_trace(tensor: PatternTensor, column: int, max_steps: int | None = None) -> ColumnTrace:
    """Run the state iteration for one column until it resolves.

    Stops at the first of: the full set appears (Reached), a state repeats an
    earlier one (Cycled), or ``max_steps`` states have been generated
    (Exhausted). The default budget is (dim-1)^2 + 1, enough to certify
    j-primitivity of any primitive tensor; with that budget an Exhausted
    outcome certifies the tensor as a whole is not primitive.
    """
    if not 1 <= column <= tensor.dim:
        raise ValueError(f"column {column} out of range 1..{tensor.dim}")
    bound = default_bound(tensor.dim) if max_steps is None else max_steps
    if bound < 1:
        raise ValueError(f"max_steps must be >= 1, got {bound}")
    full = (1 << tensor.dim) - 1
    masks: list[int] = []
    seen: dict[int, int] = {}
    outcome: Outcome = Exhausted(bound)
    for k, cur in enumerate(islice(_orbit(tensor, column), bound), start=1):
        masks.append(cur)
        if cur == full:
            outcome = Reached(k)
            break
        if cur in seen:
            outcome = Cycled(first_repeat_at=k, period=k - seen[cur])
            break
        seen[cur] = k
    return ColumnTrace(column, tuple(masks), tensor.dim, outcome)


def gamma_j(tensor: PatternTensor, column: int, max_steps: int | None = None) -> int | None:
    """Column degree: least k with S_k = [n], or None if the trace did not reach it."""
    outcome = column_trace(tensor, column, max_steps).outcome
    return outcome.step if isinstance(outcome, Reached) else None


@dataclass(frozen=True)
class PrimitivityReport:
    """Outcome of a full analysis: verdict, degrees, and per-column certificates.

    ``primitive`` holds exactly when every column reached [n] within the step
    budget; ``gamma`` is then the largest column degree. ``outcomes[j-1]`` is
    the outcome :func:`column_trace` gives column j under the same budget.
    ``bound`` records the universal budget (dim-1)^2 + 1 and ``max_steps`` the
    budget actually used, so a caller that lowered it can tell the verdict is
    budget-relative.
    """

    primitive: bool
    gamma: int | None
    gamma_by_column: tuple[int | None, ...]
    outcomes: tuple[Outcome, ...]
    bound: int
    max_steps: int
    tensor: PatternTensor = field(repr=False, compare=False)

    @cached_property
    def traces(self) -> tuple[ColumnTrace, ...]:
        """Every column's recorded orbit, traced one column at a time on first read."""
        return tuple(
            column_trace(self.tensor, j, self.max_steps) for j in range(1, self.tensor.dim + 1)
        )


def _sliced_step(rows: LaneRows, R: list[int]) -> list[int]:
    """One step of every lane at once: ``R[u]`` is row u's lane mask. ``rows``
    is built by :func:`_lane_rows`; pseudo-indices read past the n rows, and
    the meets of the shared supports, computed first, past those."""
    shared, table = rows
    if shared:
        R = R + [reduce(and_, [R[i] for i in m]) for m in shared]
    out = []
    for singles, multis in table:
        acc = 0
        for i in singles:
            acc |= R[i]
        for m in multis:
            meet = -1
            for i in m:
                meet &= R[i]
            acc |= meet
        out.append(acc)
    return out


def _lane_rows(n: int, batch: Sequence[Sequence[Iterable[int]]]) -> tuple[LaneRows, list[int]]:
    """The lane rows of tensors given as row masks, lane t*n + j-1 being column
    j of ``batch[t]``, and the ``R`` entries of their pseudo-indices."""
    col = (1 << n) - 1
    every = (1 << n * len(batch)) - 1
    held: list[dict[int, int]] = [{} for _ in range(n)]  # row -> support -> lanes
    for t, tensor in enumerate(batch):
        lanes = col << t * n
        for h, masks in zip(held, tensor, strict=True):
            for m in masks:
                h[m] = h.get(m, 0) | lanes
    pseudo: dict[int, int] = {}  # lane mask -> its pseudo-index, n and up
    rows: list[tuple[list[int], list[tuple[int, ...]]]] = []
    for u, h in enumerate(held, start=1):
        if bad := [m for m in h if not 0 < m <= col]:
            raise ValueError(f"row {u} holds mask {bad[0]:#x}, outside 1..2^{n}-1")
        singles, multis = [], []
        for m, lanes in h.items():
            if lanes != every:
                multis.append(bit_indices(m) + (pseudo.setdefault(lanes, n + len(pseudo)),))
            elif m & (m - 1):
                multis.append(bit_indices(m))
            else:
                singles.append(m.bit_length() - 1)
        rows.append((singles, multis))
    # a support several rows hold is met once per step, and read like a singleton
    counts = Counter(m for _, multis in rows for m in multis)
    shared = {m: n + len(pseudo) + i for i, m in enumerate(m for m, c in counts.items() if c > 1)}
    if shared:
        for singles, multis in rows:
            singles += [shared[m] for m in multis if m in shared]
            multis[:] = [m for m in multis if m not in shared]
    return (tuple(shared), rows), list(pseudo)


def _sliced_run(
    rows: LaneRows, consts: list[int], n: int, tensors: int, width: int, bound: int
) -> tuple[list[int | None], dict[int, int], int]:
    """Step the lanes of ``tensors`` tensors until each group of ``width``
    lanes is resolved: all its lanes reach [n], one of them matches a Brent
    snapshot, or the budget ``bound`` runs out.

    Returns the step at which each group reached [n] (None if it did not),
    the lanes that matched a snapshot keyed by period, and the lanes of the
    groups still open at the budget.
    """
    every = (1 << n * tensors) - 1
    group = (1 << width) - 1
    firsts = every // group  # each group's first lane
    tops = firsts << (width - 1)  # each group's last lane
    low = every ^ tops  # the other lanes
    ends: list[int | None] = [None] * (n * tensors // width)
    periods: dict[int, int] = {}  # period -> lanes that cycle with it
    live = every
    R = _sliced_step(rows, [every // ((1 << n) - 1) << u for u in range(n)] + consts)
    snap, snap_step, k = None, 0, 1
    while True:
        full = reduce(and_, R)
        # SWAR: a group's other lanes plus one carry into its last lane
        # exactly when they are all full
        done = ((full & low) + firsts) & full & tops & live
        if done:
            for b in bit_indices(done):
                ends[b // width] = k
        if snap is not None:
            cycled = live & ~full & ~reduce(or_, map(xor, R, snap))
            if cycled:
                periods[k - snap_step] = periods.get(k - snap_step, 0) | cycled
                # the last lane of every group with a lane that cycled
                done |= (((cycled & low) + low) | cycled) & tops
        live &= ~((done >> (width - 1)) * group)
        if not live or k == bound:
            return ends, periods, live
        if k & (k - 1) == 0:
            snap, snap_step = R, k
        R, k = _sliced_step(rows, R + consts), k + 1


def analyze(tensor: PatternTensor, max_steps: int | None = None) -> PrimitivityReport:
    """Decide primitivity by tracing every column at once; gamma = max over columns.

    Each outcome equals ``column_trace(tensor, j, max_steps).outcome``. The
    module docstring describes the sliced run, a batch of one tensor whose
    every column is its own group, and its cycle certificates; columns still
    open when the budget runs out are traced alone by ``column_trace``.
    """
    n = tensor.dim
    bound = default_bound(n) if max_steps is None else max_steps
    if bound < 1:
        raise ValueError(f"max_steps must be >= 1, got {bound}")
    rows, _ = _lane_rows(n, [[fam.masks for fam in tensor.rows]])
    ends, periods, open_cols = _sliced_run(rows, [], n, tensors=1, width=1, bound=bound)
    outcomes: list[Outcome | None] = [None if k is None else Reached(k) for k in ends]
    for j in bit_indices(open_cols):
        outcomes[j] = column_trace(tensor, j + 1, bound).outcome
    if periods:
        first = _sliced_step(rows, [1 << u for u in range(n)])
    for period, cols in periods.items():
        # S_i against S_{i+period}: the first i where column j agrees is where
        # its cycle starts, so its first repeat comes at i + period.
        early = late = first
        for _ in range(period):
            late = _sliced_step(rows, late)
        i = 1
        while True:
            same = cols & ~reduce(or_, map(xor, early, late))
            if same:
                outcome = Cycled(first_repeat_at=i + period, period=period)
                for j in bit_indices(same):
                    outcomes[j] = outcome
                cols ^= same
                if not cols:
                    break
            early, late, i = _sliced_step(rows, early), _sliced_step(rows, late), i + 1
    primitive = None not in ends
    return PrimitivityReport(
        primitive=primitive,
        gamma=max(ends) if primitive else None,  # type: ignore[type-var]
        gamma_by_column=tuple(ends),
        outcomes=tuple(outcomes),  # type: ignore[arg-type]
        bound=default_bound(n),
        max_steps=bound,
        tensor=tensor,
    )


def gammas(n: int, tensors: Iterable[Sequence[Iterable[int]]]) -> list[int | None]:
    """``analyze(t).gamma`` for every dimension-n tensor t in ``tensors``,
    from one sliced run per chunk of :data:`GAMMA_CHUNK` whose groups are the
    tensors (see the module docstring). ``tensor[u-1]`` holds the support
    masks of row u, raw or minimized (``[f.masks for f in t.rows]`` for a
    :class:`PatternTensor`); a mask outside 1..2^n-1 raises ValueError. The
    input is drawn one chunk at a time, so it may be a lazy iterable of any
    length.
    """
    _check_dim(n)
    out: list[int | None] = []
    it = iter(tensors)
    while chunk := list(islice(it, GAMMA_CHUNK)):
        rows, consts = _lane_rows(n, chunk)
        out += _sliced_run(rows, consts, n, tensors=len(chunk), width=n, bound=default_bound(n))[0]
    return out


@dataclass(frozen=True)
class Violation:
    """One failed necessary condition; ``vertex`` is None for the global one."""

    code: str
    vertex: int | None
    detail: str


def check_necessary_conditions(tensor: PatternTensor) -> list[Violation]:
    """Cheap screen on the majorization pattern that primitivity requires.

    In the reversed digraph of the majorization matrix every vertex must have
    an out-arc, no vertex may have only its self-loop, and some vertex must
    have out-degree at least two. Any violation certifies the tensor is not
    primitive; an empty list proves nothing.
    """
    n = tensor.dim
    # row u of the majorization pattern is fam.singles; its columns are the
    # out-neighbor sets of the reversed digraph
    cols = transpose_masks([fam.singles for fam in tensor.rows])
    violations: list[Violation] = []
    branching = False
    for j in range(1, n + 1):
        col = cols[j - 1]
        if col == 0:
            violations.append(
                Violation("zero-out-degree", j, f"vertex {j} has no out-arc in the reversed digraph")
            )
        elif n > 1 and col == 1 << (j - 1):
            violations.append(
                Violation("self-loop-only", j, f"vertex {j} reaches only itself")
            )
        if bin(col).count("1") >= 2:
            branching = True
    # With a single index the state space collapses and the remaining two
    # conditions stop being necessary: a lone self-loop is already primitive.
    if not branching and n > 1:
        violations.append(
            Violation("no-branching", None, "no vertex has out-degree >= 2 in the reversed digraph")
        )
    return violations
