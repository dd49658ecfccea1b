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

:func:`column_trace` follows one start column. :func:`analyze` and
:func:`gammas` go through one sliced run, which follows many start columns of
one or more tensors of dimension n at once. Bit t*n + j-1 of a mask R_u is a
lane: it says row u is in column j's state of tensor t. One step sets R_u to
the OR of the R_i of row u's singleton supports and, for each larger support,
the AND of its members' R_i. A larger support that several rows hold is met
once at the start of the step into one more R entry, which those rows read
like a singleton; a support held by one row is met inline. A lane has reached
[n] when its bit survives the AND of all R_u. Lanes are resolved in groups: a
group ends when all its lanes have reached [n], or when one of its lanes that
is not full matches a snapshot of Brent's cycle detection, taken at steps 1,
2, 4, 8, ... (that column cycles, so [n] is out of its reach, and the steps
since the snapshot are its exact period), or when the budget runs out. Both
tests read rows only until no open lane is left to test; lanes close by whole
groups, so results are exact.

:func:`analyze` is a batch of one tensor whose groups are its single
columns. Its run keeps its states until, after ``COMPILE_AFTER`` steps, it
swaps :func:`_sliced_step` for :func:`_compile_step`, the table as one
generated function, so long runs cost about their bit operations. One pass
over S_1, S_2, ... then finds each cycle's start; it steps past the kept
states only after a compiled run. Columns still open when the budget runs
out, a lowered one or the default one for a column that neither reaches [n]
nor repeats within it, are traced alone by ``column_trace``, so every
certificate equals the one ``column_trace`` gives.

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
such a support when they share its pseudo-index too. The build reads the
batch one row at a time and the members of each distinct mask once. Every
lane mask is an int over the whole batch, so building one costs time
quadratic in its size; ``gammas`` therefore runs its input in chunks of
``GAMMA_LANES // n`` tensors (at least one); it does not compile, as that
costs dozens of steps and scan chunks take 2 or 3. A tensor whose S_1 is empty
from some j (no row holds {j}) gets None and no lane: step 1 settles it.

:func:`extra_support_gammas` gives ``gammas`` of a base with a support E added
to every row: a column is [n] from the step after its base state first holds
E, or from the base's own reach. One walk of the base's n column orbits serves
every E. It steps each distinct state once through :func:`successor`, which a
caller that walks the base itself can share, and keeps the E it holds as one
int, so time and memory scale with the number of distinct base states:
(n-1)^2+1 for the Wielandt lift, at most n times the budget.

This module imports only ``bitsets`` from the package. Matrices, digraphs and
the majorization pattern live one layer up, in ``digraphs``, which runs them
through this engine as order-2 tensors.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cache, cached_property, partial, reduce
from itertools import islice
from operator import and_
from typing import Callable, Iterable, Iterator, Sequence

from .bitsets import IndexSet, Record, SupportFamily, _check_dim, _set, bit_indices, transpose_masks

# Lanes per sliced run of :func:`gammas`, which draws GAMMA_LANES // n tensors
# (at least one) per run: 128 at n = 10, 10 at n = 128. Wider runs step
# faster but hold more.
GAMMA_LANES = 1280

# Steps before an analyze run compiles its step, which costs 75-90 Wielandt-lift
# steps at n = 30..128; matrix_gamma's runs of up to 16 steps stay below it.
COMPILE_AFTER = 64
# Terms, and members of an inline meet, per generated statement: compile()
# recurses once per operator of a chain like a|b|c and fails near 3,000.
_BLOCK = 64

# What the sliced step reads: the multi-index supports that several rows
# share, then each row's singleton indices and its own multi-index supports.
LaneRows = tuple[tuple[tuple[int, ...], ...], list[tuple[list[int], list[tuple[int, ...]]]]]


class PatternTensor(Record):
    """Zero pattern of a nonnegative tensor of order >= 2 on indices 1..dim.

    ``rows[u-1]`` is the antichain of supports appearing in row u. Every stored
    set has between 1 and order-1 members (a support is the set collapse of an
    (order-1)-tuple of indices).
    """

    def __init__(self, order: int, dim: int, rows: tuple[SupportFamily, ...]) -> None:
        if order < 2:
            raise ValueError(f"order must be >= 2, got {order}")
        _check_dim(dim)
        if len(rows) != dim:
            raise ValueError(f"expected {dim} rows, got {len(rows)}")
        for u, fam in enumerate(rows, start=1):
            if fam.dim != dim:
                raise ValueError(f"row {u} dimension {fam.dim} does not match {dim}")
            # singletons always fit (order >= 2); only multi-index supports can be too big
            size = max(map(int.bit_count, fam.multis), default=1)
            if size > order - 1:
                raise ValueError(
                    f"row {u} holds a support of size {size}, "
                    f"limit is order-1 = {order - 1}"
                )
        _set(self, "order", order)
        _set(self, "dim", dim)
        _set(self, "rows", rows)


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
    """One step on masks: the rows with a support contained in ``state``."""
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


def successor(tensor: PatternTensor) -> Callable[[int], int]:
    """``tensor``'s step on masks, memoized: walks that share it step each distinct state once."""
    return cache(partial(_step_mask, tensor))


def _orbit(step: Callable[[int], int], column: int) -> Iterator[int]:
    """S_1, S_2, ... of one start column as masks under ``step``, without end.

    The one single-column loop over the recursion: traces, raw orbits and walk
    frontiers read their states from it, stepped with ``partial(_step_mask,
    tensor)`` or a shared :func:`successor`. :func:`analyze` steps every column
    at once instead and falls back to it only when the budget runs out.
    """
    state = 1 << (column - 1)
    while True:
        state = step(state)
        yield state


def column_states(tensor: PatternTensor, column: int, steps: int) -> tuple[IndexSet, ...]:
    """The raw orbit S_1, ..., S_steps for a start column, with no stopping rule.

    Useful for cross-checking against oracle routes that compute the same
    states by other means; :func:`column_trace` is the terminating variant.
    """
    if not 1 <= column <= tensor.dim:
        raise ValueError(f"column {column} out of range 1..{tensor.dim}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    return tuple(IndexSet(m, tensor.dim) for m in islice(_orbit(partial(_step_mask, tensor), column), steps))


class Reached(Record):
    """The trace hit the full set [n] at the recorded step."""

    def __init__(self, step: int) -> None:
        _set(self, "step", step)


class Cycled(Record):
    """A state repeated before [n] appeared, so [n] is unreachable.

    ``first_repeat_at`` is the step at which the repetition was observed; the
    equal earlier state sits at step ``first_repeat_at - period``. The repeated
    state is included in the trace's state list.
    """

    def __init__(self, first_repeat_at: int, period: int) -> None:
        _set(self, "first_repeat_at", first_repeat_at)
        _set(self, "period", period)


class Exhausted(Record):
    """The step budget ran out with neither [n] nor a repeat (possible only
    when the budget is below the number of distinct states)."""

    def __init__(self, bound: int) -> None:
        _set(self, "bound", bound)


Outcome = Reached | Cycled | Exhausted


class ColumnTrace(Record):
    """The recorded orbit of one start column together with its outcome.

    ``masks[k-1]`` is the bitmask of S_k over indices 1..dim. The orbit ends
    at the step where the outcome fired.
    """

    def __init__(self, column: int, masks: tuple[int, ...], dim: int, outcome: Outcome) -> None:
        _set(self, "column", column)
        _set(self, "masks", masks)
        _set(self, "dim", dim)
        _set(self, "outcome", outcome)

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
    for k, cur in enumerate(islice(_orbit(partial(_step_mask, tensor), column), bound), start=1):
        masks.append(cur)
        if cur == full:
            outcome = Reached(k)
            break
        if cur in seen:
            outcome = Cycled(first_repeat_at=k, period=k - seen[cur])
            break
        seen[cur] = k
    return ColumnTrace(column, tuple(masks), tensor.dim, outcome)


def gamma_j(tensor: PatternTensor, column: int) -> int | None:
    """Column degree: least k with S_k = [n], or None if the trace did not reach it."""
    outcome = column_trace(tensor, column).outcome
    return outcome.step if isinstance(outcome, Reached) else None


class PrimitivityReport(Record):
    """Outcome of a full analysis: verdict, degrees, and per-column certificates.

    ``primitive`` holds exactly when every column reached [n] within the step
    budget; ``gamma`` is then the largest column degree. ``outcomes[j-1]`` is
    the outcome :func:`column_trace` gives column j under the same budget.
    ``bound`` records the universal budget (dim-1)^2 + 1 and ``max_steps`` the
    budget actually used, so a caller that lowered it can tell the verdict is
    budget-relative. ``tensor``, kept for :attr:`traces`, is out of equality and repr.
    """

    _hidden = ("tensor",)

    def __init__(
        self, primitive: bool, gamma: int | None, gamma_by_column: tuple[int | None, ...],
        outcomes: tuple[Outcome, ...], bound: int, max_steps: int, tensor: PatternTensor,
    ) -> None:
        _set(self, "primitive", primitive)
        _set(self, "gamma", gamma)
        _set(self, "gamma_by_column", gamma_by_column)
        _set(self, "outcomes", outcomes)
        _set(self, "bound", bound)
        _set(self, "max_steps", max_steps)
        _set(self, "tensor", tensor)

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


def _compile_step(rows: LaneRows) -> Callable[[list[int]], list[int]]:
    """:func:`_sliced_step` for one tensor's table as straight-line code: the
    meets of shared supports and of those over ``_BLOCK`` first, then the rows."""
    shared, table = rows
    n = len(table)
    meets = [*shared, *(m for _, multis in table for m in multis if len(m) > _BLOCK)]
    name = {m: f"r{n + i}" for i, m in enumerate(meets)}
    sets = [(name[m], "&", [f"r{i}" for i in m]) for m in meets]
    for u, (singles, multis) in enumerate(table):
        terms = [f"r{i}" for i in singles] + [name.get(m) or "&".join(f"r{i}" for i in m) for m in multis]
        sets.append((f"o{u}", "|", terms or ["0"]))
    body = [f"{''.join(f'r{i},' for i in range(n))} = R"]
    for var, op, terms in sets:
        body += [f"{var} {op if k else ''}= {op.join(terms[k:k + _BLOCK])}" for k in range(0, len(terms), _BLOCK)]
    body.append(f"return [{','.join(f'o{u}' for u in range(n))}]")
    scope: dict = {}
    exec("def step(R):\n " + "\n ".join(body), scope)
    return scope["step"]


def _same(lanes: int, R: list[int], S: list[int]) -> int:
    """The lanes of ``lanes`` where R and S agree, read until none is left."""
    for r, s in zip(R, S):
        if not lanes:
            break
        lanes &= ~(r ^ s)
    return lanes


def _lane_rows(n: int, batch: Sequence[Sequence[Iterable[int]]]) -> tuple[LaneRows, list[int]]:
    """The lane rows of valid row masks (:func:`gammas` checks its input), lane
    t*n + j-1 being column j of ``batch[t]``, and the R entries of its pseudo-indices."""
    col = (1 << n) - 1
    every = (1 << n * len(batch)) - 1
    tensors = [(tensor, col << t * n) for t, tensor in enumerate(batch)]  # each with its lanes
    members = cache(bit_indices)  # the rows of a batch share most of their masks
    pseudo: dict[int, int] = {}  # lane mask -> its pseudo-index, n and up
    rows: list[tuple[list[int], list[tuple[int, ...]]]] = []
    for u in range(n):
        held: dict[int, int] = {}  # support -> the lanes of the tensors whose row u holds it
        for tensor, lanes in tensors:
            for m in tensor[u]:
                held[m] = held.get(m, 0) | lanes
        singles, multis = [], []
        for m, lanes in held.items():
            if lanes != every:
                multis.append(members(m) + (pseudo.setdefault(lanes, n + len(pseudo)),))
            elif m & (m - 1):
                multis.append(members(m))
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
) -> tuple[list[int | None], dict[int, int], int, list[list[int]], Callable[[list[int]], list[int]]]:
    """Step the lanes of ``tensors`` tensors until each group of ``width``
    lanes is resolved: all its lanes reach [n], one of them matches a Brent
    snapshot, or the budget ``bound`` runs out.

    A run of one-lane groups (:func:`analyze`'s) keeps its states S_1, S_2,
    ... until it compiles its step, after ``COMPILE_AFTER`` steps. It returns
    the step at which each group reached [n] (None if it did not), the lanes
    that matched a snapshot keyed by period, the lanes of the groups still
    open at the budget, the kept states, and the step it ended on.
    """
    every = (1 << n * tensors) - 1
    group = (1 << width) - 1
    firsts = every // group  # each group's first lane
    tops = firsts << (width - 1)  # each group's last lane
    low = every ^ tops  # the other lanes
    ends: list[int | None] = [None] * (n * tensors // width)
    periods: dict[int, int] = {}  # period -> lanes that cycle with it
    kept: list[list[int]] = []
    live = every
    step = lambda R: _sliced_step(rows, R + consts)  # noqa: E731
    R = step([every // ((1 << n) - 1) << u for u in range(n)])
    snap, snap_step, k = None, 0, 1
    while True:
        if width == 1 and k <= COMPILE_AFTER:
            kept.append(R)
        full = live
        for r in R:
            if not full:
                break
            full &= r
        # SWAR: a group's other lanes plus one carry into its last lane
        # exactly when they are all full
        done = ((full & low) + firsts) & full & tops
        if done:
            for b in bit_indices(done):
                ends[b // width] = k
        if snap is not None:
            cycled = _same(live & ~full, R, snap)
            if cycled:
                periods[k - snap_step] = periods.get(k - snap_step, 0) | cycled
                # the last lane of every group with a lane that cycled
                done |= (((cycled & low) + low) | cycled) & tops
        live &= ~((done >> (width - 1)) * group)
        if not live or k == bound:
            return ends, periods, live, kept, step
        if k & (k - 1) == 0:
            snap, snap_step = R, k
        if k == COMPILE_AFTER and width == 1:
            step = _compile_step(rows)
        R, k = step(R), k + 1


def analyze(tensor: PatternTensor, max_steps: int | None = None) -> PrimitivityReport:
    """Decide primitivity by tracing every column at once; gamma = max over columns.

    Each outcome equals ``column_trace(tensor, j, max_steps).outcome``. The
    module docstring describes the sliced run, a batch of one tensor whose
    every column is its own group, and its cycle certificates; columns still
    open when the budget runs out, lowered or not, are traced alone by
    ``column_trace``.
    """
    n = tensor.dim
    bound = default_bound(n) if max_steps is None else max_steps
    if bound < 1:
        raise ValueError(f"max_steps must be >= 1, got {bound}")
    rows, _ = _lane_rows(n, [[fam.masks for fam in tensor.rows]])
    ends, periods, open_cols, kept, step = _sliced_run(rows, [], n, tensors=1, width=1, bound=bound)
    outcomes: list[Outcome | None] = [None if k is None else Reached(k) for k in ends]
    for j in bit_indices(open_cols):
        outcomes[j] = column_trace(tensor, j + 1, bound).outcome
    # The first k where column j's S_k equals its S_{k-period} is its first
    # repeat; a snapshot match at step k bounds it by k, so an uncompiled run
    # kept every state this reads.
    window: deque[list[int]] = deque(maxlen=max(periods, default=0) + 1)
    k = 0
    while any(periods.values()):
        R = kept[k] if k < len(kept) else step(R)
        k += 1
        window.append(R)
        for period, cols in periods.items():
            if k > period and (same := _same(cols, R, window[-1 - period])):
                outcome = Cycled(first_repeat_at=k, period=period)
                for j in bit_indices(same):
                    outcomes[j] = outcome
                periods[period] = cols ^ same
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


def gammas(n: int, tensors: Iterable[Sequence[Sequence[int]]]) -> list[int | None]:
    """``analyze(t).gamma`` for every dimension-n tensor t in ``tensors``, in
    input order (see the module docstring). ``tensor[u-1]`` holds the support
    masks of row u, raw or minimized (``[f.masks for f in t.rows]`` for a
    :class:`PatternTensor`); a tensor without n rows, or with a mask outside
    1..2^n-1, raises ValueError. A tensor with an empty S_1 gets None with no
    sliced run; the others run in chunks of ``GAMMA_LANES // n`` (at least
    one), each drawn when needed, so the input may be lazy and of any length.
    """
    _check_dim(n)
    full, size, bound = (1 << n) - 1, max(1, GAMMA_LANES // n), default_bound(n)
    out: list[int | None] = []

    def survivors() -> Iterator[tuple[int, Sequence[Sequence[int]]]]:
        for t, tensor in enumerate(tensors):
            if len(tensor) != n:
                raise ValueError(f"expected {n} rows in every tensor")
            covered = 0  # the columns that are some row's singleton support
            for u, row in enumerate(tensor, start=1):
                for m in row:
                    if not 0 < m <= full:
                        raise ValueError(f"row {u} holds mask {m:#x}, outside 1..2^{n}-1")
                    covered |= 0 if m & (m - 1) else m
            out.append(None)
            if covered == full:
                yield t, tensor
    it = survivors()
    while chunk := list(islice(it, size)):
        where, batch = zip(*chunk)
        rows, consts = _lane_rows(n, batch)
        for t, gamma in zip(where, _sliced_run(rows, consts, n, tensors=len(batch), width=n, bound=bound)[0]):
            out[t] = gamma
    return out


def extra_support_gammas(
    base: PatternTensor, extras: Sequence[int], step: Callable[[int], int] | None = None
) -> list[int | None]:
    """``gammas(n, ([[*fam.masks, e] for fam in base.rows] for e in extras))``,
    from one walk of the base's n column orbits (see the module docstring)
    stepped with ``step``, the base's :func:`successor`, made here if not given."""
    n, full, step = base.dim, (1 << base.dim) - 1, step or successor(base)
    if bad := [e for e in extras if not 0 < e <= full]:
        raise ValueError(f"extra support {bad[0]:#x} is outside 1..2^{n}-1")
    every = (1 << len(extras)) - 1
    lacks = [every] * n  # bit w of lacks[i]: extras[w] does not hold i
    for w, e in enumerate(extras):
        for i in bit_indices(e):
            lacks[i] ^= 1 << w
    memo: dict[int, tuple[int, int]] = {}  # state -> (its successor, the witnesses a column hits leaving it)
    states, hits = [1 << j for j in range(n)], [0] * n  # each column's S_{t-1} and the witnesses it hit
    out: list[int | None] = [None] * len(extras)
    done = t = 0
    while done != every and t < default_bound(n):
        t += 1
        for s in {s for s in states if s not in memo}:
            nxt = step(s)  # a column that reaches [n] hits every witness
            memo[s] = nxt, every if nxt == full else reduce(and_, [lacks[i] for i in bit_indices(full ^ s)], every)
        hits = [hit | memo[s][1] for s, hit in zip(states, hits)]
        states = [memo[s][0] for s in states]
        new = reduce(and_, hits, every) & ~done  # hit by every column, so resolved
        for w in bit_indices(new):
            out[w] = t
        done |= new
    return out


class Violation(Record):
    """One failed necessary condition; ``vertex`` is None for the global one."""

    def __init__(self, code: str, vertex: int | None, detail: str) -> None:
        _set(self, "code", code)
        _set(self, "vertex", vertex)
        _set(self, "detail", detail)


def check_necessary_conditions(tensor: PatternTensor) -> list[Violation]:
    """Cheap screen on the majorization pattern that primitivity requires.

    In the reversed digraph of the majorization matrix every vertex must have
    an out-arc, no vertex may have only its self-loop, and some vertex must
    have out-degree at least two. Any violation certifies the tensor is not
    primitive; an empty list proves nothing. ``gammas`` settles the
    zero-out-degree case before its sliced run.
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
        if col.bit_count() >= 2:
            branching = True
    # With a single index the state space collapses and the remaining two
    # conditions stop being necessary: a lone self-loop is already primitive.
    if not branching and n > 1:
        violations.append(
            Violation("no-branching", None, "no vertex has out-degree >= 2 in the reversed digraph")
        )
    return violations
