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
of its step budget, by default (n-1)^2 + 1, within which every column of a
primitive tensor reaches [n]. :func:`column_trace` follows one start column,
reading its state a byte at a time (:func:`_step_mask`), by the method of Four
Russians (Arlazarov, Dinic, Kronrod and Faradzev, Soviet Math. Dokl. 11, 1970):
a per-tensor memo, filled on first read, gives the rows with a support inside
each byte, and supports across bytes are tested one by one.

The sliced run (:func:`_sliced_run`) follows many start columns of one or more
tensors of dimension n at once. Bit t*n + j-1 of a mask R_u is a lane: it says
row u is in column j's state of tensor t. One step sets R_u to the OR, over
row u's supports, of the AND of each support's members' R_i, as a program of
C-level ``map`` passes built once per run (:func:`_vector_step`), in which
each distinct support has one register, so it is met once per step. A lane
has reached [n] when its bit survives the AND of all R_u; it records that
step, its column degree, and closes. A lane that is not full and matches a
Brent snapshot (Brent, BIT 1980), taken at steps 1, 2, 4, 8, ..., cycles: [n]
is out of its reach, and as each snapshot is compared at every step after it
is taken, the steps since it are the exact period. The match closes the
lane's whole group, and the budget closes every lane.

A run may keep a stack of snapshots, one per copy of its lanes (copy d of lane
l is lane d*L + l, for L lanes a copy, all in the same state). S_1 fills every
copy; at each later power of two the stack moves up a copy, its oldest
snapshot leaving, and copy 0 takes the current state, so one fold per step
compares every lane with every snapshot. With SNAPSHOTS = 4 copies the
snapshot of step s is compared up to step 16s. A match is recorded on the
copy-0 lane, the one the caller reads.

:func:`analyze` runs one tensor whose groups are its single columns, from a
lane table read straight off its canonical rows, by one of three routes:

- If the majorization matrix M (the rows' singletons) is primitive, every
  column reaches [n], as the step is monotone, and repeats no state first.
  The run then takes no snapshot and stops at the budget.
- If besides no row holds a multi-index support, the step is linear over the
  Boolean semiring (S_k(j) is column j of M^k), and :func:`_squared_ends`
  squares instead of running. A lane list is also a jump table: if R_u holds
  the columns j with u in S_a(j), the table whose row u reads the bits of
  R_u advances any lane list by a steps. A Boolean product (:func:`_product`)
  squares M into M^2, M^4, ... until the exponents sum to the budget or
  more, or the top power is all [n]. As a column that is [n] stays [n], a
  pass from the top power down, every lane starting at S_0 = {j}, takes each
  jump on just the lanes still short of [n] after it, which leaves each on
  S_{gamma_j - 1}. The first jump lands on the top power itself, which is
  never decoded into a table. The Wielandt lift at n = 128 takes 26
  products, not 16,130 steps.
- Otherwise the run keeps the stack of SNAPSHOTS for the whole run and goes
  on to two budgets. A column whose cycle starts at step c with period p
  first repeats at f = c + p. The snapshot of the least power of two
  s >= max(c, p/15) lies on the cycle and is still compared at step
  s + p <= 16s; as s <= 2c - 1 or s < 2p/15, it matches by step
  s + p <= 2f - 1. So every column that first repeats within the budget has
  matched a snapshot, at a step that bounds its first repeat. The run keeps
  S_1, ..., S_KEPT_STATES, the last in copy 0 alone, and one pass walks
  S_1, S_2, ... up to the budget, stepping the run's program on past the
  kept states: it compares each S_k with S_{k-p} for every period p still
  open, and drops a period once its columns are settled.

A column still open at the budget is ``Exhausted``, so every outcome equals
the one ``column_trace`` gives, with no column traced.

:func:`gammas` runs batches whose groups are whole tensors, with one copy and
the newest snapshot alone, for callers that need only gamma: a tensor's gamma
is the largest of its n lane degrees, and None if a lane has none. It reads
each tensor as n rows of support masks, so callers build no
:class:`PatternTensor`, and :func:`_lane_rows` merges a batch. The masks need
not be minimized: duplicates merge, and a superset of another support never
changes the monotone step. A support that only some tensors of the batch hold
gets a pseudo-index c past the n rows, whose R_c, appended unchanged after
every step, is the lane mask of those tensors; two rows share its register
when they share the pseudo-index too. A lane mask is an int over the whole
batch, so building one costs time quadratic in its size, and ``gammas`` runs
its input in chunks of ``GAMMA_LANES // n`` tensors (at least one). A tensor
whose S_1 is empty from some j (no row holds {j}) gets None and no lane.

:func:`extra_support_gammas` gives ``gammas`` of a base with a support E added
to every row: a column is [n] from the step after its base state first holds E,
or from the base's own reach. One walk of the base's n column orbits serves
every E. It steps each distinct state once through :func:`successor`, which a
caller that walks the base itself can share, and finds the E it holds, one int,
by one AND per byte of its complement: time and memory scale with the distinct
base states, (n-1)^2+1 for the Wielandt lift, at most n times the budget.

This module imports only ``bitsets`` from the package. Matrices, digraphs and
the majorization pattern live one layer up, in ``digraphs``, which runs them
through this engine as order-2 tensors.
"""

from __future__ import annotations

from collections import deque
from functools import cache, cached_property, partial, reduce
from itertools import islice
from math import gcd
from operator import and_, itemgetter, or_, xor
from typing import Callable, Iterable, Iterator, Sequence

from .bitsets import IndexSet, Record, SupportFamily, _check_dim, _set, bit_indices, transpose_masks

# Lanes per sliced run of :func:`gammas`, which draws GAMMA_LANES // n tensors
# (at least one) per run: 128 at n = 10, 10 at n = 128. Wider runs step
# faster but hold more.
GAMMA_LANES = 1280

# States S_1..S_64 that an analyze run with the cycle test keeps for its
# cycle-start pass, the last in copy 0 alone: past them the pass steps on from
# it through the run's program, on n-bit states.
KEPT_STATES = 64

# Brent snapshots that an analyze run with the cycle test compares for the
# whole run, one per copy of its lanes: a program step and the fold cost about
# the same with 1 to 8 copies at n = 100, and with 4 the snapshot of step s
# stays until step 16s, not 2s.
SNAPSHOTS = 4

# What the sliced step reads: each row's supports as tuples of their members,
# a member n and up being a pseudo-index.
LaneRows = list[list[tuple[int, ...]]]


class _ByteSteps(dict):
    """A tensor's step on each byte of a state, in place, filled on first read: the rows with a support inside it."""

    def __init__(self, rows: tuple[SupportFamily, ...]) -> None:
        self.rows = rows

    def __missing__(self, part: int) -> int:
        out = 0
        for u, fam in enumerate(self.rows):
            if fam.singles & part:
                out |= 1 << u
            else:
                for m in fam.multis:
                    if m & part == m:
                        out |= 1 << u
                        break
        return self.setdefault(part, out)


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

    @cached_property
    def _step_tables(self) -> tuple[_ByteSteps, list[tuple[int, int]]]:
        """What :func:`_step_mask` reads, out of equality, hash and repr: the byte memo, and each support across bytes."""
        rows = enumerate(self.rows if self.dim > 8 else ())  # below 9 indices every support lies in one byte
        across = [(1 << u, m) for u, fam in rows for m in fam.multis if m >> ((m & -m).bit_length() - 1 & -8) > 255]
        return _ByteSteps(self.rows), across


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
    """One step on masks, a byte at a time: the rows with a support inside ``state``."""
    meets, across = tensor._step_tables
    out = 0
    for p in range(0, tensor.dim, 8):
        out |= meets[state & 255 << p]
    for bit, m in across:
        if m & state == m:
            out |= bit
    return out


def successor(tensor: PatternTensor) -> Callable[[int], int]:
    """``tensor``'s step on masks, memoized: walks that share it step each distinct state once."""
    return cache(partial(_step_mask, tensor))


def _orbit(step: Callable[[int], int], column: int) -> Iterator[int]:
    """S_1, S_2, ... of one start column as masks under ``step``, without end.

    The one single-column loop over the recursion: traces, raw orbits and walk
    frontiers read their states from it, stepped with ``partial(_step_mask,
    tensor)`` or a shared :func:`successor`. :func:`analyze` steps every column
    at once instead.
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


def _vector_step(rows: LaneRows, consts: list[int]) -> Callable[[list[int]], list[int]]:
    """The step of every lane at once as a function of ``R``, row u's lane mask
    being ``R[u]`` and ``consts`` the entries of the pseudo-indices past the n
    rows: each row's OR of its supports' ANDs (``sliced_step`` in
    ``tests/oracle_utils.py`` is the reference), as C-level passes on
    registers ``R + consts + [0]``. Each pass appends one ``map`` over pairs,
    folding every meet a level, then every row's OR of its registers in
    ascending order; a gather reads each row (0 if empty). Each distinct
    support has one register, its member's or its meet's, so one that several
    rows hold is met once."""
    zero = len(rows) + len(consts)
    passes: list[tuple[Callable, Callable, Callable]] = []
    size = zero + 1  # the next register a pass appends

    def gather(idx: list[int]) -> Callable[[list[int]], Sequence[int]]:  # a sequence also for one index
        run = slice(idx[0], idx[0] + len(idx))
        return itemgetter(run) if idx == list(range(run.start, run.stop)) else itemgetter(*idx)

    def fold(op: Callable, groups: Sequence[Sequence[int]]) -> list[int]:
        nonlocal size
        while max(map(len, groups), default=0) > 2:
            I, J, level = [], [], []
            for g in groups:
                half = len(g) // 2
                I += g[:2 * half:2]
                J += g[1:2 * half:2]
                level.append([*range(size, size + half), *g[2 * half:]])
                size += half
            passes.append((op, gather(I), gather(J)))
            groups = level
        # the last level, where every open group is a pair, by comprehensions
        if pairs := [g for g in groups if len(g) == 2]:
            passes.append((op, gather([g[0] for g in pairs]), gather([g[1] for g in pairs])))
        new = iter(range(size, size + len(pairs)))
        size += len(pairs)
        return [next(new) if len(g) == 2 else g[0] if g else zero for g in groups]

    reg = {m: m[0] for row in rows for m in row}  # each distinct support's register
    multis = [m for m in reg if len(m) > 1]
    reg.update(zip(multis, fold(and_, multis)))
    out = gather(fold(or_, [sorted(map(reg.__getitem__, row)) for row in rows]))
    start = [*consts, 0]

    def step(R: list[int]) -> list[int]:
        e = R + start
        for op, i, j in passes:
            e += map(op, i(e), j(e))
        return list(out(e))
    return step


def _same(lanes: int, R: list[int], S: list[int]) -> int:
    """The lanes of ``lanes`` where R and S agree, by one C fold over the rows."""
    return lanes & ~reduce(or_, map(xor, R, S), 0)


def _lane_rows(n: int, batch: Sequence[Sequence[Iterable[int]]]) -> tuple[LaneRows, list[int]]:
    """The lane rows of valid row masks (:func:`gammas` checks its input), lane
    t*n + j-1 being column j of ``batch[t]``, and the R entries of its
    pseudo-indices: the merge of :func:`gammas`' batches. :func:`analyze`,
    whose one tensor's rows are canonical, lists their masks' members instead."""
    col = (1 << n) - 1
    every = (1 << n * len(batch)) - 1
    tensors = [(tensor, col << t * n) for t, tensor in enumerate(batch)]  # each with its lanes
    members = cache(bit_indices)  # the rows of a batch share most of their masks
    pseudo: dict[int, int] = {}  # lane mask -> its pseudo-index, n and up
    rows: LaneRows = []
    for u in range(n):
        held: dict[int, int] = {}  # support -> the lanes of the tensors whose row u holds it
        for tensor, lanes in tensors:
            for m in tensor[u]:
                held[m] = held.get(m, 0) | lanes
        rows.append([members(m) if lanes == every else members(m) + (pseudo.setdefault(lanes, n + len(pseudo)),)
                     for m, lanes in held.items()])
    return rows, list(pseudo)


def _sliced_run(
    rows: LaneRows, consts: list[int], n: int, tensors: int, width: int, bound: int, snapshots: int = 1
) -> tuple[list[int | None], dict[int, int], list[list[int]], Callable[[list[int]], list[int]]]:
    """Step the lanes of ``tensors`` tensors until each lane is resolved: it
    reaches [n], its group of ``width`` lanes closes as one of them matches a
    Brent snapshot, or the budget ``bound`` runs out (see the module docstring).

    With ``snapshots`` 0, for lanes that all reach [n], it takes no snapshot;
    otherwise it keeps a stack of that many. A run of one-lane groups with
    snapshots (:func:`analyze`'s) keeps S_1, ..., S_KEPT_STATES, the last in
    copy 0 alone. It returns, of the copy-0 lanes, the step at which each
    reached [n] (None if it did not) and those that matched a snapshot keyed
    by period, then the kept states and its step function.
    """
    lanes, copies = n * tensors, max(snapshots, 1)  # lanes of copy 0, the ones the caller reads
    low, every = (1 << lanes) - 1, (1 << lanes * copies) - 1
    group = (1 << width) - 1
    ends: list[int | None] = [None] * lanes
    periods: dict[int, int] = {}  # period -> copy-0 lanes that cycle with it
    kept: list[list[int]] = []
    live = every
    step = _vector_step(rows, consts)
    ones = every // ((1 << n) - 1)  # bit 0 of each tensor's lanes, in every copy
    R = step([ones << u for u in range(n)])
    snap, taken, k = None, [], 1  # the stack, and the step of each copy's snapshot, newest first
    while True:
        if snapshots and width == 1 and k <= KEPT_STATES:  # the last in copy 0 alone, as the pass steps on from it
            kept.append(R if k < KEPT_STATES else [r & low for r in R])
        full = live
        for r in R:
            if not full:
                break
            full &= r
        if full:
            for b in bit_indices(full & low):
                ends[b] = k
            live ^= full
        if snap is not None and (cycled := _same(live, R, snap)):
            hit = shut = 0  # the copy-0 lanes that matched a snapshot, and their groups
            for s in taken:
                if matched := cycled & low:
                    periods[k - s] = periods.get(k - s, 0) | matched
                    hit |= matched
                cycled >>= lanes
            while hit:  # the group of the highest hit lane, once
                shut |= group << (hit.bit_length() - 1) // width * width
                hit &= ~shut
            live &= ~(shut * (every // low))  # in every copy
        if not live or k == bound:
            return ends, periods, kept, step
        if snapshots and k & (k - 1) == 0:  # copy 0 takes S_k as the stack moves up a copy; S_1 fills it
            if k == 1 or copies == 1:
                snap, taken = R, [k] * copies
            else:
                snap, taken = [(s << lanes | r & low) & every for s, r in zip(snap, R)], [k, *taken[:-1]]
        R, k = step(R), k + 1


def _product(table: list[tuple[int, ...]], X: list[int]) -> list[int]:
    """The Boolean product of a jump table and lane masks: row u ORs the X[i] of ``table[u]``."""
    out = []
    for row in table:
        acc = 0
        for i in row:
            acc |= X[i]
        out.append(acc)
    return out


def _squared_ends(singles: list[int], bound: int) -> list[int | None]:
    """Each column's degree, or None above ``bound``, of a tensor whose rows
    hold only the singletons ``singles`` and whose majorization matrix is
    primitive, by Boolean repeated squaring (see the module docstring)."""
    n, full = len(singles), (1 << len(singles)) - 1
    tables: list[list[tuple[int, ...]]] = []  # jump tables of M, M^2, M^4, ... below the top power
    power = singles  # M^(2^len(tables)), the top power
    while 2 << len(tables) <= bound and power != [full] * n:
        tables.append(list(map(bit_indices, power)))
        power = _product(tables[-1], power)
    X, ends = [1 << u for u in range(n)], [1] * n  # every lane at S_0 = {j}
    for p in reversed(range(len(tables) + 1)):
        Y = _product(tables[p], X) if p < len(tables) else power  # the top jump from S_0 lands on the power
        jump = full & ~reduce(and_, Y)  # the lanes still not full after it
        X = [x ^ (x ^ y) & jump for x, y in zip(X, Y)]
        for j in bit_indices(jump):
            ends[j] += 1 << p
    return [k if k <= bound else None for k in ends]


def analyze(tensor: PatternTensor, max_steps: int | None = None) -> PrimitivityReport:
    """Decide primitivity by tracing every column at once; gamma = max over columns.

    Each outcome equals ``column_trace(tensor, j, max_steps).outcome``, with
    no column traced. The module docstring describes its three routes: the
    squaring, a run without the cycle test, and one with it that goes on to
    two budgets, followed by the pass that finds each cycle's start.
    """
    n = tensor.dim
    bound = default_bound(n) if max_steps is None else max_steps
    if bound < 1:
        raise ValueError(f"max_steps must be >= 1, got {bound}")
    cycles = not _majorization_primitive(tensor)  # else every column reaches [n]
    if cycles or any(fam.multis for fam in tensor.rows):
        rows = [list(map(bit_indices, fam.masks)) for fam in tensor.rows]  # canonical: no mask repeats
        stop = 2 * bound if cycles else bound  # a first repeat at step f matches a snapshot by 2f - 1
        ends, periods, kept, step = _sliced_run(
            rows, [], n, tensors=1, width=1, bound=stop, snapshots=SNAPSHOTS if cycles else 0
        )
        ends = [None if k is None or k > bound else k for k in ends]
    else:
        ends, periods = _squared_ends([fam.singles for fam in tensor.rows], bound), {}
    outcomes: list[Outcome | None] = [None if k is None else Reached(k) for k in ends]
    # The first k where column j's S_k equals its S_{k-period} is its first
    # repeat, at most the step of its snapshot match: a run that ended by
    # S_KEPT_STATES kept every state this reads.
    window: deque[list[int]] = deque(maxlen=max(periods, default=0) + 1)
    k = 0
    while periods and k < bound:
        R = kept[k] if k < len(kept) else step(R)
        k += 1
        window.append(R)
        for period, cols in list(periods.items()):
            if k > period and (same := _same(cols, R, window[-1 - period])):
                outcome = Cycled(first_repeat_at=k, period=period)
                for j in bit_indices(same):
                    outcomes[j] = outcome
                if cols == same:
                    del periods[period]
                else:
                    periods[period] = cols ^ same
    primitive = None not in ends
    return PrimitivityReport(
        primitive=primitive,
        gamma=max(ends) if primitive else None,  # type: ignore[type-var]
        gamma_by_column=tuple(ends),
        outcomes=tuple(o or Exhausted(bound) for o in outcomes),
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
        ends = _sliced_run(rows, consts, n, tensors=len(batch), width=n, bound=bound)[0]
        for t, lanes in zip(where, zip(*[iter(ends)] * n)):  # each tensor's n lane ends
            out[t] = None if None in lanes else max(lanes)  # type: ignore[type-var]
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
    every, bound, parts = (1 << len(extras)) - 1, default_bound(n), [255 << p for p in range(0, n, 8)]
    # bit w of holds[i]: extras[w] holds i, by one transpose of their bits, the last extra first
    holds = [int("".join(c), 2) for c in zip(*[format(e, f"0{n}b") for e in reversed(extras)])][::-1]
    lacks = cache(lambda part: every ^ reduce(or_, map(holds.__getitem__, bit_indices(part)), 0))  # extras meeting no member

    @cache
    def move(s: int) -> tuple[int, int]:  # s's successor, and the witnesses hit leaving s: all at [n], else those inside s
        return (nxt := step(s)), every if nxt == full else reduce(and_, map(lacks, map((full ^ s).__and__, parts)))

    states, hits = [1 << j for j in range(n)], [0] * n  # each column's S_{t-1} and the witnesses it hit
    out: list[int | None] = [None] * len(extras)
    done = t = 0
    while done != every and t < bound:
        t += 1
        states, leaving = zip(*map(move, states))
        hits = list(map(or_, hits, leaving))
        new = reduce(and_, hits, every) & ~done  # hit by every column, so resolved
        for w in bit_indices(new):
            out[w] = t
        done |= new
    return out


def _majorization_primitive(tensor: PatternTensor) -> bool:
    """Whether the majorization matrix is primitive, read as its reversed digraph
    (an arc j -> u for each singleton {j} of row u): strongly connected, with gcd
    1 over its arcs of level[j] + 1 - level[u], level[v] being v's distance from 1."""
    singles, full, level = [fam.singles for fam in tensor.rows], (1 << tensor.dim) - 1, [0] * tensor.dim
    for forwards in (False, True):  # the rows list in-arcs: backwards first, no transpose
        adj, seen, queue = transpose_masks(singles) if forwards else singles, 1, [0]
        for v in queue:
            for u in bit_indices(adj[v] & ~seen):
                level[u], seen = level[v] + 1, seen | 1 << u
                queue.append(u)
        if seen != full:
            return False
    return reduce(gcd, [level[j] + 1 - level[u] for u, row in enumerate(singles) for j in bit_indices(row)], 0) == 1


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
    primitive; an empty list proves nothing, while a primitive digraph
    proves the tensor primitive (:func:`_majorization_primitive`). ``gammas``
    settles the zero-out-degree case before its sliced run.
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
