import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import raw_states, raw_step
from primdeg import patterns
from primdeg.bitsets import bit_indices
from primdeg.patterns import gammas
from primdeg import (
    Cycled,
    Exhausted,
    IndexSet,
    PatternMatrix,
    PatternTensor,
    Reached,
    SupportFamily,
    analyze,
    check_necessary_conditions,
    column_states,
    column_trace,
    default_bound,
    degree_witness,
    gamma_j,
    majorization_pattern,
    make_pattern,
    monomial_lift,
    step,
    wielandt_matrix,
    wielandt_tensor,
)


@st.composite
def raw_pattern_inputs(draw, max_dim=5, max_order=4, min_entries=0, max_entries=12):
    dim = draw(st.integers(1, max_dim))
    order = draw(st.integers(2, max_order))
    count = draw(st.integers(min_entries, max_entries))
    entries = [
        (
            draw(st.integers(1, dim)),
            tuple(draw(st.integers(1, dim)) for _ in range(order - 1)),
        )
        for _ in range(count)
    ]
    return order, dim, entries


@st.composite
def covered_pattern_inputs(draw, max_dim=5, max_order=4):
    """Like raw_pattern_inputs but every row gets at least one entry."""
    dim = draw(st.integers(1, max_dim))
    order = draw(st.integers(2, max_order))
    entries = []
    for row in range(1, dim + 1):
        for _ in range(draw(st.integers(1, 3))):
            entries.append(
                (row, tuple(draw(st.integers(1, dim)) for _ in range(order - 1)))
            )
    return order, dim, entries


class TestMakePattern:
    def test_collapses_multisets_and_minimizes(self):
        t = make_pattern(3, 3, [(1, (2, 2)), (1, (2, 3))])
        assert [s.members for s in t.rows[0].sets] == [(2,)]
        assert len(t.rows[1]) == 0 and len(t.rows[2]) == 0

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            make_pattern(3, 3, [(1, (2,))])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_pattern(3, 3, [(4, (1, 1))])
        with pytest.raises(ValueError):
            make_pattern(3, 3, [(1, (1, 4))])

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError, match="order"):
            make_pattern(1, 3, [])

    def test_row_size_invariant_enforced(self):
        empty = SupportFamily.empty(4)
        fam = SupportFamily.from_masks(4, [0b1000, 0b0111])
        with pytest.raises(ValueError, match=r"^row 2 holds a support of size 3, limit is order-1 = 2$"):
            PatternTensor(3, 4, (empty, fam, empty, empty))
        pair = SupportFamily.from_masks(4, [0b0110])
        with pytest.raises(ValueError, match=r"^row 1 holds a support of size 2, limit is order-1 = 1$"):
            PatternTensor(2, 4, (pair, empty, empty, empty))
        PatternTensor(2, 4, (SupportFamily.of_singletons(4, 0b1111),) + (empty,) * 3)


class TestStep:
    def test_wielandt_example(self):
        a0 = wielandt_tensor(5, 5)
        assert step(a0, IndexSet.from_members([4], 5)).members == (1, 5)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            step(wielandt_tensor(3, 3), IndexSet.empty(4))

    def test_empty_state_maps_to_empty(self):
        assert step(wielandt_tensor(3, 3), IndexSet.empty(3)).is_empty

    @given(raw_pattern_inputs(), st.data())
    def test_matches_raw_entry_scan(self, raw, data):
        order, dim, entries = raw
        t = make_pattern(order, dim, entries)
        mask = data.draw(st.integers(0, (1 << dim) - 1))
        s = IndexSet(mask, dim)
        expected = raw_step(entries, frozenset(s.members))
        assert frozenset(step(t, s).members) == expected

    @given(raw_pattern_inputs(), st.data())
    def test_monotone(self, raw, data):
        order, dim, entries = raw
        t = make_pattern(order, dim, entries)
        small_mask = data.draw(st.integers(0, (1 << dim) - 1))
        extra = data.draw(st.integers(0, (1 << dim) - 1))
        small = IndexSet(small_mask, dim)
        big = IndexSet(small_mask | extra, dim)
        assert step(t, small).issubset(step(t, big))

    @given(covered_pattern_inputs())
    def test_full_absorbs_when_rows_nonempty(self, raw):
        order, dim, entries = raw
        t = make_pattern(order, dim, entries)
        assert step(t, IndexSet.full(dim)).is_full


class TestColumnTrace:
    def test_wielandt_column_reaches(self):
        tr = column_trace(wielandt_tensor(5, 5), 4)
        assert tr.outcome == Reached(13)
        assert tr.states[-1].is_full
        assert tr.states[11].members == (1, 2, 3, 4)
        assert len(tr.states) == 13

    def test_cycle_detected_with_repeat_recorded(self):
        t = monomial_lift(PatternMatrix.from_entries(3, [(1, 2), (2, 3), (3, 1)]), 2)
        tr = column_trace(t, 1)
        assert tr.outcome == Cycled(first_repeat_at=4, period=3)
        o = tr.outcome
        assert tr.states[o.first_repeat_at - 1] == tr.states[o.first_repeat_at - o.period - 1]
        assert not any(s.is_full for s in tr.states)

    def test_exhaustion_against_tiny_budget(self):
        tr = column_trace(wielandt_tensor(5, 5), 4, max_steps=5)
        assert tr.outcome == Exhausted(5)
        assert len(tr.states) == 5

    def test_default_budget_is_wielandt_bound(self):
        tr = column_trace(wielandt_tensor(6, 6), 5)
        assert isinstance(tr.outcome, Reached)
        assert tr.outcome.step <= default_bound(6) == 26

    def test_column_out_of_range(self):
        with pytest.raises(ValueError):
            column_trace(wielandt_tensor(3, 3), 4)
        with pytest.raises(ValueError):
            column_trace(wielandt_tensor(3, 3), 1, max_steps=0)

    def test_states_match_column_states_prefix(self):
        t = wielandt_tensor(4, 4)
        tr = column_trace(t, 3)
        assert tr.states == column_states(t, 3, len(tr.states))

    @given(raw_pattern_inputs(min_entries=1))
    def test_replay_confirms_cycle_period(self, raw):
        order, dim, entries = raw
        t = make_pattern(order, dim, entries)
        for j in range(1, dim + 1):
            tr = column_trace(t, j)
            if not isinstance(tr.outcome, Cycled):
                continue
            start = tr.outcome.first_repeat_at - tr.outcome.period
            replay = column_states(t, j, tr.outcome.first_repeat_at + tr.outcome.period)
            for i in range(start, len(replay) - tr.outcome.period):
                assert replay[i + tr.outcome.period - 1] == replay[i - 1]

    @given(raw_pattern_inputs())
    def test_identical_states_shift_identically(self, raw):
        order, dim, entries = raw
        t = make_pattern(order, dim, entries)
        horizon = default_bound(dim)
        orbits = {j: column_states(t, j, horizon) for j in range(1, dim + 1)}
        for i in range(1, dim + 1):
            for j in range(i, dim + 1):
                for a in range(horizon - 1):
                    for b in range(a, horizon - 1):
                        if orbits[i][a] == orbits[j][b]:
                            assert orbits[i][a + 1] == orbits[j][b + 1]


class TestGamma:
    def test_wielandt_columns(self):
        a0 = wielandt_tensor(5, 5)
        assert gamma_j(a0, 4) == 13
        assert gamma_j(a0, 5) == 17

    def test_absent_when_not_reached(self):
        t = monomial_lift(PatternMatrix.from_entries(3, [(1, 2), (2, 3), (3, 1)]), 3)
        assert gamma_j(t, 1) is None
        assert gamma_j(wielandt_tensor(5, 5), 5, max_steps=3) is None

    @given(raw_pattern_inputs(min_entries=1))
    def test_gamma_matches_raw_orbit(self, raw):
        order, dim, entries = raw
        t = make_pattern(order, dim, entries)
        horizon = default_bound(dim)
        full = frozenset(range(1, dim + 1))
        for j in range(1, dim + 1):
            orbit = raw_states(dim, entries, j, horizon)
            expected = next((k for k, s in enumerate(orbit, 1) if s == full), None)
            assert gamma_j(t, j) == expected


class TestAnalyze:
    def test_report_fields_on_primitive_input(self):
        r = analyze(wielandt_tensor(5, 5))
        assert r.primitive
        assert r.gamma == 17
        assert r.gamma_by_column == (16, 15, 14, 13, 17)
        assert r.gamma == max(r.gamma_by_column)
        assert r.bound == 17 == r.max_steps
        assert all(isinstance(t.outcome, Reached) for t in r.traces)

    def test_report_on_non_primitive_input(self):
        t = monomial_lift(PatternMatrix.from_entries(3, [(1, 2), (2, 3), (3, 1)]), 2)
        r = analyze(t)
        assert not r.primitive
        assert r.gamma is None
        assert r.gamma_by_column == (None, None, None)

    def test_budget_override_recorded(self):
        r = analyze(wielandt_tensor(5, 5), max_steps=4)
        assert not r.primitive
        assert r.max_steps == 4 and r.bound == 17

    def test_trace_states_replay_column_states(self):
        # Columns 1-3 walk a 3-cycle and columns 4-5 a 2-cycle; the supports
        # {1,2} and {4,5} never fit inside a one-index state.
        cycling = make_pattern(
            3,
            5,
            [(2, (1, 1)), (3, (2, 2)), (1, (3, 3)), (5, (4, 4)), (4, (5, 5)), (1, (1, 2)), (4, (4, 5))],
        )
        for t in (wielandt_tensor(3, 6), wielandt_tensor(4, 4), cycling):
            for j, tr in enumerate(analyze(t).traces):
                assert tr.states == column_states(t, j + 1, len(tr.states))
                assert tuple(s.mask for s in tr.states) == tr.masks
        periods = [tr.outcome.period for tr in analyze(cycling).traces]
        assert periods == [3, 3, 3, 2, 2]

    @given(covered_pattern_inputs())
    def test_primitive_iff_every_column_reaches(self, raw):
        order, dim, entries = raw
        r = analyze(make_pattern(order, dim, entries))
        reached = [isinstance(t.outcome, Reached) for t in r.traces]
        assert r.primitive == all(reached)
        if r.primitive:
            assert r.gamma == max(r.gamma_by_column)
            assert r.gamma <= default_bound(dim)
        else:
            assert r.gamma is None


@st.composite
def sparse_row_pattern_inputs(draw, max_dim=9, max_order=6):
    """Every row draws 0-3 entries, so empty rows are common but not the rule."""
    dim = draw(st.integers(1, max_dim))
    order = draw(st.integers(2, max_order))
    entries = [
        (row, tuple(draw(st.integers(1, dim)) for _ in range(order - 1)))
        for row in range(1, dim + 1)
        for _ in range(draw(st.integers(0, 3)))
    ]
    return order, dim, entries


def assert_matches_per_column_reference(t, max_steps):
    """analyze against column_trace run on every column with the same budget."""
    r = analyze(t, max_steps)
    ref = tuple(column_trace(t, j, max_steps).outcome for j in range(1, t.dim + 1))
    assert r.outcomes == ref
    gammas = tuple(o.step if isinstance(o, Reached) else None for o in ref)
    assert r.gamma_by_column == gammas
    assert r.primitive == all(g is not None for g in gammas)
    assert r.gamma == (max(gammas) if r.primitive else None)
    assert r.bound == default_bound(t.dim)
    assert r.max_steps == (default_bound(t.dim) if max_steps is None else max_steps)
    return r


class TestBitSlicedAnalyze:
    """The all-columns-at-once engine against the per-column reference."""

    @given(sparse_row_pattern_inputs())
    def test_every_budget_matches_reference(self, raw):
        t = make_pattern(*raw)
        for max_steps in (None, *range(1, default_bound(t.dim) + 2)):
            assert_matches_per_column_reference(t, max_steps)

    @given(sparse_row_pattern_inputs())
    def test_lazy_traces_agree_with_outcomes(self, raw):
        t = make_pattern(*raw)
        for max_steps in (None, 1, 3):
            r = analyze(t, max_steps)
            assert tuple(tr.outcome for tr in r.traces) == r.outcomes
            assert r.traces is r.traces

    def test_tails_and_several_periods(self):
        # arcs i -> u (row u holds {i}): a 3-cycle 1 2 3, a 2-cycle 4 5, the
        # tails 8 -> 6 -> 7 -> 1 and 10 -> 9 -> 4, and 13 -> 12 -> nothing,
        # so column 13 dies into the empty state and 11 starts there.
        arcs = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 4), (8, 6), (6, 7), (7, 1), (10, 9), (9, 4), (13, 12)]
        t = make_pattern(2, 13, [(u, (i,)) for i, u in arcs])
        r = assert_matches_per_column_reference(t, None)
        tails = {j: o.first_repeat_at - o.period for j, o in enumerate(r.outcomes, 1)}
        periods = {j: o.period for j, o in enumerate(r.outcomes, 1)}
        assert {j: periods[j] for j in (1, 4, 6, 8, 10, 11, 13)} == {1: 3, 4: 2, 6: 3, 8: 3, 10: 2, 11: 1, 13: 1}
        assert {j: tails[j] for j in (1, 6, 8, 10, 11, 13)} == {1: 1, 6: 2, 8: 3, 10: 2, 11: 1, 13: 2}
        for o in set(r.outcomes):
            # a budget equal to the first repeat, and one step below it
            assert_matches_per_column_reference(t, o.first_repeat_at)
            assert_matches_per_column_reference(t, o.first_repeat_at - 1)

    def test_coprime_cycles_with_multi_index_supports(self):
        # Cycles of lengths 2, 3, 5 and 7, each vertex also fed by a pair of
        # its cycle's other members, and a tail 18 -> 1 through a pair support.
        entries, base = [], 0
        for length in (2, 3, 5, 7):
            for a in range(length):
                u, v = base + a + 1, base + (a + 1) % length + 1
                entries += [(v, (u, u)), (v, (u, base + (a + 2) % length + 1))]
            base += length
        entries += [(1, (18, 18)), (18, (17, 1))]
        t = make_pattern(3, 18, entries)
        r = assert_matches_per_column_reference(t, None)
        assert {o.period for o in r.outcomes} == {2, 3, 5, 7}
        for max_steps in range(1, 40):
            assert_matches_per_column_reference(t, max_steps)

    def test_cycles_found_without_per_column_traces(self, monkeypatch):
        # Columns on coprime cycles summing to 100 never reach [n]; each gets
        # its certificate from the sliced run, long before the default budget.
        def no_trace(*args, **kwargs):
            raise AssertionError("column_trace called")

        monkeypatch.setattr(patterns, "column_trace", no_trace)
        entries, base = [], 0
        for length in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            entries += [(base + (a + 1) % length + 1, (base + a + 1,) * 2) for a in range(length)]
            base += length
        entries += [(u, (u % 100 + 1, (u + 1) % 100 + 1)) for u in range(1, 101)]
        r = analyze(make_pattern(3, 100, entries))
        lengths = [length for length in (2, 3, 5, 7, 11, 13, 17, 19, 23) for _ in range(length)]
        assert r.outcomes == tuple(Cycled(first_repeat_at=p + 1, period=p) for p in lengths)

    def test_wielandt_lift_at_the_dimension_cap(self):
        n = 128
        r = analyze(wielandt_tensor(3, n))
        assert r.primitive and r.gamma == (n - 1) ** 2 + 1 == 16130
        # column j < n reaches one step sooner than column j - 1; column n is last
        assert r.gamma_by_column == tuple(16130 - j for j in range(1, n)) + (16130,)
        assert r.outcomes == tuple(Reached(g) for g in r.gamma_by_column)


def row_masks(t):
    return [f.masks for f in t.rows]


def traced_gamma(t):
    """gamma from one ``column_trace`` per column, outside the sliced run: the
    last step at which a column reached [n], or None if one did not."""
    outcomes = [column_trace(t, j).outcome for j in range(1, t.dim + 1)]
    steps = [o.step if isinstance(o, Reached) else None for o in outcomes]
    return None if None in steps else max(steps)


def assert_gammas_match_analyze(tensors):
    """gammas, one call per dimension on the tensors' row masks, against one
    analyze per tensor and the per-column traces, in input order."""
    got = {}
    for n in {t.dim for t in tensors}:
        where = [i for i, t in enumerate(tensors) if t.dim == n]
        got.update(zip(where, gammas(n, [row_masks(tensors[i]) for i in where])))
    expected = [traced_gamma(t) for t in tensors]
    assert [got[i] for i in range(len(tensors))] == expected
    assert [analyze(t).gamma for t in tensors] == expected


@st.composite
def raw_mask_batches(draw, max_dim=9, max_order=6, max_tensors=12):
    """Tensors of one dimension as raw row masks, the way a caller may hand
    them to ``gammas``: unminimized, in any order, with duplicates, supersets
    and empty rows. Each comes with its order, which bounds its support size."""
    dim = draw(st.integers(1, max_dim))
    batch = []
    for _ in range(draw(st.integers(1, max_tensors))):
        order = draw(st.integers(2, max_order))

        def support():
            m = draw(st.integers(1, (1 << dim) - 1))
            while m.bit_count() >= order:
                m &= m - 1  # drop the lowest member
            return m

        rows = []
        for _ in range(dim):
            masks = [support() for _ in range(draw(st.integers(0, 3)))]
            if masks and draw(st.booleans()):
                m = draw(st.sampled_from(masks))
                grown = m | 1 << draw(st.integers(0, dim - 1))
                masks += [m, grown if grown.bit_count() < order else m]
            rows.append(draw(st.permutations(masks)))
        batch.append((order, rows))
    return dim, batch


def entries_of(rows, order):
    """make_pattern cells for raw row masks: members ascending, the last repeated."""
    for u, masks in enumerate(rows, start=1):
        for m in masks:
            members = [i + 1 for i in range(m.bit_length()) if m >> i & 1]
            yield u, members + members[-1:] * (order - 1 - len(members))


class TestBatchGammas:
    """The batch engine against one ``analyze`` per tensor, and both against
    gammas read from ``column_trace``, which does not use the sliced run."""

    @given(raw_mask_batches())
    def test_raw_row_masks(self, drawn):
        dim, batch = drawn
        tensors = [make_pattern(order, dim, entries_of(rows, order)) for order, rows in batch]
        expected = [traced_gamma(t) for t in tensors]
        assert gammas(dim, [rows for _, rows in batch]) == expected
        assert [analyze(t).gamma for t in tensors] == expected

    @settings(max_examples=200)
    @given(st.lists(sparse_row_pattern_inputs(), min_size=1, max_size=40))
    def test_mixed_batches(self, raws):
        # dims 1-9 and orders 2-6, with empty rows, one gammas call per dim
        assert_gammas_match_analyze([make_pattern(*raw) for raw in raws])

    @given(st.lists(covered_pattern_inputs(max_dim=4), min_size=1, max_size=40))
    def test_batches_with_every_row_covered(self, raws):
        assert_gammas_match_analyze([make_pattern(*raw) for raw in raws])

    def test_all_primitive_batch(self):
        # every degree at dims 3-5, and Wielandt lifts
        tensors = [degree_witness(n, n, g)[0] for n in (3, 4, 5) for g in range(1, default_bound(n) + 1)]
        tensors += [wielandt_tensor(3, n) for n in (6, 7)]
        assert_gammas_match_analyze(tensors)
        assert None not in [analyze(t).gamma for t in tensors]

    def test_budget_runs_out(self, monkeypatch):
        # a 3-cycle at dim 3 first matches a snapshot at step 7, after the
        # default budget of 5 steps, so the budget decides it
        calls = []
        real_step = patterns._sliced_step
        monkeypatch.setattr(patterns, "_sliced_step", lambda rows, R: calls.append(1) or real_step(rows, R))
        rot = make_pattern(2, 3, [(u, (u % 3 + 1,)) for u in (1, 2, 3)])
        assert gammas(3, [row_masks(rot)]) == [None]
        assert len(calls) == default_bound(3)
        assert analyze(rot).gamma is None

    def test_one_tensor_batches(self):
        assert gammas(30, [row_masks(wielandt_tensor(3, 30))]) == [default_bound(30)]
        assert gammas(1, [[[1]]]) == [1]
        assert gammas(1, [[[]]]) == [None]

    def test_results_in_input_order_across_chunks(self):
        # three chunks of one dimension, each tensor a witness of its own
        # degree; the input may be a generator
        witnesses = {g: row_masks(degree_witness(5, 5, g)[0]) for g in range(1, default_bound(5) + 1)}
        degrees = [1 + (7 * i) % default_bound(5) for i in range(2 * patterns.GAMMA_CHUNK + 5)]
        assert gammas(5, (witnesses[g] for g in degrees)) == degrees

    def test_empty_input(self):
        assert gammas(3, []) == []
        assert gammas(3, iter(())) == []

    def test_masks_outside_the_dimension_are_rejected(self):
        # 0 is no support, and bit n would read a pseudo-index's entry
        for bad in (0, 1 << 3, -1):
            with pytest.raises(ValueError, match="outside"):
                gammas(3, [[[1], [2], [4]], [[1], [bad], [4]]])
        with pytest.raises(ValueError):
            gammas(3, [[[1], [2]]])  # a row short
        with pytest.raises(ValueError):
            gammas(0, [])

    def test_cycles_stop_the_batch_early(self, monkeypatch):
        # two non-primitive tensors cycling at periods 2 and 3: the batch
        # stops within a few steps of the second one's detection, not at the
        # default budget of their dimension
        calls = []
        real_step = patterns._sliced_step
        monkeypatch.setattr(patterns, "_sliced_step", lambda rows, R: calls.append(1) or real_step(rows, R))
        swap = make_pattern(2, 40, [(u, (u % 2 + 1,)) for u in (1, 2)] + [(u, (1,)) for u in range(3, 41)])
        rot = make_pattern(2, 40, [(u, (u % 3 + 1,)) for u in (1, 2, 3)] + [(u, (1,)) for u in range(4, 41)])
        assert gammas(40, [row_masks(swap), row_masks(rot)]) == [None, None]
        assert len(calls) <= 8 < default_bound(40)


def cell_of(members, order):
    return tuple(members + members[-1:] * (order - 1 - len(members)))


@st.composite
def growing_base(draw, dim, order):
    """Cells of an n-cycle with a few chords, the odd arc dropped (so rows may
    be empty), and a few random cells; its column states tend to grow."""
    perm = draw(st.permutations(range(1, dim + 1)))
    arcs = [(perm[i - 1], perm[i]) for i in range(dim)]
    arcs += [(draw(st.integers(1, dim)), draw(st.integers(1, dim))) for _ in range(draw(st.integers(0, 3)))]
    entries = [(u, cell_of([i], order)) for i, u in arcs if draw(st.integers(0, 7))]
    for _ in range(draw(st.integers(0, 3))):
        entries.append((draw(st.integers(1, dim)), tuple(draw(st.integers(1, dim)) for _ in range(order - 1))))
    return entries


@st.composite
def support_from_an_orbit(draw, entries, dim, order):
    """2..order-1 members taken from a state of the base's orbits that has
    two or more, so the support fires; any members if no state has two."""
    base = make_pattern(order, dim, entries)
    states = column_states(base, draw(st.integers(1, dim)), draw(st.integers(1, 2 * dim)))
    big = [s.members for s in states if len(s.members) >= 2]
    pool = list(draw(st.sampled_from(big))) if big else list(range(1, dim + 1))
    size = draw(st.integers(2, min(order - 1, len(pool))))
    return draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True))


@st.composite
def planted_support_inputs(draw, max_dim=9, max_order=6):
    """A tensor of order 3-6 and dim 2-9 with one multi-index support planted
    in 2..n rows, and the support's mask. The rows are chosen, where two or
    more allow it, among those whose singletons do not absorb the support."""
    dim = draw(st.integers(2, max_dim))
    order = draw(st.integers(3, max_order))
    entries = draw(growing_base(dim, order))
    members = draw(support_from_an_orbit(entries, dim, order))
    free = [u for u in range(1, dim + 1) if not any(v == u and set(c) <= set(members) for v, c in entries)]
    rows = free if len(free) >= 2 else range(1, dim + 1)
    holders = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=len(rows), unique=True))
    entries += [(u, draw(st.permutations(cell_of(members, order)))) for u in holders]
    return (order, dim, entries), sum(1 << (i - 1) for i in members)


@st.composite
def planted_support_batches(draw, max_dim=9, max_tensors=8):
    """Tensors of order 3-6 and one dim 2-9 as raw row masks, where some of
    them, not all when there are two or more, hold one support in the same
    2..n rows, so those rows share it with its pseudo-index. The support
    comes from an orbit of the first tensor that holds it."""
    dim = draw(st.integers(2, max_dim))
    order = draw(st.integers(3, 6))
    count = draw(st.integers(1, max_tensors))
    holding = draw(st.lists(st.booleans(), min_size=count, max_size=count).filter(
        lambda h: any(h) and (count == 1 or not all(h))))
    bases = [draw(growing_base(dim, order)) for _ in range(count)]
    members = draw(support_from_an_orbit(bases[holding.index(True)], dim, order))
    planted = sum(1 << (i - 1) for i in members)
    holder_rows = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=dim, unique=True))
    batch = []
    for holds, entries in zip(holding, bases):
        rows = [[] for _ in range(dim)]
        for u, c in entries:
            m = sum(1 << (i - 1) for i in set(c))
            if m != planted:  # only the holders' rows hold it
                rows[u - 1].append(m)
        if holds:
            for u in holder_rows:
                rows[u].insert(draw(st.integers(0, len(rows[u]))), planted)
        batch.append((order, rows))
    return dim, batch


class TestSharedSupports:
    """A multi-index support that several rows hold is met once per step into
    one more ``R`` entry; both engines must still agree with ``column_trace``."""

    @given(planted_support_inputs())
    def test_analyze_matches_reference_at_every_budget(self, drawn):
        raw, planted = drawn
        t = make_pattern(*raw)
        if sum(planted in fam.masks for fam in t.rows) >= 2:  # not dominated away
            (shared, _), _ = patterns._lane_rows(t.dim, [row_masks(t)])
            assert bit_indices(planted) in shared
        for max_steps in (None, *range(1, default_bound(t.dim) + 2)):
            assert_matches_per_column_reference(t, max_steps)

    @settings(max_examples=200)
    @given(planted_support_batches())
    def test_gammas_when_only_some_tensors_hold_it(self, drawn):
        dim, batch = drawn
        (shared, _), _ = patterns._lane_rows(dim, [rows for _, rows in batch])
        assert shared
        tensors = [make_pattern(order, dim, entries_of(rows, order)) for order, rows in batch]
        assert gammas(dim, [rows for _, rows in batch]) == [traced_gamma(t) for t in tensors]

    def test_tails_and_periods_through_a_shared_pair(self):
        # {2,4} in every row: column 1 reaches [n] through it, the others
        # cycle with periods 1 and 2 behind tails of one and two steps
        entries = [(2, (1, 1)), (2, (6, 6)), (3, (4, 4)), (3, (6, 6)), (4, (1, 1)), (4, (5, 5)), (5, (4, 4))]
        t = make_pattern(3, 6, entries + [(u, (2, 4)) for u in range(1, 7)])
        (shared, _), _ = patterns._lane_rows(6, [row_masks(t)])
        assert shared == ((1, 3),)
        r = assert_matches_per_column_reference(t, None)
        assert r.outcomes == (
            Reached(2), Cycled(2, 1), Cycled(2, 1), Cycled(3, 2), Cycled(3, 2), Cycled(3, 1)
        )
        for max_steps in range(1, 5):
            assert_matches_per_column_reference(t, max_steps)

    def test_frontier_witness_support_is_met_once(self):
        # the extra support {1,6} of the degree-7 witness stays in the four
        # rows whose singletons do not absorb it; in a batch with the Wielandt
        # lift, which lacks it, those rows share it with its pseudo-index
        n = 6
        w = degree_witness(n, n, 7)[0]
        held = [u for u, fam in enumerate(w.rows) if 0b100001 in fam.masks]
        assert held == [2, 3, 4, 5]
        batch = [row_masks(w), row_masks(wielandt_tensor(n, n))]
        (shared, rows), consts = patterns._lane_rows(n, batch)
        assert shared == ((0, 5, n),) and consts == [(1 << n) - 1]
        assert [u for u, (singles, _) in enumerate(rows) if n + 1 in singles] == held
        assert not any(multis for _, multis in rows)
        assert gammas(n, batch) == [7, 26]
        assert analyze(w).gamma == traced_gamma(w) == 7

    def test_step_leaves_its_input_alone(self):
        t = degree_witness(5, 5, 12)[0]
        rows, _ = patterns._lane_rows(5, [row_masks(t)])
        R = [1 << u for u in range(5)]
        patterns._sliced_step(rows, R)
        assert R == [1 << u for u in range(5)]


class TestNecessaryConditions:
    def test_identity_lift_violates_everywhere(self):
        ident = PatternMatrix.from_entries(3, [(1, 1), (2, 2), (3, 3)])
        violations = check_necessary_conditions(monomial_lift(ident, 3))
        codes = [(v.code, v.vertex) for v in violations]
        assert ("self-loop-only", 1) in codes
        assert ("self-loop-only", 2) in codes
        assert ("self-loop-only", 3) in codes
        assert ("no-branching", None) in codes

    def test_zero_column_reported(self):
        t = make_pattern(3, 3, [(1, (2, 2)), (2, (1, 1)), (3, (1, 2))])
        codes = {(v.code, v.vertex) for v in check_necessary_conditions(t)}
        assert ("zero-out-degree", 3) in codes

    def test_clean_on_wielandt(self):
        assert check_necessary_conditions(wielandt_tensor(6, 6)) == []

    @given(raw_pattern_inputs())
    def test_violations_certify_non_primitivity(self, raw):
        order, dim, entries = raw
        t = make_pattern(order, dim, entries)
        if check_necessary_conditions(t):
            assert not analyze(t).primitive


class TestMajorizationPattern:
    def test_round_trip_through_lift(self):
        m = wielandt_matrix(6)
        assert majorization_pattern(monomial_lift(m, 4)) == m

    def test_only_singletons_contribute(self):
        t = make_pattern(3, 3, [(1, (2, 3)), (2, (1, 1)), (3, (2, 2))])
        m = majorization_pattern(t)
        assert m.rows[0].is_empty
        assert m.rows[1].members == (1,)
        assert m.rows[2].members == (2,)
