import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import raw_states, raw_step
from primdeg import patterns
from primdeg.bitsets import bit_indices
from primdeg.patterns import extra_support_gammas, gammas
from primdeg import (
    Cycled,
    Exhausted,
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
        empty = SupportFamily(4, ())
        fam = SupportFamily.from_masks(4, [0b1000, 0b0111])
        with pytest.raises(ValueError, match=r"^row 2 holds a support of size 3, limit is order-1 = 2$"):
            PatternTensor(3, 4, (empty, fam, empty, empty))
        pair = SupportFamily.from_masks(4, [0b0110])
        with pytest.raises(ValueError, match=r"^row 1 holds a support of size 2, limit is order-1 = 1$"):
            PatternTensor(2, 4, (pair, empty, empty, empty))
        PatternTensor(2, 4, (SupportFamily.of_singletons(4, 0b1111),) + (empty,) * 3)


class TestStep:
    """``patterns._step_mask``: a state mask in, the mask of the rows with a
    support inside it out."""

    def test_wielandt_example(self):
        # {4} -> {1, 5}
        assert patterns._step_mask(wielandt_tensor(5, 5), 0b01000) == 0b10001

    def test_empty_state_maps_to_empty(self):
        assert patterns._step_mask(wielandt_tensor(3, 3), 0) == 0

    @given(raw_pattern_inputs(), st.data())
    def test_matches_raw_entry_scan(self, raw, data):
        order, dim, entries = raw
        t = make_pattern(order, dim, entries)
        mask = data.draw(st.integers(0, (1 << dim) - 1))
        expected = raw_step(entries, frozenset(i + 1 for i in bit_indices(mask)))
        assert patterns._step_mask(t, mask) == sum(1 << (u - 1) for u in expected)

    @given(raw_pattern_inputs(), st.data())
    def test_monotone(self, raw, data):
        order, dim, entries = raw
        t = make_pattern(order, dim, entries)
        small = data.draw(st.integers(0, (1 << dim) - 1))
        big = small | data.draw(st.integers(0, (1 << dim) - 1))
        out = patterns._step_mask(t, small)
        assert out & patterns._step_mask(t, big) == out

    @given(covered_pattern_inputs())
    def test_full_absorbs_when_rows_nonempty(self, raw):
        order, dim, entries = raw
        t = make_pattern(order, dim, entries)
        full = (1 << dim) - 1
        assert patterns._step_mask(t, full) == full


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
        assert column_trace(wielandt_tensor(5, 5), 5, max_steps=3).outcome == Exhausted(3)

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
        # the run resolves by step 55, before it would compile, and the
        # cycle-start pass reads the states the run kept: 55 steps in all
        compiled, steps = [], []
        real, table_step = patterns._compile_step, patterns._sliced_step
        monkeypatch.setattr(patterns, "_compile_step", lambda rows: compiled.append(1) or real(rows))
        monkeypatch.setattr(patterns, "_sliced_step", lambda rows, R: steps.append(1) or table_step(rows, R))
        entries, base = [], 0
        for length in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            entries += [(base + (a + 1) % length + 1, (base + a + 1,) * 2) for a in range(length)]
            base += length
        entries += [(u, (u % 100 + 1, (u + 1) % 100 + 1)) for u in range(1, 101)]
        r = analyze(make_pattern(3, 100, entries))
        lengths = [length for length in (2, 3, 5, 7, 11, 13, 17, 19, 23) for _ in range(length)]
        assert r.outcomes == tuple(Cycled(first_repeat_at=p + 1, period=p) for p in lengths)
        assert compiled == [] and len(steps) == 55

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

    def test_batches_step_on_the_table(self, monkeypatch):
        # gammas never compiles, even for one tensor running past the swap
        monkeypatch.setattr(patterns, "_compile_step", None)
        assert gammas(30, [row_masks(wielandt_tensor(3, 30))]) == [default_bound(30)]

    def test_one_tensor_batches(self):
        assert gammas(30, [row_masks(wielandt_tensor(3, 30))]) == [default_bound(30)]
        assert gammas(1, [[[1]]]) == [1]
        assert gammas(1, [[[]]]) == [None]

    def test_results_in_input_order_across_chunks(self):
        # three chunks of one dimension, each tensor a witness of its own
        # degree; the input may be a generator
        witnesses = {g: row_masks(degree_witness(5, 5, g)[0]) for g in range(1, default_bound(5) + 1)}
        degrees = [1 + (7 * i) % default_bound(5) for i in range(2 * (patterns.GAMMA_LANES // 5) + 5)]
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

    def test_the_batch_build_takes_each_masks_members_once(self, monkeypatch):
        # scan-sized batches whose 2,560 or so row masks come from a pool of
        # 55: each build reads the members of a distinct mask once
        calls = []
        real = patterns.bit_indices
        monkeypatch.setattr(patterns, "bit_indices", lambda m: calls.append(m) or real(m))
        rng = random.Random(0)
        pool = [m for m in range(1, 1 << 10) if m.bit_count() <= 2]
        for size in (1, 2, 128):
            batch = [[rng.sample(pool, rng.randint(1, 3)) for _ in range(10)] for _ in range(size)]
            calls.clear()
            patterns._lane_rows(10, batch)
            assert calls
            assert len(calls) == len(set(calls)) <= len({m for rows in batch for masks in rows for m in masks})

    def test_cycles_stop_the_batch_early(self, monkeypatch):
        # two permutation tensors cycling at periods 2 and 3, which hold every
        # singleton support and so reach the run: the batch stops within a few
        # steps of the second one's detection, not at the default budget of
        # their dimension
        calls = []
        real_step = patterns._sliced_step
        monkeypatch.setattr(patterns, "_sliced_step", lambda rows, R: calls.append(1) or real_step(rows, R))
        swap = make_pattern(2, 40, [(u, (u + 1 if u % 2 else u - 1,)) for u in range(1, 41)])
        rot = make_pattern(2, 40, [(u, (u + 1 if u % 3 else u - 2,)) for u in range(1, 40)] + [(40, (40,))])
        assert gammas(40, [row_masks(swap), row_masks(rot)]) == [None, None]
        assert 1 <= len(calls) <= 8 < default_bound(40)


@st.composite
def covered_mask_batches(draw, max_dim=9, max_order=6, max_tensors=12):
    """``raw_mask_batches`` with the singleton {j} planted in a drawn row for
    every column j, so every tensor gets past step 1 to the sliced run."""
    dim, batch = draw(raw_mask_batches(max_dim, max_order, max_tensors))
    for _, rows in batch:
        for j in range(dim):
            u = draw(st.integers(0, dim - 1))
            rows[u] = [*rows[u], 1 << j]
    return dim, batch


def count_calls(monkeypatch, name):
    """Wrap ``patterns.<name>`` so that each call appends its arguments to the returned list."""
    calls, real = [], getattr(patterns, name)
    monkeypatch.setattr(patterns, name, lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


def covers(rows, n):
    return sum({m for masks in rows for m in masks if m.bit_count() == 1}) == (1 << n) - 1


class TestGammasScreen:
    """``gammas`` checks every tensor, and gives None without a sliced run to
    one in which some column is no row's singleton support (S_1 is empty)."""

    PASSES = [[1], [2], [4]]  # a 3-cycle of singletons: every column covered
    FAILS = [[1], [1], [1]]  # columns 2 and 3 are no row's singleton support

    @pytest.mark.parametrize("tensor", [PASSES, FAILS], ids=["passes", "fails"])
    @pytest.mark.parametrize("bad", [0, 1 << 3])
    def test_a_mask_outside_the_range_raises_either_way(self, tensor, bad):
        rows = [[*tensor[0], bad], *tensor[1:]]
        for batch in ([rows], [self.PASSES, rows], [rows, self.FAILS]):
            with pytest.raises(ValueError, match=r"row 1 holds mask .*, outside 1\.\.2\^3-1"):
                gammas(3, batch)

    @pytest.mark.parametrize("tensor", [[[1, 2, 4], [1]], [[1], [1]]], ids=["covers", "fails"])
    def test_a_missing_row_raises_either_way(self, tensor):
        for batch in ([tensor], [self.PASSES, tensor], [tensor, self.FAILS]):
            with pytest.raises(ValueError, match="expected 3 rows"):
                gammas(3, batch)

    def test_a_batch_that_fails_the_screen_never_reaches_the_run(self, monkeypatch):
        runs, builds = count_calls(monkeypatch, "_sliced_run"), count_calls(monkeypatch, "_lane_rows")
        swap = make_pattern(2, 40, [(u, (u % 2 + 1,)) for u in (1, 2)] + [(u, (1,)) for u in range(3, 41)])
        batch = [self.FAILS] * 300 + [[[1, 6], [2], [3, 6]]]
        assert gammas(3, batch) == [None] * len(batch)
        assert gammas(40, [row_masks(swap)] * 5) == [None] * 5
        assert runs == builds == []

    @pytest.mark.parametrize("lanes", [1, 8, 12, 20])
    def test_survivors_fill_chunks_across_boundaries(self, monkeypatch, lanes):
        # chunks of 1, 2, 3 and 5 survivors at n = 4 over a mixed batch
        monkeypatch.setattr(patterns, "GAMMA_LANES", lanes)
        rng = random.Random(5)
        tensors = [degree_witness(4, 4, g)[0] for g in range(1, default_bound(4) + 1)]
        pool = [m for m in range(1, 16) if m.bit_count() <= 2]
        rows = [[rng.sample(pool, rng.randint(1, 3)) for _ in range(4)] for _ in range(40)]
        for r in rows[:20]:  # these get past step 1
            for j in range(4):
                r[rng.randrange(4)].append(1 << j)
        tensors += [make_pattern(3, 4, entries_of(r, 3)) for r in rows]
        rng.shuffle(tensors)
        batch = [row_masks(t) for t in tensors]
        survivors = [rows for rows in batch if covers(rows, 4)]
        assert 10 < len(survivors) < len(batch)
        builds = count_calls(monkeypatch, "_lane_rows")
        assert gammas(4, batch) == [traced_gamma(t) for t in tensors]
        size = max(1, lanes // 4)
        assert [len(chunk) for _, chunk in builds] == [
            min(size, len(survivors) - k) for k in range(0, len(survivors), size)
        ]
        assert [list(rows) for _, chunk in builds for rows in chunk] == survivors

    def test_the_input_is_drawn_lazily(self, monkeypatch):
        # chunks of two survivors at n = 3: each runs as soon as it is full,
        # before the next tensor is drawn, and a failure in the input reaches
        # the caller after the chunks drawn before it ran
        monkeypatch.setattr(patterns, "GAMMA_LANES", 6)
        drawn, at_build = [], []
        real = patterns._lane_rows
        monkeypatch.setattr(patterns, "_lane_rows", lambda n, batch: at_build.append(len(drawn)) or real(n, batch))

        def tensors(k):
            for tensor in [self.PASSES, self.FAILS, self.PASSES, self.FAILS, self.FAILS, self.PASSES, self.PASSES][:k]:
                drawn.append(tensor)
                yield tensor
            raise RuntimeError(f"input fails after {k} tensors")

        with pytest.raises(RuntimeError, match="after 7"):
            gammas(3, tensors(7))
        assert at_build == [3, 7]
        drawn.clear()
        at_build.clear()
        with pytest.raises(RuntimeError, match="after 6"):
            gammas(3, tensors(6))
        assert at_build == [3]

    @settings(max_examples=150)
    @given(covered_mask_batches())
    def test_covered_tensors_reach_the_run(self, drawn):
        # gammas against analyze against the per-column traces, at dims 1-9
        # and orders 2-6, with every tensor in a chunk
        dim, batch = drawn
        tensors = [make_pattern(order, dim, entries_of(rows, order)) for order, rows in batch]
        expected = [traced_gamma(t) for t in tensors]
        with pytest.MonkeyPatch.context() as monkeypatch:
            builds = count_calls(monkeypatch, "_lane_rows")
            assert gammas(dim, [rows for _, rows in batch]) == expected
        assert sum(len(chunk) for _, chunk in builds) == len(batch)
        assert [analyze(t).gamma for t in tensors] == expected


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
        patterns._compile_step(rows)(R)
        assert R == [1 << u for u in range(5)]


@st.composite
def extra_support_inputs(draw, max_dim=9, max_order=6, unshared=False):
    """A base of order 2-6 and dim 1-9 as raw row masks, empty rows allowed,
    and the extras to add to every one of its rows: supports drawn from its
    states, random ones, singletons, ones that never fire, repeats, and at
    times over a hundred of them.

    With ``unshared`` the base is up to three disjoint cycles of 1-4 indices,
    each index holding itself and its successor, plus a few random supports.
    Until one of those fires, column j's state is the arc of its cycle that
    ends at j, one index longer each step, so no two columns share a state
    before their cycle fills and the walk's memo saves almost nothing."""
    order = draw(st.integers(2, max_order))

    def trim(m):
        while m.bit_count() >= order:
            m &= m - 1  # drop the lowest member
        return m

    if unshared:
        lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        dim = sum(lengths)
        perm = draw(st.permutations(range(dim)))
        base = [[] for _ in range(dim)]
        for k, length in enumerate(lengths):
            cycle = perm[sum(lengths[:k]):sum(lengths[:k + 1])]
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                base[u] += [1 << u, 1 << v]
        for _ in range(draw(st.integers(0, 2))):
            base[draw(st.integers(0, dim - 1))].append(trim(draw(st.integers(1, (1 << dim) - 1))))
    else:
        dim = draw(st.integers(1, max_dim))
        base = [[] for _ in range(dim)]
        if draw(st.booleans()):
            for u, cell in draw(growing_base(dim, order)):
                base[u - 1].append(sum(1 << (i - 1) for i in set(cell)))
        else:
            for row in base:
                row += [trim(draw(st.integers(1, (1 << dim) - 1))) for _ in range(draw(st.integers(0, 3)))]
    states = [1 << draw(st.integers(0, dim - 1))]
    for _ in range(draw(st.integers(0, 2 * dim))):
        s = states[-1]
        states.append(sum(1 << u for u, row in enumerate(base) if any(m & s == m for m in row)))
    pool = [trim(s) for s in states if s]
    pool += [trim(draw(st.integers(1, (1 << dim) - 1))), 1 << draw(st.integers(0, dim - 1))]
    empty = [u for u, row in enumerate(base) if not row]
    if empty and dim >= 2 and order >= 3:
        # an empty row is in no S_t with t >= 1, and S_0 is a singleton
        u = draw(st.sampled_from(empty))
        pool.append(1 << u | 1 << (u + 1) % dim)
    extras = draw(st.lists(st.sampled_from(pool), max_size=12))
    if extras and not draw(st.integers(0, 7)):
        extras = draw(st.permutations(extras * (128 // len(extras) + 1)))
    return order, dim, base, extras


def tensor_of(order, dim, rows):
    """The PatternTensor whose row u holds the supports ``rows[u-1]``."""
    return PatternTensor(order, dim, tuple(SupportFamily.from_masks(dim, masks) for masks in rows))


def record_steps(monkeypatch):
    """Every state ``_step_mask`` is called on, in call order."""
    stepped = []
    real_step = patterns._step_mask
    monkeypatch.setattr(patterns, "_step_mask", lambda t, s: stepped.append(s) or real_step(t, s))
    return stepped


class TestExtraSupportGammas:
    """One walk of a base's column orbits, read by containment tests, against
    ``gammas`` on the raw rows with the extra support added to every row."""

    @staticmethod
    def assert_matches_gammas(drawn):
        order, dim, base, extras = drawn
        expected = gammas(dim, ([[*row, e] for row in base] for e in extras))
        assert extra_support_gammas(tensor_of(order, dim, base), extras) == expected

    @settings(max_examples=300)
    @given(extra_support_inputs())
    def test_matches_gammas_on_the_built_tensors(self, drawn):
        self.assert_matches_gammas(drawn)

    @settings(max_examples=150)
    @given(extra_support_inputs(unshared=True))
    def test_matches_gammas_when_columns_share_no_state(self, drawn):
        self.assert_matches_gammas(drawn)

    def test_one_step_per_distinct_base_state(self, monkeypatch):
        # the degree 6, 7 and 8 frontier witnesses at n = 5, 261 of them,
        # resolve at step 8; the walk steps each state
        # of S_0..S_7 of every column once, though most are held by several
        n = 5
        base = wielandt_tensor(n, n)
        states = [s.mask for s in column_states(base, n - 1, 3)]
        ks = [1 + i % 3 for i in range(261)]
        orbits = [[1 << j - 1, *(s.mask for s in column_states(base, j, n + 2))] for j in range(1, n + 1)]
        stepped = record_steps(monkeypatch)
        assert extra_support_gammas(base, [states[k - 1] for k in ks]) == [n + k for k in ks]
        assert sorted(stepped) == sorted({s for orbit in orbits for s in orbit})
        assert len(stepped) < sum(map(len, orbits))

    def test_a_step_per_column_step_when_no_state_is_shared(self, monkeypatch):
        # on an n-cycle with self-loops column j's S_t is the arc of t+1
        # indices ending at j: the columns share no state before [n] at n-1
        n = 6
        base = make_pattern(2, n, [(u, (v,)) for u in range(1, n + 1) for v in (u, u % n + 1)])
        extras = [(1 << n) - 1, 0b101, 1]
        expected = gammas(n, ([[*fam.masks, e] for fam in base.rows] for e in extras))
        stepped = record_steps(monkeypatch)
        assert extra_support_gammas(base, extras) == expected
        assert len(set(stepped)) == len(stepped) == n * (n - 1)

    def test_an_open_witness_walks_to_the_bound(self, monkeypatch):
        # {1,2} never fires on the 3-cycle, whose columns never reach [n];
        # the walk runs to the bound, stepping each of its 3 states once
        stepped = record_steps(monkeypatch)
        assert extra_support_gammas(tensor_of(2, 3, [[2], [4], [1]]), [3]) == [None]
        assert sorted(stepped) == [1, 2, 4]

    def test_extras_that_fire_at_once_or_never(self):
        # {j} is S_0 of column j, so a singleton extra fires before the first
        # step: on the 3-cycle u <- u+1, {1} fills column 1 at step 1 and the
        # others one step after the cycle brings them to 1; {1,2} never fires
        assert extra_support_gammas(tensor_of(2, 1, [[]]), [1]) == [1]
        assert extra_support_gammas(tensor_of(2, 3, [[2], [4], [1]]), [1, 3]) == [3, None]
        # row 1 holds nothing but {1,2}, so no S_t with t >= 1 holds 1
        assert extra_support_gammas(tensor_of(3, 3, [[], [1], [2]]), [3]) == [None]

    def test_empty_and_bad_input(self):
        identity = tensor_of(2, 3, [[1], [2], [4]])
        assert extra_support_gammas(identity, []) == []
        for bad in (0, 1 << 3, -1):
            with pytest.raises(ValueError, match="outside"):
                extra_support_gammas(identity, [1, bad])
        # the base's rows are checked when it is built
        with pytest.raises(ValueError, match="out of range"):
            tensor_of(2, 3, [[1], [8], [4]])
        with pytest.raises(ValueError):
            tensor_of(2, 3, [[1], [2]])  # a row short
        with pytest.raises(ValueError):
            tensor_of(2, 0, [])


def assert_compiled_step_matches(t, R):
    """The compiled step of a tensor's one-tensor table against the table
    step, on lane masks ``R``."""
    rows, consts = patterns._lane_rows(t.dim, [row_masks(t)])
    assert consts == []
    assert patterns._compile_step(rows)(R) == patterns._sliced_step(rows, R)


def lane_masks(data, dim):
    return data.draw(st.lists(st.integers(0, (1 << dim) - 1), min_size=dim, max_size=dim))


def support_lanes(t):
    """Lane masks whose lane l holds the l-th support of the tensor as its
    state, so that every term of every row fires alone in some lane."""
    supports = [m for fam in t.rows for m in fam.masks]
    return [sum(1 << lane for lane, m in enumerate(supports) if m >> u & 1) for u in range(t.dim)]


class TestCompiledStep:
    """``_compile_step``, which long ``analyze`` runs swap to, against the
    table-driven ``_sliced_step``, and such runs against ``column_trace``."""

    @given(sparse_row_pattern_inputs(), st.data())
    def test_matches_the_table_step(self, raw, data):
        # orders 2-6, dims 1-9, empty rows
        t = make_pattern(*raw)
        assert_compiled_step_matches(t, lane_masks(data, t.dim))

    @given(planted_support_inputs(), st.data())
    def test_matches_the_table_step_with_shared_supports(self, drawn, data):
        t = make_pattern(*drawn[0])
        assert_compiled_step_matches(t, lane_masks(data, t.dim))

    def test_long_meets_and_rows(self):
        # supports of 70 and 99 members are met in statements of their own,
        # and row 1's 200 pairs span several statements
        n, rng = 100, random.Random(5)
        entries = [(u, cell_of(rng.sample(range(1, n + 1), 70), n)) for u in range(1, n + 1, 3)]
        entries += [(u, cell_of([v for v in range(1, n + 1) if v != u], n)) for u in range(2, n + 1, 3)]
        entries += [(1, cell_of(rng.sample(range(1, n + 1), 2), n)) for _ in range(200)]
        t = make_pattern(n, n, entries)
        assert max(len(fam.multis) for fam in t.rows) > 100
        assert_compiled_step_matches(t, support_lanes(t))
        for _ in range(5):
            assert_compiled_step_matches(t, [rng.getrandbits(n) for _ in range(n)])

    def test_cycles_after_the_swap_match_at_every_budget(self, monkeypatch):
        # column 1 feeds a 5-cycle and a 7-cycle, so its states repeat with
        # period 35; Brent's snapshot of step 32 comes back at step 67, after
        # the swap, and the cycle-start pass runs on the compiled step
        compiled = []
        real = patterns._compile_step
        monkeypatch.setattr(patterns, "_compile_step", lambda rows: compiled.append(1) or real(rows))
        arcs = [(1, 2), (1, 7), (14, 1)]
        arcs += [(2 + a, 2 + (a + 1) % 5) for a in range(5)] + [(7 + a, 7 + (a + 1) % 7) for a in range(7)]
        t = make_pattern(2, 14, [(u, (i,)) for i, u in arcs])
        r = assert_matches_per_column_reference(t, None)
        assert compiled and patterns.COMPILE_AFTER < 67
        assert r.outcomes[0] == Cycled(first_repeat_at=36, period=35)
        for max_steps in range(1, default_bound(14) + 2):
            assert_matches_per_column_reference(t, max_steps)

    # (compiles, table steps, compiled steps) of analyze at the default budget
    @pytest.mark.parametrize("tail, counts", [(5, (0, 62, 0)), (8, (1, 64, 31))])
    def test_cycle_starts_across_the_kept_states(self, monkeypatch, tail, counts):
        # Arcs i -> u: a Wielandt digraph on 1..6 (cycles of lengths 6 and 5),
        # cycles of lengths 2, 3 and 5 on 7..16, vertex 17 feeding vertex 6
        # and the three cycles, and the path 17 + tail -> ... -> 18 -> 17.
        # Column 17 + s enters a cycle of period 30 at S_{27+s}, so its first
        # repeat is 57 + s. With tail 5 that is 62 at most:
        # Brent's snapshot of step 32 matches at step 62 and the run ends
        # uncompiled. With tail 8 the first repeats 63, 64 and 65 match the
        # snapshot of step 64 at step 94, so the run compiles, keeps S_1..S_64,
        # and the pass steps once more, to S_65.
        arcs = [(a, a + 1) for a in range(1, 6)] + [(6, 1), (5, 1), (17, 6)]
        base = 6
        for length in (2, 3, 5):
            arcs += [(base + a + 1, base + (a + 1) % length + 1) for a in range(length)] + [(17, base + 1)]
            base += length
        arcs += [(v + 1, v) for v in range(17, 17 + tail)]
        t = make_pattern(2, 17 + tail, [(u, (i,)) for i, u in arcs])
        compiles, table, compiled = [], [], []
        real, table_step = patterns._compile_step, patterns._sliced_step

        def compile_step(rows):
            compiles.append(1)
            step = real(rows)
            return lambda R: compiled.append(1) or step(R)

        monkeypatch.setattr(patterns, "_compile_step", compile_step)
        monkeypatch.setattr(patterns, "_sliced_step", lambda rows, R: table.append(1) or table_step(rows, R))
        r = assert_matches_per_column_reference(t, None)
        assert r.outcomes[16:] == tuple(Cycled(first_repeat_at=57 + s, period=30) for s in range(tail + 1))
        assert (len(compiles), len(table), len(compiled)) == counts
        for max_steps in range(1, default_bound(t.dim) + 2):
            assert_matches_per_column_reference(t, max_steps)

    def test_wielandt_lift_across_the_swap(self):
        # budgets around the swap and around the first column to reach [n]
        t = wielandt_tensor(3, 30)
        swap, first = patterns.COMPILE_AFTER, default_bound(30) - 29
        for max_steps in (None, 1, swap - 1, swap, swap + 1, first - 1, first, default_bound(30) - 1):
            assert_matches_per_column_reference(t, max_steps)

    def test_a_row_of_every_pair_at_the_cap(self):
        # row 1 of the Wielandt lift at n = 128 also holds the 7,875 pairs
        # without 127 or 128; a single OR over them would not compile
        n = 128
        base = wielandt_tensor(3, n)
        pairs = [1 << a | 1 << b for a in range(n - 2) for b in range(a + 1, n - 2)]
        row1 = SupportFamily(n, tuple(sorted(base.rows[0].masks + tuple(pairs))))
        t = PatternTensor(3, n, (row1,) + base.rows[1:])
        assert_compiled_step_matches(t, support_lanes(t))
        r = analyze(t)
        assert r.primitive and r.gamma == 255


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
