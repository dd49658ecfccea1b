import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_utils
from oracle_utils import raw_states, raw_step, row_loop_step, sliced_step
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
    matrix_gamma,
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

    def test_a_row_of_another_dimension_rejected(self):
        rows = (SupportFamily(3, (1,)), SupportFamily(4, (1,)), SupportFamily(3, (1,)))
        with pytest.raises(ValueError, match=r"^row 2 dimension 4 does not match 3$"):
            PatternTensor(3, 3, rows)

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

    @pytest.mark.parametrize("dim", [1, 7, 8, 9, 15, 16, 17, 64, 128])
    def test_matches_the_row_loop_across_byte_boundaries(self, dim):
        # rows that are empty, hold singletons only, multi-index supports
        # only, or both; one tensor steps through every state twice, so the
        # first pass fills the memo and the second reads only what it holds
        rng = random.Random(dim)
        entries = []
        for u in range(1, dim + 1):
            kind = rng.randrange(4)  # 0 empty, 1 singletons, 2 multi-index supports, 3 both
            if kind in (1, 3):
                entries += [(u, (rng.randint(1, dim),) * 3) for _ in range(rng.randint(1, 3))]
            if kind in (2, 3) and dim > 1:
                for _ in range(rng.randint(1, 3)):
                    members = rng.sample(range(1, dim + 1), rng.randint(2, min(3, dim)))
                    entries.append((u, tuple(members + members[:1] * (3 - len(members)))))
        t = make_pattern(4, dim, entries)
        assert any(not fam.masks for fam in t.rows) or dim < 7
        assert any(fam.multis and not fam.singles for fam in t.rows) or dim < 7
        full = (1 << dim) - 1
        states = [0, full, *(1 << i for i in range(dim))]
        states += [rng.getrandbits(dim) & rng.getrandbits(dim) for _ in range(100)]
        states += [rng.getrandbits(dim) | rng.getrandbits(dim) for _ in range(100)]
        for j in (1, dim):
            states += [s.mask for s in column_states(t, j, 2 * dim)]
        first = [patterns._step_mask(t, s) for s in states]
        memo = dict(t._step_tables[0])
        assert len(memo) <= 256 * ((dim + 7) // 8)
        assert [patterns._step_mask(t, s) for s in states] == first
        assert t._step_tables[0] == memo  # the second pass only read it
        assert first == [row_loop_step(t, s) for s in states]
        for s, out in zip(states, first):
            expected = raw_step(entries, frozenset(i + 1 for i in bit_indices(s)))
            assert out == sum(1 << (u - 1) for u in expected)

    def test_the_memo_is_out_of_equality_hash_and_repr(self):
        stepped, fresh = wielandt_tensor(3, 20), wielandt_tensor(3, 20)
        column_trace(stepped, 20)
        assert stepped._step_tables[0] and "_step_tables" not in vars(fresh)
        assert stepped == fresh and hash(stepped) == hash(fresh) and repr(stepped) == repr(fresh)


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
        t = wielandt_tensor(3, 3)
        with pytest.raises(ValueError, match=r"^column 0 out of range 1..3$"):
            column_states(t, 0, 3)
        with pytest.raises(ValueError, match=r"^steps must be >= 0, got -1$"):
            column_states(t, 1, -1)

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

    def test_a_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^max_steps must be >= 1, got 0$"):
            analyze(wielandt_tensor(3, 3), 0)

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
    """analyze, which replays no column, against column_trace run on every
    column with the same budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns, "column_trace", no_trace)
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
        monkeypatch.setattr(patterns, "column_trace", no_trace)
        # every column first repeats at step period + 1. The snapshot of
        # step 1 catches periods up to 15 there, and that of step 2 the
        # periods 17, 19 and 23 at steps 19, 21 and 25, so the run resolves
        # by step 25, within the states it keeps, and the cycle-start pass
        # reads those states: 25 steps in all (55 with the newest snapshot
        # alone, which waits for the snapshot of step 32). Each period
        # leaves the pass at its columns' first repeat, so every cycle test
        # reads open lanes.
        table, steps = count_calls(monkeypatch, "sliced_step", oracle_utils), count_program_steps(monkeypatch)
        same = count_calls(monkeypatch, "_same")
        entries, base = [], 0
        for length in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            entries += [(base + (a + 1) % length + 1, (base + a + 1,) * 2) for a in range(length)]
            base += length
        entries += [(u, (u % 100 + 1, (u + 1) % 100 + 1)) for u in range(1, 101)]
        r = analyze(make_pattern(3, 100, entries))
        lengths = [length for length in (2, 3, 5, 7, 11, 13, 17, 19, 23) for _ in range(length)]
        assert r.outcomes == tuple(Cycled(first_repeat_at=p + 1, period=p) for p in lengths)
        assert len(steps) == 25 and table == []
        assert same and all(lanes for lanes, _, _ in same)

    def test_wielandt_lift_at_the_dimension_cap(self):
        n = 128
        r = analyze(wielandt_tensor(3, n))
        assert r.primitive and r.gamma == (n - 1) ** 2 + 1 == 16130
        # column j < n reaches one step sooner than column j - 1; column n is last
        assert r.gamma_by_column == tuple(16130 - j for j in range(1, n)) + (16130,)
        assert r.outcomes == tuple(Reached(g) for g in r.gamma_by_column)


def relabelled(t, rng):
    """``t`` with index i renamed perm[i-1] in rows and supports, for a random permutation perm of 1..n."""
    perm = rng.sample(range(1, t.dim + 1), t.dim)
    entries = [
        (perm[u], cell_of([perm[i] for i in bit_indices(m)], t.order)) for u, fam in enumerate(t.rows) for m in fam.masks
    ]
    return make_pattern(t.order, t.dim, entries)


class TestMajorizationScreen:
    """``analyze`` skips Brent's cycle test exactly when the majorization
    matrix is primitive, as every column then reaches [n] first."""

    @given(sparse_row_pattern_inputs())
    @settings(max_examples=300)
    def test_screen_holds_exactly_when_the_majorization_matrix_is_primitive(self, raw):
        t = make_pattern(*raw)
        exponent = matrix_gamma(majorization_pattern(t))
        assert patterns._majorization_primitive(t) == (exponent is not None)
        if exponent is not None:
            r = analyze(t)
            assert r.primitive and r.gamma <= exponent

    @pytest.mark.parametrize(
        "t, primitive",
        [
            (make_pattern(2, 1, [(1, (1,))]), True),
            (make_pattern(2, 1, []), False),
            (make_pattern(3, 3, [(1, (2, 2)), (1, (3, 3)), (2, (1, 1))]), False),  # row 3 is empty
            (make_pattern(3, 2, [(1, (2, 2)), (2, (1, 2))]), False),  # row 2 holds no singleton
            (make_pattern(2, 3, [(1, (1,)), (2, (1,)), (3, (2,))]), False),  # only vertex 1 reaches 1
            (make_pattern(2, 3, [(1, (1,)), (1, (2,)), (1, (3,))]), False),  # vertex 1 reaches only itself
            # strongly connected with cycles of lengths 2 and 4: period 2
            (monomial_lift(PatternMatrix.from_entries(4, [(2, 1), (3, 2), (4, 3), (1, 4), (1, 2)]), 2), False),
            *((make_pattern(3, n, [(i % n + 1, (i, i)) for i in range(1, n + 1)]), n == 1) for n in (1, 2, 5, 9)),
            *((monomial_lift(wielandt_matrix(n), 3), True) for n in range(3, 11)),
        ],
    )
    def test_fixed_cases(self, t, primitive):
        exponent = matrix_gamma(majorization_pattern(t))
        assert patterns._majorization_primitive(t) is primitive is (exponent is not None)
        if primitive:  # the self-loop and Wielandt's matrices, of exponent (n-1)^2 + 1
            assert analyze(t).gamma == exponent == default_bound(t.dim)

    def test_a_relabelled_wielandt_lift_makes_no_cycle_test(self, monkeypatch):
        t = relabelled(wielandt_tensor(3, 64), random.Random(64))
        same = count_calls(monkeypatch, "_same")
        r = analyze(t)
        assert same == [] and r.primitive and r.gamma == default_bound(64)
        # the columns' orbits share their states, so the reference steps each once
        step = functools.cache(functools.partial(patterns._step_mask, t))
        monkeypatch.setattr(patterns, "_step_mask", lambda tensor, state: step(state))
        assert r.outcomes == tuple(column_trace(t, j).outcome for j in range(1, 65))

    def test_a_pair_support_keeps_the_cycle_test(self, monkeypatch):
        # the singletons leave vertex 3 without an in-arc; the pair {1,2}
        # of row 3 makes the tensor primitive
        t = make_pattern(3, 3, [(1, (2, 2)), (1, (3, 3)), (2, (1, 1)), (2, (2, 2)), (3, (1, 2))])
        assert not patterns._majorization_primitive(t)
        same = count_calls(monkeypatch, "_same")
        r = assert_matches_per_column_reference(t, None)
        assert r.primitive and r.gamma == 4 and same
        for max_steps in range(1, 7):
            assert_matches_per_column_reference(t, max_steps)


@st.composite
def primitive_singleton_inputs(draw, max_dim=12, dim=None):
    """A tensor of order 2-4 and dim 1-12 (or ``dim``) whose rows hold only
    singletons: an n-cycle through a drawn order of the indices, a chord that
    closes an (n-1)-cycle on it, so the majorization matrix is primitive, and
    up to 2n more arcs (row u holding {i} is the arc i -> u)."""
    dim = draw(st.integers(1, max_dim)) if dim is None else dim
    order = draw(st.integers(2, 4))
    perm = draw(st.permutations(range(1, dim + 1)))
    arcs = [(perm[a], perm[(a + 1) % dim]) for a in range(dim)] + [(perm[dim - 2], perm[0])]
    arcs += draw(st.lists(st.tuples(st.integers(1, dim), st.integers(1, dim)), max_size=2 * dim))
    return order, dim, [(u, (i,) * (order - 1)) for i, u in arcs]


class TestSquaredEnds:
    """``analyze`` finds the degrees of a tensor whose rows hold only
    singletons and whose majorization matrix is primitive by Boolean
    repeated squaring of that matrix, not by a sliced run."""

    @given(primitive_singleton_inputs())
    def test_every_budget_matches_reference(self, raw):
        t = make_pattern(*raw)
        assert patterns._majorization_primitive(t) and not any(fam.multis for fam in t.rows)
        ends = assert_matches_per_column_reference(t, None).gamma_by_column
        # budgets on either side of a power of two change how many powers the squaring builds
        around = {b for p in range(default_bound(t.dim).bit_length() + 1) for b in (2**p - 1, 2**p, 2**p + 1)}
        for max_steps in {1, 2, *(g - 1 for g in ends if g > 1), *ends, *around} - {0}:
            assert_matches_per_column_reference(t, max_steps)

    def test_the_lift_at_the_cap_takes_logarithmically_many_products(self, monkeypatch):
        # 13 squarings up to M^8192, then 13 jumps below it: the top jump
        # from S_0 = {j} lands on the top power itself, with no product
        steps, program = count_calls(monkeypatch, "_product"), count_program_steps(monkeypatch)
        r = analyze(wielandt_tensor(3, 128))
        assert len(steps) == 2 * (math.ceil(math.log2(default_bound(128) + 1)) - 1) == 26
        assert program == []
        assert r.gamma_by_column == (*(16130 - j for j in range(1, 128)), 16130)
        assert r.outcomes == tuple(map(Reached, r.gamma_by_column))


@st.composite
def screened_sparse_inputs(draw):
    """A ``sparse_row_pattern_inputs`` tensor of order 2-6 and dim 1-6 with the
    singleton arcs of a ``primitive_singleton_inputs`` draw on its indices
    added, so its majorization matrix is primitive and its rows may still hold
    supports of up to five indices."""
    order, dim, entries = draw(sparse_row_pattern_inputs(max_dim=6))
    arcs = draw(primitive_singleton_inputs(dim=dim))[2]
    return order, dim, entries + [(u, cell[:1] * (order - 1)) for u, cell in arcs]


class TestForcedCycleTest:
    """``analyze`` with its majorization screen forced to fail takes the
    route with the cycle test on every tensor, even where the screen picks
    the squaring or a run without the test: the report must not change."""

    @staticmethod
    def assert_forced_route_agrees(t):
        default = analyze(t)
        with pytest.MonkeyPatch.context() as mp:
            runs, real = [], patterns._sliced_run
            mp.setattr(patterns, "_sliced_run", lambda *args, **kw: runs.append(kw["snapshots"]) or real(*args, **kw))
            mp.setattr(patterns, "_majorization_primitive", lambda tensor: False)
            forced = assert_matches_per_column_reference(t, None)
        assert runs == [patterns.SNAPSHOTS]
        assert forced == default

    @given(primitive_singleton_inputs())
    def test_in_place_of_the_squaring(self, raw):
        t = make_pattern(*raw)
        assert patterns._majorization_primitive(t) and not any(fam.multis for fam in t.rows)
        self.assert_forced_route_agrees(t)

    @given(screened_sparse_inputs())
    def test_in_place_of_a_run_without_the_test(self, raw):
        t = make_pattern(*raw)
        assert patterns._majorization_primitive(t)
        self.assert_forced_route_agrees(t)

    @given(sparse_row_pattern_inputs(max_dim=6))
    def test_on_any_sparse_tensor(self, raw):
        # dim 1 and empty rows included; where the screen fails, forcing it changes nothing
        self.assert_forced_route_agrees(make_pattern(*raw))

    def test_the_pair_lift_at_the_cap(self, monkeypatch):
        # CI's pair128: the Wielandt lift at n = 128 with the pair {127, 128} added to row 2
        rows = list(wielandt_tensor(3, 128).rows)
        rows[1] = SupportFamily.from_masks(128, [*rows[1].masks, 3 << 126])
        t = PatternTensor(3, 128, tuple(rows))
        assert patterns._majorization_primitive(t) and analyze(t).gamma == 16130
        # the columns' orbits share their states, so the reference steps each once
        step = functools.cache(functools.partial(patterns._step_mask, t))
        monkeypatch.setattr(patterns, "_step_mask", lambda tensor, state: step(state))
        self.assert_forced_route_agrees(t)


class TestMetamorphicLaws:
    """Laws that follow from the recursion alone, over ``analyze``, ``gammas``
    and ``column_trace``: a simultaneous relabelling moves every outcome with
    its column, an order-m pattern read as order m+1 keeps its outcomes, and
    adding a support to a row never raises a column degree."""

    patterns_and_lifts = st.one_of(sparse_row_pattern_inputs(), primitive_singleton_inputs())

    @given(patterns_and_lifts, st.integers(0, 2**32 - 1), st.data())
    def test_relabelling_moves_each_outcome_with_its_column(self, raw, seed, data):
        # the rows move too, and with them the lane table and its program
        t = make_pattern(*raw)
        n = t.dim
        perm = random.Random(seed).sample(range(1, n + 1), n)  # the one draw ``relabelled`` makes
        s = relabelled(t, random.Random(seed))
        max_steps = data.draw(st.none() | st.integers(1, default_bound(n) + 1))
        r, q = analyze(t, max_steps), analyze(s, max_steps)
        assert tuple(q.outcomes[perm[j] - 1] for j in range(n)) == r.outcomes
        assert (q.primitive, q.gamma) == (r.primitive, r.gamma)
        for j in range(1, n + 1):
            moved = column_trace(s, perm[j - 1], max_steps)
            trace = column_trace(t, j, max_steps)
            assert moved.outcome == trace.outcome
            assert moved.masks == tuple(sum(1 << perm[i] - 1 for i in bit_indices(m)) for m in trace.masks)
        g, h = gammas(n, [row_masks(t), row_masks(s)])
        assert g == h == analyze(t).gamma

    @given(st.one_of(sparse_row_pattern_inputs(max_order=5), primitive_singleton_inputs()), st.data())
    def test_an_order_m_pattern_read_as_order_m_plus_1_keeps_its_outcomes(self, raw, data):
        order, dim, entries = raw
        t = make_pattern(order, dim, entries)
        up = make_pattern(order + 1, dim, [(u, (c[0], *c)) for u, c in entries])
        max_steps = data.draw(st.none() | st.integers(1, default_bound(dim) + 1))
        assert analyze(up, max_steps) == analyze(t, max_steps)
        for j in range(1, dim + 1):
            assert column_trace(up, j, max_steps) == column_trace(t, j, max_steps)
        assert gammas(dim, [row_masks(up), row_masks(t)]) == [analyze(t).gamma] * 2

    @given(patterns_and_lifts, st.data())
    def test_adding_a_support_never_raises_a_column_degree(self, raw, data):
        # on a singleton-only lift, a support of two or more members moves
        # analyze from squaring to a sliced run
        order, dim, entries = raw
        u = data.draw(st.integers(1, dim))
        cell = tuple(data.draw(st.integers(1, dim)) for _ in range(order - 1))
        t, more = make_pattern(order, dim, entries), make_pattern(order, dim, [*entries, (u, cell)])
        r, q = analyze(t), analyze(more)
        for g, h in zip(r.gamma_by_column, q.gamma_by_column):
            assert g is None or h is not None and h <= g
        assert not r.primitive or q.primitive and q.gamma <= r.gamma
        for j in range(1, dim + 1):  # every state only grows
            for a, b in zip(column_states(t, j, dim + 2), column_states(more, j, dim + 2)):
                assert a.mask & b.mask == a.mask
            g, h = column_trace(t, j).outcome, column_trace(more, j).outcome
            assert not isinstance(g, Reached) or isinstance(h, Reached) and h.step <= g.step
        g, h = gammas(dim, [row_masks(t), row_masks(more)])
        assert g is None or h is not None and h <= g

    @settings(max_examples=200)
    @given(st.one_of(sparse_row_pattern_inputs(), covered_pattern_inputs()))
    def test_the_majorization_matrix_and_the_representative_digraph_bound_every_column(self, raw):
        # M(A) keeps row u's singleton supports and G(A) holds i in row u when
        # i is a member of a support of row u, so by the antitone law
        # S_k(M) <= S_k(A) <= S_k(G), and the column degrees run the other
        # way, None being +inf
        t = make_pattern(*raw)
        n = t.dim
        g = tensor_of(2, n, [sorted({1 << i for m in fam.masks for i in bit_indices(m)}) for fam in t.rows])
        m = monomial_lift(majorization_pattern(t), 2)
        for j in range(1, n + 1):
            orbits = (column_states(x, j, default_bound(n) + 1) for x in (m, t, g))
            for low, mid, high in zip(*orbits):
                assert low.mask & ~mid.mask == 0 and mid.mask & ~high.mask == 0

        def at_most(a, b):
            return b is None or a is not None and a <= b

        reports = [analyze(x) for x in (g, t, m)]
        for in_g, in_t, in_m in zip(*(r.gamma_by_column for r in reports)):
            assert at_most(in_g, in_t) and at_most(in_t, in_m)
        got = gammas(n, [row_masks(x) for x in (g, t, m)])
        assert got == [r.gamma for r in reports]
        assert at_most(got[0], got[1]) and at_most(got[1], got[2])


def no_trace(*args, **kwargs):
    raise AssertionError("column_trace called")


class TestLoweredBudgets:
    """``analyze`` labels a column still open at the budget ``Exhausted(bound)``
    without replaying it through ``column_trace``: with a primitive
    majorization matrix no column repeats a state before [n], and otherwise
    the run goes on to two budgets, by which any first repeat within the
    budget has matched a snapshot."""

    @given(primitive_singleton_inputs(), st.data())
    def test_open_columns_are_exhausted_without_traces(self, raw, data):
        # order 2 is squared; multi-index cells at orders 3-4 mostly send
        # the tensor to the sliced run
        order, dim, entries = raw
        cell = st.lists(st.integers(1, dim), min_size=order - 1, max_size=order - 1).map(tuple)
        entries += data.draw(st.lists(st.tuples(st.integers(1, dim), cell), max_size=3))
        t = make_pattern(order, dim, entries)
        assert patterns._majorization_primitive(t)
        ends = analyze(t).gamma_by_column
        for max_steps in {1, *(g - 1 for g in ends if g > 1), *ends}:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(patterns, "column_trace", no_trace)
                r = analyze(t, max_steps)
            assert r == assert_matches_per_column_reference(t, max_steps)

    def test_wielandt_lift_under_a_lowered_budget(self, monkeypatch):
        # every column of the lift at n = 64 reaches [n] after step 3,900,
        # squared for the lift, run for the lift with the pair {63, 64} in row 2
        n, lift = 64, wielandt_tensor(3, 64)
        paired = PatternTensor(3, n, (lift.rows[0], SupportFamily.from_masks(n, [1, 3 << n - 2]), *lift.rows[2:]))
        assert paired.rows[1].multis and patterns._majorization_primitive(paired)
        traces = count_calls(monkeypatch, "column_trace")
        for t in (lift, paired):
            r = analyze(t, 2000)
            assert not r.primitive and r.outcomes == (Exhausted(2000),) * n
        assert traces == []

    def test_wielandt_lift_at_the_cap_under_a_lowered_budget(self, monkeypatch):
        traces = count_calls(monkeypatch, "column_trace")
        r = analyze(wielandt_tensor(3, 128), 16000)
        assert r.gamma_by_column == (None,) * 128 and r.outcomes == (Exhausted(16000),) * 128
        assert traces == []

    def test_a_failed_screen_runs_past_the_budget_without_traces(self, monkeypatch):
        # the 3-cycle first repeats at step 4, where the stack's snapshot of
        # step 1 matches; under a budget of 2 the run goes on to step 4, past
        # it, and the pass labels every column without a trace
        rot = make_pattern(2, 3, [(u, (u % 3 + 1,)) for u in (1, 2, 3)])
        assert not patterns._majorization_primitive(rot)
        traces = count_calls(monkeypatch, "column_trace")
        assert analyze(rot).outcomes == (Cycled(first_repeat_at=4, period=3),) * 3
        assert analyze(rot, 2).outcomes == (Exhausted(2),) * 3
        assert traces == []

    def test_long_tails_around_the_budget(self):
        # Arcs i -> u: a Wielandt digraph on 1..30, a 2-cycle 31 <-> 32, and
        # vertex 33 feeding 30 and 31. The Wielandt columns first repeat at
        # steps 814-843 with period 1 and column 33 at step 845 with period
        # 2, so Brent's snapshot of step 1,024 catches the Wielandt columns
        # at the default budget of 1,025 and column 33 only past it
        e = [(i + 1, (j + 1,)) for i, r in enumerate(wielandt_matrix(30).rows) for j in range(30) if r.mask >> j & 1]
        t = make_pattern(2, 33, e + [(31, (32,)), (32, (31,)), (30, (33,)), (31, (33,))])
        r = assert_matches_per_column_reference(t, None)
        assert r.outcomes[0] == Cycled(first_repeat_at=842, period=1)
        assert r.outcomes[32] == Cycled(first_repeat_at=845, period=2)
        for max_steps in (1, 2, 3, *range(280, 284), *range(841, 847), *range(1023, 1027)):
            assert_matches_per_column_reference(t, max_steps)

    @pytest.mark.parametrize(
        "path, period", [(L, p) for L in (31, 32, 33, 63, 64, 65) for p in (1, 15, 17, 65) if L + p <= 128]
    )
    def test_paths_into_cycles_around_the_budget(self, path, period):
        # Arcs i -> u: the path 1 -> 2 -> ... -> path into a cycle of the
        # given period, so column 1 first repeats at f = path + period and
        # matches a snapshot by step 2f - 1; budgets f - 1, f and f + 1
        n = f = path + period
        arcs = [(v, v + 1) for v in range(1, n)] + [(n, path + 1)]
        t = make_pattern(2, n, [(u, (i,)) for i, u in arcs])
        assert column_trace(t, 1).outcome == Cycled(first_repeat_at=f, period=period)
        for max_steps in (f - 1, f, f + 1):
            assert_matches_per_column_reference(t, max_steps)


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
        table, calls = count_calls(monkeypatch, "sliced_step", oracle_utils), count_program_steps(monkeypatch)
        rot = make_pattern(2, 3, [(u, (u % 3 + 1,)) for u in (1, 2, 3)])
        assert gammas(3, [row_masks(rot)]) == [None]
        assert len(calls) == default_bound(3) and table == []
        assert analyze(rot).gamma is None

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
        table, calls = count_calls(monkeypatch, "sliced_step", oracle_utils), count_program_steps(monkeypatch)
        swap = make_pattern(2, 40, [(u, (u + 1 if u % 2 else u - 1,)) for u in range(1, 41)])
        rot = make_pattern(2, 40, [(u, (u + 1 if u % 3 else u - 2,)) for u in range(1, 40)] + [(40, (40,))])
        assert gammas(40, [row_masks(swap), row_masks(rot)]) == [None, None]
        assert 1 <= len(calls) <= 8 < default_bound(40) and table == []


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


def count_calls(monkeypatch, name, module=patterns):
    """Wrap ``module.<name>`` so that each call appends its arguments to the returned list."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


def count_program_steps(monkeypatch):
    """Wrap ``patterns._vector_step`` so that each call of a step it builds
    appends 1 to the returned list."""
    steps, real = [], patterns._vector_step

    def vector_step(rows, consts):
        step = real(rows, consts)
        return lambda R: steps.append(1) or step(R)

    monkeypatch.setattr(patterns, "_vector_step", vector_step)
    return steps


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


class TestLaneEnds:
    """``_sliced_run`` ends each lane on its own: a lane that reaches [n]
    records that step, its column degree, and a lane that cycles closes the
    group of lanes of its tensor."""

    @staticmethod
    def lane_ends(n, batch):
        rows, consts = patterns._lane_rows(n, batch)
        return patterns._sliced_run(rows, consts, n, tensors=len(batch), width=n, bound=default_bound(n))[0]

    @settings(max_examples=150)
    @given(covered_mask_batches())
    def test_a_primitive_tensors_lanes_end_at_its_column_degrees(self, drawn):
        dim, batch = drawn
        ends = self.lane_ends(dim, [rows for _, rows in batch])
        assert len(ends) == dim * len(batch)
        for i, (order, rows) in enumerate(batch):
            lanes, r = ends[i * dim:(i + 1) * dim], analyze(make_pattern(order, dim, entries_of(rows, order)))
            if r.primitive:
                assert tuple(lanes) == r.gamma_by_column
            else:
                assert None in lanes

    def test_a_cycle_closes_its_group_before_its_other_lanes_reach(self):
        # column 4 of t stays at {4}, a first repeat at step 2, so its group
        # closes there; its columns 1-3 would reach [n] at steps 5, 3 and 4
        t = make_pattern(2, 4, [(1, (2,)), (2, (3,)), (3, (1,)), (3, (2,)), (4, (1,)), (4, (4,))])
        assert analyze(t).outcomes == (Reached(5), Reached(3), Reached(4), Cycled(first_repeat_at=2, period=1))
        batch = [row_masks(t), row_masks(wielandt_tensor(3, 4))]
        assert gammas(4, batch) == [None, 10]
        assert self.lane_ends(4, batch) == [None] * 4 + [9, 8, 7, 10]


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


class Meet(int):
    """A lane mask that counts the ANDs taken on it, so that one program step
    on such masks counts the meets the program folds."""

    count = 0

    def __and__(self, other):
        Meet.count += 1
        return Meet(int.__and__(self, other))

    __rand__ = __and__


def assert_meets_once(rows, consts):
    """One step of the program of ``rows`` takes |m| - 1 ANDs for each
    distinct support m of two or more members, however many rows hold it;
    returns the rows (0-based) that hold each such support."""
    holders = {}
    for u, row in enumerate(rows):
        for m in row:
            if len(m) > 1:
                holders.setdefault(m, []).append(u)
    Meet.count = 0
    patterns._vector_step(rows, consts)([Meet(1 << u) for u in range(len(rows))])
    assert Meet.count == sum(len(m) - 1 for m in holders)
    return holders


class TestSharedSupports:
    """A multi-index support that several rows hold is met once per step, into
    one register of the step program; both engines must still agree with
    ``column_trace``."""

    @given(planted_support_inputs())
    def test_analyze_matches_reference_at_every_budget(self, drawn):
        raw, planted = drawn
        t = make_pattern(*raw)
        if sum(planted in fam.masks for fam in t.rows) >= 2:  # not dominated away
            holders = assert_meets_once(*patterns._lane_rows(t.dim, [row_masks(t)]))
            assert len(holders[bit_indices(planted)]) >= 2
        for max_steps in (None, *range(1, default_bound(t.dim) + 2)):
            assert_matches_per_column_reference(t, max_steps)

    @settings(max_examples=200)
    @given(planted_support_batches())
    def test_gammas_when_only_some_tensors_hold_it(self, drawn):
        dim, batch = drawn
        holders = assert_meets_once(*patterns._lane_rows(dim, [rows for _, rows in batch]))
        assert max(map(len, holders.values())) >= 2
        tensors = [make_pattern(order, dim, entries_of(rows, order)) for order, rows in batch]
        assert gammas(dim, [rows for _, rows in batch]) == [traced_gamma(t) for t in tensors]

    def test_tails_and_periods_through_a_shared_pair(self):
        # {2,4} in every row: column 1 reaches [n] through it, the others
        # cycle with periods 1 and 2 behind tails of one and two steps
        entries = [(2, (1, 1)), (2, (6, 6)), (3, (4, 4)), (3, (6, 6)), (4, (1, 1)), (4, (5, 5)), (5, (4, 4))]
        t = make_pattern(3, 6, entries + [(u, (2, 4)) for u in range(1, 7)])
        # rows 3 and 5 hold {4}, which absorbs {2,4}
        assert assert_meets_once(*patterns._lane_rows(6, [row_masks(t)])) == {(1, 3): [0, 1, 3, 5]}
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
        rows, consts = patterns._lane_rows(n, batch)
        assert consts == [(1 << n) - 1]
        assert assert_meets_once(rows, consts) == {(0, 5, n): held}
        assert gammas(n, batch) == [7, 26]
        assert analyze(w).gamma == traced_gamma(w) == 7

    def test_step_leaves_its_input_alone(self):
        t = degree_witness(5, 5, 12)[0]
        rows, _ = patterns._lane_rows(5, [row_masks(t)])
        R = [1 << u for u in range(5)]
        sliced_step(rows, R)
        patterns._vector_step(rows, [])(R)
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

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_gammas_where_the_tables_span_several_bytes(self, seed):
        # dims 10-40, past extra_support_inputs' one byte: a Wielandt lift or
        # a random n-cycle with random singletons and pairs added, with extras of every size from
        # 1 to dim, the base's own states among them
        rng = random.Random(seed)
        dim = rng.randint(10, 40)
        if seed % 2:
            base = [list(fam.masks) for fam in wielandt_tensor(3, dim).rows]
        else:  # a random n-cycle's singletons, a few more, and pairs
            cycle = rng.sample(range(dim), dim)
            base = [[] for _ in range(dim)]
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                base[u].append(1 << v)
            for row in base:
                row += [1 << rng.randrange(dim)] * (rng.random() < 0.2)
                row += [1 << rng.randrange(dim) | 1 << rng.randrange(dim) for _ in range(rng.randint(0, 2))]
        t = tensor_of(3, dim, base)
        extras = [rng.getrandbits(dim) | 1 for _ in range(4)]
        for size in range(1, dim + 1):
            extras.append(sum(1 << i for i in rng.sample(range(dim), size)))
        for j in (1, dim - 1, dim):
            extras += [s.mask for s in column_states(t, j, 3 * dim) if s.mask][::dim // 4]
        extras = rng.sample(extras, len(extras))
        expected = gammas(dim, ([[*row, e] for row in base] for e in extras))
        assert len(set(expected)) > 2
        assert extra_support_gammas(t, extras) == expected
        assert extra_support_gammas(t, []) == []

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


def lane_masks(data, dim):
    return data.draw(st.lists(st.integers(0, (1 << dim) - 1), min_size=dim, max_size=dim))


def support_lanes(t):
    """Lane masks whose lane l holds the l-th support of the tensor as its
    state, so that every term of every row fires alone in some lane."""
    supports = [m for fam in t.rows for m in fam.masks]
    return [sum(1 << lane for lane, m in enumerate(supports) if m >> u & 1) for u in range(t.dim)]


def assert_program_matches(n, batch, R):
    """The program of a batch's lane rows against the table step with the
    batch's pseudo-index entries appended, on lane masks ``R``, which it
    leaves alone; returns the lane rows and those entries."""
    rows, consts = patterns._lane_rows(n, batch)
    before = list(R)
    assert patterns._vector_step(rows, consts)(R) == sliced_step(rows, R + consts)
    assert R == before
    return rows, consts


def assert_tensor_program_matches(t, R):
    """``assert_program_matches`` on a tensor's one-tensor table, the one
    ``analyze`` runs, which reads no pseudo-index."""
    _, consts = assert_program_matches(t.dim, [row_masks(t)], R)
    assert consts == []


def batch_lanes(data, n, tensors):
    return data.draw(st.lists(st.integers(0, (1 << n * tensors) - 1), min_size=n, max_size=n))


def same_reference(lanes, R, S):
    """The row-by-row cycle test that ``_same`` replaced."""
    for r, s in zip(R, S):
        if not lanes:
            break
        lanes &= ~(r ^ s)
    return lanes


@st.composite
def mixed_fold_batches(draw, max_tensors=3):
    """Tensors of dim 5-9 as raw row masks whose rows hold 0, 1, 2, 3 or 5
    supports of 1 to 4 members: the program folds the meets of three or four
    members and the ORs of three or five terms a level at a time, and the
    pairs they leave, with the meets and ORs of two, in one last level."""
    dim = draw(st.integers(5, 9))
    support = st.lists(st.integers(0, dim - 1), min_size=1, max_size=4, unique=True).map(
        lambda members: sum(1 << i for i in members))
    row = st.sampled_from((0, 1, 2, 3, 5)).flatmap(lambda k: st.lists(support, min_size=k, max_size=k))
    return dim, draw(st.lists(st.lists(row, min_size=dim, max_size=dim), min_size=1, max_size=max_tensors))


class TestVectorStep:
    """``_vector_step``, the program every sliced run steps through, against
    the table step, and ``_same`` against its row loop."""

    @settings(max_examples=200)
    @given(mixed_fold_batches(), st.data())
    def test_matches_the_table_step_at_every_fold_level(self, drawn, data):
        dim, batch = drawn
        assert_meets_once(*assert_program_matches(dim, batch, batch_lanes(data, dim, len(batch))))

    @given(mixed_fold_batches(max_tensors=1))
    def test_analyze_steps_the_lane_rows_of_its_tensor(self, drawn):
        # analyze builds its table from the canonical rows, as _lane_rows
        # does for a batch of one, unless it squares instead
        dim, (masks,) = drawn
        t = PatternTensor(5, dim, tuple(SupportFamily.from_masks(dim, row) for row in masks))
        built, real = [], patterns._vector_step
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(patterns, "_vector_step", lambda rows, consts: built.append((rows, consts)) or real(rows, consts))
            analyze(t)
        squares = patterns._majorization_primitive(t) and not any(fam.multis for fam in t.rows)
        assert built == ([] if squares else [(patterns._lane_rows(dim, [row_masks(t)])[0], [])])

    @settings(max_examples=300)
    @given(raw_mask_batches(), st.data())
    def test_matches_the_table_step_on_batches(self, drawn, data):
        # dims 1-9, one to twelve tensors, raw masks with empty rows: the
        # supports that only some tensors hold read a pseudo-index
        dim, batch = drawn
        masks = [rows for _, rows in batch]
        assert_program_matches(dim, masks, batch_lanes(data, dim, len(masks)))

    @given(planted_support_batches(), st.data())
    def test_matches_the_table_step_with_shared_supports(self, drawn, data):
        dim, batch = drawn
        masks = [rows for _, rows in batch]
        holders = assert_meets_once(*assert_program_matches(dim, masks, batch_lanes(data, dim, len(masks))))
        assert max(map(len, holders.values())) >= 2

    @pytest.mark.parametrize(
        "n, batch",
        [
            (1, [[[1]]]),
            (1, [[[]]]),
            (1, [[[1]], [[]]]),  # {1} only on the first tensor's lane: a pseudo-index
            (3, [[[2], [], [1, 6]]]),  # an empty row, a one-term row and a meet
            # rows 1 and 2 share {2,3}; {1,3}, {1,2} and {1} read pseudo-indices
            (3, [[[6], [6, 5], [3]], [[6], [6], [1]]]),
            # the degree-7 frontier witness shares {1,6} with its pseudo-index
            (6, [row_masks(degree_witness(6, 6, 7)[0]), row_masks(wielandt_tensor(6, 6))]),
            # a 9-member meet and a row of 28 pairs: several levels of each fold
            (12, [[[0x1FF], *([1 << u] for u in range(1, 11)), [1 << a | 1 << b for a in range(8) for b in range(a)]]]),
            # rows of 0, 1, 2, 3 and 5 supports of 1 to 4 members: a level of
            # each fold before its last level of pairs
            (6, [[[], [0b1], [0b11, 0b100], [0b111, 0b1001, 0b110000], [0b10, 0b1111, 0b10110, 0b101000, 0b100001], [0b111100]]]),
        ],
    )
    def test_fixed_shapes(self, n, batch):
        rng = random.Random(n)
        for _ in range(8):
            assert_program_matches(n, batch, [rng.getrandbits(n * len(batch)) for _ in range(n)])

    @settings(max_examples=300)
    @given(st.data())
    def test_same_matches_the_row_loop(self, data):
        # n below and above the rows it tests one at a time; S agrees with R
        # on most rows and lanes, so that some lanes survive
        n, width = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 70))
        R = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=n, max_size=n))
        flips = st.sampled_from([0, 0, 0, (1 << width) - 1]) | st.integers(0, width - 1).map(lambda b: 1 << b)
        S = [r ^ data.draw(flips) for r in R]
        lanes = data.draw(st.one_of(st.just(0), st.just((1 << width) - 1), st.integers(0, (1 << width) - 1)))
        assert patterns._same(lanes, R, S) == same_reference(lanes, R, S)
        assert patterns._same(lanes, R, R) == lanes


def record_runs(monkeypatch, program):
    """Wrap ``patterns._sliced_run`` so that each run appends the number of
    steps in ``program`` (from ``count_program_steps``) when it ends and the
    number of states it kept."""
    runs, real = [], patterns._sliced_run

    def sliced_run(*args, **kw):
        out = real(*args, **kw)
        runs.append((len(program), len(out[2])))
        return out

    monkeypatch.setattr(patterns, "_sliced_run", sliced_run)
    return runs


class TestCompiledStep:
    """Long ``analyze`` runs on the program step: wide one-tensor tables
    against the table step, and runs past the ``KEPT_STATES`` states that
    the cycle-start pass reads against ``column_trace``."""

    @given(sparse_row_pattern_inputs(), st.data())
    def test_matches_the_table_step(self, raw, data):
        # orders 2-6, dims 1-9, empty rows
        t = make_pattern(*raw)
        assert_tensor_program_matches(t, lane_masks(data, t.dim))

    @given(planted_support_inputs(), st.data())
    def test_matches_the_table_step_with_shared_supports(self, drawn, data):
        t = make_pattern(*drawn[0])
        assert_tensor_program_matches(t, lane_masks(data, t.dim))

    def test_long_meets_and_rows(self):
        # supports of 70 and 99 members fold over seven levels each, and
        # row 1's 200 pairs over eight
        n, rng = 100, random.Random(5)
        entries = [(u, cell_of(rng.sample(range(1, n + 1), 70), n)) for u in range(1, n + 1, 3)]
        entries += [(u, cell_of([v for v in range(1, n + 1) if v != u], n)) for u in range(2, n + 1, 3)]
        entries += [(1, cell_of(rng.sample(range(1, n + 1), 2), n)) for _ in range(200)]
        t = make_pattern(n, n, entries)
        assert max(len(fam.multis) for fam in t.rows) > 100
        assert_tensor_program_matches(t, support_lanes(t))
        for _ in range(5):
            assert_tensor_program_matches(t, [rng.getrandbits(n) for _ in range(n)])

    def test_cycles_after_the_swap_match_at_every_budget(self, monkeypatch):
        # column 1 feeds a 5-cycle and a 7-cycle, so its states repeat with
        # period 35 from S_1, and column 14 from S_2. The stack's snapshot
        # of step 4 comes back at step 39, within the kept states (the
        # newest snapshot alone would wait for that of step 64, at step 99,
        # past them), and the first repeats of columns 1 and 14, at steps
        # 36 and 37, lie among them, so the pass steps no further
        program = count_program_steps(monkeypatch)
        runs = record_runs(monkeypatch, program)
        arcs = [(1, 2), (1, 7), (14, 1)]
        arcs += [(2 + a, 2 + (a + 1) % 5) for a in range(5)] + [(7 + a, 7 + (a + 1) % 7) for a in range(7)]
        t = make_pattern(2, 14, [(u, (i,)) for i, u in arcs])
        r = assert_matches_per_column_reference(t, None)
        assert runs == [(39, 39)] and len(program) == 39
        assert r.outcomes[0] == Cycled(first_repeat_at=36, period=35)
        for max_steps in range(1, default_bound(14) + 2):
            assert_matches_per_column_reference(t, max_steps)

    # (run steps, kept states, pass steps) of analyze at the default budget
    @pytest.mark.parametrize("tail, counts", [(5, (62, 62, 0)), (8, (94, 64, 1))])
    def test_cycle_starts_across_the_kept_states(self, monkeypatch, tail, counts):
        # Arcs i -> u: a Wielandt digraph on 1..6 (cycles of lengths 6 and 5),
        # cycles of lengths 2, 3 and 5 on 7..16, vertex 17 feeding vertex 6
        # and the three cycles, and the path 17 + tail -> ... -> 18 -> 17.
        # Column 17 + s enters a cycle of period 30 at S_{27+s}, so its first
        # repeat is 57 + s. With tail 5 that is 62 at most:
        # Brent's snapshot of step 32 matches at step 62, and the run keeps
        # every state. With tail 8 the first repeats 63, 64 and 65 match the
        # snapshot of step 64 at step 94, so the run keeps S_1..S_64 only,
        # and the pass steps once more, to S_65.
        arcs = [(a, a + 1) for a in range(1, 6)] + [(6, 1), (5, 1), (17, 6)]
        base = 6
        for length in (2, 3, 5):
            arcs += [(base + a + 1, base + (a + 1) % length + 1) for a in range(length)] + [(17, base + 1)]
            base += length
        arcs += [(v + 1, v) for v in range(17, 17 + tail)]
        t = make_pattern(2, 17 + tail, [(u, (i,)) for i, u in arcs])
        table, program = count_calls(monkeypatch, "sliced_step", oracle_utils), count_program_steps(monkeypatch)
        runs = record_runs(monkeypatch, program)
        r = assert_matches_per_column_reference(t, None)
        assert r.outcomes[16:] == tuple(Cycled(first_repeat_at=57 + s, period=30) for s in range(tail + 1))
        assert [(*run, len(program) - run[0]) for run in runs] == [counts] and table == []
        for max_steps in range(1, default_bound(t.dim) + 2):
            assert_matches_per_column_reference(t, max_steps)

    def test_wielandt_lift_across_the_swap(self, monkeypatch):
        # budgets around the keep cap and around the first column to reach
        # [n]. The lift itself is squared, not run; the pair {29, 30} in row 2
        # keeps its degrees but not its linear step, so that tensor runs on
        # every budget, keeping no state, as its majorization matrix is
        # primitive
        n = 30
        lift = wielandt_tensor(3, n)
        t = PatternTensor(3, n, (lift.rows[0], SupportFamily.from_masks(n, [1, 3 << n - 2]), *lift.rows[2:]))
        assert t.rows[1].multis and patterns._majorization_primitive(t)
        runs = record_runs(monkeypatch, count_program_steps(monkeypatch))
        cap, first = patterns.KEPT_STATES, default_bound(n) - (n - 1)
        budgets = (None, 1, cap - 1, cap, cap + 1, first - 1, first, default_bound(n) - 1)
        for max_steps in budgets:
            assert_matches_per_column_reference(t, max_steps)
        assert [kept for _, kept in runs] == [0] * len(budgets)
        for max_steps in budgets:
            assert_matches_per_column_reference(lift, max_steps)
        assert len(runs) == len(budgets)

    def test_a_row_of_every_pair_at_the_cap(self):
        # row 1 of the Wielandt lift at n = 128 also holds the 7,875 pairs
        # without 127 or 128, an OR folded over 13 levels
        n = 128
        base = wielandt_tensor(3, n)
        pairs = [1 << a | 1 << b for a in range(n - 2) for b in range(a + 1, n - 2)]
        row1 = SupportFamily(n, tuple(sorted(base.rows[0].masks + tuple(pairs))))
        t = PatternTensor(3, n, (row1,) + base.rows[1:])
        assert_tensor_program_matches(t, support_lanes(t))
        r = analyze(t)
        assert r.primitive and r.gamma == 255


def cycle_arcs(first, length):
    """Arcs i -> u of a cycle on first, ..., first + length - 1."""
    return [(first + a, first + (a + 1) % length) for a in range(length)]


class TestSnapshotStack:
    """``analyze``'s run compares every lane with a stack of ``SNAPSHOTS``
    Brent snapshots, one per copy of its lanes, for the whole run, and stops
    at two budgets: columns whose periods exceed the newest snapshot at their
    first repeat, first repeating on both sides of steps 32 and 64 or past
    ``KEPT_STATES`` or the budget, against ``column_trace``."""

    # Arcs i -> u at n = 64. Order 2: a Wielandt digraph on 1..9, whose
    # columns first repeat around step 64, cycles of lengths 17 and 19, and
    # the path 64 -> 63 -> ... -> 46 feeding the 19-cycle. Order 3, with
    # every row also holding the pair of its next two indices: cycles of
    # lengths 17, 19 and 23, vertex 60 feeding the 17- and 23-cycles (period
    # 391) and the path 64 -> ... -> 61 -> 60.
    WIELANDT = [(i + 1, j + 1) for i, r in enumerate(wielandt_matrix(9).rows) for j in range(9) if r.mask >> j & 1]
    ORDER_2 = WIELANDT + cycle_arcs(10, 17) + cycle_arcs(27, 19) + [(v + 1, v) for v in range(46, 64)] + [(46, 27)]
    ORDER_3 = cycle_arcs(1, 17) + cycle_arcs(18, 19) + cycle_arcs(37, 23) + [(60, 1), (60, 37)]
    ORDER_3 += [(v + 1, v) for v in range(60, 64)]

    @pytest.mark.parametrize("order, arcs", [(2, ORDER_2), (3, ORDER_3)])
    def test_every_column_matches_its_trace_around_the_snapshots(self, order, arcs):
        n = 64
        entries = [(u, (i,) * (order - 1)) for i, u in arcs]
        if order == 3:
            entries += [(u, (u % n + 1, (u + 1) % n + 1)) for u in range(1, n + 1)]
        t = make_pattern(order, n, entries)
        assert not patterns._majorization_primitive(t)
        r = assert_matches_per_column_reference(t, None)
        cycled = [o for o in r.outcomes if isinstance(o, Cycled)]
        repeats = {o.first_repeat_at for o in cycled}
        # a period past the newest snapshot, 2^floor(log2 f), at first repeat f
        assert any(o.period > 1 << o.first_repeat_at.bit_length() - 1 for o in cycled)
        assert min(repeats) < 32 and 64 < max(repeats)
        budgets = {1, 2, 3, *range(30, 35), *range(62, 67), *(f + d for f in repeats for d in (-1, 0, 1))}
        for max_steps in sorted(budgets):
            assert_matches_per_column_reference(t, max_steps)

    def test_a_long_period_past_the_kept_states(self, monkeypatch):
        # Arcs i -> u: cycles of lengths 3, 5 and 7 on 1..15, and vertex 16
        # feeding 1, 4 and 9, so column 16 first repeats at step 106 with
        # period 105. The snapshot of step 8 is still compared at step 113,
        # and the run ends there; the pass steps on to S_106: 155 steps
        program = count_program_steps(monkeypatch)
        runs = record_runs(monkeypatch, program)
        arcs = cycle_arcs(1, 3) + cycle_arcs(4, 5) + cycle_arcs(9, 7) + [(16, 1), (16, 4), (16, 9)]
        t = make_pattern(2, 16, [(u, (i,)) for i, u in arcs])
        r = analyze(t)
        assert r.outcomes[15] == Cycled(first_repeat_at=106, period=105)
        assert runs == [(113, 64)] and len(program) == 155
        for max_steps in range(1, default_bound(16) + 2):
            assert_matches_per_column_reference(t, max_steps)

    def test_a_column_open_at_the_budget_runs_two_budgets(self, monkeypatch):
        # Arcs i -> u: cycles of lengths 3, 4, 5, 7 and 11 on 1..30, and
        # vertex 31 feeding each one's first vertex, so column 31 has period
        # 4,620 and stays open at the default budget of 901: the run steps
        # to twice the budget, and no pass step follows
        program = count_program_steps(monkeypatch)
        arcs, first = [], 1
        for length in (3, 4, 5, 7, 11):
            arcs += cycle_arcs(first, length) + [(31, first)]
            first += length
        t = make_pattern(3, 31, [(u, (i, i)) for i, u in arcs])
        r = assert_matches_per_column_reference(t, None)
        assert r.outcomes[30] == Exhausted(901)
        assert len(program) == 2 * default_bound(31) == 1802


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
