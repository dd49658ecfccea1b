import itertools
import random
import time

import pytest

from oracle_utils import gamma_by_bool_powers, matrix_to_array
from primdeg import (
    IndexSet,
    PatternTensor,
    SupportFamily,
    VerificationError,
    analyze,
    brute_force_matrix_exponent_set,
    column_states,
    degree_witness,
    exponent_set,
    gamma_j,
    majorization_pattern,
    make_pattern,
    matrix_gamma,
    monomial_lift,
    small_exponent_matrix,
    wielandt_frontier_tensor,
    wielandt_matrix,
    wielandt_tensor,
)
from primdeg import digraphs, families, patterns
from primdeg.bitsets import bit_indices
from primdeg.families import _monomial_pattern_from_bits
from primdeg.patterns import gammas


class TestMonomialLift:
    def test_rows_are_singleton_families(self):
        m = wielandt_matrix(4)
        t = monomial_lift(m, 6)
        assert t.order == 6 and t.dim == 4
        for u in range(1, 5):
            assert [s.members for s in t.rows[u - 1].sets] == [
                (v,) for v in m.rows[u - 1].members
            ]

    def test_preserves_gamma(self):
        m = wielandt_matrix(5)
        for order in (2, 3, 7):
            assert analyze(monomial_lift(m, order)).gamma == 17

    def test_order_validated(self):
        with pytest.raises(ValueError):
            monomial_lift(wielandt_matrix(3), 1)


class TestWielandtTensor:
    def test_is_lift_of_wielandt_matrix(self):
        t = wielandt_tensor(5, 5)
        assert majorization_pattern(t) == wielandt_matrix(5)
        assert t.order == 5

    def test_degree_hits_bound(self):
        for n in (3, 4, 5, 6):
            assert analyze(wielandt_tensor(n, n)).gamma == (n - 1) ** 2 + 1

    def test_order_can_exceed_dim(self):
        assert analyze(wielandt_tensor(7, 4)).gamma == 10


class TestFrontierFamily:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            wielandt_frontier_tensor(5, 5, 0)
        with pytest.raises(ValueError):
            wielandt_frontier_tensor(5, 5, 13)  # max k is n^2-3n+2 = 12
        with pytest.raises(ValueError):
            wielandt_frontier_tensor(4, 5, 1)  # needs order >= dim
        with pytest.raises(ValueError):
            wielandt_frontier_tensor(2, 2, 1)

    def test_majorization_unchanged_by_added_sets(self):
        for k in (1, 4, 9, 12):
            t = wielandt_frontier_tensor(5, 5, k)
            assert majorization_pattern(t) == wielandt_matrix(5)

    def test_degrees_follow_k(self):
        n = 5
        for k in range(1, n * n - 3 * n + 3):
            t = wielandt_frontier_tensor(n, n, k)
            r = analyze(t)
            assert r.gamma == n + k
            assert r.gamma_by_column[n - 1] == n + k
            assert gamma_j(t, n - 1) == k + 1

    def test_added_set_fires_after_k_steps(self):
        # column n-1 tracks the base family for k steps; the extra support
        # (the base family's k-step state) then fires and absorbs everything
        n, k = 5, 3
        t = wielandt_frontier_tensor(n, n, k)
        base = wielandt_tensor(n, n)
        ours = column_states(t, n - 1, k + 1)
        theirs = column_states(base, n - 1, k + 1)
        assert ours[:k] == theirs[:k]
        assert ours[k].is_full and not theirs[k].is_full

    @pytest.mark.parametrize("order, dim", [(3, 3), (5, 5), (7, 4)])
    def test_is_the_verified_degree_witness(self, order, dim):
        for k in range(1, dim * dim - 3 * dim + 3):
            assert wielandt_frontier_tensor(order, dim, k) == degree_witness(order, dim, dim + k)[0]

    @pytest.mark.parametrize("n", [5, 6, 16])
    def test_rows_equal_adding_the_state_to_each_row(self, n):
        # a witness tensor is built on read without re-minimizing;
        # SupportFamily.from_masks gives the same rows for every k
        base = wielandt_tensor(n, n)
        extras = column_states(base, n - 1, n * n - 3 * n + 2)
        frontier = [w for w in exponent_set(n, n).witnesses if w.spec.kind == "wielandt-frontier"]
        assert [w.spec.k for w in frontier] == list(range(1, len(extras) + 1))
        for w in frontier:
            e = extras[w.spec.k - 1].mask
            assert w.tensor.rows == tuple(SupportFamily.from_masks(n, (*fam.masks, e)) for fam in base.rows)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_every_witness_tensor_equals_the_build_through_from_masks(self, n):
        # a frontier row with a singleton in E_k is the base row itself, as
        # E_k is a superset of that singleton; every other row is minimized
        for w in exponent_set(n, n).witnesses:
            if w.spec.kind == "monomial-lift":
                masks = [[1 << j for j in bit_indices(r.mask)] for r in w.recipe.rows]
            else:
                base, e = w.recipe
                assert base == wielandt_tensor(n, n)
                masks = [(*fam.masks, e) for fam in base.rows]
                assert [got is fam for got, fam in zip(w.tensor.rows, base.rows)] == [
                    bool(fam.singles & e) for fam in base.rows
                ]
            assert w.tensor == PatternTensor(n, n, tuple(SupportFamily.from_masks(n, m) for m in masks))

    def test_a_wrong_gamma_raises(self, monkeypatch):
        # the builder verifies the degree it claims, so a misreading engine
        # makes it raise instead of returning the tensor; frontier witnesses
        # are verified by extra_support_gammas
        real = families.extra_support_gammas
        monkeypatch.setattr(
            families, "extra_support_gammas", lambda base, *rest: [g + 1 for g in real(base, *rest)]
        )
        with pytest.raises(VerificationError) as info:
            wielandt_frontier_tensor(5, 5, 3)
        assert str(info.value) == (
            "degree_witness(order=5, dim=5, degree=8) self-check failed: analyzed degree is 9"
        )

    def test_a_wrong_gamma_raises_for_a_lift_degree(self, monkeypatch):
        # degrees up to dim are monomial lifts, verified by gammas
        real = families.gammas
        monkeypatch.setattr(families, "gammas", lambda n, tensors: [g + 1 for g in real(n, tensors)])
        with pytest.raises(VerificationError) as info:
            degree_witness(5, 5, 3)
        assert str(info.value) == (
            "degree_witness(order=5, dim=5, degree=3) self-check failed: analyzed degree is 4"
        )


class TestSmallExponentMatrix:
    def test_structure(self):
        m = small_exponent_matrix(4, 2)
        rows = m.to_rows01()
        # column 1 full, superdiagonal up to t, trailing columns full
        assert [r[0] for r in rows] == [1, 1, 1, 1]
        assert rows[0][1] == 1
        assert all(r[2] == 1 and r[3] == 1 for r in rows)

    def test_gamma_equals_target(self):
        for dim in range(3, 7):
            for t in range(1, dim + 1):
                m = small_exponent_matrix(dim, t)
                assert matrix_gamma(m) == t
                arr = matrix_to_array(m)
                assert gamma_by_bool_powers(arr, (dim - 1) ** 2 + 1) == t

    def test_a_wrong_exponent_raises(self, monkeypatch):
        # the public builder keeps its own matrix_gamma check
        real = families.matrix_gamma
        monkeypatch.setattr(families, "matrix_gamma", lambda m: 4 if real(m) == 3 else real(m))
        with pytest.raises(VerificationError) as info:
            small_exponent_matrix(4, 3)
        assert str(info.value) == "small_exponent_matrix(dim=4, target=3) self-check failed: exponent is 4"

    def test_target_validated(self):
        with pytest.raises(ValueError):
            small_exponent_matrix(4, 0)
        with pytest.raises(ValueError):
            small_exponent_matrix(4, 5)
        with pytest.raises(ValueError):
            small_exponent_matrix(2, 1)


class TestDegreeWitness:
    def test_small_degrees_use_matrix_lift(self):
        tensor, spec = degree_witness(5, 5, 3)
        assert spec.kind == "monomial-lift"
        assert spec.t == 3 and spec.k is None
        assert analyze(tensor).gamma == 3

    def test_large_degrees_use_frontier(self):
        tensor, spec = degree_witness(5, 5, 11)
        assert spec.kind == "wielandt-frontier"
        assert spec.k == 6 and spec.t == 11
        assert analyze(tensor).gamma == 11

    def test_degree_range_validated(self):
        with pytest.raises(ValueError):
            degree_witness(5, 5, 0)
        with pytest.raises(ValueError):
            degree_witness(5, 5, 18)
        with pytest.raises(ValueError):
            degree_witness(4, 5, 3)


class TestExponentSet:
    def test_dim_validated(self):
        with pytest.raises(ValueError, match=r"^dim must be >= 3, got 2$"):
            exponent_set(3, 2)

    def test_full_interval_small_cases(self):
        for order, dim in ((3, 3), (4, 4)):
            result = exponent_set(order, dim)
            assert result.complete, result.failures
            assert result.achieved == frozenset(range(1, (dim - 1) ** 2 + 2))
            for w in result.witnesses:
                assert analyze(w.tensor).gamma == w.degree

    @pytest.mark.parametrize("n", [*range(3, 13), 16])
    def test_every_witness_degree_equals_gammas_on_its_tensor(self, n):
        # the frontier witnesses are verified off one run of the Wielandt
        # lift; gammas on each built tensor is the independent route
        result = exponent_set(n, n)
        assert result.complete
        tensors = ([f.masks for f in w.tensor.rows] for w in result.witnesses)
        assert gammas(n, tensors) == [w.degree for w in result.witnesses]

    @pytest.mark.parametrize("n", range(3, 17))
    def test_every_lift_recipe_is_the_verified_small_exponent_matrix(self, n):
        # the sweep verifies its lifts only through gammas; matrix_gamma on
        # each recipe and the self-checked public builder are the other route
        lifts = [w for w in exponent_set(n, n).witnesses if w.spec.kind == "monomial-lift"]
        assert [w.degree for w in lifts] == list(range(1, n + 1))
        for w in lifts:
            assert matrix_gamma(w.recipe) == w.degree
            assert w.recipe.rows == small_exponent_matrix(n, w.degree).rows

    def test_each_lift_is_verified_once_in_the_batched_gammas_call(self, monkeypatch):
        calls = {}

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("matrix_gamma", "gammas", "monomial_lift"):
            count(families, name)
        count(digraphs, "analyze")  # the name matrix_gamma calls
        assert exponent_set(16, 16).complete
        # the one monomial_lift is the Wielandt base
        assert calls == {"gammas": 1, "monomial_lift": 1}
        calls.clear()
        assert degree_witness(16, 16, 9)[1].t == 9
        # the second monomial_lift builds the returned tensor
        assert calls == {"gammas": 1, "monomial_lift": 2}

    def test_the_lifts_run_in_batches_of_at_most_gamma_lanes_lanes(self, monkeypatch):
        # at the dimension cap the 128 lifts run 10 at a time, not as one
        # batch of 16,384 lanes
        widths = []
        real = patterns._lane_rows
        monkeypatch.setattr(patterns, "_lane_rows", lambda n, batch: widths.append(n * len(batch)) or real(n, batch))
        witnesses, failures = families._witnesses(128, 128, range(1, 129))
        assert not failures
        assert [w.degree for w in witnesses] == list(range(1, 129))
        assert len(widths) == 13
        assert max(widths) <= patterns.GAMMA_LANES

    def test_the_sweep_steps_each_distinct_state_once(self, monkeypatch):
        # the extras' walk of column n-1 and the frontier walk share one
        # memoized step: 227 distinct Wielandt-lift states at n = 16
        calls = []
        real = patterns._step_mask
        monkeypatch.setattr(patterns, "_step_mask", lambda t, s: calls.append(s) or real(t, s))
        assert exponent_set(16, 16).complete
        assert len(calls) == len(set(calls)) == 227

    def test_no_witness_tensor_is_built_until_one_is_read(self, monkeypatch):
        # the sweep verifies recipes: its one monomial_lift and its one order-8
        # PatternTensor are the Wielandt base
        lifts, built = [], []
        real_lift, real_init = families.monomial_lift, PatternTensor.__init__
        monkeypatch.setattr(families, "monomial_lift", lambda m, order: lifts.append(order) or real_lift(m, order))
        monkeypatch.setattr(PatternTensor, "__init__", lambda t, order, *rest: built.append(order) or real_init(t, order, *rest))
        result = exponent_set(8, 8)
        assert result.complete and len(result.witnesses) == 50
        assert lifts == [8]
        assert built.count(8) == 1
        for w in result.witnesses:
            first, second = w.tensor, w.tensor
            assert first is not second
            assert first == second == degree_witness(8, 8, w.degree)[0]

    def test_witnesses_sorted_and_unique(self):
        result = exponent_set(3, 3)
        degrees = [w.degree for w in result.witnesses]
        assert degrees == sorted(set(degrees))

    @pytest.mark.parametrize("order, dim", [(3, 3), (4, 4), (7, 4), (5, 5), (6, 6)])
    def test_equals_one_degree_witness_per_degree(self, order, dim):
        result = exponent_set(order, dim)
        assert result.complete and not result.failures
        expected = [(d, *degree_witness(order, dim, d)) for d in range(1, (dim - 1) ** 2 + 2)]
        assert [(w.degree, w.tensor, w.spec) for w in result.witnesses] == expected

    def test_a_wrong_frontier_witness_is_recorded_against_its_degree(self, monkeypatch):
        # column n-1's k-th state swapped for its (k+1)-th: the degree n+k
        # witness has degree n+k+1, every other one is untouched
        order, dim, k = 5, 5, 4
        real = families._orbit

        def swapped(step, column):  # S_1, ..., S_{k-1}, S_{k+1}, S_{k+1}, S_{k+2}, ...
            states = real(step, column)
            for i, s in enumerate(states, start=1):
                if i == k:
                    s = next(states)
                    yield s
                yield s

        monkeypatch.setattr(families, "_orbit", swapped)
        with pytest.raises(VerificationError) as info:
            degree_witness(order, dim, dim + k)
        assert str(info.value) == (
            "degree_witness(order=5, dim=5, degree=9) self-check failed: analyzed degree is 10"
        )
        result = exponent_set(order, dim)
        assert result.failures == ((dim + k, str(info.value)),)
        assert result.achieved == result.expected - {dim + k}
        assert not result.complete

    def test_a_wrong_matrix_lift_is_recorded_against_its_degree(self, monkeypatch):
        # the degree-2 lift built from the Wielandt matrix has degree 17
        real = families._small_exponent_rows
        monkeypatch.setattr(
            families, "_small_exponent_rows", lambda dim, t: wielandt_matrix(dim) if t == 2 else real(dim, t)
        )
        with pytest.raises(VerificationError) as info:
            degree_witness(5, 5, 2)
        assert str(info.value).endswith("self-check failed: analyzed degree is 17")
        result = exponent_set(5, 5)
        assert result.failures == ((2, str(info.value)),)
        assert result.achieved == result.expected - {2}

    def test_a_small_exponent_matrix_failure_keeps_its_degree(self, monkeypatch):
        # gammas misreads the degree-3 lift as 4, so the sweep records it
        # against degree 3; with every frontier witness also given S_1 as
        # its extra support (degree 5), failures stay in degree order
        real = families.gammas
        monkeypatch.setattr(families, "gammas", lambda n, tensors: [4 if g == 3 else g for g in real(n, tensors)])
        real_orbit = families._orbit
        monkeypatch.setattr(families, "_orbit", lambda step, column: itertools.repeat(next(real_orbit(step, column))))
        result = exponent_set(4, 4)
        message = "degree_witness(order=4, dim=4, degree=3) self-check failed: analyzed degree is 4"
        assert result.failures[0] == (3, message)
        assert [d for d, _ in result.failures] == [3, 6, 7, 8, 9, 10]
        assert result.failures[1][1].endswith("degree=6) self-check failed: analyzed degree is 5")
        assert result.achieved == {1, 2, 4, 5}
        with pytest.raises(VerificationError, match=r"^degree_witness\(order=4, dim=4, degree=3\)"):
            degree_witness(4, 4, 3)


class TestBruteForce:
    def test_trivial_dims(self):
        assert brute_force_matrix_exponent_set(1) == {1}
        assert brute_force_matrix_exponent_set(2) == {1, 2}

    def test_three_by_three(self):
        assert brute_force_matrix_exponent_set(3) == {1, 2, 3, 4, 5}

    def test_four_by_four_under_budget(self):
        start = time.monotonic()
        got = brute_force_matrix_exponent_set(4)
        elapsed = time.monotonic() - start
        assert got == {1, 2, 3, 4, 5, 6, 9, 10}
        assert elapsed < 30.0

    def test_dim_capped(self):
        with pytest.raises(ValueError):
            brute_force_matrix_exponent_set(5)
        with pytest.raises(ValueError):
            brute_force_matrix_exponent_set(0)


class TestMatrixGammaEnumeration:
    def test_exhaustive_n3_against_bool_powers(self):
        dim = 3
        for bits in range(1 << (dim * dim)):
            m = majorization_pattern(_monomial_pattern_from_bits(bits, dim, 2))
            assert matrix_gamma(m) == gamma_by_bool_powers(matrix_to_array(m), 5), bits

    def test_exhaustive_n3_batch_against_bool_powers(self):
        dim = 3
        tensors = [_monomial_pattern_from_bits(bits, dim, 2) for bits in range(1 << (dim * dim))]
        expected = [gamma_by_bool_powers(matrix_to_array(majorization_pattern(t)), 5) for t in tensors]
        assert gammas(dim, ([f.masks for f in t.rows] for t in tensors)) == expected
        assert sorted({g for g in expected if g is not None}) == [1, 2, 3, 4, 5]

    def test_sampled_n4_against_bool_powers(self):
        rng = random.Random(20260819)
        dim = 4
        for _ in range(200):
            bits = rng.getrandbits(dim * dim)
            m = majorization_pattern(_monomial_pattern_from_bits(bits, dim, 2))
            assert matrix_gamma(m) == gamma_by_bool_powers(matrix_to_array(m), 10), bits

    def test_helper_pattern_matches_bit_layout(self):
        # bit i*dim+j <-> entry (i+1, j+1)
        dim = 3
        bits = (1 << (0 * dim + 1)) | (1 << (2 * dim + 0))
        t = _monomial_pattern_from_bits(bits, dim, 3)
        assert [s.members for s in t.rows[0].sets] == [(2,)]
        assert [s.members for s in t.rows[2].sets] == [(1,)]
        assert len(t.rows[1]) == 0
