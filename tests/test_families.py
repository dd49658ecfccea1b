import random
import time

import pytest

from oracle_utils import gamma_by_bool_powers, matrix_to_array
from primdeg import (
    IndexSet,
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
from primdeg import families
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
    def test_full_interval_small_cases(self):
        for order, dim in ((3, 3), (4, 4)):
            result = exponent_set(order, dim)
            assert result.complete, result.failures
            assert result.achieved == frozenset(range(1, (dim - 1) ** 2 + 2))
            for w in result.witnesses:
                assert analyze(w.tensor).gamma == w.degree

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
        real = families.column_states

        def swapped(tensor, column, steps):
            states = real(tensor, column, steps + 1)
            return states[: k - 1] + (states[k],) + states[k:steps] if steps >= k else states[:steps]

        monkeypatch.setattr(families, "column_states", swapped)
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
        real = families.small_exponent_matrix
        monkeypatch.setattr(
            families, "small_exponent_matrix", lambda dim, t: wielandt_matrix(dim) if t == 2 else real(dim, t)
        )
        with pytest.raises(VerificationError) as info:
            degree_witness(5, 5, 2)
        assert str(info.value).endswith("self-check failed: analyzed degree is 17")
        result = exponent_set(5, 5)
        assert result.failures == ((2, str(info.value)),)
        assert result.achieved == result.expected - {2}

    def test_a_small_exponent_matrix_failure_keeps_its_degree(self, monkeypatch):
        # matrix_gamma misreads exponent 3 as 4, so small_exponent_matrix
        # raises at build time for target 3; with every frontier witness also
        # given S_1 as its extra support (degree 5), failures stay in degree order
        real = families.matrix_gamma
        monkeypatch.setattr(families, "matrix_gamma", lambda m: 4 if real(m) == 3 else real(m))
        real_states = families.column_states
        monkeypatch.setattr(
            families, "column_states", lambda t, c, steps: real_states(t, c, steps)[:1] * steps
        )
        result = exponent_set(4, 4)
        message = "small_exponent_matrix(dim=4, target=3) self-check failed: exponent is 4"
        assert result.failures[0] == (3, message)
        assert [d for d, _ in result.failures] == [3, 6, 7, 8, 9, 10]
        assert result.failures[1][1].endswith("degree=6) self-check failed: analyzed degree is 5")
        assert result.achieved == {1, 2, 4, 5}
        with pytest.raises(VerificationError, match=r"^small_exponent_matrix\(dim=4, target=3\)"):
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
