import random

import numpy as np
import pytest

from oracle_utils import brute_general_product
from primdeg import (
    CapExceededError,
    column_states,
    make_pattern,
    monomial_lift,
    wielandt_matrix,
    wielandt_tensor,
)
from primdeg.dense import (
    DenseTensor,
    apply_to_basis,
    cross_check,
    densify,
    general_product,
    majorization_of,
    majorization_recursion,
    power_patterns,
    support_of,
    to_pattern,
)
from primdeg.cli import random_pattern


def rand_dense(rng, order, dim, high=3):
    shape = (dim,) * order
    vals = np.array(
        [float(rng.randint(0, high)) for _ in range(dim**order)]
    ).reshape(shape)
    return DenseTensor(order, dim, vals)


class TestConstruction:
    def test_shape_must_be_cubical(self):
        with pytest.raises(ValueError):
            DenseTensor(2, 2, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            DenseTensor(3, 2, np.zeros((2, 2)))

    def test_negative_rejected(self):
        vals = np.zeros((2, 2))
        vals[0, 1] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            DenseTensor(2, 2, vals)

    def test_cell_cap(self):
        with pytest.raises(CapExceededError):
            DenseTensor.zeros(21, 2)

    def test_values_frozen(self):
        t = DenseTensor.zeros(2, 2)
        with pytest.raises(ValueError):
            t.values[0, 0] = 1.0

    def test_record_equal_only_to_itself(self):
        vals = np.zeros((2, 2))
        t = DenseTensor(order=2, dim=2, values=vals)
        twin = DenseTensor(2, 2, vals)
        assert t == t and t != twin and hash(t) != hash(twin)
        assert repr(t) == "DenseTensor(order=2, dim=2, values=array([[0., 0.],\n       [0., 0.]]))"
        with pytest.raises(AttributeError):
            t.order = 3
        with pytest.raises(AttributeError):
            del t.values

    def test_value_at_uses_one_based_indices(self):
        vals = np.zeros((2, 2, 2))
        vals[1, 0, 1] = 7.0
        t = DenseTensor(3, 2, vals)
        assert t.value_at((2, 1, 2)) == 7.0
        assert t.value_at((1, 1, 1)) == 0.0
        with pytest.raises(ValueError):
            t.value_at((1, 1))

    def test_from_array_copies(self):
        src = np.ones((2, 2))
        t = DenseTensor.from_array(src)
        src[0, 0] = 5.0
        assert t.value_at((1, 1)) == 1.0


VECTOR = DenseTensor(1, 2, np.zeros(2))


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: DenseTensor(0, 2, np.zeros(())), "order must be >= 1, got 0"),
            (lambda: DenseTensor.from_array(np.float64(1.0)), "array must have at least one axis"),
            (lambda: DenseTensor.from_array(np.zeros((2, 3))), "all axes must have equal length, got shape (2, 3)"),
            (lambda: DenseTensor.zeros(2, 2).value_at((1, 3)), "index 3 out of range 1..2"),
            (lambda: general_product(VECTOR, VECTOR), "left factor must have order >= 2, got 1"),
            (lambda: power_patterns(VECTOR, 1), "order must be >= 2, got 1"),
            (lambda: majorization_of(VECTOR), "order must be >= 2, got 1"),
            (lambda: apply_to_basis(VECTOR, 1, 1), "order must be >= 2, got 1"),
            (lambda: to_pattern(VECTOR), "order must be >= 2, got 1"),
            (lambda: apply_to_basis(DenseTensor.zeros(2, 2), 3, 1), "column 3 out of range 1..2"),
            (lambda: apply_to_basis(DenseTensor.zeros(2, 2), 1, 0), "steps must be >= 1, got 0"),
            (lambda: majorization_recursion(DenseTensor.zeros(2, 2), 0), "steps must be >= 1, got 0"),
        ],
    )
    def test_each_check_names_its_input(self, call, message):
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == message


class TestGeneralProduct:
    def test_matches_nested_loop_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            m = rng.randint(2, 3)
            k = rng.randint(2, 3)
            n = rng.randint(2, 3)
            a = rand_dense(rng, m, n)
            b = rand_dense(rng, k, n)
            got = general_product(a, b)
            assert got.order == (m - 1) * (k - 1) + 1
            assert got.dim == n
            want = brute_general_product(a.values, b.values)
            assert np.array_equal(got.values, want), (m, k, n)

    def test_degenerates_to_matmul(self):
        rng = random.Random(12)
        a = rand_dense(rng, 2, 4)
        b = rand_dense(rng, 2, 4)
        assert np.array_equal(general_product(a, b).values, a.values @ b.values)

    def test_matrix_times_vector(self):
        a = DenseTensor.from_array(np.array([[1.0, 2.0], [0.0, 3.0]]))
        x = DenseTensor.from_array(np.array([10.0, 1.0]))
        assert np.array_equal(general_product(a, x).values, np.array([12.0, 3.0]))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            general_product(DenseTensor.zeros(2, 2), DenseTensor.zeros(2, 3))

    def test_overflow_detected(self):
        big = DenseTensor.from_array(np.full((2, 2), 1e200))
        with pytest.raises(OverflowError):
            general_product(general_product(big, big), big)

    def test_associative_on_small_integers(self):
        rng = random.Random(13)
        for _ in range(10):
            a = rand_dense(rng, 3, 2, high=2)
            b = rand_dense(rng, 2, 2, high=2)
            c = rand_dense(rng, 2, 2, high=2)
            left = general_product(general_product(a, b), c)
            right = general_product(a, general_product(b, c))
            assert np.array_equal(left.values, right.values)


class TestPowerPatterns:
    def test_first_is_binarized_input(self):
        rng = random.Random(14)
        a = rand_dense(rng, 2, 3)
        pats = power_patterns(a, 1)
        assert len(pats) == 1
        assert np.array_equal(pats[0].values, (a.values > 0).astype(float))

    def test_orders_follow_product_rule(self):
        a = densify(wielandt_tensor(3, 3))
        pats = power_patterns(a, 3)
        assert [p.order for p in pats] == [3, 5, 9]

    def test_cap_stops_growth(self):
        a = densify(wielandt_tensor(3, 3))
        with pytest.raises(CapExceededError):
            power_patterns(a, 15)

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            power_patterns(DenseTensor.zeros(2, 2), 0)


class TestMajorization:
    def test_recovers_lifted_matrix(self):
        m = wielandt_matrix(5)
        t = densify(monomial_lift(m, 4))
        assert majorization_of(t) == m

    def test_recursion_start_equals_majorization(self):
        rng = random.Random(15)
        a = rand_dense(rng, 3, 4)
        rec = majorization_recursion(a, 3)
        assert rec[0] == majorization_of(a)

    def test_recursion_columns_are_trace_states(self):
        # pattern of a^k has S_k(j) as its j-th column
        a0 = wielandt_tensor(5, 5)
        a = densify(a0)
        rec = majorization_recursion(a, 6)
        for j in range(1, 6):
            states = column_states(a0, j, 6)
            for k in range(1, 7):
                assert rec[k - 1].reversed_digraph().rows[j - 1] == states[k - 1], (j, k)

    def test_recursion_outruns_explicit_powers(self):
        a = densify(wielandt_tensor(3, 3))
        rec = majorization_recursion(a, 10)
        assert len(rec) == 10
        with pytest.raises(CapExceededError):
            power_patterns(a, 10)

    def test_recursion_matches_explicit_powers_while_both_fit(self):
        rng = random.Random(16)
        for _ in range(8):
            dim = rng.randint(2, 3)
            a = rand_dense(rng, 3, dim)
            rec = majorization_recursion(a, 3)
            pats = power_patterns(a, 3)
            for k in range(1, 4):
                arr = pats[k - 1].values
                n = a.dim
                for j in range(1, n + 1):
                    col = arr[(slice(None),) + (j - 1,) * (arr.ndim - 1)]
                    got = frozenset(int(u) + 1 for u in range(n) if col[u])
                    assert got == frozenset(rec[k - 1].reversed_digraph().rows[j - 1].members)


class TestApplyToBasis:
    def test_wielandt_example(self):
        t = densify(wielandt_tensor(3, 3))
        vecs = apply_to_basis(t, 2, 1)
        assert support_of(vecs[0]).members == (1, 3)

    def test_matches_column_states(self):
        rng = random.Random(17)
        for _ in range(10):
            order = rng.randint(2, 3)
            dim = rng.randint(2, 4)
            pat = random_pattern(rng, order, dim)
            dense = densify(pat)
            steps = 5
            vecs = apply_to_basis(dense, 1, steps)
            states = column_states(pat, 1, steps)
            assert len(vecs) == steps
            for k in range(steps):
                assert support_of(vecs[k]) == states[k], k

    def test_support_of_rejects_bad_input(self):
        with pytest.raises(ValueError):
            support_of(np.zeros((2, 2)))


class TestDensifyAndBack:
    def test_canonical_cell_layout(self):
        pat = make_pattern(4, 3, [(2, (1, 3, 3))])
        dense = densify(pat)
        # one positive cell per support: (u, s1, ..., sr, pad with last index)
        assert dense.value_at((2, 1, 3, 3)) == 1.0
        assert float(dense.values.sum()) == 1.0

    def test_singleton_pads_across_remaining_axes(self):
        pat = make_pattern(3, 3, [(1, (2, 2))])
        dense = densify(pat)
        assert dense.value_at((1, 2, 2)) == 1.0
        assert float(dense.values.sum()) == 1.0

    def test_round_trip_random_patterns(self):
        rng = random.Random(19)
        for _ in range(50):
            order = rng.randint(2, 4)
            dim = rng.randint(1, 5)
            pat = random_pattern(rng, order, dim)
            assert to_pattern(densify(pat)) == pat

    def test_to_pattern_minimizes(self):
        vals = np.zeros((2, 2, 2))
        vals[0, 0, 0] = 1.0  # support {1}
        vals[0, 0, 1] = 2.5  # support {1,2}, absorbed by {1}
        t = DenseTensor(3, 2, vals)
        pat = to_pattern(t)
        assert [s.members for s in pat.rows[0].sets] == [(1,)]


class TestCrossCheck:
    @pytest.mark.parametrize(
        "tensor, ran",
        [
            (monomial_lift(wielandt_matrix(4), 2), ["degree"]),
            (make_pattern(2, 3, [(1, (2,)), (2, (3,)), (3, (1,))]), ["degree"]),  # never all positive
            (wielandt_tensor(3, 3), ["explicit-powers"]),
            (make_pattern(3, 2, [(1, (2, 2)), (2, (1, 2))]), ["explicit-powers", "associativity"]),
            (wielandt_tensor(4, 4), []),
        ],
    )
    def test_names_the_optional_checks_that_ran(self, tensor, ran):
        assert cross_check(tensor, 5, random.Random(0)) == ([], ran)

    def test_draws_only_the_associativity_triple(self):
        # three 2x2x2 integer tensors, 24 randint calls; no other check draws
        a, b = random.Random(3), random.Random(3)
        cross_check(make_pattern(3, 2, [(1, (2, 2)), (2, (1, 2))]), 4, a)
        for _ in range(24):
            b.randint(0, 3)
        assert a.getstate() == b.getstate()
        cross_check(wielandt_tensor(3, 3), 4, a)
        assert a.getstate() == b.getstate()
