import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_utils import frontier_by_bool_powers, gamma_by_bool_powers, matrix_to_array
from primdeg import (
    IndexSet,
    PatternMatrix,
    analyze,
    column_states,
    exact_length_frontier,
    frobenius_representable,
    matrix_gamma,
    monomial_lift,
    wielandt_matrix,
)


def random_matrix(rng, dim, density):
    pairs = [
        (u, v)
        for u in range(1, dim + 1)
        for v in range(1, dim + 1)
        if rng.random() < density
    ]
    return PatternMatrix.from_entries(dim, pairs)


class TestPatternMatrix:
    def test_entries_round_trip(self):
        m = PatternMatrix.from_entries(3, [(1, 2), (3, 1), (1, 2)])
        assert 2 in m.rows[0] and 1 in m.rows[2]
        assert 2 not in m.rows[1]
        assert m.to_rows01() == [[0, 1, 0], [0, 0, 0], [1, 0, 0]]

    def test_rows01_round_trip(self):
        rows = [[1, 0, 1], [0, 1, 0], [1, 1, 1]]
        assert PatternMatrix.from_rows01(rows).to_rows01() == rows

    def test_column_view(self):
        # column j of the matrix is row j of its transpose
        cols = wielandt_matrix(4).reversed_digraph().rows
        assert [c.members for c in cols] == [(2,), (3,), (1, 4), (1,)]

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            PatternMatrix.from_entries(3, [(0, 1)])
        with pytest.raises(ValueError):
            PatternMatrix.from_entries(3, [(1, 4)])
        with pytest.raises(ValueError):
            PatternMatrix.from_rows01([[0, 1], [1]])


class TestDigraphConstruction:
    def test_wielandt_reversed_arcs(self):
        rd = wielandt_matrix(5).reversed_digraph()
        assert isinstance(rd, PatternMatrix)
        assert rd.rows[0].members == (2,)
        assert rd.rows[1].members == (3,)
        assert rd.rows[2].members == (4,)
        assert rd.rows[3].members == (1, 5)
        assert rd.rows[4].members == (1,)

    def test_reverse_is_involutive(self):
        m = wielandt_matrix(6)
        rd = m.reversed_digraph()
        assert rd != m
        assert rd.reversed_digraph() == m
        # the transpose identity: entry (i, j) of the reversal is entry (j, i)
        transposed = [list(col) for col in zip(*m.to_rows01())]
        assert rd.to_rows01() == transposed

    def test_has_arc(self):
        # an arc u -> v of the digraph is the positive entry (u, v)
        d = wielandt_matrix(4)
        assert 1 in d.rows[1] and 3 in d.rows[0] and 4 in d.rows[0]
        assert 2 not in d.rows[0]

    @given(st.integers(2, 6), st.integers(0, 2**12 - 1))
    def test_arc_sets_transpose(self, dim, bits):
        rows = [
            [(bits >> ((u * dim + v) % 12)) & 1 for v in range(dim)]
            for u in range(dim)
        ]
        m = PatternMatrix.from_rows01(rows)
        rd = m.reversed_digraph()
        assert rd.reversed_digraph() == m
        for u in range(1, dim + 1):
            for v in range(1, dim + 1):
                assert (v in m.rows[u - 1]) == (u in rd.rows[v - 1]) == bool(rows[u - 1][v - 1])


class TestExactLengthFrontier:
    def test_length_zero_is_start(self):
        d = wielandt_matrix(5).reversed_digraph()
        assert exact_length_frontier(d, 3, 0).members == (3,)

    def test_wielandt_near_miss(self):
        rd = wielandt_matrix(5).reversed_digraph()
        front = exact_length_frontier(rd, 4, 12)
        assert front.members == (1, 2, 3, 4)
        assert 5 not in front

    def test_validation(self):
        d = wielandt_matrix(4)
        with pytest.raises(ValueError):
            exact_length_frontier(d, 5, 1)
        with pytest.raises(ValueError):
            exact_length_frontier(d, 1, -1)

    @pytest.mark.parametrize("length", [1, 2, 225, 226])
    def test_reads_the_orbit_without_an_index_set_per_step(self, monkeypatch, length):
        # at n = 16 the transpose's 16 rows and the answer, not one IndexSet per step
        n, d = 16, wielandt_matrix(16)
        want = column_states(monomial_lift(d.reversed_digraph(), 2), n, length)[-1]
        made = []
        init = IndexSet.__init__

        def counted(self, mask, dim):
            made.append(mask)
            init(self, mask, dim)

        monkeypatch.setattr(IndexSet, "__init__", counted)
        got = exact_length_frontier(d, n, length)
        assert len(made) <= n + 1
        assert got == want

    def test_agrees_with_boolean_powers(self):
        # the column frontier of the matrix is the walk frontier of the
        # reversed digraph
        rng = random.Random(20260819)
        for _ in range(25):
            dim = rng.randint(2, 6)
            m = random_matrix(rng, dim, rng.choice([0.2, 0.4, 0.7]))
            rd = m.reversed_digraph()
            arr = matrix_to_array(m)
            start = rng.randint(1, dim)
            for length in range(0, 9):
                got = frozenset(exact_length_frontier(rd, start, length).members)
                want = frontier_by_bool_powers(arr, start, length)
                assert got == want, (dim, start, length)


class TestMatrixGamma:
    def test_wielandt_value(self):
        assert matrix_gamma(wielandt_matrix(5)) == 17
        assert matrix_gamma(wielandt_matrix(8)) == 50

    def test_all_ones_is_one(self):
        m = PatternMatrix.from_rows01([[1, 1], [1, 1]])
        assert matrix_gamma(m) == 1

    def test_cycle_is_imprimitive(self):
        m = PatternMatrix.from_entries(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert matrix_gamma(m) is None

    def test_budget_passthrough(self):
        # matrix_gamma is analyze on the order-2 lift, which takes the budget
        assert analyze(monomial_lift(wielandt_matrix(5), 2), max_steps=16).gamma is None
        assert analyze(monomial_lift(wielandt_matrix(5), 2), max_steps=17).gamma == 17

    def test_agrees_with_boolean_powers(self):
        rng = random.Random(7)
        for _ in range(60):
            dim = rng.randint(1, 6)
            m = random_matrix(rng, dim, rng.choice([0.15, 0.3, 0.5, 0.8]))
            arr = matrix_to_array(m)
            bound = (dim - 1) ** 2 + 1
            assert matrix_gamma(m) == gamma_by_bool_powers(arr, bound), m.to_rows01()


class TestWielandtMatrix:
    def test_smallest_case_entries(self):
        m = wielandt_matrix(3)
        positives = {
            (u, v) for u in range(1, 4) for v in range(1, 4) if v in m.rows[u - 1]
        }
        assert positives == {(1, 2), (1, 3), (2, 1), (3, 2)}

    def test_row_structure(self):
        m = wielandt_matrix(7)
        assert m.rows[0].members == (6, 7)
        for i in range(1, 7):
            assert m.rows[i].members == (i,)

    def test_too_small(self):
        with pytest.raises(ValueError):
            wielandt_matrix(2)


class TestFrobeniusRepresentable:
    def test_examples(self):
        # with 3 and 4: 11 = 3+4+4 yes, 5 no
        assert frobenius_representable(3, 4, 11)
        assert not frobenius_representable(3, 4, 5)
        assert frobenius_representable(3, 4, 0)
        assert not frobenius_representable(3, 4, 1)

    def test_classical_boundary_for_coprime_pairs(self):
        for a in range(2, 8):
            for b in range(a + 1, 9):
                if math.gcd(a, b) != 1:
                    continue
                frob = a * b - a - b
                assert not frobenius_representable(a, b, frob)
                for target in range(frob + 1, frob + 2 * b):
                    assert frobenius_representable(a, b, target)

    def test_near_bound_gap_family(self):
        for n in range(3, 31):
            assert not frobenius_representable(n, n - 1, n * n - 3 * n + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            frobenius_representable(0, 3, 5)
        with pytest.raises(ValueError):
            frobenius_representable(3, 4, -1)


class TestDigraphValidation:
    def test_neighbor_dim_checked(self):
        with pytest.raises(ValueError, match="row dimension 4 does not match 3"):
            PatternMatrix(3, (IndexSet(0, 3), IndexSet(0, 4), IndexSet(0, 3)))
        with pytest.raises(ValueError, match="expected 3 rows, got 1"):
            PatternMatrix(3, (IndexSet(0, 3),))
