import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primdeg import CapExceededError, IndexSet, SupportFamily, bitsets
from primdeg.bitsets import MAX_DIM, _check_dim, _is_minimized, minimize_masks


def outcome(fn, *args):
    """None when ``fn(*args)`` returns, else the exception's type and message."""
    try:
        fn(*args)
    except Exception as e:
        return type(e), str(e)
    return None


def minimizing_validator(dim, masks):
    """The SupportFamily check as it was: re-minimize, compare, then ranges."""
    _check_dim(dim)
    if masks != minimize_masks(masks):
        raise ValueError("masks must be a canonical inclusion-minimal tuple")
    for m in masks:
        if not 0 < m < 1 << dim:
            raise ValueError(f"mask {m:#x} out of range for dim {dim}")


def scan_reference(masks):
    """minimize_masks as a plain scan: each candidate, smallest first, against
    every mask kept before it."""
    kept = []
    for cand in sorted(set(masks), key=lambda m: (bin(m).count("1"), m)):
        if cand == 0:
            raise ValueError("empty set is not a valid support")
        if not any(k & cand == k for k in kept):
            kept.append(cand)
    return tuple(sorted(kept))


def minimal_by_definition(masks):
    """The members of a collection of positive masks with no other member inside."""
    distinct = set(masks)
    return tuple(sorted(m for m in distinct if not any(k != m and k & m == k for k in distinct)))


@st.composite
def mask_collections(draw, max_dim=10):
    """Positive masks over [dim] of every size, nested chains (each link adds
    bits to the one before) and duplicates, in any order."""
    dim = draw(st.integers(1, max_dim))
    sized = st.sets(st.integers(0, dim - 1), min_size=1).map(lambda bits: sum(1 << b for b in bits))
    masks = draw(st.lists(sized, max_size=12))
    for link in draw(st.lists(sized, max_size=3)):
        for extra in draw(st.lists(sized, max_size=4)):
            link |= extra
            masks.append(link)
    if masks:
        masks += draw(st.lists(st.sampled_from(masks), max_size=4))
    return draw(st.permutations(masks))


class TestIndexSet:
    def test_members_round_trip(self):
        s = IndexSet.from_members([3, 1, 5], 5)
        assert s.members == (1, 3, 5)
        assert len(s) == 3
        assert 3 in s and 2 not in s and 6 not in s
        assert list(s) == [1, 3, 5]

    def test_factories(self):
        assert IndexSet(0, 4).members == ()
        assert IndexSet(0, 4).is_empty
        assert IndexSet((1 << 4) - 1, 4).members == (1, 2, 3, 4)
        assert IndexSet((1 << 4) - 1, 4).is_full
        assert IndexSet.singleton(2, 4).mask == 0b10

    def test_union_and_subset(self):
        a = IndexSet.from_members([1, 2], 4)
        b = IndexSet.from_members([2, 3], 4)
        # IndexSet has no set algebra: callers combine the masks
        with pytest.raises(TypeError):
            a | b
        with pytest.raises(TypeError):
            a & b

    def test_equality_and_hash(self):
        assert IndexSet.from_members([2, 1], 4) == IndexSet(0b11, 4)
        assert IndexSet(0b11, 4) != IndexSet(0b11, 5)
        assert len({IndexSet(1, 3), IndexSet(1, 3), IndexSet(2, 3)}) == 2

    def test_range_validation(self):
        with pytest.raises(ValueError):
            IndexSet.from_members([0], 3)
        with pytest.raises(ValueError):
            IndexSet.from_members([4], 3)
        with pytest.raises(ValueError):
            IndexSet(1 << 3, 3)
        with pytest.raises(ValueError):
            IndexSet(0, 0)

    def test_dimension_cap(self):
        IndexSet(0, MAX_DIM)
        with pytest.raises(CapExceededError):
            IndexSet(0, MAX_DIM + 1)


class TestMinimize:
    def test_absorbs_supersets_and_duplicates(self):
        # {2} kills {2,3} and its duplicate; {1,3} survives
        masks = [0b110, 0b010, 0b110, 0b101]
        assert minimize_masks(masks) == (0b010, 0b101)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            minimize_masks([0b1, 0])

    @given(st.lists(st.integers(1, 31), max_size=8))
    def test_result_is_antichain(self, masks):
        out = minimize_masks(masks)
        assert sorted(out) == list(out)
        for a in out:
            for b in out:
                assert a == b or (a & b != a and a & b != b)

    @given(mask_collections())
    def test_matches_brute_force(self, masks):
        out = minimize_masks(masks)
        assert out == minimal_by_definition(masks) == scan_reference(masks)
        assert _is_minimized(out)
        for t in (tuple(masks), tuple(sorted(set(masks)))):
            ascending = all(a < b for a, b in zip(t, t[1:]))
            assert _is_minimized(t) == (ascending and t == minimal_by_definition(t))

    @given(st.lists(st.integers(-20, 20).filter(bool), max_size=8), st.booleans())
    def test_negative_ints_scan_as_before(self, masks, canonical_order):
        # a negative int holds infinitely many bits, so it is checked against
        # every mask scanned before it, whatever its popcount
        t = tuple(sorted(set(masks))) if canonical_order else tuple(masks)
        assert minimize_masks(masks) == scan_reference(masks)
        ascending = all(a < b for a, b in zip(t, t[1:]))
        assert _is_minimized(t) == (ascending and t == scan_reference(t))

    @given(st.lists(st.integers(1, 31), max_size=8))
    def test_idempotent_and_order_free(self, masks):
        once = minimize_masks(masks)
        assert minimize_masks(once) == once
        assert minimize_masks(reversed(masks)) == once


class TestSupportFamily:
    def test_from_masks_minimizes(self):
        fam = SupportFamily.from_masks(4, [0b0110, 0b0010, 0b1100])
        assert fam.masks == (0b0010, 0b1100)

    def test_add_superset_is_noop(self):
        fam = SupportFamily.from_masks(4, [0b0010])
        assert SupportFamily.from_masks(4, fam.masks + (0b0110,)) == fam

    def test_add_subset_evicts(self):
        fam = SupportFamily.from_masks(4, [0b0110, 0b1001])
        out = SupportFamily.from_masks(4, fam.masks + (0b0010,))
        assert out.masks == (0b0010, 0b1001)

    def test_constructor_requires_canonical(self):
        with pytest.raises(ValueError):
            SupportFamily(4, (0b0110, 0b0010))  # not minimal
        with pytest.raises(ValueError):
            SupportFamily(4, (0b0100, 0b0010))  # not sorted

    def test_from_masks_skips_only_the_canonical_check(self, monkeypatch):
        # minimize_masks' output is canonical, so from_masks does not check it
        # again; the empty set and masks out of range for the dim still raise
        monkeypatch.setattr(bitsets, "_is_minimized", lambda masks: pytest.fail("re-checked"))
        assert SupportFamily.from_masks(3, [0b110, 0b010]).masks == (0b010,)
        for bad, message in ((0b1000, "out of range"), (-1, "out of range"), (0, "empty set")):
            with pytest.raises(ValueError, match=message):
                SupportFamily.from_masks(3, [0b001, bad])
        monkeypatch.undo()
        with pytest.raises(ValueError, match="canonical"):
            SupportFamily(4, (0b0110, 0b0010))  # a direct call keeps the full check

    def test_singles_multis_split(self):
        fam = SupportFamily.from_masks(5, [0b00001, 0b00100, 0b11000])
        assert fam.singles == 0b00101
        assert fam.multis == (0b11000,)

    def test_of_singletons(self):
        fam = SupportFamily.of_singletons(4, 0b1010)
        assert fam.masks == (0b0010, 0b1000)
        assert fam.multis == ()

    def test_sets_view(self):
        fam = SupportFamily.from_masks(3, [0b011, 0b100])
        assert [s.members for s in fam.sets] == [(1, 2), (3,)]
        assert IndexSet(0b011, 3) in fam
        assert IndexSet(0b001, 3) not in fam
        assert len(fam) == 2

    @given(st.lists(st.integers(1, 63), min_size=1, max_size=10))
    def test_equivalent_inputs_build_equal_families(self, masks):
        fam = SupportFamily.from_masks(6, masks)
        doubled = SupportFamily.from_masks(6, masks + masks)
        assert fam == doubled
        for m in fam.masks:
            assert any(m & orig == m for orig in masks)

    @settings(max_examples=300)
    @given(
        st.integers(1, 6),
        st.lists(st.integers(-80, 80), max_size=5),
        st.booleans(),
    )
    def test_validator_agrees_with_minimizing_check(self, dim, masks, canonical_order):
        # negatives, 0 and masks past 1 << dim included; sorting the distinct
        # draws makes tuples that pass or fail only on containment or range
        masks = tuple(sorted(set(masks))) if canonical_order else tuple(masks)
        assert outcome(SupportFamily, dim, masks) == outcome(minimizing_validator, dim, masks)

    def test_validator_keeps_message_precedence(self):
        # 5 is inside -1 as bit sets, but minimize_masks scans -1 first and
        # keeps both, so the range message wins over the canonical one
        for dim, masks, message in [
            (4, (-1, 5), "mask -0x1 out of range for dim 4"),
            (4, (-2, -1), "masks must be a canonical inclusion-minimal tuple"),
            (4, (0, 3), "empty set is not a valid support"),
            (2, (1, 6), "mask 0x6 out of range for dim 2"),
            (2, (6, 1), "masks must be a canonical inclusion-minimal tuple"),
            (4, [1, 2], "masks must be a canonical inclusion-minimal tuple"),
        ]:
            assert outcome(SupportFamily, dim, masks) == (ValueError, message)
            assert outcome(minimizing_validator, dim, masks) == (ValueError, message)
