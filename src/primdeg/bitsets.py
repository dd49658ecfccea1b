"""Index sets over {1, ..., n} as bitmasks, and inclusion-minimal set families.

Everything downstream (pattern tensors, digraph frontiers, trace states) stores
subsets of [n] as plain integers: bit i-1 set means index i is a member. The
classes here are thin immutable wrappers that carry the universe size along with
the mask; hot loops work on the raw masks directly.

The universe size is capped (default 128, override with the PRIMDEG_MAX_DIM
environment variable) so that a typo'd dimension fails fast instead of silently
allocating gigantic iteration spaces.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError

MAX_DIM = int(os.environ.get("PRIMDEG_MAX_DIM", "128"))


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if dim > MAX_DIM:
        raise CapExceededError(
            f"dimension {dim} exceeds the cap {MAX_DIM} (set PRIMDEG_MAX_DIM to raise it)"
        )


_set = object.__setattr__  # writes past Record.__setattr__: for a record's __init__ only


class Record:
    """Base of the package's immutable records. ``_fields`` are the parameters of
    ``__init__`` less ``_hidden``; ``__init__`` checks and stores them with ``_set``.
    Records of one class with equal fields are equal; a record hashes and shows
    its fields, and refuses assignment and deletion."""

    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__  # the parameters, self first, lead co_varnames
        cls._fields = tuple(f for f in code.co_varnames[1 : code.co_argcount] if f not in cls._hidden)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class IndexSet(Record):
    """An immutable subset of {1, ..., dim}, stored as a bitmask.

    Bit i-1 of ``mask`` is set exactly when index i is a member.
    """

    def __init__(self, mask: int, dim: int) -> None:
        _check_dim(dim)
        if not 0 <= mask < (1 << dim):
            raise ValueError(f"mask {mask:#x} out of range for dim {dim}")
        _set(self, "mask", mask)
        _set(self, "dim", dim)

    @classmethod
    def from_members(cls, members: Iterable[int], dim: int) -> "IndexSet":
        _check_dim(dim)
        mask = 0
        for i in members:
            if not 1 <= i <= dim:
                raise ValueError(f"index {i} out of range 1..{dim}")
            mask |= 1 << (i - 1)
        return cls(mask, dim)

    @classmethod
    def singleton(cls, i: int, dim: int) -> "IndexSet":
        return cls.from_members((i,), dim)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple([i + 1 for i in bit_indices(self.mask)])

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << self.dim) - 1

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __contains__(self, i: int) -> bool:
        return 1 <= i <= self.dim and bool(self.mask >> (i - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"IndexSet({_braces(self.mask)}, dim={self.dim})"


def minimize_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Reduce a collection of positive masks to its inclusion-minimal antichain.

    Supersets of a kept mask are dropped; duplicates collapse. The result is
    sorted ascending by mask value, which is the canonical storage order. A
    mask below 1 raises ValueError: 0 is the empty set, and a negative int is
    no subset of [n]; 0 is named first, then the negative mask with the
    fewest bits and then the least value.

    A candidate with p members is tested against the kept masks the cheaper
    way: by looking up its 2^p - 2 proper non-empty submasks (Pritchard, "A
    simple sub-quadratic algorithm for computing the subset partial order",
    IPL 1995), or by scanning the kept masks when there are fewer of them.
    """
    ordered = sorted(set(masks))
    if ordered and ordered[0] < 1:
        bad = min([m for m in ordered if m < 1], key=lambda m: (m.bit_count(), m))
        raise ValueError(f"mask {bad:#x} out of range" if bad else "empty set is not a valid support")
    kept: list[int] = []
    index: set[int] | None = None  # kept[:len(index)], made at the first walk
    for cand in ordered:  # a proper subset is a smaller int, so it comes first
        # a singleton has no submask to look up, and a pair's two are fewer
        # than the kept masks only once there are three of them
        if len(kept) > 2 and (1 << cand.bit_count()) - 2 < len(kept):
            if index is None:
                index = set()
            index.update(kept[len(index) :])
            sub = (cand - 1) & cand
            while sub and sub not in index:
                sub = (sub - 1) & cand
            if not sub:
                kept.append(cand)
        else:
            for k in kept:
                if k & cand == k:
                    break
            else:
                kept.append(cand)
    return tuple(kept)


def bit_indices(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, ascending and 0-based."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _braces(mask: int) -> str:
    """The members of ``mask`` as a set, ``{1,3}``: how reprs and documents spell one."""
    return "{" + ",".join([str(i + 1) for i in bit_indices(mask)]) + "}"


def transpose_masks(masks: Sequence[int]) -> tuple[int, ...]:
    """Columns of the square 0/1 matrix whose row u is ``masks[u]``.

    Bit u of the j-th result is set exactly when bit j of ``masks[u]`` is.
    Involutive on n masks over n bits.
    """
    out = [0] * len(masks)
    for u, m in enumerate(masks):
        for j in bit_indices(m):
            out[j] |= 1 << u
    return tuple(out)


class SupportFamily(Record):
    """An inclusion-minimal family (antichain) of nonempty subsets of [dim].

    ``masks`` is the canonical sorted tuple of member bitmasks: a direct call
    checks that ``masks == minimize_masks(masks)``. Construction via
    :meth:`from_masks` minimizes arbitrary input: inserting a
    superset of a present set is a no-op, inserting a subset evicts everything it
    dominates. Two families built from step-equivalent raw collections therefore
    compare equal.
    """

    def __init__(self, dim: int, masks: tuple[int, ...], *, _canonical: bool = False) -> None:
        _check_dim(dim)
        if not (_canonical or isinstance(masks, tuple) and masks == minimize_masks(masks)):
            raise ValueError("masks must be a canonical inclusion-minimal tuple")
        limit = 1 << dim
        if masks and masks[-1] >= limit:  # canonical order ends with the largest mask
            bad = next(m for m in masks if m >= limit)
            raise ValueError(f"mask {bad:#x} out of range for dim {dim}")
        singles = 0
        multis = []
        for m in masks:
            if m & (m - 1):
                multis.append(m)
            else:
                singles |= m
        _set(self, "dim", dim)
        _set(self, "masks", masks)
        # Split views for the step hot loop, out of equality and repr: the union of all
        # singleton members, and the masks of size >= 2 that need a containment check.
        _set(self, "singles", singles)
        _set(self, "multis", tuple(multis))

    @classmethod
    def from_masks(cls, dim: int, masks: Iterable[int]) -> "SupportFamily":
        return cls(dim, minimize_masks(masks), _canonical=True)

    @classmethod
    def of_singletons(cls, dim: int, union_mask: int) -> "SupportFamily":
        """Family consisting of one singleton per set bit of ``union_mask``."""
        if not 0 <= union_mask < (1 << dim):
            raise ValueError(f"mask {union_mask:#x} out of range for dim {dim}")
        return cls(dim, tuple(1 << i for i in range(dim) if union_mask >> i & 1), _canonical=True)

    @property
    def sets(self) -> tuple[IndexSet, ...]:
        return tuple(IndexSet(m, self.dim) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, s: IndexSet) -> bool:
        return s.dim == self.dim and s.mask in self.masks

    def __repr__(self) -> str:
        return f"SupportFamily(dim={self.dim}, [{' '.join(map(_braces, self.masks))}])"
