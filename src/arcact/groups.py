"""Finite abelian label groups, given structurally as products of cyclic groups.

A group is a tuple of moduli (m_1, ..., m_r) standing for Z/m_1 x ... x Z/m_r;
elements are tuples of residues.  The empty tuple is the trivial group.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

Element = tuple[int, ...]


class GroupError(ValueError):
    """An element does not conform to a group, or a parse failed."""


@dataclass(frozen=True)
class GroupSpec:
    """Z/m_1 x ... x Z/m_r, given by its moduli.

    Each spec keeps its zero and a memo of the sums and negatives that
    ``add_unchecked`` and ``neg_unchecked`` have computed, filled only by the
    operations that run: at most order^2 sums and order negatives.  The
    cached values live in the instance dict (cached_property stores past the
    frozen __setattr__), outside the dataclass fields, so equality, hashing,
    repr and str read the moduli alone.
    """

    moduli: tuple[int, ...]

    def __post_init__(self):
        for m in self.moduli:
            if not isinstance(m, int) or m < 2:
                raise GroupError(f"modulus must be an integer >= 2, got {m!r}")

    @property
    def order(self) -> int:
        n = 1
        for m in self.moduli:
            n *= m
        return n

    @cached_property
    def zero(self) -> Element:
        return (0,) * len(self.moduli)

    @cached_property
    def _sums(self) -> dict[tuple[Element, Element], Element]:
        return {}

    @cached_property
    def _negatives(self) -> dict[Element, Element]:
        return {}

    def conforms(self, a: Element) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == len(self.moduli)
            and all(type(x) is int and 0 <= x < m for x, m in zip(a, self.moduli))
        )

    def check(self, a: Element) -> Element:
        if not self.conforms(a):
            raise GroupError(f"element {a!r} does not conform to group {self}")
        return a

    def elements(self):
        """All elements in lexicographic order."""
        return itertools.product(*(range(m) for m in self.moduli))

    def nonzero_elements(self) -> tuple[Element, ...]:
        z = self.zero
        return tuple(e for e in self.elements() if e != z)

    def __str__(self) -> str:
        if not self.moduli:
            return "Z1"
        return "x".join(f"Z{m}" for m in self.moduli)


def add(spec: GroupSpec, a: Element, b: Element) -> Element:
    spec.check(a)
    spec.check(b)
    return add_unchecked(spec, a, b)


def neg(spec: GroupSpec, a: Element) -> Element:
    spec.check(a)
    return neg_unchecked(spec, a)


# The bare operations, for operands the library has already validated (labels
# of a constructed partition); add and neg are these behind the operand checks.
# Each result is computed once per spec and kept in its memo (the trivial
# group's only element, (), is falsy, so a miss is told by None).


def add_unchecked(spec: GroupSpec, a: Element, b: Element) -> Element:
    sums = spec._sums
    total = sums.get((a, b))
    if total is None:
        total = sums[a, b] = tuple((x + y) % m for x, y, m in zip(a, b, spec.moduli))
    return total


def neg_unchecked(spec: GroupSpec, a: Element) -> Element:
    negatives = spec._negatives
    negative = negatives.get(a)
    if negative is None:
        negative = negatives[a] = tuple((-x) % m for x, m in zip(a, spec.moduli))
    return negative


@dataclass(frozen=True)
class DirectSum:
    """A @ B with the two canonical embeddings.

    A label "lies in A" when it is the image of a nonzero A-element under
    embed_a, i.e. nonzero on the A side and zero on the B side.
    """

    a: GroupSpec
    b: GroupSpec

    @property
    def spec(self) -> GroupSpec:
        return _direct_sum_spec(self.a, self.b)

    def embed_a(self, x: Element) -> Element:
        self.a.check(x)
        return x + self.b.zero

    def embed_b(self, y: Element) -> Element:
        self.b.check(y)
        return self.a.zero + y


# One spec per pair (A, B), as the ground constructors intern their grounds:
# a two-group family's members and its acting family share their label group,
# so comparing the groups is an identity test.


@lru_cache(maxsize=None)
def _direct_sum_spec(a: GroupSpec, b: GroupSpec) -> GroupSpec:
    return GroupSpec(a.moduli + b.moduli)


_GROUP_TOKEN = re.compile(r"Z(\d+)")


def parse_group(text: str) -> GroupSpec:
    """Parse "Z2", "Z2xZ2", "Z2+Z3" into a GroupSpec.

    'x' and '+' both juxtapose cyclic factors ('+' is the direct-sum
    spelling used on the command line).  Errors report the position of
    the offending character.
    """
    moduli = []
    pos = 0
    expect_factor = True
    while pos < len(text):
        ch = text[pos]
        if ch in "x+" and not expect_factor:
            expect_factor = True
            pos += 1
            continue
        m = _GROUP_TOKEN.match(text, pos)
        if not expect_factor or m is None:
            raise GroupError(f"cannot parse group {text!r} at position {pos}")
        value = int(m.group(1))
        if value < 2:
            raise GroupError(f"modulus must be >= 2 in {text!r} at position {pos}")
        moduli.append(value)
        pos = m.end()
        expect_factor = False
    if expect_factor:
        raise GroupError(f"cannot parse group {text!r} at position {pos}")
    return GroupSpec(tuple(moduli))
