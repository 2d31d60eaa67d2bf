"""Exhaustive, deterministic generators for every partition family.

Families are named by short codes:

* A-ground: PI, NC, L, NN and the two-group variants PI_AB, NC_AB
* B-ground: P_B, NC_TILDE_B, L_B and *_AB variants
* D-ground: P_D, NC_TILDE_D, L_D, NN_B and *_AB variants

The two-group ("AB") families put the second group's labels on cover arcs
and the first group's labels on all other arcs.  Streams are duplicate-free
and sorted by the row-major reading of the rook matrix.

``enumerate_family`` streams a family in that order, sorting nothing and
holding no member, so one pass over a large family runs in the memory of
its shapes.  ``family_members`` is the same stream for readers that come
back to a family: it builds the members once per process and keeps them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    Arc,
    GroundSet,
    LabeledSetPartition,
    StructuralError,
    _Z2,
    blocks_from_arcs,
    canonical_blocks,
    chain_blocks,
    ground_a,
    ground_b,
    ground_d,
)
from .groups import DirectSum, GroupSpec, neg_unchecked

A_FAMILIES = {"PI", "NC", "L", "NN", "PI_AB", "NC_AB", "L_AB"}
B_FAMILIES = {"P_B", "NC_TILDE_B", "L_B", "P_B_AB", "NC_TILDE_B_AB", "L_B_AB"}
D_FAMILIES = {"P_D", "NC_TILDE_D", "L_D", "NN_B", "P_D_AB", "NC_TILDE_D_AB", "L_D_AB"}
UNLABELED_FAMILIES = {"NN", "NN_B"}
ALL_FAMILIES = A_FAMILIES | B_FAMILIES | D_FAMILIES


def family_ground(family: str, n: int) -> GroundSet:
    """The ground set a family of parameter n lives on."""
    if family in A_FAMILIES:
        return ground_a(n)
    if family in B_FAMILIES:
        return ground_b(n)
    return ground_d(n)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int
    groups: tuple[GroupSpec, ...] = ()

    def __post_init__(self):
        if self.family not in ALL_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 0:
            raise ValueError("family parameter must be nonnegative")
        need = 0 if self.family in UNLABELED_FAMILIES else (2 if self.is_ab else 1)
        if len(self.groups) != need:
            raise ValueError(
                f"family {self.family} needs {need} group(s), got {len(self.groups)}"
            )

    @property
    def is_ab(self) -> bool:
        return self.family.endswith("_AB")

    @property
    def ground(self) -> GroundSet:
        return family_ground(self.family, self.n)

    @property
    def label_group(self) -> GroupSpec:
        if self.family in UNLABELED_FAMILIES:
            return _Z2
        if self.is_ab:
            return DirectSum(self.groups[0], self.groups[1]).spec
        return self.groups[0]


# ---------------------------------------------------------------------------
# block structures


def set_partitions(elements):
    """All partitions of an ordered element list (restricted growth order).

    Blocks keep the list's order, so an increasing list gives canonical
    block structures.
    """
    elements = list(elements)
    if not elements:
        yield ()
        return

    def rec(k, blocks):
        if k == len(elements):
            yield tuple(tuple(b) for b in blocks)
            return
        x = elements[k]
        for b in blocks:
            b.append(x)
            yield from rec(k + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(k + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def _subsets(values):
    values = list(values)
    for r in range(len(values) + 1):
        yield from itertools.combinations(values, r)


def symmetric_partitions(n, has_zero, allow_self_negative, *, nc_tilde=False):
    """Partitions of [-n..n] (optionally with 0) whose block set is negation
    closed, each once.

    ``allow_self_negative`` admits nonzero blocks B with B = -B; switching it
    off yields exactly the block structures in which every block pair is
    {B, -B} with B != -B, apart from the zero block when present.
    ``nc_tilde`` keeps the relaxed noncrossing ones: every crossing is of a
    mirror pair (i, k), (-k, -i).

    For i = 1..n, i joins a block b and -i joins -b (b = -b for the zero
    block and the self-negative ones), or +-i start a pair {i}, {-i} or a
    block {-i, i}.  As i tops every value placed so far, a join to a block
    with top a adds exactly the arcs (a, i) and (-i, -a), a mirror pair that
    crosses an earlier arc exactly when one spans a or, by symmetry, -a:
    when some block c has c[0] < a < c[-1].  nc_tilde skips those joins.
    """
    blocks = [[0]] if has_zero else []  # each kept sorted
    mirror = [0] if has_zero else []  # the index of each block's negation

    def grow(i):
        if i > n:
            yield canonical_blocks(blocks)
            return
        for k, b in enumerate(blocks):
            a = b[-1]
            if nc_tilde and any(c[0] < a < c[-1] for c in blocks):
                continue
            nb = blocks[mirror[k]]
            b.append(i)
            nb.insert(0, -i)
            yield from grow(i + 1)
            del nb[0]
            b.pop()
        k = len(blocks)
        blocks.extend(([i], [-i]))
        mirror.extend((k + 1, k))
        yield from grow(i + 1)
        if allow_self_negative:
            blocks[k:] = [[-i, i]]
            mirror[k:] = [k]
            yield from grow(i + 1)
        del blocks[k:], mirror[k:]

    yield from grow(1)


def _linear_blocks(ground: GroundSet):
    """Block structures whose arcs are all covers (consecutive-integer blocks)."""
    elements = ground.elements()
    if ground.kind == "A":
        slots = [(i, i + 1) for i in elements if i + 1 in elements]
    else:
        # cover slots come in mirrored pairs; enumerate the nonnegative side
        slots = [(i, i + 1) for i in range(0 if ground.kind == "B" else 1, ground.n)]
    for chosen in _subsets(slots):
        arcs = set()
        for i, j in chosen:
            arcs.add((i, j))
            if ground.kind != "A":
                arcs.add((-j, -i))
        yield tuple(sorted(arcs))


def _noncrossing_shapes(n):
    """NC(n) by first-block recursion, each shape built once.

    The block of lo in a partition of [lo..hi] is lo alone, or lo followed
    by the block of some j > lo in a partition of [j..hi]; the gap
    [lo+1..j-1] between them is an independent partition.  Unfolding this
    gives the block {lo = a1 < ... < ak} with an independent noncrossing
    partition of every gap and of the tail after ak.  Blocks come out
    sorted by minimum, so every shape is canonical.
    """
    memo = {}

    def nc(lo, hi):
        if lo > hi:
            return ((),)
        key = (lo, hi)
        if key not in memo:
            out = [((lo,),) + t for t in nc(lo + 1, hi)]
            for j in range(lo + 1, hi + 1):
                tails = nc(j, hi)
                for g in nc(lo + 1, j - 1):
                    out.extend(((lo,) + t[0],) + g + t[1:] for t in tails)
            memo[key] = out
        return memo[key]

    return nc(1, n)


def _nonnesting_shapes(paths, ground):
    # the valleys of a Dyck path have distinct left and distinct right ends
    return [chain_blocks(ground, dict(valley_arcs(p, ground))) for p in paths]


@lru_cache(maxsize=None)
def family_shapes(family: str, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Unlabeled block structures of a family, deterministically ordered.

    NC comes from a first-block recursion, NN and NN_B from Dyck paths
    through ``valley_arcs`` (all paths of 2n steps, the symmetric paths of
    4n steps).  PI lists the set partitions.  The P and NC~ families grow
    the negation-closed partitions centre-outward, NC~ skipping every join
    whose arcs would cross an earlier one (``symmetric_partitions``), and
    the L families choose cover arcs.  No family is filtered.
    """
    base = family[:-3] if family.endswith("_AB") else family
    if base == "PI":
        shapes = set_partitions(range(1, n + 1))
    elif base == "NC":
        shapes = _noncrossing_shapes(n)
    elif base == "NN":
        shapes = _nonnesting_shapes(enumerate_dyck(n), ground_a(n))
    elif base == "NN_B":
        shapes = _nonnesting_shapes(symmetric_dyck(n), ground_d(n))
    elif base in ("L", "L_B", "L_D"):
        g = family_ground(base, n)
        shapes = [blocks_from_arcs(g, arcs) for arcs in _linear_blocks(g)]
    elif base in ("P_B", "NC_TILDE_B", "P_D", "NC_TILDE_D"):
        # the B ground holds 0; no arc (-i, i): nonzero blocks are not self-negative
        shapes = symmetric_partitions(
            n, base.endswith("B"), False, nc_tilde=base.startswith("NC_TILDE")
        )
    else:  # pragma: no cover
        raise ValueError(base)
    return tuple(sorted(shapes))


# ---------------------------------------------------------------------------
# members in rook order


def _pools(spec: FamilySpec) -> tuple[tuple, tuple]:
    """The labels a free cover arc and any other free arc may carry, ascending.

    The two-group families draw covers from the second group and other arcs
    from the first; both embeddings keep the lexicographic element order.
    The unlabeled families carry (1,) in Z2 on every arc.
    """
    if spec.is_ab:
        ds = DirectSum(spec.groups[0], spec.groups[1])
        return (
            tuple(ds.embed_b(v) for v in ds.b.nonzero_elements()),
            tuple(ds.embed_a(v) for v in ds.a.nonzero_elements()),
        )
    pool = spec.label_group.nonzero_elements()
    return pool, pool


def enumerate_family(spec: FamilySpec):
    """Stream of all family members, each once, in rook-matrix order.

    Nothing is held but the shapes.  ``rook_sort_key`` reads a member as its
    arcs in order, each arc as its position ``(-i, -j)`` and then its label,
    a shorter reading first.  So the shapes are sorted by their position
    sequences and walked as a trie: at depth d the shape with exactly d arcs
    comes first, then each run of shapes sharing the d-th arc, once for each
    label that arc may carry, in ascending order.  On a B or D ground an arc
    (i, j) with i + j > 0 carries the negated label of its mirror (-j, -i),
    which comes earlier in arc order and so has been chosen already; it has
    one value and never decides the order.  (The unlabeled NN_B mirrors
    nothing: every arc carries (1,).)
    """
    ground = spec.ground
    group = spec.label_group
    cover_pool, other_pool = _pools(spec)
    mirrored = ground.kind != "A" and spec.family not in UNLABELED_FAMILIES
    # family_shapes makes canonical blocks, so a shape's arcs are the
    # consecutive pairs of its blocks; the arc positions exist only to sort
    shapes = sorted(
        (
            (sorted(arc for b in blocks for arc in zip(b, b[1:])), blocks)
            for blocks in family_shapes(spec.family, spec.n)
        ),
        key=lambda shape: [(-i, -j) for i, j in shape[0]],
    )

    def plan(arcs, blocks):
        # the arcs, blocks, left and right ends, and each arc's source of
        # labels: a pool, or the index of the arc it mirrors
        index = {arc: k for k, arc in enumerate(arcs)}
        sources = []
        for i, j in arcs:
            if not mirrored or i + j < 0:
                sources.append(cover_pool if j == i + 1 else other_pool)
            elif i + j > 0:
                sources.append(index[(-j, -i)])
            else:
                raise ValueError("self-mirrored arc in a mirror-labeled family")
        return arcs, blocks, [i for i, _ in arcs], [j for _, j in arcs], sources

    shapes = [plan(arcs, blocks) for arcs, blocks in shapes]
    values = []

    def walk(lo, hi, depth):
        # shapes[lo:hi] share their first depth arcs, labeled by values
        if len(shapes[lo][0]) == depth:
            _, blocks, lefts, rights, _ = shapes[lo]
            labels = tuple(zip(lefts, rights, values))
            yield LabeledSetPartition._trusted(ground, group, blocks, labels)
            lo += 1
        while lo < hi:
            arc = shapes[lo][0][depth]
            end = lo + 1
            while end < hi and shapes[end][0][depth] == arc:
                end += 1
            source = shapes[lo][4][depth]
            if not isinstance(source, tuple):
                source = (neg_unchecked(group, values[source]),)
            for value in source:
                values.append(value)
                yield from walk(lo, end, depth + 1)
                values.pop()
            lo = end

    yield from walk(0, len(shapes), 0)


@lru_cache(maxsize=None)
def _enumerated(spec: FamilySpec) -> tuple[LabeledSetPartition, ...]:
    return tuple(enumerate_family(spec))


def family_members(spec: FamilySpec):
    """``enumerate_family`` for readers that come back to a family: the
    members are built once per process and kept."""
    yield from _enumerated(spec)


def family_size(spec: FamilySpec) -> int:
    return len(_enumerated(spec))


STATISTICS = ("blocks", "arcs", "cov_arcs", "noncov_arcs", "singletons")


def statistic(p: LabeledSetPartition, name: str) -> int:
    if name == "blocks":
        return len(p.blocks)
    if name == "arcs":
        return len(p.arcs())
    if name == "cov_arcs":
        return len(p.cover_arcs())
    if name == "noncov_arcs":
        return len(p.arcs()) - len(p.cover_arcs())
    if name == "singletons":
        return len(p.singleton_blocks())
    raise ValueError(f"unknown statistic {name!r}")


def count_by(spec: FamilySpec, stat: str) -> dict[int, int]:
    """Exact histogram of a statistic over the family."""
    if stat not in STATISTICS:
        raise ValueError(f"unknown statistic {stat!r}")
    hist: Counter[int] = Counter()
    for p in family_members(spec):
        hist[statistic(p, stat)] += 1
    return dict(sorted(hist.items()))


# ---------------------------------------------------------------------------
# Dyck paths

_FLIP = str.maketrans("UD", "DU")


@dataclass(frozen=True)
class DyckPath:
    steps: str

    def __post_init__(self):
        height = 0
        for s in self.steps:
            if s not in "UD":
                raise ValueError(f"bad step {s!r}")
            height += 1 if s == "U" else -1
            if height < 0:
                raise ValueError("path dips below the axis")
        if height != 0:
            raise ValueError("path does not return to the axis")

    def __len__(self):
        return len(self.steps)

    def valleys(self) -> tuple[tuple[int, int], ...]:
        """Points ending a down-step and starting an up-step."""
        steps = self.steps
        out = []
        k = steps.find("DU")
        while k >= 0:
            x = k + 1
            out.append((x, 2 * steps.count("U", 0, x) - x))
            k = steps.find("DU", x)
        return tuple(out)

    def is_symmetric(self) -> bool:
        return self.steps[::-1].translate(_FLIP) == self.steps


def valley_arcs(path: DyckPath, ground: GroundSet) -> list[Arc]:
    """Arcs of the nonnesting partition of the ground read off a Dyck path
    with 2 * ground.size steps: the valley (x, y) is the arc between the
    ground elements at positions (x - y) / 2 and (x + y) / 2 + 1."""
    if len(path) != 2 * ground.size:
        raise StructuralError("path length does not match the ground")
    at = ground.elements()
    return [(at[(x - y) // 2 - 1], at[(x + y) // 2]) for x, y in path.valleys()]


def _ballot_steps(length: int, closed: bool):
    """Step strings of the given length that never dip below the axis and,
    if closed, end on it; lexicographic with U < D."""
    stack = [("", 0)]
    while stack:
        steps, height = stack.pop()
        remaining = length - len(steps)
        if remaining == 0:
            yield steps
            continue
        # D is pushed first so that U is taken first
        if height > 0:
            stack.append((steps + "D", height - 1))
        if not closed or remaining > height:
            stack.append((steps + "U", height + 1))


def enumerate_dyck(m: int):
    """All Dyck paths with 2m steps, lexicographic with U < D."""
    if m < 0:
        raise ValueError("need m >= 0")
    for steps in _ballot_steps(2 * m, True):
        yield DyckPath(steps)


def symmetric_dyck(m: int):
    """The Dyck paths with 4m steps that equal their reversed, flipped copy:
    each ballot path of 2m steps followed by its own reversed, flipped copy."""
    if m < 0:
        raise ValueError("need m >= 0")
    for steps in _ballot_steps(2 * m, False):
        yield DyckPath(steps + steps[::-1].translate(_FLIP))
