"""Exhaustive, deterministic generators for every partition family.

Families are named by short codes:

* A-ground: PI, NC, L, NN and the two-group variants PI_AB, NC_AB, L_AB
* B-ground: P_B, NC_TILDE_B, L_B and *_AB variants
* D-ground: P_D, NC_TILDE_D, L_D, NN_B and *_AB variants

Each family is the set partitions of its ground whose arcs pass one join
rule (``FAMILIES``), and its shapes grow by that rule.  The two-group
("AB") families have the shapes of their base family; they put the second
group's labels on cover arcs and the first group's labels on all other
arcs.  Streams are duplicate-free and sorted by the row-major reading of
the rook matrix.

``enumerate_family`` streams a family in that order, sorting nothing and
holding no member, so one pass over a large family runs in the memory of
its shapes.  ``family_members`` is the same stream for readers that come
back to a family: it builds the members once per process and keeps them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .core import GROUNDS, GroundSet, LabeledSetPartition, _Z2, canonical_blocks
from .groups import DirectSum, GroupSpec, neg_unchecked

# ---------------------------------------------------------------------------
# join rules
#
# The growers place the elements in increasing order, so an element x that
# joins a block with top a adds the arc (a, x), which ends after every arc
# placed so far.  A rule, called with the blocks before the join, is true
# when it refuses the join.


def crossing(blocks, a, x) -> bool:
    """An arc spans a, so (a, x) would cross it."""
    return any(c[0] < a < c[-1] for c in blocks)


def nesting(blocks, a, x) -> bool:
    """An arc starts after a, so (a, x) would nest over it."""
    return any(c[-2] > a for c in blocks if len(c) > 1)


def not_cover(blocks, a, x) -> bool:
    """a is not the element before x, so (a, x) is not a cover."""
    return a != x - 1


# Each base family: the kind of its ground and the join rule its shapes grow
# by (None refuses nothing).
FAMILIES = {
    "PI": ("A", None),
    "NC": ("A", crossing),
    "NN": ("A", nesting),
    "L": ("A", not_cover),
    "P_B": ("B", None),
    "NC_TILDE_B": ("B", crossing),
    "L_B": ("B", not_cover),
    "P_D": ("D", None),
    "NC_TILDE_D": ("D", crossing),
    "NN_B": ("D", nesting),
    "L_D": ("D", not_cover),
}
UNLABELED_FAMILIES = {"NN", "NN_B"}
ALL_FAMILIES = set(FAMILIES) | {f + "_AB" for f in FAMILIES if f not in UNLABELED_FAMILIES}
# the linear family of each ground kind: every arc is a cover
LINEAR = {kind: family for family, (kind, rule) in FAMILIES.items() if rule is not_cover}


def family_ground(family: str, n: int) -> GroundSet:
    """The ground set a family of parameter n lives on."""
    return GROUNDS[FAMILIES[family.removesuffix("_AB")][0]](n)


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
    def base(self) -> str:
        """The family whose shapes this one has: X for X_AB."""
        return self.family.removesuffix("_AB")

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


def set_partitions(elements, rule=None):
    """The partitions of an ordered element list whose every join passes
    ``rule`` (all of them for None), in restricted growth order.

    Each element joins a block, unless ``rule`` refuses the join, or starts
    a block.  Blocks keep the list's order, so an increasing list gives
    canonical block structures.
    """
    elements = list(elements)

    def rec(k, blocks):
        if k == len(elements):
            yield tuple(tuple(b) for b in blocks)
            return
        x = elements[k]
        for b in blocks:
            if rule is not None and rule(blocks, b[-1], x):
                continue
            b.append(x)
            yield from rec(k + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(k + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def symmetric_partitions(n, has_zero, allow_self_negative, rule=None):
    """Partitions of [-n..n] (optionally with 0) whose block set is negation
    closed and whose every join passes ``rule`` (all of them for None), each
    once.

    ``allow_self_negative`` admits nonzero blocks B with B = -B; switching it
    off yields exactly the block structures in which every block pair is
    {B, -B} with B != -B, apart from the zero block when present.

    For i = 1..n, i joins a block b and -i joins -b (b = -b for the zero
    block and the self-negative ones), or +-i start a pair {i}, {-i} or a
    block {-i, i}.  As i tops every value placed so far, a join to a block
    with top a adds exactly the arcs (a, i) and (-i, -a), a mirror pair.
    Each rule refuses the mirror arc exactly when it refuses (a, i), since
    the arcs placed so far are mirror closed, so ``rule`` is asked about
    (a, i) alone; the block {-i, i}, whose arc is (-i, i), is asked about
    as a = -i.
    """
    blocks = [[0]] if has_zero else []  # each kept sorted
    mirror = [0] if has_zero else []  # the index of each block's negation

    def grow(i):
        if i > n:
            yield canonical_blocks(blocks)
            return
        for k, b in enumerate(blocks):
            if rule is not None and rule(blocks, b[-1], i):
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
        del blocks[k:], mirror[k:]
        if allow_self_negative and not (rule is not None and rule(blocks, -i, i)):
            blocks.append([-i, i])
            mirror.append(k)
            yield from grow(i + 1)
            del blocks[k:], mirror[k:]

    yield from grow(1)


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


def family_shapes(family: str, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Unlabeled block structures of a base family, sorted.  X_AB has the
    shapes of X.

    Each family grows by its join rule (``FAMILIES``): the type A families
    through ``set_partitions``, the B and D families centre-outward through
    ``symmetric_partitions``.  NC alone comes from a first-block recursion,
    which builds each shape once where the grower would try and refuse
    crossing joins.  No family is filtered.
    """
    kind, rule = FAMILIES[family]
    if family == "NC":
        shapes = _noncrossing_shapes(n)
    elif kind == "A":
        shapes = set_partitions(range(1, n + 1), rule)
    else:
        # a label on an arc (-i, i) would be its own negation, so only the
        # unlabeled NN_B has self-negative blocks
        shapes = symmetric_partitions(n, kind == "B", family in UNLABELED_FAMILIES, rule)
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
            for blocks in family_shapes(spec.base, spec.n)
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
