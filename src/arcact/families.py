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

``enumerate_family`` streams a family in that order, sorting no member and
holding none, so one pass over a large family runs in the memory of
its shapes.  ``family_members`` is the same stream for readers that come
back to a family: it builds the members once per process and keeps them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter

from .core import (
    GROUNDS,
    GroundSet,
    LabeledSetPartition,
    _json_blocks,
    _json_frame,
    _label_json,
    _Z2,
    canonical_blocks,
)
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
    return _grow_partitions(list(elements), rule, 0, [])


def _grow_partitions(elements, rule, k, blocks):
    # elements[:k] are placed in blocks; place elements[k]
    if k == len(elements):
        yield tuple(tuple(b) for b in blocks)
        return
    x = elements[k]
    for b in blocks:
        if rule is not None and rule(blocks, b[-1], x):
            continue
        b.append(x)
        yield from _grow_partitions(elements, rule, k + 1, blocks)
        b.pop()
    blocks.append([x])
    yield from _grow_partitions(elements, rule, k + 1, blocks)
    blocks.pop()


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
    return _grow_symmetric(n, allow_self_negative, rule, 1, blocks, mirror)


def _grow_symmetric(n, allow_self_negative, rule, i, blocks, mirror):
    # +-1..+-(i-1) are placed in blocks; place +-i
    if i > n:
        yield canonical_blocks(blocks)
        return
    for k, b in enumerate(blocks):
        if rule is not None and rule(blocks, b[-1], i):
            continue
        nb = blocks[mirror[k]]
        b.append(i)
        nb.insert(0, -i)
        yield from _grow_symmetric(n, allow_self_negative, rule, i + 1, blocks, mirror)
        del nb[0]
        b.pop()
    k = len(blocks)
    blocks.extend(([i], [-i]))
    mirror.extend((k + 1, k))
    yield from _grow_symmetric(n, allow_self_negative, rule, i + 1, blocks, mirror)
    del blocks[k:], mirror[k:]
    if allow_self_negative and not (rule is not None and rule(blocks, -i, i)):
        blocks.append([-i, i])
        mirror.append(k)
        yield from _grow_symmetric(n, allow_self_negative, rule, i + 1, blocks, mirror)
        del blocks[k:], mirror[k:]


def _noncrossing_shapes(n):
    """NC(n) by first-block recursion, each shape built once.

    The block of lo in a partition of [lo..hi] is lo alone, or lo followed
    by the block of some j > lo in a partition of [j..hi]; the gap
    [lo+1..j-1] between them is an independent partition.  Unfolding this
    gives the block {lo = a1 < ... < ak} with an independent noncrossing
    partition of every gap and of the tail after ak.  Blocks come out
    sorted by minimum, so every shape is canonical.
    """
    return _noncrossing(1, n, {})


def _noncrossing(lo, hi, memo):
    # the noncrossing shapes of [lo..hi], kept in memo by (lo, hi)
    if lo > hi:
        return ((),)
    key = (lo, hi)
    if key not in memo:
        out = [((lo,),) + t for t in _noncrossing(lo + 1, hi, memo)]
        for j in range(lo + 1, hi + 1):
            tails = _noncrossing(j, hi, memo)
            for g in _noncrossing(lo + 1, j - 1, memo):
                out.extend(((lo,) + t[0],) + g + t[1:] for t in tails)
        memo[key] = out
    return memo[key]


def family_shapes(family: str, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Unlabeled block structures of a base family, sorted.  X_AB has the
    shapes of X."""
    return tuple(sorted(_grown_shapes(family, n)))


def _grown_shapes(family: str, n: int):
    """The canonical block structures of a base family, each once, in the
    order its grower makes them.

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
    return shapes


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

    Nothing is held but the shapes' plans (``_plans``).  ``rook_sort_key``
    reads a member as its arcs in order, each arc as its position
    ``(-i, -j)`` and then its label, a shorter reading first.  So the shapes
    are sorted by their position sequences and walked as a trie: at depth d
    the shape with exactly d arcs comes first, then each run of shapes
    sharing the d-th arc, once for each label that arc may carry, in
    ascending order.  On a B or D ground an arc (i, j) with i + j > 0
    carries the negated label of its mirror (-j, -i), which comes earlier
    in arc order and so has been chosen already; it has one value and never
    decides the order.  (The unlabeled NN_B mirrors nothing: every arc
    carries (1,).)

    A stream costs one plan per shape, set up before the first member, and
    one trie leaf per member.  The walk (``_walk``) carries what its leaves
    read down the trie, one edge at a time: here the label triples, a tuple
    extended by one triple per edge, which each leaf hands with its shape's
    blocks to ``LabeledSetPartition._trusted``; in ``enumerate_jsonl`` the
    labels' JSON text, which each leaf closes into a line.  The members of
    a run share their first d labels, so each is built once per run, not
    once per member.  On a family with one member per shape (any family
    over Z2) the plans cost about as much as the walk, so a plan is only
    its arc codes and its blocks, built in one pass over int-coded arcs;
    what an arc's code stands for is looked up per edge.  The walk and the
    shape growers recurse through module-level functions, never through a
    closure that refers to itself, so a stream's working set is freed by
    reference counting as soon as the stream ends or is dropped, and the
    cyclic collector never has to find it.
    """
    group = spec.label_group
    leaf = partial(LabeledSetPartition._trusted, spec.ground, group)
    arcs, plans = _plans(spec)
    yield from _walk(plans, 0, len(plans), 0, arcs, {}, (), _extend_labels, leaf, group)


def enumerate_jsonl(spec: FamilySpec):
    """``enumerate_family``'s members as their ``to_json`` lines, byte for
    byte, in the same order, and no partition built.

    The same walk carries the labels' JSON text: each edge appends its
    label's ``_label_json``, and each leaf writes its shape's blocks (their
    ``_json_blocks``, made once per shape in place of the blocks), the
    ground and group (``_json_frame``, made once per stream), the text and
    ``]}``.
    """
    group = spec.label_group
    leaf = partial(_json_line, _json_frame(spec.ground, group))
    arcs, plans = _plans(spec, _json_blocks)
    yield from _walk(plans, 0, len(plans), 0, arcs, {}, "", _extend_json, leaf, group)


def _extend_labels(labels, i, j, value):
    return labels + ((i, j, value),)


def _extend_json(text, i, j, value):
    label = _label_json((i, j, value))
    return f"{text}, {label}" if text else label


def _json_line(frame, blocks, labels):
    return f"{blocks}{frame}{labels}]}}"


def _arc_code(n: int, i: int, j: int) -> int:
    """The arc (i, j) of a ground of parameter n as one int.

    Every end lies in [-n..n], so with w = 2n + 2 the codes ``-(i*w + j)``
    order the arcs exactly as their positions ``(-i, -j)`` do.
    """
    return -(i * (2 * n + 2) + j)


def _plans(spec: FamilySpec, shape=None) -> tuple[dict, list]:
    """The arcs of the family's ground by code, and one plan per shape of
    the family, sorted by arc positions.

    Each arc's entry is ``(i, j, source)``: its ends and its source of
    labels, the pool it draws from or, for an arc that carries the negated
    label of its mirror, the mirror's code.  A plan is the pair ``(codes,
    blocks)``: the shape's arcs in arc order, each as its ``_arc_code``, and
    its canonical blocks, or what ``shape`` makes of them when it is given.
    The shapes sort by their code tuples as by their position sequences.
    Every plan holds only ints and tuples of them, or a string, which the
    collector stops tracking, so it never re-scans the plans.
    """
    n = spec.n
    cover_pool, other_pool = _pools(spec)
    mirrored = spec.ground.kind != "A" and spec.family not in UNLABELED_FAMILIES
    arcs = {}
    elements = spec.ground.elements
    for i in elements:
        for j in elements:
            if j > i:
                if not mirrored or i + j < 0:
                    source = cover_pool if j == i + 1 else other_pool
                else:
                    # None for an arc that mirrors itself
                    source = _arc_code(n, -j, -i) if i + j > 0 else None
                arcs[_arc_code(n, i, j)] = (i, j, source)
    plans = []
    block_codes = {}  # the shapes share most of their blocks
    # the growers make canonical blocks, so a shape's arcs are the
    # consecutive pairs of its blocks; the plans are sorted below, so the
    # shapes are read in the order they are grown
    for blocks in _grown_shapes(spec.base, n):
        codes = []
        for b in blocks:
            b_codes = block_codes.get(b)
            if b_codes is None:
                b_codes = block_codes[b] = [_arc_code(n, i, j) for i, j in zip(b, b[1:])]
                if any(arcs[code][2] is None for code in b_codes):
                    raise ValueError("self-mirrored arc in a mirror-labeled family")
            codes += b_codes
        codes.sort(reverse=True)  # arc order, (i, j) ascending: the codes descending
        plans.append((tuple(codes), blocks if shape is None else shape(blocks)))
    plans.sort(key=itemgetter(0))
    return arcs, plans


def _walk(plans, lo, hi, depth, arcs, values, acc, extend, leaf, group):
    # plans[lo:hi] share their first depth arcs, whose labels values holds
    # by code and extend has carried into acc; leaf makes a member of a
    # plan's blocks (or what stands for them) and acc.  A mirror-closed
    # shape holds the mirror of each of its arcs among the arcs before it.
    plan = plans[lo]
    if len(plan[0]) == depth:
        yield leaf(plan[1], acc)
        lo += 1
    while lo < hi:
        code = plans[lo][0][depth]
        end = lo + 1
        while end < hi and plans[end][0][depth] == code:
            end += 1
        i, j, source = arcs[code]
        if source.__class__ is int:
            source = (neg_unchecked(group, values[source]),)
        for value in source:
            values[code] = value
            yield from _walk(
                plans, lo, end, depth + 1, arcs, values, extend(acc, i, j, value), extend, leaf,
                group,
            )
        lo = end


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
