"""The additive action of linear partitions on labeled partitions.

A linear partition (all arcs are covers) acts by superimposing its arcs:
coinciding covers add their labels, covers blocked by a longer arc of the
other partition are dropped, and zero labels are erased.  Two equivalent
implementations are provided, one on arc sets and one on rook matrices.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (
    GroundSet,
    LabeledSetPartition,
    StructuralError,
    _Z2,
    from_rook,
    from_triples,
    to_rook,
    unlabeled,
)
from .families import LINEAR, FamilySpec, family_members
from .groups import add, add_unchecked


def is_linear(p: LabeledSetPartition) -> bool:
    return all(j == i + 1 for i, j, _ in p.labels)


def _check_shared(alpha: LabeledSetPartition, lam: LabeledSetPartition):
    # grounds and the groups of one family are shared objects: try identity first
    if alpha.ground is not lam.ground and alpha.ground != lam.ground:
        raise StructuralError("mismatched grounds")
    if alpha.group is not lam.group and alpha.group != lam.group:
        raise StructuralError("mismatched label groups")


def _check_compatible(alpha: LabeledSetPartition, lam: LabeledSetPartition):
    _check_shared(alpha, lam)
    if not is_linear(alpha):
        raise StructuralError("the acting partition must be linear")


def plus(alpha: LabeledSetPartition, lam: LabeledSetPartition) -> LabeledSetPartition:
    """Arc-set route: remove cancelled covers, insert unobstructed covers.

    A cover of alpha on an arc of lam adds its label to the arc's (and
    erases the arc if the sum is zero), a cover that no arc of lam leaves
    from its left end or enters at its right end is inserted, and any other
    cover is blocked by a longer arc and dropped.  The labels of constructed
    partitions are valid, so they are added without checking them again,
    through the group's memo of sums.  Both label tuples are in arc order,
    so the result is one merge of them, which also proves alpha linear, arc
    by arc.
    """
    ground = lam.ground
    group = lam.group
    if alpha.ground is not ground or alpha.group is not group:
        _check_shared(alpha, lam)  # alpha's linearity is proved by the merge
    sums = group._sums
    zero = group.zero
    arcs = lam.labels
    m = len(arcs)
    k = 0  # arcs[:k] are merged
    rights = None  # lam's right ends, read only if a cover could be inserted
    out = []
    for j, j1, a_value in alpha.labels:
        if j1 != j + 1:
            raise StructuralError("the acting partition must be linear")
        while k < m and arcs[k][0] < j:
            out.append(arcs[k])
            k += 1
        if k < m and arcs[k][0] == j:
            # an arc of lam leaves j: the cover lands on it or is blocked
            _, right, value = arcs[k]
            if right == j1:
                total = sums.get((a_value, value))
                if total is None:
                    total = add_unchecked(group, a_value, value)
                if total != zero:
                    out.append((j, j1, total))
                k += 1
            continue
        if rights is None:
            rights = {j for _, j, _ in arcs}
        if j1 not in rights:
            out.append((j, j1, a_value))
    out.extend(arcs[k:])
    # The new arc set is valid without a check: lam's arcs are, alpha's
    # covers lie in the same ground with pairwise distinct ends, and a cover
    # is inserted only where no arc of lam leaves j or enters j + 1.  Every
    # label is nonzero, and the merge keeps arc order.  The blocks and the
    # arc map are left to their first read.
    return LabeledSetPartition._trusted(ground, group, None, tuple(out))


def plus_via_matrix(alpha: LabeledSetPartition, lam: LabeledSetPartition) -> LabeledSetPartition:
    """Matrix route: add rook matrices, then erase superdiagonal entries that
    sit strictly below an entry in their column or strictly left of an entry
    in their row."""
    _check_compatible(alpha, lam)
    group = lam.group
    rook = to_rook(lam)
    entries = rook.label_map()
    for (r, c), v in to_rook(alpha).label_map().items():
        total = add(group, v, entries.get((r, c), group.zero))
        if total == group.zero:
            entries.pop((r, c), None)
        else:
            entries[(r, c)] = total
    kept = []
    for (r, c), v in entries.items():
        if c == r + 1:
            below = any(rr < r and cc == c for rr, cc in entries)
            left = any(rr == r and cc > c for rr, cc in entries)
            if below or left:
                continue
        kept.append((r, c, v))
    return from_rook(lam.ground, from_triples(rook.ground, group, kept))


def plus_involution(p: LabeledSetPartition) -> LabeledSetPartition:
    """Act by the largest linear partition of the ground (Z2 labels only).

    Applying the map twice gives back the argument.
    """
    if p.group is not _Z2 and p.group != _Z2:
        raise StructuralError("the involution is defined on unlabeled (Z2) partitions")
    top = _top_linear(p.ground)
    return plus(top, p)


@lru_cache
def _top_linear(ground: GroundSet) -> LabeledSetPartition:
    elements = ground.elements
    if ground.kind == "D":
        n = ground.n
        blocks = [tuple(range(-n, 0)), tuple(range(1, n + 1))]
        blocks = [b for b in blocks if b]
    else:
        blocks = [elements] if elements else []
    return unlabeled(ground, blocks)


# ---------------------------------------------------------------------------
# orbits


def acting_family(spec: FamilySpec) -> FamilySpec:
    """The linear family acting on the given two-group family."""
    linear = LINEAR[spec.ground.kind]
    if not spec.is_ab or spec.base == linear:
        raise ValueError(f"family {spec.family} is not an orbit-decomposable family")
    return FamilySpec(linear + "_AB", spec.n, spec.groups)


def orbit(lam: LabeledSetPartition, acting: FamilySpec) -> frozenset[LabeledSetPartition]:
    """The orbit of lam: every member of the acting family applied to it.

    Most images recur, so each is keyed by its label triples, hashed and
    compared as one tuple, and the first image of each key is kept.  Every
    image has lam's ground and group, so equal triples mean equal
    partitions.
    """
    images = {}
    for alpha in family_members(acting):
        image = plus(alpha, lam)
        images.setdefault(image.labels, image)
    return frozenset(images.values())


def orbit_representative(lam: LabeledSetPartition) -> LabeledSetPartition:
    """lam with its cover arcs removed, the two-regular member of its orbit.

    In a two-group family the covers carry B-labels, so the linear partition
    of lam's covers with their labels negated acts on lam; it erases those
    covers and inserts nothing.
    """
    labels = tuple(t for t in lam.labels if t[1] != t[0] + 1)
    return LabeledSetPartition._trusted(lam.ground, lam.group, None, labels)


def orbit_decomposition(spec: FamilySpec) -> dict[LabeledSetPartition, list[LabeledSetPartition]]:
    """Partition a two-group family into orbits of its linear family: each
    orbit's representative -> its members, in the order the family first
    reaches each orbit."""
    acting_family(spec)  # refuses the families no linear family acts on
    orbits: dict[LabeledSetPartition, list[LabeledSetPartition]] = {}
    for lam in family_members(spec):
        orbits.setdefault(orbit_representative(lam), []).append(lam)
    return orbits
