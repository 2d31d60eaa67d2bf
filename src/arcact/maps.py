"""Structural maps between partition families.

All shift maps are the same move in rook-matrix coordinates: slide every
entry one column to the right.  Working through the order isomorphism onto
{1, ..., size} keeps the three ground shapes (A, B, D) on one code path.
A Dyck path is its string of U (up) and D (down) steps; only
``nn_from_dyck`` takes one from outside, and only it checks one.
"""

from __future__ import annotations

from .core import (
    Arc,
    GroundSet,
    LabeledSetPartition,
    StructuralError,
    UnsupportedGroundError,
    _Z2,
    classify,
    crossings,
    from_triples,
    ground_a,
    ground_b,
    ground_d,
    to_rook,
)


def _shift_target(ground: GroundSet) -> GroundSet:
    if ground.kind == "A":
        return ground_a(ground.n + 1)
    if ground.kind == "D":
        return ground_b(ground.n)
    return ground_d(ground.n + 1)


def _unshift_target(ground: GroundSet) -> GroundSet:
    if ground.kind == "A":
        if ground.n == 0:
            raise UnsupportedGroundError("cannot unshift from A(0)")
        return ground_a(ground.n - 1)
    if ground.kind == "B":
        return ground_d(ground.n)
    if ground.n == 0:
        raise UnsupportedGroundError("cannot unshift from D(0)")
    return ground_b(ground.n - 1)


def _move_arcs(p: LabeledSetPartition, target: GroundSet, delta: int) -> LabeledSetPartition:
    # left ends keep their positions and right ends move by delta, each
    # through a strictly increasing map, so the arcs stay a valid arc set in
    # arc order: built unchecked, the blocks left to their first read.  The
    # target has one element more (shift) or one fewer (unshift, whose
    # partitions have no arc between neighbouring positions), so every moved
    # position lies in it
    pos = p.ground.positions
    at = target.elements  # at[q - 1] is the element at position q of target
    labels = tuple([(at[pos[i] - 1], at[pos[j] + delta - 1], v) for i, j, v in p.labels])
    return LabeledSetPartition._trusted(target, p.group, None, labels)


def shift(p: LabeledSetPartition) -> LabeledSetPartition:
    """Slide the rook matrix one column right: A(n) -> A(n+1), D(n) -> B(n),
    B(n) -> D(n+1).  The image is two-regular and gains one block."""
    return _move_arcs(p, _shift_target(p.ground), +1)


def unshift(p: LabeledSetPartition) -> LabeledSetPartition:
    """Right inverse of shift, defined on partitions whose rook placement is
    two-regular: no arc joins neighbouring positions.  On a D ground that
    refuses the arc (-1, 1) too, whose ends unshift would merge."""
    pos = p.ground.positions
    if any(pos[j] == pos[i] + 1 for i, j, _ in p.labels):
        raise StructuralError("unshift needs a two-regular rook placement")
    return _move_arcs(p, _unshift_target(p.ground), -1)


# ---------------------------------------------------------------------------
# uncross


def uncross_arcs(arcs) -> frozenset[Arc]:
    """Rewrite crossings (i,k),(j,l) -> (i,l),(j,k) until none remain, the
    lexicographically least crossing pair first.

    The fixed point does not depend on the rewrite order: the
    ``uncross-confluence`` check resolves every crossing first.
    """
    arcs = set(arcs)
    while True:
        found = crossings(arcs)
        if not found:
            return frozenset(arcs)
        (i, k), (j, l) = found[0]
        arcs.difference_update([(i, k), (j, l)])
        arcs.update([(i, l), (j, k)])


def uncross(p: LabeledSetPartition) -> LabeledSetPartition:
    """Block-count preserving map onto noncrossing partitions (unlabeled)."""
    _require_unlabeled(p)
    return _from_arcs(p.ground, uncross_arcs(p.arcs()))


def uncross_b(p: LabeledSetPartition) -> LabeledSetPartition:
    """Uncross a B-ground partition, then strip 0 from its block: its arcs
    are dropped, and its two neighbours, if it has two, joined by one arc.

    The result is a negation-closed noncrossing partition of the matching
    D ground.
    """
    if p.ground.kind != "B":
        raise UnsupportedGroundError("uncross_b needs a B ground")
    _require_unlabeled(p)
    arcs = uncross_arcs(p.arcs())
    left = [i for i, j in arcs if j == 0]
    right = [j for i, j in arcs if i == 0]
    kept = {(i, j) for i, j in arcs if 0 not in (i, j)}
    kept.update(zip(left, right))
    return _from_arcs(ground_d(p.ground.n), kept)


def _rewired_center(p: LabeledSetPartition) -> tuple[set[Arc], int | None]:
    """Cut the self-mirrored arcs (-i, i) of a negation-closed noncrossing
    D-ground partition and join their points in pairs from the outside in:
    points a < b give the crossing mirror pair (-b, a), (-a, b).

    Returns the new arc set and, when the number of points is odd, the
    innermost point, which is left unjoined.
    """
    if p.ground.kind != "D":
        raise UnsupportedGroundError("expected a D-ground partition")
    _require_unlabeled(p)
    arcs = {(i, j) for i, j in p.arcs() if j != -i}
    points = sorted(j for i, j in p.arcs() if j == -i)
    inner = points.pop(0) if len(points) % 2 else None
    for a, b in zip(points[::2], points[1::2]):
        arcs.update([(-b, a), (-a, b)])
    return arcs, inner


def uncross_b_inverse(p: LabeledSetPartition) -> LabeledSetPartition:
    """Inverse of uncross_b on negation-closed noncrossing D-ground partitions.

    The arcs (-i, i) are cut and re-wired pairwise, the innermost one
    through 0 when their number is odd, which undoes the crossings removed
    by uncross.
    """
    arcs, inner = _rewired_center(p)
    if inner is not None:
        arcs.update([(-inner, 0), (0, inner)])
    return _from_arcs(ground_b(p.ground.n), arcs)


def uncross_d_inverse(p: LabeledSetPartition) -> LabeledSetPartition:
    """Inverse of uncross on the D-type relaxed-noncrossing family.

    Defined for negation-closed noncrossing D-ground partitions with an even
    number of self-negative blocks.
    """
    arcs, inner = _rewired_center(p)
    if inner is not None:
        raise StructuralError("need an even number of self-negative blocks")
    return _from_arcs(p.ground, arcs)


def _require_unlabeled(p: LabeledSetPartition):
    if p.group != _Z2:
        raise StructuralError("this map is defined on unlabeled (Z2) partitions")


def _from_arcs(ground: GroundSet, arcs) -> LabeledSetPartition:
    """The unlabeled partition with this arc set, checked."""
    return from_triples(ground, _Z2, [(i, j, (1,)) for i, j in arcs])


# ---------------------------------------------------------------------------
# halve


def halve(p: LabeledSetPartition) -> LabeledSetPartition:
    """Keep one arc from each mirrored pair of p, on its rook placement: the
    arcs (i, j) of ``to_rook(p)`` with i + j <= m, m the ground's size.

    The mirror (-j, -i) of an arc sits at (m+1-j, m+1-i) there, so of a
    mirrored pair exactly one has i + j <= m, and no arc (-i, i) does.
    """
    if p.ground.kind not in ("B", "D"):
        raise UnsupportedGroundError("halve needs a B or D ground")
    rook = to_rook(p)
    m = rook.ground.n
    return from_triples(rook.ground, p.group, [t for t in rook.labels if t[0] + t[1] <= m])


# ---------------------------------------------------------------------------
# Dyck paths

_FLIP = str.maketrans("UD", "DU")


def enumerate_dyck(m: int):
    """All Dyck paths with 2m steps, lexicographic with U < D."""
    if m < 0:
        raise ValueError("need m >= 0")
    stack = [("", 0)]
    while stack:
        steps, height = stack.pop()
        remaining = 2 * m - len(steps)
        if remaining == 0:
            yield steps
            continue
        # D is pushed first so that U is taken first
        if height > 0:
            stack.append((steps + "D", height - 1))
        if remaining > height:
            stack.append((steps + "U", height + 1))


def valleys(steps: str) -> tuple[tuple[int, int], ...]:
    """Points of a Dyck path ending a down-step and starting an up-step."""
    out = []
    k = steps.find("DU")
    while k >= 0:
        x = k + 1
        out.append((x, 2 * steps.count("U", 0, x) - x))
        k = steps.find("DU", x)
    return tuple(out)


def is_symmetric(steps: str) -> bool:
    """Whether the path is its own mirror image."""
    return steps[::-1].translate(_FLIP) == steps


def dyck_from_nonnesting(p: LabeledSetPartition) -> str:
    """The Dyck path whose valleys sit at (j+i-1, j-i-1) for the arcs (i, j)
    of p's rook placement."""
    if not classify(p).nonnesting:
        raise StructuralError("partition is nesting")
    rook = to_rook(p)
    m = rook.ground.n
    points = sorted((j + i - 1, j - i - 1) for i, j, _ in rook.labels)
    steps = []
    x, y = 0, 0
    for vx, vy in points + [(2 * m, 0)]:
        up = ((vx - x) + (vy - y)) // 2
        down = (vx - x) - up
        if up < 0 or down < 0 or (vx - x + vy - y) % 2 != 0:
            raise StructuralError("arc set does not give a lattice path")
        steps.append("U" * up + "D" * down)
        x, y = vx, vy
    return "".join(steps)


def nn_from_dyck(steps: str, ground: GroundSet) -> LabeledSetPartition:
    """Inverse of dyck_from_nonnesting over the given ground: the valley
    (x, y) is the arc between the ground elements at positions (x - y) / 2
    and (x + y) / 2 + 1.  A string that is not a Dyck path with
    2 * ground.size steps is refused."""
    height = 0
    for s in steps:
        if s not in "UD":
            raise StructuralError(f"bad step {s!r}")
        height += 1 if s == "U" else -1
        if height < 0:
            raise StructuralError("path dips below the axis")
    if height != 0:
        raise StructuralError("path does not return to the axis")
    if len(steps) != 2 * ground.size:
        raise StructuralError("path length does not match the ground")
    at = ground.elements
    return _from_arcs(ground, [(at[(x - y) // 2 - 1], at[(x + y) // 2]) for x, y in valleys(steps)])


def matching_to_dyck(p: LabeledSetPartition) -> str:
    """Noncrossing perfect matchings of {1..2k} to Dyck paths: smaller block
    elements go up, larger go down."""
    if any(len(b) != 2 for b in p.blocks):
        raise StructuralError("matching_to_dyck needs all blocks of size two")
    if not classify(p).noncrossing:
        raise StructuralError("matching must be noncrossing")
    # each block is one arc, whose left end is the smaller element
    rook = to_rook(p)
    ups = {i for i, _, _ in rook.labels}
    return "".join("U" if k in ups else "D" for k in range(1, rook.ground.n + 1))
