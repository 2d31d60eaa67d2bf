"""Unitriangular matrix groups over prime fields and their supercharacters.

Matrices are tuples of tuples of residues mod p.  The groups of types B and
D are the fixed points of g -> dagger(g)^-1 in the unitriangular groups of
sizes 2n+1 and 2n (Andre-Neto).  ``lie_elements`` lists the Lie algebras of
all three kinds, and ``group_elements`` lists the B and D groups as Cayley
images of theirs.  No table lists either: a superclass is the rook placement
of its index on the ambient type A ground (``core.to_rook``), sized by the
closed form ``superclass_size``.

Every supercharacter value is 0 or a monomial p^q zeta_p^t, and a table
holds each as one int code: q*p + t, or ``ZERO``.  Only this module
interprets codes; ``decode`` turns one into its exact element of Z[zeta_p].
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter

from .core import InvalidArcSetError, LabeledSetPartition, from_triples, ground_a, to_rook
from .cyclotomic import CycValue, theta
from .families import LINEAR, FamilySpec, family_members
from .groups import GroupSpec
from .maps import rook_half
from .poly import (
    COUNTING_POLY,
    bell_univariate,
    bellb_univariate,
    cat_univariate,
    family,
    feasible_closed,
    feasibleb_tilde_closed,
)

Matrix = tuple[tuple[int, ...], ...]


class ScaleGuardError(RuntimeError):
    """The requested table is larger than ``check_table_size`` admits, or a
    requested polynomial larger than ``cli.MAX_POLY_N``."""


class ConsistencyError(RuntimeError):
    """An exact invariant failed; signals an implementation bug."""


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    n, m = len(a), len(b[0]) if b else 0
    k = len(b)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(m))
        for i in range(n)
    )


def dagger(a: Matrix) -> Matrix:
    """Backwards transpose: flip along the antidiagonal."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    return tuple(
        tuple(a[rows - 1 - j][cols - 1 - i] for j in range(rows)) for i in range(cols)
    )


def is_unitriangular(g: Matrix, p: int) -> bool:
    n = len(g)
    return all(
        (g[i][j] % p == (1 if i == j else 0)) if i >= j else True
        for i in range(n)
        for j in range(n)
    )


def is_dagger_unitary(g: Matrix, p: int) -> bool:
    """Fixed by the involution g -> inverse-dagger, i.e. g g^dagger = 1."""
    return mat_mul(g, dagger(g), p) == identity_matrix(len(g))


def subgroup_order(kind: str, n: int, p: int) -> int:
    if kind == "A":
        return p ** (n * (n - 1) // 2)
    if kind == "B":
        return p ** (n * n)
    if kind == "D":
        return p ** (n * (n - 1))
    raise ValueError(f"unknown kind {kind!r}")


def lie_elements(kind: str, n: int, p: int):
    """1 + X for every X in the kind's Lie algebra, in lexicographic entry order.

    X is strictly upper triangular of size m: n for A, 2n+1 for B, 2n for D.
    For B and D it also satisfies dagger(X) = -X, so each free entry (i, j)
    with i + j < m - 1 is mirrored to (m-1-j, m-1-i) with its value negated,
    and the antidiagonal is zero.  Type A is U(n, p) itself.
    """
    if kind not in ("A", "B", "D"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind != "A" and p == 2:
        raise ValueError("odd characteristic required")
    m = {"A": n, "B": 2 * n + 1, "D": 2 * n}[kind]
    skew = kind != "A"
    free = [(i, j) for i in range(m) for j in range(i + 1, m) if not skew or i + j < m - 1]
    # entry (i, j) is term source[i][j] of (0, 1) + values + negated values
    source = [[int(i == j) for j in range(m)] for i in range(m)]
    for k, (i, j) in enumerate(free):
        source[i][j] = 2 + k
        if skew:
            source[m - 1 - j][m - 1 - i] = 2 + len(free) + k
    # a leading term 0 makes even a one-entry row's itemgetter return a tuple
    rows = [itemgetter(0, *row) for row in source]

    def one_plus_x(values):
        terms = (0, 1) + values + (tuple([-v % p for v in values]) if skew else ())
        return tuple([row(terms)[1:] for row in rows])

    return map(one_plus_x, itertools.product(range(p), repeat=len(free)))


def _cayley(x: Matrix, p: int) -> Matrix:
    """g = (1 + X/2)(1 - X/2)^-1 for x = 1 + X, p odd: row i of g(1 - X/2) =
    1 + X/2 gives g_ij = X_ij + (1/2) sum over i < k < j of g_ik X_kj."""
    half = (p + 1) // 2
    g = [list(row) for row in x]
    for i, gi in enumerate(g):
        for j in range(i + 2, len(g)):
            gi[j] = (gi[j] + half * sum(gi[k] * x[k][j] for k in range(i + 1, j))) % p
    return tuple(map(tuple, g))


def group_elements(kind: str, n: int, p: int):
    """Every element of the kind's group: U(n, p) for A, as ``lie_elements``
    lists it; for B and D, the fixed points of g -> dagger(g)^-1, as the
    Cayley images of ``lie_elements`` (a bijection, as p is odd)."""
    elements = lie_elements(kind, n, p)
    return elements if kind == "A" else (_cayley(x, p) for x in elements)


# ---------------------------------------------------------------------------
# canonical reduction


def superclass_key(g: Matrix, p: int) -> tuple:
    """Canonical rook form of g - 1 under two-sided unitriangular moves, as
    the sorted ``(i, j, (v,))`` label triples of its superclass: the
    ``labels`` of the partition ``superclass_reduce`` returns.

    Columns are scanned left to right; in each column the lowest entry in a
    row without an earlier pivot becomes a pivot, its row is cleared to the
    right by column operations and its column is cleared upward by row
    operations.  The surviving entries are the labeled arcs.
    """
    n = len(g)
    # Only the strict upper triangle is ever read or written, and there
    # g - 1 and g agree.
    M = [[x % p for x in row] for row in g]
    pivot_rows = set()
    labels = []
    for c in range(n):
        for r in range(c - 1, -1, -1):
            if M[r][c] and r not in pivot_rows:
                break
        else:
            continue
        pivot = M[r]
        inv = pow(pivot[c], -1, p)
        for c2 in range(c + 1, n):
            if pivot[c2]:
                t = (-pivot[c2] * inv) % p
                for row in M[: r + 1]:
                    row[c2] = (row[c2] + t * row[c]) % p
        for row in M[:r]:
            if row[c]:
                t = (-row[c] * inv) % p
                for c2 in range(c, n):
                    row[c2] = (row[c2] + t * pivot[c2]) % p
        pivot_rows.add(r)
        labels.append((r + 1, c + 1, (pivot[c],)))
    return tuple(sorted(labels))


def superclass_reduce(g: Matrix, p: int) -> LabeledSetPartition:
    """The superclass of g, as a labeled partition (see ``superclass_key``)."""
    return from_triples(ground_a(len(g)), GroupSpec((p,)), superclass_key(g, p))


def class_representative_matrix(lam: LabeledSetPartition, p: int) -> Matrix:
    """The unitriangular matrix 1 + sum of labeled elementary matrices."""
    n = lam.ground.size
    g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, v in lam.labels:
        g[i - 1][j - 1] = v[0] % p
    return tuple(tuple(row) for row in g)


# ---------------------------------------------------------------------------
# character values

# The code of the value 0; every other code q*p + t, t < p, is p^q zeta^t.
ZERO = -1


def decode(p: int, code: int) -> CycValue:
    """The element of Z[zeta_p] that a value code stands for."""
    if code == ZERO:
        return theta(p, 0, 0)
    q, t = divmod(code, p)
    return theta(p, t, p**q)


def code_product(p: int, a: int, b: int) -> int:
    """The code of the product of the values coded a and b:
    p^q1 zeta^t1 * p^q2 zeta^t2 = p^(q1+q2) zeta^(t1+t2)."""
    if a == ZERO or b == ZERO:
        return ZERO
    return a + b - p if a % p + b % p >= p else a + b


# The classes that share one shape, the tuple of their arc positions:
# ``positions`` the arcs (j, k) in arc order, ``members`` the classes'
# indices in class order, ``labels`` per position the members' labels there.
Shape = namedtuple("Shape", "positions members labels")

# Classes grouped by shape, once per table (see ``class_shapes``): ``order``
# holds, for each class in class order, its place in a list of per-class
# items laid out shape after shape; None when that is the identity.
ClassShapes = namedtuple("ClassShapes", "classes shapes order")


def _same_space(a: LabeledSetPartition, b: LabeledSetPartition) -> bool:
    """Whether a and b live on one group and ground: by identity, as the
    interned grounds and a table's shared group are, else by equality."""
    return (a.group is b.group and a.ground is b.ground) or (
        a.group == b.group and a.ground == b.ground
    )


def class_shapes(classes) -> ClassShapes:
    """The classes grouped by shape, shapes in order of their first class.

    Every class must live on the first one's group and ground, so that
    ``chi_row`` compares the index with that one class only, once per row.
    """
    classes = tuple(classes)
    first = classes[0] if classes else None
    grouped = {}
    for index, gamma in enumerate(classes):
        if not _same_space(gamma, first):
            raise ValueError("classes live on different groups")
        grouped.setdefault(tuple([(j, k) for j, k, _ in gamma.labels]), []).append(index)
    shapes = []
    for positions, members in grouped.items():
        labels = zip(*[[v for _, _, (v,) in classes[c].labels] for c in members])
        shapes.append(Shape(positions, tuple(members), tuple(labels)))
    order = [0] * len(classes)
    for position, c in enumerate(itertools.chain.from_iterable(grouped.values())):
        order[c] = position
    identity = order == list(range(len(order)))
    return ClassShapes(classes, tuple(shapes), None if identity else tuple(order))


def chi_row(lam: LabeledSetPartition, classes) -> tuple[int, ...]:
    """Supercharacter values of the index partition on each class, in order,
    as codes (see ``decode``).  ``classes`` is a sequence of partitions, or
    their ``class_shapes``, which a table builds once for all its rows.

    The value on the class of gamma is zero when an arc (j, k) of gamma
    shares exactly one end with an arc (i, l) of the index and lies inside
    it: j = i and k < l, or k = l and j > i.  Otherwise it is
    p^q * theta(sum of label products over shared arcs), where q counts,
    per index arc, the l - i - 1 inner points less the arcs of gamma nested
    strictly inside it.

    lam's arcs are read once, into what each arc (j, k) a class may have
    does to the value: ``cells[j][k]`` is None where the arc makes it zero,
    else the number of index arcs strictly around (j, k) and the label of
    the index arc (j, k), 0 if there is none.  That depends on the position
    alone, so each shape is one pass over its arcs, which settles the zero
    test and q for all its classes; only the shared positions' labels are
    then read class by class.
    """
    group, ground = lam.group, lam.ground
    p = group.moduli[0]
    m = ground.size
    arcs = lam.labels
    left = {i: (l, value[0]) for i, l, value in arcs}
    right = {l: i for i, l, _ in arcs}
    inner = sum(l - i - 1 for i, l, _ in arcs)
    cells = [[None] * (m + 1) for _ in range(m + 1)]
    for j in range(1, m + 1):
        # with no index arc leaving j, l = j < k makes both tests below false
        l, value = left.get(j, (j, 0))
        for k in range(j + 1, m + 1):
            if k < l or right.get(k, j) < j:
                continue
            around = sum(1 for i, l2, _ in arcs if i < j and k < l2)
            cells[j][k] = (around, value if k == l else 0)
    if not isinstance(classes, ClassShapes):
        classes = class_shapes(classes)
    if classes.classes and not _same_space(lam, classes.classes[0]):
        raise ValueError("index and class live on different groups")
    flat = []
    for positions, members, labels in classes.shapes:
        q_exponent = inner
        values = []
        shared = []
        for (j, k), entries in zip(positions, labels):
            cell = cells[j][k]
            if cell is None:
                flat += [ZERO] * len(members)
                break
            around, value = cell
            q_exponent -= around
            if value:
                values.append(value)
                shared.append(entries)
        else:
            if q_exponent < 0:
                gamma = classes.classes[members[0]]
                raise ConsistencyError(f"negative p-exponent {q_exponent} for {lam} on {gamma}")
            base = q_exponent * p
            if not shared:
                flat += [base] * len(members)
            else:
                # theta class by class: the first shared position's label
                # products, plus each further position's, elementwise
                thetas = map(values[0].__mul__, shared[0])
                for value, entries in zip(values[1:], shared[1:]):
                    thetas = map(add, thetas, map(value.__mul__, entries))
                flat += [base + t % p for t in thetas]
    if classes.order is None:
        return tuple(flat)
    # a permutation other than the identity moves two or more positions, and
    # itemgetter of two or more returns a tuple
    return itemgetter(*classes.order)(flat)


def chi_on_class(lam: LabeledSetPartition, gamma: LabeledSetPartition) -> CycValue:
    """Supercharacter value of the index partition on the class of gamma:
    the one-cell view of ``chi_row``, decoded."""
    return decode(lam.group.moduli[0], chi_row(lam, (gamma,))[0])


def inner_product(p: int, codes1, codes2, sizes, group_order: int) -> Fraction:
    """Exact Hermitian inner product of two class functions given as codes.

    The class sizes are first summed per (v, w) pair of codes: a table has
    few distinct codes.  For v = p^a zeta^s and w = p^b zeta^t, v * conj(w)
    is p^(a+b) zeta^(s-t), so each pair adds its weight to one of the powers
    zeta^0 .. zeta^(p-1), and the sum is reduced to the basis once at the
    end.
    """
    weights = {}
    for key, size in zip(zip(codes1, codes2), sizes):
        weights[key] = weights.get(key, 0) + size
    raw = [0] * p
    for (v, w), size in weights.items():
        if v != ZERO and w != ZERO:
            (a, s), (b, t) = divmod(v, p), divmod(w, p)
            # a negative index wraps to (s - t) mod p
            raw[s - t] += size * p ** (a + b)
    top = raw[-1]
    if any(c != top for c in raw[1:-1]):
        raise ConsistencyError("inner product is not rational")
    return Fraction(raw[0] - top, group_order)


# ---------------------------------------------------------------------------
# the table, and the counts, index families and linear generators that the
# supercharacter checks in ``identities`` read next to it


@dataclass(frozen=True)
class CharTable:
    kind: str
    n: int
    p: int
    classes: tuple[LabeledSetPartition, ...]
    class_sizes: tuple[int, ...]
    indices: tuple[LabeledSetPartition, ...]
    values: tuple[tuple[int, ...], ...]  # codes, see ``decode``
    group_order: int
    shapes: ClassShapes = field(repr=False, compare=False)  # of ``classes``

    def norms(self) -> tuple[Fraction, ...]:
        """The inner product of each row with itself: a cell p^q zeta^t has
        |p^q zeta^t|^2 = p^(2q), so a norm is the sum of size * p^(2q) over
        the row's nonzero cells, divided by the group order.  A row is zero
        on all of a shape's classes or on none, with one q, so the sum runs
        over shapes, each weighted by its classes' total size."""
        p, sizes, order = self.p, self.class_sizes, self.group_order
        weights = [
            (shape.members[0], sum([sizes[c] for c in shape.members]))
            for shape in self.shapes.shapes
        ]
        return tuple(
            Fraction(
                sum([w * p ** (2 * (row[c] // p)) for c, w in weights if row[c] != ZERO]), order
            )
            for row in self.values
        )

    def degrees(self) -> tuple[int, ...]:
        empty = [k for k, c in enumerate(self.classes) if not c.arcs()]
        return tuple(decode(self.p, v[empty[0]]).rational_value() for v in self.values)


def index_family(kind: str, n: int, p: int, linear: bool = False) -> FamilySpec:
    """The supercharacter indices of the kind over Z_p, or the linear ones."""
    family = LINEAR[kind] if linear else ("PI" if kind == "A" else "P_" + kind)
    return FamilySpec(family, n, (GroupSpec((p,)),))


def superclass_size(c: LabeledSetPartition, kind: str) -> int:
    """Size of the kind's superclass that c, on the ambient type A ground,
    names.  Type A: the class of 1 + X, X the labeled arcs, is 1 + UXU
    (Diaconis-Isaacs), of p^e elements: an arc (i, l) spreads up its column
    over the i - 1 rows above it and along its row over the n - l columns
    after it, and an arc pair (i, l), (j, k) with i < j and l < k reaches
    the entry (i, k) both ways.  Types B and D, c the rook placement
    (``core.to_rook``) of an index, with a arcs: p^((2e - a)/4).  That is
    observed, not proved; the registered check ``superclass-sizes-BD``
    compares it with element counts over ``lie_elements`` and with p^rank
    of a -> aX + X dagger(a)."""
    n = c.ground.size
    arcs = [(i, l) for i, l, _ in c.labels]
    exponent = sum(i - 1 + n - l for i, l in arcs)
    # labels are sorted, so a later arc has the larger left end
    for a, (_, l) in enumerate(arcs):
        exponent -= sum(1 for _, k in arcs[a + 1 :] if l < k)
    if kind != "A":
        exponent = (2 * exponent - len(arcs)) // 4
    return c.group.moduli[0] ** exponent


# A table has as many superclasses as indices, and each of its cells is one
# int code.  The bound still weighs cells by p, as it did when a cell held
# p - 1 coefficients, so that it refuses the same tables.
MAX_TABLE_WORK = 3 * 10**7


def check_table_size(kind: str, n: int, p: int) -> None:
    """Refuse, with ``ScaleGuardError``, a table that would take too long or
    hold too much, judged from (kind, n, p) alone.

    The one bound, for every kind, caps cells x p, where cells is the square
    of the index count: the kind's Bell polynomial at x = y = p - 1.  No
    table visits a group element, so its cells predict its time and memory.
    The count grows with the rank, so it is evaluated at m = 0, 1, ... and
    the loop stops at the first m over the bound; its cost grows with
    neither n nor p, and p is not tested for primality.
    """
    name = COUNTING_POLY[index_family(kind, n, p).family]
    for m in range(n + 1):
        indices = family(name, m).eval_int(p - 1, p - 1)
        if indices * indices * p > MAX_TABLE_WORK:
            at = f" already at n = {m}" if m < n else ""
            raise ScaleGuardError(
                f"{kind}({n},{p}) refused: {indices}^2 table cells{at}, times p = {p},"
                f" exceed the work bound {MAX_TABLE_WORK}"
            )


@lru_cache(maxsize=None)
def build_chartable(kind: str, n: int, p: int) -> CharTable:
    """Value table of every supercharacter on the listed group.

    Types B and D need an odd p; ``check_table_size`` refuses an oversized
    request before any family is built.  No kind visits a group element:
    each index names the superclass of its rook placement (``to_rook``),
    sized by ``superclass_size``, and a B or D index's row is that of its
    half, read off the same rook (``rook_half``).
    The classes are sorted by ``labels`` and share the indices' group object
    (grounds are interned), so ``chi_row`` sees the same group and ground by
    identity.  They are grouped by shape once (``class_shapes``), and a
    superclass size, which reads arc positions only, is computed once per
    shape.  The sizes must add up to ``subgroup_order``.  Each row is one
    ``chi_row`` pass over the shapes; no cell is computed on its own.
    """
    if p == 2 and kind != "A":
        raise ValueError("odd characteristic required")
    check_table_size(kind, n, p)
    order = subgroup_order(kind, n, p)
    indices = tuple(family_members(index_family(kind, n, p)))
    rooks = tuple(map(to_rook, indices))
    ambient = indices if kind == "A" else tuple(map(rook_half, rooks))
    classes = tuple(sorted(rooks, key=lambda c: c.labels))
    shapes = class_shapes(classes)
    sizes = [0] * len(classes)
    for _, members, _ in shapes.shapes:
        size = superclass_size(classes[members[0]], kind)
        for c in members:
            sizes[c] = size
    sizes = tuple(sizes)
    if sum(sizes) != order:
        raise ConsistencyError(f"{kind}({n},{p}) class sizes add up to {sum(sizes)}, not {order}")
    rows = tuple(chi_row(lam, shapes) for lam in ambient)
    return CharTable(kind, n, p, classes, sizes, indices, rows, order, shapes)


def expected_counts(kind: str, n: int, p: int) -> dict:
    q = p
    if kind == "A":
        return {
            "distinct": bell_univariate(n).eval_int(q - 1),
            "irreducible": cat_univariate(n).eval_int(q - 1),
            "linear": q ** max(n - 1, 0),
            "l_invariant": feasible_closed(n - 1).eval_int(q - 1) if n >= 1 else 1,
        }
    if kind == "B":
        return {
            "distinct": bellb_univariate(n).eval_int(q - 1),
            "irreducible": cat_univariate(n + 1).eval_int(q - 1),
            "linear": q**n,
            "l_invariant": feasible_closed(n).scale_x(2).eval_int(q - 1),
        }
    return {
        "distinct": bell_univariate(n).eval_int(2 * q - 2),
        "irreducible": cat_univariate(n).eval_int(q - 1),
        "linear": q ** max(n - 1, 0),
        "l_invariant": feasibleb_tilde_closed(n - 1).eval_int(q - 1) if n >= 1 else 1,
    }


def linear_generators(kind: str, n: int, p: int) -> list[LabeledSetPartition]:
    """The members of the kind's linear family with one cover, or for B and
    D one mirrored pair of covers: a generating set of the acting group.

    ``action.plus`` adds two linear partitions slot by slot, where a slot is a
    cover (with its mirror for B and D), so the linear family is the group
    Z_p^s of labels on its s slots, and ``plus`` is an action of that group
    on the indices.  Every member is the sum of its one-slot parts, so these
    members generate the group.  An index's stabiliser is a subgroup, so it
    is the whole group, and the index invariant, exactly when every one of
    these members fixes the index.
    """
    arcs_per_slot = 1 if kind == "A" else 2
    acting = index_family(kind, n, p, linear=True)
    return [alpha for alpha in family_members(acting) if len(alpha.labels) == arcs_per_slot]


# ---------------------------------------------------------------------------
# restriction equivalence (arc reflection moves in the ambient group)


def reflection_moves(lam: LabeledSetPartition):
    """Partitions reachable by one arc reflection (i,j) -> (m+1-j, m+1-i)
    with negated label, when the reflected arc is free."""
    m = lam.ground.size
    p = lam.group.moduli[0]
    out = []
    for k, (i, j, value) in enumerate(lam.labels):
        if i + j == m + 1:  # the arc is its own reflection
            continue
        others = lam.labels[:k] + lam.labels[k + 1 :]
        moved = (m + 1 - j, m + 1 - i, ((-value[0]) % p,))
        try:
            out.append(from_triples(lam.ground, lam.group, [*others, moved]))
        except InvalidArcSetError:  # the reflected arc is not free
            pass
    return out


def reflection_class(lam: LabeledSetPartition) -> frozenset:
    """Closure of a partition under arc reflections, in both directions."""
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for q in frontier:
            for r in reflection_moves(q):
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return frozenset(seen)
