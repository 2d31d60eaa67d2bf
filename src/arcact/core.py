"""Labeled set partitions over integer ground intervals.

Ground sets come in three interval shapes:

* A(n): {1, ..., n}
* B(n): {-n, ..., -1, 0, 1, ..., n}
* D(n): {-n, ..., -1, 1, ..., n}

An arc of a partition is a pair (i, j) of elements in the same block with j
the least block element greater than i.  A labeled partition assigns a
nonzero group element to every arc.  Values are immutable and hashable;
blocks are sorted with the block list sorted by minimum.  The ground and the
arcs determine the blocks, so equality and hashing read the labeled arcs and
never the blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .groups import Element, GroupSpec, add_unchecked, neg

Arc = tuple[int, int]

# The parameter profiles of the registered checks, which ``identities``
# reads: kept here so that the command-line parser offers them without
# loading the registry.
PROFILES = ("desk", "quick")


class StructuralError(ValueError):
    """Blocks overlap, labels are malformed, or grounds/groups mismatch."""


class InvalidArcSetError(StructuralError):
    """Two arcs share a left endpoint or share a right endpoint."""


class UnsupportedGroundError(ValueError):
    """The operation is not defined on this ground shape."""


@dataclass(frozen=True)
class GroundSet:
    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("A", "B", "D"):
            raise StructuralError(f"unknown ground kind {self.kind!r}")
        if self.n < 0:
            raise StructuralError("ground parameter must be nonnegative")

    # The elements in increasing order, and each element's position, the
    # order-preserving bijection onto {1, ..., size}: the element at position
    # r is elements[r - 1].  Both are computed once per object
    # (cached_property stores into __dict__, past the frozen __setattr__).
    @cached_property
    def elements(self) -> tuple[int, ...]:
        n = self.n
        if self.kind == "A":
            return tuple(range(1, n + 1))
        if self.kind == "B":
            return tuple(range(-n, n + 1))
        return tuple(range(-n, 0)) + tuple(range(1, n + 1))

    @cached_property
    def positions(self) -> dict[int, int]:
        return {x: i for i, x in enumerate(self.elements, 1)}

    @property
    def size(self) -> int:
        # from kind and n alone: a huge ground's elements are never built
        # to learn how many there are
        return self.n if self.kind == "A" else 2 * self.n + (self.kind == "B")

    def __contains__(self, x) -> bool:
        return x in self.positions

    def __str__(self) -> str:
        return f"{self.kind}({self.n})"


# The ground constructors intern their values (one object per shape), so
# partitions built on the same ground share it and can compare it by identity.


@lru_cache(maxsize=None)
def ground_a(n: int) -> GroundSet:
    return GroundSet("A", n)


@lru_cache(maxsize=None)
def ground_b(n: int) -> GroundSet:
    return GroundSet("B", n)


@lru_cache(maxsize=None)
def ground_d(n: int) -> GroundSet:
    return GroundSet("D", n)


# kind -> the interned ground constructor
GROUNDS = {"A": ground_a, "B": ground_b, "D": ground_d}


def arcs_of(blocks) -> frozenset[Arc]:
    """Arc set of a family of pairwise disjoint blocks."""
    seen = set()
    arcs = set()
    for block in blocks:
        ordered = sorted(block)
        if not ordered:
            raise StructuralError("empty block")
        for x in ordered:
            if x in seen:
                raise StructuralError(f"element {x} appears in two blocks")
            seen.add(x)
        arcs.update(zip(ordered, ordered[1:]))
    return frozenset(arcs)


def blocks_from_arcs(ground: GroundSet, arcs) -> tuple[tuple[int, ...], ...]:
    """Check an arc set, then close it into blocks covering the ground."""
    succ = {}
    pred = set()
    for i, j in arcs:
        if i >= j:
            raise InvalidArcSetError(f"arc ({i},{j}) is not increasing")
        if i not in ground or j not in ground:
            raise InvalidArcSetError(f"arc ({i},{j}) leaves the ground {ground}")
        if i in succ:
            raise InvalidArcSetError(f"two arcs leave {i}")
        if j in pred:
            raise InvalidArcSetError(f"two arcs enter {j}")
        succ[i] = j
        pred.add(j)
    return chain_blocks(ground, succ)


def chain_blocks(ground: GroundSet, succ: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """Blocks of the arc set ``{(i, succ[i])}``, checking nothing.

    Every arc must increase and lie in the ground, and no two arcs may enter
    the same element (``succ`` already gives each element one leaving arc).
    The ground is walked in increasing order, a block starting at each
    element no arc enters, so each block comes out sorted and the blocks
    come out sorted by minimum: already canonical.
    """
    entered = set(succ.values())
    blocks = []
    for x in ground.elements:
        if x in entered:
            continue
        block = [x]
        while x in succ:
            x = succ[x]
            block.append(x)
        blocks.append(tuple(block))
    return tuple(blocks)


def canonical_blocks(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def _partition_blocks(ground: GroundSet, blocks):
    """The canonical blocks of a partition of the ground, and its arcs in
    arc order; anything else is refused.

    Nonempty blocks whose elements, sorted together, are the ground's
    partition it, since the ground's elements are distinct; each sorted
    block's arcs are then its consecutive pairs.  The element count is
    compared first, so blocks too few for a huge ground are refused before
    its elements are built.  Blocks that fail are refused by ``arcs_of`` (an
    empty block, an element in two blocks) or else as not partitioning the
    ground.
    """
    blocks = [tuple(sorted(b)) for b in blocks]
    elements = sorted([x for b in blocks for x in b])
    if not (all(blocks) and len(elements) == ground.size and tuple(elements) == ground.elements):
        arcs_of(blocks)
        raise StructuralError(f"blocks do not partition the ground {ground}")
    blocks.sort()  # by minimum, the blocks being disjoint
    return tuple(blocks), sorted([arc for b in blocks for arc in zip(b, b[1:])])


class LabeledSetPartition:
    """A set partition of a ground interval with group-labeled arcs."""

    __slots__ = ("ground", "group", "_blocks", "labels", "_hash")

    def __init__(self, ground: GroundSet, group: GroupSpec, blocks, labels):
        blocks, arcs = _partition_blocks(ground, blocks)
        label_map = dict(labels)
        if set(label_map) != set(arcs):
            raise StructuralError("labels must cover exactly the arc set")
        labels = tuple([(i, j, label_map[i, j]) for i, j in arcs])
        _check_labels(group, labels)
        # the slots' own descriptors store past the refusing __setattr__
        _set_ground(self, ground)
        _set_group(self, group)
        _set_blocks(self, blocks)
        _set_labels(self, labels)
        _set_hash(self, None)

    @classmethod
    def _trusted(cls, ground, group, blocks, labels) -> "LabeledSetPartition":
        """Build a value its producer has already made valid, checking nothing.

        ``labels`` must be a tuple of ``(i, j, value)`` triples in arc order
        whose arcs form a valid arc set of the ground (increasing arcs, no
        two leaving or entering one element) and whose values are nonzero
        elements of ``group``.  The triples are the whole content:
        ``arcs()``, ``label_map()`` and ``cover_arcs()`` read them.
        ``blocks`` must be the canonical blocks of those arcs (as
        ``canonical_blocks`` returns them), or None: a valid arc set and the
        ground determine the blocks, so the ``blocks`` property then walks
        them out with ``chain_blocks`` on its first read and keeps them.
        ``plus`` and ``orbit_representative`` pass None, since most of their
        results are only compared and hashed, which reads the triples alone
        (``orbit`` keys the images of ``plus`` by their triples and hashes
        only the first image of each).  The hash is computed on first use.
        The producers, and what each relies on:

        * ``from_triples``: checks the arc set with ``blocks_from_arcs`` and
          every label with the validating constructor's own loop, then sorts
          the triples; the structural maps other than ``shift``,
          ``unshift`` and ``halve``, ``to_rook``, ``from_rook``, ``negate``
          and the superclasses of ``unitriangular`` build through it;
        * the family generators: the growers behind ``family_shapes`` make
          canonical shapes of the ground, each block sorted and the blocks
          sorted by minimum, so ``enumerate_family`` reads each shape's arcs
          off its blocks as their consecutive pairs, unchecked, and extends
          the triples one arc at a time, in arc order, as it walks them; it
          draws every label from the nonzero elements of the group (a
          mirror label is the negation of one).  ``enumerate_jsonl`` walks
          the same arcs and labels into JSON lines and builds no partition;
        * ``plus``: it checks that its arguments share ground and group (by
          identity, and by equality only when that fails), so lam's arcs are
          valid; it merges alpha's covers into lam's triples, both in arc
          order, refusing a non-cover arc of alpha as it meets it, so
          alpha's covers have pairwise distinct ends; a cover is inserted
          only where no arc of lam leaves its left end (the merge sees it)
          or enters its right end (lam's right ends, read off its triples
          once per call), and a sum that reaches zero is erased;
        * ``orbit_representative``: a subsequence of a valid partition's
          triples;
        * ``unlabeled_shape``: the canonical blocks of a shape that
          ``family_shapes`` or ``symmetric_partitions`` grew, kept as
          given, with their consecutive pairs sorted once as the arcs, all
          labeled (1,) in Z2; nothing is checked;
        * ``unlabeled``: checks its blocks with one sorted comparison (each
          block nonempty, and all their elements sorted together equal to
          the ground's, which are distinct, so the blocks are disjoint and
          cover it); the arcs are the consecutive pairs of the sorted
          blocks, sorted once, and the labels are all (1,) in Z2;
        * ``identities._embed_a``: a valid partition's blocks and triples,
          with labels ``DirectSum.embed_a`` checks, nonzero on the A side;
        * ``maps.rook_half``, and so ``maps.halve``: a subsequence of a
          valid rook placement's triples; no blocks;
        * ``maps.shift`` and ``maps.unshift``: a valid partition's triples,
          their left and right ends each moved by a strictly increasing map
          of positions, so they stay a valid arc set in arc order
          (``unshift`` first refuses an arc whose ends would meet); no
          blocks.

        Blocks from outside, through the JSON reader and the public API, go
        through the validating constructor.
        """
        self = object.__new__(cls)
        _set_ground(self, ground)
        _set_group(self, group)
        _set_blocks(self, blocks)
        _set_labels(self, labels)
        _set_hash(self, None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LabeledSetPartition is immutable")

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        # the ground and the arcs determine the blocks, so a producer may
        # leave them to the first read
        blocks = self._blocks
        if blocks is None:
            blocks = chain_blocks(self.ground, {i: j for i, j, _ in self.labels})
            _set_blocks(self, blocks)
        return blocks

    # Equality and hashing read the labels, whose arcs fix the blocks, and
    # never the blocks themselves.  Tuples compare their items by identity
    # first, so the interned grounds and groups match at once.  Equal
    # partitions have equal triples, so the hash reads the triples alone.
    def __eq__(self, other):
        return isinstance(other, LabeledSetPartition) and (
            self.labels, self.ground, self.group
        ) == (other.labels, other.ground, other.group)

    def __hash__(self):
        # computed on first use: a streamed member is printed, never hashed
        h = self._hash
        if h is None:
            h = hash(self.labels)
            _set_hash(self, h)
        return h

    def arcs(self) -> frozenset[Arc]:
        return frozenset([(i, j) for i, j, _ in self.labels])

    def label_map(self) -> dict[Arc, Element]:
        return {(i, j): v for i, j, v in self.labels}

    def cover_arcs(self) -> frozenset[Arc]:
        return frozenset([(i, j) for i, j, _ in self.labels if j == i + 1])

    def singleton_blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b for b in self.blocks if len(b) == 1)

    def block_of(self, x: int) -> tuple[int, ...]:
        for b in self.blocks:
            if x in b:
                return b
        raise StructuralError(f"{x} not in ground {self.ground}")

    def __repr__(self):
        return f"LabeledSetPartition({self.text()!r})"

    def text(self) -> str:
        """Canonical one-line form: blocks, then arc labels; ``(empty)`` for
        the partition of an empty ground."""
        blocks = "".join("{" + ",".join(str(x) for x in b) + "}" for b in self.blocks)
        labels = " ".join(
            f"({i},{j})={format_element(v)}" for i, j, v in self.labels
        )
        return f"{blocks} {labels}" if labels else blocks or "(empty)"

    def to_json_dict(self) -> dict:
        return {
            "ground": {"kind": self.ground.kind, "n": self.ground.n},
            "group": list(self.group.moduli),
            "blocks": [list(b) for b in self.blocks],
            "labels": [
                {"i": i, "j": j, "value": list(v)} for i, j, v in self.labels
            ],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True)``, spelled out
        from the fragments ``families.enumerate_jsonl`` writes lines from.

        Every field is an integer, a list of integers or the ground kind
        (one of A, B, D), so no value needs escaping.
        """
        head = _json_blocks(self.blocks) + _json_frame(self.ground, self.group)
        return f"{head}{', '.join(map(_label_json, self.labels))}]}}"


_set_ground = LabeledSetPartition.ground.__set__
_set_group = LabeledSetPartition.group.__set__
_set_blocks = LabeledSetPartition._blocks.__set__
_set_labels = LabeledSetPartition.labels.__set__
_set_hash = LabeledSetPartition._hash.__set__


def _check_labels(group: GroupSpec, labels) -> None:
    """Refuse a label triple whose value is not a nonzero element of group."""
    for i, j, value in labels:
        group.check(value)
        if value == group.zero:
            raise StructuralError(f"arc {(i, j)} carries the zero label")


def from_triples(ground: GroundSet, group: GroupSpec, triples) -> LabeledSetPartition:
    """The partition whose labeled arcs are the ``(i, j, value)`` triples,
    given in any order.  The arc set is checked by ``blocks_from_arcs`` (so
    a refusal is an ``InvalidArcSetError``) and the labels as the validating
    constructor checks them."""
    triples = list(triples)
    blocks = blocks_from_arcs(ground, [(i, j) for i, j, _ in triples])
    # the arcs are distinct, so sorting never compares two values
    labels = tuple(sorted(triples))
    _check_labels(group, labels)
    return LabeledSetPartition._trusted(ground, group, blocks, labels)


# The JSON fragments of blocks, label values, moduli and label objects recur
# from member to member of a family (the blocks that occur, the ground arcs
# times the group elements), so each is rendered once and kept, up to a
# fixed number of each.
_JSON_FRAGMENTS = 4096


@lru_cache(maxsize=_JSON_FRAGMENTS)
def _json_ints(values) -> str:
    return "[" + ", ".join(map(str, values)) + "]"


@lru_cache(maxsize=_JSON_FRAGMENTS)
def _label_json(label) -> str:
    i, j, v = label
    return f'{{"i": {i}, "j": {j}, "value": {_json_ints(v)}}}'


# A partition's JSON line is _json_blocks, then _json_frame, then the
# _label_json of each label joined by ", ", then "]}".


def _json_blocks(blocks) -> str:
    return '{"blocks": [' + ", ".join(map(_json_ints, blocks)) + "], "


def _json_frame(ground: GroundSet, group: GroupSpec) -> str:
    """The ground, the group and the opening of the label list."""
    return (
        f'"ground": {{"kind": "{ground.kind}", "n": {ground.n}}},'
        f' "group": {_json_ints(group.moduli)}, "labels": ['
    )


def format_element(v: Element) -> str:
    if len(v) == 1:
        return str(v[0])
    return "(" + ",".join(str(x) for x in v) + ")"


def _json_int(x, what: str) -> int:
    # bool is a subclass of int, and 1.0 == 1 hashes alike: refuse both.
    if type(x) is not int:
        raise StructuralError(f"{what} must be an integer, got {x!r}")
    return x


def partition_from_json_dict(data: dict) -> LabeledSetPartition:
    """Read the canonical JSON form; every integer field must be a JSON integer."""
    try:
        kind = data["ground"]["kind"]
        # a kind that is not a string may be unhashable: no dict lookup
        if not (isinstance(kind, str) and kind in GROUNDS):
            raise StructuralError(f"unknown ground kind {kind!r}")
        ground = GROUNDS[kind](_json_int(data["ground"]["n"], "n"))
        group = GroupSpec(tuple(_json_int(m, "group modulus") for m in data["group"]))
        blocks = [tuple(_json_int(x, "block element") for x in b) for b in data["blocks"]]
        labels = {}
        for entry in data["labels"]:
            arc = (_json_int(entry["i"], "i"), _json_int(entry["j"], "j"))
            if arc in labels:
                raise StructuralError(f"arc {arc} is labeled twice")
            labels[arc] = tuple(_json_int(v, "label value") for v in entry["value"])
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"malformed partition JSON: {exc}") from exc
    return LabeledSetPartition(ground, group, blocks, labels)


def partition_from_json(text: str) -> LabeledSetPartition:
    return partition_from_json_dict(json.loads(text))


_Z2 = GroupSpec((2,))


def unlabeled(ground: GroundSet, blocks) -> LabeledSetPartition:
    """View a plain set partition as labeled over the two-element group.

    The blocks are checked as the validating constructor checks them; the
    (1,) labels made here are not.
    """
    blocks, arcs = _partition_blocks(ground, blocks)
    labels = tuple([(i, j, (1,)) for i, j in arcs])
    return LabeledSetPartition._trusted(ground, _Z2, blocks, labels)


def unlabeled_shape(ground: GroundSet, blocks) -> LabeledSetPartition:
    """``unlabeled`` for a shape a family generator grew, checking nothing.

    ``blocks`` must be canonical blocks of the ground, as ``family_shapes``
    and ``symmetric_partitions`` make them: each sorted, sorted by minimum,
    together partitioning the ground.  The arcs are then the consecutive
    pairs of the blocks, sorted once into arc order, as the walk of
    ``enumerate_family`` reads them; the blocks are kept as given.  Blocks
    from anywhere else go through ``unlabeled``.
    """
    # no element leaves two arcs, so the sort compares left ends alone
    labels = tuple(sorted([(i, j, (1,)) for b in blocks for i, j in zip(b, b[1:])]))
    return LabeledSetPartition._trusted(ground, _Z2, blocks, labels)


# ---------------------------------------------------------------------------
# classification


class ClassifyFlags:
    """The classification of one partition: its flags.  Each flag is
    computed when it is read, so a caller pays only for the flags it reads.
    The flags are read-only properties, and the slots admit no other
    attribute."""

    __slots__ = ("_p",)

    def __init__(self, p: LabeledSetPartition):
        self._p = p

    def _nonzero_sizes(self) -> list[int]:
        return [len([x for x in b if x != 0]) for b in self._p.blocks]

    @property
    def noncrossing(self) -> bool:
        return is_noncrossing(self._p.arcs())

    @property
    def nonnesting(self) -> bool:
        return is_nonnesting(self._p.arcs())

    @property
    def two_regular(self) -> bool:
        return all(j != i + 1 for i, j, _ in self._p.labels)

    @property
    def feasible(self) -> bool:
        return all(len(b) >= 2 for b in self._p.blocks)

    @property
    def poor(self) -> bool:
        return all(len(b) <= 2 for b in self._p.blocks)

    @property
    def b_feasible(self) -> bool:
        return all(s != 1 for s in self._nonzero_sizes())

    @property
    def b_poor(self) -> bool:
        return all(s <= 2 for s in self._nonzero_sizes())

    @property
    def nc_tilde(self) -> bool:
        return is_nc_tilde(self._p.arcs())

    @property
    def type_symmetric(self) -> bool:
        return is_type_symmetric(self._p)


def crossings(arcs) -> list[tuple[Arc, Arc]]:
    arcs = sorted(arcs)
    out = []
    for s, (i, k) in enumerate(arcs):
        for j, l in arcs[s + 1 :]:
            if i < j < k < l:
                out.append(((i, k), (j, l)))
    return out


def is_noncrossing(arcs) -> bool:
    # stops at the first crossing, which crossings would list with the rest;
    # past an arc (j, l) with j >= k every arc starts at or after k
    arcs = sorted(arcs)
    for s, (i, k) in enumerate(arcs):
        for j, l in arcs[s + 1 :]:
            if j >= k:
                break
            if i < j < k < l:
                return False
    return True


def is_nc_tilde(arcs) -> bool:
    """Relaxed noncrossing: the only crossings are of mirror pairs (i,k), (-k,-i)."""
    return all((i, k) == (-l, -j) for (i, k), (j, l) in crossings(arcs))


def is_nonnesting(arcs) -> bool:
    # stops at the first nesting; past an arc (j, k) with j >= l every arc
    # starts at or after l
    arcs = sorted(arcs)
    for s, (i, l) in enumerate(arcs):
        for j, k in arcs[s + 1 :]:
            if j >= l:
                break
            if i < j < k < l:
                return False
    return True


def is_type_symmetric(p: LabeledSetPartition) -> bool:
    """Mirror-closed arcs with opposite labels and no self-mirrored arc.

    An arc (-i, i) is its own mirror and is never allowed; together with
    mirror closure this forces the arc count to be even and the blocks to
    come in pairs B, -B.
    """
    if p.ground.kind not in ("B", "D"):
        return False
    label_map = p.label_map()
    for i, j, value in p.labels:
        mirror = label_map.get((-j, -i))
        if i == -j or mirror is None:
            return False
        if add_unchecked(p.group, value, mirror) != p.group.zero:
            return False
    return True


def classify(p: LabeledSetPartition) -> ClassifyFlags:
    return ClassifyFlags(p)


# ---------------------------------------------------------------------------
# rook placements


def to_rook(p: LabeledSetPartition) -> LabeledSetPartition:
    """The rook placement of p: the partition of A(m), m = ``p.ground.size``,
    whose labeled arcs are p's moved to their positions.  Read as the matrix
    1 + sum of v E_ij over its labeled arcs (i, j, v), it is the superclass
    representative of Diaconis-Isaacs.  On an A ground the positions are the
    elements, and p is its own rook placement."""
    ground = p.ground
    if ground.kind == "A":
        return p
    pos = ground.positions
    return from_triples(
        ground_a(ground.size), p.group, [(pos[i], pos[j], v) for i, j, v in p.labels]
    )


def from_rook(ground: GroundSet, rook: LabeledSetPartition) -> LabeledSetPartition:
    """The partition of the ground, over the rook's group, whose rook
    placement is ``rook``: the inverse of ``to_rook``."""
    if rook.ground != ground_a(ground.size):
        raise StructuralError("rook placement does not match the ground")
    at = ground.elements  # at[r - 1] is the element at position r
    return from_triples(
        ground, rook.group, [(at[r - 1], at[c - 1], v) for r, c, v in rook.labels]
    )


def rook_noncrossing(rook: LabeledSetPartition) -> bool:
    """Matrix reading of the noncrossing condition on a rook placement.

    A position above the diagonal that is strictly south of an entry in its
    column and strictly west of an entry in its row witnesses a crossing.
    """
    by_col = {c: r for r, c, _ in rook.labels}
    by_row = {r: c for r, c, _ in rook.labels}
    m = rook.ground.size
    for r in range(1, m + 1):
        for c in range(r + 1, m + 1):
            south = c in by_col and by_col[c] < r
            west = r in by_row and by_row[r] > c
            if south and west:
                return False
    return True


def rook_sort_key(p: LabeledSetPartition):
    """Row-major reading of the rook matrix; the enumeration order.

    The key is sparse: one ``(-i, -j, value)`` per arc, in arc order.  It
    orders partitions of one ground and group exactly as the zero-filled
    row-major reading of the rook matrix does.  Ground positions preserve
    order, so arc order is row-major order; at the first cell where two
    matrices differ, either both hold labels, compared directly, or only
    one does, and its nonzero label beats the other's zero.  The sparse
    keys give the same verdict: that label's entry meets either the
    other's next entry, which sits at a later cell and so has a smaller
    ``(-i, -j)``, or the end of the other's key.
    """
    return tuple((-i, -j, v) for i, j, v in p.labels)


# ---------------------------------------------------------------------------
# negation


def negate(p: LabeledSetPartition) -> LabeledSetPartition:
    """Negate the ground: blocks B become -B, arc (i,j) becomes (-j,-i).

    Labels ride along with their arcs, so negating twice is the identity.
    """
    if p.ground.kind not in ("B", "D"):
        raise UnsupportedGroundError("negate needs a sign-symmetric ground")
    return from_triples(p.ground, p.group, [(-j, -i, v) for i, j, v in p.labels])


def negate_labels(p: LabeledSetPartition) -> LabeledSetPartition:
    return from_triples(p.ground, p.group, [(i, j, neg(p.group, v)) for i, j, v in p.labels])


# ---------------------------------------------------------------------------
# ASCII rendering


def render_ascii(p: LabeledSetPartition) -> str:
    """Deterministic text diagram: elements in a row, labeled arcs overhead;
    ``(empty)`` for the partition of an empty ground, as ``text()`` names it."""
    elements = p.ground.elements
    if not elements:
        return "(empty)"
    names = [str(x) for x in elements]
    label_texts = {(i, j): format_element(v) for i, j, v in p.labels}
    cell = max(
        [len(s) for s in names] + [len(t) + 2 for t in label_texts.values()] + [1]
    )
    starts = []
    at = 0
    for s in names:
        starts.append(at)
        at += cell + 1
    width = at - 1
    centers = {x: starts[k] + len(names[k]) // 2 for k, x in enumerate(elements)}

    base = [" "] * width
    for k, s in enumerate(names):
        base[starts[k] : starts[k] + len(s)] = list(s)

    rows: list[list[tuple[int, int]]] = []
    drawn: list[list[str]] = []
    for i, j in sorted(p.arcs(), key=lambda a: (a[1] - a[0], a[0])):
        ci, cj = centers[i], centers[j]
        level = 0
        while level < len(rows) and any(
            not (cj < a or b < ci) for a, b in rows[level]
        ):
            level += 1
        if level == len(rows):
            rows.append([])
            drawn.append([" "] * width)
        rows[level].append((ci, cj))
        row = drawn[level]
        row[ci] = "."
        row[cj] = "."
        for c in range(ci + 1, cj):
            row[c] = "-"
        text = label_texts[(i, j)]
        mid = (ci + cj) // 2 - len(text) // 2
        mid = max(ci + 1, min(mid, cj - len(text)))
        row[mid : mid + len(text)] = list(text)

    lines = ["".join(r).rstrip() for r in reversed(drawn)]
    lines.append("".join(base).rstrip())
    return "\n".join(lines)
