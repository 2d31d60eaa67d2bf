import itertools
import json
import re

import pytest

from arcact import core
from arcact.core import (
    InvalidArcSetError,
    LabeledSetPartition,
    StructuralError,
    UnsupportedGroundError,
    arcs_of,
    blocks_from_arcs,
    canonical_blocks,
    classify,
    crossings,
    from_rook,
    from_triples,
    ground_a,
    ground_b,
    ground_d,
    is_nc_tilde,
    is_noncrossing,
    is_nonnesting,
    is_type_symmetric,
    negate,
    negate_labels,
    partition_from_json,
    partition_from_json_dict,
    render_ascii,
    rook_noncrossing,
    rook_sort_key,
    to_rook,
    unlabeled,
    unlabeled_shape,
)
from arcact.families import FamilySpec, enumerate_family, family_shapes
from arcact.groups import GroupError, GroupSpec

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))


def test_grounds():
    assert ground_a(4).elements == (1, 2, 3, 4)
    assert ground_b(2).elements == (-2, -1, 0, 1, 2)
    assert ground_d(2).elements == (-2, -1, 1, 2)
    assert ground_b(2).size == 5 and ground_d(3).size == 6
    g = ground_d(3)
    for x in g.elements:
        assert g.elements[g.positions[x] - 1] == x


# the interval formulas each ground kind spells out: (size, position of an
# element or None outside the ground, element at a position)
_INTERVALS = {
    "A": (lambda n: n, lambda n, x: x if 1 <= x <= n else None, lambda n, p: p),
    "B": (lambda n: 2 * n + 1, lambda n, x: x + n + 1 if -n <= x <= n else None,
          lambda n, p: p - n - 1),
    "D": (lambda n: 2 * n,
          lambda n, x: None if x == 0 or not -n <= x <= n else x + n + (x < 0),
          lambda n, p: p - n - 1 if p <= n else p - n),
}


@pytest.mark.parametrize("kind", sorted(_INTERVALS))
def test_ground_positions_match_the_interval_formulas(kind):
    size, position, element = _INTERVALS[kind]
    for n in range(7):
        g = {"A": ground_a, "B": ground_b, "D": ground_d}[kind](n)
        assert g.size == size(n)
        for x in range(-n - 1, n + 2):
            want = position(n, x)
            assert (x in g) == (want is not None)
            assert g.positions.get(x) == want
        assert g.elements == tuple(element(n, p) for p in range(1, g.size + 1))


def test_arcs_of_standard_examples():
    assert arcs_of([(1, 3, 4, 7), (2, 6), (5,)]) == frozenset(
        {(1, 3), (2, 6), (3, 4), (4, 7)}
    )
    assert arcs_of([(1,), (2,), (3,)]) == frozenset()
    assert arcs_of([(1, 7), (2, 3, 4, 6), (5,)]) == frozenset(
        {(1, 7), (2, 3), (3, 4), (4, 6)}
    )


def test_arcs_of_rejects_overlap():
    with pytest.raises(StructuralError):
        arcs_of([(1, 2), (2, 3)])


def test_blocks_from_arcs():
    assert blocks_from_arcs(ground_a(3), {(1, 3)}) == ((1, 3), (2,))
    assert blocks_from_arcs(ground_a(7), {(1, 3), (2, 6), (3, 4), (4, 7)}) == (
        canonical_blocks([(1, 3, 4, 7), (2, 6), (5,)])
    )
    assert blocks_from_arcs(ground_a(2), set()) == ((1,), (2,))


def test_blocks_from_arcs_rejects_shared_endpoints():
    with pytest.raises(InvalidArcSetError):
        blocks_from_arcs(ground_a(4), {(1, 3), (1, 4)})
    with pytest.raises(InvalidArcSetError):
        blocks_from_arcs(ground_a(4), {(1, 3), (2, 3)})
    with pytest.raises(InvalidArcSetError):
        blocks_from_arcs(ground_a(4), {(3, 1)})


def test_arc_block_round_trips():
    for spec in (FamilySpec("PI", 4, (Z2,)), FamilySpec("P_B", 2, (Z3,))):
        for p in enumerate_family(spec):
            assert blocks_from_arcs(p.ground, p.arcs()) == p.blocks
            assert arcs_of(p.blocks) == p.arcs()


FROM_TRIPLES_REFUSALS = [
    ([(2, 1, (1,))], InvalidArcSetError, "not increasing"),
    ([(1, 4, (1,))], InvalidArcSetError, "leaves the ground"),
    ([(0, 2, (1,))], InvalidArcSetError, "leaves the ground"),
    ([(1, 2, (1,)), (1, 3, (1,))], InvalidArcSetError, "two arcs leave 1"),
    ([(1, 3, (1,)), (2, 3, (2,))], InvalidArcSetError, "two arcs enter 3"),
    ([(1, 2, (1,)), (1, 2, (2,))], InvalidArcSetError, "two arcs leave 1"),
    ([(1, 2, (1,)), (2, 3, (0,))], StructuralError, "arc (2, 3) carries the zero label"),
    # as in the validating constructor, a value outside the group is a GroupError
    ([(1, 3, (3,))], GroupError, "does not conform"),
    ([(1, 3, (1, 0))], GroupError, "does not conform"),
    ([(1, 3, (True,))], GroupError, "does not conform"),
]


@pytest.mark.parametrize("triples, error, message", FROM_TRIPLES_REFUSALS)
def test_from_triples_refuses_an_invalid_arc_set_or_label(triples, error, message):
    with pytest.raises(error, match=re.escape(message)):
        from_triples(ground_a(3), Z3, triples)
    for scrambled in (triples[::-1], iter(triples)):
        with pytest.raises(error):
            from_triples(ground_a(3), Z3, scrambled)


def test_from_triples_builds_what_the_public_constructor_builds(all_desk_specs):
    built = 0
    for spec in all_desk_specs:
        for p in enumerate_family(spec):
            triples = list(p.labels)
            for given in (triples, triples[::-1], iter(triples)):
                q = from_triples(p.ground, p.group, given)
                assert q == p and hash(q) == hash(p) and q.labels == p.labels, p
                assert q.blocks == p.blocks and q.text() == p.text(), p
            public = LabeledSetPartition(p.ground, p.group, p.blocks, p.label_map())
            assert public == q and public.blocks == q.blocks, p
            built += 1
    assert built > 500


UNLABELED_REFUSALS = [
    (ground_a(3), [(1, 2), (2, 3)], "element 2 appears in two blocks"),  # overlapping blocks
    (ground_a(3), [(1, 2)], "blocks do not partition the ground A(3)"),  # 3 is missing
    (ground_a(3), [(1, 2, 3), ()], "empty block"),
    (ground_a(3), [(1, 2, 3), (4,)], "blocks do not partition the ground A(3)"),  # 4 is outside
    (ground_a(3), [(1, 2), (4,)], "blocks do not partition the ground A(3)"),  # 4 in place of 3
    (ground_d(1), [(-1, 0, 1)], "blocks do not partition the ground D(1)"),  # 0 is not in D(1)
    (ground_b(1), [(-1, 1)], "blocks do not partition the ground B(1)"),  # 0 is missing
]


@pytest.mark.parametrize(
    "ground, blocks, message",
    UNLABELED_REFUSALS,
    # each case is named by its ground and blocks alone, not by its message
    ids=[f"ground{k}-blocks{k}" for k in range(len(UNLABELED_REFUSALS))],
)
def test_unlabeled_refuses_blocks_that_do_not_partition_the_ground(ground, blocks, message):
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        unlabeled(ground, blocks)
    # the validating constructor checks its blocks first, with the same words
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        LabeledSetPartition(ground, Z3, blocks, {})


def test_classify_examples():
    p = unlabeled(ground_a(4), [(1, 3), (2, 4)])
    flags = classify(p)
    assert not flags.noncrossing and flags.nonnesting

    q = LabeledSetPartition(
        ground_b(2),
        Z3,
        blocks_from_arcs(ground_b(2), {(-2, 1), (-1, 2)}),
        {(-2, 1): (1,), (-1, 2): (2,)},
    )
    fq = classify(q)
    assert not fq.noncrossing and fq.nc_tilde and fq.type_symmetric

    r = unlabeled(ground_a(3), [(1, 2), (3,)])
    fr = classify(r)
    assert not fr.two_regular and fr.poor and not fr.feasible


def test_classify_flags_match_their_predicates(all_desk_specs):
    for spec in all_desk_specs:
        for p in enumerate_family(spec):
            arcs = p.arcs()
            sizes = [len(b) for b in p.blocks]
            nonzero_sizes = [len([x for x in b if x != 0]) for b in p.blocks]
            flags = classify(p)
            assert flags.noncrossing == is_noncrossing(arcs), p
            assert flags.nonnesting == is_nonnesting(arcs), p
            assert flags.two_regular == all(j != i + 1 for i, j in arcs), p
            assert flags.feasible == all(s >= 2 for s in sizes), p
            assert flags.poor == all(s <= 2 for s in sizes), p
            assert flags.b_feasible == all(s != 1 for s in nonzero_sizes), p
            assert flags.b_poor == all(s <= 2 for s in nonzero_sizes), p
            assert flags.nc_tilde == is_nc_tilde(arcs), p
            assert flags.type_symmetric == is_type_symmetric(p), p


def test_classify_computes_only_the_flags_read(monkeypatch):
    def unread(*args):
        raise AssertionError("a flag that was not read was computed")

    monkeypatch.setattr(core, "crossings", unread)
    monkeypatch.setattr(core, "is_noncrossing", unread)
    monkeypatch.setattr(core, "is_type_symmetric", unread)
    p = unlabeled(ground_b(2), [(-2, 1), (-1, 2), (0,)])
    flags = classify(p)
    assert flags.two_regular and flags.poor
    with pytest.raises(AssertionError):
        flags.noncrossing
    with pytest.raises(AssertionError):
        flags.nc_tilde
    with pytest.raises(AssertionError):
        flags.type_symmetric


def test_classify_flags_are_read_only():
    p = unlabeled(ground_a(3), [(1, 3), (2,)])
    flags = classify(p)
    assert flags.poor
    with pytest.raises(AttributeError):
        flags.poor = False
    with pytest.raises(AttributeError):
        del flags.poor
    with pytest.raises(AttributeError):
        flags.crowded = True
    assert flags.poor


def test_crossing_and_nesting_tests_stop_at_the_first_pair():
    # against every ordered pair of arcs, on all partitions of A(6), B(3) and
    # D(3) and on arc sets that share ends
    arc_sets = [
        unlabeled_shape(ground, blocks).arcs()
        for ground, family in ((ground_a(6), "PI"), (ground_b(3), "P_B"), (ground_d(3), "P_D"))
        for blocks in family_shapes(family, ground.n)
    ]
    arc_sets += [{(1, 3), (1, 4), (2, 5)}, {(1, 4), (2, 4), (3, 5)}, {(1, 5), (1, 3), (2, 4)}]
    for arcs in arc_sets:
        pairs = list(itertools.permutations(arcs, 2))
        assert is_noncrossing(arcs) == (not crossings(arcs)), arcs
        assert is_noncrossing(arcs) == all(not i < j < k < l for (i, k), (j, l) in pairs), arcs
        assert is_nonnesting(arcs) == all(not i < j < k < l for (i, l), (j, k) in pairs), arcs


def test_is_nc_tilde_admits_only_mirror_pair_crossings():
    assert is_nc_tilde({(-2, 1), (-1, 2)})
    assert is_nc_tilde(set())
    assert not is_nc_tilde({(1, 3), (2, 4)})
    assert not is_nc_tilde({(-2, 1), (-1, 2), (0, 3)})


def test_type_symmetric_needs_label_condition():
    blocks = blocks_from_arcs(ground_b(2), {(-2, 1), (-1, 2)})
    bad = LabeledSetPartition(ground_b(2), Z3, blocks, {(-2, 1): (1,), (-1, 2): (1,)})
    assert not classify(bad).type_symmetric


def test_type_symmetric_rejects_self_mirrored_arc():
    p = unlabeled(ground_b(1), [(-1, 1), (0,)])
    assert not classify(p).type_symmetric


def test_type_symmetric_consequences():
    for n in (1, 2, 3):
        for spec in (FamilySpec("P_B", n, (Z3,)), FamilySpec("P_D", n, (Z3,))):
            for p in enumerate_family(spec):
                assert classify(p).type_symmetric
                assert len(p.arcs()) % 2 == 0
                assert all(j != -i for i, j in p.arcs())
                self_neg = [
                    b for b in p.blocks if tuple(sorted(-x for x in b)) == b
                ]
                assert len(self_neg) == (1 if spec.family == "P_B" else 0)


def test_to_rook_examples():
    # on an A ground the positions are the elements
    p = LabeledSetPartition(ground_a(3), Z2, [(1, 3), (2,)], {(1, 3): (1,)})
    assert to_rook(p) is p
    assert to_rook(p).label_map() == {(1, 3): (1,)}

    q = LabeledSetPartition(
        ground_b(1), Z3, [(-1, 0, 1)], {(-1, 0): (1,), (0, 1): (2,)}
    )
    assert to_rook(q).ground == ground_a(3) and to_rook(q).group == Z3
    assert to_rook(q).label_map() == {(1, 2): (1,), (2, 3): (2,)}
    assert from_rook(ground_b(1), to_rook(q)) == q

    # D(2) = {-2, -1, 1, 2} at positions 1..4: no position for 0
    r = LabeledSetPartition(
        ground_d(2), Z3, [(-2, 1), (-1, 2)], {(-2, 1): (1,), (-1, 2): (2,)}
    )
    assert to_rook(r).label_map() == {(1, 3): (1,), (2, 4): (2,)}
    assert from_rook(ground_d(2), to_rook(r)) == r
    with pytest.raises(StructuralError, match="does not match the ground"):
        from_rook(ground_b(2), to_rook(r))

    empty = unlabeled(ground_a(3), [(1,), (2,), (3,)])
    assert to_rook(empty).label_map() == {}


def test_rook_noncrossing_predicate_matches():
    for n in range(7):
        for p in enumerate_family(FamilySpec("PI", n, (Z2,))):
            assert rook_noncrossing(to_rook(p)) == is_noncrossing(p.arcs())


def test_negate():
    p = unlabeled(ground_d(2), [(-2, 1), (-1, 2)])
    assert negate(p) == p
    q = unlabeled(ground_d(2), [(-1,), (1, 2), (-2,)])
    assert negate(q).blocks == canonical_blocks([(1,), (-2, -1), (2,)])
    with pytest.raises(UnsupportedGroundError):
        negate(unlabeled(ground_a(2), [(1, 2)]))


def test_negate_on_symmetric_partitions():
    # with mirrored labels, negating the ground negates every label
    for p in enumerate_family(FamilySpec("P_B", 2, (Z3,))):
        assert negate(p) == negate_labels(p)
        assert negate(negate(p)) == p


def test_label_validation():
    with pytest.raises(StructuralError):
        LabeledSetPartition(ground_a(2), Z2, [(1, 2)], {})
    with pytest.raises(StructuralError):
        LabeledSetPartition(ground_a(2), Z2, [(1, 2)], {(1, 2): (0,)})
    with pytest.raises(StructuralError):
        LabeledSetPartition(ground_a(2), Z2, [(1,), (2,)], {(1, 2): (1,)})
    with pytest.raises(StructuralError):
        LabeledSetPartition(ground_a(3), Z2, [(1, 2)], {(1, 2): (1,)})


def test_partition_json_is_read_strictly():
    good = LabeledSetPartition(ground_b(1), Z3, [(-1, 1), (0,)], {(-1, 1): (2,)})
    assert partition_from_json_dict(good.to_json_dict()) == good
    for path, bad in (
        (("ground", "n"), True),
        (("ground", "n"), 1.0),
        (("group", 0), True),
        (("blocks", 0, 0), True),
        (("blocks", 1, 0), False),
        (("labels", 0, "i"), 1.0),
        (("labels", 0, "j"), True),
        (("labels", 0, "value", 0), True),
    ):
        data = good.to_json_dict()
        target = data
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = bad
        with pytest.raises(StructuralError):
            partition_from_json_dict(data)


def test_partition_json_reads_onto_the_interned_ground():
    for ground in (ground_a(2), ground_b(1), ground_d(2)):
        p = unlabeled(ground, [ground.elements])
        assert partition_from_json(p.to_json()).ground is ground


@pytest.mark.parametrize("kind", ["A", "B", "D"])
def test_partition_json_refuses_a_short_block_list_before_building_the_ground(monkeypatch, kind):
    # the element count alone refuses it: a 90-byte input once built all
    # 4,000,000 elements of its ground first, at 172 MB peak
    def unbuilt(ground):
        raise AssertionError(f"the elements of {ground} were built")

    monkeypatch.setattr(core.GroundSet, "elements", property(unbuilt))
    data = {"ground": {"kind": kind, "n": 4_000_000}, "group": [2], "blocks": [[1]], "labels": []}
    refusal = rf"^blocks do not partition the ground {kind}\(4000000\)$"
    with pytest.raises(StructuralError, match=refusal):
        partition_from_json_dict(data)


def test_canonical_text_and_json():
    p = LabeledSetPartition(
        ground_d(2),
        Z3,
        blocks_from_arcs(ground_d(2), {(-2, 1), (-1, 2)}),
        {(-2, 1): (1,), (-1, 2): (2,)},
    )
    assert p.text() == "{-2,1}{-1,2} (-2,1)=1 (-1,2)=2"
    assert partition_from_json(p.to_json()) == p


@pytest.mark.parametrize("ground", [ground_a(0), ground_d(0)], ids=["A", "D"])
def test_empty_partition_text_is_a_visible_ascii_token(ground):
    # a witness at n = 0 names its partition; the JSON form is unchanged
    p = unlabeled(ground, ())
    assert p.text() == "(empty)" and repr(p) == "LabeledSetPartition('(empty)')"
    assert p.to_json() == (
        f'{{"blocks": [], "ground": {{"kind": "{ground.kind}", "n": 0}}, "group": [2],'
        ' "labels": []}'
    )
    # the one-point ground of type B is not empty
    assert unlabeled(ground_b(0), ((0,),)).text() == "{0}"


def test_to_json_is_sorted_json_dumps(all_desk_specs):
    Z2xZ2 = GroupSpec((2, 2))
    extra = [
        FamilySpec("PI", 3, (Z2xZ2,)),
        FamilySpec("P_B", 2, (Z2xZ2,)),
        FamilySpec("NC_TILDE_D_AB", 3, (Z2xZ2, Z3)),
        # multi-digit labels and moduli on signed grounds
        FamilySpec("P_B", 2, (GroupSpec((2, 13)),)),
        FamilySpec("NC_TILDE_D", 3, (GroupSpec((11,)),)),
    ]
    for spec in [*all_desk_specs, *extra]:
        for p in enumerate_family(spec):
            text = p.to_json()
            assert text == json.dumps(p.to_json_dict(), sort_keys=True), p
            assert p.to_json() == text, p  # rendered again from the kept fragments


def test_rook_sort_key_is_total(all_desk_specs, dense_rook_reading):
    # the sparse key orders every pair of family members as the dense reading does
    for spec in [*all_desk_specs, FamilySpec("PI", 4, (Z3,))]:
        parts = list(enumerate_family(spec))
        keys = [rook_sort_key(p) for p in parts]
        dense = [dense_rook_reading(p) for p in parts]
        assert len(set(keys)) == len(parts), spec
        for a, b in itertools.combinations(range(len(parts)), 2):
            assert (keys[a] < keys[b]) == (dense[a] < dense[b]), (parts[a], parts[b])


def test_render_golden_singletons():
    p = unlabeled(ground_a(3), [(1,), (2,), (3,)])
    assert render_ascii(p) == "1 2 3"


def test_render_golden_single_arc():
    p = LabeledSetPartition(ground_a(3), Z2, [(1, 3), (2,)], {(1, 3): (1,)})
    assert render_ascii(p) == ".---1---.\n1   2   3"


def test_render_golden_standard_display():
    p = unlabeled(ground_a(7), [(1, 3, 4, 7), (2, 6), (5,)])
    expected = "\n".join(
        [
            "    .-------1-------.",
            ".---1---.   .-----1-----.",
            "        .-1-.",
            "1   2   3   4   5   6   7",
        ]
    )
    assert render_ascii(p) == expected
    assert len([i for i, j, v in p.labels]) == 4
