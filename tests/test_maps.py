from math import comb

import pytest

from arcact.core import (
    LabeledSetPartition,
    StructuralError,
    blocks_from_arcs,
    canonical_blocks,
    classify,
    from_triples,
    ground_a,
    ground_b,
    ground_d,
    negate,
    to_rook,
    unlabeled,
)
from arcact.families import FamilySpec, enumerate_family, family_shapes
from arcact.groups import GroupSpec
from arcact.maps import (
    dyck_from_nonnesting,
    enumerate_dyck,
    halve,
    is_symmetric,
    matching_to_dyck,
    nn_from_dyck,
    shift,
    uncross,
    uncross_b,
    uncross_b_inverse,
    uncross_d_inverse,
    unshift,
    valleys,
)

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z2xZ2 = GroupSpec((2, 2))


def _labeled(ground, group, arcs):
    return LabeledSetPartition(ground, group, blocks_from_arcs(ground, arcs), dict(arcs))


def test_shift_a_display():
    lam = _labeled(ground_a(5), Z3, {(1, 2): (1,), (2, 4): (2,), (3, 5): (1,)})
    image = shift(lam)
    assert image.label_map() == {(1, 3): (1,), (2, 5): (2,), (3, 6): (1,)}
    assert classify(image).two_regular
    assert len(image.blocks) == len(lam.blocks) + 1
    assert unshift(image) == lam


def test_shift_no_arcs():
    lam = unlabeled(ground_a(2), [(1,), (2,)])
    assert shift(lam).blocks == ((1,), (2,), (3,))


def test_shift_poor_noncrossing_lands_noncrossing():
    for p in enumerate_family(FamilySpec("NC", 4, (Z3,))):
        if classify(p).poor:
            flags = classify(shift(p))
            assert flags.noncrossing and flags.two_regular


def test_unshift_round_trip_exhaustive():
    for p in enumerate_family(FamilySpec("PI", 4, (Z3,))):
        assert unshift(shift(p)) == p
    empty = unlabeled(ground_a(1), [(1,)])
    assert unshift(empty).ground == ground_a(0)


def test_unshift_requires_two_regular():
    with pytest.raises(StructuralError):
        unshift(unlabeled(ground_a(2), [(1, 2)]))


# The families that shift-bij-A and shift-bij-BD shift at their desk n, over
# Z3, and those that the orbit checks shift at theirs, over the first groups
# of their pairs
_SHIFTED = [
    *(FamilySpec("PI", n, (Z3,)) for n in range(6)),
    *(FamilySpec(family, n, (Z3,)) for family in ("P_B", "P_D") for n in range(4)),
    *(
        FamilySpec(family, n, (group,))
        for group in (Z2, Z3, Z2xZ2)
        for family, n_max in (
            ("PI", 3), ("NC", 3), ("P_D", 4), ("NC_TILDE_D", 4), ("P_B", 3), ("NC_TILDE_B", 3)
        )
        for n in range(n_max + 1)
    ),
]


def test_shift_and_unshift_build_what_from_triples_builds():
    # both build unchecked: every image is the checked build of its label
    # triples, in the same arc order and with the same blocks
    built = 0
    for spec in _SHIFTED:
        for p in enumerate_family(spec):
            image = shift(p)
            back = unshift(image)
            assert back == p, p
            for q in (image, back):
                checked = from_triples(q.ground, q.group, q.labels)
                assert q.labels == checked.labels and q.blocks == checked.blocks, p
            built += 1
    assert built > 1000


def test_unshift_refuses_an_arc_between_neighbouring_positions():
    # -1 and 1 are neighbours on a D ground, so unshift would close the arc
    # (-1, 1) into a loop: it is refused with every other two-regular rook
    # placement, and the rest unshift to valid partitions
    with pytest.raises(StructuralError, match="two-regular rook placement"):
        unshift(unlabeled(ground_d(2), [(-2,), (-1, 1), (2,)]))
    refused = 0
    for n in range(1, 4):
        for p in enumerate_family(FamilySpec("NN_B", n)):
            if classify(to_rook(p)).two_regular:
                q = unshift(p)
                assert q.blocks == from_triples(q.ground, q.group, q.labels).blocks, p
            else:
                with pytest.raises(StructuralError):
                    unshift(p)
                refused += 1
    assert refused > 0


def test_shift_d_to_b_display():
    lam = _labeled(
        ground_d(3),
        Z3,
        {(-3, -2): (1,), (-2, 1): (2,), (-1, 2): (1,), (2, 3): (2,)},
    )
    image = shift(lam)
    assert image.ground == ground_b(3)
    assert image.label_map() == {
        (-3, -1): (1,),
        (-2, 1): (2,),
        (-1, 2): (1,),
        (1, 3): (2,),
    }
    assert classify(image).two_regular and classify(image).type_symmetric

    next_image = shift(image)
    assert next_image.ground == ground_d(4)
    assert next_image.label_map() == {
        (-4, -1): (1,),
        (-3, 2): (2,),
        (-2, 3): (1,),
        (1, 4): (2,),
    }
    assert unshift(next_image) == image
    assert unshift(image) == lam


def test_shift_center_arc():
    lam = _labeled(ground_b(2), Z3, {(-1, 0): (1,), (0, 1): (2,)})
    image = shift(lam)
    assert image.label_map() == {(-2, 1): (1,), (-1, 2): (2,)}
    assert classify(image).type_symmetric


def test_shift_empty_partition():
    lam = unlabeled(ground_d(2), [(-2,), (-1,), (1,), (2,)])
    assert shift(lam).blocks == ((-2,), (-1,), (0,), (1,), (2,))


def test_uncross_examples():
    a6 = ground_a(6)
    assert uncross(unlabeled(a6, [(1, 4), (2, 5), (3, 6)])).blocks == (
        canonical_blocks([(1, 6), (2, 5), (3, 4)])
    )
    a7 = ground_a(7)
    lam = unlabeled(a7, [(1, 3, 4, 7), (2, 6), (5,)])
    gam = unlabeled(a7, [(1, 7), (2, 3, 4, 6), (5,)])
    assert uncross(lam) == gam
    assert uncross(gam) == gam  # noncrossing fixed point


def test_uncross_commutes_with_negation():
    for n in range(4):
        for blocks in family_shapes("P_D", n):
            p = unlabeled(ground_d(n), blocks)
            assert uncross(negate(p)) == negate(uncross(p))


def test_uncross_b_display():
    b3 = ground_b(3)
    p = unlabeled(b3, blocks_from_arcs(b3, {(-3, 1), (-2, 0), (-1, 3), (0, 2)}))
    q = uncross_b(p)
    assert q.blocks == canonical_blocks([(-3, 3), (-2, 2), (-1, 1)])


def test_uncross_b_singletons():
    p = unlabeled(ground_b(2), [(-2,), (-1,), (0,), (1,), (2,)])
    assert uncross_b(p).blocks == ((-2,), (-1,), (1,), (2,))


def test_uncross_b_round_trip():
    for n in range(5):
        for blocks in family_shapes("NC_TILDE_B", n):
            p = unlabeled(ground_b(n), blocks)
            assert uncross_b_inverse(uncross_b(p)) == p
        for blocks in family_shapes("NC_TILDE_D", n):
            p = unlabeled(ground_d(n), blocks)
            assert uncross_d_inverse(uncross(p)) == p


def test_halve_display():
    lam = _labeled(
        ground_d(3),
        Z3,
        {(-3, -2): (1,), (-2, 1): (2,), (-1, 2): (1,), (2, 3): (2,)},
    )
    h = halve(lam)
    assert h.ground == ground_a(6)
    assert h.label_map() == {(1, 2): (1,), (2, 4): (2,)}


def test_halve_empty_and_arc_count():
    empty = unlabeled(ground_b(2), [(-2,), (-1,), (0,), (1,), (2,)])
    assert halve(empty).arcs() == frozenset()
    for p in enumerate_family(FamilySpec("P_B", 2, (Z3,))):
        assert len(halve(p).arcs()) == len(p.arcs()) // 2


def test_dyck_from_nonnesting_examples():
    singles = unlabeled(ground_a(3), [(1,), (2,), (3,)])
    assert dyck_from_nonnesting(singles) == "UUUDDD"
    p = unlabeled(ground_a(3), [(1, 2), (3,)])
    assert dyck_from_nonnesting(p) == "UDUUDD"
    assert (2, 0) in valleys(dyck_from_nonnesting(p))
    # NN_B(2) on D(2) = {-2, -1, 1, 2}: the arcs (-2, 1), (-1, 2) sit at
    # positions (1, 3), (2, 4)
    q = unlabeled(ground_d(2), [(-2, 1), (-1, 2)])
    assert dyck_from_nonnesting(q) == "UUDUDUDD"
    with pytest.raises(StructuralError):
        dyck_from_nonnesting(unlabeled(ground_a(4), [(1, 4), (2, 3)]))


def test_dyck_bijection_round_trip():
    for n in range(8):
        paths = set()
        for p in enumerate_family(FamilySpec("NN", n)):
            path = dyck_from_nonnesting(p)
            assert nn_from_dyck(path, ground_a(n)) == p
            paths.add(path)
        assert paths == set(enumerate_dyck(n))


@pytest.mark.parametrize(
    "steps, n, message",
    [
        ("UDD", 1, "dips below the axis"),
        ("DU", 1, "dips below the axis"),
        ("UDU", 1, "does not return to the axis"),
        ("UXD", 1, "bad step 'X'"),
        ("UD", 2, "path length does not match the ground"),
        ("UUDD", 1, "path length does not match the ground"),
    ],
)
def test_nn_from_dyck_refuses_what_is_not_a_dyck_path_of_the_ground(steps, n, message):
    with pytest.raises(StructuralError, match=message):
        nn_from_dyck(steps, ground_a(n))


def test_nnb_maps_to_symmetric_paths():
    for n in range(5):
        for p in enumerate_family(FamilySpec("NN_B", n)):
            assert is_symmetric(dyck_from_nonnesting(p))
        count = sum(map(is_symmetric, enumerate_dyck(2 * n)))
        assert count == comb(2 * n, n)


def test_matching_to_dyck():
    assert matching_to_dyck(unlabeled(ground_a(2), [(1, 2)])) == "UD"
    assert matching_to_dyck(unlabeled(ground_a(4), [(1, 4), (2, 3)])) == "UUDD"
    assert matching_to_dyck(unlabeled(ground_a(4), [(1, 2), (3, 4)])) == "UDUD"
    with pytest.raises(StructuralError):
        matching_to_dyck(unlabeled(ground_a(3), [(1, 2), (3,)]))
    with pytest.raises(StructuralError):
        matching_to_dyck(unlabeled(ground_a(4), [(1, 3), (2, 4)]))


def test_matching_to_dyck_is_bijection():
    for k in range(1, 6):
        matchings = [
            unlabeled(ground_a(2 * k), blocks)
            for blocks in family_shapes("NC", 2 * k)
            if all(len(b) == 2 for b in blocks)
        ]
        images = {matching_to_dyck(p) for p in matchings}
        assert len(matchings) == len(images) and images == set(enumerate_dyck(k))
