import itertools

import pytest

from arcact.action import (
    acting_family,
    orbit,
    orbit_decomposition,
    orbit_representative,
    plus,
    plus_involution,
    plus_via_matrix,
)
from arcact.core import (
    LabeledSetPartition,
    StructuralError,
    blocks_from_arcs,
    canonical_blocks,
    classify,
    ground_a,
    ground_b,
    ground_d,
    unlabeled,
    unlabeled_shape,
)
from arcact.families import (
    ALL_FAMILIES, FamilySpec, enumerate_family, family_members, family_shapes,
)
from arcact.groups import DirectSum, GroupSpec
from arcact.identities import GROUP_PAIRS, _embed_a
from arcact import action, core, maps
from arcact import unitriangular as ut

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z5 = GroupSpec((5,))


def _labeled(ground, group, arcs):
    return LabeledSetPartition(
        ground, group, blocks_from_arcs(ground, arcs), dict(arcs)
    )


def test_definition_example():
    # covers a,b,c,d acting on arcs (1,2):-a, (2,3):e, (3,5):f with b != -e
    A5 = ground_a(5)
    a, b, c, d, e, f = (1,), (1,), (2,), (3,), (1,), (4,)
    alpha = _labeled(A5, Z5, {(1, 2): a, (2, 3): b, (3, 4): c, (4, 5): d})
    lam = _labeled(A5, Z5, {(1, 2): (4,), (2, 3): e, (3, 5): f})
    result = plus(alpha, lam)
    assert result.arcs() == frozenset({(2, 3), (3, 5)})
    assert result.label_map()[2, 3] == (2,)  # b + e
    assert result.label_map()[3, 5] == f


def test_identity_acts_trivially():
    A5 = ground_a(5)
    lam = _labeled(A5, Z5, {(1, 2): (4,), (2, 3): (1,), (3, 5): (4,)})
    unit = LabeledSetPartition(A5, Z5, [(i,) for i in range(1, 6)], {})
    assert plus(unit, lam) == lam


def test_type_b_display():
    B3 = ground_b(3)
    alpha = _labeled(
        B3,
        Z3,
        {
            (-3, -2): (1,),
            (-2, -1): (2,),
            (-1, 0): (1,),
            (0, 1): (2,),
            (1, 2): (1,),
            (2, 3): (2,),
        },
    )
    lam = _labeled(B3, Z3, {(-3, 1): (1,), (-1, 3): (2,)})
    result = plus(alpha, lam)
    assert result.arcs() == frozenset({(-3, 1), (-1, 3), (-2, -1), (1, 2)})
    labels = result.label_map()
    assert labels[-2, -1] == (2,) and labels[1, 2] == (1,) and labels[-3, 1] == (1,)


def test_plus_argument_errors():
    A3 = ground_a(3)
    lam = unlabeled(A3, [(1, 3), (2,)])
    nonlinear = unlabeled(A3, [(1, 3), (2,)])
    with pytest.raises(StructuralError):
        plus(nonlinear, lam)
    other = unlabeled(ground_a(4), [(i,) for i in range(1, 5)])
    with pytest.raises(StructuralError):
        plus(other, lam)
    wrong_group = LabeledSetPartition(A3, Z3, [(1, 2), (3,)], {(1, 2): (1,)})
    with pytest.raises(StructuralError):
        plus(wrong_group, lam)
    # plus proves alpha linear while it merges, so an actor whose covers come
    # before its longer arc is refused too, and lam is left as it was
    A5 = ground_a(5)
    B2 = ground_b(2)
    cases = (
        (_labeled(A5, Z3, {(1, 2): (1,), (3, 5): (2,)}),
         _labeled(A5, Z3, {(1, 2): (2,), (2, 4): (1,)})),
        (_labeled(A5, Z3, {(1, 2): (1,), (2, 3): (1,), (3, 5): (1,)}),
         LabeledSetPartition(A5, Z3, [(i,) for i in range(1, 6)], {})),
        (_labeled(B2, Z3, {(-2, -1): (1,), (-1, 0): (2,), (0, 2): (1,)}),
         _labeled(B2, Z3, {(-2, 1): (1,), (-1, 0): (1,)})),
    )
    for alpha, lam in cases:
        before = (lam.labels, lam.blocks, lam.label_map(), hash(lam), lam.to_json())
        with pytest.raises(StructuralError, match="linear"):
            plus(alpha, lam)
        with pytest.raises(StructuralError, match="linear"):
            plus_via_matrix(alpha, lam)
        assert (lam.labels, lam.blocks, lam.label_map(), hash(lam), lam.to_json()) == before


MATRIX_ROUTE_CASES = (
    (FamilySpec("L", 4, (Z3,)), FamilySpec("PI", 4, (Z3,))),
    (FamilySpec("L_B", 2, (Z3,)), FamilySpec("P_B", 2, (Z3,))),
    (FamilySpec("L_D", 3, (Z2,)), FamilySpec("P_D", 3, (Z2,))),
)


def _plus_outputs():
    for lspec, pspec in MATRIX_ROUTE_CASES:
        for alpha in enumerate_family(lspec):
            for lam in enumerate_family(pspec):
                yield plus(alpha, lam)


LABELED_SOURCES = (
    FamilySpec("PI", 4, (Z3,)),
    FamilySpec("P_B", 2, (Z3,)),
    FamilySpec("P_D", 3, (Z2,)),
)
UNLABELED_SOURCES = (FamilySpec("PI", 4, (Z2,)), FamilySpec("P_B", 2, (Z2,)))
TWO_GROUP_SOURCES = (
    FamilySpec("PI_AB", 3, (Z2, Z3)),
    FamilySpec("P_B_AB", 2, (Z3, Z2)),
    FamilySpec("P_D_AB", 2, (Z2, Z3)),
)


def _members(specs, flag=None):
    for spec in specs:
        for p in enumerate_family(spec):
            if flag is None or getattr(classify(p), flag):
                yield p


def _scrambled_shapes():
    # every shape of each source, its blocks and their elements in reverse
    for spec in LABELED_SOURCES:
        for shape in family_shapes(spec.base, spec.n):
            yield spec.ground, [tuple(reversed(b)) for b in reversed(shape)]


def _b_d_indices():
    return _members(ut.index_family(kind, n, 3) for kind, n in (("B", 2), ("D", 3)))


# Each producer that builds through LabeledSetPartition._trusted, with a
# stream of its outputs at desk scale.  The maps other than shift, unshift
# and halve, and the superclasses, build through the checked
# core.from_triples, the rest unchecked.
TRUSTED_PRODUCERS = {
    "plus": _plus_outputs,
    "orbit_representative": lambda: map(orbit_representative, _members(TWO_GROUP_SOURCES)),
    "shift": lambda: map(maps.shift, _members(LABELED_SOURCES)),
    "unshift": lambda: map(maps.unshift, _members(LABELED_SOURCES, "two_regular")),
    "unlabeled": lambda: (unlabeled(g, blocks) for g, blocks in _scrambled_shapes()),
    "unlabeled_shape": lambda: (
        unlabeled_shape(spec.ground, blocks)
        for spec in LABELED_SOURCES for blocks in family_shapes(spec.base, spec.n)
    ),
    "uncross": lambda: map(maps.uncross, _members(UNLABELED_SOURCES)),
    "negate": lambda: map(core.negate, _members(LABELED_SOURCES[1:])),
    "halve": lambda: map(maps.halve, _members(LABELED_SOURCES[1:])),
    "from_rook": lambda: (
        core.from_rook(p.ground, core.to_rook(p)) for p in _members(LABELED_SOURCES)
    ),
    "to_rook": lambda: map(core.to_rook, _b_d_indices()),
    "superclass_reduce": lambda: (
        ut.superclass_reduce(g, 3) for kind, n in (("A", 3), ("B", 1), ("D", 2))
        for g in ut.group_elements(kind, n, 3)
    ),
    "reflection_moves": lambda: (
        q for lam in _b_d_indices() for q in ut.reflection_moves(maps.halve(lam))
    ),
    # the labeled walk itself, mirrored B and D families among its sources
    "enumerate_family": lambda: _members((*LABELED_SOURCES, *TWO_GROUP_SOURCES)),
    "NN": lambda: _members(FamilySpec("NN", n) for n in range(6)),
    "NN_B": lambda: _members(FamilySpec("NN_B", n) for n in range(4)),
    "embed_a": lambda: (
        _embed_a(p, DirectSum(Z3, Z2)) for p in _members([FamilySpec("PI", 3, (Z3,))])
    ),
}


@pytest.mark.parametrize("producer", TRUSTED_PRODUCERS)
def test_trusted_producer_builds_what_the_public_constructor_builds(producer):
    built = 0
    for p in TRUSTED_PRODUCERS[producer]():
        q = LabeledSetPartition(p.ground, p.group, p.blocks, p.label_map())
        assert q == p and hash(q) == hash(p), p
        assert q.label_map() == p.label_map()
        # equality reads no blocks, so compare them and the text directly
        assert q.blocks == p.blocks and q.text() == p.text(), p
        built += 1
    assert built > 0


def test_plus_builds_no_blocks(monkeypatch):
    # plus and orbit_representative leave their results' blocks to the first
    # read: no chain_blocks walk while they run
    linear = list(enumerate_family(FamilySpec("L", 4, (Z3,))))
    members = list(enumerate_family(FamilySpec("PI", 4, (Z3,))))
    two_group = list(enumerate_family(FamilySpec("PI_AB", 3, (Z2, Z3))))

    def refuse(ground, succ):
        raise AssertionError("chain_blocks called")

    with monkeypatch.context() as patched:
        patched.setattr(core, "chain_blocks", refuse)
        patched.setattr(action, "chain_blocks", refuse, raising=False)  # any own binding
        sums = [(alpha, lam, plus(alpha, lam)) for alpha in linear for lam in members]
        reps = [orbit_representative(lam) for lam in two_group]
    assert len(sums) == len(linear) * len(members) and reps
    for alpha, lam, result in sums:
        assert result.blocks == plus_via_matrix(alpha, lam).blocks, result
    for rep in reps:
        checked = LabeledSetPartition(
            rep.ground, rep.group, blocks_from_arcs(rep.ground, rep.arcs()), rep.label_map()
        )
        assert rep.blocks == checked.blocks, rep


def test_lazy_blocks_leave_the_value_unchanged():
    # hash, equality, repr and JSON of a partition built without its blocks
    # are the same before and after the blocks are read
    lam = LabeledSetPartition(ground_a(5), Z3, [(1, 3, 4), (2,), (5,)], {(1, 3): (1,), (3, 4): (2,)})
    for alpha in enumerate_family(FamilySpec("L", 5, (Z3,))):
        result = plus(alpha, lam)
        checked = plus_via_matrix(alpha, lam)
        before = (hash(result), result == checked, repr(plus(alpha, lam)), plus(alpha, lam).to_json())
        assert result._blocks is None  # neither hash nor equality read them
        assert result.blocks == checked.blocks
        after = (hash(result), result == checked, repr(result), result.to_json())
        assert before == after == (hash(checked), True, repr(checked), checked.to_json())


def test_arc_map_is_derived_on_first_read():
    # plus, orbit_representative and the family walk store only the label
    # triples: every arc read derives its answer from them, and the value is
    # the same before and after
    lam = LabeledSetPartition(ground_a(5), Z3, [(1, 3, 4), (2,), (5,)], {(1, 3): (1,), (3, 4): (2,)})
    results = [plus(alpha, lam) for alpha in enumerate_family(FamilySpec("L", 5, (Z3,)))]
    results += map(orbit_representative, enumerate_family(FamilySpec("P_B_AB", 2, (Z3, Z2))))
    results += enumerate_family(FamilySpec("P_D", 3, (Z3,)))
    reads = (
        lambda p: p.label_map(),
        lambda p: p.arcs(),
        lambda p: p.cover_arcs(),
    )
    for n, p in enumerate(results):
        twin = LabeledSetPartition(p.ground, p.group, p.blocks, {(i, j): v for i, j, v in p.labels})
        before = (hash(p), p == twin, repr(p), p.to_json())
        reads[n % len(reads)](p)
        assert p.label_map() == twin.label_map() and p.arcs() == twin.arcs()
        assert p.cover_arcs() == {(i, j) for i, j, _ in p.labels if j == i + 1}
        assert (hash(p), p == twin, repr(p), p.to_json()) == before == (
            hash(twin), True, repr(twin), twin.to_json()
        )
    assert len(results) > 100


def test_a_two_group_family_and_its_acting_family_share_one_group():
    # DirectSum.spec interns one group per pair, so the compatibility check
    # and partition equality match the groups by identity
    spec = FamilySpec("P_B_AB", 3, (Z2, Z3))
    alpha = next(iter(enumerate_family(acting_family(spec))))
    rep = orbit_representative(next(iter(enumerate_family(spec))))
    assert alpha.group is rep.group is DirectSum(Z2, Z3).spec
    assert DirectSum(Z3, Z2).spec == GroupSpec((3, 2))


def test_group_action_laws():
    for lspec, pspec in (
        (FamilySpec("L", 4, (Z3,)), FamilySpec("PI", 4, (Z3,))),
        (FamilySpec("L_B", 2, (Z3,)), FamilySpec("P_B", 2, (Z3,))),
    ):
        linear = list(enumerate_family(lspec))
        members = list(enumerate_family(pspec))
        for alpha, beta in itertools.product(linear, repeat=2):
            combined = plus(alpha, beta)
            assert combined in set(linear)  # closure
            for lam in members[:: max(1, len(members) // 12)]:
                assert plus(alpha, plus(beta, lam)) == plus(combined, lam)


def test_action_preserves_noncrossing_families():
    for alpha in enumerate_family(FamilySpec("L", 4, (Z3,))):
        for lam in enumerate_family(FamilySpec("NC", 4, (Z3,))):
            assert classify(plus(alpha, lam)).noncrossing
    for alpha in enumerate_family(FamilySpec("L_B", 2, (Z3,))):
        for lam in enumerate_family(FamilySpec("NC_TILDE_B", 2, (Z3,))):
            result = plus(alpha, lam)
            assert classify(result).nc_tilde and classify(result).type_symmetric


def test_orbit_examples():
    ds = DirectSum(Z3, Z3)

    def embed(p):
        labels = {a: ds.embed_a(v) for a, v in p.label_map().items()}
        return LabeledSetPartition(p.ground, ds.spec, p.blocks, labels)

    acting = acting_family(FamilySpec("PI_AB", 3, (Z3, Z3)))
    # one block {1,2}: no singletons, orbit of the shift is a fixed point
    lam = embed(_labeled(ground_a(2), Z3, {(1, 2): (1,)}))
    assert len(orbit(embed(maps.shift(_strip(lam))), acting)) == 1

    # all singletons: s = 2, orbit size 9
    singles = LabeledSetPartition(ground_a(2), ds.spec, [(1,), (2,)], {})
    members = orbit(maps.shift(singles), acting)
    assert len(members) == 9
    assert {orbit_representative(q) for q in members} == {maps.shift(singles)}

    # type B: a two-singleton member of the D family has orbit size |B|^(2/2)
    acting_b = acting_family(FamilySpec("P_B_AB", 3, (Z3, Z3)))
    lam_d = LabeledSetPartition(
        ground_d(3),
        ds.spec,
        [(-3, -2), (2, 3), (-1,), (1,)],
        {(-3, -2): ds.embed_a((1,)), (2, 3): ds.embed_a((2,))},
    )
    assert len(lam_d.singleton_blocks()) == 2
    assert len(orbit(maps.shift(lam_d), acting_b)) == 3


def _strip(p):
    # drop the zero padding of a pure-A labeling back to the A group
    k = 1
    labels = {a: v[:k] for a, v in p.label_map().items()}
    return LabeledSetPartition(p.ground, Z3, p.blocks, labels)


def _orbit_families():
    """The two-group families acting_family accepts."""
    out = []
    for family in sorted(f for f in ALL_FAMILIES if f.endswith("_AB")):
        try:
            acting_family(FamilySpec(family, 0, (Z2, Z2)))
        except ValueError:
            continue
        out.append(family)
    return out


@pytest.mark.parametrize("groups", GROUP_PAIRS[:2], ids=lambda g: f"{g[0]}-{g[1]}")
def test_orbit_applies_every_acting_member(groups):
    # the orbit against plus one member at a time, and the arc-set route
    # against the independent matrix route
    families = _orbit_families()
    assert len(families) == 6
    for family in families:
        for n in range(4):
            spec = FamilySpec(family, n, groups)
            acting = acting_family(spec)
            for lam in enumerate_family(spec):
                members = orbit(lam, acting)
                assert members == {plus(alpha, lam) for alpha in enumerate_family(acting)}, lam
                assert members == {
                    plus_via_matrix(alpha, lam) for alpha in enumerate_family(acting)
                }, lam


def test_orbit_keeps_one_image_per_triple_tuple():
    # orbit keys its images by their label triples: the same set as every
    # acting member's image hashed and compared as a partition
    for spec in (
        FamilySpec("PI_AB", 4, (Z2, Z2)),
        FamilySpec("P_B_AB", 3, (Z2, Z3)),
        FamilySpec("NC_TILDE_D_AB", 3, (Z3, Z2)),
    ):
        acting = acting_family(spec)
        reps = orbit_decomposition(spec)
        assert len(reps) > 1
        for rep in reps:
            images = orbit(rep, acting)
            assert images == frozenset(plus(alpha, rep) for alpha in family_members(acting))
            assert len({q.labels for q in images}) == len(images), rep


def test_orbit_refuses_incompatible_acting_families():
    spec = FamilySpec("PI_AB", 3, (Z2, Z3))
    lam = next(iter(enumerate_family(spec)))
    for acting in (
        FamilySpec("L_AB", 2, (Z2, Z3)),  # another ground
        FamilySpec("L_B_AB", 3, (Z2, Z3)),  # another ground shape
        FamilySpec("L_AB", 3, (Z3, Z2)),  # another group
        FamilySpec("PI_AB", 3, (Z2, Z3)),  # not linear
    ):
        with pytest.raises(StructuralError):
            orbit(lam, acting)


def test_orbit_representative_drops_the_covers_without_acting(monkeypatch):
    def refuse(alpha, lam):
        raise AssertionError("plus called")

    monkeypatch.setattr(action, "plus", refuse)
    for lam in enumerate_family(FamilySpec("P_B_AB", 2, (Z2, Z3))):
        rep = orbit_representative(lam)
        assert rep.arcs() == lam.arcs() - lam.cover_arcs()
        assert rep.label_map().items() <= lam.label_map().items()
        assert classify(rep).two_regular
        assert rep == LabeledSetPartition(rep.ground, rep.group, rep.blocks, rep.label_map())


def test_orbit_decomposition_counts():
    orbits = orbit_decomposition(FamilySpec("NC_AB", 3, (Z2, Z2)))
    assert len(orbits) == 2  # poor noncrossing partitions of a 2-set
    orbits = orbit_decomposition(FamilySpec("PI_AB", 3, (Z2, Z2)))
    assert len(orbits) == 2
    total = sum(len(members) for members in orbits.values())
    assert total == len(list(enumerate_family(FamilySpec("PI_AB", 3, (Z2, Z2)))))
    for rep in orbits:
        assert classify(rep).two_regular


def test_orbit_decomposition_rejects_single_group_families():
    with pytest.raises(ValueError):
        orbit_decomposition(FamilySpec("PI", 3, (Z2,)))


def test_each_orbit_has_unique_two_regular_member():
    for spec in (
        FamilySpec("PI_AB", 4, (Z2, Z3)),
        FamilySpec("NC_TILDE_B_AB", 2, (Z3, Z2)),
        FamilySpec("P_D_AB", 3, (Z2, Z2)),
    ):
        for rep, members in orbit_decomposition(spec).items():
            assert [q for q in members if classify(q).two_regular] == [rep]


def test_involution_examples():
    p = unlabeled(ground_a(8), [(1, 4, 5), (2, 3), (6, 7), (8,)])
    q = plus_involution(p)
    assert q.blocks == canonical_blocks([(1, 4), (2,), (3,), (5, 6), (7, 8)])
    assert plus_involution(q) == p

    singles = unlabeled(ground_a(5), [(i,) for i in range(1, 6)])
    assert plus_involution(singles).blocks == (tuple(range(1, 6)),)

    crossing = unlabeled(ground_a(4), [(1, 3), (2, 4)])
    assert plus_involution(crossing) == crossing  # |blocks| 2 != n+1-2

    with pytest.raises(StructuralError):
        plus_involution(
            LabeledSetPartition(ground_a(2), Z3, [(1, 2)], {(1, 2): (1,)})
        )


def test_involution_is_involution_on_bd_grounds():
    from arcact.families import family_shapes

    for n in range(4):
        for code, ground in (("P_B", ground_b(n)), ("P_D", ground_d(n))):
            for blocks in family_shapes(code, n):
                p = unlabeled(ground, blocks)
                assert plus_involution(plus_involution(p)) == p
