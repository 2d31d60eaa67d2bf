import gc
from itertools import product
from math import comb

import pytest

from arcact import families
from arcact.core import (
    GROUNDS,
    LabeledSetPartition,
    arcs_of,
    canonical_blocks,
    classify,
    ground_a,
    ground_d,
    is_nc_tilde,
    is_noncrossing,
    is_nonnesting,
    unlabeled,
    unlabeled_shape,
)
from arcact.families import (
    FAMILIES,
    FamilySpec,
    count_by,
    crossing,
    enumerate_family,
    enumerate_jsonl,
    family_ground,
    family_shapes,
    family_size,
    nesting,
    not_cover,
    set_partitions,
    symmetric_partitions,
)
from arcact.maps import enumerate_dyck, is_symmetric, nn_from_dyck, valleys
from arcact.poly import catalan
from arcact.groups import GroupSpec
from arcact.poly import (
    bell_univariate,
    bellb_univariate,
    cat_univariate,
    catb_closed,
    catd_closed,
)

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z2xZ2 = GroupSpec((2, 2))


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("PI", 2)  # missing group
    with pytest.raises(ValueError):
        FamilySpec("NN", 2, (Z2,))  # unlabeled family takes no group
    with pytest.raises(ValueError):
        FamilySpec("PI_AB", 2, (Z2,))  # needs two groups
    with pytest.raises(ValueError):
        FamilySpec("PI", -1, (Z2,))
    with pytest.raises(ValueError):
        FamilySpec("XYZ", 2, (Z2,))


def test_small_family_counts():
    assert family_size(FamilySpec("PI", 3, (Z2,))) == 5
    assert family_size(FamilySpec("P_B", 2, (Z3,))) == 13
    assert family_size(FamilySpec("NN", 4)) == 14


def test_counts_match_polynomials():
    for n in range(6):
        for g in (Z2, Z3):
            x = g.order - 1
            assert family_size(FamilySpec("PI", n, (g,))) == bell_univariate(
                n
            ).eval_int(x)
            assert family_size(FamilySpec("NC", n, (g,))) == cat_univariate(
                n
            ).eval_int(x)
    for n in range(4):
        for g in (Z2, Z3):
            x = g.order - 1
            assert family_size(FamilySpec("P_B", n, (g,))) == bellb_univariate(
                n
            ).eval_int(x)
            assert family_size(FamilySpec("P_D", n, (g,))) == bell_univariate(
                n
            ).scale_x(2).eval_int(x)
            assert family_size(FamilySpec("NC_TILDE_B", n, (g,))) == catb_closed(
                n
            ).eval_int(x)
            assert family_size(FamilySpec("NC_TILDE_D", n, (g,))) == catd_closed(
                n
            ).eval_int(x)


def test_linear_family_sizes():
    for n in range(1, 6):
        for g in (Z2, Z3):
            assert family_size(FamilySpec("L", n, (g,))) == g.order ** (n - 1)
            assert family_size(FamilySpec("L_B", n, (g,))) == g.order**n
            assert family_size(FamilySpec("L_D", n, (g,))) == g.order ** (n - 1)


def test_nonnesting_counts():
    for n in range(9):
        assert family_size(FamilySpec("NN", n)) == family_size(
            FamilySpec("NC", n, (Z2,))
        )
    for n in range(6):
        assert family_size(FamilySpec("NN_B", n)) == comb(2 * n, n)


def _all_covers(arcs):
    return all(j == i + 1 for i, j in arcs)


def _filtered_shapes(family, n):
    """The shapes of NC, NN, NN_B, the NC~ or the L families by testing
    every candidate partition: the route the join rules replaced, kept as
    their oracle."""
    if family == "NN_B":
        candidates = symmetric_partitions(n, False, True)
    elif family[-2:] in ("_B", "_D"):
        candidates = family_shapes("P" + family[-2:], n)
    else:
        candidates = set_partitions(range(1, n + 1))
    test = {"NC": is_noncrossing, "NN": is_nonnesting, "NC_TILDE": is_nc_tilde, "L": _all_covers}[
        family.removesuffix("_B").removesuffix("_D")
    ]
    return tuple(sorted({canonical_blocks(s) for s in candidates if test(arcs_of(s))}))


@pytest.mark.parametrize(
    "family,n_max",
    [
        ("NC", 8), ("NN", 8), ("NN_B", 5), ("NC_TILDE_B", 7), ("NC_TILDE_D", 7),
        ("L", 8), ("L_B", 6), ("L_D", 6),
    ],
)
def test_direct_generators_match_the_filter_route(family, n_max):
    for n in range(n_max + 1):
        assert family_shapes(family, n) == _filtered_shapes(family, n), n


def test_nc_grows_by_its_rule():
    # NC has its own first-block recursion; its row's rule grows the same shapes
    for n in range(9):
        assert family_shapes("NC", n) == tuple(sorted(set_partitions(range(1, n + 1), crossing)))


def test_nonnesting_shapes_are_the_dyck_bijection_images():
    # maps.nn_from_dyck reads each Dyck path's valleys as arcs, an oracle
    # that shares nothing with the nesting rule
    for n in range(10):
        want = sorted(nn_from_dyck(p, ground_a(n)).blocks for p in enumerate_dyck(n))
        assert family_shapes("NN", n) == tuple(want), n
    for n in range(7):
        paths = filter(is_symmetric, enumerate_dyck(2 * n))
        want = sorted(nn_from_dyck(p, ground_d(n)).blocks for p in paths)
        assert family_shapes("NN_B", n) == tuple(want), n


@pytest.mark.parametrize("family", ["P_B", "P_D"])
def test_symmetric_shapes_match_the_set_partition_filter(family):
    # negation-closed partitions of the ground with no self-negative block
    # but the zero block, picked out of all of its set partitions
    def negated(b):
        return tuple(sorted(-x for x in b))

    for n in range(5):
        ground = families.family_ground(family, n)
        want = tuple(
            sorted(
                s
                for s in set_partitions(ground.elements)
                if {negated(b) for b in s} == set(s)
                and all(0 in b or negated(b) != b for b in s)
            )
        )
        assert family_shapes(family, n) == want, n


@pytest.mark.parametrize("has_zero", [False, True])
@pytest.mark.parametrize("allow_self_negative", [False, True])
def test_symmetric_partitions_yield_each_shape_once(has_zero, allow_self_negative):
    # each join rule keeps exactly the shapes whose arcs pass its test
    rules = ((crossing, is_nc_tilde), (nesting, is_nonnesting), (not_cover, _all_covers))
    for n in range(6):
        shapes = list(symmetric_partitions(n, has_zero, allow_self_negative))
        assert len(set(shapes)) == len(shapes), n
        for rule, keeps in rules:
            grown = list(symmetric_partitions(n, has_zero, allow_self_negative, rule))
            assert len(set(grown)) == len(grown), (rule, n)
            assert set(grown) == {s for s in shapes if keeps(arcs_of(s))}, (rule, n)


def test_direct_generator_counts():
    for n in range(12):
        assert len(family_shapes("NC", n)) == catalan(n), n
        assert len(family_shapes("NN", n)) == catalan(n), n
    for n in range(8):
        assert len(family_shapes("NN_B", n)) == comb(2 * n, n), n


def test_ab_label_condition():
    from arcact.groups import DirectSum

    # a cover's label lies in B, any other arc's in A: the embedded nonzero
    # elements of each
    ds = DirectSum(Z2, Z3)
    in_a = {ds.embed_a((1,))}
    in_b = {ds.embed_b((1,)), ds.embed_b((2,))}
    for p in enumerate_family(FamilySpec("PI_AB", 4, (Z2, Z3))):
        for (i, j), value in p.label_map().items():
            assert value in (in_b if j == i + 1 else in_a), p


def test_streams_sorted_and_duplicate_free(all_desk_specs, dense_rook_reading):
    # the stream sorts nothing, so its order is compared with a sort by the
    # zero-filled rook reading; Z2xZ2 and Z4 have pools of three labels
    Z2xZ2, Z4 = GroupSpec((2, 2)), GroupSpec((4,))
    for spec in [
        *all_desk_specs,
        FamilySpec("PI", 4, (Z3,)),
        FamilySpec("P_D", 3, (Z2,)),
        FamilySpec("NC_TILDE_B_AB", 2, (Z2, Z3)),
        FamilySpec("P_B", 2, (Z2xZ2,)),
        FamilySpec("NC_TILDE_D", 3, (Z4,)),
        FamilySpec("PI_AB", 3, (Z2xZ2, Z4)),
        FamilySpec("L_D_AB", 3, (Z4, Z2xZ2)),
        # mirrored arcs whose sources lie deep in the trie
        FamilySpec("P_D", 4, (Z3,)),
        FamilySpec("NC_TILDE_B_AB", 3, (Z3, Z4)),
    ]:
        members = list(enumerate_family(spec))
        assert members == sorted(members, key=dense_rook_reading), spec
        assert len(set(members)) == len(members), spec


def test_self_mirrored_arc_is_refused(monkeypatch):
    # no labeled B or D family has an arc (-i, i): its label would have to be
    # its own negation
    monkeypatch.setattr(families, "_grown_shapes", lambda family, n: (((-1, 1), (0,)),))
    with pytest.raises(ValueError, match="self-mirrored arc"):
        list(enumerate_family(FamilySpec("P_B", 1, (Z3,))))


@pytest.mark.parametrize("kind", "ABD")
def test_arc_codes_order_arcs_as_their_positions(kind):
    # the walk compares one int per arc where rook_sort_key reads (-i, -j)
    for n in range(9):
        elements = GROUNDS[kind](n).elements
        arcs = [(i, j) for i in elements for j in elements if i < j]
        for (i, j), (k, l) in product(arcs, repeat=2):
            codes = families._arc_code(n, i, j), families._arc_code(n, k, l)
            assert (codes[0] < codes[1]) == ((-i, -j) < (-k, -l)), (n, (i, j), (k, l))
            assert (codes[0] == codes[1]) == ((i, j) == (k, l)), (n, (i, j), (k, l))


def test_generator_shapes_build_trusted_as_unlabeled_builds_them():
    # unlabeled_shape checks nothing: every shape the generators grow passes
    # unlabeled's check and builds the same partition, blocks included
    sources = [
        (family_ground(family, n), family_shapes(family, n))
        for family, (kind, _) in FAMILIES.items()
        for n in range(8 if kind == "A" else 6)
    ]
    sources += [
        (GROUNDS["B" if has_zero else "D"](n), symmetric_partitions(n, has_zero, self_negative))
        for n in range(6)
        for has_zero, self_negative in product((False, True), repeat=2)
    ]
    built = 0
    for ground, shapes in sources:
        for blocks in shapes:
            p, q = unlabeled_shape(ground, blocks), unlabeled(ground, blocks)
            assert p == q and p.group is q.group and p.blocks == q.blocks, (ground, blocks)
            built += 1
    assert built > 5000


def test_streams_leave_no_cyclic_garbage():
    # the growers and the trie walk recurse through module-level functions,
    # never through a closure that refers to itself, so reference counting
    # alone frees a stream's working set, whether the stream is exhausted or
    # dropped after its first member
    specs = [
        FamilySpec("PI", 4, (Z3,)),
        FamilySpec("NC", 5, (Z2,)),
        FamilySpec("P_B", 3, (Z3,)),
        FamilySpec("NC_TILDE_D", 3, (Z2,)),
        FamilySpec("NN_B", 3),
    ]
    gc.collect()
    gc.disable()
    try:
        for spec in specs:
            for stream_of in (enumerate_family, enumerate_jsonl):
                for _ in stream_of(spec):
                    pass
                stream = stream_of(spec)
                next(stream)
                del stream
        for family in FAMILIES:
            family_shapes(family, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _jsonl_specs():
    # every family at n <= 3 over Z2, Z3 and Z2xZ2, the two-group families
    # over groups of unequal order both ways round
    for family in sorted(families.ALL_FAMILIES):
        if family in families.UNLABELED_FAMILIES:
            choices = [()]
        elif family.endswith("_AB"):
            choices = [(Z2, Z3), (Z3, Z2), (Z2xZ2, Z2)]
        else:
            choices = [(Z2,), (Z3,), (Z2xZ2,)]
        for groups in choices:
            for n in range(4):
                yield FamilySpec(family, n, groups)


def test_jsonl_stream_is_the_members_to_json():
    lines = 0
    for spec in _jsonl_specs():
        want = [p.to_json() for p in enumerate_family(spec)]
        assert list(enumerate_jsonl(spec)) == want, spec
        lines += len(want)
    assert lines > 1500


def test_jsonl_stream_builds_no_partition(monkeypatch):
    def refuse(*args):
        raise AssertionError("a partition was built")

    want = {spec: [p.to_json() for p in enumerate_family(spec)] for spec in _jsonl_specs()}
    monkeypatch.setattr(LabeledSetPartition, "_trusted", refuse)
    monkeypatch.setattr(LabeledSetPartition, "__init__", refuse)
    for spec, lines in want.items():
        assert list(enumerate_jsonl(spec)) == lines, spec


def test_generated_members_match_the_public_constructor(all_desk_specs):
    for spec in all_desk_specs:
        for p in enumerate_family(spec):
            q = LabeledSetPartition(p.ground, p.group, p.blocks, p.label_map())
            assert q == p and hash(q) == hash(p), p
            assert q.label_map() == p.label_map()


def test_type_families_satisfy_defining_conditions():
    for p in enumerate_family(FamilySpec("P_B", 2, (Z3,))):
        assert classify(p).type_symmetric
    for p in enumerate_family(FamilySpec("NC_TILDE_D", 3, (Z2,))):
        assert classify(p).type_symmetric and classify(p).nc_tilde
    for p in enumerate_family(FamilySpec("NN_B", 2)):
        flags = classify(p)
        assert flags.nonnesting


def test_count_by_histograms():
    hist = count_by(FamilySpec("NC", 4, (Z2,)), "blocks")
    assert hist == {1: 1, 2: 6, 3: 6, 4: 1}

    hist = count_by(FamilySpec("NN_B", 2), "blocks")
    for k in range(3):
        assert hist.get(2 * k, 0) + hist.get(2 * k + 1, 0) == comb(2, k) ** 2
    assert sum(hist.values()) == comb(4, 2)

    hist = count_by(FamilySpec("L", 3, (Z2,)), "arcs")
    assert hist == {0: 1, 1: 2, 2: 1}

    with pytest.raises(ValueError):
        count_by(FamilySpec("L", 3, (Z2,)), "nope")


def test_count_by_cover_statistics():
    spec = FamilySpec("PI", 4, (Z2,))
    arcs = count_by(spec, "arcs")
    cov = count_by(spec, "cov_arcs")
    noncov = count_by(spec, "noncov_arcs")
    assert sum(k * v for k, v in arcs.items()) == sum(
        k * v for k, v in cov.items()
    ) + sum(k * v for k, v in noncov.items())
    singles = count_by(spec, "singletons")
    assert sum(singles.values()) == family_size(spec)


def test_dyck_paths():
    assert list(enumerate_dyck(0)) == [""]
    # lexicographic with U before D
    assert list(enumerate_dyck(2)) == ["UUDD", "UDUD"]
    assert len(list(enumerate_dyck(3))) == 5
    with pytest.raises(ValueError):
        enumerate_dyck(-1).__next__()
    assert is_symmetric("UUDD")
    assert not is_symmetric("UUDDUD")
    assert valleys("UDUD") == ((2, 0),)
    assert valleys("UUDUDDUD") == ((3, 1), (6, 0))
