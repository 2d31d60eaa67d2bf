import hashlib
import random
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcact import identities
from arcact.action import plus
from arcact.cli import main
from arcact.core import (
    GroundSet,
    LabeledSetPartition,
    blocks_from_arcs,
    classify,
    from_triples,
    ground_a,
)
from arcact.cyclotomic import CycValue, theta
from arcact.families import FamilySpec, enumerate_family
from arcact.groups import GroupSpec
from arcact.maps import halve
from arcact import unitriangular as ut

Z2 = GroupSpec((2,))
F3 = GroupSpec((3,))


def test_theta():
    assert theta(2, 1).rational_value() == -1
    assert (theta(3, 1) * theta(3, 2)).rational_value() == 1
    assert (theta(3, 1) + theta(3, 2)).rational_value() == -1
    assert theta(3, 0).rational_value() == 1
    with pytest.raises(ValueError):
        theta(4, 1)


def test_cyclotomic_ring():
    z = theta(5, 1)
    total = CycValue.from_int(5, 1)
    for k in range(1, 5):
        total = total + theta(5, k)
    assert total.rational_value() == 0
    assert (z * z.conjugate()).rational_value() == 1
    assert z.conjugate() == theta(5, 4)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.rational_value()


def test_matrix_helpers():
    g = ((1, 1, 0), (0, 1, 2), (0, 0, 1))
    assert ut.dagger(ut.dagger(g)) == g


def test_subgroup_membership_and_orders():
    for kind, n, p, order in (
        ("B", 1, 3, 3), ("B", 2, 3, 3**4), ("B", 2, 5, 5**4),
        ("D", 1, 3, 1), ("D", 2, 3, 3**2), ("D", 3, 3, 3**6),
    ):
        elements = list(ut.group_elements(kind, n, p))
        assert len(elements) == ut.subgroup_order(kind, n, p) == order
        assert len(set(elements)) == len(elements)
        for g in elements:
            assert ut.is_unitriangular(g, p)
            assert ut.is_dagger_unitary(g, p)
    # the smallest D group is trivial
    assert list(ut.group_elements("D", 1, 3)) == [ut.identity_matrix(2)]
    # and so is the rank-zero B group, the 1 x 1 identity
    assert list(ut.group_elements("B", 0, 3)) == [((1,),)]


def test_subgroups_are_closed_under_product():
    for kind, n in (("B", 1), ("D", 2)):
        elements = list(ut.group_elements(kind, n, 3))
        pool = set(elements)
        for a in elements:
            for b in elements:
                assert ut.mat_mul(a, b, 3) in pool


@pytest.mark.parametrize("kind, n, p", [("B", 2, 3), ("B", 2, 5), ("D", 3, 3)])
def test_cayley_images_keep_the_superclass_key(kind, n, p):
    # g - 1 = X (1 - X/2)^-1 for the Cayley image g of 1 + X, so counting keys
    # over the Lie algebra counts them over the group
    def keys(elements):
        return Counter(ut.superclass_key(g, p) for g in elements)

    assert keys(ut.group_elements(kind, n, p)) == keys(ut.lie_elements(kind, n, p))


def test_scale_guard(monkeypatch):
    """Tables past the work bound are refused before their family or any
    group element is touched."""
    def refuse(*args):
        raise AssertionError("an oversized table touched its family or group")

    monkeypatch.setattr(ut, "group_elements", refuse)
    monkeypatch.setattr(ut, "lie_elements", refuse)
    monkeypatch.setattr(ut, "family_members", refuse)
    for kind, n, p in (("A", 7, 3), ("B", 4, 5), ("D", 5, 5)):
        with pytest.raises(ut.ScaleGuardError, match="work bound"):
            ut.build_chartable.__wrapped__(kind, n, p)


@pytest.mark.parametrize("kind", ["B", "D"])
def test_types_b_and_d_need_odd_characteristic(kind):
    with pytest.raises(ValueError, match="odd characteristic required"):
        ut.build_chartable(kind, 2, 2)
    for elements in (ut.group_elements, ut.lie_elements):
        with pytest.raises(ValueError, match="odd characteristic required"):
            elements(kind, 2, 2)


@settings(database=None, deadline=None)
@given(
    kind=st.sampled_from("ABD"),
    n=st.integers(0, 10**9),
    p=st.integers(2, 2**64),
)
def test_size_guard_decides_quickly(kind, n, p):
    start = time.perf_counter()
    try:
        ut.check_table_size(kind, n, p)
    except ut.ScaleGuardError:
        pass
    assert time.perf_counter() - start < 0.1


def test_reduce_identity_and_idempotence():
    assert ut.superclass_reduce(ut.identity_matrix(4), 2).arcs() == frozenset()
    for lam in enumerate_family(FamilySpec("PI", 4, (F3,))):
        g = ut.class_representative_matrix(lam, 3)
        assert ut.superclass_reduce(g, 3) == lam


def test_reduce_counts_superclasses():
    seen = {ut.superclass_reduce(g, 2) for g in ut.group_elements("A", 3, 2)}
    assert len(seen) == 5


def test_chi_degree_vanishing_and_root_of_unity():
    lam = LabeledSetPartition(ground_a(3), Z2, [(1, 3), (2,)], {(1, 3): (1,)})
    empty = LabeledSetPartition(ground_a(3), Z2, [(1,), (2,), (3,)], {})
    assert ut.chi_on_class(lam, empty).rational_value() == 2

    gamma = LabeledSetPartition(ground_a(3), Z2, [(1, 2), (3,)], {(1, 2): (1,)})
    assert ut.chi_on_class(lam, gamma).rational_value() == 0

    lam2 = LabeledSetPartition(ground_a(2), F3, [(1, 2)], {(1, 2): (1,)})
    assert ut.chi_on_class(lam2, lam2) == theta(3, 1)


def test_vanishing_values_share_one_zero_and_groups_are_checked():
    lam = LabeledSetPartition(ground_a(3), F3, [(1, 3), (2,)], {(1, 3): (1,)})
    gamma = LabeledSetPartition(ground_a(3), F3, [(1, 2), (3,)], {(1, 2): (1,)})
    other = LabeledSetPartition(ground_a(3), F3, [(1,), (2, 3)], {(2, 3): (2,)})
    zero = ut.chi_on_class(lam, gamma)
    assert zero == CycValue.from_int(3, 0)
    assert ut.chi_on_class(lam, other) == zero
    # equal but distinct ground and group objects pass the same-group test
    copy = LabeledSetPartition(GroundSet("A", 3), GroupSpec((3,)), [(1, 2), (3,)], {(1, 2): (1,)})
    assert copy.ground is not lam.ground and copy.group is not lam.group
    assert ut.chi_on_class(lam, copy) == zero
    for bad in (
        LabeledSetPartition(ground_a(3), GroupSpec((5,)), [(1, 2), (3,)], {(1, 2): (1,)}),
        LabeledSetPartition(ground_a(4), F3, [(1, 2), (3,), (4,)], {(1, 2): (1,)}),
    ):
        with pytest.raises(ValueError):
            ut.chi_on_class(lam, bad)
        # grouped, the classes are checked against each other once each
        with pytest.raises(ValueError):
            ut.class_shapes([gamma, bad])


def test_chartable_classes_share_the_index_group_and_ground():
    for kind, n in (("A", 3), ("B", 1), ("D", 2)):
        table = ut.build_chartable(kind, n, 3)
        ambient = table.indices if kind == "A" else [halve(lam) for lam in table.indices]
        for lam in ambient:
            for c in table.classes:
                assert c.group is lam.group and c.ground is lam.ground


def test_degree_formula():
    for lam in enumerate_family(FamilySpec("PI", 4, (F3,))):
        empty = LabeledSetPartition(ground_a(4), F3, [(i,) for i in range(1, 5)], {})
        expected = 3 ** sum(l - i - 1 for i, l in lam.arcs())
        assert ut.chi_on_class(lam, empty).rational_value() == expected


def test_inner_products():
    table = ut.build_chartable("A", 3, 2)
    trivial = next(
        v for lam, v in zip(table.indices, table.values) if not lam.arcs()
    )
    assert ut.inner_product(2, trivial, trivial, table.class_sizes, table.group_order) == 1

    lam13 = next(lam for lam in table.indices if lam.arcs() == frozenset({(1, 3)}))
    row = dict(zip(table.indices, table.values))
    assert (
        ut.inner_product(2, row[lam13], row[lam13], table.class_sizes, table.group_order)
        == 1
    )

    table4 = ut.build_chartable("A", 4, 2)
    crossing = next(
        lam for lam in table4.indices if lam.arcs() == frozenset({(1, 3), (2, 4)})
    )
    row4 = dict(zip(table4.indices, table4.values))
    norm = ut.inner_product(
        2, row4[crossing], row4[crossing], table4.class_sizes, table4.group_order
    )
    assert norm > 1 and norm.denominator == 1


@pytest.mark.parametrize(
    "kind, n, p", [("A", 4, 3), ("A", 4, 5), ("B", 2, 3), ("B", 2, 5), ("D", 3, 3)]
)
def test_norms_are_the_inner_products_of_each_row_with_itself(kind, n, p):
    table = ut.build_chartable(kind, n, p)
    sizes, order = table.class_sizes, table.group_order
    assert table.norms() == tuple(ut.inner_product(p, v, v, sizes, order) for v in table.values)


def _ring_sum(p, codes1, codes2, sizes):
    """sum(size * v * conj(w)) over the decoded values, spelled with
    CycValue arithmetic term by term."""
    total = CycValue.from_int(p, 0)
    for a, b, size in zip(codes1, codes2, sizes):
        total = total + size * (ut.decode(p, a) * ut.decode(p, b).conjugate())
    return total


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fused_inner_product_matches_ring_ops(p):
    """On random code rows, irrational sums raise ConsistencyError; rational
    ones, every norm among them, equal the ring-op spelling exactly."""
    rng = random.Random(p)
    codes = [ut.ZERO, *range(4 * p)]
    rational = Counter()
    for _ in range(40):
        length = rng.randrange(1, 8)
        v = rng.choices(codes, k=length)
        w = rng.choices(codes, k=length)
        sizes = [rng.randrange(1, 50) for _ in range(length)]
        order = rng.randrange(1, 100)
        norm = Fraction(_ring_sum(p, v, v, sizes).rational_value(), order)
        assert ut.inner_product(p, v, v, sizes, order) == norm
        total = _ring_sum(p, v, w, sizes)
        rational[total.is_rational()] += 1
        if total.is_rational():
            expected = Fraction(total.rational_value(), order)
            assert ut.inner_product(p, v, w, sizes, order) == expected
        else:
            with pytest.raises(ut.ConsistencyError):
                ut.inner_product(p, v, w, sizes, order)
    assert rational[True] and rational[False]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_code_product_matches_the_ring(p):
    codes = [ut.ZERO, *range(4 * p)]  # zero and p^q zeta^t for q <= 3
    for a in codes:
        for b in codes:
            product = ut.decode(p, a) * ut.decode(p, b)
            assert ut.decode(p, ut.code_product(p, a, b)) == product, (a, b)


@pytest.mark.parametrize("kind, n, p", [("A", 4, 3), ("A", 4, 5), ("B", 2, 3), ("D", 3, 3)])
def test_raw_key_class_sizes_match_reduced_partitions(kind, n, p):
    table = ut.build_chartable(kind, n, p)
    reduced = Counter(ut.superclass_reduce(g, p) for g in ut.group_elements(kind, n, p))
    assert dict(zip(table.classes, table.class_sizes)) == reduced
    assert list(table.classes) == sorted(reduced, key=lambda q: q.labels)
    assert sum(table.class_sizes) == table.group_order


def _mirror_closure(h, p):
    """The arcs of a halved index and their mirrors (i, j) -> (m+1-j, m+1-i),
    each mirror labeled with the negated value."""
    m = h.ground.size
    mirrors = [(m + 1 - j, m + 1 - i, ((-v[0]) % p,)) for i, j, v in h.labels]
    return from_triples(ground_a(m), h.group, h.labels + tuple(mirrors))


@pytest.mark.parametrize("kind, n, p", [("A", 4, 3), ("B", 3, 3), ("D", 4, 3)])
def test_chartables_visit_no_group_element(monkeypatch, kind, n, p):
    def refuse(*args):
        raise AssertionError("a table touched a group element")

    monkeypatch.setattr(ut, "group_elements", refuse)
    monkeypatch.setattr(ut, "lie_elements", refuse)
    monkeypatch.setattr(ut, "superclass_key", refuse)
    table = ut.build_chartable.__wrapped__(kind, n, p)
    if kind == "A":
        closed = table.indices
    else:
        closed = [_mirror_closure(halve(lam), p) for lam in table.indices]
    assert table.classes == tuple(sorted(closed, key=lambda c: c.labels))
    assert sum(table.class_sizes) == table.group_order == ut.subgroup_order(kind, n, p)


def test_class_sizes_that_miss_the_group_order_are_an_error(monkeypatch):
    monkeypatch.setattr(ut, "superclass_size", lambda lam, kind: 1)
    with pytest.raises(ut.ConsistencyError):
        ut.build_chartable.__wrapped__("A", 3, 2)


def test_negative_p_exponent_is_an_error_not_an_assert():
    # Three copies of the arc (2,3) nest inside (1,4), which has two inner
    # points: no real superclass does this, but the check must raise even
    # under python -O.
    lam = LabeledSetPartition(ground_a(4), F3, [(1, 4), (2,), (3,)], {(1, 4): (1,)})
    gamma = SimpleNamespace(ground=lam.ground, group=lam.group, labels=((2, 3, (1,)),) * 3)
    with pytest.raises(ut.ConsistencyError):
        ut.chi_on_class(lam, gamma)


def _counts(kind, n, p):
    """The counts the supercharacters check compares, read off the table."""
    table = ut.build_chartable(kind, n, p)
    norms = table.norms()
    assert all(f.denominator == 1 for f in norms)
    irreducible = {lam for lam, f in zip(table.indices, norms) if f == 1}
    generators = ut.linear_generators(kind, n, p)
    return {
        "group_order": table.group_order,
        "num_superclasses": len(table.classes),
        "num_distinct": len(set(table.values)),
        "num_irreducible": len(irreducible),
        "irreducible_iff_noncrossing": irreducible
        == {lam for lam in table.indices if classify(lam).noncrossing},
        "num_linear": table.degrees().count(1),
        "num_l_invariant": sum(
            all(plus(alpha, lam) == lam for alpha in generators) for lam in table.indices
        ),
        "expected": ut.expected_counts(kind, n, p),
    }


def _check_passes(kind, n, p):
    return identities.run("supercharacters", sizes=((kind, n, p),)).ok


def test_counts_type_a():
    rec = _counts("A", 3, 2)
    assert rec["num_superclasses"] == rec["expected"]["distinct"] == 5
    assert rec["num_distinct"] == 5
    assert rec["num_irreducible"] == 5 and rec["irreducible_iff_noncrossing"]
    assert _check_passes("A", 3, 2)
    rec = _counts("A", 4, 2)
    assert rec["num_distinct"] == 15 and rec["num_irreducible"] == 14
    assert rec["num_linear"] == rec["expected"]["linear"] == 8
    assert rec["num_l_invariant"] == rec["expected"]["l_invariant"]
    assert _check_passes("A", 4, 2)


def test_counts_type_b_small():
    rec = _counts("B", 1, 3)
    assert rec["group_order"] == 3
    assert rec["num_distinct"] == rec["expected"]["distinct"] == 3
    assert rec["num_irreducible"] == rec["expected"]["irreducible"] == 3
    assert rec["irreducible_iff_noncrossing"]
    assert rec["num_l_invariant"] == rec["expected"]["l_invariant"] == 0
    assert _check_passes("B", 1, 3)


def test_counts_type_d_small():
    rec = _counts("D", 2, 3)
    assert rec["group_order"] == 9
    assert rec["num_distinct"] == rec["expected"]["distinct"] == 5
    assert rec["num_irreducible"] == rec["expected"]["irreducible"] == 3
    assert rec["irreducible_iff_noncrossing"]
    assert _check_passes("D", 2, 3)


def test_product_rule_small():
    assert identities.run("supercharacters", sizes=(("A", 3, 2), ("D", 2, 3))).ok


@pytest.fixture
def fresh_tables():
    """Tables built under a fault must not outlive the test in the cache."""
    ut.build_chartable.cache_clear()
    yield
    ut.build_chartable.cache_clear()


def test_a_consistency_error_exits_1_with_one_line(monkeypatch, fresh_tables, capsys):
    monkeypatch.setattr(ut, "superclass_size", lambda c, kind: 1)
    assert main(["chartable", "--kind", "A", "--n", "3", "--p", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "arcact: A(3,2) class sizes add up to 5, not 8\n"


@pytest.mark.parametrize("kind, n, p", [("A", 4, 3), ("B", 2, 5), ("D", 3, 3)])
def test_linear_generators_are_the_one_slot_members(kind, n, p):
    generators = ut.linear_generators(kind, n, p)
    slots = n if kind == "B" else n - 1
    assert len(generators) == slots * (p - 1)
    assert len({min(abs(i), abs(j)) for alpha in generators for i, j in alpha.arcs()}) == slots


def _pair_loop_chi(lam, gamma):
    """The supercharacter value by the pair loop over the arcs of lam and
    gamma that the row pass replaced: the reference the row pass must equal."""
    p = lam.group.moduli[0]
    q_exponent = 0
    theta_arg = 0
    for i, l, value in lam.labels:
        q_exponent += l - i - 1
        for j, k, entry in gamma.labels:
            if j == i:
                if k == l:
                    theta_arg += value[0] * entry[0]
                elif k < l:
                    return theta(p, 0, 0)
            elif k == l:
                if j > i:
                    return theta(p, 0, 0)
            elif i < j and k < l:
                q_exponent -= 1
    assert q_exponent >= 0
    return theta(p, theta_arg, p**q_exponent)


@pytest.mark.parametrize(
    "kind, n, p",
    [("A", 4, 3), ("A", 3, 5), ("A", 4, 5), ("B", 2, 3), ("B", 3, 3), ("D", 3, 3), ("D", 4, 3)],
)
def test_row_pass_equals_the_pair_loop(kind, n, p):
    table = ut.build_chartable.__wrapped__(kind, n, p)
    # classes are sorted by labels, not by shape, so some shape's classes
    # are not contiguous and the codes must be put back in class order
    assert any(
        shape.members != tuple(range(shape.members[0], shape.members[0] + len(shape.members)))
        for shape in table.shapes.shapes
    )
    ambient = table.indices if kind == "A" else [halve(lam) for lam in table.indices]
    for lam, values in zip(ambient, table.values):
        decoded = [ut.decode(p, code) for code in values]
        assert decoded == [_pair_loop_chi(lam, c) for c in table.classes]
        assert ut.chi_row(lam, table.classes) == values
    assert any(ut.ZERO in values for values in table.values)


def test_linear_indices_have_modulus_one_values():
    table = ut.build_chartable("B", 2, 3)
    for lam, values, degree in zip(table.indices, table.values, table.degrees()):
        linear_index = all(j == i + 1 for i, j in lam.arcs())
        assert (degree == 1) == linear_index
        if linear_index:
            for code in values:
                v = ut.decode(3, code)
                assert (v * v.conjugate()).rational_value() == 1


def test_chi_b_distinct_value_vectors_n1():
    table = ut.build_chartable("B", 1, 3)
    assert len(set(table.values)) == 3 == len(table.indices)


def test_restriction_equivalence_predicate():
    assert identities.run("restriction-B", sizes=((1, 3), (2, 3))).ok


def test_reflection_class_closure():
    lam = next(
        p
        for p in enumerate_family(FamilySpec("P_B", 2, (F3,)))
        if len(p.arcs()) == 2
    )
    cls = ut.reflection_class(halve(lam))
    assert halve(lam) in cls
    for q in cls:
        assert cls == ut.reflection_class(q)


@pytest.mark.parametrize(
    "arcs, moves",
    [
        ({(1, 2): (1,)}, [{(3, 4): (2,)}]),
        ({(1, 3): (1,)}, [{(2, 4): (2,)}]),
        ({(1, 4): (1,)}, []),  # its own reflection
        ({(2, 3): (2,)}, []),  # its own reflection
        ({(1, 2): (1,), (3, 4): (1,)}, []),  # each reflection lands on the other arc
        ({(1, 3): (1,), (2, 4): (2,)}, []),
        ({(1, 2): (1,), (2, 4): (1,)}, []),  # (3, 4) would enter 4, (1, 3) leave 1 twice
        ({(1, 2): (2,), (2, 3): (1,)}, [{(2, 3): (1,), (3, 4): (1,)}]),
    ],
)
def test_reflection_moves_take_only_free_reflected_arcs(arcs, moves):
    ground = ground_a(4)
    lam = LabeledSetPartition(ground, F3, blocks_from_arcs(ground, arcs), arcs)
    assert [q.label_map() for q in ut.reflection_moves(lam)] == moves


# sha256 of `arcact chartable --format json` (stdout, trailing newline included),
# recorded before the raw-key and fused-kernel rewrite of the table builder.
PINNED_CHARTABLES = {
    ("A", 3, 2): "caa0bd222d0c5f4ffa45a6e91252feb63fd4d9919ba4af947e2dc97a47887d28",
    ("A", 4, 3): "b0abac18cb6182f4d2bba560f03f5d7079d048b957c5f2cb8982b2ba4a2696aa",
    ("B", 1, 3): "b7a68a454b5fca192c16b402502019daaa2c31809a6705508ab8e6d1e9817196",
    ("B", 2, 3): "715b82782626f6d19b1cc247c5aa918cbe6f7eff872e17094c9480f2b748deab",
    ("D", 2, 3): "e6ef9894f11d4091d7128844afd83f4af4a10285524f21e6cda1f3f0ec37035f",
    ("D", 3, 3): "249478fe0794ff34e37ce4c8c34d8f78c55acc49d3d71816d62f471f5f1356d8",
    # the next three were recorded while the type A sizes still came from
    # enumerating the group
    ("A", 4, 5): "30f5e4d39d522ef7e291ad47e90419059f932c8294ea4411e390df6534547bb0",
    ("B", 2, 5): "318281e057a09d9acfa071e5831b9fd4e79c4444c30bb06ac0862cbf38b7e9b1",
    ("A", 5, 3): "e0717dc6c0bea555cdd2f5615451e5eb8249316d7aa40443edfe7c9ee7e9e553",
}


def test_chartable_outputs_are_pinned(capsys):
    for (kind, n, p), digest in PINNED_CHARTABLES.items():
        code = main(["chartable", "--kind", kind, "--n", str(n), "--p", str(p),
                     "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (kind, n, p)
