import hashlib
import random
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcact.cli import main
from arcact.core import GroundSet, LabeledSetPartition, ground_a
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
    z = CycValue.zeta_power(5, 1)
    total = CycValue.from_int(5, 1)
    for k in range(1, 5):
        total = total + CycValue.zeta_power(5, k)
    assert total.rational_value() == 0
    assert (z * z.conjugate()).rational_value() == 1
    assert z.conjugate() == CycValue.zeta_power(5, 4)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.rational_value()


def test_matrix_helpers():
    g = ((1, 1, 0), (0, 1, 2), (0, 0, 1))
    inv = ut.unitriangular_inverse(g, 3)
    assert ut.mat_mul(g, inv, 3) == ut.identity_matrix(3)
    assert ut.dagger(ut.dagger(g)) == g


def test_subgroup_membership_and_orders():
    for n, p in ((1, 3), (2, 3)):
        elements = list(ut.type_b_elements(n, p))
        assert len(elements) == ut.subgroup_order("B", n, p) == p ** (n * n)
        assert len(set(elements)) == len(elements)
        for g in elements:
            assert ut.is_unitriangular(g, p)
            assert ut.is_dagger_unitary(g, p)
    for n, p in ((1, 3), (2, 3), (3, 3)):
        elements = list(ut.type_d_elements(n, p))
        assert len(elements) == ut.subgroup_order("D", n, p) == p ** (n * (n - 1))
        for g in elements:
            assert ut.is_dagger_unitary(g, p)
    # the smallest D group is trivial
    assert list(ut.type_d_elements(1, 3)) == [ut.identity_matrix(2)]
    # and so is the rank-zero B group, the 1 x 1 identity
    assert list(ut.type_b_elements(0, 3)) == [((1,),)]


def test_subgroups_are_closed_under_product():
    elements = list(ut.type_b_elements(1, 3))
    pool = set(elements)
    for a in elements:
        for b in elements:
            assert ut.mat_mul(a, b, 3) in pool


def test_scale_guard(monkeypatch):
    """B(3,5) and D(4,5) are refused before any element is visited."""
    def refuse(*args):
        raise AssertionError("an oversized table touched its family or group")

    monkeypatch.setattr(ut, "group_elements", refuse)
    monkeypatch.setattr(ut, "enumerate_family", refuse)
    for kind, n in (("B", 3), ("D", 4)):
        with pytest.raises(ut.ScaleGuardError, match="group elements"):
            ut.build_chartable.__wrapped__(kind, n, 5)


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
    seen = {ut.superclass_reduce(g, 2) for g in ut.unitriangular_elements(3, 2)}
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
    assert ut.chi_on_class(lam, other) is zero
    # equal but distinct ground and group objects pass the same-group test
    copy = LabeledSetPartition(GroundSet("A", 3), GroupSpec((3,)), [(1, 2), (3,)], {(1, 2): (1,)})
    assert copy.ground is not lam.ground and copy.group is not lam.group
    assert ut.chi_on_class(lam, copy) is zero
    for bad in (
        LabeledSetPartition(ground_a(3), GroupSpec((5,)), [(1, 2), (3,)], {(1, 2): (1,)}),
        LabeledSetPartition(ground_a(4), F3, [(1, 2), (3,), (4,)], {(1, 2): (1,)}),
    ):
        with pytest.raises(ValueError):
            ut.chi_on_class(lam, bad)


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
    assert ut.inner_product(trivial, trivial, table.class_sizes, table.group_order) == 1

    lam13 = next(lam for lam in table.indices if lam.arcs() == frozenset({(1, 3)}))
    row = dict(zip(table.indices, table.values))
    assert (
        ut.inner_product(row[lam13], row[lam13], table.class_sizes, table.group_order)
        == 1
    )

    table4 = ut.build_chartable("A", 4, 2)
    crossing = next(
        lam for lam in table4.indices if lam.arcs() == frozenset({(1, 3), (2, 4)})
    )
    row4 = dict(zip(table4.indices, table4.values))
    norm = ut.inner_product(
        row4[crossing], row4[crossing], table4.class_sizes, table4.group_order
    )
    assert norm > 1 and norm.denominator == 1


def _ring_sum(values1, values2, sizes):
    """sum(size * v * conj(w)), spelled with CycValue arithmetic term by term."""
    total = CycValue.from_int(values1[0].p, 0)
    for v, w, size in zip(values1, values2, sizes):
        total = total + size * (v * w.conjugate())
    return total


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fused_inner_product_matches_ring_ops(p):
    """Irrational sums raise ConsistencyError; rational ones equal the
    ring-op spelling exactly."""
    rng = random.Random(p)
    one = CycValue.from_int(p, 1)

    def value():
        return CycValue(p, tuple(rng.randrange(-4, 5) for _ in range(p - 1)))

    for _ in range(40):
        length = rng.randrange(1, 8)
        v = [value() for _ in range(length)]
        w = [value() for _ in range(length)]
        sizes = [rng.randrange(1, 50) for _ in range(length)]
        order = rng.randrange(1, 100)
        total = _ring_sum(v, w, sizes)
        if not total.is_rational():
            with pytest.raises(ut.ConsistencyError):
                ut.inner_product(v, w, sizes, order)
            # one more class of size 1, against the trivial value, cancels
            # the irrational part
            v.append(CycValue(p, (0,) + tuple(-c for c in total.coeffs[1:])))
            w.append(one)
            sizes.append(1)
        expected = Fraction(_ring_sum(v, w, sizes).rational_value(), order)
        assert ut.inner_product(v, w, sizes, order) == expected


@pytest.mark.parametrize("kind, n, p", [("A", 4, 3), ("A", 4, 5), ("B", 2, 3), ("D", 3, 3)])
def test_raw_key_class_sizes_match_reduced_partitions(kind, n, p):
    table = ut.build_chartable(kind, n, p)
    reduced = Counter(ut.superclass_reduce(g, p) for g in ut.group_elements(kind, n, p))
    assert dict(zip(table.classes, table.class_sizes)) == reduced
    assert list(table.classes) == sorted(reduced, key=lambda q: q.labels)
    assert sum(table.class_sizes) == table.group_order


def test_type_a_table_visits_no_group_element(monkeypatch):
    def refuse(*args):
        raise AssertionError("type A table touched a group element")

    monkeypatch.setattr(ut, "group_elements", refuse)
    monkeypatch.setattr(ut, "superclass_key", refuse)
    table = ut.build_chartable.__wrapped__("A", 4, 3)
    assert table.classes == tuple(sorted(table.indices, key=lambda lam: lam.labels))
    assert sum(table.class_sizes) == table.group_order == 3**6
    # still refused above the bound, before the family is enumerated
    monkeypatch.setattr(ut, "enumerate_family", refuse)
    with pytest.raises(ut.ScaleGuardError):
        ut.build_chartable.__wrapped__("A", 7, 3)


def test_class_sizes_that_miss_the_group_order_are_an_error(monkeypatch):
    monkeypatch.setattr(ut, "superclass_size", lambda lam: 1)
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


def test_counts_type_a():
    rec = ut.verify_counts("A", 3, 2)
    assert rec["num_superclasses"] == rec["expected"]["distinct"] == 5
    assert rec["num_distinct"] == 5
    assert rec["num_irreducible"] == 5 and rec["irreducible_iff_noncrossing"]
    rec = ut.verify_counts("A", 4, 2)
    assert rec["num_distinct"] == 15 and rec["num_irreducible"] == 14
    assert rec["num_linear"] == rec["expected"]["linear"] == 8
    assert rec["num_l_invariant"] == rec["expected"]["l_invariant"]


def test_counts_type_b_small():
    rec = ut.verify_counts("B", 1, 3)
    assert rec["group_order"] == 3
    assert rec["num_distinct"] == rec["expected"]["distinct"] == 3
    assert rec["num_irreducible"] == rec["expected"]["irreducible"] == 3
    assert rec["irreducible_iff_noncrossing"]
    assert rec["num_l_invariant"] == rec["expected"]["l_invariant"] == 0


def test_counts_type_d_small():
    rec = ut.verify_counts("D", 2, 3)
    assert rec["group_order"] == 9
    assert rec["num_distinct"] == rec["expected"]["distinct"] == 5
    assert rec["num_irreducible"] == rec["expected"]["irreducible"] == 3
    assert rec["irreducible_iff_noncrossing"]


def test_product_rule_small():
    assert ut.verify_product_rule("A", 3, 2)
    assert ut.verify_product_rule("D", 2, 3)


def test_linear_indices_have_modulus_one_values():
    table = ut.build_chartable("B", 2, 3)
    for lam, values, degree in zip(table.indices, table.values, table.degrees()):
        linear_index = all(j == i + 1 for i, j in lam.arcs())
        assert (degree == 1) == linear_index
        if linear_index:
            for v in values:
                assert (v * v.conjugate()).rational_value() == 1


def test_chi_b_distinct_value_vectors_n1():
    table = ut.build_chartable("B", 1, 3)
    assert len(set(table.values)) == 3 == len(table.indices)


def test_restriction_equivalence_predicate():
    assert ut.restriction_mismatch(1, 3) is None
    assert ut.restriction_mismatch(2, 3) is None


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
