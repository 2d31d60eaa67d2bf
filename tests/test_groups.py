import itertools

import pytest

from arcact.core import LabeledSetPartition, ground_a
from arcact.groups import (
    DirectSum,
    GroupError,
    GroupSpec,
    add,
    add_unchecked,
    neg,
    neg_unchecked,
    parse_group,
)


def test_add_examples():
    assert add(GroupSpec((3,)), (1,), (2,)) == (0,)
    assert add(GroupSpec((2, 2)), (1, 0), (0, 1)) == (1, 1)
    assert add(GroupSpec((5,)), (2,), (2,)) == (4,)


def test_neg_examples():
    assert neg(GroupSpec((3,)), (1,)) == (2,)
    assert neg(GroupSpec((2,)), (1,)) == (1,)
    assert neg(GroupSpec(()), ()) == ()


def test_nonzero_elements():
    assert GroupSpec((2,)).nonzero_elements() == ((1,),)
    assert GroupSpec((3,)).nonzero_elements() == ((1,), (2,))
    assert GroupSpec((2, 2)).nonzero_elements() == ((0, 1), (1, 0), (1, 1))


def test_shape_mismatch():
    with pytest.raises(GroupError):
        add(GroupSpec((3,)), (1, 0), (2,))
    with pytest.raises(GroupError):
        neg(GroupSpec((2, 2)), (1,))
    with pytest.raises(GroupError):
        GroupSpec((1,))


def test_bool_residues_are_refused():
    z2, z3 = GroupSpec((2,)), GroupSpec((3,))
    with pytest.raises(GroupError):
        LabeledSetPartition(ground_a(2), z2, [(1, 2)], {(1, 2): (True,)})
    with pytest.raises(GroupError):
        add(z3, (True,), (False,))
    with pytest.raises(GroupError):
        add(z3, (1,), (False,))
    with pytest.raises(GroupError):
        neg(z3, (True,))
    assert not z2.conforms((True,)) and z2.conforms((1,))


def test_direct_sum():
    ds = DirectSum(GroupSpec((2,)), GroupSpec((3,)))
    assert ds.spec.moduli == (2, 3)
    assert ds.embed_a((1,)) == (1, 0)
    assert DirectSum(GroupSpec(()), GroupSpec((3,))).spec == GroupSpec((3,))
    assert DirectSum(GroupSpec((3,)), GroupSpec((3,))).embed_b((2,)) == (0, 2)


@pytest.mark.parametrize(
    "moduli", [(2,), (3,), (5,), (2, 2), (2, 3), (4, 2), (2, 2, 2), (16,)]
)
def test_group_laws_exhaustive(moduli):
    spec = GroupSpec(moduli)
    assert spec.order <= 16
    elements = list(spec.elements())
    zero = spec.zero
    for a, b in itertools.product(elements, repeat=2):
        assert add(spec, a, b) == add(spec, b, a)
        assert add(spec, a, neg(spec, a)) == zero
        assert add(spec, a, zero) == a
    for a, b, c in itertools.product(elements, repeat=3):
        assert add(spec, add(spec, a, b), c) == add(spec, a, add(spec, b, c))


def test_embeddings_are_injective_homomorphisms():
    ds = DirectSum(GroupSpec((2, 2)), GroupSpec((3,)))
    seen = set()
    for x in ds.a.elements():
        seen.add(ds.embed_a(x))
    assert len(seen) == ds.a.order
    for x in ds.a.elements():
        for y in ds.a.elements():
            assert ds.embed_a(add(ds.a, x, y)) == add(
                ds.spec, ds.embed_a(x), ds.embed_a(y)
            )
    image_a = {ds.embed_a(x) for x in ds.a.elements()}
    image_b = {ds.embed_b(y) for y in ds.b.elements()}
    assert image_a & image_b == {ds.spec.zero}


def test_parse_group():
    assert parse_group("Z2").moduli == (2,)
    assert parse_group("Z2xZ2").moduli == (2, 2)
    assert parse_group("Z2+Z3").moduli == (2, 3)
    assert parse_group("Z12").moduli == (12,)
    for bad in ("", "Z", "Z2x", "Z2**Z3", "Q8", "Z1"):
        with pytest.raises(GroupError):
            parse_group(bad)


def test_parse_error_reports_position():
    with pytest.raises(GroupError, match="position 3"):
        parse_group("Z2xq3")


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec(()),  # its only element, (), is falsy: a memo hit all the same
        GroupSpec((2,)),
        GroupSpec((3,)),
        GroupSpec((4,)),
        GroupSpec((2, 2)),
        DirectSum(GroupSpec((3,)), GroupSpec((5,))).spec,  # interned, shared
    ],
    ids=str,
)
def test_memoized_arithmetic_is_the_residue_arithmetic(spec):
    # every sum and negative, read with the memo empty and then filled, is
    # the residue formula's; the memo holds at most order^2 sums and order
    # negatives and changes neither equality, hashing, repr nor str
    for memo in ("_sums", "_negatives"):
        spec.__dict__.pop(memo, None)  # empty, even if another test filled it
    twin = GroupSpec(spec.moduli)
    value = (hash(spec), repr(spec), str(spec))
    elements = list(spec.elements())
    order = spec.order
    for _ in range(2):
        for a, b in itertools.product(elements, repeat=2):
            total = tuple((x + y) % m for x, y, m in zip(a, b, spec.moduli))
            assert add_unchecked(spec, a, b) == add(spec, a, b) == total
        for a in elements:
            negative = tuple((-x) % m for x, m in zip(a, spec.moduli))
            assert neg_unchecked(spec, a) == neg(spec, a) == negative
        assert len(spec._sums) == order**2 and len(spec._negatives) == order
        assert len(spec._sums) + len(spec._negatives) <= order**2 + order
    assert spec.zero == (0,) * len(spec.moduli) and spec.zero is spec.zero
    assert spec == twin and (hash(spec), repr(spec), str(spec)) == value == (
        hash(twin), repr(twin), str(twin)
    )
    assert "_sums" not in twin.__dict__ and "_negatives" not in twin.__dict__
