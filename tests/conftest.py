import pytest

from arcact.core import to_rook
from arcact.families import ALL_FAMILIES, UNLABELED_FAMILIES, FamilySpec
from arcact.groups import GroupSpec

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))


def desk_specs(family):
    """The desk-scale instances of one family code: n <= 3 over Z2 and Z3,
    (Z2, Z3) for the two-group families, no group for the unlabeled ones."""
    if family in UNLABELED_FAMILIES:
        group_choices = [()]
    elif family.endswith("_AB"):
        group_choices = [(Z2, Z3)]
    else:
        group_choices = [(Z2,), (Z3,)]
    return [FamilySpec(family, n, groups) for n in range(4) for groups in group_choices]


@pytest.fixture(scope="session")
def all_desk_specs():
    return [spec for family in sorted(ALL_FAMILIES) for spec in desk_specs(family)]


def _dense_rook_reading(p):
    entries = to_rook(p).label_map()
    zero = p.group.zero
    m = p.ground.size
    return tuple(
        x
        for r in range(1, m + 1)
        for c in range(r + 1, m + 1)
        for x in entries.get((r, c), zero)
    )


@pytest.fixture(scope="session")
def dense_rook_reading():
    """The enumeration order spelled out independently of ``rook_sort_key``:
    the zero-filled row-major reading of the rook matrix."""
    return _dense_rook_reading
