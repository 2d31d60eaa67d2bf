"""Exact-arithmetic toolkit for labeled set partitions of types A, B and D,
the additive action of linear partitions on them, and the supercharacters of
unitriangular groups over small prime fields."""

from .core import (
    ClassifyFlags,
    GroundSet,
    InvalidArcSetError,
    LabeledSetPartition,
    StructuralError,
    UnsupportedGroundError,
    arcs_of,
    blocks_from_arcs,
    classify,
    from_rook,
    from_triples,
    ground_a,
    ground_b,
    ground_d,
    negate,
    partition_from_json,
    render_ascii,
    to_rook,
    unlabeled,
)
from .groups import DirectSum, Element, GroupError, GroupSpec, add, neg, parse_group
from .families import FamilySpec, count_by, enumerate_family
from .action import (
    orbit,
    orbit_decomposition,
    orbit_representative,
    plus,
    plus_involution,
    plus_via_matrix,
)
from .maps import (
    dyck_from_nonnesting,
    enumerate_dyck,
    halve,
    matching_to_dyck,
    nn_from_dyck,
    shift,
    uncross,
    uncross_b,
    unshift,
)
from .poly import BiPoly, family, sequence, transfer_family
from .cyclotomic import CycValue, theta
from .unitriangular import (
    build_chartable,
    chi_on_class,
    chi_row,
    decode,
    inner_product,
    superclass_reduce,
)
from .identities import run, run_all

__version__ = "0.1.0"
