"""Registry and runner of the acceptance checks.

The registry is the single list of the paper's identities, counts and
structural claims: ``arcact verify --all`` runs every check, and
``tests/test_acceptance.py`` runs each one at its desk range.  Checks come in
three modes:

* symbolic    - both sides expanded as exact polynomials in x, y (or their
                values) and compared term by term; the family side always
                comes from a transfer recursion, an enumeration or a quoted or
                vendored reference sequence, never from the formula under test;
* enumerative - the identity instantiated with concrete label groups (or
                prime fields), every cardinality obtained by exhaustive
                generation;
* structural  - bijectivity, orbit, rank and route-agreement statements checked
                by exhaustive image comparison, or by one step of every
                generator from every element.

The paper's bivariate identities are polynomials in x and y that count
labeled partitions at x = |A|-1, y = |B|-1.  Each is defined once, as a
function of an evaluation context that supplies x, y, the family terms and
the witness tag, and that one definition is registered in two modes: as
``<id>`` it is evaluated in the symbolic context (x, y the polynomials X, Y;
family terms from transfer recursions and closed formulas), as ``<id>-enum``
in one enumerative context per group pair (x, y integers; family terms
exhaustive counts).  The two routes share no family term, so neither side
of a check is ever compared with itself.

All arithmetic is exact.  A check yields its witnesses; ``run`` reads the
first and stops, so a passing check runs to its end and a failing one ends
at its first witness.  A ``StructuralError`` that escapes a check is that
check's witness, naming the check and the error.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import comb
from operator import add
from types import SimpleNamespace

from . import action, maps, oeis, poly, unitriangular
from .core import (
    LabeledSetPartition,
    StructuralError,
    classify,
    crossings,
    from_rook,
    from_triples,
    ground_a,
    ground_b,
    ground_d,
    negate,
    rook_noncrossing,
    to_rook,
    unlabeled_shape,
)
from .families import (
    FamilySpec,
    count_by,
    family_ground,
    family_members,
    family_shapes,
    family_size,
    symmetric_partitions,
)
from .groups import DirectSum, GroupSpec
from .poly import COUNTING_POLY, FAMILY_CODES, BiPoly, X, Y, catalan, transfer_family

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z2xZ2 = GroupSpec((2, 2))

GROUP_PAIRS = ((Z2, Z2), (Z2, Z3), (Z3, Z2), (Z2xZ2, Z2))


@dataclass(frozen=True)
class CheckResult:
    id: str
    mode: str
    params: str
    status: str
    millis: int
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class Check:
    id: str
    mode: str
    statement: str
    fn: object
    desk: dict
    quick: dict


_REGISTRY: dict[str, Check] = {}


def _register(id, mode, statement, desk, quick=None):
    def wrap(fn):
        _REGISTRY[id] = Check(id, mode, statement, fn, desk, quick or desk)
        return fn

    return wrap


def registry_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


PROFILES = ("desk", "quick")


def run(id: str, profile: str = "desk", **overrides) -> CheckResult:
    if id not in _REGISTRY:
        raise ValueError(f"unknown check id {id!r}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    check = _REGISTRY[id]
    params = dict(check.desk if profile == "desk" else check.quick)
    params.update(overrides)
    start = time.perf_counter()
    try:
        witness = next(check.fn(**params), None)
    except StructuralError as exc:  # a map refused an argument mid-check
        witness = f"{id}: {type(exc).__name__}: {exc}"
    millis = int((time.perf_counter() - start) * 1000)
    text = "; ".join(str(p) for p in sorted(params.items()))
    status = "pass" if witness is None else "fail"
    return CheckResult(id, check.mode, text, status, millis, witness)


@dataclass(frozen=True)
class Report:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "results": [
                {
                    "id": r.id,
                    "mode": r.mode,
                    "range": r.params,
                    "status": r.status,
                    "millis": r.millis,
                    **({"witness": r.witness} if r.witness else {}),
                }
                for r in self.results
            ],
        }


def run_all(profile: str = "desk", ids=None) -> Report:
    # a repeated id runs and reports once
    ids = registry_ids() if ids is None else tuple(dict.fromkeys(ids))
    results = [run(i, profile) for i in ids]
    return Report(tuple(sorted(results, key=lambda r: r.id)))


# ---------------------------------------------------------------------------
# helpers


def _eq(tag, *values):
    """Yield a mismatch if some value differs from the first."""
    first = values[0]
    for other in values[1:]:
        if other != first:
            yield f"{tag}: {first} != {other}"
            return


def _bijection(tag, f, domain, codomain, inverse=None):
    """Yield a witness wherever f fails to map the domain one-to-one onto the
    codomain (a codomain of None claims one-to-one alone) or the inverse fails
    to take an image back; return the map image -> member, in domain order.
    A witness names a member that f refuses (``StructuralError``), the first
    two members that share an image, an image that the inverse refuses or
    sends elsewhere, or the least missing and least extra image.  Set
    equality is f the identity."""
    # an image is kept as the codomain member it equals: no second copy is held
    members = {} if codomain is None else {q: q for q in codomain}
    found = {}
    for p in domain:
        try:
            q = f(p)
        except StructuralError as exc:
            yield f"{tag}: no image of {p.text()}: {exc}"
            continue
        first = found.setdefault(members.get(q, q), p)
        if first is not p:
            yield f"{tag}: {first.text()} and {p.text()} both map to {q.text()}"
        elif inverse is not None:
            try:
                back = inverse(q)
            except StructuralError as exc:
                yield f"{tag}: the inverse refuses {q.text()}, the image of {p.text()}: {exc}"
                continue
            if back != p:
                yield f"{tag}: the inverse takes {q.text()} to {back.text()}, not {p.text()}"
    if codomain is not None and found.keys() != members.keys():
        missing = sorted(q.text() for q in members.keys() - found.keys())[:1]
        extra = sorted(q.text() for q in found.keys() - members.keys())[:1]
        yield f"{tag}: image mismatch missing={missing} extra={extra}"
    return found


def _cnt(family, n, groups, flag=None) -> int:
    """Members of the family, or only those whose classification has flag."""
    spec = FamilySpec(family, n, groups)
    if flag is None:
        return family_size(spec)
    return sum(1 for p in family_members(spec) if getattr(classify(p), flag))


def _embed_a(p, ds: DirectSum):
    """Relabel an A-group partition inside the direct sum."""
    labels = tuple((i, j, ds.embed_a(v)) for i, j, v in p.labels)  # embed_a checks v
    return LabeledSetPartition._trusted(p.ground, ds.spec, p.blocks, labels)


# A check registered by _per_n or _identity is a function returning the sides
# it asserts equal at one n, read through a context c with c.x, c.y,
# c.biv(name, n), c.uni(name, n) and c.tag(n); _evaluate yields a mismatch at
# each n where they differ.
#
# In the symbolic context x, y are the polynomials X, Y; bivariate terms come
# from the transfer recursion (called by name, so a rebinding of
# transfer_family is seen) and univariate terms from the y = x diagonal of the
# closed formulas in poly.CLOSED.
_SYMBOLIC = SimpleNamespace(
    x=X,
    y=Y,
    biv=lambda name, n: transfer_family(name, n),
    uni=lambda name, n: poly.CLOSED[name](n).subst_y_diag(),
    tag=lambda n: f"n={n}",
)


def _evaluate(sides, contexts, n_min, n_max):
    for c in contexts:
        for n in range(n_min, n_max + 1):
            yield from _eq(c.tag(n), *sides(c, n))


def _per_n(id, statement, desk=None, quick=None, mode="symbolic"):
    """Register sides(c, n) as the check ``id``, evaluated in the symbolic
    context at every n from n_min (default 0) to n_max (default 10)."""

    def wrap(sides):
        def check(n_max, n_min=0):
            return _evaluate(sides, (_SYMBOLIC,), n_min, n_max)

        _register(id, mode, statement, desk or {"n_max": 10}, quick)(check)
        return sides

    return wrap


# ---------------------------------------------------------------------------
# symbolic checks


@_per_n(
    "coker",
    "sum(k) binom(n+1,k) binom(n+1,k+1)/(n+1) x^k"
    " == sum(k) C_k binom(n,2k) x^k (1+x)^(n-2k)",
)
def _coker(c, n):
    lhs = BiPoly.zero()
    for k in range(n + 1):
        num = comb(n + 1, k) * comb(n + 1, k + 1)
        assert num % (n + 1) == 0
        lhs = lhs + BiPoly.term(num // (n + 1), k)
    terms = (
        catalan(k) * comb(n, 2 * k) * BiPoly.term(1, k) * (X + 1) ** (n - 2 * k)
        for k in range(n // 2 + 1)
    )
    return lhs, sum(terms, BiPoly.zero())


@_per_n(
    "riordan",
    "sum(k) binom(n,k)^2 x^k == sum(k) binom(2k,k) binom(n,2k) x^k (x+1)^(n-2k)",
)
def _riordan(c, n):
    lhs = poly.catb_closed(n)
    terms = (
        comb(2 * k, k) * comb(n, 2 * k) * BiPoly.term(1, k) * (X + 1) ** (n - 2 * k)
        for k in range(n // 2 + 1)
    )
    return lhs, sum(terms, BiPoly.zero())


@_per_n("motzkin-closed", "M[n](x) == sum C_k binom(n,2k) x^k")
def _motzkin_closed(c, n):
    return transfer_family("M", n), poly.motzkin_closed(n)


@_per_n("bell-binom-transform", "Bell[n](x) == sum binom(n,k) F[k](x)")
def _bell_binom_transform(c, n):
    lhs = transfer_family("Bell", n).subst_y_diag()
    rhs = sum(
        (comb(n, k) * poly.feasible_closed(k) for k in range(n + 1)),
        BiPoly.zero(),
    )
    return lhs, rhs


@_per_n("touchard", "C_(n+1) == sum C_k binom(n,2k) 2^(n-2k)")
def _touchard(c, n):
    rhs = sum(
        catalan(k) * comb(n, 2 * k) * 2 ** (n - 2 * k) for k in range(n // 2 + 1)
    )
    return catalan(n + 1), rhs


@_per_n("bellD-eq", "Bell_D[n](x) == Bell[n](2x)")
def _belld_eq(c, n):
    lhs = transfer_family("Bell_D", n).subst_y_diag()
    return lhs, poly.bell_univariate(n).scale_x(2)


def _spivey(id, statement, lhs, base, triangle, bell):
    """Register a Spivey-type identity: at every m <= m_max, n <= n_max,
    lhs(m+n) == sum(j,k) x^(m+n-j-k) base(j)^(n-k) binom(n,k) triangle(m,j) bell(k)."""

    def check(m_max, n_max):
        for m in range(m_max + 1):
            for n in range(n_max + 1):
                rhs = BiPoly.zero()
                for j in range(m + 1):
                    for k in range(n + 1):
                        c = base(j) ** (n - k) * comb(n, k) * triangle(m, j)
                        rhs = rhs + c * BiPoly.term(1, m + n - j - k) * bell(k)
                yield from _eq(f"m={m},n={n}", lhs(m + n), rhs)

    _register(id, "symbolic", statement, {"m_max": 4, "n_max": 4})(check)


# the poly functions are looked up when called, so a rebinding is seen
_SPIVEY = (
    ("spivey-1",
     "Bell[m+n](x) == sum(j,k) x^(m+n-j-k) j^(n-k) binom(n,k) S(m,j) Bell[k](x)",
     lambda n: poly.bell_univariate(n), lambda j: j,
     lambda m, j: poly.stirling2(m, j), lambda k: poly.bell_univariate(k)),
    ("spivey-2",
     "Bell_B[m+n](x) == sum(j,k) x^(m+n-j-k) (2j+1)^(n-k) binom(n,k) W(m,j) Bell[k](2x)",
     lambda n: poly.bellb_univariate(n), lambda j: 2 * j + 1,
     lambda m, j: poly.whitney2_B(m, j), lambda k: poly.bell_univariate(k).scale_x(2)),
)
for _row in _SPIVEY:
    _spivey(*_row)


@_per_n("catB-closed", "Cat_B[n](x) == sum binom(n,k)^2 x^k")
def _catb_closed(c, n):
    return transfer_family("Cat_B", n).subst_y_diag(), poly.catb_closed(n)


@_per_n("catD-closed", "Cat_D[n+1](x) == sum binom(n,k) binom(n+1,k) x^k")
def _catd_closed(c, n):
    return transfer_family("Cat_D", n + 1).subst_y_diag(), poly.catd_closed(n + 1)


@_register(
    "motzkinB-closed",
    "symbolic",
    "M_B[n](x) == sum binom(2k,k) binom(n,2k) x^k, and M_B[n](x) == M_D[n](x)"
    " enumerated at n <= 4",
    {"n_max": 10},
)
def _motzkinb_closed(n_max):
    for n in range(n_max + 1):
        yield from _eq(f"n={n}", transfer_family("M_B", n), poly.motzkinb_closed(n))
        if n <= 4:
            yield from _eq(f"n={n} (enumerated B vs D)",
                           poly.enumerated_family("M_B", n), poly.enumerated_family("M_D", n))


@_per_n("mob-rec", "M_B[n+2](x) == M_B[n+1](x) + 2(n+1) x M[n](x)")
def _mob_rec(c, n):
    lhs = transfer_family("M_B", n + 2)
    rhs = transfer_family("M_B", n + 1) + 2 * (n + 1) * X * transfer_family("M", n)
    return lhs, rhs


@_per_n(
    "tilde-1",
    "F~_B[n](x) == F_B[n](x) + F[n](2x) == sum binom(n,k) F[k](2x) x^(n-k)",
)
def _tilde_1(c, n):
    lhs = transfer_family("F_B_tilde", n)
    mid = transfer_family("F_B", n) + poly.feasible_closed(n).scale_x(2)
    return lhs, mid, poly.feasibleb_tilde_closed(n)


@_per_n(
    "tilde-2",
    "M~_B[n](x) == M_B[n](x) + n x M[n-1](x) == sum binom(n,k) binom(n+1-k,k) x^k",
)
def _tilde_2(c, n):
    lhs = transfer_family("M_B_tilde", n)
    mid = transfer_family("M_B", n)
    if n >= 1:
        mid = mid + n * X * transfer_family("M", n - 1)
    return lhs, mid, poly.motzkinb_tilde_closed(n)


# ---------------------------------------------------------------------------
# paired identities
#
# Each identity below is evaluated as ``<id>`` in the symbolic context and as
# ``<id>-enum`` in one enumerative context per group pair.

ENUM_A_NMAX = 5
ENUM_BD_NMAX = 3


def _counting(ga: GroupSpec, gb: GroupSpec) -> SimpleNamespace:
    """x = |A|-1, y = |B|-1, and every family term an exhaustive count: the
    two-group family for a bivariate term, the single-group family filtered
    by its classification flag for a univariate one."""

    def uni(name, n):
        code, flag = FAMILY_CODES[name]
        return _cnt(code, n, (ga,), flag)

    return SimpleNamespace(
        x=ga.order - 1,
        y=gb.order - 1,
        biv=lambda name, n: _cnt(FAMILY_CODES[name][0] + "_AB", n, (ga, gb)),
        uni=uni,
        tag=lambda n: f"n={n},A={ga},B={gb}",
    )


def _identity(id, statement, enum_n_max, n_min=0, quick_n_max=6):
    """Register sides(c, n) as the checks ``id`` and ``id-enum``."""

    def wrap(sides):
        def enumerative(n_max, pairs):
            return _evaluate(sides, [_counting(ga, gb) for ga, gb in pairs], n_min, n_max)

        start = {"n_min": n_min} if n_min else {}
        desk, quick = {**start, "n_max": 10}, {**start, "n_max": quick_n_max}
        _per_n(id, statement, desk, quick)(sides)
        _register(
            f"{id}-enum", "enumerative",
            f"{statement}, counted at x = |A|-1, y = |B|-1",
            {"n_max": enum_n_max, "pairs": GROUP_PAIRS},
            {"n_max": 2, "pairs": GROUP_PAIRS[:2]},
        )(enumerative)
        return sides

    return wrap


def _binomial(c, name, n, y):
    """sum binom(n,k) name[k](x) y^(n-k)"""
    return sum(comb(n, k) * c.uni(name, k) * y ** (n - k) for k in range(n + 1))


def _incl_excl(c, name, n, shift):
    """sum (-1)^(n-k) binom(n,k) (y+1)^(n-k) name[k+shift](x,y)"""
    return sum(
        (-1) ** (n - k) * comb(n, k) * (c.y + 1) ** (n - k) * c.biv(name, k + shift)
        for k in range(n + 1)
    )


@_identity(
    "A-identities-1",
    "Bell[n+1](x,y) == sum binom(n,k) Bell[k](x) y^(n-k)"
    " == sum binom(n,k) F[k](x) (y+1)^(n-k)",
    ENUM_A_NMAX,
)
def _a_identities_1(c, n):
    return (
        c.biv("Bell", n + 1),
        _binomial(c, "Bell", n, c.y),
        _binomial(c, "F", n, c.y + 1),
    )


@_identity(
    "A-identities-2",
    "Cat[n+1](x,y) == sum binom(n,k) M[k](x) y^(n-k)"
    " == sum C_k binom(n,2k) x^k (y+1)^(n-2k)",
    ENUM_A_NMAX,
)
def _a_identities_2(c, n):
    return (
        c.biv("Cat", n + 1),
        _binomial(c, "M", n, c.y),
        sum(
            catalan(k) * comb(n, 2 * k) * c.x**k * (c.y + 1) ** (n - 2 * k)
            for k in range(n // 2 + 1)
        ),
    )


@_identity(
    "A-incl-excl-1",
    "sum (-1)^(n-k) binom(n,k) (y+1)^(n-k) Bell[k+1](x,y) == F[n](x)",
    ENUM_A_NMAX,
)
def _a_incl_excl_1(c, n):
    return _incl_excl(c, "Bell", n, 1), c.uni("F", n)


@_identity(
    "A-incl-excl-2",
    "sum (-1)^(n-k) binom(n,k) (y+1)^(n-k) Cat[k+1](x,y)"
    " == C_(n/2) x^(n/2) for even n, else 0",
    ENUM_A_NMAX,
)
def _a_incl_excl_2(c, n):
    return _incl_excl(c, "Cat", n, 1), (catalan(n // 2) * c.x ** (n // 2) if n % 2 == 0 else 0)


@_identity(
    "B-identities-1",
    "Bell_B[n](x,y) == sum binom(n,k) Bell[k](2x) y^(n-k)"
    " == sum binom(n,k) F[k](2x) (y+1)^(n-k)",
    ENUM_BD_NMAX,
)
def _b_identities_1(c, n):
    return (
        c.biv("Bell_B", n),
        _binomial(c, "Bell_D", n, c.y),
        _binomial(c, "F_D", n, c.y + 1),
    )


@_identity(
    "B-identities-2",
    "Bell_D[n+1](x,y) == sum binom(n,k) Bell_B[k](x) y^(n-k)"
    " == sum binom(n,k) F~_B[k](x) (y+1)^(n-k)",
    ENUM_BD_NMAX,
)
def _b_identities_2(c, n):
    return (
        c.biv("Bell_D", n + 1),
        _binomial(c, "Bell_B", n, c.y),
        _binomial(c, "F_B_tilde", n, c.y + 1),
    )


@_identity(
    "B-identities-3",
    "Cat_B[n](x,y) == sum binom(n,k) M_B[k](x) y^(n-k)"
    " == sum binom(2k,k) binom(n,2k) x^k (y+1)^(n-2k)",
    ENUM_BD_NMAX,
)
def _b_identities_3(c, n):
    return (
        c.biv("Cat_B", n),
        _binomial(c, "M_B", n, c.y),
        sum(
            comb(2 * k, k) * comb(n, 2 * k) * c.x**k * (c.y + 1) ** (n - 2 * k)
            for k in range(n // 2 + 1)
        ),
    )


@_identity(
    "B-identities-4",
    "Cat_D[n+1](x,y) == sum binom(n,k) M~_B[k](x) y^(n-k)"
    " == sum binom(n,k) binom(k,floor(k/2)) x^ceil(k/2) (y+1)^(n-k)",
    ENUM_BD_NMAX,
)
def _b_identities_4(c, n):
    return (
        c.biv("Cat_D", n + 1),
        _binomial(c, "M_B_tilde", n, c.y),
        sum(
            comb(n, k) * comb(k, k // 2) * c.x ** ((k + 1) // 2) * (c.y + 1) ** (n - k)
            for k in range(n + 1)
        ),
    )


@_identity(
    "hanging-1",
    "Cat_B[n+1](x,y) == (y+1) Cat_B[n](x,y) + 2n x Cat[n](x,y)",
    ENUM_BD_NMAX,
)
def _hanging_1(c, n):
    return (
        c.biv("Cat_B", n + 1),
        (c.y + 1) * c.biv("Cat_B", n) + 2 * n * c.x * c.biv("Cat", n),
    )


@_identity(
    "hanging-2",
    "Cat_D[n+1](x,y) == Cat_B[n](x,y) + n x Cat[n](x,y)",
    ENUM_BD_NMAX,
)
def _hanging_2(c, n):
    return c.biv("Cat_D", n + 1), c.biv("Cat_B", n) + n * c.x * c.biv("Cat", n)


@_identity(
    "B-incl-excl-1",
    "sum (-1)^(n-k) binom(n,k) (y+1)^(n-k) Bell_B[k](x,y) == F[n](2x)",
    ENUM_BD_NMAX,
)
def _b_incl_excl_1(c, n):
    return _incl_excl(c, "Bell_B", n, 0), c.uni("F_D", n)


@_identity(
    "B-incl-excl-2",
    "sum (-1)^(n-k) binom(n,k) (y+1)^(n-k) Bell_D[k+1](x,y) == F~_B[n](x)",
    ENUM_BD_NMAX,
)
def _b_incl_excl_2(c, n):
    return _incl_excl(c, "Bell_D", n, 1), c.uni("F_B_tilde", n)


@_identity(
    "B-incl-excl-3",
    "sum (-1)^(n-k) binom(n,k) (y+1)^(n-k) Cat_B[k](x,y)"
    " == binom(n,n/2) x^(n/2) for even n, else 0",
    ENUM_BD_NMAX,
)
def _b_incl_excl_3(c, n):
    return _incl_excl(c, "Cat_B", n, 0), (comb(n, n // 2) * c.x ** (n // 2) if n % 2 == 0 else 0)


@_identity(
    "B-incl-excl-4",
    "sum (-1)^(n-k) binom(n,k) (y+1)^(n-k) Cat_D[k+1](x,y)"
    " == binom(n,floor(n/2)) x^ceil(n/2)",
    ENUM_BD_NMAX,
)
def _b_incl_excl_4(c, n):
    return _incl_excl(c, "Cat_D", n, 1), comb(n, n // 2) * c.x ** ((n + 1) // 2)


@_identity(
    "three-term-1",
    "(n+1) Cat[n] == (y+1)(2n-1) Cat[n-1] + (4x-(y+1)^2)(n-2) Cat[n-2]",
    ENUM_A_NMAX,
    n_min=2,
    quick_n_max=10,
)
def _three_term_1(c, n):
    return (
        (n + 1) * c.biv("Cat", n),
        (c.y + 1) * (2 * n - 1) * c.biv("Cat", n - 1)
        + (4 * c.x - (c.y + 1) ** 2) * (n - 2) * c.biv("Cat", n - 2),
    )


@_identity(
    "three-term-2",
    "n Cat_B[n] == (y+1)(2n-1) Cat_B[n-1] + (4x-(y+1)^2)(n-1) Cat_B[n-2]",
    ENUM_BD_NMAX,
    n_min=2,
    quick_n_max=10,
)
def _three_term_2(c, n):
    return (
        n * c.biv("Cat_B", n),
        (c.y + 1) * (2 * n - 1) * c.biv("Cat_B", n - 1)
        + (4 * c.x - (c.y + 1) ** 2) * (n - 1) * c.biv("Cat_B", n - 2),
    )


# ---------------------------------------------------------------------------
# structural checks


@_register(
    "NNB-counts",
    "enumerative",
    "NN_B(n) has binom(n,k)^2 members with 2k or 2k+1 blocks"
    " and binom(2n,n) members in total",
    {"n_max": 5},
    {"n_max": 3},
)
def _nnb_counts(n_max):
    for n in range(n_max + 1):
        # the generator grows NN_B by the nesting rule; check that what it
        # builds meets the family's definition
        for blocks in family_shapes("NN_B", n):
            p = unlabeled_shape(ground_d(n), blocks)
            if not classify(p).nonnesting:
                yield f"n={n}: NN_B shape {p.text()} is nesting"
            if negate(p) != p:
                yield f"n={n}: NN_B shape {p.text()} is not negation-closed"
        hist = count_by(FamilySpec("NN_B", n), "blocks")
        total = sum(hist.values())
        yield from _eq(f"n={n} total", total, comb(2 * n, n))
        for k in range(n + 1):
            got = hist.get(2 * k, 0) + hist.get(2 * k + 1, 0)
            yield from _eq(f"n={n},k={k}", got, comb(n, k) ** 2)


@_per_n("sym-dyck", "binom(2n,n) symmetric Dyck paths with 4n steps",
        {"n_max": 5}, {"n_max": 3}, "enumerative")
def _sym_dyck(c, n):
    return sum(map(maps.is_symmetric, maps.enumerate_dyck(2 * n))), comb(2 * n, n)


def _counted_shapes(family, n):
    """Yield a mismatch if the number of shapes of a family at n is not its
    counting polynomial at x = y = 1; return the shapes, as unlabeled
    partitions of the family's ground."""
    shapes = family_shapes(family, n)
    yield from _eq(f"n={n} {family} shapes", len(shapes), poly.sequence(COUNTING_POLY[family], n))
    ground = family_ground(family, n)
    return [unlabeled_shape(ground, blocks) for blocks in shapes]


def _matching(p) -> bool:
    return all(len(b) == 2 for b in p.blocks)


def _b_poor_without_nonzero_singletons(p) -> bool:
    return classify(p).b_poor and not any(len(b) == 1 and b[0] != 0 for b in p.blocks)


def _two_blocks(id, statement, family, at, test, want, desk, quick):
    """Register a count over the shapes of a family: at every n up to n_max
    the shapes of the family at m = at(n) are counted against its counting
    polynomial, then the shapes passing ``test`` against want(n)."""

    def check(n_max):
        for n in range(n_max + 1):
            shapes = yield from _counted_shapes(family, at(n))
            yield from _eq(f"n={n}", sum(map(test, shapes)), want(n))

    _register(id, "enumerative", statement, {"n_max": desk}, {"n_max": quick})(check)


_TWO_BLOCKS = (
    ("2blocks-1", "NC~_D(2n) has binom(2n,n) members whose blocks all have size two",
     "NC_TILDE_D", lambda n: 2 * n, _matching, lambda n: comb(2 * n, n), 3, 2),
    ("2blocks-2", "NC~_D(2n+1) has no members whose blocks all have size two",
     "NC_TILDE_D", lambda n: 2 * n + 1, _matching, lambda n: 0, 2, 2),
    ("2blocks-3",
     "binom(n,floor(n/2)) B-poor members of NC~_B(n) without nonzero singletons",
     "NC_TILDE_B", lambda n: n, _b_poor_without_nonzero_singletons,
     lambda n: comb(n, n // 2), 5, 5),
)
for _row in _TWO_BLOCKS:
    _two_blocks(*_row)


@_register(
    "uncrossB-props",
    "structural",
    "uncross_b bijects NC~_B(n) onto symmetric noncrossing partitions of"
    " the D ground; uncross bijects NC~_D(n) onto those with an even number"
    " of self-negative blocks; block counts drop by at most one",
    {"n_max": 4},
    {"n_max": 3},
)
def _uncross_b_props(n_max):
    for n in range(n_max + 1):
        dom_b = [unlabeled_shape(ground_b(n), b) for b in family_shapes("NC_TILDE_B", n)]
        symmetric = (unlabeled_shape(ground_d(n), b) for b in symmetric_partitions(n, False, True))
        sym_nc = [q for q in symmetric if classify(q).noncrossing]
        images = yield from _bijection(
            f"n={n} uncross_b", maps.uncross_b, dom_b, sym_nc, maps.uncross_b_inverse
        )
        for q, p in images.items():
            k = (len(p.blocks) - 1) // 2
            if len(q.blocks) not in (2 * k, 2 * k + 1):
                yield f"n={n}: block count {len(p.blocks)}->{len(q.blocks)}"
        dom_d = [unlabeled_shape(ground_d(n), b) for b in family_shapes("NC_TILDE_D", n)]
        # a block is its own negative exactly when it holds an arc (-i, i)
        codom_d = [q for q in sym_nc if sum(i == -j for i, j in q.arcs()) % 2 == 0]
        images = yield from _bijection(
            f"n={n} uncross", maps.uncross, dom_d, codom_d, maps.uncross_d_inverse
        )
        for q, p in images.items():
            if maps.uncross(negate(p)) != negate(q):
                yield f"n={n}: uncross does not commute with negation"


def _orbit_checker(tag, name, n, groups, rep_source, size_exponent, expected_orbits):
    """Shared orbit-theorem verification for the two-group family of the
    polynomial ``name`` at n.  The orbits come by two routes: the family
    grouped by its members' cover-free representatives, and the acting family
    applied to each representative.  Their members are counted against the
    polynomial at x = |A|-1, y = |B|-1."""
    spec = FamilySpec(FAMILY_CODES[name][0] + "_AB", n, groups)
    ds = DirectSum(groups[0], groups[1])
    acting = action.acting_family(spec)
    orbits = action.orbit_decomposition(spec)
    total = sum(len(members) for members in orbits.values())
    size = poly.family(name, n).eval_int(groups[0].order - 1, groups[1].order - 1)
    yield from _eq(f"{tag} partition", total, size)
    for rep, members in orbits.items():
        images = action.orbit(rep, acting)
        yield from _bijection(f"{tag} orbit", lambda q: q, images, members)
        two_regular = sum(1 for q in images if classify(q).two_regular)
        if two_regular != 1:
            yield f"{tag}: orbit with {two_regular} two-regular members"
    yield from _eq(f"{tag} orbit count", len(orbits), expected_orbits)
    yield from _bijection(
        f"{tag} representatives", lambda p: _embed_a(maps.shift(p), ds), rep_source, orbits
    )
    for rep, members in orbits.items():
        s = len(maps.unshift(rep).singleton_blocks())
        yield from _eq(f"{tag} orbit size (s={s})", len(members),
                       groups[1].order ** size_exponent(s))


def _orbit_theorem(id, statement, quick_n_max, size_exponent, *rows):
    """Register an orbit theorem.  Each row is (witness name, polynomial of
    the two-group family, source family, n shift, classification flags,
    orbit polynomial): at m = n + shift, the shifted members of the source
    family over A that carry the flags represent the orbits of the two-group
    family at n, the orbit polynomial of m at x = |A|-1 counts them, and an
    orbit whose unshifted representative has s singletons has
    |B|^size_exponent(s) members."""

    def check(n_max, pairs):
        for ga, gb in pairs:
            for n in range(1, n_max + 1):
                for label, name, source, shift, flags, orbits in rows:
                    m = n + shift
                    reps = filter(_holds(flags), family_members(FamilySpec(source, m, (ga,))))
                    yield from _orbit_checker(
                        f"{label} n={n} A={ga} B={gb}", name, n, (ga, gb),
                        reps, size_exponent, orbits(m).eval_int(ga.order - 1),
                    )

    _register(
        id, "structural", statement,
        {"n_max": 4, "pairs": GROUP_PAIRS},
        {"n_max": quick_n_max, "pairs": GROUP_PAIRS[:2]},
    )(check)


# the orbit polynomials are looked up when called, so a rebinding of a poly
# function is seen
_ORBIT_THEOREMS = (
    (
        "orbit-main",
        "shift induces a bijection from PI(n-1,A) [poor NC(n-1,A)] onto the"
        " linear-family orbits of PI(n,A,B) [NC(n,A,B)]; orbit sizes are |B|^s",
        3,
        lambda s: s,
        ("PI", "Bell", "PI", -1, (), lambda m: poly.bell_univariate(m)),
        ("NC", "Cat", "NC", -1, ("poor",), lambda m: poly.motzkin_closed(m)),
    ),
    (
        "orbit-B",
        "shift induces a bijection from P_D(n,A) [poor NC~_D(n,A)] onto the"
        " linear-family orbits of P_B(n,A,B) [NC~_B(n,A,B)]; orbit sizes are |B|^(s/2)",
        2,
        lambda s: s // 2,
        ("P_B", "Bell_B", "P_D", 0, (),
         lambda m: poly.bell_univariate(m).scale_x(2)),
        ("NC~_B", "Cat_B", "NC_TILDE_D", 0, ("poor",),
         lambda m: poly.motzkinb_closed(m)),
    ),
    (
        "orbit-D",
        "shift induces a bijection from P_B(n-1,A) [B-poor NC~_B(n-1,A)] onto the"
        " linear-family orbits of P_D(n,A,B) [NC~_D(n,A,B)]; orbit sizes are"
        " |B|^floor(s/2)",
        2,
        lambda s: s // 2,
        ("P_D", "Bell_D", "P_B", -1, (), lambda m: poly.bellb_univariate(m)),
        ("NC~_D", "Cat_D", "NC_TILDE_B", -1, ("b_poor",),
         lambda m: poly.motzkinb_tilde_closed(m)),
    ),
)
for _row in _ORBIT_THEOREMS:
    _orbit_theorem(*_row)


def _rank_invert(id, statement, family, n_min, want, desk_n_max, quick_n_max):
    """Register an involution check on the shapes of a family.  At every n
    from n_min to n_max the shapes are counted against its counting
    polynomial; then the full-block action maps the shapes one-to-one onto
    themselves and is its own inverse, and it sends each shape p to want(p, n)
    blocks (no claim where want is None)."""

    def check(n_max):
        for n in range(n_min, n_max + 1):
            shapes = yield from _counted_shapes(family, n)
            images = yield from _bijection(
                f"n={n}", action.plus_involution, shapes, shapes, action.plus_involution
            )
            for q, p in images.items():
                wanted = want(p, n)
                if wanted is not None and len(q.blocks) != wanted:
                    yield f"n={n} {p.text()}: {len(q.blocks)} != {wanted}"
            del shapes, images  # gone before the shapes of n + 1 are built

    _register(id, "structural", statement, {"n_max": desk_n_max}, {"n_max": quick_n_max})(check)


_RANK_INVERSIONS = (
    ("rank-invert-A",
     "the full-block action is an involution, and on NC(n) it sends k blocks"
     " to n+1-k blocks",
     "PI", 1,
     lambda p, n: n + 1 - len(p.blocks) if classify(p).noncrossing else None, 8, 5),
    ("rank-invert-B",
     "on NC~_B(n), 2k+1 blocks map to 2(n-k)+1 blocks under the involution",
     "NC_TILDE_B", 0, lambda p, n: 2 * (n - (len(p.blocks) - 1) // 2) + 1, 5, 3),
    ("rank-invert-D",
     "on NC~_D(n) the involution sends m blocks to 2n+2-m when -1 tops its"
     " block, else to 2n-m",
     "NC_TILDE_D", 1,
     lambda p, n: 2 * n + (2 if max(p.block_of(-1)) == -1 else 0) - len(p.blocks), 5, 3),
)
for _row in _RANK_INVERSIONS:
    _rank_invert(*_row)


def _no_adjacent_blocks(q) -> bool:
    mins = {min(b) for b in q.blocks}
    return all(max(b) + 1 not in mins for b in q.blocks)


def _holds(tests):
    """The predicate that a partition carries every classification flag named
    in tests and passes every callable one."""

    def pred(p):
        flags = classify(p)
        return all(getattr(flags, t) if isinstance(t, str) else t(p) for t in tests)

    return pred


def _shift_bijections(id, statement, desk, quick, *rows):
    """Register shift-bijection claims over one label group.  Each row is
    (witness label, domain family, codomain family, codomain n shift, domain
    tests, codomain tests): at every n, shift maps the members of the domain
    family at n that pass the domain tests injectively onto the members of the
    codomain family at n + shift that pass the codomain tests."""

    def check(n_max, group):
        for n in range(n_max + 1):
            for label, domain, codomain, shift, dom_tests, cod_tests in rows:
                dom = family_members(FamilySpec(domain, n, (group,)))
                cod = family_members(FamilySpec(codomain, n + shift, (group,)))
                yield from _bijection(
                    label.format(n=n), maps.shift,
                    filter(_holds(dom_tests), dom), filter(_holds(cod_tests), cod),
                )

    _register(id, "structural", statement, desk, quick)(check)


_GAP_TWO_REGULAR = ("two_regular", _no_adjacent_blocks)

_SHIFT_BIJECTIONS = (
    ("shift-bij-A",
     "shift bijects feasible partitions onto two-regular ones with no block"
     " following another, and poor noncrossing onto two-regular noncrossing",
     {"n_max": 5, "group": Z3}, {"n_max": 4, "group": Z2},
     ("A n={n} feasible", "PI", "PI", 1, ("feasible",), _GAP_TWO_REGULAR),
     ("A n={n} poor-nc", "PI", "PI", 1, ("poor", "noncrossing"), ("two_regular", "noncrossing")),
     # image of shift is exactly the two-regular members
     ("A n={n} all", "PI", "PI", 1, (), ("two_regular",))),
    ("shift-bij-BD",
     "shift bijects: feasible P_D(n) onto gap two-regular P_B(n); B-feasible"
     " P_B(n) onto gap two-regular P_D(n+1); poor NC~_D(n) onto two-regular"
     " NC~_B(n); B-poor NC~_B(n) onto two-regular NC~_D(n+1)",
     {"n_max": 3, "group": Z3}, {"n_max": 2, "group": Z2},
     ("BD n={n} (1)", "P_D", "P_B", 0, ("feasible",), _GAP_TWO_REGULAR),
     ("BD n={n} (2)", "P_B", "P_D", 1, ("b_feasible",), _GAP_TWO_REGULAR),
     ("BD n={n} (3)", "P_D", "P_B", 0, ("nc_tilde", "poor"), ("nc_tilde", "two_regular")),
     ("BD n={n} (4)", "P_B", "P_D", 1, ("nc_tilde", "b_poor"), ("nc_tilde", "two_regular")),
     # images land exactly on the two-regular members
     ("BD n={n} 2reg-B", "P_D", "P_B", 0, (), ("two_regular",)),
     ("BD n={n} 2reg-D", "P_B", "P_D", 1, (), ("two_regular",))),
)
for _row in _SHIFT_BIJECTIONS:
    _shift_bijections(*_row)


# ---------------------------------------------------------------------------
# sequences, supercharacters and route backstops

# quoted prefixes of the named sequences at x = y = 1 (M~_B aligned to the
# offset-1 indexing of the directed-animal values)
GOLDEN_SEQUENCES = {
    "Bell": (1, 1, 2, 5, 15, 52),
    "Bell_B": (1, 2, 6, 24, 116, 648, 4088),
    "Bell_D": (1, 1, 3, 11, 49, 257, 1539),
    "M_B": (1, 1, 3, 7, 19, 51, 141),
    "M_B_tilde": (1, 2, 5, 13, 35, 96, 267),
}


@_register(
    "golden-sequences",
    "symbolic",
    "quoted prefixes of Bell, Bell_B, Bell_D, M_B and M~_B at x = y = 1;"
    " Cat[n](1,1) == C_n and Cat_B[n](1,1) == binom(2n,n)",
    {"n_max": 10},
    {"n_max": 4},
)
def _golden_sequences(n_max):
    for name, want in GOLDEN_SEQUENCES.items():
        want = list(want[: n_max + 1])
        yield from _eq(name, [poly.sequence(name, n) for n in range(len(want))], want)
    for n in range(n_max + 1):
        yield from _eq(f"Cat n={n}", poly.sequence("Cat", n), catalan(n))
        yield from _eq(f"Cat_B n={n}", poly.sequence("Cat_B", n), comb(2 * n, n))


@_register(
    "oeis-bfiles",
    "symbolic",
    "the named sequences match the vendored b-files at every n <= n_max,"
    " and the associated Stirling numbers match the vendored A008299 triangle"
    " in rows 2..rows",
    {"n_max": 22, "rows": 16},
    {"n_max": 8, "rows": 8},
)
def _oeis_bfiles(n_max, rows):
    try:
        for name, (oeis_id, offset) in oeis.KNOWN_SEQUENCES.items():
            bfile = str(oeis.vendored_path(oeis_id))
            report = oeis.oeis_check(name, oeis_id, offset, n_max, bfile)
            for m in report["mismatches"]:
                yield f"{name} vs {oeis_id} n={m['n']}: {m['computed']} != {m['bfile']}"
            yield from _eq(f"{name} vs {oeis_id} entries", report["checked"], n_max + 1)
        oeis_id = "A008299"
        triangle = oeis.load_bfile(oeis_id, str(oeis.vendored_path(oeis_id))).values
    except (oeis.BFileError, oeis.OeisIOError) as exc:
        yield f"{oeis_id}: {exc}"
        return
    index = 1
    for n in range(2, rows + 1):
        for k in range(1, n // 2 + 1):
            yield from _eq(f"A008299 T({n},{k})", poly.assoc_stirling2(n, k), triangle.get(index))
            index += 1


@_register(
    "supercharacters",
    "enumerative",
    "superclass, distinct, irreducible, linear and linear-invariant counts of"
    " the supercharacters of types A, B and D match their predicted values,"
    " the irreducible ones are the noncrossing ones, and multiplying"
    " by a linear supercharacter is the additive action",
    {
        "sizes": (
            ("A", 3, 2), ("A", 4, 2), ("A", 5, 2), ("A", 3, 3), ("A", 4, 3),
            ("B", 1, 3), ("B", 2, 3), ("D", 2, 3), ("D", 3, 3),
        )
    },
    {"sizes": (("A", 3, 2), ("A", 3, 3), ("B", 1, 3), ("D", 2, 3))},
)
def _supercharacters(sizes):
    """At each (kind, n, p), the counts read off the table equal
    ``expected_counts``.  An index is counted invariant when every member of
    ``linear_generators`` fixes it.  The product rule compares, value by
    value, a linear row times an index's row (``code_product``) with the
    row of their ``plus``."""
    for kind, n, p in sizes:
        tag = f"{kind}({n},{p})"
        try:
            table = unitriangular.build_chartable(kind, n, p)
            norms = table.norms()
        except unitriangular.ConsistencyError as exc:
            yield f"{tag}: {exc}"
            continue
        if any(f.denominator != 1 for f in norms):
            yield f"{tag}: a character norm is not an integer"
            continue
        want = unitriangular.expected_counts(kind, n, p)
        yield from _eq(f"{tag} num_superclasses", len(table.classes), want["distinct"])
        yield from _eq(f"{tag} num_distinct", len(set(table.values)), want["distinct"])
        irreducible = [lam for lam, f in zip(table.indices, norms) if f == 1]
        yield from _eq(f"{tag} num_irreducible", len(irreducible), want["irreducible"])
        yield from _eq(f"{tag} num_linear", table.degrees().count(1), want["linear"])
        generators = unitriangular.linear_generators(kind, n, p)
        invariant = sum(
            all(action.plus(alpha, lam) == lam for alpha in generators) for lam in table.indices
        )
        yield from _eq(f"{tag} num_l_invariant", invariant, want["l_invariant"])
        noncrossing = [lam for lam in table.indices if classify(lam).noncrossing]
        yield from _bijection(f"{tag} irreducible", lambda q: q, irreducible, noncrossing)
        row = dict(zip(table.indices, table.values))
        times = partial(unitriangular.code_product, p)
        for alpha in family_members(unitriangular.index_family(kind, n, p, linear=True)):
            for lam in table.indices:
                if tuple(map(times, row[alpha], row[lam])) != row[action.plus(alpha, lam)]:
                    yield f"{tag}: product rule fails at {alpha.text()} + {lam.text()}"


def _rank_mod_p(vectors, p) -> int:
    """Rank over F_p, each vector reduced against an echelon basis keyed by
    its leading position."""
    basis = {}
    for v in vectors:
        v = [x % p for x in v]
        for c in range(len(v)):
            if not v[c]:
                continue
            if c not in basis:
                basis[c] = v
                break
            t = v[c] * pow(basis[c][c], -1, p)
            v = [(x - t * y) % p for x, y in zip(v, basis[c])]
    return len(basis)


def _two_sided_rank(g, p, kind) -> int:
    """Rank over F_p, X = g - 1 and a, b strictly upper triangular, of
    (a, b) -> aX + Xb for type A and of a -> aX + X dagger(a) for B and D:
    the kind's superclass of g has p^rank elements."""
    n = len(g)
    images = []
    for r in range(n):
        for s in range(r + 1, n):
            # E_rs X takes row s of X into row r; X E_tu takes column t of X
            # into column u, with E_tu = E_rs for A and dagger(E_rs) for B, D
            left = [g[s][c] if i == r and c > s else 0 for i in range(n) for c in range(n)]
            t, u = (r, s) if kind == "A" else (n - 1 - s, n - 1 - r)
            right = [g[i][t] if c == u and i < t else 0 for i in range(n) for c in range(n)]
            images += [left, right] if kind == "A" else [list(map(add, left, right))]
    return _rank_mod_p(images, p)


def _superclass_sizes(sizes):
    """At each (kind, n, p), the closed-form size of each superclass built
    from an index equals its element count and p^rank, and ``to_rook`` maps
    the indices one-to-one onto the keys that the elements reduce to.  The
    elements are counted over ``lie_elements``: for B and D, g - 1 =
    X(1 - X/2)^-1 for the Cayley image g of 1 + X, so g and 1 + X have one
    key."""
    for kind, n, p in sizes:
        tag = f"{kind}({n},{p})"
        elements = unitriangular.lie_elements(kind, n, p)
        counted = Counter(unitriangular.superclass_key(g, p) for g in elements)
        spec = unitriangular.index_family(kind, n, p)
        ambient = ground_a(spec.ground.size)
        keys = [from_triples(ambient, spec.label_group, key) for key in counted]
        classes = yield from _bijection(f"{tag} superclasses", to_rook, family_members(spec), keys)
        for c in classes:
            found = {"closed": unitriangular.superclass_size(c, kind)}
            found["elements"] = counted[c.labels]
            g = unitriangular.class_representative_matrix(c, p)
            found["rank"] = p ** _two_sided_rank(g, p, kind)
            if len(set(found.values())) > 1:
                yield f"{tag} {c.text()}: " + ", ".join(f"{k} {v}" for k, v in found.items())


@_register(
    "superclass-sizes-A",
    "structural",
    "the closed-form size of every type A superclass equals the number of"
    " group elements that reduce to it and p^rank of (a, b) -> aX + Xb,"
    " X its labeled arcs; the superclasses are exactly the index partitions",
    {"sizes": ((3, 2), (4, 2), (5, 2), (4, 3), (4, 5))},
    {"sizes": ((3, 2), (4, 3))},
)
def _superclass_sizes_a(sizes):
    return _superclass_sizes(("A", n, p) for n, p in sizes)


_register(
    "superclass-sizes-BD",
    "structural",
    "the closed-form size of every type B and D superclass equals the number"
    " of Lie algebra elements that reduce to it and p^rank of"
    " a -> aX + X dagger(a), X its labeled arcs; the superclasses are exactly"
    " the indices read on the ambient type A ground",
    {"sizes": (("B", 1, 3), ("B", 2, 3), ("B", 2, 5), ("B", 3, 3), ("D", 2, 3), ("D", 3, 3))},
    {"sizes": (("B", 1, 3), ("D", 2, 3))},
)(_superclass_sizes)


@_register(
    "restriction-B",
    "structural",
    "a type B supercharacter index is relaxed-noncrossing exactly when the"
    " arc-reflection class of its halved partition is all noncrossing",
    {"sizes": ((1, 3), (2, 3), (3, 3), (2, 5))},
    {"sizes": ((1, 3), (2, 3))},
)
def _restriction_b(sizes):
    for n, p in sizes:
        for lam in family_members(unitriangular.index_family("B", n, p)):
            reflected = unitriangular.reflection_class(maps.halve(lam))
            all_nc = all(classify(q).noncrossing for q in reflected)
            nc_tilde = classify(lam).nc_tilde
            if all_nc != nc_tilde:
                yield (
                    f"B({n},{p}) {lam.text()}: reflection class all noncrossing"
                    f" {all_nc}, nc_tilde {nc_tilde}"
                )


@_register(
    "uncross-NN-NC",
    "structural",
    "uncross bijects NN(n) onto NC(n), keeping the block count",
    {"n_max": 7},
    {"n_max": 5},
)
def _uncross_nn_nc(n_max):
    for n in range(n_max + 1):
        images = yield from _bijection(
            f"n={n}", maps.uncross,
            family_members(FamilySpec("NN", n)), family_members(FamilySpec("NC", n, (Z2,))),
        )
        for q, p in images.items():
            if len(q.blocks) != len(p.blocks) or not classify(q).noncrossing:
                yield f"n={n}: uncross({p.text()}) = {q.text()}"


@_register(
    "plus-matrix-route",
    "structural",
    "the arc-set action plus agrees with the rook-matrix route on every"
    " L x PI(n,Z3), L_D x P_D(n,Z2) pair and every L_B x P_B(n_b,Z3) pair",
    {"n_max": 4, "n_max_b": 2},
    {"n_max": 3, "n_max_b": 1},
)
def _plus_matrix_route(n_max, n_max_b):
    for linear, family, group, top in (
        ("L", "PI", Z3, n_max),
        ("L_D", "P_D", Z2, n_max),
        ("L_B", "P_B", Z3, n_max_b),
    ):
        for n in range(top + 1):
            for alpha in family_members(FamilySpec(linear, n, (group,))):
                for lam in family_members(FamilySpec(family, n, (group,))):
                    if action.plus(alpha, lam) != action.plus_via_matrix(alpha, lam):
                        yield f"route mismatch at {alpha.text()} + {lam.text()}"


@_register(
    "uncross-confluence",
    "structural",
    "uncross does not depend on the order in which crossings are resolved:"
    " every crossing partition of [n], every crossing resolved first",
    {"n": 7},
    {"n": 5},
)
def _uncross_confluence(n):
    # A rewrite keeps the set of left ends and the set of right ends, so it
    # stays inside the partitions of [n], and raises the sum of squared arc
    # lengths by 2(l-k)(j-i) > 0, so every order terminates.  So if every
    # first step leads to the same fixed point, every order does, by
    # induction on that sum.
    pool = [unlabeled_shape(ground_a(n), blocks) for blocks in family_shapes("PI", n)]
    pool = [p for p in pool if not classify(p).noncrossing]
    want = poly.sequence("Bell", n) - poly.sequence("Cat", n)
    yield from _eq(f"n={n} crossing pool", len(pool), want)
    for p in pool:
        arcs = p.arcs()
        fixed = maps.uncross_arcs(arcs)
        for (i, k), (j, l) in crossings(arcs):
            step = arcs - {(i, k), (j, l)} | {(i, l), (j, k)}
            if maps.uncross_arcs(step) != fixed:
                yield f"uncross order dependence at {p.text()}: ({i},{k}) ({j},{l}) first"


def _generator_moves(g, p):
    """One step of each generator 1 + E_rs of U(n,p) on X = g - 1, from
    either side: ``(side, r, s, 1 + X')`` with r < s counted from 1.  The
    left move adds row s of X to row r, the right move adds column r to
    column s.  Only strictly upper entries change, and there g and X agree."""
    n = len(g)
    for s in range(n):
        for r in range(s):
            added = [(a + b) % p for a, b in zip(g[r][s + 1 :], g[s][s + 1 :])]
            yield "left", r + 1, s + 1, g[:r] + (g[r][: s + 1] + tuple(added),) + g[r + 1 :]
            right = [row[:s] + ((row[s] + row[r]) % p,) + row[s + 1 :] for row in g[:r]]
            yield "right", r + 1, s + 1, tuple(right) + g[r:]


@_register(
    "reduce-invariance",
    "structural",
    "superclass reduction is constant on two-sided orbits g -> u(g-1)v+1:"
    " every generator step, on either side, of every element of U(n,p)",
    {"n": 4, "p": 3},
    {"n": 3, "p": 3},
)
def _reduce_invariance(n, p):
    # the elements 1 + E_rs generate U(n,p), so a key no step changes is
    # constant on every two-sided orbit
    key = unitriangular.superclass_key
    for g in unitriangular.lie_elements("A", n, p):
        want = key(g, p)
        for side, r, s, h in _generator_moves(g, p):
            if key(h, p) != want:
                yield f"reduction of {g} changes under the {side} move ({r},{s})"


@_register(
    "rook-round-trip",
    "structural",
    "from_rook inverts to_rook on every PI(n,Z3), P_B(n_bd,Z3) and P_D(n_bd,Z3);"
    " the matrix reading of noncrossing picks exactly NC(n,Z3) out of PI(n,Z3),"
    " and on P_B and P_D it agrees with the noncrossing flag",
    {"n_max": 5, "n_max_bd": 3},
    {"n_max": 3, "n_max_bd": 2},
)
def _rook_round_trip(n_max, n_max_bd):
    # on B and D grounds to_rook moves every arc to its positions
    for family, top in (("PI", n_max), ("P_B", n_max_bd), ("P_D", n_max_bd)):
        for n in range(top + 1):
            spec = FamilySpec(family, n, (Z3,))
            tag = f"{family} n={n}"
            rooks = yield from _bijection(
                tag, to_rook, family_members(spec), None, partial(from_rook, spec.ground)
            )
            selected = [p for rook, p in rooks.items() if rook_noncrossing(rook)]
            if family == "PI":
                noncrossing = family_members(FamilySpec("NC", n, (Z3,)))
            else:
                noncrossing = [p for p in rooks.values() if classify(p).noncrossing]
            yield from _bijection(f"{tag} rook_noncrossing", lambda q: q, selected, noncrossing)
