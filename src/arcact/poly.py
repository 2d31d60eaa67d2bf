"""Exact bivariate integer polynomials and the named counting polynomials.

Every named family can be computed three ways:

* ``transfer_family`` - a transfer recursion that builds partitions element
                        by element and never consults a closed formula; all
                        of them run on one driver, ``_Transfer``, to which
                        each step yields the next state and the monomial
                        (c, dx, dy) of the way, so no recursion does
                        polynomial arithmetic;
* ``CLOSED``          - the closed formula of each family.  A bivariate
                        family's closed formula is the single-sum expansion
                        sum binom(n,k) U[k](x) y^(n-k) over a univariate
                        closed formula U that its expansion identity proves;
* ``enumerated_family`` - a literal sum of statistics over the block
                        structures produced by the enumeration module.

``family`` is the canonical route: the closed formula of every family.  The
three routes agree wherever they are all defined; the identity runner
compares the closed formulas with the transfer recursion and the
enumeration, so the recursion is read by the checks and the tests only.
"""

from __future__ import annotations

from functools import partial
from math import comb

# ---------------------------------------------------------------------------
# sparse bivariate polynomials


class BiPoly:
    """Polynomial in x, y with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for key, value in dict(coeffs or {}).items():
            if value:
                dx, dy = key
                clean[(int(dx), int(dy))] = int(value)
        self.coeffs = clean

    @classmethod
    def _clean(cls, coeffs: dict) -> "BiPoly":
        """The polynomial of a dict an internal producer built from clean
        polynomials: keys and values are already ints, so only the zero
        coefficients (a sum can cancel) are dropped."""
        poly = object.__new__(cls)
        poly.coeffs = {key: value for key, value in coeffs.items() if value}
        return poly

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def const(c: int) -> "BiPoly":
        return BiPoly({(0, 0): c})

    @staticmethod
    def term(c: int, dx: int, dy: int = 0) -> "BiPoly":
        return BiPoly({(dx, dy): c})

    def __eq__(self, other):
        if isinstance(other, int):
            other = BiPoly.const(other)
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

    def __add__(self, other):
        if isinstance(other, int):
            other = BiPoly.const(other)
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, 0) + value
        return BiPoly._clean(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly._clean({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = BiPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BiPoly._clean({k: v * other for k, v in self.coeffs.items()})
        out = {}
        for (a, b), u in self.coeffs.items():
            for (c, d), v in other.coeffs.items():
                key = (a + c, b + d)
                out[key] = out.get(key, 0) + u * v
        return BiPoly._clean(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = BiPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def eval_int(self, x: int, y: int = 0) -> int:
        return sum(c * x**dx * y**dy for (dx, dy), c in self.coeffs.items())

    def scale_x(self, c: int) -> "BiPoly":
        """Substitute x -> c*x."""
        return BiPoly._clean({(dx, dy): v * c**dx for (dx, dy), v in self.coeffs.items()})

    def subst_y_diag(self) -> "BiPoly":
        """Substitute y -> x."""
        out = {}
        for (dx, dy), v in self.coeffs.items():
            key = (dx + dy, 0)
            out[key] = out.get(key, 0) + v
        return BiPoly._clean(out)

    def _ordered(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def _render(self, power: str, coeff: str, join: str) -> str:
        """Terms in degree order: v^d is spelled ``power.format(v, d)``, a
        coefficient other than +-1 is followed by ``coeff`` and the factors
        of a term are joined by ``join``."""
        if not self.coeffs:
            return "0"
        parts = []
        for (dx, dy), c in self._ordered():
            factors = [
                v if d == 1 else power.format(v, d)
                for v, d in (("x", dx), ("y", dy))
                if d
            ]
            if not factors:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}{coeff}")
                parts.append(head + join.join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self._render("{}^{}", "*", "*")

    def latex(self) -> str:
        return self._render("{}^{{{}}}", "", " ")

    def __repr__(self):
        return f"BiPoly({self})"


X = BiPoly.term(1, 1)
Y = BiPoly.term(1, 0, 1)
ONE = BiPoly.const(1)


# ---------------------------------------------------------------------------
# number tables


class _Triangle:
    """Entry (n, k) of a number triangle, zero for k past the end of row n.

    Row n is computed from the rows before it by ``next_row(rows)``.  Rows
    are filled in increasing n and kept, so no call recurses, however large
    n is on a cold table.
    """

    def __init__(self, next_row):
        self.next_row = next_row
        self.rows = []

    def __call__(self, n: int, k: int) -> int:
        if n < 0 or k < 0:
            raise ValueError(f"indices ({n},{k}) out of range")
        rows = self.rows
        while len(rows) <= n:
            rows.append(self.next_row(rows))
        row = rows[n]
        return row[k] if k < len(row) else 0

    def cache_clear(self):
        self.rows.clear()


def _stirling2_row(rows):
    n = len(rows)
    if n == 0:
        return (1,)
    prev = rows[-1] + (0,)
    return (0,) + tuple(k * prev[k] + prev[k - 1] for k in range(1, n + 1))


def _assoc_stirling2_row(rows):
    """Partitions of an n-set into k blocks, all of size at least two."""
    n = len(rows)
    if n == 0:
        return (1,)
    prev, prev2 = rows[-1] + (0,), rows[n - 2]
    return (0,) + tuple(
        k * prev[k] + (n - 1) * prev2[k - 1] for k in range(1, n // 2 + 1)
    )


def _whitney2_B_row(rows):
    """Signed-partition block counts: mirror-closed structures on {-n..n}
    with 2k+1 blocks."""
    n = len(rows)
    if n == 0:
        return (1,)
    prev = rows[-1] + (0,)
    return (prev[0],) + tuple(
        (2 * k + 1) * prev[k] + prev[k - 1] for k in range(1, n + 1)
    )


stirling2 = _Triangle(_stirling2_row)
assoc_stirling2 = _Triangle(_assoc_stirling2_row)
whitney2_B = _Triangle(_whitney2_B_row)


def narayana(n: int, k: int) -> int:
    if n < 0 or k < 0:
        raise ValueError(f"indices ({n},{k}) out of range")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    value = comb(n, k) * comb(n, k - 1)
    assert value % n == 0
    return value // n


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("need n >= 0")
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# transfer recursions
#
# Partitions are built by inserting elements in increasing order (interval
# grounds A) or in mirrored pairs working outward from the centre (grounds
# B and D).  Each step either opens a new block (pair) or attaches to an
# existing one; an attachment contributes y when it extends the element
# placed in the previous step (a cover arc) and x otherwise.  The noncrossing
# variants additionally retire every attachment point that the new arc
# covers.  The recursions are independent of any closed formula, and they do
# no polynomial arithmetic: a step names the monomial c x^dx y^dy of each way
# as the triple (c, dx, dy), and the driver adds the shifted coefficients in.

_ONE, _X, _Y = (1, 0, 0), (1, 1, 0), (1, 0, 1)


def _total(states: dict, keep=lambda state: True) -> BiPoly:
    out = {}
    for state, coeffs in states.items():
        if keep(state):
            for key, v in coeffs.items():
                out[key] = out.get(key, 0) + v
    return BiPoly._clean(out)


class _Transfer:
    """One transfer recursion, run as far as it has been asked.

    The states after i insertions are a dict of each state's coefficients
    ``{(dx, dy): c}``, the polynomial of the ways to reach it.
    ``step(i, state)`` yields ``(next_state, (c, dx, dy))`` for every way to
    insert element (pair) i into ``state``; that way multiplies the count by
    c x^dx y^dy, which is added into the next state's coefficients in place.
    ``finish(states)`` makes the recursion's value at n from the states
    after n insertions.

    The states after i insertions do not depend on how many insertions are
    asked for, so each is computed once per process: the recursion keeps its
    last states and its value at every n it has passed, and asking for a
    larger n extends the run from the last states instead of starting again
    from ``start``.  Each set of states is dropped once the next is made.
    """

    def __init__(self, start, step, finish=_total):
        self.start, self.step, self.finish = start, step, finish
        self.cache_clear()

    def __call__(self, n: int):
        """The recursion's value at n."""
        values, step = self.values, self.step
        while len(values) <= n:
            i = len(values)
            new = {}
            for state, coeffs in self.states.items():
                for nxt, (c, dx, dy) in step(i, state):
                    into = new.get(nxt)
                    if into is None:
                        into = new[nxt] = {}
                    for (a, b), v in coeffs.items():
                        key = (a + dx, b + dy)
                        into[key] = into.get(key, 0) + c * v
            self.states = new
            values.append(self.finish(new))
        return values[n]

    def cache_clear(self):
        """Forget every insertion: the next call starts from ``start``."""
        self.states = {self.start: {(0, 0): 1}}
        self.values = [self.finish(self.states)]


# Each recursion is a step and the _Transfer that runs it.  A recursion that
# runs with or without a central element (has_zero) has a _Transfer for
# each, indexed by has_zero.


def _bell_step(i, k):  # k: number of blocks
    yield k + 1, _ONE
    if i >= 2:
        yield k, _Y  # join the block of the previous element
        if k >= 2:
            yield k, (k - 1, 1, 0)


_BELL = _Transfer(0, _bell_step)


def _cat_step(i, r):  # r: number of attachment points not under an arc
    yield r + 1, _ONE
    for j in range(1, r + 1):
        yield j, _Y if j == r else _X


_CAT = _Transfer(0, _cat_step)


def _bellx_step(has_zero, i, e):  # e: number of attachment ends
    yield e + 2, _ONE
    hot = has_zero or i >= 2
    if hot and e >= 1:
        yield e, _Y
        if e >= 2:
            yield e, (e - 1, 1, 0)


_BELLX = (_Transfer(0, partial(_bellx_step, False)), _Transfer(1, partial(_bellx_step, True)))


# Slot alphabets for the noncrossing mirrored recursion.  A slot records the
# live attachment ends at one absolute value: '+' a positive end, '-' a
# negative end, '2' both ends of a still-singleton mirrored pair.


def _catx_step(i, s):
    yield s + ("2",), _ONE
    for j, slot in enumerate(s):
        if slot in ("+", "2"):
            # a positive-side join covers exactly the ends of larger
            # absolute value; the negative twin survives
            weight = _Y if j == len(s) - 1 else _X
            rest = ("-",) if slot == "2" else ()
            yield s[:j] + rest + ("+",), weight
        if slot in ("-", "2"):
            # a negative-side join spans the centre: the two new
            # mirrored arcs cover every other live end
            yield ("+",), _X


_CATX = (_Transfer((), _catx_step), _Transfer(("+",), _catx_step))


def _feasible_step(i, s):  # s: (singleton blocks, larger blocks)
    s1, s2 = s
    yield (s1 + 1, s2), _ONE
    if s1:
        yield (s1 - 1, s2 + 1), (s1, 1, 0)
    if s2:
        yield (s1, s2), (s2, 1, 0)


_FEASIBLE = _Transfer((0, 0), _feasible_step, partial(_total, keep=lambda s: s[0] == 0))


def _motzkin_step(i, r):  # r: open singleton blocks not under an arc
    yield r + 1, _ONE
    for j in range(1, r + 1):
        yield j - 1, _X


_MOTZKIN = _Transfer(0, _motzkin_step)


def _feasiblex_step(has_zero, i, s):  # s: (singleton pairs, grown pairs, centre grown)
    p1, p2, z = s
    yield (p1 + 1, p2, z), _ONE
    if p1:
        yield (p1 - 1, p2 + 1, z), (2 * p1, 1, 0)
    if p2:
        yield (p1, p2, z), (2 * p2, 1, 0)
    if has_zero:
        yield (p1, p2, 1), _X


def _feasiblex_totals(has_zero, states) -> tuple[BiPoly, BiPoly]:
    """Mirrored feasible counts: (zero block grown, any zero block).

    The first component requires the central block to have been extended
    (so every block has at least two elements); the second allows a bare
    central block, which is the B-feasible relaxation.  Without a central
    element both components agree.
    """
    strict = _total(states, lambda s: s[0] == 0 and (s[2] or not has_zero))
    return strict, _total(states, lambda s: s[0] == 0)


_FEASIBLEX = tuple(
    _Transfer((0, 0, 0), partial(_feasiblex_step, z), partial(_feasiblex_totals, z))
    for z in (False, True)
)


# Poor mirrored noncrossing: a join fills both blocks of a pair, so the pair
# retires on use; the central block is never extended.  Only the number of
# live singleton pairs matters.
def _motzkinx_step(i, r):
    yield r + 1, _ONE
    for j in range(r):
        yield j, _X  # positive-side join of pair j
        yield 0, _X  # negative-side join spans the centre


_MOTZKINX = _Transfer(0, _motzkinx_step)


# B-poor variant: the central block may be extended exactly once.
def _motzkinx_tilde_step(i, s):
    yield s + ("2",), _ONE
    for j, slot in enumerate(s):
        yield s[:j], _X  # positive-side (or central) join
        if slot != "Z":
            yield (), _X  # negative-side join spans the centre


_MOTZKINX_TILDE = _Transfer(("Z",), _motzkinx_tilde_step)


# name -> transfer recursion, for every named family
_TRANSFER = {
    "Bell": _BELL,
    "Cat": _CAT,
    "F": _FEASIBLE,
    "M": _MOTZKIN,
    "Bell_B": _BELLX[True],
    "Bell_D": _BELLX[False],
    "Cat_B": _CATX[True],
    "Cat_D": _CATX[False],
    "F_B": lambda n: _FEASIBLEX[True](n)[0],
    "F_D": lambda n: _FEASIBLEX[False](n)[0],
    "M_B": _MOTZKINX,
    "M_D": _MOTZKINX,
    "F_B_tilde": lambda n: _FEASIBLEX[True](n)[1],
    "M_B_tilde": _MOTZKINX_TILDE,
}


def transfer_family(name: str, n: int) -> BiPoly:
    """The transfer-recursion route for every named family."""
    if n < 0:
        raise ValueError("need n >= 0")
    if name not in _TRANSFER:
        raise ValueError(f"unknown family {name!r}")
    return _TRANSFER[name](n)


# ---------------------------------------------------------------------------
# closed formulas


def bell_univariate(n: int) -> BiPoly:
    return BiPoly({(n - k, 0): stirling2(n, k) for k in range(n + 1)})


def cat_univariate(n: int) -> BiPoly:
    return BiPoly({(n - k, 0): narayana(n, k) for k in range(n + 1)})


def bellb_univariate(n: int) -> BiPoly:
    return BiPoly({(n - k, 0): whitney2_B(n, k) for k in range(n + 1)})


def feasible_closed(n: int) -> BiPoly:
    return BiPoly({(n - k, 0): assoc_stirling2(n, k) for k in range(n + 1)})


def motzkin_closed(n: int) -> BiPoly:
    return BiPoly({(k, 0): catalan(k) * comb(n, 2 * k) for k in range(n // 2 + 1)})


def catb_closed(n: int) -> BiPoly:
    return BiPoly({(k, 0): comb(n, k) ** 2 for k in range(n + 1)})


def catd_closed(n: int) -> BiPoly:
    if n == 0:
        return ONE
    return BiPoly({(k, 0): comb(n - 1, k) * comb(n, k) for k in range(n)})


def motzkinb_closed(n: int) -> BiPoly:
    return BiPoly({(k, 0): comb(2 * k, k) * comb(n, 2 * k) for k in range(n // 2 + 1)})


def motzkinb_tilde_closed(n: int) -> BiPoly:
    return BiPoly(
        {(k, 0): comb(n, k) * comb(n + 1 - k, k) for k in range((n + 1) // 2 + 1)}
    )


def feasibleb_tilde_closed(n: int) -> BiPoly:
    return sum(
        (
            comb(n, k) * feasible_closed(k).scale_x(2) * BiPoly.term(1, n - k)
            for k in range(0, n + 1)
        ),
        BiPoly.zero(),
    )


def _y_binomial(n: int, uni) -> BiPoly:
    """sum binom(n,k) uni(k)(x) y^(n-k), coefficient by coefficient: each
    (power of x, k) pair owns one coefficient, so nothing is summed."""
    return BiPoly._clean(
        {
            (dx, n - k): comb(n, k) * c
            for k in range(n + 1)
            for (dx, _), c in uni(k).coeffs.items()
        }
    )


def _y_binomial_shifted(n: int, uni) -> BiPoly:
    """The same sum at n - 1, for the families whose identity is written at
    n + 1; they have the single empty structure at n = 0."""
    return _y_binomial(n - 1, uni) if n else BiPoly.const(1)


# name -> closed formula of the family.  A bivariate family's formula is the
# second side of the expansion identity that proves it against the transfer
# recursion.
CLOSED = {
    # A-identities-1: Bell[n+1](x,y) = sum binom(n,k) Bell[k](x) y^(n-k)
    "Bell": lambda n: _y_binomial_shifted(n, bell_univariate),
    # A-identities-2, the bivariate form of Coker's identity:
    # Cat[n+1](x,y) = sum binom(n,k) M[k](x) y^(n-k)
    "Cat": lambda n: _y_binomial_shifted(n, motzkin_closed),
    "F": feasible_closed,
    "M": motzkin_closed,
    # B-identities-1: Bell_B[n](x,y) = sum binom(n,k) Bell[k](2x) y^(n-k)
    "Bell_B": lambda n: _y_binomial(n, lambda k: bell_univariate(k).scale_x(2)),
    # B-identities-2: Bell_D[n+1](x,y) = sum binom(n,k) Bell_B[k](x) y^(n-k)
    "Bell_D": lambda n: _y_binomial_shifted(n, bellb_univariate),
    # B-identities-3: Cat_B[n](x,y) = sum binom(n,k) M_B[k](x) y^(n-k)
    "Cat_B": lambda n: _y_binomial(n, motzkinb_closed),
    # B-identities-4: Cat_D[n+1](x,y) = sum binom(n,k) M~_B[k](x) y^(n-k)
    "Cat_D": lambda n: _y_binomial_shifted(n, motzkinb_tilde_closed),
    "F_D": lambda n: feasible_closed(n).scale_x(2),
    # tilde-1 read backwards: F_B[n](x) = F~_B[n](x) - F[n](2x)
    "F_B": lambda n: feasibleb_tilde_closed(n) - feasible_closed(n).scale_x(2),
    "M_B": motzkinb_closed,
    "M_D": motzkinb_closed,
    "F_B_tilde": feasibleb_tilde_closed,
    "M_B_tilde": motzkinb_tilde_closed,
}


# name -> (partition family, classification flag).  The flagged families are
# univariate: they count the members that carry the flag, by arcs alone.
FAMILY_CODES = {
    "Bell": ("PI", None),
    "Cat": ("NC", None),
    "F": ("PI", "feasible"),
    "M": ("NC", "poor"),
    "Bell_B": ("P_B", None),
    "Bell_D": ("P_D", None),
    "Cat_B": ("NC_TILDE_B", None),
    "Cat_D": ("NC_TILDE_D", None),
    "F_B": ("P_B", "feasible"),
    "F_D": ("P_D", "feasible"),
    "M_B": ("NC_TILDE_B", "poor"),
    "M_D": ("NC_TILDE_D", "poor"),
    "F_B_tilde": ("P_B", "b_feasible"),
    "M_B_tilde": ("NC_TILDE_B", "b_poor"),
}

FAMILY_NAMES = tuple(FAMILY_CODES)
# partition family -> the polynomial that counts its members
COUNTING_POLY = {code: name for name, (code, flag) in FAMILY_CODES.items() if flag is None}


def family(name: str, n: int) -> BiPoly:
    """Canonical polynomial of a named family: its closed formula in
    ``CLOSED``, which takes time polynomial in n."""
    if n < 0:
        raise ValueError("need n >= 0")
    if name not in CLOSED:
        raise ValueError(f"unknown family {name!r}")
    return CLOSED[name](n)


# ---------------------------------------------------------------------------
# enumeration route


def enumerated_family(name: str, n: int) -> BiPoly:
    """Statistics summed over the actual block structures (desk scale only)."""
    from .core import classify, unlabeled_shape
    from .families import family_ground, family_shapes

    if name not in FAMILY_CODES:
        raise ValueError(f"unknown family {name!r}")
    code, flag = FAMILY_CODES[name]
    ground = family_ground(code, n)
    mirrored = ground.kind != "A"
    total = BiPoly.zero()
    for blocks in family_shapes(code, n):
        p = unlabeled_shape(ground, blocks)
        if flag is not None and not getattr(classify(p), flag):
            continue
        arcs = len(p.arcs())
        covs = len(p.cover_arcs())
        if mirrored:
            arcs //= 2
            covs //= 2
        if flag is not None:
            total = total + BiPoly.term(1, arcs)
        else:
            total = total + BiPoly.term(1, arcs - covs, covs)
    return total


def sequence(name: str, n: int) -> int:
    """The integer sequence of a family evaluated at x = y = 1."""
    return family(name, n).eval_int(1, 1)
