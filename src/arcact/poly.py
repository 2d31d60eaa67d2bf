"""Exact bivariate integer polynomials and the named counting polynomials.

Every named family can be computed three ways:

* ``transfer_family`` - a transfer recursion that builds partitions element
                        by element and never consults a closed formula; all
                        of them run on one driver, ``_transfer``;
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

from functools import lru_cache
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
    def x() -> "BiPoly":
        return BiPoly({(1, 0): 1})

    @staticmethod
    def y() -> "BiPoly":
        return BiPoly({(0, 1): 1})

    @staticmethod
    def term(c: int, dx: int, dy: int = 0) -> "BiPoly":
        return BiPoly({(dx, dy): c})

    def __eq__(self, other):
        if isinstance(other, int):
            other = BiPoly.const(other)
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

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

    def __rsub__(self, other):
        return (-self) + other

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


X = BiPoly.x()
Y = BiPoly.y()
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


def central_binomial(n: int) -> int:
    if n < 0:
        raise ValueError("need n >= 0")
    return comb(2 * n, n)


_TRIANGLES = {
    "stirling2": stirling2,
    "assoc_stirling2": assoc_stirling2,
    "narayana": narayana,
    "whitney2_B": whitney2_B,
    "binomial": comb,
}
_SEQUENCES = {"catalan": catalan, "central_binomial": central_binomial}


def number_tables(kind: str, n: int, k: int = 0) -> int:
    """Entry (n, k) of a number triangle, or term n of a sequence (k unused).

    Only the binomial table admits k > n."""
    if kind in _SEQUENCES:
        return _SEQUENCES[kind](n)
    if kind not in _TRIANGLES:
        raise ValueError(f"unknown number table {kind!r}")
    if n < 0 or k < 0 or (k > n and kind != "binomial"):
        raise ValueError(f"indices ({n},{k}) out of range")
    return _TRIANGLES[kind](n, k)


# ---------------------------------------------------------------------------
# transfer recursions
#
# Partitions are built by inserting elements in increasing order (interval
# grounds A) or in mirrored pairs working outward from the centre (grounds
# B and D).  Each step either opens a new block (pair) or attaches to an
# existing one; an attachment contributes y when it extends the element
# placed in the previous step (a cover arc) and x otherwise.  The noncrossing
# variants additionally retire every attachment point that the new arc
# covers.  The recursions are independent of any closed formula.


def _transfer(start, step, n: int) -> dict:
    """The states after n insertions, each with the polynomial of the ways to
    reach it.  ``step(i, state, p)`` yields ``(next_state, polynomial)`` for
    every way to insert element (pair) i into ``state`` reached with ``p``."""
    states = {start: ONE}
    for i in range(1, n + 1):
        new = {}
        for state, p in states.items():
            for nxt, q in step(i, state, p):
                new[nxt] = new[nxt] + q if nxt in new else q
        states = new
    return states


def _total(states: dict, keep=lambda state: True) -> BiPoly:
    return sum((p for s, p in states.items() if keep(s)), BiPoly.zero())


@lru_cache(maxsize=None)
def _bell_bivariate(n: int) -> BiPoly:
    def step(i, k, p):  # k: number of blocks
        yield k + 1, p
        if i >= 2:
            yield k, p * Y  # join the block of the previous element
            if k >= 2:
                yield k, p * X * (k - 1)

    return _total(_transfer(0, step, n))


@lru_cache(maxsize=None)
def _cat_bivariate(n: int) -> BiPoly:
    def step(i, r, p):  # r: number of attachment points not under an arc
        yield r + 1, p
        for j in range(1, r + 1):
            yield j, p * (Y if j == r else X)

    return _total(_transfer(0, step, n))


@lru_cache(maxsize=None)
def _bellx_bivariate(n: int, has_zero: bool) -> BiPoly:
    def step(i, e, p):  # e: number of attachment ends
        yield e + 2, p
        hot = has_zero or i >= 2
        if hot and e >= 1:
            yield e, p * Y
            if e >= 2:
                yield e, p * X * (e - 1)

    return _total(_transfer(1 if has_zero else 0, step, n))


# Slot alphabets for the noncrossing mirrored recursion.  A slot records the
# live attachment ends at one absolute value: '+' a positive end, '-' a
# negative end, '2' both ends of a still-singleton mirrored pair.


@lru_cache(maxsize=None)
def _catx_bivariate(n: int, has_zero: bool) -> BiPoly:
    def step(i, s, p):
        yield s + ("2",), p
        for j, slot in enumerate(s):
            if slot in ("+", "2"):
                # a positive-side join covers exactly the ends of larger
                # absolute value; the negative twin survives
                weight = Y if j == len(s) - 1 else X
                rest = ("-",) if slot == "2" else ()
                yield s[:j] + rest + ("+",), p * weight
            if slot in ("-", "2"):
                # a negative-side join spans the centre: the two new
                # mirrored arcs cover every other live end
                yield ("+",), p * X

    return _total(_transfer(("+",) if has_zero else (), step, n))


@lru_cache(maxsize=None)
def _feasible_poly(n: int) -> BiPoly:
    def step(i, s, p):  # s: (singleton blocks, larger blocks)
        s1, s2 = s
        yield (s1 + 1, s2), p
        if s1:
            yield (s1 - 1, s2 + 1), p * X * s1
        if s2:
            yield (s1, s2), p * X * s2

    return _total(_transfer((0, 0), step, n), lambda s: s[0] == 0)


@lru_cache(maxsize=None)
def _motzkin_poly(n: int) -> BiPoly:
    def step(i, r, p):  # r: open singleton blocks not under an arc
        yield r + 1, p
        for j in range(1, r + 1):
            yield j - 1, p * X

    return _total(_transfer(0, step, n))


@lru_cache(maxsize=None)
def _feasiblex_poly(n: int, has_zero: bool) -> tuple[BiPoly, BiPoly]:
    """Mirrored feasible counts; returns (zero block grown, any zero block).

    The first component requires the central block to have been extended
    (so every block has at least two elements); the second allows a bare
    central block, which is the B-feasible relaxation.  Without a central
    element both components agree.
    """

    def step(i, s, p):  # s: (singleton pairs, grown pairs, centre grown)
        p1, p2, z = s
        yield (p1 + 1, p2, z), p
        if p1:
            yield (p1 - 1, p2 + 1, z), p * X * (2 * p1)
        if p2:
            yield (p1, p2, z), p * X * (2 * p2)
        if has_zero:
            yield (p1, p2, 1), p * X

    states = _transfer((0, 0, 0), step, n)
    strict = _total(states, lambda s: s[0] == 0 and (s[2] or not has_zero))
    return strict, _total(states, lambda s: s[0] == 0)


@lru_cache(maxsize=None)
def _motzkinx_poly(n: int) -> BiPoly:
    # Poor mirrored noncrossing: a join fills both blocks of a pair, so the
    # pair retires on use; the central block is never extended.  Only the
    # number of live singleton pairs matters.
    def step(i, r, p):
        yield r + 1, p
        for j in range(r):
            yield j, p * X  # positive-side join of pair j
            yield 0, p * X  # negative-side join spans the centre

    return _total(_transfer(0, step, n))


@lru_cache(maxsize=None)
def _motzkinx_tilde_poly(n: int) -> BiPoly:
    # B-poor variant: the central block may be extended exactly once.
    def step(i, s, p):
        yield s + ("2",), p
        for j, slot in enumerate(s):
            yield s[:j], p * X  # positive-side (or central) join
            if slot != "Z":
                yield (), p * X  # negative-side join spans the centre

    return _total(_transfer(("Z",), step, n))


# name -> transfer recursion, for every named family
_TRANSFER = {
    "Bell": _bell_bivariate,
    "Cat": _cat_bivariate,
    "F": _feasible_poly,
    "M": _motzkin_poly,
    "Bell_B": lambda n: _bellx_bivariate(n, True),
    "Bell_D": lambda n: _bellx_bivariate(n, False),
    "Cat_B": lambda n: _catx_bivariate(n, True),
    "Cat_D": lambda n: _catx_bivariate(n, False),
    "F_B": lambda n: _feasiblex_poly(n, True)[0],
    "F_D": lambda n: _feasiblex_poly(n, False)[0],
    "M_B": _motzkinx_poly,
    "M_D": _motzkinx_poly,
    "F_B_tilde": lambda n: _feasiblex_poly(n, True)[1],
    "M_B_tilde": _motzkinx_tilde_poly,
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
    from .core import classify, unlabeled
    from .families import family_ground, family_shapes

    if name not in FAMILY_CODES:
        raise ValueError(f"unknown family {name!r}")
    code, flag = FAMILY_CODES[name]
    ground = family_ground(code, n)
    mirrored = ground.kind != "A"
    total = BiPoly.zero()
    for blocks in family_shapes(code, n):
        p = unlabeled(ground, blocks)
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
