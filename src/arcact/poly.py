"""Exact bivariate integer polynomials and the named counting polynomials.

Every named family can be computed three ways:

* ``family``          - the canonical route (closed formula where one exists,
                        otherwise the transfer recursion);
* ``transfer_family`` - a transfer recursion that builds partitions element
                        by element and never consults a closed formula;
* ``enumerated_family`` - a literal sum of statistics over the block
                        structures produced by the enumeration module.

The three routes agree wherever they are all defined; the identity runner
exploits that independence.
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
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = BiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return BiPoly({k: v * other for k, v in self.coeffs.items()})
        out = {}
        for (a, b), u in self.coeffs.items():
            for (c, d), v in other.coeffs.items():
                key = (a + c, b + d)
                out[key] = out.get(key, 0) + u * v
        return BiPoly(out)

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
        return BiPoly({(dx, dy): v * c**dx for (dx, dy), v in self.coeffs.items()})

    def subst_y_diag(self) -> "BiPoly":
        """Substitute y -> x."""
        out = {}
        for (dx, dy), v in self.coeffs.items():
            key = (dx + dy, 0)
            out[key] = out.get(key, 0) + v
        return BiPoly(out)

    def degree_x(self) -> int:
        return max((dx for dx, _ in self.coeffs), default=0)

    def coefficient(self, dx: int, dy: int = 0) -> int:
        return self.coeffs.get((dx, dy), 0)

    def _ordered(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (dx, dy), c in self._ordered():
            factors = []
            if dx:
                factors.append("x" if dx == 1 else f"x^{dx}")
            if dy:
                factors.append("y" if dy == 1 else f"y^{dy}")
            if not factors:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(head + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def latex(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (dx, dy), c in self._ordered():
            factors = []
            if dx:
                factors.append("x" if dx == 1 else f"x^{{{dx}}}")
            if dy:
                factors.append("y" if dy == 1 else f"y^{{{dy}}}")
            if not factors:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c))
                parts.append(head + " ".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"BiPoly({self})"


X = BiPoly.x()
Y = BiPoly.y()
ONE = BiPoly.const(1)


# ---------------------------------------------------------------------------
# number tables

NUMBER_KINDS = (
    "stirling2",
    "assoc_stirling2",
    "narayana",
    "whitney2_B",
    "catalan",
    "binomial",
    "central_binomial",
)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n < 0 or k < 0:
        raise ValueError(f"indices ({n},{k}) out of range")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def assoc_stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k blocks, all of size at least two."""
    if n < 0 or k < 0:
        raise ValueError(f"indices ({n},{k}) out of range")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or 2 * k > n:
        return 0
    return k * assoc_stirling2(n - 1, k) + (n - 1) * assoc_stirling2(n - 2, k - 1)


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


@lru_cache(maxsize=None)
def whitney2_B(n: int, k: int) -> int:
    """Signed-partition block counts: mirror-closed structures on {-n..n}
    with 2k+1 blocks."""
    if n < 0 or k < 0:
        raise ValueError(f"indices ({n},{k}) out of range")
    if n == 0:
        return 1 if k == 0 else 0
    if k > n:
        return 0
    if k == 0:
        return whitney2_B(n - 1, 0)
    return (2 * k + 1) * whitney2_B(n - 1, k) + whitney2_B(n - 1, k - 1)


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("need n >= 0")
    return comb(2 * n, n) // (n + 1)


def central_binomial(n: int) -> int:
    if n < 0:
        raise ValueError("need n >= 0")
    return comb(2 * n, n)


def _check_triangle(n: int, k: int):
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"indices ({n},{k}) out of range")


def number_tables(kind: str, n: int, k: int = 0) -> int:
    if kind == "stirling2":
        _check_triangle(n, k)
        return stirling2(n, k)
    if kind == "assoc_stirling2":
        _check_triangle(n, k)
        return assoc_stirling2(n, k)
    if kind == "narayana":
        _check_triangle(n, k)
        return narayana(n, k)
    if kind == "whitney2_B":
        _check_triangle(n, k)
        return whitney2_B(n, k)
    if kind == "catalan":
        return catalan(n)
    if kind == "binomial":
        if n < 0 or k < 0:
            raise ValueError(f"indices ({n},{k}) out of range")
        return comb(n, k)
    if kind == "central_binomial":
        return central_binomial(n)
    raise ValueError(f"unknown number table {kind!r}")


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


@lru_cache(maxsize=None)
def _bell_bivariate(n: int) -> BiPoly:
    states = {0: ONE}  # key: number of blocks
    for i in range(1, n + 1):
        new: dict[int, BiPoly] = {}

        def put(k, p):
            new[k] = new.get(k, BiPoly.zero()) + p

        for k, p in states.items():
            put(k + 1, p)
            if i >= 2:
                put(k, p * Y)  # join the block of the previous element
                if k >= 2:
                    put(k, p * X * (k - 1))
        states = new
    return sum(states.values(), BiPoly.zero())


@lru_cache(maxsize=None)
def _cat_bivariate(n: int) -> BiPoly:
    states = {0: ONE}  # key: number of attachment points not under an arc
    for i in range(1, n + 1):
        new: dict[int, BiPoly] = {}

        def put(r, p):
            new[r] = new.get(r, BiPoly.zero()) + p

        for r, p in states.items():
            put(r + 1, p)
            for j in range(1, r + 1):
                put(j, p * (Y if j == r else X))
        states = new
    return sum(states.values(), BiPoly.zero())


@lru_cache(maxsize=None)
def _bellx_bivariate(n: int, has_zero: bool) -> BiPoly:
    states = {1 if has_zero else 0: ONE}  # key: number of attachment ends
    for i in range(1, n + 1):
        new: dict[int, BiPoly] = {}

        def put(e, p):
            new[e] = new.get(e, BiPoly.zero()) + p

        for e, p in states.items():
            put(e + 2, p)
            hot = has_zero or i >= 2
            if hot and e >= 1:
                put(e, p * Y)
                if e >= 2:
                    put(e, p * X * (e - 1))
        states = new
    return sum(states.values(), BiPoly.zero())


# Slot alphabets for the noncrossing mirrored recursion.  A slot records the
# live attachment ends at one absolute value: '+' a positive end, '-' a
# negative end, '2' both ends of a still-singleton mirrored pair.


@lru_cache(maxsize=None)
def _catx_bivariate(n: int, has_zero: bool) -> BiPoly:
    start = ("+",) if has_zero else ()
    states = {start: ONE}
    for i in range(1, n + 1):
        new: dict[tuple, BiPoly] = {}

        def put(s, p):
            new[s] = new.get(s, BiPoly.zero()) + p

        for s, p in states.items():
            put(s + ("2",), p)
            for j, slot in enumerate(s):
                if slot in ("+", "2"):
                    # a positive-side join covers exactly the ends of larger
                    # absolute value; the negative twin survives
                    weight = Y if j == len(s) - 1 else X
                    rest = ("-",) if slot == "2" else ()
                    put(s[:j] + rest + ("+",), p * weight)
                if slot in ("-", "2"):
                    # a negative-side join spans the centre: the two new
                    # mirrored arcs cover every other live end
                    put(("+",), p * X)
        states = new
    return sum(states.values(), BiPoly.zero())


@lru_cache(maxsize=None)
def _feasible_poly(n: int) -> BiPoly:
    states = {(0, 0): ONE}  # (singleton blocks, larger blocks)
    for i in range(1, n + 1):
        new: dict[tuple, BiPoly] = {}

        def put(s, p):
            new[s] = new.get(s, BiPoly.zero()) + p

        for (s1, s2), p in states.items():
            put((s1 + 1, s2), p)
            if s1:
                put((s1 - 1, s2 + 1), p * X * s1)
            if s2:
                put((s1, s2), p * X * s2)
        states = new
    return sum((p for (s1, _), p in states.items() if s1 == 0), BiPoly.zero())


@lru_cache(maxsize=None)
def _motzkin_poly(n: int) -> BiPoly:
    states = {0: ONE}  # key: open singleton blocks not under an arc
    for i in range(1, n + 1):
        new: dict[int, BiPoly] = {}

        def put(r, p):
            new[r] = new.get(r, BiPoly.zero()) + p

        for r, p in states.items():
            put(r + 1, p)
            for j in range(1, r + 1):
                put(j - 1, p * X)
        states = new
    return sum(states.values(), BiPoly.zero())


@lru_cache(maxsize=None)
def _feasiblex_poly(n: int, has_zero: bool) -> tuple[BiPoly, BiPoly]:
    """Mirrored feasible counts; returns (zero block grown, any zero block).

    The first component requires the central block to have been extended
    (so every block has at least two elements); the second allows a bare
    central block, which is the B-feasible relaxation.  Without a central
    element both components agree.
    """
    states = {(0, 0, 0): ONE}  # (singleton pairs, grown pairs, centre grown)
    for i in range(1, n + 1):
        new: dict[tuple, BiPoly] = {}

        def put(s, p):
            new[s] = new.get(s, BiPoly.zero()) + p

        for (p1, p2, z), p in states.items():
            put((p1 + 1, p2, z), p)
            if p1:
                put((p1 - 1, p2 + 1, z), p * X * (2 * p1))
            if p2:
                put((p1, p2, z), p * X * (2 * p2))
            if has_zero:
                put((p1, p2, 1), p * X)
        states = new
    strict = sum(
        (p for (p1, _, z), p in states.items() if p1 == 0 and (z or not has_zero)),
        BiPoly.zero(),
    )
    relaxed = sum((p for (p1, _, _), p in states.items() if p1 == 0), BiPoly.zero())
    return strict, relaxed


@lru_cache(maxsize=None)
def _motzkinx_poly(n: int) -> BiPoly:
    # Poor mirrored noncrossing: a join fills both blocks of a pair, so the
    # pair retires on use; the central block is never extended.  Only the
    # number of live singleton pairs matters.
    states = {0: ONE}
    for i in range(1, n + 1):
        new: dict[int, BiPoly] = {}

        def put(r, p):
            new[r] = new.get(r, BiPoly.zero()) + p

        for r, p in states.items():
            put(r + 1, p)
            for j in range(r):
                put(j, p * X)  # positive-side join of pair j
                put(0, p * X)  # negative-side join spans the centre
        states = new
    return sum(states.values(), BiPoly.zero())


@lru_cache(maxsize=None)
def _motzkinx_tilde_poly(n: int) -> BiPoly:
    # B-poor variant: the central block may be extended exactly once.
    states: dict[tuple, BiPoly] = {("Z",): ONE}
    for i in range(1, n + 1):
        new: dict[tuple, BiPoly] = {}

        def put(s, p):
            new[s] = new.get(s, BiPoly.zero()) + p

        for s, p in states.items():
            put(s + ("2",), p)
            for j, slot in enumerate(s):
                put(s[:j], p * X)  # positive-side (or central) join
                if slot != "Z":
                    put((), p * X)  # negative-side join spans the centre
        states = new
    return sum(states.values(), BiPoly.zero())


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


def transfer_family(name: str, n: int) -> BiPoly:
    """The transfer-recursion route for every named family."""
    if n < 0:
        raise ValueError("need n >= 0")
    if name == "Bell":
        return _bell_bivariate(n)
    if name == "Cat":
        return _cat_bivariate(n)
    if name == "Bell_B":
        return _bellx_bivariate(n, True)
    if name == "Bell_D":
        return _bellx_bivariate(n, False)
    if name == "Cat_B":
        return _catx_bivariate(n, True)
    if name == "Cat_D":
        return _catx_bivariate(n, False)
    if name == "F":
        return _feasible_poly(n)
    if name == "M":
        return _motzkin_poly(n)
    if name == "F_B":
        return _feasiblex_poly(n, True)[0]
    if name == "F_B_tilde":
        return _feasiblex_poly(n, True)[1]
    if name == "F_D":
        return _feasiblex_poly(n, False)[0]
    if name in ("M_B", "M_D"):
        return _motzkinx_poly(n)
    if name == "M_B_tilde":
        return _motzkinx_tilde_poly(n)
    raise ValueError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# closed formulas


def bell_univariate(n: int) -> BiPoly:
    return sum(
        (BiPoly.term(stirling2(n, k), n - k) for k in range(0, n + 1)), BiPoly.zero()
    )


def cat_univariate(n: int) -> BiPoly:
    return sum(
        (BiPoly.term(narayana(n, k), n - k) for k in range(0, n + 1)), BiPoly.zero()
    )


def bellb_univariate(n: int) -> BiPoly:
    return sum(
        (BiPoly.term(whitney2_B(n, k), n - k) for k in range(0, n + 1)), BiPoly.zero()
    )


def feasible_closed(n: int) -> BiPoly:
    return sum(
        (BiPoly.term(assoc_stirling2(n, k), n - k) for k in range(0, n + 1)),
        BiPoly.zero(),
    )


def motzkin_closed(n: int) -> BiPoly:
    return sum(
        (BiPoly.term(catalan(k) * comb(n, 2 * k), k) for k in range(0, n // 2 + 1)),
        BiPoly.zero(),
    )


def catb_closed(n: int) -> BiPoly:
    return sum((BiPoly.term(comb(n, k) ** 2, k) for k in range(0, n + 1)), BiPoly.zero())


def catd_closed(n: int) -> BiPoly:
    if n == 0:
        return ONE
    return sum(
        (BiPoly.term(comb(n - 1, k) * comb(n, k), k) for k in range(0, n)),
        BiPoly.zero(),
    )


def motzkinb_closed(n: int) -> BiPoly:
    return sum(
        (
            BiPoly.term(comb(2 * k, k) * comb(n, 2 * k), k)
            for k in range(0, n // 2 + 1)
        ),
        BiPoly.zero(),
    )


def motzkinb_tilde_closed(n: int) -> BiPoly:
    return sum(
        (
            BiPoly.term(comb(n, k) * comb(n + 1 - k, k), k)
            for k in range(0, (n + 1) // 2 + 1)
        ),
        BiPoly.zero(),
    )


def feasibleb_tilde_closed(n: int) -> BiPoly:
    return sum(
        (
            comb(n, k) * feasible_closed(k).scale_x(2) * BiPoly.term(1, n - k)
            for k in range(0, n + 1)
        ),
        BiPoly.zero(),
    )


def family(name: str, n: int) -> BiPoly:
    """Canonical polynomial of a named family.

    Bivariate families use the transfer recursion; univariate families use
    their closed formulas (except F_B, which has none).
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if name in ("Bell", "Cat", "Bell_B", "Bell_D", "Cat_B", "Cat_D", "F_B"):
        return transfer_family(name, n)
    if name == "F":
        return feasible_closed(n)
    if name == "M":
        return motzkin_closed(n)
    if name == "F_D":
        return feasible_closed(n).scale_x(2)
    if name == "F_B_tilde":
        return feasibleb_tilde_closed(n)
    if name in ("M_B", "M_D"):
        return motzkinb_closed(n)
    if name == "M_B_tilde":
        return motzkinb_tilde_closed(n)
    raise ValueError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# enumeration route


def enumerated_family(name: str, n: int) -> BiPoly:
    """Statistics summed over the actual block structures (desk scale only)."""
    from .core import classify, ground_a, ground_b, ground_d, unlabeled
    from .families import family_shapes

    if name not in FAMILY_CODES:
        raise ValueError(f"unknown family {name!r}")
    code, flag = FAMILY_CODES[name]
    ground = {"A": ground_a, "B": ground_b, "D": ground_d}[
        "A" if code in ("PI", "NC") else ("B" if code.endswith("_B") or code == "P_B" else "D")
    ](n)
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
