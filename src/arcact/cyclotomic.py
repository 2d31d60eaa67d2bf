"""Exact arithmetic in Z[zeta_p] for prime p.

Values are integer vectors in the power basis 1, zeta, ..., zeta^(p-2);
the relation 1 + zeta + ... + zeta^(p-1) = 0 reduces the top power.  The
representation is unique, so equality and rationality tests are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    """Trial division, memoised: every CycValue checks its p through here."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class CycValue:
    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if len(self.coeffs) != self.p - 1:
            raise ValueError("coefficient vector has wrong length")

    @staticmethod
    def from_int(p: int, n: int) -> "CycValue":
        return CycValue(p, (n,) + (0,) * (p - 2))

    def _check(self, other: "CycValue"):
        if self.p != other.p:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycValue.from_int(self.p, other)
        self._check(other)
        return CycValue(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycValue(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycValue.from_int(self.p, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycValue(self.p, tuple(a * other for a in self.coeffs))
        self._check(other)
        p = self.p
        raw = [0] * p  # exponents mod p
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    raw[(i + j) % p] += a * b
        top = raw[p - 1]
        return CycValue(p, tuple(raw[k] - top for k in range(p - 1)))

    __rmul__ = __mul__

    def conjugate(self) -> "CycValue":
        p = self.p
        raw = [0] * p
        for k, a in enumerate(self.coeffs):
            raw[(-k) % p] += a
        top = raw[p - 1]
        return CycValue(p, tuple(raw[k] - top for k in range(p - 1)))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for k, a in enumerate(self.coeffs):
            if not a:
                continue
            base = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
            parts.append(f"{a}*{base}" if k else str(a))
        return " + ".join(parts).replace("+ -", "- ")


def theta(p: int, t: int, scale: int = 1) -> CycValue:
    """The character t -> zeta_p^t of the additive group of F_p, times scale:
    scale * zeta^t, built in one step."""
    t %= p
    if t == p - 1:
        return CycValue(p, (-scale,) * (p - 1))
    coeffs = [0] * (p - 1)
    coeffs[t] = scale
    return CycValue(p, tuple(coeffs))
