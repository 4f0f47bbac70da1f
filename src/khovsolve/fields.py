"""Exact coefficient fields: the rationals and prime fields F_p.

Coefficients are stored as plain Python objects (`fractions.Fraction` over
the rationals, ints in ``[0, p)`` over a prime field); a field object
bundles the arithmetic so polynomial code stays field-agnostic.
"""

from __future__ import annotations

import operator
from fractions import Fraction

__all__ = ["QQ", "GF", "Rationals", "PrimeField", "is_prime"]

_MAX_MODULUS_BITS = 62

# the int64 kernels need p**2 < 2**63
NUMPY_MODULUS_LIMIT = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2**64."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers, elements are `Fraction` in lowest terms."""

    modulus = None
    zero = Fraction(0)
    one = Fraction(1)

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    @staticmethod
    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / Fraction(a)

    @staticmethod
    def div(a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(a) / b

    @staticmethod
    def from_int(n: int):
        return Fraction(n)

    @staticmethod
    def parse(text: str):
        return Fraction(text)

    @staticmethod
    def fmt(a) -> str:
        return str(Fraction(a))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


QQ = Rationals()


class PrimeField:
    """F_p for a prime p below 2**62; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {p!r}")
        if p.bit_length() > _MAX_MODULUS_BITS:
            raise ValueError(f"modulus exceeds {_MAX_MODULUS_BITS} bits: {p}")
        if not is_prime(p):
            raise ValueError(f"modulus is not prime: {p}")
        self.modulus = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def inv(self, a):
        if a % self.modulus == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.modulus}")
        return pow(a, self.modulus - 2, self.modulus)

    def div(self, a, b):
        return a * self.inv(b) % self.modulus

    def from_int(self, n: int):
        return n % self.modulus

    def parse(self, text: str):
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(int(num) % self.modulus, int(den) % self.modulus)
        return int(text) % self.modulus

    def fmt(self, a) -> str:
        return str(a % self.modulus)

    @property
    def numpy_compatible(self) -> bool:
        return self.modulus < NUMPY_MODULUS_LIMIT

    def __repr__(self):
        return f"GF({self.modulus})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("GF", self.modulus))


def GF(p: int) -> PrimeField:
    return PrimeField(p)
