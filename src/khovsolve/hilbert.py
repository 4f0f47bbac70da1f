"""Hilbert function, series numerator, regularity and degree.

The Hilbert function of the coordinate ring is HF(d) = |d.A|. Writing the
Hilbert series as HS(u) = P(u)/(1-u)^(n+1), the numerator coefficients are
recovered by the finite difference p_k = sum_j (-1)^j C(n+1,j) HF(k-j).
The Hilbert regularity is b - n for b the top exponent of P, and the
degree of the variety is P(1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .khov import Parameterization, graded_support

__all__ = [
    "HilbertData",
    "hilbert_function",
    "numerator_from_hf",
    "hilbert_numerator",
    "hilbert_regularity",
    "variety_degree",
    "EquationCountMismatch",
    "regularity_bound",
    "grassmannian_closed_forms",
]


@dataclass(frozen=True)
class HilbertData:
    hf: tuple  # HF(0..Dmax)
    numerator: tuple  # coefficients c_a..c_b, c_b nonzero (or (0,) for zero)
    a: int
    b: int
    n: int
    certified: bool

    @property
    def hreg(self) -> int:
        return self.b - self.n

    @property
    def degree(self) -> int:
        return sum(self.numerator)


def hilbert_function(par: Parameterization, d: int) -> int:
    return len(graded_support(par, d))


def numerator_from_hf(hf, n: int) -> HilbertData:
    """Numerator of HS(u) = P(u)/(1-u)^(n+1) from HF values.

    `hf` lists HF(0..Dmax). Certification is heuristic: the coefficient
    sequence must end with a run of at least n+2 zeros inside the
    computed range (the window exceeds the denominator degree, so a
    polynomial numerator cannot hide further terms that close).
    """
    hf = tuple(int(x) for x in hf)
    dmax = len(hf) - 1
    if dmax < n + 2:
        raise ValueError(
            f"need HF values through degree {n + 2}, got only {dmax}"
        )
    p = []
    for k in range(dmax + 1):
        s = 0
        for j in range(min(k, n + 1) + 1):
            s += (-1) ** j * comb(n + 1, j) * hf[k - j]
        p.append(s)
    b = max((k for k in range(dmax + 1) if p[k]), default=0)
    a = min((k for k in range(dmax + 1) if p[k]), default=0)
    certified = dmax - b >= n + 2
    if not certified:
        warnings.warn(
            f"Hilbert numerator not certified: top exponent {b} leaves a "
            f"trailing zero window of {dmax - b} < {n + 2}; "
            f"recompute with a larger Dmax",
            stacklevel=2,
        )
    return HilbertData(hf, tuple(p[a : b + 1]) or (0,), a, b, n, certified)


def hilbert_numerator(par: Parameterization, Dmax: int) -> HilbertData:
    n = par.n
    if Dmax < n + 2:
        raise ValueError(f"Dmax must be at least n + 2 = {n + 2}, got {Dmax}")
    hf = [hilbert_function(par, d) for d in range(Dmax + 1)]
    return numerator_from_hf(hf, n)


def hilbert_regularity(hd: HilbertData) -> int:
    if not hd.certified:
        warnings.warn(
            "Hilbert data is uncertified; the regularity value may change "
            "if higher numerator terms exist",
            stacklevel=2,
        )
    return hd.hreg


def variety_degree(hd: HilbertData) -> int:
    if not hd.certified:
        warnings.warn("Hilbert data is uncertified", stacklevel=2)
    return hd.degree


class EquationCountMismatch(ValueError):
    """Raised when the equation count differs from the variety dimension.

    The regularity bound below is only proved for exactly n equations;
    callers should fall back to an adaptive degree search.
    """

    def __init__(self, n_equations, n):
        super().__init__(
            f"regularity bound needs exactly n = {n} equations, got "
            f"{n_equations}; use adaptive degree search"
        )
        self.n_equations = n_equations
        self.n = n


def regularity_bound(hreg: int, degrees, n=None) -> int:
    """Sum of the equation degrees plus the Hilbert regularity.

    Every degree at or above the bound is in the regularity set of the
    ideal; the solver works one degree higher.
    """
    degrees = tuple(degrees)
    if n is not None and len(degrees) != n:
        raise EquationCountMismatch(len(degrees), n)
    return sum(degrees) + hreg


def grassmannian_closed_forms(k: int, m: int):
    """Hilbert polynomial evaluator and Hilbert regularity of Gr(k,m).

    HP(t) = [1! 2! ... (k-1)! / ((m-k)! ... (m-1)!)] *
            prod_{i=1..k} (t+i)(t+i+1)...(t+i+m-k-1),
    evaluated exactly with Fractions; the regularity is -m + 1.
    """
    if not (1 <= k < m):
        raise ValueError(f"need 1 <= k < m, got k={k}, m={m}")
    prefactor = Fraction(1)
    for i in range(1, k):
        prefactor *= factorial(i)
    for i in range(m - k, m):
        prefactor /= factorial(i)

    def hp(t: int) -> int:
        val = prefactor
        for i in range(1, k + 1):
            for j in range(m - k):
                val *= t + i + j
        if val.denominator != 1:
            raise AssertionError(f"non-integer Hilbert value at t={t}")
        return int(val)

    return hp, -m + 1
