"""Exact linear algebra over QQ and F_p.

Every rank, kernel and row selection comes from one forward elimination,
kept as an `Echelon`. Over the rationals it is fraction-free Bareiss on
denominator-cleared integer rows (controls coefficient blowup), and
kernels are recovered by Fraction back-substitution. Over a prime field
it is the blocked int64 RREF from `_kernels` when the modulus is below
2**31, with a plain Python row reduction as the general path; kernels are
read off the reduced rows.

Matrices are lists of rows of field elements or, over a prime below 2**31,
int64 arrays with entries in [0, p). This is the only module that tells
the two forms apart: products, linear combinations and eliminations over
a small prime run through `_kernels`, and results come back as lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import _kernels
from .fields import QQ, PrimeField

__all__ = [
    "SingularMatrixError",
    "Echelon",
    "echelon",
    "kernel_from_echelon",
    "kernel",
    "rank",
    "independent_rows",
    "invert",
    "matmul",
    "combine",
    "take_rows",
    "identity",
    "is_small_prime",
    "first_independent_columns",
]


class SingularMatrixError(ValueError):
    pass


def is_small_prime(field) -> bool:
    """True when the field's matrices are int64 arrays (a prime below 2**31)."""
    return isinstance(field, PrimeField) and field.numpy_compatible


# ---------------------------------------------------------------------------
# rationals: fraction-free elimination
# ---------------------------------------------------------------------------


def _clear_denominators(row):
    den = 1
    for x in row:
        f = Fraction(x)
        den = den * f.denominator // gcd(den, f.denominator)
    return [int(Fraction(x) * den) for x in row]


def bareiss_echelon(rows):
    """Fraction-free row echelon form of integer rows.

    Returns (echelon_rows, pivot_cols, pivot_source_indices). The source
    indices identify which input rows ended up carrying a pivot.
    """
    M = [list(r) for r in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    src = list(range(m))
    piv_cols = []
    piv_src = []
    prev = 1
    r = 0
    for c in range(n):
        pr = -1
        for i in range(r, m):
            if M[i][c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            M[r], M[pr] = M[pr], M[r]
            src[r], src[pr] = src[pr], src[r]
        pivot = M[r][c]
        rowr = M[r]
        for i in range(r + 1, m):
            rowi = M[i]
            mic = rowi[c]
            if mic == 0:
                if prev != 1:
                    for j in range(c, n):
                        rowi[j] = pivot * rowi[j] // prev
                else:
                    for j in range(c, n):
                        rowi[j] = pivot * rowi[j]
            else:
                for j in range(c, n):
                    rowi[j] = (pivot * rowi[j] - mic * rowr[j]) // prev
        prev = pivot
        piv_cols.append(c)
        piv_src.append(src[r])
        r += 1
        if r == m:
            break
    return M[:r], piv_cols, piv_src


def _kernel_from_bareiss(E, piv_cols, ncols):
    """Canonical kernel by Fraction back-substitution on echelon rows."""
    piv_set = set(piv_cols)
    basis = []
    for f in range(ncols):
        if f in piv_set:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i in reversed(range(len(piv_cols))):
            pc = piv_cols[i]
            row = E[i]
            s = Fraction(0)
            for j in range(pc + 1, ncols):
                if row[j] and x[j]:
                    s += row[j] * x[j]
            x[pc] = -s / row[pc]
        basis.append(x)
    return basis


# ---------------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------------


def _rref_modp_python(rows, p):
    """Plain RREF mod p; returns (reduced_rows, pivot_cols, pivot_sources)."""
    M = [[x % p for x in r] for r in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    src = list(range(m))
    piv_cols = []
    piv_src = []
    r = 0
    for c in range(n):
        pr = -1
        for i in range(r, m):
            if M[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            M[r], M[pr] = M[pr], M[r]
            src[r], src[pr] = src[pr], src[r]
        inv = pow(M[r][c], p - 2, p)
        M[r] = [x * inv % p for x in M[r]]
        rowr = M[r]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                rowi = M[i]
                for j in range(c, n):
                    rowi[j] = (rowi[j] - f * rowr[j]) % p
        piv_cols.append(c)
        piv_src.append(src[r])
        r += 1
        if r == m:
            break
    return M[:r], piv_cols, piv_src


def _kernel_from_rref(R, piv_cols, ncols, p):
    """Canonical kernel read off reduced rows: x_f = 1, x_pc = -R[i][f]."""
    piv_set = set(piv_cols)
    free = [f for f in range(ncols) if f not in piv_set]
    K = np.zeros((len(free), ncols), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    if piv_cols:
        K[:, list(piv_cols)] = (-np.asarray(R, dtype=np.int64)[:, free]).T % p
    return K.tolist()


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Echelon:
    """Row echelon form of a matrix, from one exact forward elimination.

    Over QQ `rows` are the fraction-free Bareiss rows of the
    denominator-cleared matrix, each divided by the gcd of its entries;
    over F_p they are the reduced rows (RREF),
    an int64 array when the modulus allows. `pivots` are the pivot
    columns and `sources` the input rows that carry them, in order.
    """

    rows: object
    pivots: tuple
    sources: tuple


def echelon(rows, field) -> Echelon:
    """One forward elimination with first-nonzero pivoting.

    `rows` is a list of rows or, over a prime field below 2**31, an int64
    array with entries in [0, p); it is not modified.
    """
    if len(rows) == 0:
        return Echelon([], (), ())
    if field == QQ:
        E, piv_cols, piv_src = bareiss_echelon([_clear_denominators(r) for r in rows])
        # primitive rows: the same row space in a fraction of the digits
        for row in E:
            g = gcd(*row)
            row[:] = [x // g for x in row]
        return Echelon(E, tuple(piv_cols), tuple(piv_src))
    if is_small_prime(field):
        A = np.array(rows, dtype=np.int64)
        src = np.arange(A.shape[0], dtype=np.int64)
        piv = _kernels.modp_rref(A, field.modulus, src)
        r = len(piv)
        return Echelon(A[:r].copy(), tuple(piv.tolist()), tuple(src[:r].tolist()))
    R, piv_cols, piv_src = _rref_modp_python(rows, field.modulus)
    return Echelon(R, tuple(piv_cols), tuple(piv_src))


def kernel_from_echelon(E: Echelon, field, ncols):
    """Basis of the right nullspace of the matrix E came from.

    One vector per free column in order, with a 1 there and 0 in the
    other free columns: the canonical basis, whichever echelon form of
    the row space E holds.
    """
    if field == QQ:
        return _kernel_from_bareiss(E.rows, E.pivots, ncols)
    return _kernel_from_rref(E.rows, E.pivots, ncols, field.modulus)


def kernel(rows, field, ncols):
    """Basis of the right nullspace, one vector per free column in order."""
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    return kernel_from_echelon(echelon(rows, field), field, ncols)


def rank(rows, field):
    return len(echelon(rows, field).pivots)


def independent_rows(rows, field, return_echelon=False):
    """Indices of a maximal linearly independent row subset.

    Selected by exact forward elimination with first-nonzero pivoting;
    deterministic for a given matrix. With `return_echelon`, the
    elimination's `Echelon` is returned too, as (indices, echelon).
    """
    E = echelon(rows, field)
    keep = sorted(E.sources)
    return (keep, E) if return_echelon else keep


def identity(n, field):
    return [
        [field.one if i == j else field.zero for j in range(n)] for i in range(n)
    ]


def matmul(A, B, field):
    """A @ B as a list of rows; A and B are lists of rows or int64 arrays."""
    if len(A) == 0 or len(B) == 0:
        return []
    if is_small_prime(field):
        return _kernels.modp_matmul(
            np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64),
            field.modulus,
        ).tolist()
    n = len(B[0])
    out = []
    for rowa in A:
        row = [field.zero] * n
        for a, rowb in zip(rowa, B):
            # truthiness: far cheaper than == zero on a Fraction
            if not a:
                continue
            for j, b in enumerate(rowb):
                if b:
                    row[j] = field.add(row[j], field.mul(a, b))
        out.append(row)
    return out


def combine(coeffs, mats, field):
    """sum_j coeffs[j] * mats[j] for equal-shaped matrices, as a list of rows."""
    if is_small_prime(field):
        stack = np.asarray(mats, dtype=np.int64)
        flat = _kernels.modp_matmul(
            np.asarray([coeffs], dtype=np.int64),
            stack.reshape(len(mats), -1), field.modulus,
        )
        return flat.reshape(stack.shape[1:]).tolist()
    out = [[field.zero] * len(mats[0][0]) for _ in mats[0]]
    for c, M in zip(coeffs, mats):
        for acc, row in zip(out, M):
            for j, x in enumerate(row):
                if x:
                    acc[j] = field.add(acc[j], field.mul(c, x))
    return out


def take_rows(rows, keep):
    """Rows `keep` of a matrix, as tuples of Python field elements."""
    if isinstance(rows, np.ndarray):
        return tuple(tuple(rows[k].tolist()) for k in keep)
    return tuple(tuple(rows[k]) for k in keep)


def invert(rows, field):
    """Exact inverse of a square matrix via Gauss-Jordan on [A | I]."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    M = [list(r) + [field.one if i == j else field.zero for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        pr = -1
        for i in range(c, n):
            if M[i][c] != field.zero:
                pr = i
                break
        if pr < 0:
            raise SingularMatrixError(f"singular at column {c}")
        M[c], M[pr] = M[pr], M[c]
        inv = field.inv(M[c][c])
        M[c] = [field.mul(x, inv) for x in M[c]]
        for i in range(n):
            if i != c and M[i][c] != field.zero:
                f = M[i][c]
                M[i] = [
                    field.sub(x, field.mul(f, y)) for x, y in zip(M[i], M[c])
                ]
    return [r[n:] for r in M]


def first_independent_columns(rows, field, count=None):
    """The leftmost `count` (default all) independent column indices.

    The pivot columns of any echelon form are exactly these.
    """
    return list(echelon(rows, field).pivots[:count])
