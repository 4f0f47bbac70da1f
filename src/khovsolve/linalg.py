"""Exact linear algebra over QQ and F_p.

Every rank, kernel, inverse and row selection comes from one forward
elimination, kept as an `Echelon` that holds the reduced row echelon
form (RREF) on every field, and kernels are read off it. The pivot of
each column is the row first in the input among those not yet pivots
(`_kernels.modp_rref`), so the source rows are the first independent
rows in input order. Both eliminations live in `_kernels`: over a prime
below 2**31 the blocked int64 RREF, which updates only the rows below
each panel that meet its pivot columns and solves the pivot rows for
the free columns at the end, and an unblocked Gauss-Jordan elimination
for matrices of at most 400 entries and for the object arrays of larger
primes; `linalg` holds no elimination of its own. An RREF over the
rationals is one of the two mod LIFT_PRIME, or the next prime down
while the lift fails (`_echelon_qq`), whose coefficient slots, zero
columns after the matrix's own, end as S^-1 mod p for the source rows S
at the pivot columns. Dixon's p-adic lifting with that S^-1 gives the
exact RREF, by one rational reconstruction once a weighted sum of every
unknown reads as the same fraction on two consecutive digits (an int64
sum while unknowns * (p-1) * max weight < 2**63). Its certificate, that
the kernel annihilates every input row, proves the rank, the pivots and
the RREF over QQ; the source rows are the first independent rows mod p.
Where they are not the leading rows, `independent_rows`, which selects
the Schubert equations kept over QQ, finds the first ones over QQ from a
second echelon, of the transposed rows.
`commuting_check` runs the exact checks of multiplication matrices
through one stacked product: object ints over QQ, `_kernels.modp_matmul`
below 2**31.

Matrices are integer arrays: int64 over a prime below 2**31 (entries in
[0, p)) and over QQ while entries stay below 2**62, Python ints
otherwise. Over QQ an array holds the numerators over one denominator,
which changes no pivot, source row or RREF. `integer_form` makes this
form from field elements, for the subduction's output and for lists from
callers, and the results keep it as `Rows`, read by `field_values`;
`field_array` holds field elements for exact arithmetic on arrays, over
QQ as ints where they are integral. Sparse matrices (`Sparse`, a COO
triple over a denominator) have two numpy scatter products: S @ X and
A @ X^T with a dense A; over F_p the first reduces only the entries
its terms reach. `prefix_pivots` and `first_independent_columns` read
pivot columns off one elimination with no lift (`_pivots`), over QQ mod
LIFT_PRIME, and `first_independent_columns` once more mod the prime
below when LIFT_PRIME gives fewer columns than it asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, log2

import numpy as np

from . import _kernels
from .fields import NUMPY_MODULUS_LIMIT, QQ, PrimeField, is_prime

__all__ = [
    "SingularMatrixError",
    "Echelon",
    "echelon",
    "kernel_from_echelon",
    "kernel",
    "rank",
    "independent_rows",
    "prefix_pivots",
    "invert",
    "commuting_check",
    "matmul",
    "combine",
    "Sparse",
    "sparse",
    "dense",
    "sparse_rows",
    "combine_rows",
    "matmul_transposed",
    "Rows",
    "identity",
    "is_small_prime",
    "array_dtype",
    "first_independent_columns",
    "integer_form",
    "field_values",
    "field_array",
]


class SingularMatrixError(ValueError):
    pass


def is_small_prime(field) -> bool:
    """True when the field's matrices are int64 arrays (a prime below 2**31)."""
    return isinstance(field, PrimeField) and field.numpy_compatible


def array_dtype(field):
    """The dtype of the field's arrays: int64 below 2**31, object otherwise."""
    return np.int64 if is_small_prime(field) else object


# ---------------------------------------------------------------------------
# integer form: field elements in, field elements out
# ---------------------------------------------------------------------------

_INT64_LIMIT = 1 << 62


def integer_form(values, field):
    """(A, den): an array-like of field elements as integers over one denominator.

    Over QQ, A holds the numerators over den, the least common denominator
    of the entries: int64 when every one is below 2**62 in absolute value,
    Python ints otherwise. Over F_p, A is the array of the field's dtype
    and den is 1.
    """
    if field != QQ:
        return np.asarray(values, dtype=array_dtype(field)), 1
    V = np.asarray(values, dtype=object)
    flat = V.ravel().tolist()
    den = lcm(*(x.denominator for x in flat))
    nums = ([x.numerator for x in flat] if den == 1
            else [x.numerator * (den // x.denominator) for x in flat])
    big = max(max(nums, default=0), -min(nums, default=0))
    A = np.array(nums, dtype=np.int64 if big < _INT64_LIMIT else object)
    return A.reshape(V.shape), den


def field_values(A, den, field):
    """The entries of the 1-D integer array A over den as field elements:
    Fractions over QQ (each zero the shared QQ.zero), ints over F_p."""
    if field != QQ:
        return A.tolist()
    return [Fraction(x, den) if x else QQ.zero for x in A.tolist()]


def field_array(values, field):
    """The field elements `values` as a 1-D array for exact arithmetic.

    Over F_p the array of the field's dtype. Over QQ an object array that
    holds an int for each integral entry and the Fraction otherwise: numpy
    multiplies and sums such entries exactly, as ints wherever they stay
    integral.
    """
    if field != QQ:
        return np.asarray(values, dtype=array_dtype(field))
    return np.array(
        [x.numerator if x.denominator == 1 else x for x in values], dtype=object
    )


def _integers(rows, field):
    """`integer_form(rows, field)` without den; an int64 array is taken as
    it is (over QQ as numerators over a common denominator)."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
        return rows
    return integer_form(rows, field)[0]


# ---------------------------------------------------------------------------
# rationals: mod-p echelon, p-adic lifting, exact certificate
# ---------------------------------------------------------------------------

# the largest prime with PANEL * (p-1)**2 <= 2**53, so that every panel
# product of the blocked elimination is a single float64 BLAS call
LIFT_PRIME = 11863279

_FLOAT_EXACT = 1 << 53
_WEIGHT_PERIOD = 251
# about where the two mod-p eliminations take the same time (20 x 20)
_SMALL_RREF = 400


def _prime_below(p):
    """The largest prime below p > 2."""
    q = p - 1
    while not is_prime(q):
        q -= 1
    return q


def _rational(u, m, bound):
    """(n, d) with n = d*u mod m, |n| <= bound and 0 < d <= bound, or None.

    Wang's rational reconstruction, by the half extended Euclidean
    algorithm; with m > 2 * bound**2 the fraction is unique if it exists.
    """
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    return (r1, s1) if 0 < s1 <= bound else None


def _from_digits(digits, p):
    """sum_k digits[k] * p**k, as an object array, from int64 digit arrays."""
    # two base-p digits make one base-p**2 digit, below 2**47
    pairs = [
        digits[k] + p * digits[k + 1] if k + 1 < len(digits) else digits[k]
        for k in range(0, len(digits), 2)
    ]
    u = pairs[-1].astype(object)
    for d in reversed(pairs[:-1]):
        u = u * (p * p) + d
    return u


def _reconstruct(u, m, bound, den):
    """(T, D, None) with T = D*u mod m and |T| <= bound entrywise.

    Every entry is tried with the common denominator D first (starting
    from `den`); only an entry that fails is reconstructed on its own, and
    its denominator joins D. Returns (None, None, k) when entry k has no
    such form yet.
    """
    while True:
        t = u * den % m
        t = np.where(t > m // 2, t - m, t)
        bad = np.flatnonzero(np.abs(t) > bound)
        if not bad.size:
            return t, den, None
        k = int(bad[0])
        nd = _rational(int(u[k]), m, bound)
        if nd is None or den % nd[1] == 0 or lcm(den, nd[1]) > bound:
            return None, None, k
        den = lcm(den, nd[1])


def _matmul_exact(A, B, bound):
    """A @ B over the integers when no partial sum exceeds `bound`."""
    if bound <= _FLOAT_EXACT:
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
    return A @ B


def _rref_mod(M, p, slots=0):
    """(RREF rows, pivots, sources) of the matrix M mod p, M in [0, p).

    M is int64, or an object array for a prime above 2**31; its last
    `slots` columns are coefficient slots (`_kernels.modp_rref`), and the
    RREF rows keep them. Object arrays and matrices of at most
    _SMALL_RREF entries go to the unblocked `_kernels.modp_rref_small`,
    the faster one there: the blocked kernel spends several numpy calls
    on every column. Either reduces M in place, and the RREF rows are a
    view of it, so the caller passes an array it owns.
    """
    src = np.arange(M.shape[0], dtype=np.int64)
    small = M.size <= _SMALL_RREF or M.dtype == object
    rref = _kernels.modp_rref_small if small else _kernels.modp_rref
    piv = rref(M, p, src, slots).tolist()
    return M[: len(piv)], piv, src[: len(piv)].tolist()


def _rank_profile(A, p):
    """(pivots, sources, C) of the integer matrix A mod p: the pivot
    columns, the source rows, and C = S^-1 mod p for the source rows S at
    the pivot columns, from one elimination with min(m, n) coefficient
    slots."""
    m, n = A.shape
    M = np.zeros((m, n + min(m, n)), np.int64)
    M[:, :n] = A % p
    R, piv, src = _rref_mod(M, p, min(m, n))
    # a copy, so that M is freed
    return piv, src, R[:, n : n + len(piv)].copy()


def _pivots_mod(A, p):
    """(pivots, sources) of the integer matrix A mod p, without slots."""
    return _rref_mod((A % p).astype(np.int64, copy=False), p)[1:]


def _lift_bounds(A, piv, free, r):
    """(l1, amax, log_h2) of the integer matrix A, exactly: the largest
    row l1 norm at the pivot columns, the largest |entry| at the free
    columns, and the sum of log2 of the squared norms of the first r rows
    (at least 1 each), the Hadamard bound of `_lift`. Python ints carry
    the sums once one could pass 2**62."""
    E = np.abs(A)
    if int(E.max()) ** 2 * A.shape[1] >= _INT64_LIMIT:
        E = E.astype(object)
    log_h2 = sum(log2(max(1, s)) for s in (E[:r] * E[:r]).sum(axis=1).tolist())
    return int(E[:, piv].sum(axis=1).max()), int(E[:, free].max()), log_h2


def _lift(A, p, piv, sources, C):
    """The RREF of the integer matrix A from its profile mod p, or None.

    With S the source rows at the pivot columns and B at the free columns,
    Dixon lifting finds the p-adic digits of X = S^-1 B from C = S^-1 mod
    p, which the profile's elimination gives (`_rank_profile`), and T / D
    is rebuilt from X mod p**K by rational reconstruction. That is tried
    only when a weighted sum of all unknowns of X (weights 1 to
    _WEIGHT_PERIOD cycled; int64 while unknowns * (p-1) * max weight <
    2**63) reads as the same fraction on two consecutive digits, or at the
    last step, from that fraction's denominator; a missed entry gets one
    more weight. It is accepted only when all of this holds:

    * every lifting step divides b_k - A_P x_k by p exactly, on all rows
      of A, sources or not, so A_P X = A_F (mod p**K);
    * the entries of X right of their row's pivot have zero digits and
      are kept at 0;
    * T = D X (mod p**K), and p**K exceeds twice any |A_P T - D A_F|.

    Then A_P T = D A_F exactly, so each column of [-T; D] (at the pivot
    and free columns) is a kernel vector of A, one per free column, with
    no entry right of its free column but that column. S is invertible mod
    p, hence over QQ. So the rank over QQ is the rank mod p, the pivot
    columns are the same, and [I | T / D] is the RREF of A, kept as the
    numerators [D I | T] over D. None means that p is unlucky: its rank
    profile is not the one over QQ.
    """
    m, n = A.shape
    r = len(piv)
    if r == 0:
        return None if A.any() else Echelon(np.zeros((0, n), np.int64), (), ())
    pivset = set(piv)
    free = [c for c in range(n) if c not in pivset]
    chosen = set(sources)
    A = A[sources + [i for i in range(m) if i not in chosen]]
    AP = A[:, piv]
    if not free:  # rank n, as S is invertible: the RREF is the identity
        return Echelon(np.eye(n, dtype=np.int64), tuple(piv), tuple(sources))

    b = A[:, free]
    l1, amax, log_h2 = _lift_bounds(A, piv, free, r)
    # |b_k| stays at most max(amax, l1), and |A_P x_k| at most l1 * (p-1)
    if A.dtype == object or amax + l1 * p >= _INT64_LIMIT:
        AP, b = AP.astype(object), b.astype(object)
    steps = int((1 + log_h2 + log2(l1 + amax + 1)) / log2(p)) + 2

    right = (np.asarray(piv)[:, None] > np.asarray(free)[None, :]).ravel()
    kin, kout = np.flatnonzero(~right), np.flatnonzero(right)
    w = 1 + np.arange(kin.size, dtype=np.int64) % _WEIGHT_PERIOD
    digits = []
    u, mod, frac = 0, 1, None
    for step in range(steps):
        x = _kernels.modp_matmul(C, (b[:r] % p).astype(np.int64), p)
        flat = x.ravel()
        if flat[kout].any():
            return None
        b = b - _matmul_exact(AP, x, l1 * (p - 1))
        if (b % p).any():
            return None
        b //= p
        digits.append(flat[kin])
        u += int(w @ digits[-1]) * mod
        mod *= p
        bound = isqrt(mod // 2)
        prev, frac = frac, _rational(u % mod, mod, bound)
        if (frac is None or frac != prev) and step < steps - 1:
            continue
        U = _from_digits(digits, p)
        T, den, miss = _reconstruct(U, mod, bound, frac[1] if frac else 1)
        if miss is not None:
            w[miss] += 1
            u = int(w @ U)
            continue
        tmax = int(np.abs(T).max()) if T.size else 0
        if mod > 2 * (l1 * tmax + amax * den):
            break
    else:
        return None

    R = np.zeros((r, n), dtype=np.int64 if max(tmax, den) < _INT64_LIMIT else object)
    R[np.arange(r), piv] = den
    R[kin // len(free), np.asarray(free)[kin % len(free)]] = T
    return Echelon(R, tuple(piv), tuple(sources), den)


def _echelon_qq(A):
    """The RREF over QQ of the integer array A: the first lift (`_lift`)
    of a profile mod p (`_rank_profile`) whose certificate holds, p
    counting down from LIFT_PRIME. Its sources are the first independent
    rows mod p: independent over QQ, as S is invertible mod p."""
    p = LIFT_PRIME
    while (E := _lift(A, p, *_rank_profile(A, p))) is None:
        p = _prime_below(p)
    return E


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Echelon:
    """Reduced row echelon form (RREF) of a matrix, on every field.

    `rows`, an integer array, holds the nonzero rows of the RREF as
    numerators over `den` (1 over F_p). `pivots` are the pivot columns and
    `sources` the input rows that carry them, in order: the first
    independent rows mod p, over QQ mod the prime of the lift.
    """

    rows: np.ndarray
    pivots: tuple
    sources: tuple
    den: int = 1


@dataclass(frozen=True, eq=False)
class Rows:
    """A result matrix: the integer array A over den (1 over F_p), read-only.

    It reads as a sequence of rows of field elements: `len` is the row
    count and rows[i] is a tuple of ints over F_p and of Fractions over
    QQ (`field_values`). As an array it is A itself over F_p, copied only
    for another dtype, and over QQ an object array of Fractions or, for a
    float dtype, each numerator over den correctly rounded; `copy=False`
    refuses a conversion that needs a copy.
    """

    A: np.ndarray
    den: int
    field: object

    def __post_init__(self):
        self.A.flags.writeable = False

    def __len__(self):
        return len(self.A)

    def __getitem__(self, i):
        return tuple(field_values(self.A[i], self.den, self.field))

    def __array__(self, dtype=None, copy=None):
        if self.field != QQ:
            # A itself even for copy=True: a KM matrix copy costs 17 MB
            if copy is False and dtype is not None and dtype != self.A.dtype:
                raise ValueError(f"{self.A.dtype} to {dtype} needs a copy")
            return self.A if dtype is None else self.A.astype(dtype, copy=False)
        if copy is False:
            raise ValueError("a matrix over QQ is an array of new Fractions")
        if dtype is not None and np.dtype(dtype).kind == "f":
            # Python-int true division rounds the exact quotient once, as
            # float(Fraction) does; numpy's would round A above 2**53 first
            F = [x / self.den for x in self.A.ravel().tolist()]
            return np.array(F, dtype=dtype).reshape(self.A.shape)
        F = np.array(field_values(self.A.ravel(), self.den, QQ), dtype=object)
        F = F.reshape(self.A.shape)
        return F if dtype is None else F.astype(dtype)


def echelon(rows, field) -> Echelon:
    """The RREF by one forward elimination with input-order pivoting.

    `rows` is a list of rows of field elements or an integer array (over
    QQ numerators over any common denominator, below 2**31 int64 in
    [0, p)); it is not modified. Over QQ the RREF is lifted p-adically
    and certified from one elimination per prime tried (`_echelon_qq`).
    """
    if len(rows) == 0:
        return Echelon(np.zeros((0, 0), np.int64), (), ())
    if field == QQ:
        return _echelon_qq(_integers(rows, QQ))
    R, piv, src = _rref_mod(np.array(rows, dtype=array_dtype(field)), field.modulus)
    return Echelon(R, tuple(piv), tuple(src))


def kernel_from_echelon(E: Echelon, field, ncols):
    """Basis of the right nullspace of the matrix E came from.

    One vector per free column f in order: x_f = 1, x_pc = -R[i][f] at
    the pivot column pc of row i of the RREF R, and 0 elsewhere, as the
    `Rows` of integers over E.den.
    """
    pivset = set(E.pivots)
    free = [f for f in range(ncols) if f not in pivset]
    K = np.zeros((len(free), ncols), dtype=E.rows.dtype)
    K[np.arange(len(free)), free] = E.den
    if E.pivots:
        K[:, list(E.pivots)] = -E.rows[:, free].T
        if field.modulus is not None:
            K %= field.modulus
    return Rows(K, E.den, field)


def kernel(rows, field, ncols):
    """Basis of the right nullspace, as lists, one per free column in order."""
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    return [list(v) for v in kernel_from_echelon(echelon(rows, field), field, ncols)]


def rank(rows, field):
    return len(echelon(rows, field).pivots)


def independent_rows(rows, field):
    """(indices, echelon): the first independent rows in input order, each
    row not in the span of those before it, with the `Echelon` of `rows`.

    Over F_p they are the echelon's sources. Over QQ the sources are the
    first independent rows mod the prime of the lift, which passes over a
    row independent over QQ where that prime divides a minor deciding it.
    Unless the sources are the leading rows, the rows are read as the
    pivot columns of the transposed rows at the echelon's pivot columns
    (A = A_P R, so the rows of A and of A_P have the same dependencies),
    which the lift certifies leftmost over QQ (`_lift`). Its one caller is
    `catalog.schubert_equations` over QQ; over F_p that function keeps the
    RREF rows of `echelon` instead.
    """
    E = echelon(rows, field)
    keep = sorted(E.sources)
    if field == QQ and keep != list(range(len(keep))):
        A = _integers(rows, QQ)[:, list(E.pivots)]
        keep = list(_echelon_qq(np.ascontiguousarray(A.T)).pivots)
    return keep, E


def _matmul_mod(A, B, p):
    """A @ B, mod p unless p is None: int64 operands mod a prime below
    2**31 by `_kernels.modp_matmul`, all else as one object-array product."""
    if p is not None and p < NUMPY_MODULUS_LIMIT and A.dtype == B.dtype == np.int64:
        return _kernels.modp_matmul(A, B, p)
    P = A.astype(object) @ B.astype(object)
    return P if p is None else P % p


def _pivots(rows, field):
    """(pivots, sources) of one elimination of `rows`, with no lift: mod
    the field's prime, and over QQ of the integer rows mod LIFT_PRIME.

    Columns independent mod p carry a minor that is nonzero mod p, hence
    over QQ, so the pivot columns are independent over QQ; an unlucky
    prime, one that divides a minor that decides them, only makes them
    other than the leftmost over QQ, and fewer where it lowers the rank.
    """
    if len(rows) == 0:
        return [], []
    if field == QQ:
        return _pivots_mod(_integers(rows, QQ), LIFT_PRIME)
    return _rref_mod(np.array(rows, dtype=array_dtype(field)), field.modulus)[1:]


def prefix_pivots(rows, sizes, field):
    """Pivot columns of the echelon of each leading run of row blocks.

    `rows` stacks blocks of `sizes` rows; entry k of the result is the
    sorted tuple of pivot columns of the rows of blocks 0..k together.
    One elimination of all the rows gives them all (`_pivots`): under the
    input-order pivot rule (`_kernels.modp_rref`) the pivots of a leading
    run of rows are the pivots whose source row lies in it. Over QQ each
    set holds columns independent on the prefix's row space.
    """
    piv, src = _pivots(rows, field)
    return [tuple(sorted(c for c, s in zip(piv, src) if s < end))
            for end in np.cumsum(sizes).tolist()]


def identity(n, field):
    return [
        [field.one if i == j else field.zero for j in range(n)] for i in range(n)
    ]


def matmul(A, B, field):
    """A @ B as a list of rows; A and B are lists of rows or arrays."""
    if len(A) == 0 or len(B) == 0:
        return []
    dtype = array_dtype(field)
    A, B = np.asarray(A, dtype=dtype), np.asarray(B, dtype=dtype)
    return _matmul_mod(A, B, field.modulus).tolist()


def combine(coeffs, mats, field):
    """sum_j coeffs[j] * mats[j] for equal-shaped matrices, as an array."""
    dtype = array_dtype(field)
    stack = np.asarray(mats, dtype=dtype)
    flat = _matmul_mod(
        np.asarray([coeffs], dtype=dtype), stack.reshape(len(stack), -1), field.modulus
    )
    return flat.reshape(stack.shape[1:])


@dataclass(frozen=True)
class Sparse:
    """A sparse matrix as a COO triple over a denominator, entries in row order.

    `rows` and `cols` are int64 arrays; `vals` holds the nonzero entries
    in integer form (`integer_form`), over QQ the numerators over `den`.
    """

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    den: int = 1

    def row_starts(self):
        """The CSR row pointer: row r holds entries row_starts[r]:row_starts[r+1]."""
        counts = np.bincount(self.rows, minlength=self.shape[0])
        return np.concatenate(([0], np.cumsum(counts)))


def sparse(shape, rows, cols, vals, field) -> Sparse:
    """The `Sparse` matrix with the field elements vals[k] at (rows[k], cols[k])."""
    rows = np.asarray(rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    cols = np.asarray(cols, dtype=np.int64)[order]
    vals, den = integer_form(vals, field)
    return Sparse(tuple(shape), rows[order], cols, vals[order], den)


def dense(S: Sparse, field):
    """S as an array of field elements, with the field's zero off its entries."""
    out = np.full(S.shape, field.zero, dtype=array_dtype(field))
    out[S.rows, S.cols] = field_values(S.vals, S.den, field)
    return out


def sparse_rows(S: Sparse, keep) -> Sparse:
    """The rows `keep` of S, in increasing order, numbered from 0."""
    keep = np.asarray(keep, dtype=np.int64)
    new = np.full(S.shape[0], -1, dtype=np.int64)
    new[keep] = np.arange(len(keep))
    mask = new[S.rows] >= 0
    rows = new[S.rows[mask]]
    return Sparse((len(keep), S.shape[1]), rows, S.cols[mask], S.vals[mask], S.den)


def _exact(a, b, S: Sparse):
    """Integer arrays a, b as they are when sums of as many products of
    their entries as a row of S has entries stay in int64 (below 2**62),
    as object arrays otherwise."""
    if a.dtype == b.dtype == np.int64:
        terms = np.bincount(S.rows, minlength=1).max()
        amax, bmax = (int(np.abs(x).max(initial=0)) for x in (a, b))
        if int(terms) * amax * bmax < _INT64_LIMIT:
            return a, b
    return a.astype(object), b.astype(object)


def combine_rows(S: Sparse, X: Sparse, field):
    """(A, den): the dense product S @ X is the integer array A over den.

    Row i is sum_r S[i, r] * X[r]: every product of a coefficient and an
    entry is scattered into place by one `np.add.at`. Over F_p the terms
    are reduced before the scatter, and only the entries they reach are
    reduced after it, so the zeros of the dense output are never read.
    Over QQ it runs on the numerators, and den is S.den * X.den.
    """
    m, n = S.shape[0], X.shape[1]
    p = field.modulus
    starts = X.row_starts()
    first, count = starts[S.cols], starts[S.cols + 1] - starts[S.cols]
    k = np.repeat(np.arange(len(S.cols)), count)
    # position in X of each term: its row's first entry plus its rank
    pos = np.arange(len(k)) + np.repeat(first - (np.cumsum(count) - count), count)
    a, b = S.vals, X.vals
    if p is None:
        a, b = _exact(a, b, S)
    terms = a[k] * b[pos]
    out = np.zeros(m * n, dtype=terms.dtype)
    at = S.rows[k] * n + X.cols[pos]
    np.add.at(out, at, terms if p is None else terms % p)
    if p is not None:
        # repeated positions read and write the same reduced sum
        out[at] %= p
    return out.reshape(m, n), S.den * X.den


def matmul_transposed(A, X: Sparse, field):
    """A @ V^T for an integer array A with X.shape[1] columns and X = V / X.den:
    over QQ the numerators of A @ X^T over X.den."""
    p = field.modulus
    A = np.asarray(A, dtype=None if p is None else array_dtype(field))
    b = X.vals
    if p is None:
        A, b = _exact(A, b, X)
    W = A[:, X.cols] * b
    out = np.zeros((A.shape[0], X.shape[0]), dtype=W.dtype)
    starts = X.row_starts()
    filled = np.flatnonzero(np.diff(starts))
    if filled.size:
        # X's entries are in row order: one segment sum per nonempty row
        T = np.add.reduceat(W if p is None else W % p, starts[filled], axis=1)
        out[:, filled] = T if p is None else T % p
    return out


def invert(rows, field):
    """Exact inverse of a square matrix: the right half of the RREF of [A | I]."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    E = echelon([list(r) + e for r, e in zip(rows, identity(n, field))], field)
    if E.pivots != tuple(range(n)):
        rk = sum(pc < n for pc in E.pivots)
        raise SingularMatrixError(f"singular matrix: rank {rk} < {n}")
    return [list(row[n:]) for row in Rows(E.rows, E.den, field)]


def commuting_check(coeffs, mats, den, field):
    """Exact checks of matrices M_j = T_j / den that should commute and sum to I.

    `mats` is the L x n x n integer array of the T_j, `coeffs` are
    integers, and den is 1 over F_p. Returns (identity, pair): whether
    sum_j coeffs[j] * M_j is the identity, and the first (j, k), j < k,
    with M_j M_k != M_k M_j, or None when all commute. Every T_j T_k comes
    from one product vstack(T) @ hstack(T), whose block (j, k) is compared
    with block (k, j): mod p by `_matmul_mod`, and over QQ as object ints,
    whose entries, hundreds of bits on the solve path, pass int64 anyway.
    """
    T = np.asarray(mats)
    L, n = T.shape[:2]
    p = field.modulus
    total = _matmul_mod(np.asarray([coeffs], dtype=T.dtype), T.reshape(L, -1), p)
    is_identity = np.array_equal(total.reshape(n, n), np.eye(n, dtype=object) * den)
    V, H = T.reshape(L * n, n), T.transpose(1, 0, 2).reshape(n, L * n)
    P = _matmul_mod(V, H, p).reshape(L, n, L, n)
    differ = (P != P.transpose(2, 1, 0, 3)).any(axis=(1, 3))
    pairs = np.argwhere(np.triu(differ, 1))
    return is_identity, (tuple(pairs[0].tolist()) if pairs.size else None)


def first_independent_columns(rows, field, count=None):
    """The first `count` (default all) pivot columns of one elimination of
    `rows` (`_pivots`): the leftmost independent columns over F_p, and
    over QQ columns independent over QQ, leftmost unless LIFT_PRIME
    divides a minor that decides them.

    Over QQ, when LIFT_PRIME gives fewer than `count`, the columns are
    read once more mod the prime below: LIFT_PRIME may divide every
    minor of that size, as when it divides a common denominator that the
    integer rows carry. Columns independent mod any prime are
    independent over QQ.
    """
    piv = _pivots(rows, field)[0]
    if field == QQ and count is not None and len(piv) < count:
        piv = _pivots_mod(_integers(rows, QQ), _prime_below(LIFT_PRIME))[0]
    return piv[:count]
