"""Exact linear algebra over QQ and F_p.

Every rank, kernel, inverse and row selection comes from one forward
elimination with first-nonzero pivoting, kept as an `Echelon` that holds
the reduced row echelon form (RREF) on every field, and kernels are read
off it. Over a prime below 2**31 the elimination is the blocked int64
RREF from `_kernels`, which updates only the rows below each panel that
meet its pivot columns and solves the pivot rows for the free columns at
the end, or a plain Python row reduction for matrices of at most 400
entries and for larger primes. Over the rationals one of the two
runs mod word-size primes for the pivots and the source rows, trusted
once the next prime below gives the same (`_agreed_profile`). The
elimination of a prime that may be lifted carries coefficient slots,
zero columns after the matrix's own, that end as S^-1 mod p for the
source rows S at the pivot columns; a check prime carries none.
Dixon's p-adic lifting with that S^-1 and one rational reconstruction,
tried once an entry's fraction is stable, then give the exact RREF,
which is accepted only with an exact certificate that the kernel
annihilates every input row. `commuting_check` runs the exact checks of
multiplication matrices through one stacked product.

Matrices are integer arrays: int64 over a prime below 2**31 (entries in
[0, p)) and over QQ while entries stay below 2**62, Python ints
otherwise. Over QQ an array holds the numerators over one denominator,
which changes no pivot, source row or RREF. `integer_form` makes this
form from field elements, for the subduction's output and for lists from
callers, and the results keep it as `Rows`, read by `field_values`. Sparse
matrices (`Sparse`, a COO triple over a denominator) have two numpy
scatter products: S @ X and A @ X^T with a dense A. `prefix_pivots`
gives the pivot columns of every leading run of row blocks from one
incremental elimination.
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
# about where the two mod-p eliminations take the same time (20 x 20)
_SMALL_RREF = 400


def _prime_below(p):
    q = p - 2
    while not is_prime(q):
        q -= 2
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
    RREF rows keep them. Below _SMALL_RREF entries the plain Python
    elimination is the faster one: the blocked kernel spends several
    numpy calls on every column. The blocked kernel reduces M in place,
    and the RREF rows are a view of it, so the caller passes an array it
    owns.
    """
    if M.size <= _SMALL_RREF or M.dtype == object:
        R, piv, src = _rref_modp_python(M.tolist(), p, slots)
        return np.array(R, dtype=M.dtype).reshape(len(piv), M.shape[1]), piv, src
    src = np.arange(M.shape[0], dtype=np.int64)
    piv = _kernels.modp_rref(M, p, src, slots).tolist()
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
    only when one entry of X, the probe, reads as the same fraction on two
    consecutive digits, or at the last step allowed, so a lift
    reconstructs once, or twice when another entry takes over as the
    probe. It is accepted only when all of this holds:

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
    digits = []
    probe, u, mod, frac = None, 0, 1, None
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
        mod *= p
        bound = isqrt(mod // 2)
        if not kin.size:
            T, den = np.zeros(0, dtype=object), 1
        else:
            if probe is None:
                nz = np.flatnonzero(digits[0])
                probe = int(nz[-1]) if nz.size else 0
            u += int(digits[-1][probe]) * (mod // p)
            prev, frac = frac, _rational(u, mod, bound)
            if (frac is None or frac != prev) and step < steps - 1:
                continue
            U = _from_digits(digits, p)
            T, den, miss = _reconstruct(U, mod, bound, frac[1] if frac else 1)
            if miss is not None:
                probe, u = miss, int(U[miss])
                frac = _rational(u, mod, bound)
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


def _agreed_profile(A, p, slotted):
    """(p, profile): the rank profile of the integer matrix A mod the first
    prime p, counting down from the given one (`_prime_below`), that the
    next prime below repeats: the same pivots and the same sources.

    The profile is (pivots, sources), with C = S^-1 mod p when `slotted`
    (`_rank_profile`). The pivots and sources are those of the
    first-nonzero rule over QQ unless p divides a value the rule meets;
    two consecutive primes that agree are taken as the sign that neither
    did. A check prime carries no slots; when it disagrees and slots are
    needed, it is profiled again with them.
    """
    profile = _rank_profile(A, p) if slotted else _pivots_mod(A, p)
    while True:
        q = _prime_below(p)
        check = _pivots_mod(A, q)
        if check == profile[:2]:
            return p, profile
        p, profile = q, _rank_profile(A, q) if slotted else check


def _echelon_qq(A):
    """The RREF over QQ of the integer array A: the profile `_agreed_profile`
    gives from LIFT_PRIME down, lifted and certified by `_lift`. If the
    lift fails, the search goes on below that prime. The source rows are
    independent over QQ whatever the prime.
    """
    p = LIFT_PRIME
    while True:
        p, profile = _agreed_profile(A, p, True)
        E = _lift(A, p, *profile)
        if E is not None:
            return E
        p = _prime_below(p)


# ---------------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------------


def _rref_modp_python(rows, p, slots=0):
    """Plain RREF mod p; returns (reduced_rows, pivot_cols, pivot_sources).

    The last `slots` columns are coefficient slots, as in
    `_kernels.modp_rref`: never pivoted, and slot t of a row is set to 1
    when it becomes pivot t.
    """
    M = [[x % p for x in r] for r in rows]
    m = len(M)
    width = len(M[0]) if m else 0
    n = width - slots
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
        if slots:
            M[r][n + r] = 1
        inv = pow(M[r][c], p - 2, p)
        M[r] = [x * inv % p for x in M[r]]
        rowr = M[r]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                rowi = M[i]
                for j in range(c, width):
                    rowi[j] = (rowi[j] - f * rowr[j]) % p
        piv_cols.append(c)
        piv_src.append(src[r])
        r += 1
        if r == m:
            break
    return M[:r], piv_cols, piv_src


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Echelon:
    """Reduced row echelon form (RREF) of a matrix, on every field.

    `rows`, an integer array, holds the nonzero rows of the RREF as
    numerators over `den` (1 over F_p). `pivots` are the pivot columns and
    `sources` the input rows that carry them, in order.
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
    for another dtype, and an object array of Fractions over QQ.
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
            return self.A if dtype is None else self.A.astype(dtype, copy=False)
        F = np.array(field_values(self.A.ravel(), self.den, QQ), dtype=object)
        F = F.reshape(self.A.shape)
        return F if dtype is None else F.astype(dtype)


def echelon(rows, field) -> Echelon:
    """The RREF by one forward elimination with first-nonzero pivoting.

    `rows` is a list of rows of field elements or an integer array (over
    QQ numerators over any common denominator, below 2**31 int64 in
    [0, p)); it is not modified. Over QQ the elimination runs mod
    LIFT_PRIME and the RREF is lifted p-adically and certified (`_lift`).
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
    """(indices, echelon): the indices of a maximal linearly independent
    row subset, with the `Echelon` of the elimination that selected them.

    Selected by exact forward elimination with first-nonzero pivoting;
    deterministic for a given matrix.
    """
    E = echelon(rows, field)
    return sorted(E.sources), E


def _matmul_mod(A, B, p):
    """A @ B, mod p unless p is None: int64 operands mod a prime below
    2**31 by `_kernels.modp_matmul`, all else as one object-array product."""
    if p is not None and p < NUMPY_MODULUS_LIMIT and A.dtype == B.dtype == np.int64:
        return _kernels.modp_matmul(A, B, p)
    P = A.astype(object) @ B.astype(object)
    return P if p is None else P % p


def prefix_pivots(rows, sizes, field):
    """Pivot columns of the echelon of each leading run of row blocks.

    `rows` stacks blocks of `sizes` rows; entry k of the result is the
    sorted tuple of pivot columns of the rows of blocks 0..k together. One
    incremental elimination gives them all. The RREF kept so far is stored
    at its free columns only, as it is the identity at its pivots. Each
    block is reduced against it, the remainder (at the free columns) is
    eliminated on its own, and its new pivots are cleared from the kept
    rows. The new pivots are the leading columns of the remainder's span,
    which misses the old pivots, so the union is the pivot set of the
    echelon of the whole prefix.

    Over QQ this is the rank profile mod LIFT_PRIME of the integer rows,
    with no second prime and no lift. Columns independent mod p carry a
    minor that is nonzero mod p, hence over QQ, so each set holds columns
    independent on the prefix's row space over QQ; an unlucky prime only
    makes it smaller than the pivot set over QQ.
    """
    p = LIFT_PRIME if field == QQ else field.modulus
    A = _integers(rows, field) % p
    free = np.arange(A.shape[1])
    R, piv, out, first = A[:0], [], [], 0
    for size in sizes:
        B = A[first : first + size, free]
        if piv:
            B = (B - _matmul_mod(A[first : first + size, piv], R, p)) % p
        first += size
        R2, new, _ = _rref_mod(B, p)
        if new:
            if piv:
                R = (R - _matmul_mod(R[:, new], R2, p)) % p
            rest = np.ones(len(free), dtype=bool)
            rest[new] = False
            R = np.vstack([R, R2])[:, rest]
            piv += free[new].tolist()
            free = free[rest]
        out.append(tuple(sorted(piv)))
    return out


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
    entry is scattered into place by one `np.add.at`. Over QQ it runs on
    the numerators, and den is S.den * X.den.
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
    np.add.at(out, S.rows[k] * n + X.cols[pos], terms if p is None else terms % p)
    if p is not None:
        out %= p
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
    with block (k, j): float64 or int64 while the entries allow it, object
    ints otherwise, and `_kernels.modp_matmul` below 2**31.
    """
    T = np.asarray(mats)
    L, n = T.shape[:2]
    p = field.modulus
    total = _matmul_mod(np.asarray([coeffs], dtype=T.dtype), T.reshape(L, -1), p)
    is_identity = np.array_equal(total.reshape(n, n), np.eye(n, dtype=object) * den)

    tmax = int(np.abs(T).max())
    bound = n * tmax * tmax
    small = is_small_prime(field) or (p is None and bound < _INT64_LIMIT)
    T = T.astype(np.int64 if small else object)
    V, H = T.reshape(L * n, n), T.transpose(1, 0, 2).reshape(n, L * n)
    P = _matmul_exact(V, H, bound) if small and p is None else _matmul_mod(V, H, p)
    P = P.reshape(L, n, L, n)
    differ = (P != P.transpose(2, 1, 0, 3)).any(axis=(1, 3))
    pairs = np.argwhere(np.triu(differ, 1))
    return is_identity, (tuple(pairs[0].tolist()) if pairs.size else None)


def first_independent_columns(rows, field, count=None):
    """The leftmost `count` (default all) independent column indices.

    The pivot columns of any echelon form are exactly these. Over QQ they
    are the pivots of the profile `_agreed_profile` takes without slots,
    with no lifting: columns independent mod p are independent over QQ.
    """
    if field != QQ:
        return list(echelon(rows, field).pivots[:count])
    if len(rows) == 0:
        return []
    _, (piv, _) = _agreed_profile(_integers(rows, QQ), LIFT_PRIME, False)
    return piv[:count]
