"""Linear-algebra kernels: mod-p elimination, sparse batched subduction.

The elimination is a forward-only blocked RREF on int64 arrays: each
panel updates only the rows below it that meet its pivot columns, and
the pivot rows are solved for the free columns after the last panel.
Coefficient slots, zero columns after the matrix's own, make the same
elimination give S^-1 for the pivot block S of its source rows (for the
p-adic lifting over QQ). Entries are residues in [0, p) with p < 2**31,
so the product of two entries fits in int64; the batched subduction, on
sparse rows held as sorted integer keys, also runs exactly on object
arrays: residues of a larger prime, or over QQ exact numbers, ints where
a value is integral and Fractions only where it is not. Delayed
reduction (Dumas, Giorgi and Pernet, "Dense linear algebra over
word-size prime fields", ACM TOMS 2008) keeps the arithmetic exact with
few reductions mod p: a matrix product reduces once per chunk of its
inner dimension, on float64 BLAS (`modp_matmul`), and the factorization
of a panel once every `_chunk(p)` rank-1 updates of a small int64 block.
The panel block is int64 at every prime, since numpy's float64
remainder is several times slower than the int64 one. The panel works
only on the rows that meet it.
Small matrices, and object arrays for larger moduli, take the unblocked
Gauss-Jordan elimination `modp_rref_small`, with the same pivot rule and
slots.
"""

from __future__ import annotations

import numpy as np

# There is a single numpy backend; the flag stays for environment records.
HAVE_NUMBA = False

# columns per panel of the blocked elimination; 64 * (p-1)**2 <= 2**53
# holds for p up to about 1.19e7, so one float64 product covers a panel
PANEL = 64

_FLOAT_EXACT = 1 << 53
_INT64_MAX = (1 << 63) - 1


def _chunk(p):
    """The number of rank-1 updates of the panel block between two
    reductions mod p: each update subtracts at most (p-1)**2 from an
    entry, and the block is int64 at every p < 2**31, so (2**63-1) //
    (p-1)**2 >= 2 updates stay exact. float64 would be exact for p up to
    about 9.5e7, but numpy's float64 remainder of large entries takes
    several times as long as the int64 one, and the pivot loop takes one
    of a block column and two of the pivot row at every pivot.
    """
    return _INT64_MAX // (p - 1) ** 2


def _float_product(A, B, p, chunk):
    """A @ B mod p for float64 A, B whose chunk-term dot products are exact."""
    C = None
    for lo in range(0, max(A.shape[1], 1), chunk):
        X = (A[:, lo : lo + chunk] @ B[lo : lo + chunk]).astype(np.int64) % p
        C = X if C is None else (C + X) % p
    return C


def modp_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p as an int64 array, for entries in [0, p), p < 2**31.

    A and B may be int64 or float64; the products run on float64 BLAS.
    When a PANEL-term dot product could pass 2**53, B is split into its
    16-bit halves, A @ B = (A @ B_hi) * 2**16 + A @ B_lo, and each half
    is exact over chunks of 2**53 // ((p-1) * (2**16-1)) >= 64 terms.
    """
    A = A.astype(np.float64, copy=False)
    if PANEL * (p - 1) ** 2 <= _FLOAT_EXACT:
        B = B.astype(np.float64, copy=False)
        return _float_product(A, B, p, _FLOAT_EXACT // (p - 1) ** 2)
    B = B.astype(np.int64, copy=False)
    chunk = _FLOAT_EXACT // ((p - 1) * 0xFFFF)
    lo = _float_product(A, (B & 0xFFFF).astype(np.float64), p, chunk)
    hi = _float_product(A, (B >> 16).astype(np.float64), p, chunk)
    return (hi * 0x10000 + lo) % p


# ---------------------------------------------------------------------------
# row reduction (RREF) mod p
# ---------------------------------------------------------------------------


def _factor_panel(A, src, p, r, c0, c1):
    """Pivot the columns c0..c1-1 of the rows r.. of A; A keeps its values.

    Pivoting follows the rule of `modp_rref`, applied once the panel's
    earlier pivots are eliminated from the rows. Only the rows nonzero on
    the panel can carry a pivot, so they alone are copied, into a block
    holding their values on the panel (first w columns) and their
    coefficients over the panel's pivot rows (last w), which is reduced
    Gauss-Jordan by rank-1 updates on the columns j..w+t of pivot t at
    column j. At the end the k pivot rows move, with their `src`, to rows
    r..r+k-1, and the rows there to the places they left. Returns the
    pivot columns and S^-1 mod p for the pivot block S of those rows.
    """
    w = c1 - c0
    chunk = _chunk(p)
    cand = r + np.flatnonzero(A[r:, c0:c1].any(axis=1))
    k = len(cand)
    blk = np.zeros((k, 2 * w), np.int64)
    blk[:, :w] = A[cand, c0:c1]
    # the input row of each block row; the largest int64 once a pivot row
    key = src[cand]
    cols, order = [], []
    for j in range(w):
        if len(order) == k:
            break
        f = blk[:, j] % p
        hit = np.flatnonzero(f)
        if hit.size == 0:
            continue
        b = int(hit[key[hit].argmin()])
        if key[b] == _INT64_MAX:
            continue
        t = len(order)
        key[b] = _INT64_MAX
        blk[b, w + t] = 1
        row = blk[b, j : w + t + 1] % p
        row *= pow(int(f[b]), -1, p)
        row %= p
        f[b] = 0
        blk[hit, j : w + t + 1] -= f[hit, None] * row
        blk[b, j : w + t + 1] = row
        cols.append(c0 + j)
        order.append(b)
        # entries only fall from [0, p), by at most (p-1)**2 per update:
        # exact for `chunk` updates between reductions
        if len(order) % chunk == 0:
            blk %= p
    # the pivot rows move to r..r+t-1, and the other rows there to the
    # places of the pivot rows below; the rows r.. are zero left of the panel
    t = len(order)
    piv, top = cand[order], np.arange(r, r + t)
    below = piv >= r + t
    taken = np.zeros(t, bool)
    taken[piv[~below] - r] = True
    frm = np.concatenate((piv, top[~taken]))
    to = np.concatenate((top, piv[below]))
    A[to, c0:] = A[frm, c0:]
    src[to] = src[frm]
    return cols, blk[order, w : w + t] % p


def modp_rref(A: np.ndarray, p: int, src: np.ndarray = None, slots: int = 0) -> np.ndarray:
    """In-place reduced row echelon form of int64 matrix A mod p < 2**31.

    A's entries must be residues, in [0, p), on entry: the updates fold
    their differences back into [0, p) with one conditional add of p.

    Returns the pivot column indices. Columns are scanned left to right,
    and the pivot of a column is the row first in the input among the
    rows not yet pivots that are nonzero there, which reveals the rank
    profile matrix (Dumas, Pernet and Sultan, ISSAC 2015): the pivots of
    the first k input rows are those whose source row is below k. `src`
    (an int64 index vector of length m, by default 0..m-1) moves with
    the rows, so src[:rank] names the input rows carrying pivots.

    The last `slots` columns of A, zero on input and at least the rank in
    number, are coefficient slots: they are never pivoted, and when a row
    becomes pivot t its slot t is set to 1, after which it is updated
    like any other column. Each pivot row is then the combination, with
    the coefficients in its slots, of the source rows of the pivots so
    far, so at the end A[:rank, n:n+rank] holds S^-1 mod p for the pivot
    block S of the source rows, in source order (n the columns before the
    slots).

    The elimination is blocked and runs forward only. A panel of PANEL
    columns is pivoted on its own, by rank-1 updates on a block of only
    the rows that meet it (`_factor_panel`), which gives its pivot rows
    and S^-1 for their pivot block S. One product S^-1 A reduces the
    pivot rows to the identity on the panel's pivot columns, and only the
    rows below that are nonzero at those columns are updated, on the
    columns from the panel onwards, with one more product. KM matrices
    are sparse, and the rows below stay so far longer than the rows above
    would. After the last panel the pivot rows are solved for the free
    columns, from the last panel up, one product for each panel but the
    last. Pivots, sources and the RREF are those of the unblocked
    Gauss-Jordan elimination with the same pivot rule.
    """
    if A.dtype != np.int64:
        raise TypeError("expected int64 matrix")
    m, n = A.shape
    n -= slots
    if src is None:
        src = np.arange(m, dtype=np.int64)
    piv = []
    panels = []
    r = 0
    for c0 in range(0, n, PANEL):
        if r == m:
            break
        c1 = min(n, c0 + PANEL)
        cols, Sinv = _factor_panel(A, src, p, r, c0, c1)
        if not cols:
            continue
        r0, r = r, r + len(cols)
        piv.extend(cols)
        panels.append((r0, r))
        # the slots after the first r are still zero in every row
        end = n + min(r, slots)
        if slots:
            A[np.arange(r0, r), n + np.arange(r0, r)] = 1
        # pivot rows: S^-1 times their panel-start values, the identity on
        # the panel's pivot columns
        B = modp_matmul(Sinv, A[r0:r, c0:end], p)
        A[r0:r, c0:end] = B
        # the rows below that meet the pivot columns lose their entries there
        L = A[r:, cols]
        hit = np.flatnonzero(L.any(axis=1))
        U = A[r + hit, c0:end]
        # residues minus a residue: one conditional add folds them into [0, p)
        U -= modp_matmul(L[hit], B, p)
        U += p * (U < 0)
        A[r + hit, c0:end] = U
    piv = np.asarray(piv, dtype=np.int64)
    # X, the pivot rows at the free columns, is solved from the last panel
    # up: a panel's rows lose their entries at the later pivot columns
    W = A[:, : n + min(r, slots)]
    free = np.ones(W.shape[1], bool)
    free[piv] = False
    X = W[: len(piv), free]
    for r0, r1 in reversed(panels[:-1]):
        later = piv[r1:]
        D = X[r0:r1] - modp_matmul(W[r0:r1, later], X[r1:], p)
        D += p * (D < 0)
        X[r0:r1] = D
        W[r0:r1, later] = 0
        W[r0:r1, free] = X[r0:r1]
    return piv


def modp_rref_small(A: np.ndarray, p: int, src: np.ndarray = None, slots: int = 0) -> np.ndarray:
    """`modp_rref` for a small int64 or object matrix A, reduced mod p on
    entry: the same pivots, sources, slots and RREF, in place, by unblocked
    Gauss-Jordan elimination.

    No row moves until the pivot rows go to the top at the end, so the
    pivot of a column is its first nonzero row among those not yet
    pivots: the row first in the input, `src` being increasing on entry
    (it moves with the rows as in `modp_rref`). Each pivot is a few numpy
    calls on whole columns and rows, where the blocked kernel spends
    several on every column of a panel: on a few hundred entries this is
    the faster one. Object arrays hold residues of a prime of any size.
    """
    m, n = A.shape
    n -= slots
    if src is None:
        src = np.arange(m, dtype=np.int64)
    A %= p
    free = np.ones(m, A.dtype)
    piv, rows = [], []
    for c in range(n):
        if len(piv) == m:
            break
        hit = (A[:, c] * free).nonzero()[0]
        if not hit.size:
            continue
        b = hit[0]
        free[b] = 0
        if slots:
            A[b, n + len(piv)] = 1
        row = A[b, c:] * pow(A.item(b, c), -1, p) % p
        # every row loses its entry at c; row b, a multiple of `row`, ends zero
        A[:, c:] -= A[:, c, None] * row
        A[:, c:] %= p
        A[b, c:] = row
        piv.append(c)
        rows.append(b)
    order = np.array(rows + free.nonzero()[0].tolist(), dtype=np.int64)
    A[:] = A[order]
    src[:] = src[order]
    return np.array(piv, dtype=np.int64)


# ---------------------------------------------------------------------------
# sparse batched subduction against a triangular basis
# ---------------------------------------------------------------------------


def merge_coo(keys, vals, p):
    """Sorted distinct keys with the sum of the values of each, zeros dropped.

    Values are int64 residues in [0, p) or object arrays of exact numbers
    (ints and Fractions over QQ, residues of a larger prime); p None means
    exact arithmetic. One stable argsort groups equal keys and
    `np.add.reduceat` sums each group.
    """
    if keys.size == 0:
        return keys, vals
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    vals = np.add.reduceat(vals[order], start)
    if p is not None:
        vals %= p
    nz = vals != 0
    return keys[start][nz], vals[nz]


def subduction_levels(bcols, bindptr, leadpos):
    """The level plan of a basis for `modp_subduct_batch`.

    Element k depends on element i when a non-leading term of i lies at
    k's leading column, and its level is one more than the largest level
    of the elements it depends on (0 if none). Non-leading terms lie right
    of their element's leading column, so every dependency runs from a
    smaller leading column to a larger one and the levels are the longest
    paths, found in as many sweeps as there are levels (Anderson and Saad,
    "Solving sparse triangular linear systems on parallel computers",
    1989). Returns the elements of each level as int64 arrays.
    """
    nbasis = len(leadpos)
    if nbasis == 0:
        return []
    leadrow = np.full(int(bcols.max()) + 1, -1, np.int64)
    leadrow[leadpos] = np.arange(nbasis)
    owner = np.repeat(np.arange(nbasis), bindptr[1:] - bindptr[:-1])
    hit = leadrow[bcols]
    dep = (hit >= 0) & (hit != owner)
    src, dst = owner[dep], hit[dep]
    if not src.size:
        return [np.arange(nbasis)]
    if (leadpos[src] >= leadpos[dst]).any():
        raise ValueError("a basis element has a term left of its leading column")
    # the dependencies grouped by the element that depends
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    start = np.flatnonzero(np.concatenate(([True], dst[1:] != dst[:-1])))
    level = np.zeros(nbasis, np.int64)
    while True:
        new = level.copy()
        new[dst[start]] = np.maximum.reduceat(level[src], start) + 1
        if not (new != level).any():
            break
        level = new
    return [np.flatnonzero(level == k) for k in range(int(level.max()) + 1)]


def modp_subduct_batch(keys, vals, ncols, bvals, bcols, bindptr, leadpos, leadinv,
                       levels, p):
    """Expand sparse rows in a basis with distinct leading columns.

    The rows are a COO matrix G with `ncols` columns, given by the
    distinct keys row * ncols + col of its entries, in any order, and
    their nonzero values. The basis is in CSR form (bvals/bcols/bindptr), one
    row per element, with the leading columns in ``leadpos``, the inverses
    of the leading coefficients in ``leadinv`` and the level plan of
    `subduction_levels` in ``levels``. G is held as sorted keys, and each
    level is one step over all rows at once: the entries at the level's
    leading columns give the coefficients, each coefficient is repeated
    over its element's terms, and the products are merged into G by
    `merge_coo`. The elements of a level touch none of each other's
    leading columns, so the result is that of eliminating the leading
    columns one element at a time in the order of ``leadpos``.

    Returns (ckeys, cvals, keys, vals): the coefficient matrix as sorted
    keys row * len(leadpos) + element with their values, and the remainder
    G - C B as sorted keys and values in the form of G. Values are int64
    residues mod p, or object arrays of exact numbers; p None means exact
    arithmetic over QQ, on ints where values are integral and Fractions
    where they are not (numpy's object products turn int x Fraction into
    a Fraction), and every step is reduced mod p otherwise.
    """
    nbasis = len(leadpos)
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    leadrow = np.full(ncols, -1, np.int64)
    leadrow[leadpos] = np.arange(nbasis)
    levelof = np.full(ncols, -1, np.int64)
    for k, elements in enumerate(levels):
        levelof[leadpos[elements]] = k
    ckeys, cvals = [np.zeros(0, np.int64)], [vals[:0]]
    for k in range(len(levels)):
        cols = keys % ncols
        at = np.flatnonzero(levelof[cols] == k)
        if at.size == 0:
            continue
        b = leadrow[cols[at]]
        coef = vals[at] * leadinv[b]
        if p is not None:
            coef %= p
        base = keys[at] - cols[at]  # row * ncols
        ckeys.append(base // ncols * nbasis + b)
        cvals.append(coef)
        count = bindptr[b + 1] - bindptr[b]
        e = np.repeat(np.arange(at.size), count)
        t = np.arange(e.size) + np.repeat(bindptr[b] - (np.cumsum(count) - count), count)
        terms = (-coef)[e] * bvals[t]
        keys, vals = merge_coo(
            np.concatenate((keys, base[e] + bcols[t])),
            np.concatenate((vals, terms if p is None else terms % p)),
            p,
        )
    ckeys, cvals = np.concatenate(ckeys), np.concatenate(cvals)
    order = np.argsort(ckeys, kind="stable")
    return ckeys[order], cvals[order], keys, vals
