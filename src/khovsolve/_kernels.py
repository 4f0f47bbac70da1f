"""Linear-algebra kernels: mod-p elimination, sparse batched subduction.

The elimination is a forward-only blocked RREF on int64 arrays: each
panel updates only the rows below it that meet its pivot columns, and
the pivot rows are solved for the free columns after the last panel.
Entries are residues in [0, p) with p < 2**31, so the product of two
entries fits in int64; the batched subduction, on sparse rows held as
sorted integer keys, also runs exactly on object arrays of field
elements. Matrix products use delayed reduction (Dumas,
Giorgi and Pernet, "Dense linear algebra over word-size prime fields",
ACM TOMS 2008): the inner dimension is cut into chunks short enough that
every dot product of a chunk is exact before a single reduction mod p.
The chunks run through float64 BLAS while chunk * (p-1)**2 <= 2**53 and
through int64 matmul while chunk * (p-1)**2 < 2**63; larger moduli go to
the generic Python path of the callers.
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


def _delayed(p):
    """(dtype, chunk): the longest exact inner dimension for modulus p."""
    bound = (p - 1) ** 2
    if bound <= _FLOAT_EXACT:
        return np.float64, _FLOAT_EXACT // bound
    return np.int64, _INT64_MAX // bound


def modp_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p as an int64 array, for entries in [0, p).

    A and B may be int64, or float64 arrays that `_delayed` selects for
    p; the result is exact either way.
    """
    dtype, chunk = _delayed(p)
    A = A.astype(dtype, copy=False)
    B = B.astype(dtype, copy=False)
    C = None
    for lo in range(0, max(A.shape[1], 1), chunk):
        X = (A[:, lo : lo + chunk] @ B[lo : lo + chunk]).astype(np.int64) % p
        C = X if C is None else (C + X) % p
    return C


# ---------------------------------------------------------------------------
# row reduction (RREF) mod p
# ---------------------------------------------------------------------------


def _factor_panel(A, src, p, r, c0, c1):
    """Pivot the columns c0..c1-1 of the rows r.. of A; A keeps its values.

    Pivoting follows the unblocked rule: the first row at or below the
    current one that is nonzero in the column, once the panel's earlier
    pivots are eliminated from it. Rows are swapped in A and src, and the
    k pivots found land in rows r..r+k-1. Returns the pivot columns and W,
    whose row for a panel pivot column holds that pivot row reduced on the
    panel (first w entries) and its coefficients over the panel's pivot
    rows as they stood at the start (last w entries), so W[pivots, w:w+k]
    = S^-1 for the pivot block S.
    """
    m = A.shape[0]
    w = c1 - c0
    dtype, _ = _delayed(p)
    r0 = r
    # panel-start values of the candidate rows, swapped along with A
    Ap = A[r0:, c0:c1].astype(dtype)
    W = np.zeros((w, 2 * w), np.int64)
    cols = []
    # columns are reduced `span` at a time: a run of columns that are zero
    # on the rows r.. costs about log2 of its length in products, and
    # span is back to 1 after each pivot
    j, span = 0, 1
    while j < w:
        b = min(w, j + span)
        R = (A[r:, c0 + j : c0 + b] - modp_matmul(Ap[r - r0 :], W[:, j:b], p)) % p
        # (column, row) of the nonzeros, first column first
        hit, at = np.nonzero(R.T)
        if hit.size == 0:
            j, span = b, 2 * span
            continue
        j, span = j + int(hit[0]), 1
        i = r + int(at[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
            src[[r, i]] = src[[i, r]]
            Ap[[r - r0, i - r0]] = Ap[[i - r0, r - r0]]
        t = r - r0
        raw = np.zeros(2 * w, np.int64)
        raw[:w] = A[r, c0:c1]
        raw[w + t] = 1
        raw = (raw - modp_matmul(Ap[t : t + 1], W, p)[0]) % p
        raw = raw * pow(int(raw[j]), p - 2, p) % p
        f = W[:, j]
        rows = np.flatnonzero(f)
        if rows.size:
            W[rows] = (W[rows] - np.outer(f[rows], raw)) % p
        W[j] = raw
        cols.append(c0 + j)
        r += 1
        j += 1
        if r == m:
            break
    return cols, W


def modp_rref(A: np.ndarray, p: int, src: np.ndarray = None) -> np.ndarray:
    """In-place reduced row echelon form of int64 matrix A mod p.

    Returns the pivot column indices; pivot rule is first nonzero row
    scanning columns left to right. When `src` (an int64 index vector of
    length m) is given, row swaps are mirrored in it, so src[:rank] names
    the input rows carrying pivots.

    The elimination is blocked and runs forward only: a panel of PANEL
    columns is pivoted on its own, its pivot rows are reduced to the
    identity on the panel's pivot columns, and only the rows below that
    are nonzero at those columns are updated, on the columns from the
    panel onwards, with one delayed-reduction product. KM matrices are
    sparse, and the rows below stay so far longer than the rows above
    would. After the last panel the pivot rows are solved for the free
    columns, from the last panel up, one product for each panel but the
    last. Pivots, row swaps and the result are those of the unblocked
    Gauss-Jordan elimination with the same pivot rule.
    """
    if A.dtype != np.int64:
        raise TypeError("expected int64 matrix")
    m, n = A.shape
    if src is None:
        src = np.arange(m, dtype=np.int64)
    piv = []
    panels = []
    r = 0
    for c0 in range(0, n, PANEL):
        if r == m:
            break
        c1 = min(n, c0 + PANEL)
        cols, W = _factor_panel(A, src, p, r, c0, c1)
        if not cols:
            continue
        r0, r = r, r + len(cols)
        piv.extend(cols)
        panels.append((r0, r))
        # pivot rows: S^-1 times their panel-start values, the identity on
        # the panel's pivot columns
        Sinv = W[np.asarray(cols) - c0, c1 - c0 : c1 - c0 + len(cols)]
        B = modp_matmul(Sinv, A[r0:r, c0:], p)
        A[r0:r, c0:] = B
        # the rows below that meet the pivot columns lose their entries there
        L = A[r:, cols]
        hit = np.flatnonzero(L.any(axis=1))
        U = A[r + hit, c0:]
        U -= modp_matmul(L[hit], B, p)
        U %= p
        A[r + hit, c0:] = U
    piv = np.asarray(piv, dtype=np.int64)
    # X, the pivot rows at the free columns, is solved from the last panel
    # up: a panel's rows lose their entries at the later pivot columns
    free = np.ones(n, bool)
    free[piv] = False
    X = A[: len(piv), free]
    for r0, r1 in reversed(panels[:-1]):
        later = piv[r1:]
        X[r0:r1] = (X[r0:r1] - modp_matmul(A[r0:r1, later], X[r1:], p)) % p
        A[r0:r1, later] = 0
        A[r0:r1, free] = X[r0:r1]
    return piv


# ---------------------------------------------------------------------------
# sparse batched subduction against a triangular basis
# ---------------------------------------------------------------------------


def merge_coo(keys, vals, p):
    """Sorted distinct keys with the sum of the values of each, zeros dropped.

    Values are int64 residues in [0, p) or object arrays of field
    elements; p None means exact arithmetic. One stable argsort groups
    equal keys and `np.add.reduceat` sums each group.
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
    residues mod p, or object arrays of field elements; p None means exact
    arithmetic (over QQ), and every step is reduced mod p otherwise.
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
