"""The mod-p kernels against each other and against plain Python references."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khovsolve import _kernels, catalog, km, linalg
from khovsolve.fields import GF, QQ

P = 9716633
# 2**31 - 1: the panel block is reduced every 2 updates, products run on
# 16-bit halves
PRIMES = (2, 7, 101, P, 2**31 - 1)


def _matmul_reference(A, B, p):
    return np.array(
        [[sum(int(a) * int(b) for a, b in zip(ra, cb)) % p for cb in B.T]
         for ra in A],
        dtype=np.int64,
    ).reshape(A.shape[0], B.shape[1])


def _eliminate(A, p, slots=0, blocked=True):
    """(RREF rows, pivots, sources) of A mod p by one of the two eliminations."""
    R, src = A.copy(), np.arange(A.shape[0], dtype=np.int64)
    rref = _kernels.modp_rref if blocked else _kernels.modp_rref_small
    piv = rref(R, p, src, slots).tolist()
    return R[: len(piv)].tolist(), piv, src[: len(piv)].tolist()


def _assert_rref_matches_small(A, p):
    # the blocked kernel against the unblocked one; its rows past the rank
    # are zero
    R = A.copy()
    src = np.arange(A.shape[0], dtype=np.int64)
    piv = _kernels.modp_rref(R, p, src)
    rank = len(piv)
    assert (R[:rank].tolist(), piv.tolist(), src[:rank].tolist()) == _eliminate(A, p, blocked=False)
    assert not R[rank:].any()


@st.composite
def modp_matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 7))
    data = [
        [draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(m)
    ]
    return np.array(data, dtype=np.int64), p


@given(modp_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_variants_agree(Ap):
    A, p = Ap
    _assert_rref_matches_small(A, p)


@st.composite
def sparse_modp_matrices(draw):
    """Sparse matrices that cross several panels: up to 150 x 200, 1-30 % nonzero."""
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(1, 150))
    n = draw(st.integers(1, 200))
    density = draw(st.floats(0.01, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(1, p, size=(m, n), dtype=np.int64)
    A[rng.random((m, n)) >= density] = 0
    return A, p


@given(sparse_modp_matrices())
@settings(max_examples=30, deadline=None)
def test_rref_sparse_panels_match_python(Ap):
    A, p = Ap
    _assert_rref_matches_small(A, p)


def _low_rank(rng, m, n, rank, p):
    U = rng.integers(0, p, size=(m, rank)).astype(np.int64)
    V = rng.integers(0, p, size=(rank, n)).astype(np.int64)
    return _kernels.modp_matmul(U, V, p)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_blocked_panels_match_python(p):
    # several panels, rank-deficient and zero columns, early full row rank
    rng = np.random.default_rng(p % 1000)
    panel = _kernels.PANEL
    cases = [
        rng.integers(0, p, size=(40, 2 * panel + 30)),  # r == m mid-panel
        _low_rank(rng, 90, 2 * panel + 20, 50, p),
        _low_rank(rng, 150, panel + 10, 70, p),  # rank above one panel
        np.zeros((5, panel + 1), dtype=np.int64),
    ]
    sparse = rng.integers(0, p, size=(80, 2 * panel + 5))
    sparse[rng.random(sparse.shape) < 0.9] = 0
    sparse[:, rng.random(sparse.shape[1]) < 0.3] = 0
    cases.append(sparse)
    zero_cols = _low_rank(rng, 60, 3 * panel, 45, p)
    zero_cols[:, panel - 5 : panel + 40] = 0
    cases.append(zero_cols)
    # a staircase: the first panel's pivot rows meet no row below, so the
    # rows below are first updated at the second panel
    stair = rng.integers(0, p, size=(panel + 30, 2 * panel + 10))
    stair[:panel, :panel] = np.triu(stair[:panel, :panel], 1) + np.eye(panel, dtype=np.int64)
    stair[panel:, :panel] = 0
    cases.append(stair)
    # rank reached in the middle of the second panel, with more rows below
    cases.append(_low_rank(rng, 2 * panel, 2 * panel, panel + 20, p))
    # all-zero rows below the rank, some of them between the pivot rows
    zero_rows = _low_rank(rng, panel + 40, panel + 20, panel + 10, p)
    zero_rows[rng.random(zero_rows.shape[0]) < 0.3] = 0
    cases.append(np.vstack([zero_rows, np.zeros((20, zero_rows.shape[1]), np.int64)]))
    for A in cases:
        _assert_rref_matches_small(np.asarray(A, dtype=np.int64), p)


# one prime per regime of the panel block's delayed reduction, all int64:
# reduced every 2 updates, every 32 (in mid-panel), and never within a
# 64-column panel (every 8192, 65536 and 2**63 - 1 updates)
REGIMES = {
    2**31 - 1: 2,
    536870909: 32,
    33554393: 8192,
    linalg.LIFT_PRIME: 65536,
    2: 2**63 - 1,
}


def _panels_with_gaps(rng, p):
    """Three panels; every row is zero on some panel, and rows zero on a
    panel sit at its top position and between the rows that meet it."""
    panel = _kernels.PANEL
    n = 3 * panel + 7
    A = rng.integers(0, p, size=(3 * panel, n))
    # the first row misses the first two panels: it starts at the top, is
    # swapped down to the top position of the second panel, and is a
    # pivot row of the third
    A[0, : 2 * panel] = 0
    # below, rows alternate between missing the second panel and meeting it
    A[panel:, :panel] = 0
    A[panel::2, panel : 2 * panel] = 0
    # a few rows also miss the third panel, and one row is zero
    A[panel + 3 :: 7, 2 * panel :] = 0
    A[panel + 5] = 0
    return A


@pytest.mark.parametrize("p", sorted(REGIMES))
def test_panel_regimes_match_python(p):
    assert _kernels._chunk(p) == REGIMES[p]
    rng = np.random.default_rng(p % 997)
    panel = _kernels.PANEL
    cases = [
        # dense: every row is a candidate, and a panel makes 64 updates
        rng.integers(0, p, size=(panel + 40, 2 * panel + 9)),
        rng.integers(p // 2, p, size=(2 * panel, panel + 3)),
        _low_rank(rng, 2 * panel, 2 * panel + 5, panel + 17, p),
        _panels_with_gaps(rng, p),
    ]
    sparse = rng.integers(0, p, size=(3 * panel, 2 * panel + 30))
    sparse[rng.random(sparse.shape) < 0.85] = 0
    cases.append(sparse)
    for A in cases:
        _assert_rref_matches_small(np.asarray(A, dtype=np.int64), p)


def test_km_rows_match_small():
    # real KM rows: the 1017 x 980 F5 rows of the Gr(3,6) count
    # 5 x (3,5,6) + 2 x (2,5,6) at degree 3 over F_9716633 (rank 969), and
    # the 360 x 175 QQ KM matrix of (2,4,6)^3 at degree 2 mod LIFT_PRIME
    # with slots, as the p-adic lifting eliminates it
    F = GF(P)
    conds = [
        catalog.SchubertCondition((3, 5, 6), f)
        for f in catalog.random_flags(6, 5, seed=1, field=F)
    ] + [
        catalog.SchubertCondition((2, 5, 6), f)
        for f in catalog.random_flags(6, 2, seed=2, field=F)
    ]
    sys = catalog.schubert_equations(3, 6, conds, field=F).sys
    blocks = km._km_blocks(sys, 3)
    S, X = km._map_combination(sys, 3, blocks, 3)
    S = linalg.sparse_rows(S, km._f5_rows(sys, 3, blocks))
    A = linalg.combine_rows(S, X, F)[0]
    assert A.shape == (1017, 980)
    _assert_rref_matches_small(A, P)

    flags = catalog.random_flags(6, 3, seed=0, field=QQ)
    conds = [catalog.SchubertCondition((2, 4, 6), f) for f in flags]
    A = km.km_matrix(catalog.schubert_equations(3, 6, conds).sys, 2).entries.A
    m, n = A.shape
    p = linalg.LIFT_PRIME
    M = np.zeros((m, n + min(m, n)), dtype=np.int64)
    M[:, :n] = A % p
    R, piv, src = _eliminate(M, p, min(m, n))
    assert len(piv) > _kernels.PANEL and np.array(R)[:, n:].any()
    assert _eliminate(M, p, min(m, n), blocked=False) == (R, piv, src)


@pytest.mark.parametrize("blocked", [True, False], ids=["blocked", "small"])
@pytest.mark.parametrize("p", [2, 101, linalg.LIFT_PRIME, 2**31 - 1])
def test_slots_hold_the_inverse_of_the_pivot_block(p, blocked):
    # the slots change no pivot, source or RREF entry, and end as C with
    # C S = I for the pivot block S of the source rows
    rng = np.random.default_rng(p % 991)
    panel = _kernels.PANEL
    sparse = rng.integers(0, p, size=(60, 2 * panel + 12))
    sparse[rng.random(sparse.shape) < 0.93] = 0
    zero_rows = _low_rank(rng, 40, panel + 9, 25, p)
    zero_rows[::3] = 0
    cases = [
        rng.integers(0, p, size=(30, 25)),  # dense
        sparse,
        _low_rank(rng, 50, panel + 20, 12, p),
        rng.integers(0, p, size=(90, 12)),  # tall
        rng.integers(0, p, size=(10, 2 * panel + 3)),  # wide
        zero_rows,
        np.zeros((4, 7), dtype=np.int64),
    ]
    for A in cases:
        A = np.asarray(A, dtype=np.int64)
        m, n = A.shape
        R, piv, src = _eliminate(A, p, 0, blocked)
        slotted = np.zeros((m, n + min(m, n)), dtype=np.int64)
        slotted[:, :n] = A
        Rs, piv_s, src_s = _eliminate(slotted, p, min(m, n), blocked)
        assert (piv_s, src_s) == (piv, src)
        Rs = np.array(Rs, dtype=np.int64).reshape(len(piv), slotted.shape[1])
        assert Rs[:, :n].tolist() == R
        r = len(piv)
        C, S = Rs[:, n : n + r], A[src][:, piv]
        assert (_matmul_reference(C, S, p) == np.eye(r, dtype=np.int64)).all()
        assert not Rs[:, n + r :].any()


@pytest.mark.parametrize("p", PRIMES)
def test_small_elimination_matches_blocked(p):
    # with and without slots, on int64 arrays, on the same residues as
    # object ints, and on entries outside [0, p), which it reduces on entry
    rng = np.random.default_rng(p % 983)
    sparse = rng.integers(0, p, size=(12, 30))
    sparse[rng.random(sparse.shape) < 0.8] = 0
    zero_rows = _low_rank(rng, 9, 11, 4, p)
    zero_rows[::2] = 0
    cases = [
        rng.integers(0, p, size=(6, 6)),
        sparse,
        _low_rank(rng, 10, 14, 3, p),
        rng.integers(0, p, size=(20, 5)),  # tall
        rng.integers(0, p, size=(3, 40)),  # wide
        zero_rows,
        np.zeros((4, 7), dtype=np.int64),
    ]
    for A in cases:
        m, n = A.shape
        for slots in (0, min(m, n)):
            M = np.zeros((m, n + slots), dtype=np.int64)
            M[:, :n] = A
            expect = _eliminate(M, p, slots)
            assert _eliminate(M, p, slots, blocked=False) == expect
            assert _eliminate(M.astype(object), p, slots, blocked=False) == expect
            M[:, :n] += p * rng.integers(-2, 3, size=A.shape)
            assert _eliminate(M, p, slots, blocked=False) == expect


def test_small_elimination_over_a_large_prime():
    # GF(2**61 - 1) on object arrays, beyond the blocked kernel: on random
    # integer matrices the pivots and sources are those of the blocked
    # kernel mod LIFT_PRIME, the slots hold C with C S = I, and the RREF
    # rows are C times the source rows, the identity at the pivots
    p, q = 2**61 - 1, linalg.LIFT_PRIME
    rng = np.random.default_rng(61)
    for m, n, rank in ((12, 9, 5), (6, 20, 6), (30, 15, 15), (8, 8, 0)):
        A = rng.integers(-9, 10, size=(m, rank)) @ rng.integers(-9, 10, size=(rank, n))
        A = A.astype(object)
        M = np.zeros((m, n + min(m, n)), dtype=object)
        M[:, :n] = A
        R, piv, src = _eliminate(M, p, min(m, n), blocked=False)
        assert _eliminate(A, p, blocked=False) == ([r[:n] for r in R], piv, src)
        assert (piv, src) == _eliminate((A % q).astype(np.int64), q)[1:]
        r = len(piv)
        R = np.array(R, dtype=object).reshape(r, M.shape[1])
        C, S = R[:, n : n + r], A[src][:, piv]
        assert ((C @ S) % p == np.eye(r, dtype=np.int64)).all()
        assert not ((C @ A[src] - R[:, :n]) % p).any()
        assert (R[:, piv] == np.eye(r, dtype=np.int64)).all()
        assert not R[:, n + r :].any()


@given(modp_matrices())
@settings(max_examples=40, deadline=None)
def test_rref_is_reduced(Ap):
    B, p = Ap
    piv = _kernels.modp_rref(B, p)
    for r, c in enumerate(piv):
        col = B[: len(piv), c]
        assert col[r] == 1
        assert np.count_nonzero(col) == 1


def _dtype(p):
    return np.int64 if p is not None and p < 2**31 else object


def _random_value(rng, p):
    """A nonzero field element: a residue mod p, or a Fraction when p is None."""
    if p is None:
        return Fraction(int(rng.integers(-99, 100)) or 1, int(rng.integers(1, 9)))
    return int(rng.integers(1, min(p, 2**62)))


def _random_triangular_basis(rng, nbasis, ncols, p=P):
    """CSR basis with strictly increasing leading columns, and its level plan."""
    leadpos = sorted(rng.choice(ncols, size=nbasis, replace=False))
    vals, cols, indptr = [], [], [0]
    leadinv = []
    for lp in leadpos:
        lead_val = _random_value(rng, p)
        vals.append(lead_val)
        cols.append(int(lp))
        for c in range(int(lp) + 1, ncols):
            if rng.random() < 0.4:
                vals.append(_random_value(rng, p))
                cols.append(c)
        indptr.append(len(vals))
        leadinv.append(1 / lead_val if p is None else pow(lead_val, p - 2, p))
    dtype = _dtype(p)
    basis = (
        np.array(vals, dtype=dtype),
        np.array(cols, dtype=np.int64),
        np.array(indptr, dtype=np.int64),
        np.array(leadpos, dtype=np.int64),
        np.array(leadinv, dtype=dtype),
    )
    return basis + (_kernels.subduction_levels(basis[1], basis[2], basis[3]),)


def _subduct_reference(g, basis, p=P):
    """One row at a time, on Python numbers: coefficients and remainder."""
    bvals, bcols, bindptr, leadpos, leadinv, _ = basis
    reduce = (lambda x: x) if p is None else (lambda x: x % p)
    g = list(g.tolist())
    coeffs = [0] * len(leadpos)
    for b, lp in enumerate(leadpos):
        if g[lp]:
            coef = reduce(g[lp] * leadinv[b])
            coeffs[b] = coef
            for k in range(bindptr[b], bindptr[b + 1]):
                g[bcols[k]] = reduce(g[bcols[k]] - coef * bvals[k])
    return coeffs, g


def _subduct_dense(G, basis, p=P):
    """The sparse kernel on the rows of the dense matrix G: (C, R) dense."""
    m, ncols = G.shape
    rows, cols = np.nonzero(G != 0)
    ck, cv, rk, rv = _kernels.modp_subduct_batch(
        rows * ncols + cols, G[rows, cols], ncols, *basis, p
    )
    nbasis = len(basis[3])
    assert np.all(np.diff(ck) > 0) and np.all(np.diff(rk) > 0)
    assert np.all(cv != 0) and np.all(rv != 0)
    C = np.zeros((m, nbasis), G.dtype)
    C[ck // nbasis, ck % nbasis] = cv
    R = np.zeros_like(G)
    R[rk // ncols, rk % ncols] = rv
    return C, R


def _random_rows(rng, batch, ncols, p):
    G = np.zeros((batch, ncols), _dtype(p))
    for i in range(batch):
        for j in range(ncols):
            if rng.random() < 0.7:
                G[i, j] = _random_value(rng, p)
    return G


def _check_against_reference(p):
    rng = np.random.default_rng(3)
    for _ in range(10):
        ncols = int(rng.integers(4, 12))
        nbasis = int(rng.integers(1, ncols + 1))
        batch = int(rng.integers(1, 6))
        basis = _random_triangular_basis(rng, nbasis, ncols, p)
        G = _random_rows(rng, batch, ncols, p)
        C, R = _subduct_dense(G, basis, p)
        for row, c, r in zip(G, C, R):
            coeffs, rem = _subduct_reference(row, basis, p)
            assert c.tolist() == coeffs
            assert r.tolist() == rem


def test_subduct_batch_variants_agree():
    # int64 residues, up to the largest prime below 2**31
    for p in (P, 2**31 - 1):
        _check_against_reference(p)


def test_subduct_batch_object_values():
    # object arrays: Python ints mod a prime above 2**31, Fractions over QQ
    for p in (2**61 - 1, None):
        _check_against_reference(p)


def _dense_basis(basis, ncols):
    bvals, bcols, bindptr, leadpos = basis[:4]
    B = np.zeros((len(leadpos), ncols), dtype=bvals.dtype)
    for b in range(len(leadpos)):
        B[b, bcols[bindptr[b] : bindptr[b + 1]]] = bvals[bindptr[b] : bindptr[b + 1]]
    return B


def test_subduct_batch_reconstructs_input():
    rng = np.random.default_rng(11)
    ncols, nbasis, batch = 10, 6, 4
    for p in (P, None):
        basis = _random_triangular_basis(rng, nbasis, ncols, p)
        B = _dense_basis(basis, ncols)
        G = _random_rows(rng, batch, ncols, p)
        C, R = _subduct_dense(G, basis, p)
        # input = C @ B + remainder
        if p is None:
            assert np.array_equal(C.dot(B) + R, G)
        else:
            assert np.array_equal((_kernels.modp_matmul(C, B, p) + R) % p, G)
        # remainders vanish on all leading columns
        assert not R[:, basis[3]].any()


def test_subduction_levels_are_independent():
    # no element's non-leading terms meet the leading column of another
    # element of its level, and every dependency runs to a higher level
    rng = np.random.default_rng(5)
    for _ in range(30):
        ncols = int(rng.integers(1, 30))
        nbasis = int(rng.integers(1, ncols + 1))
        bvals, bcols, bindptr, leadpos, _, levels = _random_triangular_basis(
            rng, nbasis, ncols
        )
        assert sorted(np.concatenate(levels).tolist()) == list(range(nbasis))
        level = np.empty(nbasis, np.int64)
        for k, elements in enumerate(levels):
            assert elements.size
            level[elements] = k
        owner = {int(c): b for b, c in enumerate(leadpos)}
        for b in range(nbasis):
            for c in bcols[bindptr[b] + 1 : bindptr[b + 1]].tolist():
                if c in owner:
                    assert level[owner[c]] > level[b]


def test_subduction_levels_reject_a_term_left_of_its_lead():
    bcols = np.array([1, 0, 2], dtype=np.int64)  # element 0 leads at 1, has 0
    with pytest.raises(ValueError, match="left of its leading column"):
        _kernels.subduction_levels(bcols, np.array([0, 2, 3]), np.array([1, 0]))


def test_subduct_batch_empty_and_missed_rows():
    rng = np.random.default_rng(8)
    basis = _random_triangular_basis(rng, 4, 8)
    empty = np.zeros(0, np.int64)
    ck, cv, rk, rv = _kernels.modp_subduct_batch(empty, empty, 8, *basis, P)
    assert ck.size == cv.size == rk.size == rv.size == 0
    # rows on no leading column, and on columns past the basis, pass as they are
    ncols = 12
    free = [c for c in range(ncols) if c not in set(basis[3].tolist())]
    G = np.zeros((3, ncols), np.int64)
    G[0, free[:3]] = [5, 6, 7]
    G[2, [9, 11]] = [1, P - 1]
    C, R = _subduct_dense(G, basis)
    assert not C.any()
    assert np.array_equal(R, G)


def test_matmul_variants_agree():
    # float64 chunks, on 16-bit halves of B for 2**31 - 1; inner
    # dimensions longer than one chunk are reduced between chunks
    rng = np.random.default_rng(7)
    for p in PRIMES:
        for k in (0, 1, 8, 200):
            A = rng.integers(0, p, size=(5, k)).astype(np.int64)
            B = rng.integers(0, p, size=(k, 3)).astype(np.int64)
            expect = _matmul_reference(A, B, p)
            assert np.array_equal(_kernels.modp_matmul(A, B, p), expect)
            assert np.array_equal(
                _kernels.modp_matmul(A.astype(np.float64), B, p), expect
            )
    A = np.full((2, 300), P - 1, dtype=np.int64)
    assert _kernels.modp_matmul(A, A.T, P).tolist() == [[300 % P] * 2] * 2


@pytest.mark.parametrize("p", [33554393, 2**31 - 1])
def test_matmul_splits_large_moduli(p):
    # B in 16-bit halves: each half exact in float64 over chunks of at
    # least 64 terms; entries near p - 1 and an inner dimension of
    # several chunks
    rng = np.random.default_rng(3)
    chunk = 2**53 // ((p - 1) * 0xFFFF)
    assert chunk >= _kernels.PANEL
    k = 2 * chunk + 5
    A = rng.integers(p - 1000, p, size=(4, k)).astype(np.int64)
    B = rng.integers(0, p, size=(k, 6)).astype(np.int64)
    B[:, 0] = p - 1
    expect = _matmul_reference(A, B, p)
    assert np.array_equal(_kernels.modp_matmul(A, B, p), expect)
    assert np.array_equal(_kernels.modp_matmul(A.astype(np.float64), B, p), expect)


def test_rref_type_check():
    with pytest.raises(TypeError):
        _kernels.modp_rref(np.zeros((2, 2), dtype=np.float64), P)
