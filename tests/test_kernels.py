"""The mod-p kernels against plain Python references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khovsolve import _kernels, linalg

P = 9716633
# 2**31 - 1 leaves the float64 range of delayed reduction: int64 chunks
PRIMES = (2, 7, 101, P, 2**31 - 1)


def _matmul_reference(A, B, p):
    return np.array(
        [[sum(int(a) * int(b) for a, b in zip(ra, cb)) % p for cb in B.T]
         for ra in A],
        dtype=np.int64,
    ).reshape(A.shape[0], B.shape[1])


def _assert_rref_matches_python(A, p):
    R = A.copy()
    src = np.arange(A.shape[0], dtype=np.int64)
    piv = _kernels.modp_rref(R, p, src)
    rows, piv_cols, piv_src = linalg._rref_modp_python(A.tolist(), p)
    rank = len(piv_cols)
    assert piv.tolist() == piv_cols
    assert src[:rank].tolist() == piv_src
    assert R[:rank].tolist() == rows
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
    _assert_rref_matches_python(A, p)


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
    for A in cases:
        _assert_rref_matches_python(np.asarray(A, dtype=np.int64), p)


@given(modp_matrices())
@settings(max_examples=40, deadline=None)
def test_rref_is_reduced(Ap):
    B, p = Ap
    piv = _kernels.modp_rref(B, p)
    for r, c in enumerate(piv):
        col = B[: len(piv), c]
        assert col[r] == 1
        assert np.count_nonzero(col) == 1


def _random_triangular_basis(rng, nbasis, ncols):
    """CSR basis with strictly increasing leading columns."""
    leadpos = sorted(rng.choice(ncols, size=nbasis, replace=False))
    vals, cols, indptr = [], [], [0]
    leadinv = []
    for lp in leadpos:
        lead_val = int(rng.integers(1, P))
        vals.append(lead_val)
        cols.append(int(lp))
        for c in range(int(lp) + 1, ncols):
            if rng.random() < 0.4:
                vals.append(int(rng.integers(1, P)))
                cols.append(c)
        indptr.append(len(vals))
        leadinv.append(pow(lead_val, P - 2, P))
    return (
        np.array(vals, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(indptr, dtype=np.int64),
        np.array(leadpos, dtype=np.int64),
        np.array(leadinv, dtype=np.int64),
    )


def _subduct_reference(g, basis):
    """One row at a time, on Python ints: coefficients and remainder."""
    bvals, bcols, bindptr, leadpos, leadinv = basis
    g = [int(x) for x in g]
    coeffs = [0] * len(leadpos)
    for b, lp in enumerate(leadpos):
        if g[lp]:
            coef = g[lp] * int(leadinv[b]) % P
            coeffs[b] = coef
            for k in range(bindptr[b], bindptr[b + 1]):
                g[bcols[k]] = (g[bcols[k]] - coef * int(bvals[k])) % P
    return coeffs, g


def test_subduct_batch_variants_agree():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ncols = int(rng.integers(4, 12))
        nbasis = int(rng.integers(1, ncols + 1))
        batch = int(rng.integers(1, 6))
        basis = _random_triangular_basis(rng, nbasis, ncols)
        G = rng.integers(0, P, size=(batch, ncols)).astype(np.int64)
        R = G.copy()
        C = _kernels.modp_subduct_batch(R, *basis, P)
        for row, c, r in zip(G, C, R):
            coeffs, rem = _subduct_reference(row, basis)
            assert c.tolist() == coeffs
            assert r.tolist() == rem


def test_subduct_batch_reconstructs_input():
    rng = np.random.default_rng(11)
    ncols, nbasis, batch = 10, 6, 4
    bvals, bcols, bindptr, leadpos, leadinv = _random_triangular_basis(
        rng, nbasis, ncols
    )
    # dense basis matrix
    B = np.zeros((nbasis, ncols), dtype=np.int64)
    for b in range(nbasis):
        B[b, bcols[bindptr[b] : bindptr[b + 1]]] = bvals[
            bindptr[b] : bindptr[b + 1]
        ]
    G = rng.integers(0, P, size=(batch, ncols)).astype(np.int64)
    R = G.copy()
    C = _kernels.modp_subduct_batch(
        R, bvals, bcols, bindptr, leadpos, leadinv, P
    )
    # input = C @ B + remainder (mod P)
    recon = (_kernels.modp_matmul(C, B, P) + R) % P
    assert np.array_equal(recon, G)
    # remainders vanish on all leading columns
    assert not R[:, leadpos].any()


def test_matmul_variants_agree():
    # float64 chunks for small moduli, int64 chunks for 2**31 - 1; inner
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


def test_rref_type_check():
    with pytest.raises(TypeError):
        _kernels.modp_rref(np.zeros((2, 2), dtype=np.float64), P)
