import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khovsolve import linalg
from khovsolve.fields import GF, QQ

F101 = GF(101)
FBIG = GF((1 << 61) - 1)  # beyond the int64 fast path


def qq_matrix(rows):
    return [[Fraction(x) for x in r] for r in rows]


def matvec(rows, v, field):
    out = []
    for r in rows:
        s = field.zero
        for a, b in zip(r, v):
            s = field.add(s, field.mul(a, b))
        out.append(s)
    return out


@st.composite
def small_matrices(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    return [
        [draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(m)
    ]


def _fraction_rref_rank(rows):
    """Independent rank oracle: plain Gauss over Fraction."""
    M = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(M[0]) if M else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        M[rank] = [x / M[rank][c] for x in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


@given(small_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_matches_fraction_oracle(rows):
    assert linalg.rank(qq_matrix(rows), QQ) == _fraction_rref_rank(rows)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_annihilated_qq(rows):
    M = qq_matrix(rows)
    ncols = len(rows[0])
    K = linalg.kernel(M, QQ, ncols)
    assert len(K) == ncols - linalg.rank(M, QQ)
    for v in K:
        assert matvec(M, v, QQ) == [Fraction(0)] * len(M)
    # kernel vectors are independent
    if K:
        assert linalg.rank(K, QQ) == len(K)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_annihilated_modp(rows):
    for field in (F101, FBIG):
        M = [[field.from_int(x) for x in r] for r in rows]
        ncols = len(rows[0])
        K = linalg.kernel(M, field, ncols)
        assert len(K) == ncols - linalg.rank(M, field)
        for v in K:
            assert matvec(M, v, field) == [0] * len(M)


@given(small_matrices())
@settings(max_examples=50, deadline=None)
def test_modp_rank_agrees_with_qq_when_entries_small(rows):
    # entries in -6..6 cannot hit characteristic issues for huge p
    assert linalg.rank(qq_matrix(rows), QQ) == linalg.rank(
        [[FBIG.from_int(x) for x in r] for r in rows], FBIG
    )


def test_empty_matrix_kernel_is_full_space():
    K = linalg.kernel([], QQ, 3)
    assert K == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    assert linalg.rank([], QQ) == 0


def test_independent_rows_spans_row_space():
    rng = random.Random(5)
    for field in (QQ, F101):
        rows = [
            [field.from_int(rng.randint(-4, 4)) for _ in range(5)]
            for _ in range(8)
        ]
        keep = linalg.independent_rows(rows, field)
        sub = [rows[i] for i in keep]
        assert linalg.rank(sub, field) == len(keep) == linalg.rank(rows, field)


def test_invert_round_trip():
    rng = random.Random(7)
    for field in (QQ, F101):
        while True:
            A = [
                [field.from_int(rng.randint(-5, 5)) for _ in range(4)]
                for _ in range(4)
            ]
            if linalg.rank(A, field) == 4:
                break
        inv = linalg.invert(A, field)
        assert linalg.matmul(A, inv, field) == linalg.identity(4, field)


def test_invert_singular_raises():
    A = qq_matrix([[1, 2], [2, 4]])
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert(A, QQ)


def test_first_independent_columns_leftmost():
    A = qq_matrix([[0, 1, 1, 0], [0, 2, 0, 1]])
    assert linalg.first_independent_columns(A, QQ) == [1, 2]
    assert linalg.first_independent_columns(A, QQ, count=1) == [1]
    # column 2 is 2 * column 1, so column 3 comes next
    for field in (F101, FBIG):
        B = [[0, 1, 2, 0, 5], [0, 3, 6, 1, 0]]
        assert linalg.first_independent_columns(B, field) == [1, 3]
        assert linalg.first_independent_columns(B, field, count=1) == [1]
    # rank 2 < count: only the independent columns come back
    C = qq_matrix([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1]])
    assert linalg.first_independent_columns(C, QQ, count=3) == [0, 2]
    assert linalg.first_independent_columns([], QQ) == []


def test_matmul_and_combine_modp_match_python():
    # inner dimensions above the 95 terms one float64 product holds exactly
    F = GF(9716633)
    p = F.modulus
    rng = random.Random(11)

    def rand(m, n):
        return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]

    A, B = rand(7, 150), rand(150, 5)
    expect = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]
    got = linalg.matmul(A, B, F)
    assert got == expect
    assert {type(x) for row in got for x in row} == {int}
    mats = [rand(4, 6) for _ in range(120)]
    coeffs = [rng.randrange(p) for _ in mats]
    expect = [
        [sum(c * M[r][j] for c, M in zip(coeffs, mats)) % p for j in range(6)]
        for r in range(4)
    ]
    got = linalg.combine(coeffs, mats, F)
    assert got == expect
    assert {type(x) for row in got for x in row} == {int}


def test_bareiss_handles_denominators():
    M = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    assert linalg.rank(M, QQ) == 1
    K = linalg.kernel(M, QQ, 2)
    assert len(K) == 1
    assert matvec(M, K[0], QQ) == [Fraction(0), Fraction(0)]
