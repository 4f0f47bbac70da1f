import random
from fractions import Fraction
from math import gcd, isqrt, lcm, log2

import numpy as np
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


def _gauss_jordan(rows):
    """Oracle: Fraction Gauss-Jordan with the first-nonzero pivot rule.

    Returns (RREF rows, pivot columns, source rows); a pivot row found
    below the current one is swapped into place.
    """
    M = [[Fraction(x) for x in r] for r in rows]
    src = list(range(len(M)))
    pivots = []
    for c in range(len(M[0]) if M else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        src[r], src[pr] = src[pr], src[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
    r = len(pivots)
    return M[:r], pivots, src[:r]


def assert_matches_oracle(rows):
    R, pivots, sources = _gauss_jordan(rows)
    ncols = len(rows[0])
    E = linalg.echelon(rows, QQ)
    assert E.pivots == tuple(pivots)
    assert E.sources == tuple(sources)
    # the rows are the numerators of the RREF over E.den
    assert E.rows.dtype in (np.int64, object)
    rref = [list(r) for r in linalg.Rows(E.rows, E.den, QQ)]
    assert rref == R
    free = [f for f in range(ncols) if f not in pivots]
    expect = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, pc in zip(R, pivots):
            x[pc] = -row[f]
        expect.append(x)
    K = linalg.kernel(rows, QQ, ncols)
    assert K == expect
    assert all(type(x) is Fraction for v in K for x in v)
    assert all(type(x) is Fraction for row in rref for x in row)


@given(small_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_matches_fraction_oracle(rows):
    assert linalg.rank(qq_matrix(rows), QQ) == len(_gauss_jordan(rows)[1])


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
        keep, _ = linalg.independent_rows(rows, field)
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


def test_first_independent_columns_qq_unlucky_prime(monkeypatch):
    # column 0's only nonzero entry is LIFT_PRIME: mod that prime the
    # pivots are [1, 2]; the next two primes agree on the ones over QQ,
    # and no elimination carries slots, as nothing is lifted
    P = linalg.LIFT_PRIME
    Q = linalg._prime_below(P)
    eliminations = _spy(monkeypatch, "_rref_mod")
    lifts = _spy(monkeypatch, "_lift")
    A = qq_matrix([[P, 0, 1], [0, 1, 1]])
    assert linalg.first_independent_columns(A, QQ) == [0, 1]
    assert [(e[1], len(e) > 2) for e in eliminations] == [
        (P, False), (Q, False), (linalg._prime_below(Q), False)]
    assert not lifts
    assert linalg.first_independent_columns(A, QQ, count=1) == [0]


def _random_sparse(rng, m, n, field, density=0.3):
    """A dense list-of-rows matrix with about `density` nonzero entries."""
    def entry():
        if rng.random() > density:
            return field.zero
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return rng.randrange(field.modulus)
    return [[entry() for _ in range(n)] for _ in range(m)]


def _matmul_loops(A, B, field):
    """Reference product by plain loops over field elements."""
    out = []
    for row in A:
        acc = [field.zero] * len(B[0])
        for a, brow in zip(row, B):
            for j, b in enumerate(brow):
                acc[j] = field.add(acc[j], field.mul(a, b))
        out.append(acc)
    return out


@pytest.mark.parametrize("field", [QQ, GF(9716633), GF(2**31 - 1), FBIG],
                         ids=["QQ", "GF9716633", "GF2^31-1", "GF2^61-1"])
def test_sparse_products_match_loops(field):
    # S @ X (rows of X combined, with repeated and empty rows) and A @ X^T
    rng = random.Random(5)
    X = _random_sparse(rng, 9, 7, field)
    X[4] = [field.zero] * 7
    nz = [(r, c, x) for r, row in enumerate(X) for c, x in enumerate(row) if x]
    Xs = linalg.sparse((9, 7), *zip(*reversed(nz)), field)
    assert Xs.shape == (9, 7) and (np.diff(Xs.rows) >= 0).all()
    assert (linalg.dense(Xs, field) == np.array(X, dtype=object)).all()
    S = _random_sparse(rng, 6, 9, field, density=0.5)
    S[2] = [field.zero] * 9
    terms = [(i, r, c) for i, row in enumerate(S) for r, c in enumerate(row) if c]
    # one entry split in two terms, and the terms out of row order
    i, r, c = terms.pop()
    terms += [(i, r, field.sub(c, field.one)), (i, r, field.one)]
    rng.shuffle(terms)
    rows, cols, vals = zip(*terms)
    # the products run on integer arrays, numerators over a denominator
    # over QQ; the field elements are their values over it
    got, den = linalg.combine_rows(
        linalg.sparse((6, 9), rows, cols, vals, field), Xs, field
    )
    assert got.dtype == (object if field == FBIG else np.int64)
    got = [list(r) for r in linalg.Rows(got, den, field)]
    assert got == _matmul_loops(S, X, field)
    assert {type(x) for r in got for x in r} == {type(field.zero)}
    A = _random_sparse(rng, 4, 7, field, density=0.8)
    A_int, aden = linalg.integer_form(A, field)
    got = linalg.matmul_transposed(A_int, Xs, field)
    got = [list(r) for r in linalg.Rows(got, aden * Xs.den, field)]
    assert got == _matmul_loops(A, [list(c) for c in zip(*X)], field)
    assert linalg.matmul_transposed(A_int[:0], Xs, field).shape == (0, 9)


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
    got = linalg.combine(coeffs, mats, F).tolist()
    assert got == expect
    assert {type(x) for row in got for x in row} == {int}


def test_qq_handles_denominators():
    M = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    assert linalg.rank(M, QQ) == 1
    K = linalg.kernel(M, QQ, 2)
    assert len(K) == 1
    assert matvec(M, K[0], QQ) == [Fraction(0), Fraction(0)]


BIG = 1 << 80


@st.composite
def big_fraction_matrices(draw):
    """Fractions up to 2**80 over 2**80, with zeros and dependent rows."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 7))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    )
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for i in range(1, m):
        if draw(st.booleans()):
            c = [draw(st.integers(-3, 3)) for _ in range(i)]
            rows[i] = [
                sum((ck * rows[k][j] for k, ck in enumerate(c)), Fraction(0))
                for j in range(n)
            ]
    return rows


@given(big_fraction_matrices())
@settings(max_examples=60, deadline=None)
def test_qq_echelon_matches_oracle(rows):
    assert_matches_oracle(rows)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_qq_echelon_matches_oracle_small_entries(rows):
    assert_matches_oracle(qq_matrix(rows))


def _spy(monkeypatch, name):
    """Record the arguments of every call to linalg.<name>."""
    calls = []
    real = getattr(linalg, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, name, spy)
    return calls


def test_qq_lift_object_arrays_many_steps(monkeypatch):
    # 80-bit fractions clear to integers beyond int64: the lift runs on
    # object arrays and needs many p-adic digits
    rng = random.Random(3)
    rows = [
        [Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG)) for _ in range(6)]
        for _ in range(4)
    ]
    rows.append([a + 2 * b for a, b in zip(rows[0], rows[1])])
    lifts = _spy(monkeypatch, "_lift")
    digits = _spy(monkeypatch, "_from_digits")
    assert_matches_oracle(rows)
    assert {A.dtype for A, *_ in lifts} == {np.dtype(object)}
    assert max(len(d) for d, _ in digits) >= 20


@pytest.mark.parametrize("scale", [1, 1 << 40, 1 << 70], ids=["int64", "squares-overflow", "object"])
def test_lift_bounds_match_loops(scale):
    # the reductions give the exact integers of the loops over every entry,
    # also where int64 squares or entries would overflow
    rng = random.Random(scale)
    rows = [[rng.randint(-scale, scale) * rng.randint(0, 1) for _ in range(9)] for _ in range(7)]
    A = linalg._integers([[Fraction(x) for x in r] for r in rows], QQ)
    piv, free, r = [0, 2, 3, 7], [1, 4, 5, 6, 8], 4
    l1 = max(sum(abs(row[c]) for c in piv) for row in rows)
    amax = max(abs(row[c]) for row in rows for c in free)
    log_h2 = sum(log2(max(1, sum(x * x for x in row))) for row in rows[:r])
    assert linalg._lift_bounds(A, piv, free, r) == (l1, amax, log_h2)


P = linalg.LIFT_PRIME


Q = linalg._prime_below(P)


@pytest.mark.parametrize("rows, prime", [
    # the rank mod P is too low
    ([[P, 1], [0, 1]], Q),
    # the only nonzero entry of column 1 is a multiple of P
    ([[1, 0, 1], [0, P, 1]], Q),
    # the pivot minor [[1, 1], [1, 1 + P]] is divisible by P
    ([[1, 1, 1], [1, 1 + P, 2]], Q),
    # the first pivot over QQ, P, vanishes mod P, which takes row 1 instead
    ([[P, 1], [1, 0]], Q),
    # P and Q agree on a rank profile that is too low: the lift from P is
    # rejected, and the two primes below Q agree on the true one
    ([[P * Q, 1], [0, 1]], linalg._prime_below(Q)),
    # full row rank mod P with the wrong pivots: the lift from P fails
    ([[P, 1]], Q),
    ([[P, 1, 0], [0, 0, 1]], Q),
], ids=["rank-drops", "column-vanishes", "pivot-minor", "pivot-row", "two-primes",
        "full-rank-one-row", "full-rank-two-rows"])
def test_qq_unlucky_first_prime(rows, prime, monkeypatch):
    profiles = _spy(monkeypatch, "_rank_profile")
    lifts = _spy(monkeypatch, "_lift")
    linalg.echelon(qq_matrix(rows), QQ)
    assert profiles[0][1] == P
    assert lifts[-1][1] == prime
    assert_matches_oracle(qq_matrix(rows))


def _gr36_km_matrix():
    """The QQ KM matrix of the Gr(3,6) problem (2,4,6)^3 at degree 2, as
    integer rows (360 x 175, rank 173)."""
    from khovsolve import catalog, km

    flags = catalog.random_flags(6, 3, seed=0, field=QQ)
    conds = [catalog.SchubertCondition((2, 4, 6), f) for f in flags]
    M = km.km_matrix(catalog.schubert_equations(3, 6, conds).sys, 2)
    return linalg._integers(M.entries.A, QQ)


Q2 = linalg._prime_below(Q)


@pytest.mark.parametrize("rows, expect", [
    # Q checks P's profile, whether the rule passes over no row, only
    # structural zeros, or a row that is not zero in the pivot column
    ([[2, 1, 0, 3], [1, 1, 1, 0], [0, 4, 1, 1]], [(P, True), (Q, False)]),
    ([[0, 0, 2, 1], [0, 3, 0, 1], [5, 1, 0, 0], [5, 4, 0, 1]], [(P, True), (Q, False)]),
    ([[1, 2, 3], [2, 4, 7], [1, 1, 1]], [(P, True), (Q, False)]),
    # P is unlucky (as in test_qq_unlucky_first_prime): Q, which
    # disagrees, is profiled again with slots before Q2 checks it
    ([[P, 1], [1, 0]], [(P, True), (Q, False), (Q, True), (Q2, False)]),
    # the lift from P fails twice, and Q2's profile is lifted
    ([[P * Q, 1], [0, 1]], [(P, True), (Q, False), (Q, True), (Q2, False), (Q2, True),
                            (linalg._prime_below(Q2), False)]),
], ids=["dense", "structural-zeros", "passed-over", "unlucky", "two-primes"])
def test_qq_echelon_slots_only_where_a_lift_may_follow(rows, expect, monkeypatch):
    # each (prime, slotted) elimination: S^-1 for a lift comes from the
    # slots of its prime's profile, and a check prime carries none
    eliminations = _spy(monkeypatch, "_rref_mod")
    profiles = _spy(monkeypatch, "_rank_profile")
    lifts = _spy(monkeypatch, "_lift")
    E = linalg.echelon(qq_matrix(rows), QQ)
    assert [(e[1], len(e) > 2) for e in eliminations] == expect
    assert [p for p, slotted in expect if slotted] == [p for _, p in profiles]
    assert lifts[-1][2:4] == (list(E.pivots), list(E.sources))
    assert_matches_oracle(qq_matrix(rows))


def test_qq_echelon_of_a_km_matrix_reconstructs_at_most_twice(monkeypatch):
    A = _gr36_km_matrix()
    eliminations = _spy(monkeypatch, "_rref_mod")
    lifts = _spy(monkeypatch, "_lift")
    digits = _spy(monkeypatch, "_from_digits")
    E = linalg.echelon(A, QQ)
    # a second prime, without slots, checks the profile; the one lift
    # reconstructs the whole matrix at most twice
    assert [(e[1], len(e) > 2) for e in eliminations] == [(P, True), (Q, False)]
    assert len(lifts) == 1 and 1 <= len(digits) <= 2
    R, pivots, sources = _gauss_jordan_integers(A.tolist())
    assert (E.pivots, E.sources) == (tuple(pivots), tuple(sources))
    assert [list(r) for r in linalg.Rows(E.rows, E.den, QQ)] == R


def test_qq_echelon_of_duffing_f5_rows_is_the_oracle(monkeypatch):
    # the F5 rows of Duffing's KM matrix at degree 3 (23 x 28, rank 23):
    # every row the rule passes over mod P is a structural zero, yet Q
    # checks P's profile as on any other matrix
    from khovsolve import catalog, km

    sys = catalog.duffing().sys
    blocks = km._km_blocks(sys, 3)
    S, X = km._map_combination(sys, 3, blocks, 3)
    S = linalg.sparse_rows(S, km._f5_rows(sys, 3, blocks))
    A = linalg.combine_rows(S, X, QQ)[0]
    eliminations = _spy(monkeypatch, "_rref_mod")
    E = linalg.echelon(A, QQ)
    assert [(e[1], len(e) > 2) for e in eliminations] == [(P, True), (Q, False)]
    R, pivots, sources = _gauss_jordan_integers(A.tolist())
    den = lcm(*(x.denominator for r in R for x in r))
    assert E.den == den
    assert E.rows.tolist() == [[int(x * den) for x in r] for r in R]
    assert (E.pivots, E.sources) == (tuple(pivots), tuple(sources))


def _gauss_jordan_integers(rows):
    """`_gauss_jordan` on integer rows, kept as integer multiples of its
    rows (divided by their content after each update): the same zero
    pattern at every step, so the same pivots and swaps, at a fraction of
    the cost of Fraction arithmetic."""
    M = [list(r) for r in rows]
    src = list(range(len(M)))
    pivots = []
    for c in range(len(M[0]) if M else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        src[r], src[pr] = src[pr], src[r]
        a = M[r][c]
        for i in range(len(M)):
            if i != r and M[i][c]:
                g = gcd(a, M[i][c])
                row = [a // g * x - M[i][c] // g * y for x, y in zip(M[i], M[r])]
                g = gcd(*row)
                M[i] = [x // g for x in row] if g else row
        pivots.append(c)
    r = len(pivots)
    R = [[Fraction(x, row[c]) for x in row] for row, c in zip(M, pivots)]
    return R, pivots, src[:r]


@given(small_matrices())
@settings(max_examples=40, deadline=None)
def test_integer_oracle_matches_fraction_oracle(rows):
    assert _gauss_jordan_integers(rows) == _gauss_jordan(rows)


@st.composite
def block_rows(draw):
    """(field, rows, sizes): up to five blocks of rows with a few columns."""
    field = draw(st.sampled_from(BLOCK_FIELDS))
    n = draw(st.integers(1, 7))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    if field == QQ:
        entry = st.one_of(st.just(Fraction(0)),
                          st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
    else:
        entry = st.one_of(st.just(0), st.integers(0, field.modulus - 1))
    rows = [[draw(entry) for _ in range(n)] for _ in range(sum(sizes))]
    # dependent rows, so that blocks add fewer pivots than rows
    for i in range(1, len(rows)):
        if draw(st.booleans()):
            k = draw(st.integers(0, i - 1))
            rows[i] = list(rows[k])
    return field, rows, sizes


@given(block_rows())
@settings(max_examples=80, deadline=None)
def test_prefix_pivots_match_echelon_of_each_prefix(case):
    field, rows, sizes = case
    got = linalg.prefix_pivots(rows, sizes, field)
    first = 0
    for size, piv in zip(sizes, got):
        first += size
        assert piv == linalg.echelon(rows[:first], field).pivots


def test_prefix_pivots_qq_unlucky_prime_are_still_independent():
    # column 0 is P times column 1 in block 0 and has only the entry P in
    # block 1: mod P the pivots of [[P, 1, 0]] are (1,), not (0,) as over
    # QQ, and they stay independent columns of the prefix over QQ
    rows = qq_matrix([[P, 1, 0], [P, 0, 1], [0, 1, 1]])
    got = linalg.prefix_pivots(rows, [1, 1, 1], QQ)
    assert got == [(1,), (1, 2), (1, 2)]
    assert linalg.echelon(rows, QQ).pivots == (0, 1, 2)
    for k, piv in enumerate(got):
        assert linalg.rank([[r[c] for c in piv] for r in rows[: k + 1]], QQ) == len(piv)


def test_lift_prime_is_the_largest_one_float64_panel_allows():
    from khovsolve._kernels import PANEL
    from khovsolve.fields import is_prime

    assert is_prime(P) and PANEL * (P - 1) ** 2 <= 2**53
    assert all(not is_prime(q) for q in range(P + 1, isqrt(2**53 // PANEL) + 2))


BLOCK_FIELDS = [QQ, F101, GF(9716633), GF(2**31 - 1), FBIG]


@st.composite
def block_systems(draw):
    """(field, S, blocks): a random square S and k blocks of its size."""
    field = draw(st.sampled_from(BLOCK_FIELDS))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    if field == QQ:
        entry = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    else:
        entry = st.integers(0, field.modulus - 1)
    S = [[draw(entry) for _ in range(n)] for _ in range(n)]
    blocks = [[[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(k)]
    return field, S, blocks


@given(block_systems())
@settings(max_examples=80, deadline=None)
def test_block_echelon_is_inverse_times_blocks(system):
    field, S, blocks = system
    n = len(S)
    try:
        inv = linalg.invert(S, field)
    except linalg.SingularMatrixError:
        assert linalg.rank(S, field) < n
        return
    rows = [[x for blk in [S, *blocks] for x in blk[r]] for r in range(n)]
    E = linalg.echelon(rows, field)
    assert E.pivots == tuple(range(n))
    R = [list(row) for row in linalg.Rows(E.rows, E.den, field)]
    for j, blk in enumerate(blocks):
        X = [row[(j + 1) * n : (j + 2) * n] for row in R]
        assert X == linalg.matmul(inv, blk, field)
        assert linalg.matmul(S, X, field) == [list(r) for r in blk]
        kind = Fraction if field == QQ else int
        assert all(type(x) is kind for row in X for x in row)


def _commuting_family(field, n, k, rng):
    """k matrices P diag(l_j) P^-1 and integer coefficients with sum c_j M_j = I."""
    while True:
        P = [[field.from_int(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if linalg.rank(P, field) == n:
            break
    Pinv = linalg.invert(P, field)
    mats = []
    for _ in range(k):
        diag = [[field.from_int(rng.randint(-9, 9)) if r == s else field.zero
                 for s in range(n)] for r in range(n)]
        mats.append(linalg.matmul(linalg.matmul(P, diag, field), Pinv, field))
    # M_0 = I makes (1, 0, ..., 0) a valid coefficient vector
    mats[0] = linalg.identity(n, field)
    return [1] + [0] * (k - 1), mats


@pytest.mark.parametrize("field", BLOCK_FIELDS, ids=str)
def test_commuting_check(field):
    # the checks run on integer matrices T_j = den M_j
    rng = random.Random(5)
    coeffs, mats = _commuting_family(field, 4, 4, rng)
    T, den = linalg.integer_form(mats, field)
    assert linalg.commuting_check(coeffs, T, den, field) == (True, None)
    # a wrong coefficient breaks the identity, not the commutation
    wrong = [2] + coeffs[1:]
    assert linalg.commuting_check(wrong, T, den, field) == (False, None)
    # one changed entry of M_2 breaks its commutation with M_1 and M_3
    bad = T.copy()
    bad[2, 0, 1] = field.add(bad[2, 0, 1], den)
    assert linalg.commuting_check(coeffs, bad, den, field) == (True, (1, 2))


@pytest.mark.parametrize("scale, kind", [
    (1, "float64"), (1 << 20, "int64"), (1 << 70, "object"),
], ids=["float64", "int64", "object"])
def test_commuting_check_entry_sizes(scale, kind, monkeypatch):
    # products past the float64 range run on int64, past int64 on object ints
    rng = random.Random(8)
    coeffs, mats = _commuting_family(QQ, 3, 3, rng)
    big = Fraction(scale, 3)
    scaled = [mats[0]] + [[[x * big for x in r] for r in M] for M in mats[1:]]
    calls = _spy(monkeypatch, "_matmul_exact")
    T, den = linalg.integer_form(scaled, QQ)
    assert linalg.commuting_check(coeffs, T, den, QQ) == (True, None)
    if kind == "object":
        assert not calls
    else:
        V, H, bound = calls[0]
        assert V.dtype == np.int64 and (bound <= 2**53) == (kind == "float64")
    scaled[1][2][0] += Fraction(1, 7)
    T, den = linalg.integer_form(scaled, QQ)
    assert linalg.commuting_check(coeffs, T, den, QQ) == (True, (1, 2))


def test_small_prime_echelon_uses_python_elimination_below_400_entries(monkeypatch):
    calls = _spy(monkeypatch, "_rref_modp_python")
    F = GF(9716633)
    rng = random.Random(2)
    rows = [[rng.randrange(F.modulus) for _ in range(6)] for _ in range(5)]
    E = linalg.echelon(rows, F)
    assert len(calls) == 1
    R, piv, src = linalg._rref_modp_python(rows, F.modulus)
    assert E.pivots == tuple(piv) and E.sources == tuple(src)
    assert E.rows.tolist() == R
