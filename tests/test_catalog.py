import itertools
import random
from fractions import Fraction

import pytest

from khovsolve import catalog, linalg
from khovsolve.fields import GF, QQ
from khovsolve.khov import (
    DegreeCheck,
    KhovanskiiReport,
    build_parameterization,
    check_khovanskii_truncated,
)
from khovsolve.poly import MultiPoly

P = 9716633


def test_duffing_metadata():
    inst = catalog.duffing()
    assert inst.expected_count == 5
    assert inst.recommended_dreg == 3
    assert len(inst.sys.equations) == 2


def test_duffing_structural_zeros():
    # F_1 has no x4 monomial and F_2 has no x3 monomial
    inst = catalog.duffing()
    e = lambda j: tuple(1 if i == j else 0 for i in range(5))
    form1 = inst.sys.coefficient_form(0)
    form2 = inst.sys.coefficient_form(1)
    assert e(4) not in form1
    assert e(3) not in form2
    assert form1[e(3)] == Fraction(7)
    assert form2[e(4)] == Fraction(19)


def test_duffing_custom_coefficients():
    inst = catalog.duffing(coeffs=((1, 0, 0, 1), (2, 0, 0, 3)))
    assert len(inst.sys.equations) == 2


def test_duffing_degenerate_warning():
    with pytest.warns(UserWarning, match="degenerate"):
        catalog.duffing(coeffs=((0, 0, 0, 0), (1, 1, 1, 1)))


def test_bott_samelson_metadata():
    inst = catalog.bott_samelson()
    assert inst.expected_count == 6
    assert len(inst.sys.par.phi) == 8
    assert inst.sys.degrees == (1, 1, 1)


def test_pluecker_chart_gr24():
    par = catalog.pluecker_chart(2, 4)
    assert len(par.phi) == 6
    assert par.n == 4
    assert check_khovanskii_truncated(par, 2).passed


def test_pluecker_chart_rejects_bad_sizes():
    with pytest.raises(ValueError):
        catalog.pluecker_chart(3, 3)


def test_pluecker_relation_gr24():
    # p12 p34 - p13 p24 + p14 p23 = 0
    par = catalog.pluecker_chart(2, 4)
    p = {
        S: f
        for S, f in zip(itertools.combinations(range(4), 2), par.phi)
    }
    rel = (
        p[(0, 1)] * p[(2, 3)]
        - p[(0, 2)] * p[(1, 3)]
        + p[(0, 3)] * p[(1, 2)]
    )
    assert rel.is_zero()


def test_osculating_flag_rows():
    flag = catalog.osculating_flag(3, 5)
    assert flag[0] == (1, 3, 9, 27, 81)
    assert flag[1] == (0, 1, 6, 27, 108)
    assert flag[2] == (0, 0, 2, 18, 108)
    neg = catalog.osculating_flag(-2, 5)
    assert neg[0] == (1, -2, 4, -8, 16)
    assert neg[2] == (0, 0, 2, -12, 48)


def test_osculating_flag_invertible():
    for s in (-3, -1, 0, 2):
        flag = catalog.osculating_flag(s, 5)
        assert linalg.rank([list(r) for r in flag], QQ) == 5


def test_random_flags_deterministic_and_invertible():
    a = catalog.random_flags(4, 3, seed=9)
    b = catalog.random_flags(4, 3, seed=9)
    assert a == b
    for flag in a:
        assert linalg.rank([list(r) for r in flag], QQ) == 4
    c = catalog.random_flags(4, 3, seed=10)
    assert c != a


def test_schubert_condition_dimension():
    cond = catalog.SchubertCondition((2, 4, 6), None)
    assert cond.dimension() == 6
    cond = catalog.SchubertCondition((3, 5, 6), None)
    assert cond.dimension() == 8


def test_schubert_246_cubed_equation_counts():
    flags = catalog.random_flags(6, 3, seed=0)
    conds = [catalog.SchubertCondition((2, 4, 6), f) for f in flags]
    inst = catalog.schubert_equations(3, 6, conds)
    assert inst.extras["n_raw_equations"] == 39
    assert inst.extras["n_equations"] == 18
    assert inst.expected_count == 2
    assert inst.recommended_dreg == 2


def test_schubert_dimension_mismatch():
    flags = catalog.random_flags(6, 2, seed=0)
    conds = [catalog.SchubertCondition((2, 4, 6), f) for f in flags]
    with pytest.raises(ValueError, match="codimension"):
        catalog.schubert_equations(3, 6, conds)


def test_schubert_rejects_bad_input():
    flags = catalog.random_flags(6, 1, seed=0)
    with pytest.raises(ValueError, match="indices"):
        catalog.schubert_equations(
            3, 6, [catalog.SchubertCondition((2, 2, 6), flags[0])]
        )
    singular = tuple(tuple(0 for _ in range(6)) for _ in range(6))
    with pytest.raises(ValueError, match="singular"):
        catalog.schubert_equations(
            3, 6, [catalog.SchubertCondition((2, 4, 6), singular)]
        )


@pytest.mark.parametrize("shape", [(5, 6), (6, 5)])
def test_schubert_rejects_flag_of_wrong_shape(shape):
    rows, cols = shape
    flag = tuple(
        tuple(QQ.from_int(int(r == c)) for c in range(cols)) for r in range(rows)
    )
    with pytest.raises(catalog.InputError, match=f"must be 6x6, got {rows}x{cols}"):
        catalog.schubert_equations(
            3, 6, [catalog.SchubertCondition((2, 4, 6), flag)] * 3
        )


def _leibniz(rows, field, varnames):
    """Determinant by the Leibniz formula; products with a zero entry are
    skipped."""
    k = len(rows)
    total = MultiPoly.zero(field, varnames)
    for perm in itertools.permutations(range(k)):
        entries = [rows[r][perm[r]] for r in range(k)]
        if any(e.is_zero() for e in entries):
            continue
        term = entries[0]
        for e in entries[1:]:
            term = term * e
        inv = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        total = total - term if inv % 2 else total + term
    return total


def _chart(k, m, field):
    """The chart matrix [I | T] with T filled row-major by t_1..t_n."""
    varnames = tuple(f"t{i}" for i in range(1, k * (m - k) + 1))
    H = [
        [MultiPoly.constant(field, varnames, field.one if a == b else field.zero)
         for b in range(k)]
        + [MultiPoly.variable(field, varnames, a * (m - k) + b) for b in range(m - k)]
        for a in range(k)
    ]
    return H, varnames


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF"])
@pytest.mark.parametrize("flags", ["random", "osculating"])
@pytest.mark.parametrize("k,m,alphas", [
    (2, 4, ((1, 3), (2, 4))),
    (2, 5, ((2, 4), (3, 5))),
    (3, 6, ((2, 4, 6), (3, 5, 6), (2, 5, 6))),
])
def test_schubert_minors_match_leibniz(field, flags, k, m, alphas):
    # every minor of every stacked matrix (H; F_{alpha_i}), zero or not,
    # as the linear form sum_S c_S phi_S equals the Leibniz determinant of
    # its entries
    H, varnames = _chart(k, m, field)
    phi = catalog.pluecker_chart(k, m, field, validate_degree=0).phi
    if flags == "random":
        fl = catalog.random_flags(m, len(alphas), seed=m, field=field)
    else:
        fl = [catalog.osculating_flag(s, m, field) for s in (2, -3, 5)]
    dropped = 0
    for alpha, flag in zip(alphas, fl):
        cond = catalog.SchubertCondition(alpha, flag)
        stacked = H + [
            [MultiPoly.constant(field, varnames, c) for c in row] for row in flag
        ]
        expected = sum(
            len(list(itertools.combinations(range(k + a), k + a - i + 1)))
            * len(list(itertools.combinations(range(m), k + a - i + 1)))
            for i, a in enumerate(alpha, start=1)
            if k + a - i + 1 <= m
        )
        minors = list(catalog._condition_minors(cond, k, m, field))
        assert len(minors) == expected
        for rows, cols, form in minors:
            assert all(c != field.zero for c in form.values())
            d = MultiPoly.zero(field, varnames)
            for j, c in form.items():
                d = d + phi[j].scale(c)
            sub = [[stacked[r][c] for c in cols] for r in rows]
            assert d == _leibniz(sub, field, varnames)
            dropped += sum(r < k for r in rows) < k
    # some row selections leave out chart rows, e.g. (2,4,6) at i = 2
    assert dropped


def _fraction_minor(flag, rows, cols):
    """det flag[rows, cols] by expansion along the first row, in Fraction
    arithmetic; the empty minor is 1."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * flag[rows[0]][c] * _fraction_minor(flag, rows[1:], cols[:j] + cols[j + 1:])
        for j, c in enumerate(cols) if flag[rows[0]][c]
    )


def test_schubert_minors_of_a_flag_with_fractions():
    # an osculating flag at s = 1/2 with rows scaled by 1/7, 2/3, 3/7, ...:
    # the integer minors of its numerators over den**size are the Fraction
    # recursion's, and each form of a condition on it, evaluated at a
    # point of the chart, is the Fraction determinant of the stacked matrix
    k, m = 2, 5
    flag = tuple(
        tuple(x * Fraction(r + 1, 3 if r % 2 else 7) for x in row)
        for r, row in enumerate(catalog.osculating_flag(Fraction(1, 2), m))
    )
    N, den = catalog._integer_flag(flag, QQ)
    assert den == 336
    memo = {}
    for size in range(m + 1):
        for rows in itertools.combinations(range(m), size):
            for cols in itertools.combinations(range(m), size):
                got = catalog._flag_minor(N, rows, cols, memo, None)
                assert Fraction(got, den**size) == _fraction_minor(flag, rows, cols)
    phi = catalog.pluecker_chart(k, m, validate_degree=0).phi
    rng = random.Random(5)
    t = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k * (m - k))]
    H = [[Fraction(int(a == b)) for b in range(k)] + t[a * (m - k):(a + 1) * (m - k)]
         for a in range(k)]
    stacked = H + [list(row) for row in flag]
    values = [f.evaluate(t) for f in phi]
    cond = catalog.SchubertCondition((3, 5), flag)
    for rows, cols, form in catalog._condition_minors(cond, k, m, QQ):
        assert all(type(c) is Fraction and c for c in form.values())
        assert sum(c * values[j] for j, c in form.items()) == _fraction_minor(
            stacked, rows, cols)


def test_pluecker_generators_are_the_full_chart_minors():
    H, varnames = _chart(3, 6, QQ)
    par = catalog.pluecker_chart(3, 6, validate_degree=0)
    for S, f in zip(itertools.combinations(range(6), 3), par.phi):
        assert f == _leibniz([[row[c] for c in S] for row in H], QQ, varnames)


@pytest.mark.parametrize("k,m", [(k, m) for m in range(2, 7) for k in range(1, m)])
def test_diagonal_weights_give_a_khovanskii_basis(k, m):
    # the maximal minors are a SAGBI basis under the diagonal weights:
    # distinct leading exponents and the truncated check at degree 2
    par = catalog.pluecker_chart(k, m, validate_degree=0)
    assert par.ord.omega == catalog._pluecker_weights(k, m)
    assert len({par.column(j) for j in range(len(par.phi))}) == len(par.phi)
    assert check_khovanskii_truncated(par, 2).passed


def test_pluecker_chart_failed_check_names_the_degree(monkeypatch):
    par = catalog.pluecker_chart(2, 4, validate_degree=0)
    failed = KhovanskiiReport(2, (DegreeCheck(1, 6, 6, True, ()), DegreeCheck(2, 20, 21, False, ())))
    monkeypatch.setattr(catalog, "check_khovanskii_truncated", lambda p, d: failed)
    with pytest.raises(ValueError, match="check at degree 2"):
        catalog.pluecker_chart(2, 4)
    assert catalog.pluecker_chart(2, 4, validate_degree=0).phi == par.phi


def test_schubert_rejects_a_chart_with_permuted_generators():
    chart = catalog.pluecker_chart(2, 4, validate_degree=0)
    phi = chart.phi[1:] + chart.phi[:1]
    permuted = build_parameterization(phi, chart.ord, QQ)
    assert permuted.varnames == chart.varnames
    conds = [catalog.SchubertCondition((2, 4), f) for f in catalog.random_flags(4, 4, seed=0)]
    assert catalog.schubert_equations(2, 4, conds, par=chart).extras["n_equations"] == 4
    with pytest.raises(catalog.InputError, match="not the Pluecker chart"):
        catalog.schubert_equations(2, 4, conds, par=permuted)


def _conds(alpha, count, seed, field=QQ):
    return [
        catalog.SchubertCondition(alpha, f)
        for f in catalog.random_flags(6, count, seed=seed, field=field)
    ]


@pytest.mark.parametrize("build,field,raw,kept", [
    (lambda F: _conds((3, 5, 6), 1, 1) + _conds((2, 5, 6), 4, 2), QQ, 25, 17),
    (lambda F: _conds((3, 5, 6), 5, 1, F) + _conds((2, 5, 6), 2, 2, F),
     GF(P), 17, 13),
], ids=["qq-356-4x256", "fp-5x356-2x256"])
def test_schubert_equation_counts_of_benchmark_shapes(build, field, raw, kept):
    # Gr(3,6) problem shapes of the pipeline benchmark, flags seeded; the
    # third, (2,4,6)^3, is test_schubert_246_cubed_equation_counts
    inst = catalog.schubert_equations(3, 6, build(field), field=field)
    assert inst.extras["n_raw_equations"] == raw
    assert inst.extras["n_equations"] == kept


def test_chart_matrix_round_trip():
    # random rational 2 x 5 matrix in reduced form on columns (0, 1);
    # its minors reconstruct it exactly
    rng = random.Random(21)
    k, m = 2, 5
    H = [[0.0] * m for _ in range(k)]
    H[0][0] = H[1][1] = 1.0
    for i in range(k):
        for j in range(k, m):
            H[i][j] = rng.randint(-9, 9) / 4.0
    coords = []
    for cols in itertools.combinations(range(m), k):
        a, b = cols
        coords.append(H[0][a] * H[1][b] - H[0][b] * H[1][a])
    R = catalog.chart_matrix_from_pluecker(k, m, coords, pivots=(0, 1))
    for i in range(k):
        for j in range(m):
            assert abs(R[i][j] - H[i][j]) < 1e-12


def test_chart_matrix_vanishing_pivot():
    with pytest.raises(ValueError, match="vanishes"):
        catalog.chart_matrix_from_pluecker(
            2, 4, [0, 1, 1, 1, 1, 1], pivots=(0, 1)
        )


def test_random_dense_system_zero_mask():
    par = catalog.duffing().sys.par
    alpha = (1, 0, 0, 0, 0)
    sys = catalog.random_dense_system(
        par, (1, 1), seed=4, zero_coeffs=[(0, alpha)]
    )
    assert alpha not in sys.coefficient_form(0)
    assert alpha in sys.coefficient_form(1)


def test_random_dense_system_deterministic():
    par = catalog.del_pezzo(field=GF(101))
    a = catalog.random_dense_system(par, (1, 1), seed=2)
    b = catalog.random_dense_system(par, (1, 1), seed=2)
    assert [e.coeff_form for e in a.equations] == [
        e.coeff_form for e in b.equations
    ]


def test_get_instance_names():
    assert catalog.get_instance("duffing").expected_count == 5
    assert catalog.get_instance("bottsamelson").expected_count == 6
    inst = catalog.get_instance("delpezzo", seed=1)
    assert len(inst.sys.equations) == 2
    gr = catalog.get_instance("grassmannian:2,4", seed=1)
    assert len(gr.sys.equations) == 4
    with pytest.raises(KeyError):
        catalog.get_instance("twisted-cubic")
