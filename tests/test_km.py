from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khovsolve import catalog, khov, km, linalg
from khovsolve.fields import GF, QQ
from khovsolve.hilbert import hilbert_function
from khovsolve.khov import graded_basis, graded_support, subduct, witness_monomial
from khovsolve.km import (
    Equation,
    NotInAlgebraError,
    StructuredSystem,
    km_matrix,
    km_shape,
)
from khovsolve.poly import parse_polynomial
from khovsolve.solver import kernel_basis


@pytest.fixture(scope="module")
def duffing_sys():
    return catalog.duffing().sys


def test_duffing_km_shapes(duffing_sys):
    assert km_shape(duffing_sys, 2) == (10, 14)
    assert km_matrix(duffing_sys, 2).shape == (10, 14)
    assert km_shape(duffing_sys, 3) == (28, 28)


def test_duffing_family_km_shape_table(duffing_sys):
    # two generic degree-d equations on the same surface, matrix at 2d+1
    par = duffing_sys.par
    expect = {1: (28, 28), 2: (56, 71), 3: (94, 134), 4: (142, 217)}
    for d, shape in expect.items():
        sys = catalog.random_dense_system(par, (d, d), seed=d)
        assert km_shape(sys, 2 * d + 1) == shape


def test_duffing_x4_f2_row(duffing_sys):
    # the row of b_{1,(1,0,3)} * F_2 holds 13, 11, 17, 19 on the columns
    # labelled by x2x3, x0x4, x2x4 and x4^2
    M = km_matrix(duffing_sys, 2)
    r = M.row_labels.index((1, (1, 0, 3)))
    row = M.entries[r]
    col = {lab: j for j, lab in enumerate(M.col_labels)}
    expect = {
        (2, 1, 3): Fraction(13),
        (2, 0, 3): Fraction(11),
        (2, 0, 4): Fraction(17),
        (2, 0, 6): Fraction(19),
    }
    for lab, j in col.items():
        assert row[j] == expect.get(lab, Fraction(0))


def test_row_labels_order(duffing_sys):
    M = km_matrix(duffing_sys, 2)
    sup1 = graded_support(duffing_sys.par, 1).points
    assert M.row_labels == tuple(
        (i, g) for i in range(2) for g in sup1
    )
    assert M.col_labels == graded_support(duffing_sys.par, 2).points


def test_rows_reconstruct_products(duffing_sys):
    """Each KM row expands b_{d-1,gamma} * f_i in the degree-d basis."""
    par = duffing_sys.par
    d = 2
    M = km_matrix(duffing_sys, d)
    bas = graded_basis(par, d)
    for (i, gamma), row in zip(M.row_labels, M.entries):
        eq = duffing_sys.equations[i]
        prev = graded_basis(par, d - eq.degree)
        prev_sup = graded_support(par, d - eq.degree)
        b = prev.elements[prev_sup.index[gamma]][1]
        combo = None
        for c, (_, be) in zip(row, bas.elements):
            term = be.scale(c)
            combo = term if combo is None else combo + term
        assert combo == b * eq.f


def test_rank_plus_nullity(duffing_sys):
    for d in range(5):
        M = km_matrix(duffing_sys, d)
        rk = linalg.rank([list(r) for r in M.entries], QQ)
        N = kernel_basis(M)
        assert rk + N.nullity == hilbert_function(duffing_sys.par, d)


def test_degree_zero_matrix_is_empty(duffing_sys):
    M = km_matrix(duffing_sys, 0)
    assert M.shape == (0, 1)
    assert kernel_basis(M).nullity == 1


def test_reduced_matrix_preserves_kernel(duffing_sys):
    M = km_matrix(duffing_sys, 3)
    R = km_matrix(duffing_sys, 3, reduce=True)
    assert R.reduced and not M.reduced
    assert R.shape == (23, 28)
    assert set(R.row_labels) <= set(M.row_labels)
    N = kernel_basis(R)
    # every kernel vector of the reduced matrix is annihilated by every
    # unreduced row, so the kernels coincide (dimensions match by rank)
    assert N.nullity == kernel_basis(M).nullity
    for row in M.entries:
        for v in N.N:
            assert sum(c * x for c, x in zip(row, v)) == 0


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_kernel_from_kept_echelon(field, monkeypatch):
    # the reduced matrix keeps the echelon of its row selection; the
    # kernel read off it is the canonical kernel of the unreduced rows
    sys = catalog.duffing(field=field).sys
    for d in (2, 3, 4):
        M = km_matrix(sys, d)
        expect = linalg.kernel([list(r) for r in M.entries], field, len(M.col_labels))
        R = km_matrix(sys, d, reduce=True)
        assert R.echelon is not None and M.echelon is None

        def no_elimination(*args):
            raise AssertionError("kernel_basis ran a second elimination")

        with monkeypatch.context() as mp:
            mp.setattr(linalg, "echelon", no_elimination)
            N = kernel_basis(R)
        assert [list(v) for v in N.N] == expect


def _fractional(sys):
    """sys with its equations scaled by 1/3 and 5/7 in turn: over QQ a
    system whose forms are not integral, and whose equations of different
    degrees can have different denominators."""
    scale = (Fraction(1, 3), Fraction(5, 7))
    return StructuredSystem(sys.par, [
        Equation(degree=eq.degree,
                 coeff_form={a: c * scale[i % 2] for a, c in eq.coeff_form.items()})
        for i, eq in enumerate(sys.equations)
    ])


def test_fast_and_generic_paths_agree():
    # the KM rows combined from the multiplication maps equal one
    # subduction per product b * f, for equations of degree 1, 2 and 3
    for field in (QQ, GF(9716633), GF(2**31 - 1), GF(2**61 - 1)):
        duffing = catalog.duffing(field=field).sys
        cases = [
            (duffing, (2, 3)),
            (catalog.random_dense_system(duffing.par, (1, 2, 3), seed=4), (3, 4)),
            (catalog.random_dense_system(catalog.del_pezzo(field=field),
                                         (2, 1, 3), seed=5), (3,)),
        ]
        if field == QQ:
            mixed = catalog.random_dense_system(duffing.par, (2, 1), seed=6)
            cases += [(_fractional(duffing), (2, 3)), (_fractional(mixed), (3,))]
            for sys, _ in cases[-2:]:
                assert km._map_combination(sys, 3, km._km_blocks(sys, 3), 3)[0].den > 1
        for sys, degrees in cases:
            par = sys.par
            for d in degrees:
                sup = graded_support(par, d)
                expect = [
                    subduct(par, b * eq.f, d).vector(sup)
                    for eq in sys.equations
                    if d >= eq.degree
                    for _, b in graded_basis(par, d - eq.degree).elements
                ]
                M = km_matrix(sys, d)
                assert [list(r) for r in M.entries] == expect
                assert {type(x) for r in M.entries for x in r} == {type(field.zero)}


def _term_by_term(sys, d, blocks):
    """The S of `km._map_combination`, built one term of a form at a time:
    H entries of field elements per coefficient of a linear block, and the
    nonzero entries of its rows one degree down per part g_j of a block of
    higher degree, sorted by row by `linalg.sparse`."""
    par, field = sys.par, sys.par.field
    H = len(graded_support(par, d - 1))
    rows, cols, vals, first = [], [], [], 0
    for i, form, e in blocks:
        for j, g in km._split(form).items():
            if e == 1:
                (c,) = g.values()
                for gamma in range(H):
                    rows.append(first + gamma)
                    cols.append(j * H + gamma)
                    vals.append(c)
            else:
                A, den = km._map_rows(sys, d - 1, [(i, g, e - 1)], d)
                for r, c in zip(*np.nonzero(A)):
                    rows.append(first + int(r))
                    cols.append(j * H + int(c))
                    vals.append(linalg.field_values(A[r:r + 1, c], den, field)[0])
        first += len(graded_support(par, d - e))
    X = khov.multiplication_map(par, d - 1).matrix
    return linalg.sparse((first, X.shape[0]), rows, cols, vals, field)


def _gr36_count(field):
    """The 11-solution Gr(3,6) count 5 x (3,5,6) + 2 x (2,5,6)."""
    conds = [
        catalog.SchubertCondition((3, 5, 6), f)
        for f in catalog.random_flags(6, 5, seed=1, field=field)
    ] + [
        catalog.SchubertCondition((2, 5, 6), f)
        for f in catalog.random_flags(6, 2, seed=2, field=field)
    ]
    return catalog.schubert_equations(3, 6, conds, field=field).sys


@pytest.mark.parametrize("field", [QQ, GF(101), GF(9716633), GF(2**61 - 1)], ids=str)
def test_map_combination_matches_term_by_term(field):
    # S from one coefficient array: rows, columns, values (and their
    # dtype) and denominator as the term-by-term build, for linear
    # blocks alone, for linear blocks mixed with blocks of degree 2 and 3,
    # and for the Schubert equations of the Gr(3,6) count
    duffing = catalog.duffing(field=field).sys
    cases = [
        (duffing, 3),
        (catalog.random_dense_system(duffing.par, (1, 2, 1, 3), seed=8), 3),
        (catalog.random_dense_system(catalog.del_pezzo(field=field), (2, 1), seed=9), 3),
    ]
    if field == QQ:
        cases += [(_fractional(sys), d) for sys, d in cases]
    if field in (QQ, GF(9716633)):
        cases.append((_gr36_count(field), 2 if field == QQ else 3))
    dens = []
    for sys, d in cases:
        for blocks in (km._km_blocks(sys, d), km._km_blocks(sys, d)[::-1]):
            S, _ = km._map_combination(sys, d, blocks, d)
            R = _term_by_term(sys, d, blocks)
            assert S.shape == R.shape and S.den == R.den
            assert S.rows.tolist() == R.rows.tolist() and S.cols.tolist() == R.cols.tolist()
            assert S.vals.dtype == R.vals.dtype and S.vals.tolist() == R.vals.tolist()
            dens.append(S.den)
    assert max(dens) > 1 if field == QQ else set(dens) == {1}


def test_equation_not_in_graded_piece():
    par = catalog.duffing().sys.par
    g = parse_polynomial("t2^2", par.varnames)
    with pytest.raises(NotInAlgebraError):
        StructuredSystem(par, [Equation(f=g, degree=1)])


def test_unvalidated_equation_outside_graded_piece():
    # the second equation, t2^2, has a nonzero remainder in degree 1: the
    # expansion that reads its coefficient form raises at construction
    for field in (QQ, GF(9716633)):
        par = catalog.duffing(field=field).sys.par
        eqs = [Equation(f=par.phi[1], degree=1),
               Equation(f=parse_polynomial("t2^2", par.varnames, field), degree=1)]
        with pytest.raises(NotInAlgebraError, match="equation 1 is not in the degree-1"):
            StructuredSystem(par, eqs)


def test_km_detects_incomplete_basis():
    # generators that fail the Khovanskii property at degree 2: building
    # KM rows hits a nonzero remainder and reports the cause
    from khovsolve.khov import build_parameterization
    from khovsolve.poly import WeightOrder

    for field in (QQ, GF(9716633)):  # generic and batched expansion
        phi = [
            parse_polynomial(s, ("t1", "t2"), field)
            for s in ("t1 + t2", "t1*t2", "t1*t2^2")
        ]
        par = build_parameterization(phi, WeightOrder((-1, 0)))
        f = par.phi[1]
        sys = StructuredSystem(par, [Equation(f=f, degree=1)])
        with pytest.raises(NotInAlgebraError, match="Khovanskii"):
            km_matrix(sys, 2)


def test_form_of_higher_degree_outside_the_basis_raises_at_km():
    # phi_1^2 on the generators above is a degree-2 form: the system
    # builds, and its KM rows in degree 2 read the products of X^(1) that
    # leave the incomplete degree-2 basis
    from khovsolve.khov import build_parameterization
    from khovsolve.poly import WeightOrder

    for field in (QQ, GF(9716633)):
        phi = [
            parse_polynomial(s, ("t1", "t2"), field)
            for s in ("t1 + t2", "t1*t2", "t1*t2^2")
        ]
        par = build_parameterization(phi, WeightOrder((-1, 0)))
        sys = StructuredSystem(par, [Equation(degree=2, coeff_form={(0, 2, 0): field.one})])
        with pytest.raises(NotInAlgebraError, match="Khovanskii check at degree 2"):
            km_matrix(sys, 2)


def test_equation_validation():
    with pytest.raises(ValueError):
        Equation(degree=1)
    with pytest.raises(ValueError):
        Equation(f=object(), degree=0)
    par = catalog.duffing().sys.par
    wrong = {(2, 0, 0, 0, 0): Fraction(1)}
    with pytest.raises(ValueError):
        StructuredSystem(par, [Equation(degree=1, coeff_form=wrong)])
    # coeff_form inconsistent with f
    f = par.phi[1]
    bad = {(1, 0, 0, 0, 0): Fraction(1)}
    with pytest.raises(ValueError, match="does not expand"):
        StructuredSystem(par, [Equation(f=f, degree=1, coeff_form=bad)])


def test_coefficient_form_round_trip(duffing_sys):
    par = duffing_sys.par
    for i in range(2):
        form = duffing_sys.coefficient_form(i)
        rebuilt = StructuredSystem(
            par, [Equation(degree=1, coeff_form=form)]
        )
        assert rebuilt.equations[0].f == duffing_sys.equations[i].f


def test_derived_coefficient_form(duffing_sys):
    # drop the stored form and re-derive it by subduction
    par = duffing_sys.par
    eq = duffing_sys.equations[0]
    bare = StructuredSystem(par, [Equation(f=eq.f, degree=1)])
    assert bare.coefficient_form(0) == eq.coeff_form


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_validation_expands_once_per_degree(monkeypatch):
    # two equations of degree 1 and two of degree 2, given by f alone: one
    # `expand` call per degree validates them all, and their coefficient
    # forms are read off its rows
    par = catalog.duffing().sys.par
    dense = catalog.random_dense_system(par, (1, 2, 1, 2), seed=3).equations
    calls = _count_calls(monkeypatch, km, "expand")
    sys = StructuredSystem(par, [Equation(f=eq.f, degree=eq.degree) for eq in dense])
    assert sorted((d, len(polys)) for _, polys, d in calls) == [(1, 2), (2, 2)]
    for i, eq in enumerate(dense):
        form = sys.coefficient_form(i)
        assert km._expand_coeff_form(par, form, eq.degree) == eq.f
        assert {type(c) for c in form.values()} == {Fraction}
    assert len(calls) == 2


def test_each_coefficient_form_expands_once(monkeypatch):
    # a form given alone is expanded to f on the first read of f only, and
    # then kept; a form given with f is expanded once, to compare
    par = catalog.duffing().sys.par
    dense = catalog.random_dense_system(par, (1, 2, 1), seed=3).equations
    calls = _count_calls(monkeypatch, km, "_expand_coeff_form")
    sys = StructuredSystem(par, [Equation(degree=eq.degree, coeff_form=eq.coeff_form)
                                 for eq in dense])
    assert len(calls) == 0
    eq = sys.equations[1]
    f = eq.f
    assert len(calls) == 1
    assert eq.f is f
    assert len(calls) == 1
    del calls[:]
    StructuredSystem(par, [Equation(f=f, degree=eq.degree, coeff_form=eq.coeff_form)])
    assert len(calls) == 1


def test_not_in_algebra_only_for_the_equation_asked_for():
    par = catalog.duffing().sys.par
    eqs = [Equation(f=par.phi[1], degree=1),
           Equation(f=parse_polynomial("t2^2", par.varnames), degree=1)]
    message = ("equation 1 is not in the degree-1 graded piece "
               "(subduction remainder t2^2)")
    with pytest.raises(NotInAlgebraError) as err:
        StructuredSystem(par, eqs)
    assert str(err.value) == message


def test_negative_degree_rejected(duffing_sys):
    with pytest.raises(ValueError):
        km_matrix(duffing_sys, -1)


# ---------------------------------------------------------------------------
# the F5 row criterion of km_matrix(reduce=True)
# ---------------------------------------------------------------------------

F5_FIELDS = [QQ, GF(101), GF(9716633), GF(2**61 - 1)]
_F5_PARS = {}


def _f5_par(surface, field):
    key = (surface, field.modulus if field != QQ else 0)
    if key not in _F5_PARS:
        _F5_PARS[key] = (catalog.duffing(field=field).sys.par if surface == "duffing"
                         else catalog.del_pezzo(field=field))
    return _F5_PARS[key]


@given(
    st.sampled_from(F5_FIELDS),
    st.sampled_from(["duffing", "delpezzo"]),
    st.lists(st.integers(1, 3), min_size=2, max_size=3),
    st.integers(0, 3),
    st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_f5_reduced_kernel_equals_unreduced_kernel(field, surface, degrees, extra, seed):
    sys = catalog.random_dense_system(_f5_par(surface, field), tuple(degrees), seed=seed)
    d = min(max(degrees) + extra, 5)
    M = km_matrix(sys, d)
    R = km_matrix(sys, d, reduce=True)
    expect = linalg.kernel([list(r) for r in M.entries], field, len(M.col_labels))
    N = kernel_basis(R)
    assert [list(v) for v in N.N] == expect
    # every unreduced row, dropped by F5 or not, annihilates the kernel
    if expect and M.entries:
        assert all(not any(row) for row in linalg.matmul(
            [list(r) for r in M.entries], [list(c) for c in zip(*expect)], field))


@pytest.mark.parametrize("field", [QQ, GF(9716633)], ids=str)
def test_f5_drops_the_pivots_of_each_prefix(field):
    # row (i, gamma) goes exactly when gamma is a pivot column of the
    # echelon of the KM matrix of f_1..f_{i-1} in degree d - d_i, each
    # prefix eliminated from scratch
    par = catalog.duffing(field=field).sys.par
    sys = catalog.random_dense_system(par, (1, 2, 1, 2), seed=7)
    d = 4
    labels = km._row_labels(sys, d)
    kept = set(km._f5_rows(sys, d, km._km_blocks(sys, d)).tolist())
    expect = set()
    for i in range(1, len(sys.equations)):
        e = d - sys.equations[i].degree
        P = km_matrix(StructuredSystem(par, sys.equations[:i]), e)
        pivots = linalg.echelon([list(r) for r in P.entries], field).pivots
        expect |= {(i, P.col_labels[c]) for c in pivots}
    assert expect
    assert {lab for k, lab in enumerate(labels) if k not in kept} == expect


def _rows_formed(monkeypatch):
    """Record the row count of every matrix km_matrix(reduce=True) eliminates."""
    counts = []
    real = linalg.echelon

    def spy(rows, field):
        counts.append(len(rows))
        return real(rows, field)

    monkeypatch.setattr(linalg, "echelon", spy)
    return counts


def test_f5_row_count_gr36_eleven_solutions(monkeypatch):
    # 5 x (3,5,6) + 2 x (2,5,6) at dreg 3: 2275 rows, rank 969, and the
    # F5 criterion forms 1041 of them
    sys = _gr36_count(GF(9716633))
    counts = _rows_formed(monkeypatch)
    R = km_matrix(sys, 3, reduce=True)
    assert km_shape(sys, 3) == (2275, 980)
    assert counts == [1041]
    assert R.shape == (969, 980)
    assert kernel_basis(R).nullity == 11


def test_f5_unlucky_prime_in_a_qq_prefix(monkeypatch):
    # the prefix f_0 = P b_0 + b_1 has a column whose only nonzero entry is
    # P = LIFT_PRIME: its pivot mod P is column 1, not column 0 as over QQ,
    # so F5 drops row (1, gamma_1), which is just as redundant
    P = linalg.LIFT_PRIME
    par = catalog.duffing().sys.par
    points = graded_support(par, 1).points
    alpha = [witness_monomial(par, 1, b) for b in points]
    dense = catalog.random_dense_system(par, (1,), seed=3).equations[0]
    sys = StructuredSystem(par, [
        Equation(degree=1, coeff_form={alpha[0]: Fraction(P), alpha[1]: Fraction(1)}),
        dense,
    ])
    labels = km._row_labels(sys, 2)
    kept = km._f5_rows(sys, 2, km._km_blocks(sys, 2)).tolist()
    assert [lab for k, lab in enumerate(labels) if k not in kept] == [(1, points[1])]
    M = km_matrix(sys, 2)
    expect = linalg.kernel([list(r) for r in M.entries], QQ, len(M.col_labels))
    assert [list(v) for v in kernel_basis(km_matrix(sys, 2, reduce=True)).N] == expect


def test_outside_row_used_only_by_dropped_rows_still_raises():
    # the generators fail the Khovanskii check at degree 2; at degree 3
    # only rows of equation 2 use outside rows of X^(2), and F5 drops every
    # row of equation 2, yet every label is checked, as without reduction
    from khovsolve.khov import build_parameterization
    from khovsolve.poly import WeightOrder

    for field in (QQ, GF(9716633)):
        phi = [
            parse_polynomial(s, ("t1", "t2"), field)
            for s in ("t1 + t2", "t1*t2", "t1*t2^2")
        ]
        par = build_parameterization(phi, WeightOrder((-1, 0)))
        forms = [{(0, 0, 1): 2}, {(1, 0, 0): 1}, {(1, 0, 0): 1, (0, 1, 0): -1}]
        sys = StructuredSystem(par, [
            Equation(degree=1, coeff_form={a: field.from_int(c) for a, c in f.items()})
            for f in forms
        ])
        labels = km._row_labels(sys, 3)
        kept = km._f5_rows(sys, 3, km._km_blocks(sys, 3)).tolist()
        assert all(labels[k][0] < 2 for k in kept)
        for reduce in (False, True):
            with pytest.raises(NotInAlgebraError, match="for equation 2 at degree 3"):
                km_matrix(sys, 3, reduce=reduce)
