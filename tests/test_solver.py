import cmath
import dataclasses
import types
from fractions import Fraction

import numpy as np
import pytest

from khovsolve import catalog, linalg, solver
from khovsolve.fields import GF, QQ
from khovsolve.hilbert import hilbert_function
from khovsolve.khov import graded_support
from khovsolve.km import km_matrix
from khovsolve.solver import (
    _default_dreg,
    SolverError,
    UnsupportedFieldError,
    brute_force_affine,
    extract_solutions,
    kernel_basis,
    multiplication_matrices,
    normalize_solutions,
    residuals,
    solve,
)

P = 9716633


@pytest.fixture(scope="module")
def duffing():
    return catalog.duffing()


def test_duffing_nullity_sequence(duffing):
    nullities = []
    for d in range(5):
        M = km_matrix(duffing.sys, d, reduce=True)
        nullities.append(kernel_basis(M).nullity)
    assert nullities == [1, 3, 5, 5, 5]


def test_duffing_end_to_end(duffing):
    sols = solve(duffing.sys, dreg=3, seed=0)
    assert len(sols) == 5
    assert all(r < 1e-8 for r in sols.residuals)
    assert sols.diagnostics["delta"] == 5
    assert sols.diagnostics["dreg"] == 3


def test_duffing_default_dreg(duffing):
    # with s = n the regularity bound gives dreg automatically
    sols = solve(duffing.sys, seed=0)
    assert sols.diagnostics["dreg"] == 3
    assert len(sols) == 5


def test_duffing_solve_is_certified(duffing):
    sols = solve(duffing.sys, seed=0)
    assert sols.diagnostics["certified"] is True
    assert sols.diagnostics["uncertified"] == []


def test_uncertified_hilbert_data_is_reported(duffing, monkeypatch):
    # Hilbert data that never certifies: the solve goes on, with a warning
    # and the reason in its diagnostics
    real = solver.hilbert_numerator

    def uncertified(par, dmax):
        return dataclasses.replace(real(par, dmax), certified=False)

    monkeypatch.setattr(solver, "hilbert_numerator", uncertified)
    with pytest.warns(UserWarning, match="uncertified Hilbert regularity"):
        sols = solve(duffing.sys, seed=0)
    assert len(sols) == 5
    assert sols.diagnostics["certified"] is False
    [reason] = sols.diagnostics["uncertified"]
    assert "uncertified Hilbert regularity" in reason


def test_duffing_adaptive_dreg(duffing):
    sols = solve(duffing.sys, adaptive=True, seed=0)
    assert len(sols) == 5


def test_adaptive_dreg_builds_each_km_matrix_once(duffing, monkeypatch):
    # the search's matrix at the degree it returns is the one solved
    degrees = []
    real = solver.km_matrix

    def spy(sys, d, reduce=False):
        degrees.append(d)
        return real(sys, d, reduce=reduce)

    monkeypatch.setattr(solver, "km_matrix", spy)
    sols = solve(duffing.sys, adaptive=True, seed=0)
    assert degrees == [2, 3]
    assert sols.diagnostics["dreg"] == 3
    assert sols.diagnostics["km_shape"] == (23, 28)
    assert len(sols) == 5


def _expanded(par, form):
    """sum c_alpha prod phi_j**alpha_j, term by term."""
    f = None
    for alpha, c in form.items():
        g = par.phi[0] ** 0
        for j, a in enumerate(alpha):
            g = g * par.phi[j] ** a
        f = g.scale(c) if f is None else f + g.scale(c)
    return f


def test_pipeline_forms_no_polynomial_from_a_form(monkeypatch):
    # the KM rows, kernels, multiplication matrices and residuals read the
    # coefficient forms: no f is expanded from one unless it is read
    from khovsolve import km

    calls = []
    real = km._expand_coeff_form

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(km, "_expand_coeff_form", spy)
    sys = catalog.duffing().sys
    assert len(solve(sys, dreg=3, seed=0)) == 5
    F = GF(P)
    conds = [
        catalog.SchubertCondition((3, 5, 6), f)
        for f in catalog.random_flags(6, 5, seed=1, field=F)
    ] + [
        catalog.SchubertCondition((2, 5, 6), f)
        for f in catalog.random_flags(6, 2, seed=2, field=F)
    ]
    gr36 = catalog.schubert_equations(3, 6, conds, field=F).sys
    N = kernel_basis(km_matrix(gr36, 3, reduce=True))
    assert multiplication_matrices(gr36, N, 2, seed=0).delta == 11
    assert calls == []
    for s in (sys, gr36):
        for eq in s.equations:
            assert eq.f == _expanded(s.par, eq.coeff_form)
    assert len(calls) == len(sys.equations) + len(gr36.equations)


def test_solutions_satisfy_original_equations(duffing):
    # plug the affine points t = (x1/x0, x2/x0) back into the t-equations
    sols = solve(duffing.sys, dreg=3, seed=0, normalize="first")
    for row in sols.coords:
        t = (complex(row[1]), complex(row[2]))
        for eq in duffing.sys.equations:
            val = sum(
                float(c) * t[0] ** e[0] * t[1] ** e[1]
                for e, c in eq.f.terms.items()
            )
            assert abs(val) < 1e-6


def _check_mult_invariants(sys, ms):
    field = sys.par.field
    delta = ms.delta
    mats = [[list(r) for r in m] for m in ms.mats]
    ident = linalg.identity(delta, field)
    acc = [[field.zero] * delta for _ in range(delta)]
    for cj, m in zip(ms.h_coeffs, mats):
        for r in range(delta):
            for s in range(delta):
                acc[r][s] = field.add(acc[r][s], field.mul(cj, m[r][s]))
    assert acc == ident
    for j in range(len(mats)):
        for k in range(j + 1, len(mats)):
            assert linalg.matmul(mats[j], mats[k], field) == linalg.matmul(
                mats[k], mats[j], field
            )


def test_default_dreg_values():
    # the degrees found when Dmax doubled from n + 2; growing it one degree
    # at a time certifies the osculating Gr(2,5) problem at Dmax 10
    expect = {"duffing": 3, "bottsamelson": 3, "delpezzo": 3,
              "grassmannian:2,4": 2, "grassmannian:2,5": 3}
    for name, dreg in expect.items():
        assert _default_dreg(catalog.get_instance(name).sys) == dreg, name
    conds = [
        catalog.SchubertCondition((3, 5), catalog.osculating_flag(s, 5))
        for s in (1, -1, 2, -2, 3, -3)
    ]
    sys = catalog.schubert_equations(2, 5, conds).sys
    assert _default_dreg(sys) == 3
    assert max(sys.par._supports) == 10


def test_default_dreg_counts_keys_above_the_solve_degrees():
    # the Hilbert data up to Dmax 10 reads only the lengths of the supports:
    # degrees 4..10 hold their keys, with no point array or witness formed
    conds = [
        catalog.SchubertCondition((3, 5), catalog.osculating_flag(s, 5))
        for s in (1, -1, 2, -2, 3, -3)
    ]
    sys = catalog.schubert_equations(2, 5, conds).sys
    assert _default_dreg(sys) == 3
    for d in range(4, 11):
        sup = sys.par._supports[d]
        assert len(sup.keys) == len(sup) > 0
        assert not {"array", "first", "points", "index", "witness"} & set(vars(sup))


def test_multiplication_matrices_duffing(duffing):
    M = km_matrix(duffing.sys, 3, reduce=True)
    N = kernel_basis(M)
    ms = multiplication_matrices(duffing.sys, N, 2, seed=0)
    assert ms.delta == 5
    _check_mult_invariants(duffing.sys, ms)


@pytest.mark.parametrize("d", [1, 2])
def test_del_pezzo_delta_over_fp(d):
    """Random degree-d systems on the quintic del Pezzo surface have
    5d^2 solutions; checked as the kernel dimension over F_9716633."""
    par = catalog.del_pezzo(field=GF(P))
    sys = catalog.random_dense_system(par, (d, d), seed=7)
    dreg = 2 * d + 1
    M = km_matrix(sys, dreg, reduce=True)
    N = kernel_basis(M)
    assert N.nullity == 5 * d * d
    ms = multiplication_matrices(sys, N, dreg - 1, seed=0)
    assert ms.delta == 5 * d * d
    _check_mult_invariants(sys, ms)
    # the int64 arrays read back as rows of plain Python ints
    for rows in (M.entries, N.N, *ms.mats):
        assert isinstance(rows, linalg.Rows) and rows.A.dtype == np.int64
        assert all(type(x) is int for row in rows for x in row)


def test_finite_field_solutions_annihilate_km_rows():
    """Brute-force affine roots over F_101, pushed through the
    parameterization, give kernel functionals of the KM matrix."""
    p = 101
    F = GF(p)
    par = catalog.del_pezzo(field=F)
    sys = catalog.random_dense_system(par, (1, 1), seed=3)
    hits = brute_force_affine(sys)
    dreg = 3
    M = km_matrix(sys, dreg)
    N = kernel_basis(M)
    assert N.nullity == 5
    from khovsolve.khov import graded_basis

    bas = graded_basis(par, dreg)
    checked = 0
    for t in hits:
        v = [b.evaluate(t) for _, b in bas.elements]
        if not any(v):
            continue  # base point of the parameterization
        checked += 1
        for row in M.entries:
            assert sum(c * x for c, x in zip(row, v)) % p == 0
        # the evaluation vector lies in the kernel row space
        stacked = [list(r) for r in N.N] + [v]
        assert linalg.rank(stacked, F) == N.nullity
    assert 0 < checked <= 5


def test_brute_force_guards():
    par = catalog.del_pezzo(field=GF(101))
    sys = catalog.random_dense_system(par, (1, 1), seed=3)
    assert len(brute_force_affine(sys)) > 0
    qq = catalog.duffing().sys
    with pytest.raises(UnsupportedFieldError):
        brute_force_affine(qq)
    big = catalog.random_dense_system(
        catalog.del_pezzo(field=GF(P)), (1, 1), seed=3
    )
    with pytest.raises(ValueError):
        brute_force_affine(big)


def test_solve_rejects_finite_fields(monkeypatch):
    # before any KM work: the count over F_p is `multiplication_system`'s
    par = catalog.del_pezzo(field=GF(P))
    sys = catalog.random_dense_system(par, (1, 1), seed=7)
    calls = []
    monkeypatch.setattr(solver, "km_matrix", lambda *args, **kw: calls.append(args))
    with pytest.raises(UnsupportedFieldError):
        solve(sys, dreg=3)
    assert calls == []


def test_float_matrices_round_the_exact_quotient():
    # numerators above 2**53, int64 and Python ints, against float(Fraction)
    cases = (
        (np.array([[2**53 + 1, -(2**62 - 1)], [7, 2**53 + 3]], dtype=np.int64), 3),
        (np.array([[2**80 + 1, -(3**60)], [1, 0]], dtype=object), 7 * 2**70),
    )
    for A, den in cases:
        expect = [[float(Fraction(int(a), den)) for a in row] for row in A]
        assert np.array(linalg.Rows(A, den, QQ), dtype=float).tolist() == expect
    # numpy's float division rounds 2**53 + 1 to 2**53 before dividing by 3
    A, den = cases[0]
    assert (A / den)[0, 0] != float(Fraction(2**53 + 1, 3))


def test_extract_rejects_integer_matrices():
    par = catalog.del_pezzo(field=GF(P))
    sys = catalog.random_dense_system(par, (1, 1), seed=7)
    M = km_matrix(sys, 3, reduce=True)
    N = kernel_basis(M)
    ms = multiplication_matrices(sys, N, 2, seed=0)
    with pytest.raises(UnsupportedFieldError):
        extract_solutions(ms)


def test_normalize_solutions():
    rows = [(2.0, 4.0, -6.0), (1.0, 0.0, 3.0)]
    assert normalize_solutions(rows, "raw") == [list(r) for r in rows]
    out = normalize_solutions(rows, "first")
    assert out[0] == [1.0, 2.0, -3.0]
    with pytest.raises(SolverError):
        normalize_solutions([(0.0, 1.0)], "first")
    with pytest.raises(ValueError):
        normalize_solutions(rows, "euclidean")


def test_residuals_detect_perturbation(duffing):
    sols = solve(duffing.sys, dreg=3, seed=0)
    row = list(sols.coords[0])
    good = residuals(duffing.sys, [row])[0]
    assert good < 1e-8
    row[1] *= 1 + 1e-2
    bad = residuals(duffing.sys, [row])[0]
    assert bad > 1e-4


def test_solve_error_paths(duffing):
    from khovsolve.km import StructuredSystem

    par = duffing.sys.par
    with pytest.raises(SolverError, match="no equations"):
        solve(StructuredSystem(par, []))
    one_eq = StructuredSystem(par, [duffing.sys.equations[0]])
    with pytest.raises(SolverError, match="dreg"):
        solve(one_eq)
    with pytest.raises(SolverError, match="degree shift"):
        solve(duffing.sys, dreg=1)


def test_adaptive_detects_positive_dimension(duffing):
    from khovsolve.km import StructuredSystem

    par = duffing.sys.par
    one_eq = StructuredSystem(par, [duffing.sys.equations[0]])
    with pytest.raises(SolverError, match="stabilize|positive"):
        solve(one_eq, adaptive=True)


def test_rank_nullity_on_solved_instances():
    for inst in (catalog.duffing(), catalog.bott_samelson()):
        sys = inst.sys
        d = inst.recommended_dreg
        M = km_matrix(sys, d)
        rk = linalg.rank([list(r) for r in M.entries], QQ)
        assert rk + kernel_basis(M).nullity == hilbert_function(sys.par, d)


def test_bott_samelson_solutions():
    inst = catalog.bott_samelson()
    sols = solve(inst.sys, dreg=3, seed=0, normalize="first")
    assert len(sols) == 6
    assert all(r < 1e-8 for r in sols.residuals)
    target = (
        1, -0.689522, 0.928435, -1.35986,
        0.937652, -1.26254, -1.28671, 1.73254,
    )
    best = min(
        max(abs(complex(x) - y) for x, y in zip(row, target))
        for row in sols.coords
    )
    assert best < 1e-4


def test_solution_coordinates_are_eigenvalue_ratios(duffing):
    # raw coordinates are x_j(z)/h(z); scaling a row keeps residual zero
    sols = solve(duffing.sys, dreg=3, seed=0)
    row = [2.0 * complex(x) for x in sols.coords[0]]
    assert residuals(duffing.sys, [row])[0] < 1e-8


def test_seed_determinism(duffing):
    a = solve(duffing.sys, dreg=3, seed=5)
    b = solve(duffing.sys, dreg=3, seed=5)
    assert a.coords == b.coords
    assert a.diagnostics["h_coeffs"] == b.diagnostics["h_coeffs"]


@pytest.mark.parametrize("field", [QQ, GF(P), GF(2**61 - 1)], ids=str)
def test_results_read_as_rows_of_field_elements(field):
    # KM matrix, kernel and M_j are integer arrays over a denominator that
    # read as rows of field elements; above 2**31 the arrays are object ints
    sys = catalog.duffing(field=field).sys
    M = km_matrix(sys, 3, reduce=True)
    N = kernel_basis(M)
    ms = multiplication_matrices(sys, N, 2, seed=0)
    kind = Fraction if field == QQ else int
    for R in (M.entries, N.N, *ms.mats):
        rows = list(R)
        assert len(R) == len(rows) == R.A.shape[0] > 0
        assert all(type(row) is tuple for row in rows)
        assert all(type(x) is kind for row in rows for x in row)
        assert rows == [tuple(Fraction(x, R.den) for x in row) for row in R.A.tolist()]
        O = np.array(R, dtype=object)
        assert O.shape == R.A.shape and O.tolist() == [list(row) for row in rows]
        assert all(type(x) is kind for x in O.ravel())
        if field == QQ:
            assert np.array(R, dtype=float).tolist() == [[float(x) for x in row] for row in rows]
        else:
            assert np.asarray(R) is R.A and np.array(R, dtype=R.A.dtype) is R.A
            assert not R.A.flags.writeable
        if field == GF(P):
            assert R.A.dtype == np.int64
        if field == GF(2**61 - 1):
            assert R.A.dtype == object


def test_multiplication_matrices_are_fractions_over_qq(duffing):
    N = kernel_basis(km_matrix(duffing.sys, 3, reduce=True))
    ms = multiplication_matrices(duffing.sys, N, 2, seed=0)
    assert all(type(x) is Fraction for m in ms.mats for row in m for x in row)
    assert all(isinstance(m, linalg.Rows) and isinstance(m[0], tuple) for m in ms.mats)


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=str)
def test_corrupted_multiplication_matrix_does_not_commute(field, monkeypatch):
    sys = catalog.duffing(field=field).sys
    N = kernel_basis(km_matrix(sys, 3, reduce=True))
    delta = N.nullity
    real = linalg.echelon

    def corrupt(rows, fld):
        E = real(rows, fld)
        if len(rows[0]) != delta * (sys.par.ell + 2):
            return E
        # E.rows holds T_j = den M_j: add c_2 to T_1[0][1] and subtract c_1
        # from T_2[0][1], so that sum c_j M_j is still the identity, but the
        # matrices no longer commute
        R = E.rows.copy()
        c = corrupt.coeffs
        R[0, 2 * delta + 1] = fld.add(R[0, 2 * delta + 1], c[2])
        R[0, 3 * delta + 1] = fld.sub(R[0, 3 * delta + 1], c[1])
        return linalg.Echelon(R, E.pivots, E.sources, E.den)

    real_combine = linalg.combine

    def record(coeffs, mats, fld):
        corrupt.coeffs = coeffs
        return real_combine(coeffs, mats, fld)

    monkeypatch.setattr(linalg, "echelon", corrupt)
    monkeypatch.setattr(linalg, "combine", record)
    with pytest.raises(SolverError, match="do not commute"):
        multiplication_matrices(sys, N, 2, seed=0)


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=str)
def test_wrong_h_coefficient_is_not_the_identity(field, monkeypatch):
    sys = catalog.duffing(field=field).sys
    N = kernel_basis(km_matrix(sys, 3, reduce=True))
    real = linalg.combine

    def shifted(coeffs, mats, fld):
        # N_h from c_0 + 1, checked against c_0
        return real([fld.add(coeffs[0], fld.one), *coeffs[1:]], mats, fld)

    monkeypatch.setattr(linalg, "combine", shifted)
    with pytest.raises(SolverError, match="not the identity"):
        multiplication_matrices(sys, N, 2, seed=0)


DIFFERENTIAL = {"duffing": 5, "delpezzo": 5, "bottsamelson": 6, "grassmannian:2,4": 2}


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_delta_agrees_across_fields(name):
    """The same delta over QQ and two primes, at the default dreg."""
    for field in (QQ, GF(P), GF(2**31 - 1)):
        inst = catalog.get_instance(name, field=field, seed=0)
        dreg = inst.recommended_dreg or _default_dreg(inst.sys)
        N = kernel_basis(km_matrix(inst.sys, dreg, reduce=True))
        ms = multiplication_matrices(inst.sys, N, dreg - 1, seed=0)
        assert (N.nullity, ms.delta) == (DIFFERENTIAL[name],) * 2, field


def test_one_map_expansion_per_degree(monkeypatch):
    # the Khovanskii check, the KM rows and the N_{x_j} all read the maps
    # cached on the parameterization: one expansion per degree, each one
    # run of the subduction kernel, recorded by the size of its basis
    from khovsolve import khov
    from khovsolve.khov import check_khovanskii_truncated

    calls = []
    real = khov._subduct_coo

    def counting(basis, *args):
        calls.append(len(basis.leadpos))
        return real(basis, *args)

    monkeypatch.setattr(khov, "_subduct_coo", counting)
    for field in (QQ, GF(P)):
        sys = catalog.duffing(field=field).sys
        hf = [len(graded_support(sys.par, d)) for d in range(4)]
        calls.clear()
        assert check_khovanskii_truncated(sys.par, 3).passed
        N = kernel_basis(km_matrix(sys, 3, reduce=True))
        assert multiplication_matrices(sys, N, 2, seed=0).delta == 5
        assert sorted(calls) == hf[1:]

        # the chart's validation leaves X^(0) and X^(1) cached; the
        # Schubert equations are linear forms, expanded nowhere, and the
        # solve at dreg 2 reuses X^(1)
        flags = catalog.random_flags(6, 3, seed=0, field=field)
        chart = catalog.pluecker_chart(3, 6, field, validate_degree=0)
        hf = [len(graded_support(chart, d)) for d in range(3)]
        calls.clear()
        inst = catalog.schubert_equations(
            3, 6, [catalog.SchubertCondition((2, 4, 6), f) for f in flags], field=field
        )
        assert sorted(calls) == [hf[1], hf[2]]
        calls.clear()
        N = kernel_basis(km_matrix(inst.sys, 2, reduce=True))
        assert multiplication_matrices(inst.sys, N, 1, seed=0).delta == 2
        assert calls == []


def test_product_leaving_the_algebra_raises(monkeypatch):
    # an outside row of X^(d) stops the multiplied kernels before any product
    sys = catalog.duffing().sys
    N = kernel_basis(km_matrix(sys, 3, reduce=True))
    X = solver.multiplication_map(sys.par, 2)
    monkeypatch.setitem(sys.par._maps, 2, dataclasses.replace(X, outside=(0,)))
    with pytest.raises(SolverError, match="left the graded algebra at degree 3"):
        multiplication_matrices(sys, N, 2, seed=0)


def _scaled_duffing(field):
    """Duffing with generators scaled by (1, 1, 2, 1/3, 3/5) and Fraction
    coefficient forms: the maps and the KM rows have denominators."""
    from khovsolve.khov import build_parameterization
    from khovsolve.km import Equation, StructuredSystem
    from khovsolve.poly import WeightOrder, parse_polynomial

    def elt(q):
        q = Fraction(q)
        return field.div(field.from_int(q.numerator), field.from_int(q.denominator))

    varnames = ("t1", "t2")
    scales = (1, 1, 2, Fraction(1, 3), Fraction(3, 5))
    phi = [
        parse_polynomial(s, varnames, field).scale(elt(c))
        for s, c in zip(("1", "t1", "t2", "t1*(t1^2+t2^2)", "t2*(t1^2+t2^2)"), scales)
    ]
    par = build_parameterization(phi, WeightOrder((0, -1)), field)
    forms = (
        {(1, 0, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0, 0): Fraction(3),
         (0, 0, 1, 0, 0): Fraction(5, 4), (0, 0, 0, 1, 0): Fraction(7, 9)},
        {(1, 0, 0, 0, 0): Fraction(11, 3), (0, 1, 0, 0, 0): Fraction(-13, 2),
         (0, 0, 1, 0, 0): Fraction(17), (0, 0, 0, 0, 1): Fraction(19, 5)},
    )
    eqs = [
        Equation(degree=1, coeff_form={a: elt(c) for a, c in form.items()})
        for form in forms
    ]
    return StructuredSystem(par, eqs)


def test_qq_denominators_through_the_pipeline():
    # no benchmark system has a map or form with a denominator: this one
    # runs the numerators over a common denominator end to end
    from khovsolve.khov import graded_basis, multiplication_map, subduct

    sys = _scaled_duffing(QQ)
    par = sys.par
    assert max(multiplication_map(par, d).matrix.den for d in range(3)) > 1
    M = km_matrix(sys, 3)
    sup = graded_support(par, 3)
    for (i, gamma), row in zip(M.row_labels, M.entries):
        b = dict(graded_basis(par, 3 - sys.equations[i].degree).elements)[gamma]
        assert list(row) == subduct(par, b * sys.equations[i].f, 3).vector(sup)
    assert any(x.denominator > 1 for row in M.entries for x in row)
    N = kernel_basis(km_matrix(sys, 3, reduce=True))
    assert N.nullity == 5
    for v in N.N:
        for row in M.entries:
            assert sum(a * x for a, x in zip(row, v)) == 0
    sols = solve(sys, dreg=3, seed=0)
    assert len(sols) == 5 and sols.diagnostics["certified"]
    assert max(sols.residuals) <= 1e-8
    fp = _scaled_duffing(GF(P))
    N = kernel_basis(km_matrix(fp, 3, reduce=True))
    assert multiplication_matrices(fp, N, 2, seed=0).delta == 5


def test_qq_eliminations_see_no_fractions(monkeypatch):
    # from the multiplication maps to the multiplication matrices, every
    # matrix an elimination reads is an integer array
    flags = catalog.random_flags(6, 3, seed=4, field=QQ)
    conds = [catalog.SchubertCondition((2, 4, 6), f) for f in flags]
    inst = catalog.schubert_equations(3, 6, conds)
    seen = []
    for name in ("echelon", "prefix_pivots", "first_independent_columns"):
        real = getattr(linalg, name)

        def spy(rows, *args, real=real, name=name, **kwargs):
            seen.append((name, rows))
            return real(rows, *args, **kwargs)

        monkeypatch.setattr(linalg, name, spy)
    assert len(solve(inst.sys, dreg=2, seed=0)) == 2
    assert {name for name, _ in seen} == {
        "echelon", "prefix_pivots", "first_independent_columns"
    }
    for name, rows in seen:
        assert isinstance(rows, np.ndarray), name
        assert not any(isinstance(x, Fraction) for x in rows.ravel().tolist()), name


def test_qq_n_h_entries_beyond_int64(monkeypatch):
    # N_h of this Duffing instance holds integers of both signs beyond
    # int64, which numpy turns into floats unless told the dtype
    sys = catalog.duffing(coeffs=((14, 3, 47, 7), (6, 4, 26, 40))).sys
    seen = []
    real = linalg.first_independent_columns

    def spy(rows, *args, **kwargs):
        seen.append(rows)
        return real(rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "first_independent_columns", spy)
    sols = solve(sys, dreg=3, seed=814788427)
    assert len(sols) == 5 and max(sols.residuals) <= 1e-8
    assert seen[0].dtype == object
    assert max(abs(x) for x in seen[0].ravel().tolist()) >= 2**63


def test_multiplication_matrices_on_columns_not_leftmost_over_qq(monkeypatch):
    # mod 1873 the leftmost six columns of the Bott-Samelson N_h are
    # dependent for every h drawn (1873 divides that minor, but not the
    # kernel's denominator, which would lower the rank), so B is leftmost
    # mod 1873 but not over QQ; the block echelon still gives certified
    # M_j, and the solve every solution
    monkeypatch.setattr(linalg, "LIFT_PRIME", 1873)
    sys = catalog.bott_samelson().sys
    seen = []
    real = linalg.first_independent_columns

    def spy(rows, field, count=None):
        B = real(rows, field, count=count)
        seen.append((B, list(linalg.echelon(rows, field).pivots[:count])))
        return B

    monkeypatch.setattr(linalg, "first_independent_columns", spy)
    ms = multiplication_matrices(sys, kernel_basis(km_matrix(sys, 3, reduce=True)), 2, seed=0)
    assert seen == [([0, 1, 2, 3, 4, 9], [0, 1, 2, 3, 4, 5])]
    assert ms.delta == 6
    _check_mult_invariants(sys, ms)
    sols = solve(sys, dreg=3, seed=0)
    assert seen[-1][0] != seen[-1][1]
    assert len(sols) == 6 and sols.diagnostics["certified"]
    assert max(sols.residuals) <= 1e-8


def test_multiplication_matrices_when_lift_prime_divides_the_kernel_denominator(monkeypatch):
    # 461 divides Duffing's kernel denominator at dreg 3 (2^3 3 19^3 29
    # 461^2), so mod 461 the integer kernel rows lose their identity block
    # and N_h has rank 1 for every h; the columns are read again mod the
    # prime below, and the solve finds all 5 solutions
    monkeypatch.setattr(linalg, "LIFT_PRIME", 461)
    sys = catalog.duffing().sys
    N = kernel_basis(km_matrix(sys, 3, reduce=True))
    assert N.N.den % 461**2 == 0
    ms = multiplication_matrices(sys, N, 2, seed=0)
    assert ms.delta == 5
    _check_mult_invariants(sys, ms)
    sols = solve(sys, dreg=3, seed=0)
    assert len(sols) == 5 and sols.diagnostics["certified"]
    assert max(sols.residuals) <= 1e-8


def test_large_residual_is_marked(duffing, monkeypatch):
    # Duffing's residuals are far below the bound; a residual of 1e-3
    # is a reason in `uncertified`, not only a number
    sols = solve(duffing.sys, seed=0)
    assert max(sols.residuals) < 1e-12 and sols.diagnostics["certified"] is True
    monkeypatch.setattr(solver, "residuals", lambda sys, coords: (1e-3,) * len(coords))
    with pytest.warns(UserWarning, match="largest residual"):
        sols = solve(duffing.sys, seed=0)
    assert sols.diagnostics["certified"] is False
    assert sols.diagnostics["uncertified"] == ["largest residual 1.000e-03 exceeds 1.0e-08"]


def _float_system(*mats):
    """A MultiplicationSystem over QQ with the integer matrices `mats`."""
    mats = tuple(linalg.Rows(np.array(m, dtype=np.int64), 1, QQ) for m in mats)
    return solver.MultiplicationSystem(len(mats[0]), (QQ.one,) + (QQ.zero,) * (len(mats) - 1), mats)


def test_repeated_eigenvalue_is_clustered():
    # diagonal M_j with equal first two entries: every combination repeats
    # an eigenvalue, and the solutions are still read off the diagonal
    ms = _float_system(np.eye(3), np.diag([2, 2, 5]), np.diag([1, 1, 3]))
    with pytest.warns(UserWarning, match="clustered"):
        sols = extract_solutions(ms)
    diag = sols.diagnostics
    assert diag["eigen_gap_clustered"] is True and diag["certified"] is False
    assert len(diag["uncertified"]) == 1 and "clustered" in diag["uncertified"][0]
    assert sorted(tuple(complex(x).real for x in row) for row in sols.coords) == [
        (1, 2, 1), (1, 2, 1), (1, 5, 3)]
    assert diag["offdiagonal"] == 0.0 and diag["real"] == (True, True, True)


def test_non_reduced_point_gives_the_offdiagonal_reason():
    # a triple point: M_1 = 2I + N_1 and M_2 = 3I + N_2 with independent
    # commuting nilpotents, in a basis that makes neither triangular; no
    # eigenvector matrix of a combination diagonalizes both
    P = np.array([[1, 0, 0], [1, 1, 0], [2, 1, 1]])
    Pinv = np.array([[1, 0, 0], [-1, 1, 0], [-1, -1, 1]])
    N1, N2 = np.zeros((3, 3), int), np.zeros((3, 3), int)
    N1[0, 1] = N2[0, 2] = 1
    I = np.eye(3, dtype=int)
    ms = _float_system(I, P @ (2 * I + N1) @ Pinv, P @ (3 * I + N2) @ Pinv)
    assert linalg.commuting_check([1, 0, 0], np.stack([np.asarray(m.A) for m in ms.mats]),
                                  1, QQ) == (True, None)
    with pytest.warns(UserWarning, match="off-diagonal"):
        sols = extract_solutions(ms)
    diag = sols.diagnostics
    assert diag["offdiagonal_relative"] > solver._OFFDIAGONAL_TOL
    assert diag["certified"] is False
    assert any(r.startswith("joint diagonalization off-diagonal residue")
               for r in diag["uncertified"])


def test_osculating_gr25_solutions_are_real():
    conds = [catalog.SchubertCondition((3, 5), catalog.osculating_flag(s, 5))
             for s in (1, -1, 2, -2, 3, -3)]
    sols = solve(catalog.schubert_equations(2, 5, conds).sys, seed=0)
    assert sols.diagnostics["real"] == (True,) * 5
    assert sols.diagnostics["eigen_gap_clustered"] is False


def test_duffing_float_commutator_is_small(duffing):
    ms = multiplication_matrices(duffing.sys, kernel_basis(km_matrix(duffing.sys, 3, reduce=True)), 2)
    scale = max(1.0, max(np.abs(np.array(m, dtype=float)).max() for m in ms.mats))
    diag = extract_solutions(ms).diagnostics
    assert 0 <= diag["commutator_float"] <= 1e-9 * scale
    assert type(diag["commutator_float"]) is float and type(diag["offdiagonal"]) is float


def _residual_oracle(sys, row):
    """The scaled backward error of one row, one equation term at a time."""
    x = [complex(v) for v in row]
    xnorm = sum(abs(v) ** 2 for v in x) ** 0.5
    worst = 0.0
    for i, eq in enumerate(sys.equations):
        val, cnorm2 = 0j, 0.0
        for alpha, c in sys.coefficient_form(i).items():
            term = float(c)
            cnorm2 += term * term
            for xj, a in zip(x, alpha):
                term *= xj ** a
            val += term
        denom = cnorm2 ** 0.5 * xnorm ** eq.degree
        worst = max(worst, abs(val) / denom if denom else abs(val))
    return worst


def test_residuals_match_a_per_term_oracle():
    sys = catalog.random_dense_system(catalog.del_pezzo(), (2, 1), seed=3)
    assert max(eq.degree for eq in sys.equations) == 2
    forms = [sys.coefficient_form(i) for i in range(len(sys.equations))]
    # an equation with zero coefficients: zero norm, residual |value| = 0
    forms.append({alpha: QQ.zero for alpha in forms[0]})
    wide = types.SimpleNamespace(par=sys.par, equations=[*sys.equations, sys.equations[0]],
                                 coefficient_form=forms.__getitem__)
    rng = np.random.default_rng(4)
    ell = sys.par.ell + 1
    rows = rng.normal(size=(6, ell)) + 1j * rng.normal(size=(6, ell))
    rows = [tuple(r) for r in rows] + [(0j,) * ell]
    rows += list(solve(sys, seed=0).coords)
    for s in (sys, wide):
        got = residuals(s, rows)
        assert type(got) is tuple and all(type(r) is float for r in got)
        assert got == pytest.approx([_residual_oracle(s, r) for r in rows], rel=1e-12, abs=1e-15)
    assert residuals(sys, rows)[6] == 0.0
