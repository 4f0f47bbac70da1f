import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khovsolve import catalog, khov, linalg
from khovsolve.fields import GF, QQ
from khovsolve.hilbert import hilbert_numerator
from khovsolve.khov import (
    build_parameterization,
    check_khovanskii_truncated,
    expand,
    graded_basis,
    graded_support,
    multiplication_map,
    subduct,
    witness_monomial,
)
from khovsolve.poly import MultiPoly, WeightOrder, parse_polynomial


@pytest.fixture(scope="module")
def duffing_par():
    return catalog.duffing().sys.par


@pytest.fixture(scope="module")
def del_pezzo_par():
    return catalog.del_pezzo()


def test_duffing_leading_exponent_matrix(duffing_par):
    assert duffing_par.A == (
        (1, 1, 1, 1, 1),
        (0, 1, 0, 1, 0),
        (0, 0, 1, 2, 3),
    )


def test_projective_plane_matrix():
    phi = [parse_polynomial(s, ("t1", "t2")) for s in ("1", "t1", "t2")]
    par = build_parameterization(phi, WeightOrder((-1, -1)))
    assert par.A == ((1, 1, 1), (0, 1, 0), (0, 0, 1))


def test_zero_generator_rejected():
    phi = [parse_polynomial(s, ("t1",)) for s in ("t1", "0")]
    with pytest.raises(ValueError, match="zero"):
        build_parameterization(phi, WeightOrder((-1,)))


def test_duplicate_leading_exponents_rejected():
    phi = [parse_polynomial(s, ("t1", "t2")) for s in ("t1", "t1 + t2^2")]
    with pytest.raises(ValueError, match="leading exponent"):
        build_parameterization(phi, WeightOrder((-1, 0)))


def test_support_counts(del_pezzo_par):
    assert len(graded_support(del_pezzo_par, 0)) == 1
    assert len(graded_support(del_pezzo_par, 1)) == 6
    assert len(graded_support(del_pezzo_par, 2)) == 16
    assert len(graded_support(del_pezzo_par, 3)) == 31


def test_support_degree_zero(duffing_par):
    sup = graded_support(duffing_par, 0)
    assert sup.points == ((0, 0, 0),)
    assert sup.witness == {}


def _support_oracle(par, d):
    """(points, witness) of d.A from one Python tuple per candidate sum."""
    if d == 0:
        return ((0,) * (par.n + 1),), {}
    prev, _ = _support_oracle(par, d - 1)
    cols = [par.column(j) for j in range(par.ell + 1)]
    witness = {}
    for gamma in prev:
        for i, alpha in enumerate(cols):
            beta = tuple(g + a for g, a in zip(gamma, alpha))
            if beta not in witness:
                witness[beta] = (gamma, i)
    tb = par.ord.tiebreak_key
    return tuple(sorted(witness, key=lambda b: tb(b[1:]))), witness


def _monomial_par(columns):
    """The parameterization by the monomials t**alpha for alpha in columns."""
    n = len(columns[0])
    names = tuple(f"t{i}" for i in range(1, n + 1))
    phi = [MultiPoly(QQ, names, {tuple(c): QQ.one}) for c in columns]
    return build_parameterization(phi, WeightOrder((-1,) * n))


def _assert_support_matches_oracle(par, d):
    points, witness = _support_oracle(par, d)
    sup = graded_support(par, d)
    assert len(sup) == len(points)
    assert sup.points == points
    assert sup.witness == witness
    assert sup.index == {b: k for k, b in enumerate(points)}
    assert tuple(beta for beta, _ in graded_basis(par, d).elements) == points


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, 5)] * n), min_size=2, max_size=8, unique=True
        )
    ),
    st.integers(0, 6),
)
def test_graded_support_matches_tuple_oracle(columns, d):
    _assert_support_matches_oracle(_monomial_par(columns), d)


def test_graded_support_with_large_exponents():
    # keys of (n+1) * B.bit_length() >= 63 bits are Python ints
    big = 2**20
    par = _monomial_par([(big, 0, 1), (0, big - 1, 0), (1, 1, big + 3), (0, 0, 0)])
    for d in range(4):
        _assert_support_matches_oracle(par, d)
    assert graded_support(par, 3).array.dtype == object


def test_graded_support_with_int64_keys_too_large_to_pack():
    # int64 keys of 60 bits, the top digit of 20 bits near the int64
    # limit: the views read from the keys still match the oracle
    c = 2**19 - 1
    par = _monomial_par([(c, 0), (0, c), (1, c - 1), (0, 0)])
    for d in range(3):
        _assert_support_matches_oracle(par, d)
    B = 2 * c + 1
    assert (par.n + 1) * B.bit_length() < 63
    sup = graded_support(par, 2)
    assert sup.array.dtype == sup.keys.dtype == np.int64
    assert int(sup.keys.max()) >= 2**59


def test_graded_support_views_when_the_radix_grows():
    # column t-degree 3: the digits take 2, 3, 4, 4, 4 and 5 bits in
    # degrees 1..6, so the keys below are re-encoded at degrees 1, 2, 3
    # and 6; the views of each degree are read before those of the
    # degree below it are built
    par = _monomial_par([(3, 0, 0), (1, 1, 1), (0, 2, 1), (0, 0, 0), (2, 0, 1)])
    assert [graded_support(par, d)._bits for d in range(7)] == [0, 2, 3, 4, 4, 4, 5]
    for d in reversed(range(7)):
        sup = graded_support(par, d)
        assert not {"array", "first", "points"} & set(vars(sup))
        points, witness = _support_oracle(par, d)
        assert (sup.points, sup.witness) == (points, witness)
    for d in range(7):
        _assert_support_matches_oracle(par, d)


def _argsort_supports(par, dmax):
    """(array, first) of d.A for d <= dmax, each from a stable argsort of
    the keys of every candidate sum."""
    cols = np.array(par.A, dtype=np.int64).T
    array, out = np.zeros((1, par.n + 1), np.int64), []
    for d in range(1, dmax + 1):
        B = d * max(sum(c) - 1 for c in zip(*par.A)) + 1
        cand = (array[:, None, :] + cols[None, :, :]).reshape(-1, par.n + 1)
        keys = khov._grlex_keys(cand, B)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        start = np.ones(len(keys), bool)
        start[1:] = keys[1:] != keys[:-1]
        first = order[start]
        array = cand[first]
        out.append((array, first))
    return out


@pytest.mark.parametrize("k, m, dmax", [(2, 5, 10), (3, 6, 5)])
def test_graded_support_matches_stable_argsort(k, m, dmax):
    par = catalog.pluecker_chart(k, m, validate_degree=0)
    for d, (array, first) in enumerate(_argsort_supports(par, dmax), 1):
        sup = graded_support(par, d)
        assert np.array_equal(sup.first, first)
        assert np.array_equal(sup.array, array)


def test_hilbert_numerator_builds_no_point_tuples_above_degree_three():
    par = catalog.pluecker_chart(2, 5)
    hilbert_numerator(par, 10)
    for d in range(4, 11):
        sup = graded_support(par, d)
        assert len(sup) > 0
        assert not {"points", "index", "witness"} & set(vars(sup))


def test_witness_recursion(del_pezzo_par):
    for d in (1, 2, 3):
        sup = graded_support(del_pezzo_par, d)
        prev = graded_support(del_pezzo_par, d - 1)
        for beta in sup.points:
            gamma, i = sup.witness[beta]
            assert gamma in prev.index
            alpha = del_pezzo_par.column(i)
            assert tuple(g + a for g, a in zip(gamma, alpha)) == beta


def test_degree_one_basis_is_phi(duffing_par):
    bas = graded_basis(duffing_par, 1)
    assert tuple(b for _, b in bas.elements) == tuple(
        sorted(duffing_par.phi, key=lambda p: duffing_par.ord.tiebreak_key(
            p.leading_exponent(duffing_par.ord)))
    )
    assert set(b for _, b in bas.elements) == set(duffing_par.phi)


def test_duffing_degree_two_basis_has_14_elements(duffing_par):
    # x1*x4 is missing: its label coincides with that of x2*x3
    assert len(graded_basis(duffing_par, 2)) == 14


def test_del_pezzo_basis_element_is_phi1_squared(del_pezzo_par):
    bas = graded_basis(del_pezzo_par, 2)
    sup = graded_support(del_pezzo_par, 2)
    pos = sup.index[(2, 0, 4)]
    phi1 = del_pezzo_par.phi[1]
    assert bas.elements[pos][1] == phi1 * phi1


def test_basis_leading_exponents_match_labels(del_pezzo_par):
    for d in (1, 2, 3):
        for beta, b in graded_basis(del_pezzo_par, d).elements:
            assert b.leading_exponent(del_pezzo_par.ord) == beta[1:]


def test_subduct_basis_element_gives_unit_vector(duffing_par):
    sup = graded_support(duffing_par, 2)
    bas = graded_basis(duffing_par, 2)
    for pos, (beta, b) in enumerate(bas.elements):
        res = subduct(duffing_par, b, 2)
        assert res.remainder.is_zero()
        vec = res.vector(sup)
        assert vec[pos] == Fraction(1)
        assert all(c == 0 for i, c in enumerate(vec) if i != pos)


def test_subduct_duffing_x4_f2(duffing_par):
    # x4 * F_2 = 13 x2x3 + 11 x0x4 + 17 x2x4 + 19 x4^2
    inst = catalog.duffing()
    f2 = inst.sys.equations[1].f
    g = duffing_par.phi[4] * f2
    res = subduct(duffing_par, g, 2)
    assert res.remainder.is_zero()
    assert res.coeffs == {
        (2, 1, 3): Fraction(13),  # x2 * x3
        (2, 0, 3): Fraction(11),  # x0 * x4
        (2, 0, 4): Fraction(17),  # x2 * x4
        (2, 0, 6): Fraction(19),  # x4^2
    }


def test_subduct_nonmember_has_remainder(del_pezzo_par):
    t2 = parse_polynomial("t2", ("t1", "t2"))
    res = subduct(del_pezzo_par, t2, 1)
    assert not res.remainder.is_zero()


def test_subduct_round_trip_random(del_pezzo_par):
    rng = random.Random(17)
    for d in (1, 2, 3):
        sup = graded_support(del_pezzo_par, d)
        bas = graded_basis(del_pezzo_par, d)
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in sup.points]
            g = None
            for c, (_, b) in zip(coeffs, bas.elements):
                term = b.scale(c)
                g = term if g is None else g + term
            res = subduct(del_pezzo_par, g, d)
            assert res.remainder.is_zero()
            assert res.vector(sup) == coeffs


def _expand_cases(par, rng):
    """(d, polys, count of non-members): products b * phi_i, random
    members and one or two non-members."""
    F = par.field
    for d in (1, 2, 3):
        bas = graded_basis(par, d - 1)
        polys = [b * phi for _, b in bas.elements for phi in par.phi]
        top = graded_basis(par, d).elements
        for _ in range(3):
            g = top[0][1].scale(F.from_int(rng.randrange(1, 10**6)))
            for _, b in rng.sample(top, min(4, len(top))):
                g = g + b.scale(F.from_int(rng.randrange(10**6)))
            polys.append(g)
        # non-members: a monomial outside every basis element, and a
        # non-leading monomial of the basis (a column of the batch)
        v = par.varnames[0]
        polys.append(parse_polynomial(f"{v}^9 + 1", par.varnames, F))
        leads = {beta[1:] for beta, _ in top}
        tails = sorted({e for _, b in top for e in b.terms} - leads)
        if tails:
            polys.append(MultiPoly(F, par.varnames, {tails[0]: F.one}))
        yield d, polys, 1 + bool(tails)


def test_expand_equals_subduct():
    # one batch against one subduction per polynomial: int64 arrays for the
    # primes below 2**31 and for the numerators over QQ, object arrays for
    # larger primes
    rng = random.Random(23)
    for F in (QQ, GF(9716633), GF(2**31 - 1), GF(2**61 - 1)):
        for par in (catalog.del_pezzo(field=F), catalog.pluecker_chart(2, 4, F)):
            for d, polys, n_outside in _expand_cases(par, rng):
                C, outside = expand(par, iter(polys), d)
                assert C.vals.dtype == (object if F.modulus == 2**61 - 1 else np.int64)
                assert C.shape[0] == len(polys)
                assert not set(C.rows.tolist()) & set(outside)
                dense = linalg.dense(C, F)
                sup = graded_support(par, d)
                expect_outside = []
                for r, g in enumerate(polys):
                    res = subduct(par, g, d)
                    if res.remainder.is_zero():
                        assert list(dense[r]) == res.vector(sup)
                    else:
                        expect_outside.append(r)
                assert outside == expect_outside
                assert len(outside) == n_outside


def _subduct_oracle(par, g, d):
    """(coeffs, remainder terms) of g by the dict subduction loop.

    One leading monomial at a time in the weight order, on the terms of g
    as a dict: the expansion before the batched kernel took every field.
    """
    F = par.field
    sup = graded_support(par, d)
    bas = graded_basis(par, d)
    key = par.ord.key
    positions = sorted(range(len(sup.points)), key=lambda p: key(sup.points[p][1:]))
    terms = dict(g.terms)
    coeffs = {}
    for pos in positions:
        beta = sup.points[pos]
        mu = beta[1:]
        c = terms.get(mu)
        if c is None or c == F.zero:
            continue
        b = bas.elements[pos][1]
        coef = F.div(c, b.terms[mu])
        coeffs[beta] = coef
        for e, v in b.terms.items():
            s = F.sub(terms.get(e, F.zero), F.mul(coef, v))
            if s == F.zero:
                terms.pop(e, None)
            else:
                terms[e] = s
    return coeffs, terms


EXPAND_FIELDS = [QQ, GF(9716633), GF(2**31 - 1), GF(2**61 - 1)]
_ORACLE_PARS = {}


def _oracle_par(surface, field):
    key = (surface, field)
    if key not in _ORACLE_PARS:
        _ORACLE_PARS[key] = (catalog.del_pezzo(field=field) if surface == "delpezzo"
                             else catalog.pluecker_chart(2, 4, field))
    return _ORACLE_PARS[key]


def _coefficient(F, num, den):
    return F.div(F.from_int(num), F.from_int(den))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(EXPAND_FIELDS),
    st.sampled_from(["delpezzo", "gr24"]),
    st.integers(1, 3),
    st.data(),
)
def test_expand_and_subduct_match_the_dict_loop(field, surface, d, data):
    # random members of the degree-d piece, plus terms on basis monomials
    # (leading or not) and on monomials no basis element has
    par = _oracle_par(surface, field)
    F = field
    elements = graded_basis(par, d).elements
    monomials = sorted({e for _, b in elements for e in b.terms})
    beyond = (1 + max(e[0] for e in monomials),) + (0,) * (par.n - 1)
    num, den = st.integers(-10**9, 10**9), st.integers(1, 12)
    members = st.tuples(st.sampled_from([b for _, b in elements]), num, den)
    terms = st.tuples(st.sampled_from(monomials + [beyond]), num, den)
    polys = []
    for _ in range(data.draw(st.integers(1, 6))):
        g = MultiPoly.zero(F, par.varnames)
        for b, c, q in data.draw(st.lists(members, max_size=5)):
            g = g + b.scale(_coefficient(F, c, q))
        for e, c, q in data.draw(st.lists(terms, max_size=2)):
            g = g + MultiPoly(F, par.varnames, {e: _coefficient(F, c, q)})
        polys.append(g)
    C, outside = expand(par, polys, d)
    dense = linalg.dense(C, F)
    sup = graded_support(par, d)
    expect_outside = []
    for r, g in enumerate(polys):
        coeffs, rest = _subduct_oracle(par, g, d)
        res = subduct(par, g, d)
        assert list(res.coeffs.items()) == list(coeffs.items())
        assert res.remainder.terms == rest
        if rest:
            expect_outside.append(r)
        else:
            assert dense[r].tolist() == res.vector(sup)
    assert outside == expect_outside
    assert not set(C.rows.tolist()) & set(outside)


@pytest.mark.parametrize("field", EXPAND_FIELDS, ids=str)
def test_expansion_entry_types(field):
    # Fractions over QQ and Python ints off the primes below 2**31, in the
    # expansion, the subduction and the multiplication map; the sparse
    # values are integers (numerators over QQ), int64 while they fit
    par = catalog.del_pezzo(field=field)
    polys = [b * phi for _, b in graded_basis(par, 1).elements for phi in par.phi]
    C, _ = expand(par, polys, 2)
    X = multiplication_map(par, 1).matrix
    small = field.modulus != 2**61 - 1
    kind = Fraction if field == QQ else int
    for S in (C, X):
        assert S.vals.dtype == (np.int64 if small else object)
        assert {type(x) for x in linalg.field_values(S.vals, S.den, field)} == {kind}
        if not small:
            assert {type(x) for x in S.vals.tolist()} == {int}
    res = subduct(par, polys[-1] + parse_polynomial("t1^9", par.varnames, field), 2)
    assert res.coeffs and {type(c) for c in res.coeffs.values()} == {kind}
    assert {type(c) for c in res.remainder.terms.values()} == {kind}


def test_multiplicative_closure(del_pezzo_par):
    for d in (1, 2):
        bas = graded_basis(del_pezzo_par, d)
        for _, b in bas.elements:
            for phi in del_pezzo_par.phi:
                res = subduct(del_pezzo_par, b * phi, d + 1)
                assert res.remainder.is_zero()


def test_witness_monomial_reconstructs_basis(del_pezzo_par):
    bas = graded_basis(del_pezzo_par, 3)
    for beta, b in bas.elements:
        e = witness_monomial(del_pezzo_par, 3, beta)
        assert sum(e) == 3
        prod = None
        for j, k in enumerate(e):
            for _ in range(k):
                prod = del_pezzo_par.phi[j] if prod is None else prod * del_pezzo_par.phi[j]
        assert prod == b


def test_check_passes_on_catalog(duffing_par, del_pezzo_par):
    assert check_khovanskii_truncated(duffing_par, 3).passed
    rep = check_khovanskii_truncated(del_pezzo_par, 3)
    assert rep.passed
    assert [c.rank for c in rep.degrees] == [6, 16, 31]


def _failing_generators(field=QQ):
    phi = [
        parse_polynomial(s, ("t1", "t2"), field)
        for s in ("t1 + t2", "t1*t2", "t1*t2^2")
    ]
    return build_parameterization(phi, WeightOrder((-1, 0)), field)


def test_failing_instance_brute_force_oracle():
    """Independent rank check: the 6 pairwise products are linearly
    independent while |2.A| = 5, so degree 2 must fail."""
    par = _failing_generators()
    assert len(graded_support(par, 2)) == 5
    products = []
    for i in range(3):
        for j in range(i, 3):
            products.append(par.phi[i] * par.phi[j])
    monomials = sorted({e for p in products for e in p.terms})
    rows = [
        [p.terms.get(e, Fraction(0)) for e in monomials] for p in products
    ]
    from khovsolve import linalg

    assert linalg.rank(rows, QQ) == 6


def test_check_detects_failure():
    par = _failing_generators()
    rep = check_khovanskii_truncated(par, 3)
    assert not rep.passed
    fail = rep.first_failure()
    assert fail.degree == 2
    assert fail.expected == 5
    assert fail.rank == 6
    assert fail.new_leading_exponents
    # the scan stops at the first failing degree
    assert rep.degrees[-1].degree == 2


def test_check_over_prime_field():
    par = catalog.del_pezzo(field=GF(101))
    assert check_khovanskii_truncated(par, 2).passed


def test_check_rejects_bad_dmax(duffing_par):
    with pytest.raises(ValueError):
        check_khovanskii_truncated(duffing_par, 0)


def test_multiplication_map_rows_are_products():
    # row (j, gamma) of X^(d) is the expansion of b_{d,gamma} * phi_j
    for F in (QQ, GF(9716633), GF(2**31 - 1), GF(2**61 - 1)):
        par = catalog.del_pezzo(field=F)
        for d in (0, 1, 2):
            X = multiplication_map(par, d)
            assert multiplication_map(par, d) is X and X.outside == ()
            sup = graded_support(par, d + 1)
            bas = graded_basis(par, d).elements
            S = X.matrix
            assert S.shape == (len(par.phi) * len(bas), len(sup))
            dense = [[F.zero] * len(sup) for _ in range(S.shape[0])]
            for r, c, v in zip(S.rows.tolist(), S.cols.tolist(), S.vals):
                assert v != F.zero
                dense[r][c] = v
            for j, phi in enumerate(par.phi):
                for g, (_, b) in enumerate(bas):
                    expect = subduct(par, b * phi, d + 1).vector(sup)
                    assert dense[j * len(bas) + g] == expect


def test_multiplication_map_reports_outside_rows():
    # the products with a nonzero remainder, which hold no entries
    par = _failing_generators()
    X = multiplication_map(par, 1)
    bas = graded_basis(par, 1).elements
    expect = tuple(
        r for r in range(X.matrix.shape[0])
        if not subduct(par, bas[r % len(bas)][1] * par.phi[r // len(bas)], 2)
        .remainder.is_zero()
    )
    assert expect and X.outside == expect
    assert not set(X.matrix.rows.tolist()) & set(expect)


@pytest.mark.parametrize("field", [QQ, GF(9716633), GF(2**61 - 1)], ids=str)
def test_multiplication_map_equals_one_shot_expand(field):
    # X^(d) equals the expansion of all products b * phi_j by one `expand`
    # call, and its outside rows keep the remainders of the dict loop
    cases = [(catalog.del_pezzo(field=field), 2)]
    if field == QQ:
        cases.append((_failing_generators(), 1))  # with outside rows
    for par, d in cases:
        bas = graded_basis(par, d).elements
        products = [b * phi for phi in par.phi for _, b in bas]
        C, outside = expand(par, products, d + 1)
        X = multiplication_map(par, d)
        assert X.outside == tuple(outside)
        assert X.matrix.shape == C.shape
        assert X.matrix.rows.tolist() == C.rows.tolist()
        assert X.matrix.cols.tolist() == C.cols.tolist()
        assert list(X.matrix.vals) == list(C.vals)
        R = linalg.dense(X.remainder, par.field)
        assert list(X.monomials) == sorted(X.monomials, key=par.ord.key)
        for k, r in enumerate(outside):
            _, rest = _subduct_oracle(par, products[r], d + 1)
            got = {e: c for e, c in zip(X.monomials, R[k].tolist()) if c}
            assert got == rest


def _huge_exponent_generators(field):
    """Generators whose monomial keys overflow int64 from degree 1 on.

    t1 -> t1**2**40, t2 -> t2**2**40 applied to four generators that are
    not a Khovanskii basis: the maps have outside rows from degree 1 on.
    """
    big = 2**40
    phi = [parse_polynomial(s, ("t1", "t2"), field) for s in (
        "1", f"t1^{big} + t2^{big}", f"t2^{2 * big} + t1^{big}*t2^{big}",
        f"t1^{big}*t2^{2 * big} + t2^{big}",
    )]
    return build_parameterization(phi, WeightOrder((-1, 0)), field)


@pytest.mark.parametrize("field", [QQ, GF(9716633)], ids=str)
def test_object_keys_when_monomial_keys_overflow(field):
    # the key space of degree 2 is about 2**84: keys are Python ints, and
    # the bases and maps equal the products and the dict loop
    par = _huge_exponent_generators(field)
    assert khov._key_radix(par, 1)[2] >= 2**63
    for d in (0, 1, 2):
        X = multiplication_map(par, d)
        bas = graded_basis(par, d).elements
        top = graded_basis(par, d + 1).elements
        assert khov._batch_basis(par, d + 1).keys.dtype == object
        for beta, b in top:
            e = witness_monomial(par, d + 1, beta)
            prod = MultiPoly.constant(field, par.varnames, field.one)
            for j, k in enumerate(e):
                prod = prod * par.phi[j] ** k
            assert prod == b
        dense = linalg.dense(X.matrix, field)
        sup = graded_support(par, d + 1)
        outside = []
        for j, phi in enumerate(par.phi):
            for g, (_, b) in enumerate(bas):
                coeffs, rest = _subduct_oracle(par, b * phi, d + 1)
                row = j * len(bas) + g
                if rest:
                    outside.append(row)
                else:
                    expect = [coeffs.get(beta, field.zero) for beta in sup.points]
                    assert dense[row].tolist() == expect
        assert X.outside == tuple(outside)
        assert len(khov._batch_basis(par, d + 1).levels) == d + 1
    assert [len(multiplication_map(par, d).outside) for d in (0, 1, 2)] == [0, 1, 3]
    fail = check_khovanskii_truncated(par, 3).first_failure()
    assert (fail.degree, fail.rank, fail.new_leading_exponents) == (
        2, 10, ((2**40, 3 * 2**40),)
    )


def _scaled_duffing():
    """The Duffing chart with phi_1 scaled by 2 and phi_3 by 1/3: still a
    Khovanskii basis, with leading coefficients 2 and 1/3."""
    par = catalog.duffing().sys.par
    phi = list(par.phi)
    phi[1], phi[3] = phi[1].scale(Fraction(2)), phi[3].scale(Fraction(1, 3))
    return build_parameterization(phi, par.ord)


def _combination(par, coeffs, elements):
    g = MultiPoly.zero(par.field, par.varnames)
    for c, b in zip(coeffs, elements):
        g = g + b.scale(c)
    return g


def test_non_unit_leading_coefficients_expand_exactly():
    # ints and Fractions mix in the exact arrays; every expansion still
    # gives sum coeff * b + remainder = input, in MultiPoly arithmetic
    par = _scaled_duffing()
    leadinv = khov._batch_basis(par, 1).leadinv.tolist()
    assert sorted(leadinv) == [Fraction(1, 2), 1, 1, 1, 3]
    assert check_khovanskii_truncated(par, 3).passed
    rng = random.Random(5)
    for d, polys, _ in _expand_cases(par, rng):
        sup = graded_support(par, d)
        bas = [b for _, b in graded_basis(par, d).elements]
        assert all(type(c) is Fraction for b in bas for c in b.terms.values())
        C, outside = expand(par, polys, d)
        rows = linalg.dense(C, par.field)
        for r, g in enumerate(polys):
            res = subduct(par, g, d)
            coeffs = res.vector(sup)
            assert all(type(c) is Fraction for c in res.coeffs.values())
            assert all(type(c) is Fraction for c in res.remainder.terms.values())
            assert _combination(par, coeffs, bas) + res.remainder == g
            assert (r in outside) == (not res.remainder.is_zero())
            if r not in outside:
                assert rows[r].tolist() == coeffs
        X = multiplication_map(par, d - 1)
        assert X.outside == ()
        rows = linalg.dense(X.matrix, par.field)
        lower = graded_basis(par, d - 1).elements
        for j, phi in enumerate(par.phi):
            for k, (_, b) in enumerate(lower):
                assert _combination(par, rows[j * len(lower) + k], bas) == b * phi


@pytest.mark.parametrize("field", [QQ, GF(101), GF(9716633), GF(2**61 - 1)], ids=str)
def test_leadinv_is_the_inverse_of_each_leading_coefficient(field):
    # leadinv is formed along the witness chain; it equals one field
    # inverse per basis element, ints where integral over QQ
    charts = [(catalog.pluecker_chart(3, 6, field, validate_degree=0), 3),
              (catalog.del_pezzo(field=field), 4),
              (catalog.bott_samelson(field=field).sys.par, 4)]
    if field == QQ:
        charts.append((_scaled_duffing(), 5))
    for par, dmax in charts:
        for d in range(dmax + 1):
            basis = khov._batch_basis(par, d)
            expect = linalg.field_array(
                [field.inv(x) for x in basis.bvals[basis.bindptr[:-1]].tolist()], field)
            assert basis.leadinv.dtype == expect.dtype
            assert basis.leadinv.tolist() == expect.tolist()
            assert [type(x) for x in basis.leadinv.tolist()] == [type(x) for x in expect.tolist()]


def test_catalog_chart_arrays_hold_ints():
    # integer coefficients and unit leading coefficients: no Fraction is
    # formed in the basis arrays of the Gr(2,5) chart over QQ
    par = catalog.pluecker_chart(2, 5, QQ, validate_degree=0)
    for d in (0, 1, 2, 3):
        basis = khov._batch_basis(par, d)
        assert {type(x) for x in basis.bvals.tolist()} == {int}
        assert {type(x) for x in basis.leadinv.tolist()} == {int}


@pytest.mark.parametrize("field", [QQ, GF(9716633), GF(2**61 - 1)], ids=str)
def test_csr_rows_are_the_basis_in_support_order(field):
    # row k of the CSR basis is b_{d,beta_k} for the k-th point of d.A:
    # its leading monomial is the t-part of beta_k and its terms are those
    # of the k-th element of graded_basis; the expansions keep the
    # kernel's entries, strictly increasing in (row, col)
    charts = [catalog.duffing(field=field).sys.par, catalog.del_pezzo(field=field),
              catalog.bott_samelson(field=field).sys.par,
              catalog.pluecker_chart(2, 5, field, validate_degree=0),
              catalog.pluecker_chart(3, 6, field, validate_degree=0)]
    for par in charts:
        for d in (1, 2, 3):
            basis = khov._batch_basis(par, d)
            sup = graded_support(par, d)
            assert basis.exps[basis.leadpos].tolist() == sup.array[:, 1:].tolist()
            elements = graded_basis(par, d).elements
            assert [beta for beta, _ in elements] == list(sup.points)
            vals = khov._elements(basis.bvals, field)
            ptr = basis.bindptr.tolist()
            for k, (_, b) in enumerate(elements):
                terms = range(ptr[k], ptr[k + 1])
                assert {basis.monomials[basis.bcols[t]]: vals[t] for t in terms} == b.terms
            lower = graded_basis(par, d - 1).elements
            polys = [b * phi for _, b in lower[:20] for phi in par.phi]
            beyond = (1 + max(e[0] for e in basis.monomials),) + (0,) * (par.n - 1)
            polys.append(polys[0] + MultiPoly(field, par.varnames, {beyond: field.one}))
            C, outside = expand(par, polys, d)
            assert outside == [len(polys) - 1]
            for S in (C, multiplication_map(par, d - 1).matrix):
                assert len(S.rows) and S.shape[1] == len(sup)
                assert (np.diff(S.rows * S.shape[1] + S.cols) > 0).all()
