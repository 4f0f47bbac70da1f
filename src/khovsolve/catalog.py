"""Built-in problem families.

Covers the worked families used throughout the tests: Duffing oscillator
systems, a quintic del Pezzo surface, a Bott-Samelson threefold,
Grassmannians in Pluecker coordinates, Schubert-condition equations
(with random or osculating flags) and random dense systems.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import lcm

from . import linalg
from .fields import QQ
from .khov import (
    Parameterization,
    build_parameterization,
    check_khovanskii_truncated,
    graded_support,
)
from .km import Equation, StructuredSystem
from .poly import MultiPoly, WeightOrder, parse_polynomial

__all__ = [
    "InputError",
    "ProblemInstance",
    "duffing",
    "del_pezzo",
    "bott_samelson",
    "pluecker_chart",
    "SchubertCondition",
    "schubert_equations",
    "random_flags",
    "osculating_flag",
    "random_dense_system",
    "chart_matrix_from_pluecker",
    "get_instance",
]


class InputError(ValueError):
    """User-given problem data that does not define a valid instance."""


@dataclass(frozen=True)
class ProblemInstance:
    sys: StructuredSystem
    expected_count: int = None
    recommended_dreg: int = None
    note: str = ""
    extras: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# Duffing oscillator
# ---------------------------------------------------------------------------


def duffing(coeffs=((1, 3, 5, 7), (11, 13, 17, 19)), field=QQ) -> ProblemInstance:
    """Steady states of a damped driven oscillator.

    f_1 = c10 + c11 t1 + c12 t2 + c13 t1(t1^2+t2^2)
    f_2 = c20 + c21 t1 + c22 t2 + c23 t2(t1^2+t2^2)
    on the surface parameterized by (1, t1, t2, t1(t1^2+t2^2), t2(t1^2+t2^2)).
    """
    varnames = ("t1", "t2")
    phi = [
        parse_polynomial(s, varnames, field)
        for s in ("1", "t1", "t2", "t1*(t1^2+t2^2)", "t2*(t1^2+t2^2)")
    ]
    par = build_parameterization(phi, WeightOrder((0, -1)), field)
    (c1, c2) = coeffs
    e = lambda j: tuple(1 if i == j else 0 for i in range(5))
    form1 = {e(0): field.from_int(c1[0]), e(1): field.from_int(c1[1]),
             e(2): field.from_int(c1[2]), e(3): field.from_int(c1[3])}
    form2 = {e(0): field.from_int(c2[0]), e(1): field.from_int(c2[1]),
             e(2): field.from_int(c2[2]), e(4): field.from_int(c2[3])}
    eqs = []
    for form in (form1, form2):
        form = {a: c for a, c in form.items() if c != field.zero}
        if not form:
            warnings.warn("degenerate Duffing instance: an equation is zero")
        eqs.append(Equation(degree=1, coeff_form=form))
    sys = StructuredSystem(par, eqs)
    return ProblemInstance(
        sys,
        expected_count=5,
        recommended_dreg=3,
        note="two cubic oscillator equations, five solutions",
    )


# ---------------------------------------------------------------------------
# quintic del Pezzo surface
# ---------------------------------------------------------------------------


def del_pezzo(field=QQ) -> Parameterization:
    """Degree-5 del Pezzo surface: the plane blown up in four points."""
    varnames = ("t1", "t2")
    phi = [
        parse_polynomial(s, varnames, field)
        for s in (
            "t1-t2",
            "t2^2-t2",
            "t1*t2-t2",
            "t1^2-t2",
            "t1*t2^2-t2",
            "t1^2*t2-t2",
        )
    ]
    return build_parameterization(phi, WeightOrder((-2, -1)), field)


# ---------------------------------------------------------------------------
# Bott-Samelson threefold
# ---------------------------------------------------------------------------


def bott_samelson(field=QQ) -> ProblemInstance:
    """A threefold in P^7 with three fixed linear equations, six solutions."""
    varnames = ("t1", "t2", "t3")
    phi = [
        parse_polynomial(s, varnames, field)
        for s in (
            "1",
            "t1",
            "t2",
            "t3",
            "t1*t3",
            "t2*t3",
            "t1*(t1*t3+t2)",
            "t2*(t1*t3+t2)",
        )
    ]
    par = build_parameterization(phi, WeightOrder((0, -1, 0)), field)
    coeff_rows = (
        (1, 1, 1, 1, 1, 1, 1, 1),
        (1, -2, 3, -4, 5, -6, 7, -8),
        (2, 3, 5, 7, 11, 13, 17, 19),
    )
    eqs = []
    for row in coeff_rows:
        form = {}
        for j, c in enumerate(row):
            alpha = tuple(1 if i == j else 0 for i in range(8))
            form[alpha] = field.from_int(c)
        eqs.append(Equation(degree=1, coeff_form=form))
    sys = StructuredSystem(par, eqs)
    return ProblemInstance(
        sys,
        expected_count=6,
        recommended_dreg=3,
        note="three linear sections of a Bott-Samelson threefold",
    )


# ---------------------------------------------------------------------------
# Grassmannians in Pluecker coordinates
# ---------------------------------------------------------------------------


def _pluecker_generators(k, m, field):
    """The k x k minors phi_S of the chart [I | T], S in lexicographic order.

    T is filled row-major by t_1..t_n. Each minor is the Leibniz sum over
    the permutations of its columns, in `itertools.permutations` order;
    an entry of I is 1 or 0, so the nonzero terms are distinct monomials
    with coefficient +-1.
    """
    n = k * (m - k)
    varnames = tuple(f"t{i}" for i in range(1, n + 1))
    sign = (field.one, field.neg(field.one))
    phi = []
    for S in itertools.combinations(range(m), k):
        terms = {}
        for perm in itertools.permutations(S):
            if all(c >= k or c == r for r, c in enumerate(perm)):
                cells = {r * (m - k) + c - k for r, c in enumerate(perm) if c >= k}
                inv = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
                terms[tuple(int(v in cells) for v in range(n))] = sign[inv % 2]
        phi.append(MultiPoly(field, varnames, terms, _normalized=True))
    return tuple(phi)


def _pluecker_weights(k, m):
    # w(t_{a,b}) = -(3^a * b), rows a and columns b counted from 1; this
    # strictly convex choice makes each minor's diagonal-type term the
    # unique weight-minimal one (validated after construction)
    w = []
    for a in range(1, k + 1):
        for b in range(1, m - k + 1):
            w.append(-(3**a * b))
    return tuple(w)


def pluecker_chart(k, m, field=QQ, validate_degree=2) -> Parameterization:
    """Gr(k,m) parameterized by the k x k minors of [I | t-block].

    Minors are listed in lexicographic column-set order. Under the
    diagonal weights `_pluecker_weights` the maximal minors are a
    Khovanskii (SAGBI) basis (Sturmfels, Algorithms in Invariant Theory,
    Thm 3.2.9); with validate_degree >= 1 the truncated check confirms it
    up to that degree and a failure raises ValueError.
    """
    if not (1 <= k < m):
        raise InputError(f"need 1 <= k < m, got k={k}, m={m}")
    par = build_parameterization(
        _pluecker_generators(k, m, field), WeightOrder(_pluecker_weights(k, m)), field
    )
    if validate_degree >= 1:
        report = check_khovanskii_truncated(par, validate_degree)
        if not report.passed:
            raise ValueError(
                f"the Pluecker chart of Gr({k},{m}) fails the truncated "
                f"Khovanskii check at degree {report.first_failure().degree}"
            )
    return par


# ---------------------------------------------------------------------------
# Schubert conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchubertCondition:
    alpha: tuple  # strictly increasing indices in 1..m
    flag: tuple  # m x m invertible matrix; rows 1..alpha_i span F_{alpha_i}

    def dimension(self):
        return sum(a - i - 1 for i, a in enumerate(self.alpha))


def random_flags(m, count, seed=0, field=QQ):
    """Seeded random m x m flags with entries in -10..10, invertible."""
    rng = random.Random(seed)
    flags = []
    for _ in range(count):
        while True:
            rows = [
                [field.from_int(rng.randint(-10, 10)) for _ in range(m)]
                for _ in range(m)
            ]
            if linalg.rank(rows, field) == m:
                break
        flags.append(tuple(tuple(r) for r in rows))
    return flags


def osculating_flag(s, m, field=QQ):
    """Flag of derivatives of the moment curve (1, s, s^2, ..., s^{m-1}).

    Row i (1-based) is the (i-1)-th derivative, so row 1 is the curve
    point itself and the flag is invertible for every s.
    """
    sv = field.from_int(s) if isinstance(s, int) else s
    rows = []
    for i in range(m):  # i-th derivative
        row = []
        for j in range(m):
            if j < i:
                row.append(field.zero)
            else:
                c = 1
                for q in range(j, j - i, -1):
                    c *= q
                val = field.from_int(c)
                for _ in range(j - i):
                    val = field.mul(val, sv)
                row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


# Observed working degrees and counts for Schubert problems on Gr(3,6);
# keys are sorted multisets of conditions.
_GR36_TABLE = {
    (((2, 4, 6),) * 3): (2, 2),
    (((3, 5, 6),) * 9): (42, 5),
    (((2, 5, 6),) * 1 + ((3, 5, 6),) * 7): (21, 4),
    (((2, 5, 6),) * 2 + ((3, 5, 6),) * 5): (11, 3),
    (((2, 5, 6),) * 3 + ((3, 5, 6),) * 3): (6, 3),
    (((2, 5, 6),) * 4 + ((3, 5, 6),) * 1): (3, 2),
}


def _flag_minor(flag, rows, cols, memo, p):
    """det flag[rows, cols] of the integer matrix `flag` by expansion along
    the first row, mod p unless p is None, memoized on (rows, cols); the
    empty minor is 1."""
    if not rows:
        return 1
    d = memo.get((rows, cols))
    if d is None:
        d, first = 0, flag[rows[0]]
        for j, c in enumerate(cols):
            if first[c]:
                term = first[c] * _flag_minor(
                    flag, rows[1:], cols[:j] + cols[j + 1:], memo, p)
                d = d - term if j % 2 else d + term
        if p is not None:
            d %= p
        memo[rows, cols] = d
    return d


def _integer_flag(flag, field):
    """(N, den): the flag as integer rows N over one denominator, the least
    common one over QQ and 1 over F_p."""
    if field.modulus is not None:
        return [[int(x) for x in row] for row in flag], 1
    flag = [[Fraction(x) for x in row] for row in flag]
    den = lcm(*(x.denominator for row in flag for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in flag], den


def _condition_minors(cond, k, m, field):
    """Yield (rows, cols, form) for every minor one condition asks for.

    For each i with size = k+alpha_i-i+1 <= m these are all size x size
    minors of the stacked matrix (H; F_{alpha_i}), whose rows 0..k-1 are
    the chart's, as linear forms {generator index: coefficient} in the
    Pluecker coordinates, zeros dropped. Each minor is the Laplace
    expansion along its chart rows R_H: the sum over |R_H|-subsets S of
    its columns C of +-det H[R_H, S] * det F[R_F, C - S], the sign that of
    moving S to the front of C. With R^c the chart rows not in R_H,
    det H[R_H, S] is 0 when S meets the identity columns R^c, so those
    S are skipped, and otherwise +-phi_S' for S' = S + R^c, expanded
    along those columns. The flag minors are integer minors of the flag's
    numerators N over its denominator den (`_integer_flag`), memoized over
    the whole condition, and mod p over F_p; every minor in one form has
    |R_F| rows, so only its final coefficients become field elements,
    v / den**|R_F| over QQ.
    """
    p = field.modulus
    flag, den = _integer_flag(cond.flag, field)
    memo = {}
    index = {S: j for j, S in enumerate(itertools.combinations(range(m), k))}
    for i, ai in enumerate(cond.alpha, start=1):
        size = k + ai - i + 1
        if size > m:
            continue
        for rows in itertools.combinations(range(k + ai), size):
            rh = tuple(r for r in rows if r < k)
            rf = tuple(r - k for r in rows if r >= k)
            missing = tuple(r for r in range(k) if r not in rh)
            h = len(rh)
            scale = den ** len(rf)
            for cols in itertools.combinations(range(m), size):
                form = {}
                allowed = [q for q, c in enumerate(cols) if c not in missing]
                for pos in itertools.combinations(allowed, h):
                    rest = tuple(c for q, c in enumerate(cols) if q not in pos)
                    c = _flag_minor(flag, rf, rest, memo, p)
                    if not c:
                        continue
                    full = tuple(sorted(missing + tuple(cols[q] for q in pos)))
                    odd = sum(pos) - h * (h - 1) // 2 + sum(
                        r + full.index(r) for r in missing)
                    j = index[full]
                    form[j] = form.get(j, 0) + (-c if odd % 2 else c)
                if p is None:
                    form = {j: Fraction(v, scale) for j, v in form.items() if v}
                else:
                    form = {j: v % p for j, v in form.items() if v % p}
                yield rows, cols, form


def schubert_equations(k, m, conditions, field=QQ, par=None) -> ProblemInstance:
    """Linear equations in Pluecker coordinates cutting out a Schubert problem.

    For each condition (alpha, F) and each i with k+alpha_i-i+1 <= m, all
    minors of that size of the stacked matrix (H; F_{alpha_i}) are linear
    forms in the Pluecker generators (`_condition_minors`). The nonzero
    ones are the raw equations, and the first independent ones
    (`linalg.independent_rows`), the generators as columns in degree-1
    support order, are kept, each as its coefficient form. A given `par`
    must be the chart `pluecker_chart(k, m, field)` builds.
    """
    if not (1 <= k < m):
        raise InputError(f"need 1 <= k < m, got k={k}, m={m}")
    n = k * (m - k)
    conditions = list(conditions)
    for cond in conditions:
        alpha = tuple(cond.alpha)
        if (len(alpha) != k or list(alpha) != sorted(set(alpha))
                or alpha[-1] > m or alpha[0] < 1):
            raise InputError(f"invalid Schubert indices {alpha} for Gr({k},{m})")
        widths = {len(r) for r in cond.flag}
        if len(cond.flag) != m or widths != {m}:
            got = f"{len(cond.flag)}x{widths.pop()}" if len(widths) == 1 else (
                f"{len(cond.flag)} rows of lengths {sorted(widths)}")
            raise InputError(f"flag matrix must be {m}x{m}, got {got}")
        if linalg.rank([list(r) for r in cond.flag], field) != m:
            raise InputError("flag matrix is singular")
    codim = sum(n - cond.dimension() for cond in conditions)
    if codim != n:
        raise InputError(
            f"conditions cut codimension {codim}, expected n = {n}; not a "
            f"zero-dimensional Schubert problem"
        )
    if par is None:
        par = pluecker_chart(k, m, field)
    elif par.field != field or par.phi != _pluecker_generators(k, m, field):
        raise InputError(f"par is not the Pluecker chart of Gr({k},{m}) over {field}")
    forms = [
        form
        for cond in conditions
        for _, _, form in _condition_minors(cond, k, m, field)
        if form
    ]

    # columns in support order, generator j at the point (1, lead phi_j);
    # a kept form lists its generators by leading exponent in the term order
    index = graded_support(par, 1).index
    gens = range(len(par.phi))
    cols = sorted(gens, key=lambda j: index[par.column(j)])
    keep, _ = linalg.independent_rows([[f.get(j, field.zero) for j in cols] for f in forms], field)
    order = sorted(gens, key=lambda j: par.ord.key(par.column(j)[1:]))
    unit = [tuple(int(i == j) for i in gens) for j in gens]
    eqs = [
        Equation(degree=1, coeff_form={unit[j]: forms[r][j] for j in order if j in forms[r]})
        for r in keep
    ]
    sys = StructuredSystem(par, eqs)

    expected = dreg = None
    if (k, m) == (3, 6):
        key = tuple(sorted(tuple(c.alpha) for c in conditions))
        if key in _GR36_TABLE:
            expected, dreg = _GR36_TABLE[key]
    return ProblemInstance(
        sys,
        expected_count=expected,
        recommended_dreg=dreg,
        note=f"Schubert problem on Gr({k},{m})",
        extras={
            "n_raw_equations": len(forms),
            "n_equations": len(eqs),
        },
    )


def chart_matrix_from_pluecker(k, m, coords, pivots=None):
    """Reconstruct a k x m matrix from floating Pluecker coordinates.

    `coords` is indexed by k-subsets of columns in lexicographic order.
    The result is in reduced form on the pivot columns (identity there);
    pivots default to the subset with the largest coordinate.
    """
    subsets = list(itertools.combinations(range(m), k))
    index = {S: i for i, S in enumerate(subsets)}
    p = [complex(c) for c in coords]
    if pivots is None:
        pivots = subsets[max(range(len(p)), key=lambda i: abs(p[i]))]
    pivots = tuple(pivots)
    pS = p[index[pivots]]
    if abs(pS) == 0:
        raise ValueError(f"pivot coordinate {pivots} vanishes")
    H = [[0j] * m for _ in range(k)]
    for i, s in enumerate(pivots):
        H[i][s] = 1.0
    for j in range(m):
        if j in pivots:
            continue
        for i in range(k):
            T = tuple(sorted(set(pivots) - {pivots[i]} | {j}))
            # sign of the row permutation induced by sorting the columns
            rows = []
            for c in T:
                rows.append(i if c == j else pivots.index(c))
            inv = sum(
                1
                for a in range(k)
                for b in range(a + 1, k)
                if rows[a] > rows[b]
            )
            sign = -1 if inv % 2 else 1
            H[i][j] = sign * p[index[T]] / pS
    return H


# ---------------------------------------------------------------------------
# random dense systems
# ---------------------------------------------------------------------------


def random_dense_system(par, degrees, seed=0, zero_coeffs=()):
    """Equations with seeded random coefficients on every generator monomial.

    `zero_coeffs` lists (equation index, alpha) pairs forced to zero, for
    structured sparsity patterns.
    """
    field = par.field
    rng = random.Random(seed)
    zero_set = {(i, tuple(a)) for i, a in zero_coeffs}
    eqs = []
    for i, d in enumerate(degrees):
        form = {}
        for alpha in sorted(_compositions(d, par.ell + 1)):
            if (i, alpha) in zero_set:
                continue
            if field == QQ:
                c = field.from_int(rng.randint(1, 100))
            else:
                c = rng.randrange(1, field.modulus)
            form[alpha] = c
        eqs.append(Equation(degree=d, coeff_form=form))
    return StructuredSystem(par, eqs)


def _compositions(d, parts):
    if parts == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _compositions(d - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# name-based access for the CLI
# ---------------------------------------------------------------------------


def get_instance(name, field=QQ, seed=0):
    """Catalog entries by name: duffing, delpezzo, bottsamelson,
    grassmannian:k,m. del Pezzo and Grassmannians get a seeded random
    system of two (resp. n) dense equations of degree 1."""
    if name == "duffing":
        return duffing(field=field)
    if name == "bottsamelson":
        return bott_samelson(field=field)
    if name == "delpezzo":
        par = del_pezzo(field=field)
        sys = random_dense_system(par, (1, 1), seed=seed)
        return ProblemInstance(
            sys, expected_count=5, recommended_dreg=3,
            note="random linear equations on the quintic del Pezzo surface",
        )
    if name.startswith("grassmannian:"):
        try:
            k, m = (int(x) for x in name.split(":", 1)[1].split(","))
        except ValueError:
            raise InputError(
                f"bad catalog entry {name!r}: expected grassmannian:k,m"
            ) from None
        par = pluecker_chart(k, m, field)
        n = k * (m - k)
        sys = random_dense_system(par, (1,) * n, seed=seed)
        return ProblemInstance(sys, note=f"random linear equations on Gr({k},{m})")
    raise KeyError(f"unknown catalog entry {name!r}")
