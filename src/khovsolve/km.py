"""Khovanskii-Macaulay matrices of structured polynomial systems.

An equation of degree d_i is an element f_i of the degree-d_i graded piece
of the coordinate ring. The KM matrix in degree d has one row per pair
(equation i, point gamma of (d-d_i).A), holding the expansion of
b_{d-d_i,gamma} * f_i in the degree-d graded basis.

No product b * f_i is formed: with f_i = sum_j c_ij phi_j a row is the
combination sum_j c_ij X_j^(d-1)[gamma] of rows of the cached
multiplication maps (`khov.multiplication_map`), and an equation of
higher degree composes the maps of the degrees below. The combination
matrix of all linear equations is built from one array of their
coefficients c_ij, in integer form, by numpy broadcasting.

A reduced KM matrix forms only the rows that Faugere's F5 criterion keeps
(ISSAC 2002), in its Macaulay-matrix form (Bardet, Faugere and Salvy,
J. Symb. Comput. 2015): row (i, gamma) is dropped when gamma is a pivot
column of the echelon of the prefix f_1..f_{i-1} in degree e = d - d_i.
This is exact. Let W be that prefix's row space in degree e, and P a set
of columns independent on W, such as its pivot columns. For each gamma in
P some g in W equals b_{e,gamma} plus terms on columns outside P, and
g * f_i lies in the span of the degree-d rows of f_1..f_{i-1}. So
b_{e,gamma} * f_i is a combination of kept rows of equation i and rows of
earlier equations, and by induction over i the row space, hence the RREF
and the kernel, do not change. The argument reads the products as
elements of the graded pieces spanned by their bases, which is what the
outside-row checks of the maps guard.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from functools import reduce

import numpy as np

from . import linalg
from .khov import (
    Parameterization,
    check_khovanskii_truncated,
    expand,
    graded_support,
    multiplication_map,
    subduct,
    witness_monomial,
)
from .poly import MultiPoly

__all__ = [
    "Equation",
    "StructuredSystem",
    "KMMatrix",
    "NotInAlgebraError",
    "km_matrix",
    "km_shape",
]


class NotInAlgebraError(ValueError):
    pass


class Equation:
    """One equation: a polynomial f with its homogeneous degree d_i.

    `coeff_form` gives f as coefficients c_alpha over generator exponent
    vectors alpha (len ell+1, sum = d_i), so that
    f = sum c_alpha * prod phi_j**alpha_j. Either f or coeff_form may be
    omitted. In a `StructuredSystem` every equation has its form, and an f
    not given is derived from it, through the system's parameterization,
    when `f` is first read. An equation built alone from a form reads f as
    None.
    """

    __slots__ = ("_f", "degree", "coeff_form", "_par")

    def __init__(self, f=None, degree=None, coeff_form=None):
        if f is None and coeff_form is None:
            raise ValueError("equation needs f or coeff_form")
        if degree is None or degree < 1:
            raise ValueError(f"equation degree must be a positive integer, got {degree}")
        self._f = f
        self.degree = int(degree)
        self.coeff_form = dict(coeff_form) if coeff_form is not None else None
        self._par = None  # set by a StructuredSystem when f is to be derived

    @property
    def f(self):
        if self._f is None and self._par is not None:
            self._f = _expand_coeff_form(self._par, self.coeff_form, self.degree)
        return self._f


def _checked_form(par: Parameterization, i, coeff_form, degree):
    """The form of equation i with int-tuple exponents; ValueError naming
    the equation unless each exponent vector is a degree-`degree` monomial
    in the ell+1 generators."""
    form = {}
    for alpha, c in coeff_form.items():
        alpha = tuple(map(int, alpha))
        if len(alpha) != par.ell + 1 or min(alpha) < 0 or sum(alpha) != degree:
            raise ValueError(
                f"equation {i}: coefficient exponent {list(alpha)} is not a "
                f"degree-{degree} monomial in {par.ell + 1} generators"
            )
        form[alpha] = c
    return form


def _expand_coeff_form(par: Parameterization, coeff_form, degree):
    """f = sum c_alpha prod phi_j**alpha_j of a checked degree-`degree` form."""
    F = par.field
    terms = {}
    for alpha, c in coeff_form.items():
        # phi_j itself for a first power: phi_j ** 1 would be one more product
        g = reduce(MultiPoly.__mul__, [par.phi[j] if a == 1 else par.phi[j] ** a
                                       for j, a in enumerate(alpha) if a])
        for e, v in g.terms.items():
            terms[e] = F.add(terms.get(e, F.zero), F.mul(c, v))
    terms = {e: v for e, v in terms.items() if v != F.zero}
    return MultiPoly(F, par.varnames, terms, _normalized=True)


class StructuredSystem:
    """A parameterization together with equations in its graded pieces.

    Each equation is held as its coefficient form, which is what the KM
    rows, the residuals and system files read. A given form has its
    exponent vectors checked, and where f was given too, it must expand to
    f. The forms of the equations given by f alone are read off one
    `khov.expand` call per degree, which raises NotInAlgebraError for the
    first equation outside its graded piece. No f is formed here: one not
    given is derived from the form on first read (`Equation.f`).
    """

    def __init__(self, par: Parameterization, equations):
        self.par = par
        eqs, by_degree = [], {}
        for i, eq in enumerate(equations):
            if not isinstance(eq, Equation):
                f, degree = eq
                eq = Equation(f=f, degree=degree)
            f = eq._f if eq._par is None else None  # a derived f was not given
            form = eq.coeff_form
            if form is None:
                by_degree.setdefault(eq.degree, []).append(i)
            else:
                form = _checked_form(par, i, form, eq.degree)
                if f is not None and _expand_coeff_form(par, form, eq.degree) != f:
                    raise ValueError(f"equation {i}: coefficient form does not expand to f")
            eq = Equation(f=f, degree=eq.degree, coeff_form=form)
            if f is None:
                eq._par = par
            eqs.append(eq)
        self.equations = tuple(eqs)
        outside = [i for d, idx in by_degree.items() for i in self._read_forms(d, idx)]
        if outside:
            i = min(outside)
            res = subduct(par, self.equations[i].f, self.equations[i].degree)
            raise NotInAlgebraError(
                f"equation {i} is not in the degree-{self.equations[i].degree} graded "
                f"piece (subduction remainder {res.remainder.to_string()})"
            )

    @property
    def degrees(self):
        return tuple(eq.degree for eq in self.equations)

    def _read_forms(self, d, idx):
        """Set the forms of the degree-d equations `idx` from one `expand`.

        Returns those outside the graded piece. A form is read off the
        row: the label beta of each coefficient becomes a generator
        exponent vector via its witness chain, in the order subduction
        meets the labels.
        """
        par = self.par
        C, outside = expand(par, [self.equations[i].f for i in idx], d)
        points = graded_support(par, d).points
        key = par.ord.key
        starts = C.row_starts().tolist()
        for k, i in enumerate(idx):
            row = slice(starts[k], starts[k + 1])
            vals = linalg.field_values(C.vals[row], C.den, par.field)
            terms = sorted(
                zip(C.cols[row].tolist(), vals), key=lambda t: key(points[t[0]][1:])
            )
            self.equations[i].coeff_form = {
                witness_monomial(par, d, points[c]): v for c, v in terms
            }
        return [idx[k] for k in outside]

    def coefficient_form(self, i):
        """Coefficients of equation i over generator monomials."""
        return dict(self.equations[i].coeff_form)


@dataclass(frozen=True)
class KMMatrix:
    """KM matrix in one degree.

    Its rows are a `linalg.Rows`. A reduced matrix also keeps the Echelon
    of the elimination that selected them: its kernel needs no other.
    """

    degree: int
    row_labels: tuple  # of (equation index, gamma)
    col_labels: tuple  # points of d.A in support order
    entries: linalg.Rows  # integers over one denominator, read as field elements
    reduced: bool
    field: object = None
    echelon: object = dc_field(default=None, compare=False, repr=False)

    @property
    def shape(self):
        return (len(self.entries), len(self.col_labels))


def km_shape(sys: StructuredSystem, d: int):
    rows = 0
    for eq in sys.equations:
        if d >= eq.degree:
            rows += len(graded_support(sys.par, d - eq.degree))
    return (rows, len(graded_support(sys.par, d)))


def _row_labels(sys, d):
    labels = []
    for i, eq in enumerate(sys.equations):
        if d < eq.degree:
            continue
        for gamma in graded_support(sys.par, d - eq.degree).points:
            labels.append((i, gamma))
    return labels


def _nonzero_remainder_error(sys, d, i):
    """The error for a KM row of equation i in degree d that reads an
    outside row of a map: every form lies in the algebra, so the
    generators fail the truncated Khovanskii check at d or below."""
    c = check_khovanskii_truncated(sys.par, d).first_failure()
    return NotInAlgebraError(
        f"nonzero subduction remainder while building KM rows for "
        f"equation {i} at degree {d}: the generators fail the truncated "
        f"Khovanskii check at degree {c.degree} (rank {c.rank} > "
        f"{c.expected}); the graded basis is incomplete"
    )


def _split(form):
    """f = sum_j phi_j g_j as {j: coefficient form of g_j}.

    Each generator monomial goes under its first generator.
    """
    parts = {}
    for alpha, c in form.items():
        j = next(k for k, a in enumerate(alpha) if a)
        parts.setdefault(j, {})[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]] = c
    return parts


def _map_combination(sys, d, blocks, dkm):
    """(S, X): the stacked matrices R(f, d) of the blocks (i, form, e) are S X.

    R(f, d) holds the expansions of b_{d-e,gamma} * f in the degree-d
    basis, for f of degree e given by its coefficient form, one row per
    point gamma of (d-e).A. With f = sum_j phi_j g_j,
    R(f, d) = sum_j R(g_j, d-1) X_j^(d-1) and R(c, k) = c I, so all blocks
    are one sparse combination S of the rows of X = X^(d-1). A row of S
    that uses an outside row of the map raises for its equation i (KM
    degree dkm) before any product is formed.

    The linear blocks (e = 1) are the base case: their coefficients are
    read in one pass into one array (`linalg.integer_form`, over QQ the
    numerators over S.den), and the entries (row first + gamma, column
    j * H + gamma, value c_j) of every block, gamma and term follow by
    broadcasting, in row order. Blocks of higher degree compose the rows
    one degree down; with both kinds in one call, the two parts are
    brought to the least common denominator of all entries and sorted by
    row, as one build term by term would give.
    """
    par, F = sys.par, sys.par.field
    X = multiplication_map(par, d - 1)
    H, m = len(graded_support(par, d - 1)), len(par.phi)
    sizes = [len(graded_support(par, d - e)) for _, _, e in blocks]
    starts = np.cumsum([0] + sizes)
    # the linear blocks: terms[b, t] numbers the t-th term c phi_j of the
    # b-th of them, whose row gamma holds c at column j * H + gamma
    linear = [k for k, (_, _, e) in enumerate(blocks) if e == 1]
    terms = np.full((len(linear), m), -1, dtype=np.int64)
    gens, coeffs = [], []
    for b, k in enumerate(linear):
        for t, (alpha, c) in enumerate(blocks[k][1].items()):
            terms[b, t] = len(coeffs)
            gens.append(alpha.index(1))
            coeffs.append(c)
    # one entry per (block, gamma, term), in row order
    b, gamma, t = np.nonzero(np.broadcast_to((terms >= 0)[:, None, :], (len(linear), H, m)))
    term = terms[b, t]
    rows = [starts[linear][b] + gamma]
    cols = [np.asarray(gens, dtype=np.int64)[term] * H + gamma]
    vals, den = linalg.integer_form(coeffs, F)
    vals = vals[term]
    higher = []
    for k, (i, form, e) in enumerate(blocks):
        if e == 1:
            continue
        for j, g in _split(form).items():
            A, Aden = _map_rows(sys, d - 1, [(i, g, e - 1)], dkm)
            r, c = np.nonzero(A)
            rows.append(starts[k] + r)
            cols.append(j * H + c)
            higher.extend(linalg.field_values(A[r, c], Aden, F))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    if higher:
        # every entry over the least common denominator of them all
        vals, den = linalg.integer_form(np.concatenate(
            (np.array(coeffs, dtype=object)[term], np.array(higher, dtype=object))), F)
        order = np.argsort(rows, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
    if X.outside:
        used = rows[np.isin(cols, X.outside)]
        if used.size:
            owner = np.repeat([i for i, _, _ in blocks], sizes)
            raise _nonzero_remainder_error(sys, dkm, int(owner[used.min()]))
    return linalg.Sparse((int(starts[-1]), X.matrix.shape[0]), rows, cols, vals, den), X.matrix


def _map_rows(sys, d, blocks, dkm):
    """The stacked matrices R(f, d) of the blocks (`_map_combination`), as
    (integer array, denominator) from `linalg.combine_rows`."""
    return linalg.combine_rows(*_map_combination(sys, d, blocks, dkm), sys.par.field)


def _km_blocks(sys, d):
    """(i, coefficient form, d_i) of every equation with rows in degree d."""
    return [(i, eq.coeff_form, eq.degree)
            for i, eq in enumerate(sys.equations) if d >= eq.degree]


def _f5_rows(sys, d, blocks):
    """Indices of the rows of the degree-d KM matrix of `blocks` F5 keeps.

    Row (i, gamma) goes when gamma is a pivot column of the echelon of the
    prefix f_1..f_{i-1} in degree e = d - d_i. The prefix rows are KM rows
    in degree e (from X^(e-1)), and the pivots of every prefix in degree e
    are read off one elimination of all of them (`linalg.prefix_pivots`).
    """
    par = sys.par
    sizes = [len(graded_support(par, d - deg)) for _, _, deg in blocks]
    starts = np.cumsum([0] + sizes)
    keep = np.ones(starts[-1], dtype=bool)
    for e in sorted({d - deg for _, _, deg in blocks}):
        targets = [k for k, (_, _, deg) in enumerate(blocks) if d - deg == e]
        prefix = [k for k in range(targets[-1]) if blocks[k][2] <= e]
        if not prefix:
            continue
        pivots = linalg.prefix_pivots(
            _map_rows(sys, e, [blocks[k] for k in prefix], e)[0],
            [len(graded_support(par, e - blocks[k][2])) for k in prefix],
            par.field,
        )
        for k in targets:
            n = bisect_left(prefix, k)
            if n:
                keep[starts[k] + np.asarray(pivots[n - 1], dtype=np.int64)] = False
    return np.flatnonzero(keep)


def km_matrix(sys: StructuredSystem, d: int, reduce: bool = False) -> KMMatrix:
    """KM matrix in degree d; rows ordered equations outer, gamma inner.

    With reduce=True a maximal independent row subset is kept, preserving
    the row space and the right kernel, with the echelon of the
    elimination that selected it. Only the rows the F5 criterion keeps are
    formed (`_f5_rows`), and the sources of one echelon of them
    (`linalg.echelon`) are kept: a maximal independent subset, the first
    independent rows (over QQ, mod the prime of the lift). Every label, formed
    or not, is checked against the outside rows of the maps first, so an
    input that raises NotInAlgebraError without the reduction raises the
    same error with it. The prefix rows of the rule are checked too: an
    outside row in a lower degree they read also raises, as the rule is
    not exact on an incomplete graded basis.
    """
    par = sys.par
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    labels, cols = _row_labels(sys, d), graded_support(par, d).points
    rows, den, keep, ech = np.zeros((0, len(cols)), np.int64), 1, range(len(labels)), None
    if labels:
        blocks = _km_blocks(sys, d)
        S, X = _map_combination(sys, d, blocks, d)
        if reduce:
            formed = _f5_rows(sys, d, blocks)
            S, labels = linalg.sparse_rows(S, formed), [labels[k] for k in formed]
        rows, den = linalg.combine_rows(S, X, par.field)
        if reduce:
            ech = linalg.echelon(rows, par.field)
            keep = sorted(ech.sources)
    return KMMatrix(
        degree=d,
        row_labels=tuple(labels[k] for k in keep),
        col_labels=cols,
        entries=linalg.Rows(rows if len(keep) == len(rows) else rows[keep], den, par.field),
        reduced=bool(reduce),
        field=par.field,
        echelon=ech,
    )
