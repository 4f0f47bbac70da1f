"""Khovanskii-basis layer for a parameterized projective variety.

The variety is the closure of the image of t -> (phi_0(t) : ... : phi_ell(t)).
With psi_j = t_0 * phi_j, the leading exponents of the psi_j form the
columns of an (n+1) x (ell+1) matrix A whose first row is all ones. When
the phi_j are a Khovanskii basis under the chosen weight order, the graded
piece of the coordinate ring in degree d has a monomial-indexed basis
labelled by the d-element column sums of A, and every element can be
expanded in that basis by subduction (leading-term elimination).

The graded support d.A is held as the sorted distinct mixed-radix keys
of its points (`graded_support`), formed from the keys of (d-1).A plus
the column keys; its point array and witnesses are read from the keys
on first use, so the Hilbert function, a count of keys, forms neither.

Polynomials of the pipeline are sparse key arithmetic. A monomial of
degree d has a mixed-radix integer key with no carries among products of
d generators, so the product of two terms is the sum of their keys, and
the products of many polynomials are one vector of key sums merged by a
sort and segment sums. The degree-d basis is held in CSR over its
monomials (`_batch_basis`), row k the element b_{d,beta_k} of the k-th
point of d.A in support order, built from the degree-(d-1) basis times
the generators along the witness chains. It is the one cached form of the
basis; `graded_basis` builds its `MultiPoly` view on each call.

Every expansion in the graded basis, on every field, is one run of the
sparse batched subduction kernel `_kernels.modp_subduct_batch`, a
level-scheduled triangular solve on COO rows: int64 residues over a prime
below 2**31 and object arrays otherwise, over QQ of exact numbers
(`linalg.field_array`: ints where a value is integral, Fractions only
where it is not; every catalog chart has integer coefficients and unit
leading coefficients, so its arrays hold ints). `expand` takes many
polynomials at a time and returns a `linalg.Sparse` in integer form
(`linalg.integer_form`), and `subduct` is its one-row case; it and
`graded_basis` give field elements, Fractions over QQ.

The multiplication maps X_j^(d), which send b_{d,gamma} to the expansion
of b_{d,gamma} * phi_j in degree d+1, are formed as key sums and expanded
once per degree, sparse from end to end; every later product of the
pipeline is a combination of their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels, linalg
from .poly import MultiPoly, WeightOrder

__all__ = [
    "Parameterization",
    "build_parameterization",
    "GradedSupport",
    "graded_support",
    "GradedBasis",
    "graded_basis",
    "SubductionResult",
    "subduct",
    "expand",
    "MultiplicationMap",
    "multiplication_map",
    "witness_monomial",
    "DegreeCheck",
    "KhovanskiiReport",
    "check_khovanskii_truncated",
]


class Parameterization:
    """A tuple of nonzero polynomials phi_0..phi_ell with a weight order.

    `A` is the matrix of leading exponents of the homogenized generators:
    column j is (1, leading_exponent(phi_j)). Graded supports, bases in
    their CSR form (the one cached form, rows in support order) and the
    multiplication maps are cached per degree on the instance, and the
    generators' terms in CSR form once.
    """

    __slots__ = (
        "field", "varnames", "phi", "ord", "A",
        "_supports", "_batch", "_maps", "_terms",
    )

    def __init__(self, field, varnames, phi, ord, A):
        self.field = field
        self.varnames = tuple(varnames)
        self.phi = tuple(phi)
        self.ord = ord
        self.A = tuple(tuple(row) for row in A)
        self._supports = {}
        self._batch = {}
        self._maps = {}
        self._terms = None

    @property
    def n(self) -> int:
        return len(self.varnames)

    @property
    def ell(self) -> int:
        return len(self.phi) - 1

    def column(self, j):
        """Column j of A as an (n+1)-tuple."""
        return tuple(self.A[i][j] for i in range(self.n + 1))

    def __repr__(self):
        return (
            f"Parameterization(n={self.n}, ell={self.ell}, "
            f"field={self.field!r}, ord={self.ord!r})"
        )


def build_parameterization(phi, ord: WeightOrder, field=None) -> Parameterization:
    phi = tuple(phi)
    if not phi:
        raise ValueError("need at least one generator")
    if field is None:
        field = phi[0].field
    varnames = phi[0].varnames
    for j, p in enumerate(phi):
        if p.field != field:
            raise ValueError(f"phi_{j} is over {p.field!r}, expected {field!r}")
        if p.varnames != varnames:
            raise ValueError(f"phi_{j} uses variables {p.varnames}, expected {varnames}")
        if p.is_zero():
            raise ValueError(f"phi_{j} is the zero polynomial")
    if ord.nvars != len(varnames):
        raise ValueError(
            f"weight vector has {ord.nvars} entries for {len(varnames)} variables"
        )
    cols = [(1,) + p.leading_exponent(ord) for p in phi]
    seen = {}
    for j, c in enumerate(cols):
        if c in seen:
            raise ValueError(
                f"phi_{seen[c]} and phi_{j} share the leading exponent "
                f"{c[1:]}; the graded basis construction needs distinct "
                f"leading terms (reweight or combine the generators)"
            )
        seen[c] = j
    n = len(varnames)
    A = [[cols[j][i] for j in range(len(phi))] for i in range(n + 1)]
    return Parameterization(field, varnames, phi, ord, A)


@dataclass(frozen=True, eq=False)
class GradedSupport:
    """The set d.A of d-element column sums of A, held as its sorted keys.

    `keys` are the distinct mixed-radix keys of the points (d, t_1..t_n)
    of d.A (`graded_support`), sorted: graded lex on the t-part, the
    support order. `len` reads them, and every other view is built on
    first read. `array` holds the points as rows, decoded from the keys,
    and `columns` the m columns alpha_i of A as rows. Point k has the
    witness (gamma, i) with gamma the point `first[k] // m` of (d-1).A and
    i = `first[k] % m`, so gamma + alpha_i is the point; it is the first
    such pair with gamma in support order and i in column order. The
    tuple views are `points` (the rows as tuples), `index` (point ->
    position) and `witness` (point -> (gamma, i)). `_bits` is the digit
    width of the keys, `_lower` the keys of (d-1).A in that width and
    `_colkeys` the keys of the columns.
    """

    degree: int
    keys: np.ndarray
    columns: np.ndarray
    _bits: int
    _lower: np.ndarray
    _colkeys: np.ndarray

    def __len__(self):
        return len(self.keys)

    @cached_property
    def first(self):
        # candidate (gamma, i), numbered gamma * m + i, is the point of key
        # key(gamma) + key(alpha_i): one search of every candidate among
        # the keys, and the least number that lands on a point is its witness
        if not self.degree:
            return np.zeros(0, np.int64)
        lower, colkeys = self._lower, self._colkeys
        m = len(colkeys)
        at = np.searchsorted(self.keys, lower[None, :] + colkeys[:, None])
        first = np.full(len(self.keys), len(lower) * m)
        np.minimum.at(first, at, np.arange(len(lower)) * m + np.arange(m)[:, None])
        return first

    @cached_property
    def array(self):
        return _grlex_points(
            self.keys, self.degree, self.columns.shape[1] - 1, self._bits, self.columns.dtype
        )

    @cached_property
    def points(self):
        return tuple(map(tuple, self.array.tolist()))

    @cached_property
    def index(self):
        return {b: k for k, b in enumerate(self.points)}

    @cached_property
    def witness(self):
        i = self.first % len(self.columns)
        gammas = (self.array - self.columns[i]).tolist()
        return {
            b: (tuple(g), c) for b, g, c in zip(self.points, gammas, i.tolist())
        }


def _grlex_keys(X, B):
    """deg_t * B**n + sum t_i * B**(n-i) for each row (d, t_1..t_n) of X."""
    n = X.shape[1] - 1
    return X[:, 1:] @ np.array([B**n + B ** (n - 1 - j) for j in range(n)], X.dtype)


def _grlex_points(keys, d, n, bits, dtype):
    """The rows (d, t_1..t_n) of the keys of `_grlex_keys` with B = 2**bits."""
    X = np.empty((len(keys), n + 1), dtype)
    X[:, 0] = d
    shifts = (bits * np.arange(n - 1, -1, -1)).astype(dtype)
    X[:, 1:] = (keys.astype(dtype, copy=False)[:, None] >> shifts) & ((1 << bits) - 1)
    return X


def graded_support(par: Parameterization, d: int) -> GradedSupport:
    """d.A as the sorted distinct keys of the sums gamma + alpha_i.

    A point (d, t_1..t_n) has the mixed-radix key deg_t * R**n +
    sum t_i * R**(n-i) with R = 2**bits the least power of two above
    d * (largest column t-degree). Every digit is below R, so the keys
    order the points of d.A exactly as `WeightOrder.tiebreak_key` (graded
    lex on the t-part), and the key is linear: candidate gamma + alpha_i
    has key(gamma) + key(alpha_i). The keys of (d-1).A are reused as they
    are, re-encoded only when R grows, and plus each column key they are
    m sorted runs: one stable sort merges them, and an adjacent
    difference keeps the distinct keys. Nothing else is formed here; the
    points and witnesses are read from the keys (`GradedSupport`). Keys
    and points are int64 while (n+1) * bit_length(d * largest t-degree
    + 1) < 63, Python ints otherwise.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    cached = par._supports.get(d)
    if cached is not None:
        return cached
    top = d * (max(map(sum, zip(*par.A))) - 1)
    bits = top.bit_length()
    dtype = np.int64 if (par.n + 1) * (top + 1).bit_length() < 63 else object
    cols = np.array(par.A, dtype=dtype).T
    colkeys = _grlex_keys(cols, 1 << bits)
    if d == 0:
        keys, lower = np.zeros(1, dtype), np.zeros(0, dtype)
    else:
        below = graded_support(par, d - 1)
        lower = below.keys.astype(dtype, copy=False)
        if below._bits != bits:
            lower = _grlex_keys(_grlex_points(lower, 0, par.n, below._bits, dtype), 1 << bits)
        keys = (lower[None, :] + colkeys[:, None]).ravel()
        keys.sort(kind="stable")
        start = np.ones(len(keys), bool)
        start[1:] = keys[1:] != keys[:-1]
        keys = keys[start]
    sup = GradedSupport(d, keys, cols, bits, lower, colkeys)
    par._supports[d] = sup
    return sup


@dataclass(frozen=True)
class GradedBasis:
    """Basis elements b_{d,beta} aligned with GradedSupport.points."""

    degree: int
    elements: tuple  # of (beta, MultiPoly)

    def __len__(self):
        return len(self.elements)


def graded_basis(par: Parameterization, d: int) -> GradedBasis:
    """The degree-d basis as polynomials, one per point, from its CSR form.

    b_{0,0} = 1 and b_{d,beta} = b_{d-1,gamma} * phi_i for the stored
    witness (gamma, i); `_batch_basis` forms these products as key sums,
    and this is their `MultiPoly` view, built on each call. The leading
    exponent of each element equals the t-part of its label.
    """
    basis = _batch_basis(par, d)
    monomials = basis.monomials
    cols, ptr = basis.bcols.tolist(), basis.bindptr.tolist()
    vals = _elements(basis.bvals, par.field)
    return GradedBasis(d, tuple(
        (beta, MultiPoly(par.field, par.varnames, {
            monomials[cols[t]]: vals[t] for t in range(ptr[k], ptr[k + 1])
        }, _normalized=True))
        for k, beta in enumerate(graded_support(par, d).points)
    ))


@dataclass(frozen=True)
class SubductionResult:
    """Expansion g = sum coeffs[beta] * b_{d,beta} + remainder."""

    degree: int
    coeffs: dict
    remainder: MultiPoly

    def vector(self, support: GradedSupport):
        """Coefficients as a list aligned with support.points."""
        row = [self.remainder.field.zero] * len(support)
        for beta, c in self.coeffs.items():
            row[support.index[beta]] = c
        return row


def _elements(vals, field):
    """The values of an exact array (`linalg.field_array`) as field
    elements: Fractions over QQ."""
    return linalg.field_values(*linalg.integer_form(vals, field), field)


def _generator_terms(par):
    """(exps, vals, ptr): the terms of phi_0..phi_ell as CSR rows, cached.

    exps holds one int64 exponent vector per term and vals the
    coefficients as `linalg.field_array`; phi_j owns the terms ptr[j]:ptr[j+1].
    """
    if par._terms is None:
        terms = [t for f in par.phi for t in f.terms.items()]
        exps = np.array([e for e, _ in terms], dtype=np.int64).reshape(len(terms), par.n)
        vals = linalg.field_array([c for _, c in terms], par.field)
        ptr = np.cumsum([0] + [len(f.terms) for f in par.phi])
        par._terms = (exps, vals, ptr)
    return par._terms


def _key_radix(par, d):
    """(radix, weights, space) of the mixed-radix monomial keys in degree d.

    The digit of t_i has radix d * (largest exponent of t_i in a
    generator) + 1 and the weight of the radices after it, so no monomial
    of a product of d generators carries a digit: the key of a product of
    two terms is the sum of their keys. All are Python ints; `space` is the
    product of the radices, and every key lies below it.
    """
    exps = _generator_terms(par)[0]
    radix = [d * m + 1 for m in exps.max(axis=0, initial=0).tolist()]
    weights, space = [], 1
    for r in reversed(radix):
        weights.append(space)
        space *= r
    return radix, weights[::-1], space


def _decode(keys, radix, weights):
    exps = np.zeros((len(keys), len(radix)), np.int64)
    for i, (r, w) in enumerate(zip(radix, weights)):
        exps[:, i] = keys // w % r
    return exps


def _weight_order(par, exps):
    """The order of the monomials (rows of exps) under `par.ord`.

    WeightOrder.key(e) is (omega . e, deg e, e), compared in that order:
    one stable sort per component, the least significant first.
    """
    omega = np.array(par.ord.omega, dtype=np.int64).reshape(par.n)
    order = np.arange(len(exps))
    for key in [exps[:, i] for i in reversed(range(par.n))] + [
        exps.sum(axis=1), exps @ omega,
    ]:
        order = order[np.argsort(key[order], kind="stable")]
    return order


def _unique(x):
    """(u, inverse): the sorted distinct entries of x and x = u[inverse]."""
    order = np.argsort(x, kind="stable")
    x = x[order]
    first = np.ones(len(x), bool)
    first[1:] = x[1:] != x[:-1]
    inverse = np.empty(len(x), np.int64)
    inverse[order] = np.cumsum(first) - 1
    return x[first], inverse


def _products(par, d, rows, gens):
    """The products b_{d,rows[k]} * phi_{gens[k]} as merged COO entries.

    A term of b times a term of phi_j is the key sum key(e) + key(f) in
    degree d+1 (`_key_radix`) with the product of the coefficients, and
    k * space + key puts every entry of product k in one run: the pairs of
    all products are formed at once and one `_kernels.merge_coo` sums
    equal monomials and drops zeros. Returns (k, monomial key, value) of
    every entry, sorted by k and key; keys are int64 while they fit,
    Python ints otherwise.
    """
    p = par.field.modulus
    basis = _batch_basis(par, d)
    pexps, pvals, pptr = _generator_terms(par)
    _, weights, space = _key_radix(par, d + 1)
    dtype = np.int64 if max(len(rows), 1) * space < 2**63 else object
    first, nb = basis.bindptr[rows], basis.bindptr[rows + 1] - basis.bindptr[rows]
    pfirst, npt = pptr[gens], pptr[gens + 1] - pptr[gens]
    count = nb * npt
    k = np.repeat(np.arange(len(rows)), count)
    q = np.arange(k.size) - np.repeat(np.cumsum(count) - count, count)
    bt = first[k] + q // npt[k]
    pt = pfirst[k] + q % npt[k]
    weights = np.array(weights, dtype=dtype).reshape(len(weights))
    keys = k.astype(dtype) * space + (
        (basis.exps.astype(dtype) @ weights)[basis.bcols[bt]]
        + (pexps.astype(dtype) @ weights)[pt]
    )
    vals = basis.bvals[bt] * pvals[pt]
    if p is not None:
        vals %= p
    keys, vals = _kernels.merge_coo(keys, vals, p)
    mono = keys % space
    return (
        (keys // space).astype(np.int64),
        mono.astype(np.int64) if space < 2**63 else mono,
        vals,
    )


@dataclass(frozen=True, eq=False)
class _BatchBasis:
    """The degree-d basis as a CSR matrix over its monomials.

    Columns are the monomials of the basis elements, `exps` (one int64
    row each), sorted by the weight order; `keys` are their keys in degree
    d (`_key_radix`), sorted, and `keycol` the column of each. Row k is
    b_{d,beta_k} for the k-th point of d.A in support order, its terms in
    column order from its leading column `leadpos[k]`, so `exps[leadpos]`
    are the t-parts of the points. `bvals` and `leadinv` (inverses of the
    leading coefficients) are exact arrays as `linalg.field_array`: over
    QQ ints where a value is integral, Fractions where it is not; `levels`
    is the plan of `_kernels.subduction_levels`, which orders the
    elimination, so the rows need no other order. The tuple views
    `monomials` and `colpos` (monomial -> column) are built on first use.
    """

    exps: np.ndarray
    keys: np.ndarray
    keycol: np.ndarray
    bcols: np.ndarray
    bindptr: np.ndarray
    leadpos: np.ndarray
    bvals: np.ndarray
    leadinv: np.ndarray
    levels: list

    @cached_property
    def monomials(self):
        return list(map(tuple, self.exps.tolist()))

    @cached_property
    def colpos(self):
        return {e: j for j, e in enumerate(self.monomials)}


def _batch_basis(par, d):
    """The degree-d basis in CSR, cached: the witness products as key sums.

    b_{d,beta} = b_{d-1,gamma} * phi_i for the witness (gamma, i) of beta,
    formed by `_products` in support order; the distinct keys of all of
    them are the columns.
    """
    cached = par._batch.get(d)
    if cached is not None:
        return cached
    F = par.field
    if d == 0:
        zero = np.zeros(1, np.int64)
        one = linalg.field_array([F.one], F)
        batch = _BatchBasis(
            np.zeros((1, par.n), np.int64), zero, zero, zero,
            np.array([0, 1]), zero, one, one, [zero],
        )
        par._batch[d] = batch
        return batch
    sup = graded_support(par, d)
    m = len(par.phi)
    rows, keys, vals = _products(par, d - 1, sup.first // m, sup.first % m)
    keys, col = _unique(keys)
    exps = _decode(keys, *_key_radix(par, d)[:2])
    order = _weight_order(par, exps)
    keycol = np.argsort(order, kind="stable")
    exps, cols = exps[order], keycol[col]
    # no product of nonzero polynomials is zero: each row has entries
    bindptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(sup)))))
    leadpos = np.minimum.reduceat(cols, bindptr[:-1])
    bad = np.flatnonzero((exps[leadpos] != sup.array[:, 1:]).any(axis=1))
    if bad.size:
        k = int(bad[0])
        raise AssertionError(
            f"internal error: basis element for {sup.points[k]} has leading "
            f"exponent {tuple(exps[leadpos[k]].tolist())}"
        )
    order = np.argsort(rows * len(exps) + cols, kind="stable")
    bcols, bvals = cols[order], vals[order]
    if d == 1:
        # b_{1,alpha_i} = phi_i: one inverse per generator at most
        leadinv = linalg.field_array([F.inv(x) for x in bvals[bindptr[:-1]].tolist()], F)
    else:
        # lc(b_{d,beta}) = lc(b_{d-1,gamma}) lc(phi_i) = lc(b_{d-1,gamma}) lc(b_{1,alpha_i})
        # for the witness (gamma, i): the leading terms of a product multiply
        lower, one = _batch_basis(par, d - 1), _batch_basis(par, 1)
        # a witness generator is the first with its column, a point of 1.A
        first1 = graded_support(par, 1).first
        at1 = np.zeros(m, np.int64)
        at1[first1] = np.arange(len(first1))
        leadinv = lower.leadinv[sup.first // m] * one.leadinv[at1[sup.first % m]]
        leadinv = (leadinv % F.modulus if F.modulus is not None
                   else linalg.field_array(leadinv.tolist(), F))
    batch = _BatchBasis(
        exps, keys, keycol, bcols, bindptr, leadpos, bvals, leadinv,
        _kernels.subduction_levels(bcols, bindptr, leadpos),
    )
    par._batch[d] = batch
    return batch


def _subduct_coo(basis, rows, cols, vals, ncols, field):
    """The kernel on the COO rows (rows, cols, vals) over `ncols` columns.

    Columns from len(basis.exps) on are monomials no basis element has.
    Returns (row, element, value) of the coefficients, sorted, with the
    element numbered as the basis rows (support positions), and (row, col,
    value) of the remainders.
    """
    ck, cv, rk, rv = _kernels.modp_subduct_batch(
        rows * ncols + cols, vals, ncols, basis.bvals, basis.bcols, basis.bindptr,
        basis.leadpos, basis.leadinv, basis.levels, field.modulus,
    )
    nb = len(basis.leadpos)
    return ck // nb, ck % nb, cv, rk // ncols, rk % ncols, rv


def _expansion(basis, nrows, crow, celem, cvals, rrow, field):
    """(C, outside): the coefficients as a `linalg.Sparse` in support
    positions, and the rows with a remainder, which keep no entries. The
    kernel's entries are sorted by (row, element) already."""
    outside = _unique(rrow)[0]
    keep = np.ones(nrows, bool)
    keep[outside] = False
    keep = keep[crow]
    vals, den = linalg.integer_form(cvals[keep], field)
    shape = (nrows, len(basis.leadpos))
    return linalg.Sparse(shape, crow[keep], celem[keep], vals, den), outside


def _poly_rows(basis, polys, field):
    """Polynomials as COO rows over the basis columns.

    A monomial no basis element has gets a column after them. Returns
    (rows, cols, vals, ncols, monomials of the extra columns).
    """
    colpos, extra = basis.colpos, {}
    rows, cols, vals = [], [], []
    for r, g in enumerate(polys):
        for e, c in g.terms.items():
            j = colpos.get(e)
            if j is None:
                j = extra.setdefault(e, len(colpos) + len(extra))
            rows.append(r)
            cols.append(j)
            vals.append(c)
    return (
        np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
        linalg.field_array(vals, field),
        len(colpos) + len(extra), list(extra),
    )


def subduct(par: Parameterization, g: MultiPoly, d: int) -> SubductionResult:
    """Expand g in the degree-d graded basis, leaving a remainder.

    The one-row case of `expand`. The remainder, whose terms are those of
    g on monomials no basis element has and the rest of the reduced row,
    is zero exactly when g lies in the span of the degree-d basis; it
    never has support on a basis leading monomial.
    """
    F = par.field
    if g.field != F or g.varnames != par.varnames:
        raise ValueError("polynomial is not over the parameterization's ring")
    basis = _batch_basis(par, d)
    rows, cols, vals, ncols, extra = _poly_rows(basis, [g], F)
    _, elem, cv, _, rcol, rv = _subduct_coo(basis, rows, cols, vals, ncols, F)
    # the labels in the order subduction meets them: by leading column
    order = np.argsort(basis.leadpos[elem], kind="stable")
    points = graded_support(par, d).points
    coeffs = dict(zip([points[k] for k in elem[order].tolist()], _elements(cv[order], F)))
    monomials = basis.monomials + extra
    rest = dict(zip([monomials[j] for j in rcol.tolist()], _elements(rv, F)))
    remainder = MultiPoly(F, par.varnames, rest, _normalized=True)
    return SubductionResult(d, coeffs, remainder)


def expand(par: Parameterization, polys, d: int):
    """Expand many polynomials in the degree-d graded basis.

    Returns (C, outside): C is a `linalg.Sparse` with one row per
    polynomial of the iterable `polys` and one column per point of d.A in
    support order, and `outside` lists the rows with a nonzero remainder,
    which hold no entries. Its values are in integer form
    (`linalg.integer_form`), over QQ numerators over C.den. All
    polynomials run through one call of the sparse batched kernel
    `_kernels.modp_subduct_batch`.
    """
    polys = list(polys)
    basis = _batch_basis(par, d)
    rows, cols, vals, ncols, _ = _poly_rows(basis, polys, par.field)
    crow, elem, cv, rrow, _, _ = _subduct_coo(basis, rows, cols, vals, ncols, par.field)
    C, outside = _expansion(basis, len(polys), crow, elem, cv, rrow, par.field)
    return C, outside.tolist()


@dataclass(frozen=True)
class MultiplicationMap:
    """The maps X_j^(d): b_{d,gamma} -> b_{d,gamma} * phi_j, for every j.

    `matrix` is a `linalg.Sparse` with one row per pair (j, gamma), at
    j * |d.A| + position of gamma, and one column per point of (d+1).A:
    row (j, gamma) is the expansion of b_{d,gamma} * phi_j in the
    degree-(d+1) basis. `outside` lists the rows whose product has a
    nonzero remainder; they hold no entries. Their remainders are the rows
    of the Sparse `remainder`, in the order of `outside`, over the
    monomials `monomials` (exponent tuples in the weight order).
    """

    degree: int
    matrix: object
    outside: tuple
    remainder: object
    monomials: tuple


def multiplication_map(par: Parameterization, d: int) -> MultiplicationMap:
    """X^(d), cached on `par`: every product b_{d,gamma} * phi_j, expanded once.

    The products are key sums (`_products`), their monomials are found
    among the degree-(d+1) basis columns by one sort of the keys of both,
    and a monomial with no column gets one of its own, which marks its row
    outside. All rows then run through one call of the sparse
    batched kernel. These maps are the one product primitive of the
    pipeline: the KM rows in degree d+1, the multiplied kernels N_{x_j}
    and the truncated Khovanskii check in degree d+1 are all read off X^(d).
    """
    cached = par._maps.get(d)
    if cached is not None:
        return cached
    H, m = len(graded_support(par, d)), len(par.phi)
    rows, keys, vals = _products(
        par, d, np.arange(m * H) % H, np.repeat(np.arange(m), H)
    )
    basis = _batch_basis(par, d + 1)
    ncols = len(basis.exps)
    monomials, at = _unique(np.concatenate((basis.keys, keys)))
    col = np.full(len(monomials), -1, np.int64)
    col[at[:ncols]] = basis.keycol
    new = col < 0
    col[new] = ncols + np.arange(np.count_nonzero(new))
    extra = monomials[new]
    crow, elem, cv, rrow, rcol, rv = _subduct_coo(
        basis, rows, col[at[ncols:]], vals, ncols + len(extra), par.field
    )
    C, outside = _expansion(basis, m * H, crow, elem, cv, rrow, par.field)
    # the remainders over the monomials they use, in the weight order;
    # rrow is sorted, so its inverse numbers the rows as `outside`
    used, rcol = _unique(rcol)
    rrow = _unique(rrow)[1]
    inbasis = used < ncols
    exps = np.concatenate((
        basis.exps[used[inbasis]],
        _decode(extra[used[~inbasis] - ncols], *_key_radix(par, d + 1)[:2]),
    ))
    worder = _weight_order(par, exps)
    rcol = np.argsort(worder, kind="stable")[rcol]
    order = np.argsort(rrow * len(used) + rcol, kind="stable")
    rv, rden = linalg.integer_form(rv[order], par.field)
    R = linalg.Sparse((len(outside), len(used)), rrow[order], rcol[order], rv, rden)
    X = MultiplicationMap(
        d, C, tuple(outside.tolist()), R, tuple(map(tuple, exps[worder].tolist()))
    )
    par._maps[d] = X
    return X


def witness_monomial(par: Parameterization, d: int, beta) -> tuple:
    """Generator exponent vector of the witness chain for beta in d.A.

    Returns e over indices 0..ell with sum(e) = d and sum e_j alpha_j =
    beta, so b_{d,beta} = prod phi_j**e_j.
    """
    beta = tuple(beta)
    pos = graded_support(par, d).index.get(beta)
    if pos is None:
        raise KeyError(f"{beta} is not in {d}.A")
    m = len(par.phi)
    e = [0] * m
    for dd in range(d, 0, -1):
        pos, i = divmod(int(graded_support(par, dd).first[pos]), m)
        e[i] += 1
    return tuple(e)


@dataclass(frozen=True)
class DegreeCheck:
    degree: int
    expected: int  # |d.A|
    rank: int
    passed: bool
    new_leading_exponents: tuple


@dataclass(frozen=True)
class KhovanskiiReport:
    dmax: int
    degrees: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.degrees)

    def first_failure(self):
        for c in self.degrees:
            if not c.passed:
                return c
        return None


def check_khovanskii_truncated(par: Parameterization, dmax: int) -> KhovanskiiReport:
    """Degree-truncated Khovanskii-basis verification.

    For each d <= dmax the span of all degree-d products of the generators
    must have dimension |d.A|. The products b_{d-1,gamma} * phi_j are the
    rows of the cached map X^(d-1); the rank of their span equals |d.A|
    plus the rank of the nonzero remainders of its outside rows
    (remainders have no support on basis leading monomials, so the two
    spans only meet in zero). A failure stops the scan since higher-degree
    bases are then unreliable.
    """
    if dmax < 1:
        raise ValueError(f"dmax must be at least 1, got {dmax}")
    checks = []
    for d in range(1, dmax + 1):
        expected = len(graded_support(par, d))
        X = multiplication_map(par, d - 1)
        R = X.remainder
        extra = linalg.rank(linalg.dense(R, par.field), par.field) if X.outside else 0
        # a remainder's leading monomial is its first column
        leads = sorted(set(R.cols[R.row_starts()[:-1]].tolist()))
        checks.append(DegreeCheck(
            d, expected, expected + extra, extra == 0,
            tuple(X.monomials[c] for c in leads),
        ))
        if extra:
            break
    return KhovanskiiReport(dmax, tuple(checks))
