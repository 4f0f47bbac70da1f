"""Khovanskii-basis layer for a parameterized projective variety.

The variety is the closure of the image of t -> (phi_0(t) : ... : phi_ell(t)).
With psi_j = t_0 * phi_j, the leading exponents of the psi_j form the
columns of an (n+1) x (ell+1) matrix A whose first row is all ones. When
the phi_j are a Khovanskii basis under the chosen weight order, the graded
piece of the coordinate ring in degree d has a monomial-indexed basis
labelled by the d-element column sums of A, and every element can be
expanded in that basis by subduction (leading-term elimination).

Every expansion in the graded basis, on every field, is one run of the
batched subduction kernel `_kernels.modp_subduct_batch` against the
basis in CSR form: `expand` takes many polynomials at a time as dense
rows, int64 residues over a prime below 2**31 and object arrays of field
elements otherwise, and `subduct` is its one-row case.

The multiplication maps X_j^(d), which send b_{d,gamma} to the expansion
of b_{d,gamma} * phi_j in degree d+1, are expanded once per degree and
kept sparse; every later product of the pipeline is a combination of
their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

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
    column j is (1, leading_exponent(phi_j)). Graded supports and bases,
    their CSR forms for batched expansion and the multiplication maps are
    cached per degree on the instance.
    """

    __slots__ = (
        "field", "varnames", "phi", "ord", "A",
        "_supports", "_bases", "_batch", "_maps",
    )

    def __init__(self, field, varnames, phi, ord, A):
        self.field = field
        self.varnames = tuple(varnames)
        self.phi = tuple(phi)
        self.ord = ord
        self.A = tuple(tuple(row) for row in A)
        self._supports = {}
        self._bases = {}
        self._batch = {}
        self._maps = {}

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
    """The set d.A of d-element column sums of A, with one witness each.

    `array` holds the points as rows (d, t_1..t_n), sorted by graded lex
    on the t-part (the order of the mixed-radix keys of `graded_support`),
    and `columns` the m columns alpha_i of A as rows. Point k has the
    witness (gamma, i) with gamma the point `first[k] // m` of (d-1).A and
    i = `first[k] % m`, so gamma + alpha_i is the point; it is the first
    such pair with gamma in support order and i in column order. The
    tuple views are built on first use: `points` (the rows as tuples),
    `index` (point -> position) and `witness` (point -> (gamma, i)).
    """

    degree: int
    array: np.ndarray
    first: np.ndarray
    columns: np.ndarray

    def __len__(self):
        return self.array.shape[0]

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
    T = X[:, 1:]
    key = T.sum(axis=1)
    for j in range(T.shape[1]):
        key = key * B + T[:, j]
    return key


def graded_support(par: Parameterization, d: int) -> GradedSupport:
    """d.A from (d-1).A, one integer key per candidate sum.

    A point (d, t_1..t_n) has the mixed-radix key deg_t * B**n +
    sum t_i * B**(n-i) with B = d * (largest column t-degree) + 1. Every
    digit is below B, so the keys order the points of d.A exactly as
    `WeightOrder.tiebreak_key` (graded lex on the t-part), and the key is
    linear: candidate gamma + alpha_i has key(gamma) + key(alpha_i), so
    the k * m candidates are one vector of integers. Candidates are
    numbered gamma-major (support order), i-minor (column order); a
    stable sort of the keys puts the first candidate of every point at
    the start of its run, and that candidate is the witness. Keys and
    points are int64 while (n+1) * B.bit_length() < 63, Python ints
    otherwise.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    cached = par._supports.get(d)
    if cached is not None:
        return cached
    B = d * max(sum(c) - 1 for c in zip(*par.A)) + 1
    dtype = np.int64 if (par.n + 1) * B.bit_length() < 63 else object
    cols = np.array(par.A, dtype=dtype).T
    if d == 0:
        zero = np.zeros((1, par.n + 1), dtype)
        sup = GradedSupport(0, zero, np.zeros(0, np.int64), cols)
    else:
        gamma = graded_support(par, d - 1).array.astype(dtype)
        keys = (_grlex_keys(gamma, B)[:, None] + _grlex_keys(cols, B)[None, :]).ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        start = np.ones(len(keys), bool)
        start[1:] = keys[1:] != keys[:-1]
        first = order[start]
        m = len(cols)
        sup = GradedSupport(d, gamma[first // m] + cols[first % m], first, cols)
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
    """Products of d generators along the witness chains, one per point.

    b_{0,0} = 1 and b_{d,beta} = b_{d-1,gamma} * phi_i for the stored
    witness (gamma, i). The leading exponent of each element equals the
    t-part of its label.
    """
    cached = par._bases.get(d)
    if cached is not None:
        return cached
    sup = graded_support(par, d)
    if d == 0:
        one = MultiPoly.constant(par.field, par.varnames, par.field.one)
        basis = GradedBasis(0, ((sup.points[0], one),))
    else:
        prev = graded_basis(par, d - 1).elements
        m = len(par.phi)
        elements = []
        for beta, f in zip(sup.points, sup.first.tolist()):
            b = prev[f // m][1] * par.phi[f % m]
            if b.leading_exponent(par.ord) != beta[1:]:
                raise AssertionError(
                    f"internal error: basis element for {beta} has leading "
                    f"exponent {b.leading_exponent(par.ord)}"
                )
            elements.append((beta, b))
        basis = GradedBasis(d, tuple(elements))
    par._bases[d] = basis
    return basis


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


@dataclass(frozen=True)
class _BatchBasis:
    """The degree-d basis as a CSR matrix over its monomials.

    Columns are the monomials of the basis elements sorted by the weight
    order. Rows follow that order on the leading monomials (`positions`
    maps them to support positions), so the leading columns increase and
    eliminating a leading monomial only introduces later columns.
    `bvals` and `leadinv` (inverses of the leading coefficients) have the
    field's dtype (`linalg.array_dtype`).
    """

    monomials: list
    colpos: dict  # monomial -> column
    positions: np.ndarray
    bcols: np.ndarray
    bindptr: np.ndarray
    leadpos: np.ndarray
    bvals: np.ndarray
    leadinv: np.ndarray


def _batch_basis(par, d):
    cached = par._batch.get(d)
    if cached is not None:
        return cached
    F = par.field
    elements = graded_basis(par, d).elements
    monomials = sorted({e for _, b in elements for e in b.terms}, key=par.ord.key)
    colpos = {e: j for j, e in enumerate(monomials)}
    positions = sorted(range(len(elements)), key=lambda k: colpos[elements[k][0][1:]])
    bvals, bcols, bindptr, leadpos, leadinv = [], [], [0], [], []
    for pos in positions:
        beta, b = elements[pos]
        lead = beta[1:]
        leadpos.append(colpos[lead])
        leadinv.append(F.inv(b.terms[lead]))
        bcols.extend(colpos[e] for e in b.terms)
        bvals.extend(b.terms.values())
        bindptr.append(len(bvals))
    dtype = linalg.array_dtype(F)
    batch = _BatchBasis(
        monomials, colpos,
        *(np.asarray(x, dtype=np.int64) for x in (positions, bcols, bindptr, leadpos)),
        *(np.asarray(x, dtype=dtype) for x in (bvals, leadinv)),
    )
    par._batch[d] = batch
    return batch


def _subduct_rows(basis, G, field):
    """The kernel on dense rows G, reduced in place to the remainders."""
    return _kernels.modp_subduct_batch(
        G, basis.bvals, basis.bcols, basis.bindptr, basis.leadpos,
        basis.leadinv, field.modulus,
    )


def subduct(par: Parameterization, g: MultiPoly, d: int) -> SubductionResult:
    """Expand g in the degree-d graded basis, leaving a remainder.

    The one-row case of `expand`. The remainder, the reduced row plus the
    terms of g on monomials no basis element has, is zero exactly when g
    lies in the span of the degree-d basis; it never has support on a
    basis leading monomial.
    """
    if g.field != par.field or g.varnames != par.varnames:
        raise ValueError("polynomial is not over the parameterization's ring")
    basis = _batch_basis(par, d)
    G = np.zeros((1, len(basis.monomials)), linalg.array_dtype(par.field))
    rest = {}
    for e, c in g.terms.items():
        if e in basis.colpos:
            G[0, basis.colpos[e]] = c
        else:
            rest[e] = c
    C = _subduct_rows(basis, G, par.field)[0]
    points = graded_support(par, d).points
    nz = np.flatnonzero(C)
    coeffs = dict(zip([points[k] for k in basis.positions[nz]], C[nz].tolist()))
    nz = np.flatnonzero(G[0])
    rest.update(zip([basis.monomials[j] for j in nz], G[0, nz].tolist()))
    remainder = MultiPoly(par.field, par.varnames, rest, _normalized=True)
    return SubductionResult(d, coeffs, remainder)


# bytes of dense rows expanded at a time; an object entry counts its
# pointer and a share of the Python number it comes to point to
_EXPAND_CHUNK_BYTES = 8 << 20
_OBJECT_ENTRY_BYTES = 32


def expand(par: Parameterization, polys, d: int):
    """Expand many polynomials in the degree-d graded basis.

    Returns (C, outside): C has one row per polynomial of the iterable
    `polys` and one column per point of d.A in support order, and
    `outside` lists the rows with a nonzero remainder, whose rows of C are
    meaningless. C is an int64 array over a prime below 2**31 and an
    object array otherwise, with Fractions over QQ and Python ints over a
    larger prime at its nonzero entries. The polynomials run through the
    batched kernel as dense rows over the basis monomials, in chunks of
    about _EXPAND_CHUNK_BYTES, so memory stays bounded.
    """
    F = par.field
    basis = _batch_basis(par, d)
    colpos = basis.colpos
    dtype = linalg.array_dtype(F)
    entry = 8 if dtype == np.int64 else _OBJECT_ENTRY_BYTES
    chunk = max(1, _EXPAND_CHUNK_BYTES // (entry * len(colpos)))
    polys = list(polys)
    C = np.zeros((len(polys), len(basis.positions)), dtype)
    outside = []
    for lo in range(0, len(polys), chunk):
        batch = polys[lo : lo + chunk]
        ri, ci, vi = [], [], []
        for r, g in enumerate(batch):
            cols = [colpos.get(e) for e in g.terms]
            if None in cols:  # a monomial no basis element has
                outside.append(lo + r)
                continue
            ri.extend([r] * len(cols))
            ci.extend(cols)
            vi.extend(g.terms.values())
        G = np.zeros((len(batch), len(colpos)), dtype)
        G[ri, ci] = np.array(vi, dtype=dtype)
        C[lo : lo + len(batch), basis.positions] = _subduct_rows(basis, G, F)
        outside += (lo + np.flatnonzero((G != 0).any(axis=1))).tolist()
    return C, sorted(outside)


@dataclass(frozen=True)
class MultiplicationMap:
    """The maps X_j^(d): b_{d,gamma} -> b_{d,gamma} * phi_j, for every j.

    `matrix` is a `linalg.Sparse` with one row per pair (j, gamma), at
    j * |d.A| + position of gamma, and one column per point of (d+1).A:
    row (j, gamma) is the expansion of b_{d,gamma} * phi_j in the
    degree-(d+1) basis. `outside` lists the rows whose product has a
    nonzero remainder; they hold no entries.
    """

    degree: int
    matrix: object
    outside: tuple


def multiplication_map(par: Parameterization, d: int) -> MultiplicationMap:
    """X^(d), cached on `par`: every product b_{d,gamma} * phi_j, expanded once.

    These maps are the one product primitive of the pipeline: the KM rows
    in degree d+1, the multiplied kernels N_{x_j} and the truncated
    Khovanskii check in degree d+1 are all read off X^(d).
    """
    cached = par._maps.get(d)
    if cached is not None:
        return cached
    bas = graded_basis(par, d)
    # the product of a witness pair (gamma, j) of beta is the basis element
    # b_{d+1,beta}, already formed by graded_basis
    sup, m = graded_support(par, d + 1), len(par.phi)
    witnessed = {
        (f % m, f // m): b
        for f, (_, b) in zip(sup.first.tolist(), graded_basis(par, d + 1).elements)
    }
    products = (
        witnessed[j, k] if (j, k) in witnessed else b * phi
        for j, phi in enumerate(par.phi) for k, (_, b) in enumerate(bas.elements)
    )
    # the products are expanded in batches of about _EXPAND_CHUNK_BYTES of
    # dense rows, each made sparse at once: the dense expansion of a high
    # degree would not fit in memory. An output entry counts 8 bytes on
    # every field, as over an object array almost all are pointers to the
    # one zero
    batch = max(1, _EXPAND_CHUNK_BYTES // (8 * len(sup)))
    parts, outside, done = [], [], 0
    while rows := list(islice(products, batch)):
        C, out = expand(par, rows, d + 1)
        parts.append(linalg.sparse_from_dense(C, par.field, skip=out))
        outside += [done + r for r in out]
        done += len(rows)
    X = MultiplicationMap(d, linalg.stack_sparse(parts), tuple(outside))
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
    F = par.field
    checks = []
    for d in range(1, dmax + 1):
        expected = len(graded_support(par, d))
        bas = graded_basis(par, d - 1).elements
        remainders = [
            subduct(par, bas[r % len(bas)][1] * par.phi[r // len(bas)], d).remainder
            for r in multiplication_map(par, d - 1).outside
        ]
        if remainders:
            monomials = sorted(
                {e for r in remainders for e in r.terms}, key=par.ord.key
            )
            colpos = {e: j for j, e in enumerate(monomials)}
            rows = []
            for r in remainders:
                row = [F.zero] * len(monomials)
                for e, c in r.terms.items():
                    row[colpos[e]] = c
                rows.append(row)
            extra = linalg.rank(rows, F)
            leads = tuple(
                sorted({r.leading_exponent(par.ord) for r in remainders},
                       key=par.ord.key)
            )
        else:
            extra = 0
            leads = ()
        rank = expected + extra
        checks.append(DegreeCheck(d, expected, rank, extra == 0, leads))
        if extra:
            break
    return KhovanskiiReport(dmax, tuple(checks))
