"""Nullspaces, multiplication matrices and eigenvalue extraction.

The pipeline: build the KM matrix at a degree dreg such that dreg-1 and
dreg are both regular for the ideal, take its exact right kernel N, form
the multiplication matrices M_j = (N_h)|B^-1 (N_{x_j})|B for a random
linear form h, and read off the solutions as joint eigenvalues. The
eigenvalue of M_j at a solution z is x_j(z)/h(z), so the rows of the
output are homogeneous coordinates.

`multiplication_system` runs every step up to the M_j, on any field: it
is the one place that chooses and checks dreg. `solve` adds the
eigenvalues over QQ; a count over F_p reads the delta of its result.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .fields import QQ, PrimeField
from .hilbert import (
    hilbert_function,
    hilbert_numerator,
    regularity_bound,
)
from .khov import graded_support, multiplication_map
from .km import KMMatrix, StructuredSystem, km_matrix

__all__ = [
    "SolverError",
    "UnsupportedFieldError",
    "KernelBasis",
    "kernel_basis",
    "MultiplicationSystem",
    "multiplication_matrices",
    "multiplication_system",
    "SolutionSet",
    "extract_solutions",
    "solve",
    "residuals",
    "brute_force_affine",
    "normalize_solutions",
]


class SolverError(RuntimeError):
    pass


class UnsupportedFieldError(SolverError):
    pass


@dataclass(frozen=True)
class KernelBasis:
    """The rows of N, a `linalg.Rows`, span the exact right kernel of a KM matrix."""

    degree: int
    N: linalg.Rows  # delta' rows of length HF(degree)
    col_labels: tuple

    @property
    def nullity(self) -> int:
        return len(self.N)


def kernel_basis(M: KMMatrix) -> KernelBasis:
    E = M.echelon
    if E is None:
        E = linalg.echelon(M.entries.A, M.field)
    N = linalg.kernel_from_echelon(E, M.field, len(M.col_labels))
    return KernelBasis(M.degree, N, M.col_labels)


@dataclass(frozen=True)
class MultiplicationSystem:
    """Commuting matrices M_0..M_ell with sum c_j M_j = identity."""

    delta: int
    h_coeffs: tuple
    mats: tuple  # ell+1 delta x delta `linalg.Rows` over one denominator


_LEFT_ALGEBRA = (
    "generator product left the graded algebra at degree {}; the "
    "Khovanskii property fails"
)
_DRAWS = 5  # random h, or random combinations to diagonalize, tried before giving up
_OFFDIAGONAL_TOL = 1e-6  # the largest residue of a certified joint diagonalization
_RESIDUAL_TOL = 1e-8  # the largest residual of a certified solution set


def _multiplied_kernels(sys: StructuredSystem, N: KernelBasis, d: int):
    """N_{x_j} for each generator j, an (ell+1) x delta x HF(d) integer array.

    Column gamma of N_{x_j} is N applied to the degree-(d+1) expansion of
    b_{d,gamma} * phi_j, which is row (j, gamma) of the cached sparse map
    X^(d): all blocks come from one product N X^T. Over QQ the blocks are
    its numerators over one common denominator, which is dropped: it
    scales every N_{x_j} alike and changes no M_j.
    """
    par = sys.par
    X = multiplication_map(par, d)
    if X.outside:
        raise SolverError(_LEFT_ALGEBRA.format(d + 1))
    nd = len(graded_support(par, d))
    Nx = linalg.matmul_transposed(N.N.A, X.matrix, par.field)
    return Nx.reshape(N.nullity, par.ell + 1, nd).transpose(1, 0, 2)


def multiplication_matrices(
    sys: StructuredSystem, N: KernelBasis, d: int, seed: int = 0
) -> MultiplicationSystem:
    """Multiplication matrices from a kernel basis at degree d+1.

    N_{x_j}[:, gamma] applies N to the expansion of b_{d,gamma} * phi_j,
    h is a random linear form in the generators, B is the leftmost set of
    delta independent columns of N_h mod the field's prime, over QQ mod
    LIFT_PRIME, or mod the prime below where LIFT_PRIME finds fewer
    (`linalg.first_independent_columns`), so N_h|B is
    invertible, and M_j = (N_h)|B^-1 (N_{x_j})|B, all read off one block
    echelon, which over QQ is lifted and certified. Over QQ
    every matrix from N_{x_j} to the RREF is an integer array (the
    numerators over a common denominator, which changes no M_j), and the
    M_j are `linalg.Rows` of that RREF.
    sum c_j M_j = I and the pairwise commutation are checked exactly on
    the integer blocks (`linalg.commuting_check`).
    """
    par = sys.par
    field = par.field
    if N.degree != d + 1:
        raise ValueError(f"kernel basis is at degree {N.degree}, expected {d + 1}")
    delta = N.nullity
    if delta == 0:
        raise SolverError("kernel is trivial; the system has no solutions on X")
    Nx = _multiplied_kernels(sys, N, d)

    rng = random.Random(seed)
    last_err = None
    for _ in range(_DRAWS):
        if field == QQ:
            c = [rng.randint(1, 2 * delta * delta + 1) for _ in range(par.ell + 1)]
        else:
            c = []
            for _ in range(par.ell + 1):
                x = rng.randrange(field.modulus)
                while x == 0:
                    x = rng.randrange(field.modulus)
                c.append(x)
        Nh = linalg.combine(c, Nx, field)
        B = linalg.first_independent_columns(Nh, field, count=delta)
        if len(B) < delta:
            last_err = SolverError(
                f"N_h has rank {len(B)} < {delta} for {_DRAWS} random h: the "
                f"degree dreg = {d + 1} is likely below the regularity set, so "
                f"the kernel overcounts the solutions; try a larger --dreg"
            )
            continue
        # N_h|B is invertible, so the RREF of
        # [N_h|B | N_{x_0}|B | ... | N_{x_ell}|B] is [I | M_0 | ... | M_ell]
        E = linalg.echelon(np.hstack([Nh[:, B], *Nx[:, :, B]]), field)
        T = E.rows[:, delta:].reshape(delta, par.ell + 1, delta).transpose(1, 0, 2)
        is_identity, pair = linalg.commuting_check(c, T, E.den, field)
        if not is_identity:
            raise SolverError("internal error: sum c_j M_j is not the identity")
        if pair is not None:
            raise SolverError(
                f"multiplication matrices {pair[0]} and {pair[1]} do not "
                f"commute: degrees not in the regularity set or the solution "
                f"scheme is non-reduced"
            )
        return MultiplicationSystem(
            delta=delta,
            h_coeffs=tuple(map(field.from_int, c)),
            mats=tuple(linalg.Rows(Tj, E.den, field) for Tj in T),
        )
    raise last_err


@dataclass(frozen=True)
class SolutionSet:
    """Rows are homogeneous coordinates x_j(z)/h(z) of the solutions."""

    coords: tuple  # delta rows of ell+1 complex numbers
    residuals: tuple
    diagnostics: dict = dc_field(default_factory=dict)

    def __len__(self):
        return len(self.coords)


def extract_solutions(ms: MultiplicationSystem, seed: int = 0) -> SolutionSet:
    """Joint eigenvalues of the multiplication matrices, over QQ only.

    A single random real combination T of the matrices is diagonalized
    numerically; its eigenvector matrix simultaneously (approximately)
    diagonalizes every M_j, and coordinate j of solution i is the i-th
    diagonal entry of V^-1 M_j V. The M_j are held as one float stack of
    shape (ell+1) x delta x delta, which every step below reads at once.
    """
    if ms.mats[0].field != QQ:
        raise UnsupportedFieldError(
            "eigenvalue extraction needs rational coefficients; over a "
            "finite field use the multiplication matrices directly or the "
            "brute-force oracle"
        )
    M = np.stack([np.asarray(m, dtype=float) for m in ms.mats])
    scale = max(1.0, np.abs(M).max())
    upper = np.triu_indices(ms.delta, 1)
    rng = random.Random(seed)
    clustered = True
    for _ in range(_DRAWS):
        r = np.array([rng.random() for _ in ms.mats])
        w, V = np.linalg.eig((r[:, None, None] * M).sum(axis=0))
        gap = np.abs(w[upper[0]] - w[upper[1]]).min(initial=np.inf)
        if gap > 1e-8 * max(1.0, np.abs(w).max()):
            clustered = False
            break
    uncertified = []
    if clustered:
        uncertified.append(
            "eigenvalues of the random combination stay clustered after "
            f"{_DRAWS} draws; the solution scheme is possibly non-reduced"
        )
        warnings.warn(uncertified[-1], stacklevel=2)
    D = np.linalg.solve(V, M @ V)
    coords = np.diagonal(D, axis1=1, axis2=2).T.copy()
    D[:, np.arange(ms.delta), np.arange(ms.delta)] = 0
    offdiag = float(np.abs(D).max())
    # M_j M_k - M_k M_j for all k > j, from one product of M_j each way
    comm = max((float(np.abs(M[j] @ M[j + 1:] - M[j + 1:] @ M[j]).max())
                for j in range(len(M) - 1)), default=0.0)
    real = np.abs(coords.imag) <= 1e-8 * (1.0 + np.abs(coords).max(axis=1, keepdims=True))
    diagnostics = {
        "offdiagonal": offdiag,
        "offdiagonal_relative": offdiag / scale,
        "commutator_float": comm,
        "real": tuple(real.all(axis=1).tolist()),
        "eigen_gap_clustered": clustered,
    }
    if offdiag / scale > _OFFDIAGONAL_TOL:
        uncertified.append(
            f"joint diagonalization off-diagonal residue {offdiag / scale:.3e} "
            f"exceeds {_OFFDIAGONAL_TOL:.1e}"
        )
        warnings.warn(uncertified[-1], stacklevel=2)
    diagnostics["certified"] = not uncertified
    diagnostics["uncertified"] = uncertified
    return SolutionSet(
        coords=tuple(map(tuple, coords)),
        residuals=(),
        diagnostics=diagnostics,
    )


def normalize_solutions(coords, mode: str = "raw"):
    """Normalize homogeneous coordinate rows.

    "raw" leaves the x_j(z)/h(z) values; "first" divides each row by its
    first coordinate, and a row whose first coordinate vanishes
    numerically raises `SolverError`.
    """
    if mode == "raw":
        return [list(row) for row in coords]
    if mode != "first":
        raise ValueError(f"unknown normalization {mode!r}")
    if not len(coords):
        return []
    C = np.asarray(coords)
    first = C[:, :1]
    vanishing = np.abs(first[:, 0]) <= 1e-12 * np.maximum(1.0, np.abs(C).max(axis=1))
    if vanishing.any():
        raise SolverError(
            f"solution {int(vanishing.argmax())} has (numerically) vanishing "
            f"first coordinate; use raw normalization"
        )
    return list(map(list, C / first))


def residuals(sys: StructuredSystem, coords) -> tuple:
    """Scaled homogeneous backward errors, one per solution row.

    residual = max_i |sum_a c_{i,a} x^a| / (|c_i|_2 * |x|_2^{d_i}), using
    the coefficient form of each equation. Every solution is evaluated at
    once: the monomials x^a of an equation are the products over j of the
    powers x_j^{a_j}, from its exponent matrix.
    """
    forms = [sys.coefficient_form(i) for i in range(len(sys.equations))]
    if sys.par.field != QQ:
        raise UnsupportedFieldError("residuals need rational coefficients")
    if not len(coords):
        return ()
    X = np.asarray(coords, dtype=complex)
    xnorm = np.sqrt((np.abs(X) ** 2).sum(axis=1))
    worst = np.zeros(len(X))
    for eq, form in zip(sys.equations, forms):
        E = np.array(list(form), dtype=np.int64).reshape(len(form), X.shape[1])
        c = np.array(list(form.values()), dtype=float)
        val = np.abs((X[:, None, :] ** E).prod(axis=2) @ c)
        denom = np.sqrt(c @ c) * xnorm ** eq.degree
        worst = np.maximum(worst, np.divide(val, denom, out=val.copy(), where=denom != 0))
    return tuple(worst.tolist())


def _default_dreg(sys: StructuredSystem, uncertified=None):
    """The degree from the regularity bound of the Hilbert data.

    An uncertified Hilbert regularity is warned about and, when
    `uncertified` is a list, recorded in it as a reason.
    """
    par = sys.par
    n = par.n
    degrees = sys.degrees
    dmax = n + 2
    cap = sum(degrees) + n + 10
    # grow Dmax one degree at a time: HF(d) grows like d**n, so the first
    # certifying degree is far cheaper than any larger one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hd = hilbert_numerator(par, dmax)
        while not hd.certified and dmax < cap:
            dmax += 1
            hd = hilbert_numerator(par, dmax)
    if not hd.certified:
        reason = (
            f"using an uncertified Hilbert regularity (Hilbert data up to "
            f"degree {dmax}); the default dreg may be below the regularity set"
        )
        warnings.warn(reason, stacklevel=3)
        if uncertified is not None:
            uncertified.append(reason)
    return regularity_bound(hd.hreg, degrees, n=n) + 1


def _adaptive_dreg(sys: StructuredSystem):
    """(d, its reduced KM matrix) for the smallest d with equal KM nullity
    at d - 1 and d (heuristic)."""
    par = sys.par
    degrees = sys.degrees
    cap = sum(degrees) + 10
    d = max(degrees) + 1
    prev = None
    while d <= cap:
        M = km_matrix(sys, d, reduce=True)
        nullity = hilbert_function(par, d) - len(M.entries)
        if prev is not None and nullity == prev and nullity > 0:
            return d, M
        prev = nullity
        d += 1
    raise SolverError(
        f"nullity did not stabilize up to degree {cap}: the solution set "
        f"is positive-dimensional or the system is irregular"
    )


def multiplication_system(sys: StructuredSystem, dreg, seed: int, adaptive: bool):
    """The count pipeline on any field: degree, KM matrix, kernel, M_j.

    dreg is the given degree or, when None, the adaptive search's (whose
    KM matrix is reused) or, with s = n, the regularity bound's. It must
    exceed every equation degree, as the M_j are formed in degree
    dreg - 1. Returns (MultiplicationSystem, dreg, KM shape, uncertified
    reasons); the kernel's nullity is the system's delta.
    """
    par = sys.par
    s = len(sys.equations)
    if s == 0:
        raise SolverError("no equations given")
    uncertified, M = [], None
    if dreg is None:
        if adaptive:
            dreg, M = _adaptive_dreg(sys)
        elif s == par.n:
            dreg = _default_dreg(sys, uncertified)
        else:
            raise SolverError(
                f"got {s} equations on a {par.n}-dimensional variety; the "
                f"regularity bound needs s = n. Pass dreg explicitly or "
                f"enable the adaptive degree search"
            )
    if dreg < max(sys.degrees) + 1:
        raise SolverError(
            f"dreg = {dreg} leaves no room for the degree shift; need at "
            f"least {max(sys.degrees) + 1}"
        )
    if M is None:
        M = km_matrix(sys, dreg, reduce=True)
    # keep only the shape: the reduced matrix holds its rows and their echelon
    N, shape = kernel_basis(M), M.shape
    del M
    ms = multiplication_matrices(sys, N, dreg - 1, seed=seed)
    return ms, dreg, shape, uncertified


def solve(
    sys: StructuredSystem,
    dreg=None,
    seed: int = 0,
    adaptive: bool = False,
    normalize: str = "raw",
) -> SolutionSet:
    """`multiplication_system`, then the joint eigenvalues, over QQ only."""
    if isinstance(sys.par.field, PrimeField):
        raise UnsupportedFieldError(
            "eigenvalue extraction is unsupported over finite fields; "
            "use multiplication_system and brute_force_affine instead"
        )
    ms, dreg, shape, uncertified = multiplication_system(sys, dreg, seed, adaptive)
    sols = extract_solutions(ms, seed=seed)
    coords = normalize_solutions(sols.coords, normalize)
    res = residuals(sys, sols.coords)
    diagnostics = dict(sols.diagnostics)
    uncertified += sols.diagnostics["uncertified"]
    worst = float(np.max(res, initial=0.0))
    if not worst <= _RESIDUAL_TOL:
        uncertified.append(
            f"largest residual {worst:.3e} exceeds {_RESIDUAL_TOL:.1e}"
        )
        warnings.warn(uncertified[-1], stacklevel=2)
    diagnostics.update(
        {
            "certified": not uncertified,
            "uncertified": uncertified,
            "dreg": dreg,
            "delta": ms.delta,
            "nullity": ms.delta,
            "km_shape": shape,
            "seed": seed,
            "h_coeffs": ms.h_coeffs,
        }
    )
    return SolutionSet(
        coords=tuple(tuple(row) for row in coords),
        residuals=res,
        diagnostics=diagnostics,
    )


# the largest modulus `brute_force_affine` scans
BRUTE_FORCE_MAX_MODULUS = 10_000


def brute_force_affine(sys: StructuredSystem):
    """Exhaustive affine solution scan over a small prime field.

    Returns all t in F_p^n with every equation vanishing exactly. The scan
    takes p <= BRUTE_FORCE_MAX_MODULUS and n <= 3 only.
    """
    par = sys.par
    F = par.field
    if not isinstance(F, PrimeField):
        raise UnsupportedFieldError("brute force scan needs a finite field")
    p = F.modulus
    if p > BRUTE_FORCE_MAX_MODULUS:
        raise ValueError(f"modulus {p} too large for exhaustive scan")
    if par.n > 3:
        raise ValueError(f"dimension {par.n} too large for exhaustive scan")
    import itertools

    hits = []
    polys = [eq.f for eq in sys.equations]
    for point in itertools.product(range(p), repeat=par.n):
        if all(f.evaluate(point) == 0 for f in polys):
            hits.append(point)
    return hits
