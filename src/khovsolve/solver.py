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
    B_cols: tuple  # selected degree-d basis labels
    mats: tuple  # ell+1 delta x delta `linalg.Rows` over one denominator
    seed: int
    degree: int  # the lower degree d (kernel taken at d+1)


_LEFT_ALGEBRA = (
    "generator product left the graded algebra at degree {}; the "
    "Khovanskii property fails"
)
_DRAWS = 5  # random h, or random combinations to diagonalize, tried before giving up
_OFFDIAGONAL_TOL = 1e-6  # the largest residue of a certified joint diagonalization


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
    delta independent columns of N_h, and M_j = (N_h)|B^-1 (N_{x_j})|B,
    all read off one echelon. Over QQ every matrix from N_{x_j} to the
    RREF is an integer array (the numerators over a common denominator,
    which changes no M_j), and the M_j are `linalg.Rows` of that RREF.
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
    sup_d = graded_support(par, d)
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
        rank = len(B)
        if rank == delta:
            # the RREF of [N_h|B | N_{x_0}|B | ... | N_{x_ell}|B] is
            # [I | M_0 | ... | M_ell]
            E = linalg.echelon(np.hstack([Nh[:, B], *Nx[:, :, B]]), field)
            rank = sum(pc < delta for pc in E.pivots)
        if rank < delta:
            last_err = SolverError(
                f"N_h has rank {rank} < {delta} for {_DRAWS} random h: the "
                f"degree dreg = {d + 1} is likely below the regularity set, so "
                f"the kernel overcounts the solutions; try a larger --dreg"
            )
            continue
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
            B_cols=tuple(sup_d.points[g] for g in B),
            mats=tuple(linalg.Rows(Tj, E.den, field) for Tj in T),
            seed=seed,
            degree=d,
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
    diagonal entry of V^-1 M_j V.
    """
    if ms.mats[0].field != QQ:
        raise UnsupportedFieldError(
            "eigenvalue extraction needs rational coefficients; over a "
            "finite field use the multiplication matrices directly or the "
            "brute-force oracle"
        )
    mats = [np.array(m, dtype=float) for m in ms.mats]
    delta = ms.delta
    scale = max(1.0, max(np.abs(m).max() for m in mats))
    rng = random.Random(seed)
    clustered = True
    for _ in range(_DRAWS):
        r = [rng.random() for _ in mats]
        T = sum(rj * m for rj, m in zip(r, mats))
        w, V = np.linalg.eig(T)
        gap = min(
            (abs(w[i] - w[k]) for i in range(delta) for k in range(i + 1, delta)),
            default=np.inf,
        )
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
    coords = np.empty((delta, len(mats)), dtype=complex)
    offdiag = 0.0
    for j, m in enumerate(mats):
        D = np.linalg.solve(V, m @ V)
        coords[:, j] = np.diag(D)
        if delta > 1:
            off = D - np.diag(np.diag(D))
            offdiag = max(offdiag, float(np.abs(off).max()))
    comm = 0.0
    for j in range(len(mats)):
        for k in range(j + 1, len(mats)):
            comm = max(
                comm, float(np.abs(mats[j] @ mats[k] - mats[k] @ mats[j]).max())
            )
    real_flags = tuple(
        bool(np.all(np.abs(row.imag) <= 1e-8 * (1.0 + np.abs(row).max())))
        for row in coords
    )
    diagnostics = {
        "offdiagonal": offdiag,
        "offdiagonal_relative": offdiag / scale,
        "commutator_float": comm,
        "real": real_flags,
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
        coords=tuple(tuple(row) for row in coords),
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
    out = []
    for i, row in enumerate(coords):
        scale_row = max(abs(x) for x in row)
        if abs(row[0]) <= 1e-12 * max(1.0, scale_row):
            raise SolverError(
                f"solution {i} has (numerically) vanishing first coordinate; "
                f"use raw normalization"
            )
        out.append([x / row[0] for x in row])
    return out


def residuals(sys: StructuredSystem, coords) -> tuple:
    """Scaled homogeneous backward errors, one per solution row.

    residual = max_i |sum_a c_{i,a} x^a| / (|c_i|_2 * |x|_2^{d_i}), using
    the coefficient form of each equation.
    """
    forms = [sys.coefficient_form(i) for i in range(len(sys.equations))]
    F = sys.par.field
    if F != QQ:
        raise UnsupportedFieldError("residuals need rational coefficients")
    out = []
    for row in coords:
        x = [complex(v) for v in row]
        xnorm = np.sqrt(sum(abs(v) ** 2 for v in x))
        worst = 0.0
        for i, form in enumerate(forms):
            val = 0j
            cnorm2 = 0.0
            for alpha, c in form.items():
                cf = float(c)
                cnorm2 += cf * cf
                term = cf
                for j, a in enumerate(alpha):
                    if a:
                        term = term * x[j] ** a
                val += term
            denom = np.sqrt(cnorm2) * xnorm ** sys.equations[i].degree
            worst = max(worst, abs(val) / denom if denom else abs(val))
        out.append(float(worst))
    return tuple(out)


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
