"""Exact-output gate, run outside the timed region.

Each instance's KM matrix, kernel and multiplication matrices are checked
over their own field, independently of the checks the solver makes inside:

* the kernel annihilates the *unreduced* KM matrix: KM . N^T = 0;
* the multiplication matrices commute pairwise;
* their weighted sum is the identity: sum_j c_j M_j = I;
* the count is the expected one, and over QQ every residual is at most
  RESIDUAL_MAX (and every solution is real where the workload says so).

A SHA-256 digest of the exact outputs lets two commits be compared for
bit-identical results; it is reported, never gated on.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import lcm

import numpy as np

from khovsolve import km
from khovsolve.fields import QQ

RESIDUAL_MAX = 1e-8
REAL_TOL = 1e-6


def _modmul(A, B, p):
    """A @ B mod p for int64 arrays with entries in [0, p)."""
    chunk = max(1, (2**63 - 1) // max(1, (p - 1) ** 2))
    C = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for lo in range(0, A.shape[1], chunk):
        C = (C + A[:, lo:lo + chunk] @ B[lo:lo + chunk]) % p
    return C


def _integer_rows(rows):
    """Scale each row of rationals by the lcm of its denominators."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * den) for x in row])
    return np.array(out, dtype=object)


def annihilates(rows, kernel_rows, field):
    """True when rows . kernel_rows^T is exactly zero over the field."""
    if not rows or not kernel_rows:
        return True
    if field == QQ:
        return not np.any(_integer_rows(rows) @ _integer_rows(kernel_rows).T)
    p = field.modulus
    A = np.array(rows, dtype=np.int64) % p
    B = np.array(kernel_rows, dtype=np.int64).T % p
    return not np.any(_modmul(A, B, p))


def _matrices(ms, field):
    if field == QQ:
        return [np.array(m, dtype=object) for m in ms.mats], None
    p = field.modulus
    return [np.array(m, dtype=np.int64) % p for m in ms.mats], p


def commuting_identity(ms, field):
    """Problems with sum c_j M_j = I and pairwise commutation, if any."""
    mats, p = _matrices(ms, field)
    mul = (lambda X, Y: X @ Y) if p is None else (lambda X, Y: _modmul(X, Y, p))
    problems = []
    acc = sum(c * m for c, m in zip(ms.h_coeffs, mats))
    if p is not None:
        acc = acc % p
    if not np.array_equal(acc, np.eye(ms.delta, dtype=acc.dtype)):
        problems.append("sum c_j M_j is not the identity")
    for j in range(len(mats)):
        for k in range(j + 1, len(mats)):
            if not np.array_equal(mul(mats[j], mats[k]), mul(mats[k], mats[j])):
                problems.append(f"M_{j} and M_{k} do not commute")
                return problems
    return problems


def digest(M, N, ms) -> str:
    """SHA-256 of the exact KM matrix, kernel and multiplication matrices."""
    h = hashlib.sha256()

    def feed(tag, rows):
        h.update(tag.encode())
        for row in rows:
            h.update((",".join(map(str, row)) + ";").encode())

    feed("field", [[M.field]])
    feed("km_rows", M.row_labels)
    feed("km", M.entries)
    feed("kernel", N.N)
    feed("h", [ms.h_coeffs])
    for j, m in enumerate(ms.mats):
        feed(f"M{j}", m)
    return h.hexdigest()


def check(inst, answer, captured, all_real=False):
    """Run every exact check on one solved instance.

    `captured` holds (args, result) of the instance's km_matrix,
    kernel_basis and multiplication_matrices calls. Returns the list of
    problems found (empty when correct) and the output digest.
    """
    missing = [k for k in ("km", "kernel", "mult") if k not in captured]
    if missing:
        return [f"solve made no {', '.join(missing)} call"], None
    (system, d, *_), M = captured["km"]
    N = captured["kernel"][1]
    ms = captured["mult"][1]
    field = system.par.field
    problems = []
    full = km.km_matrix(system, d, reduce=False)
    if not annihilates(full.entries, N.N, field):
        problems.append("KM . N != 0 on the unreduced KM matrix")
    problems += commuting_identity(ms, field)
    counts = {"nullity": N.nullity, "delta": ms.delta, "answer": answer.count}
    for what, got in counts.items():
        if got != inst.expected:
            problems.append(f"{what} {got} != expected {inst.expected}")
    if field == QQ:
        if len(answer.coords) != inst.expected:
            problems.append(f"{len(answer.coords)} solutions returned")
        worst = max(answer.residuals, default=float("inf"))
        if not worst <= RESIDUAL_MAX:
            problems.append(f"residual {worst:.3e} > {RESIDUAL_MAX:.0e}")
        if all_real:
            for row in answer.coords:
                scale = max(abs(z) for z in row)
                if max(abs(z.imag) for z in row) > REAL_TOL * scale:
                    problems.append(f"non-real solution {row}")
    return problems, digest(M, N, ms)
