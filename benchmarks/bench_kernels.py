"""Time the mod-p kernels at the shapes the solver produces.

Shapes follow the Gr(3,6) count 5x(3,5,6)+2x(2,5,6) over F_9716633 at
degree 3: a 2275 x 980 KM matrix of rank 969, and the 11 x 980 kernel
times the 980 x 3500 expansion of the multiplied degree-2 basis. The
panel block of the elimination is int64 at every prime (numpy's float64
remainder is several times slower than the int64 one), reduced mod p
once every (2**63 - 1) // (p-1)**2 rank-1 updates: 97691 at 9716633,
never within a panel. Each kernel is also timed at p = 2**31 - 1, where
the panel block is reduced every 2 updates and products split their
second factor into 16-bit halves to stay on float64 BLAS. Prints the
best of three runs and the rate in Gop/s, one Gop being 1e9
multiply-adds (m*n*rank for a row reduction, m*k*n for a product). The
batched subduction kernel (`_kernels.modp_subduct_batch`) is timed
inside the map rows below, at the shapes the multiplication maps give
it.

The exact echelon over QQ, `linalg.echelon`, is timed on the 360 x 175 KM
matrix of the Gr(3,6) problem (2,4,6)^3 at degree 2 (seeded random
flags), given as rows of Fractions, with the number of p-adic lifting
steps, the primes of its mod-p eliminations, the mod-p eliminations
per echelon (every `linalg._rref_mod` call inside `_echelon_qq`: one
slotted elimination per prime tried, so 1 when the lift from LIFT_PRIME
holds) and the full rational reconstructions (`linalg._from_digits`)
per lift. The next row times
`km_matrix(reduce=True)` of the 11-solution osculating Gr(3,6) problem
2 x (2,5,6) + 5 x (3,5,6) (flags at 1, -1, 2, -2, 3, -3, 4) over QQ at
degree 3, the maps cached: its F5 rows, their integer product and the
exact echelon of the kept rows, with the same counts (the F5 prefix
pivots are not counted as echelon eliminations) and its `tracemalloc`
peak.

The F5 rows time the row criterion of `km_matrix(reduce=True)` on the
Gr(3,6) count itself (seeded random flags, d = 3, F_9716633): the prefix
pivots of the 13 equations in degree 2 (`km._f5_rows`: the 240 x 175
prefix rows and the one elimination they are read off), and the blocked
elimination of the 1017 rows it keeps, of rank 969, to set beside the
2275 x 980 one above (`tests/test_kernels.py::test_km_rows_match_small`
checks its output against the unblocked `_kernels.modp_rref_small`). One
more row eliminates the 4074 x 4116 F5 rows of the 42-solution count
9 x (3,5,6) (flags seeded 1) at degree 4, the echelon that takes most of
that count. Both elimination rows print the nonzero count of their
input, which depends on the Schubert equations: over F_p they are the
RREF of the raw forms (`catalog.schubert_equations`), each with its own
leading generator.

The map rows time the product primitive at the same shape (Gr(3,6),
d = 2 -> 3, F_9716633), each group of them in a fresh child process, so
that the allocations of the rows before it do not move them: building
the sparse multiplication map X^(2), 3500 x 980
(`khov.multiplication_map`, the CSR bases cached), the KM rows of 13
random linear equations scattered from its rows (`km._map_rows`, 2275 x
980, after one untimed call), and N X^T for an 11 x 980 kernel
(`linalg.matmul_transposed`). Each map row prints its shape, and the
multiplication maps their nonzero count.
Two more rows build X^(3) (19600 products into degree 4) and X^(4) (82320
products into degree 5) of the same chart, the maps and bases of the
degrees below cached and the CSR basis of the target degree built within
the timing, each with its `tracemalloc` peak.

One row guards the expansion over QQ, where the batched subduction runs
on object arrays of exact numbers, ints where a value is integral and
Fractions where it is not (the Gr(2,5) chart, with integer coefficients
and unit leading coefficients, forms only ints): building X^(3) of the
osculating Gr(2,5) chart (`khov.multiplication_map(par, 3)`, 1750
products into degree 4, the CSR bases cached), with its `tracemalloc`
peak.

The support rows time `khov.graded_support` for every degree up to the
one shown, on a fresh copy of the chart each run: the Gr(2,5) chart of
the osculating problem up to degree 10, as the default degree search
reads it, and the Gr(3,6) chart up to degree 5, with the number of
points summed over the degrees. The time is the key pass alone, all the
Hilbert function reads; the witnesses (`first`) and point arrays of
every degree, read from the keys on first use, are timed after it. The
default dreg row times that search itself, `solver._default_dreg` on the osculating Gr(2,5) problem 6 x
(3,5) (flags at 1, -1, 2, -2, 3, -3) over QQ, each run on a system built
on a fresh chart outside the timing, with the highest degree of Hilbert
data it reached (Dmax) and the dreg it returns.

The Schubert rows time `catalog.schubert_equations` on the Gr(3,6)
problem shapes of the pipeline benchmark (seeded random flags):
(2,4,6)^3 and (3,5,6) + 4 x (2,5,6) over QQ, and 5 x (3,5,6) +
2 x (2,5,6) over F_9716633. The chart is built once outside the timing,
so a row is the check of the given chart, the minors as linear forms in
the Pluecker coordinates and the choice of independent ones; each prints
the raw and kept equation counts.

The last rows time the multiplication-matrix step of the solver: the
block echelon of the integer blocks [N_h|B | N_{x_0}|B | ... |
N_{x_ell}|B], whose RREF is [I | M_0 | ... | M_ell] (over QQ as
numerators over one denominator), and the exact checks
`linalg.commuting_check` on them (sum c_j M_j = I, all pairs commute).
Over QQ on the Bott-Samelson threefold at degree 3 (delta = 6, 8
blocks); over F_9716633 at the shape of the Gr(3,6) count (delta = 11,
20 blocks), on random commuting matrices P D_j P^-1.

Run as:  python3 benchmarks/bench_kernels.py
"""

import multiprocessing
import random
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from khovsolve import _kernels, catalog, khov, km, linalg, solver
from khovsolve.fields import GF, QQ

PRIMES = (9716633, 2**31 - 1)


def _best(fn, repeat=3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _fresh(fn):
    """fn() in a new interpreter, so that its timings do not move with what
    this process allocated before."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        return pool.submit(fn).result()


def _low_rank(rng, m, n, rank, p):
    U = rng.integers(0, p, size=(m, rank)).astype(np.int64)
    V = rng.integers(0, p, size=(rank, n)).astype(np.int64)
    return _kernels.modp_matmul(U, V, p)


def bench_rref(rng, m, n, rank, p):
    A = _low_rank(rng, m, n, rank, p)
    t, piv = _best(lambda: _kernels.modp_rref(A.copy(), p))
    return t, m * n * len(piv) / 1e9


def bench_matmul(rng, m, k, n, p):
    A = rng.integers(0, p, size=(m, k)).astype(np.int64)
    B = rng.integers(0, p, size=(k, n)).astype(np.int64)
    t, _ = _best(lambda: _kernels.modp_matmul(A, B, p))
    return t, m * k * n / 1e9


def _lifting(fn):
    """The counts of the QQ echelons in fn(): (result, lifting steps of
    the last lift, primes of the mod-p eliminations, mod-p eliminations
    per echelon, reconstructions per lift)."""
    primes, steps, counts = [], [], {"echelons": 0, "lifts": 0}
    real = {name: getattr(linalg, name) for name in
            ("_from_digits", "_echelon_qq", "_rref_mod", "_lift")}
    inside = []

    def count_digits(ds, p):
        steps.append(len(ds))
        return real["_from_digits"](ds, p)

    def count_echelon(A):
        counts["echelons"] += 1
        inside.append(True)
        try:
            return real["_echelon_qq"](A)
        finally:
            inside.pop()

    def count_rref(M, p, *slots):
        if inside:
            primes.append(p)
        return real["_rref_mod"](M, p, *slots)

    def count_lift(*args):
        counts["lifts"] += 1
        return real["_lift"](*args)

    spies = {"_from_digits": count_digits, "_echelon_qq": count_echelon,
             "_rref_mod": count_rref, "_lift": count_lift}
    for name, spy in spies.items():
        setattr(linalg, name, spy)
    try:
        out = fn()
    finally:
        for name, f in real.items():
            setattr(linalg, name, f)
    return (out, steps[-1], primes, len(primes) / counts["echelons"],
            len(steps) / counts["lifts"])


def bench_echelon_qq():
    """(seconds, shape, counts of `_lifting`, None) of one QQ KM echelon."""
    flags = catalog.random_flags(6, 3, seed=0, field=QQ)
    conds = [catalog.SchubertCondition((2, 4, 6), f) for f in flags]
    inst = catalog.schubert_equations(3, 6, conds)
    rows = [list(r) for r in km.km_matrix(inst.sys, 2).entries]
    _, *counts = _lifting(lambda: linalg.echelon(rows, QQ))
    t, _ = _best(lambda: linalg.echelon(rows, QQ))
    return t, f"{len(rows)}x{len(rows[0])}", counts, None


def bench_km_osculating():
    """(seconds, shape, counts of `_lifting`, tracemalloc peak bytes) of the
    reduced QQ KM matrix of the 11-solution osculating Gr(3,6) problem at
    degree 3."""
    alphas = [(2, 5, 6)] * 2 + [(3, 5, 6)] * 5
    conds = [
        catalog.SchubertCondition(a, catalog.osculating_flag(s, 6))
        for a, s in zip(alphas, (1, -1, 2, -2, 3, -3, 4))
    ]
    sys = catalog.schubert_equations(3, 6, conds).sys
    M, *counts = _lifting(lambda: km.km_matrix(sys, 3, reduce=True))
    t, _ = _best(lambda: km.km_matrix(sys, 3, reduce=True))
    tracemalloc.start()
    km.km_matrix(sys, 3, reduce=True)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return t, "{}x{}".format(*M.shape), counts, peak


def bench_maps(p=9716633, delta=11, equations=13):
    """Seconds of the map build, the KM-row scatter and N X^T, with shapes."""
    F = GF(p)
    par = catalog.pluecker_chart(3, 6, F, validate_degree=0)

    def build():
        par._maps.clear()
        return khov.multiplication_map(par, 2)

    t_map, X = _best(build)
    sys = catalog.random_dense_system(par, (1,) * equations, seed=0)
    # one untimed call first: the best of 3 times the combination, not the
    # first touch of the pages of a fresh 17.8 MB output
    km._map_rows(sys, 3, km._km_blocks(sys, 3), 3)
    t_rows, (rows, _) = _best(lambda: km._map_rows(sys, 3, km._km_blocks(sys, 3), 3))
    N = np.random.default_rng(0).integers(0, p, size=(delta, X.matrix.shape[1]))
    t_nx, _ = _best(lambda: linalg.matmul_transposed(N, X.matrix, F))
    nnz = len(X.matrix.rows)
    return [
        ("multiplication_map", "{}x{} nnz {}".format(*X.matrix.shape, nnz), t_map),
        ("KM rows from map", "{}x{}".format(*rows.shape), t_rows),
        ("N X^T", f"{delta}x{X.matrix.shape[1]} . X^T", t_nx),
    ]


def bench_maps_high(p=9716633):
    """(degree, seconds, peak bytes, shape, nnz) of X^(3) and X^(4) on Gr(3,6)."""
    F = GF(p)
    par = catalog.pluecker_chart(3, 6, F, validate_degree=0)
    out = []
    for d in (3, 4):
        khov.multiplication_map(par, d)

        def build():
            par._maps.pop(d)
            par._batch.pop(d + 1)
            return khov.multiplication_map(par, d)

        t, X = _best(build)
        par._maps.pop(d)
        par._batch.pop(d + 1)
        tracemalloc.start()
        khov.multiplication_map(par, d)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out.append((d, t, peak, "{}x{}".format(*X.matrix.shape), len(X.matrix.rows)))
    return out


def bench_map_qq():
    """(seconds, peak bytes, shape) of X^(3) on the Gr(2,5) chart over QQ."""
    par = catalog.pluecker_chart(2, 5, QQ, validate_degree=0)
    khov.multiplication_map(par, 3)

    def build():
        par._maps.pop(3)
        return khov.multiplication_map(par, 3)

    t, X = _best(build)
    par._maps.pop(3)
    tracemalloc.start()
    khov.multiplication_map(par, 3)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return t, peak, "{}x{}".format(*X.matrix.shape)


def _schubert_count(n1, n2, F):
    """The Gr(3,6) count n1 x (3,5,6) + n2 x (2,5,6), flags seeded 1 and 2."""
    conds = [
        catalog.SchubertCondition((3, 5, 6), f)
        for f in catalog.random_flags(6, n1, seed=1, field=F)
    ] + [
        catalog.SchubertCondition((2, 5, 6), f)
        for f in catalog.random_flags(6, n2, seed=2, field=F)
    ]
    return catalog.schubert_equations(3, 6, conds, field=F).sys


def _f5_matrix(sys, d):
    """(equation blocks, the KM rows that F5 keeps) in degree d."""
    blocks = km._km_blocks(sys, d)
    S, X = km._map_combination(sys, d, blocks, d)
    keep = km._f5_rows(sys, d, blocks)
    return blocks, linalg.combine_rows(linalg.sparse_rows(S, keep), X, sys.par.field)


def _bench_rref_f5(A, p):
    t, piv = _best(lambda: _kernels.modp_rref(A.copy(), p))
    m, n = A.shape
    return ("modp_rref F5 rows", f"{m}x{n} rank {len(piv)}", t, m * n * len(piv) / 1e9,
            f"   nnz {np.count_nonzero(A)}")


def bench_f5(p=9716633):
    """Seconds of the F5 prefix pivots and of the echelon of the kept rows,
    on the 11-solution count at d = 3 and the 42-solution count at d = 4."""
    F = GF(p)
    sys = _schubert_count(5, 2, F)
    blocks, (A, _) = _f5_matrix(sys, 3)
    t_f5, keep = _best(lambda: km._f5_rows(sys, 3, blocks))
    _, (A42, _) = _f5_matrix(_schubert_count(9, 0, F), 4)
    return [
        ("F5 prefix pivots", f"{len(blocks)} eqs, keeps {len(keep)}", t_f5, None, ""),
        _bench_rref_f5(A, p),
        _bench_rref_f5(A42, p),
    ]


def bench_support(repeat=3):
    """(chart, points, key seconds, view seconds) of d.A for d up to dmax on
    two charts, best of `repeat` runs on fresh copies of the chart: the key
    pass of every degree, then `first` and `array` of every degree."""
    out = []
    for k, m, dmax in ((2, 5, 10), (3, 6, 5)):
        par = catalog.pluecker_chart(k, m, validate_degree=0)
        t_keys = t_views = float("inf")
        for _ in range(repeat):
            fresh = khov.Parameterization(par.field, par.varnames, par.phi, par.ord, par.A)
            t0 = time.perf_counter()
            sups = [khov.graded_support(fresh, d) for d in range(dmax + 1)]
            t1 = time.perf_counter()
            for sup in sups:
                sup.first, sup.array
            t2 = time.perf_counter()
            t_keys, t_views = min(t_keys, t1 - t0), min(t_views, t2 - t1)
        points = sum(map(len, sups))
        out.append((f"Gr({k},{m}) d <= {dmax}", f"{points} points", t_keys, t_views))
    return out


def bench_default_dreg(repeat=3):
    """(best seconds, Dmax, dreg) of `solver._default_dreg` on the osculating
    Gr(2,5) problem, each run on a system built on a fresh chart."""
    flags = [catalog.osculating_flag(s, 5) for s in (1, -1, 2, -2, 3, -3)]
    conds = [catalog.SchubertCondition((3, 5), f) for f in flags]
    best = float("inf")
    for _ in range(repeat):
        sys = catalog.schubert_equations(2, 5, conds).sys
        t0 = time.perf_counter()
        dreg = solver._default_dreg(sys)
        best = min(best, time.perf_counter() - t0)
    # the Hilbert data up to Dmax builds the supports of every degree up to it
    return best, max(sys.par._supports), dreg


def bench_schubert(p=9716633):
    """Seconds of `schubert_equations` and its (raw, kept) equation counts."""
    F = GF(p)

    def conds(alpha, count, seed, field):
        flags = catalog.random_flags(6, count, seed=seed, field=field)
        return [catalog.SchubertCondition(alpha, f) for f in flags]

    problems = (
        ("3x(2,4,6)", QQ, conds((2, 4, 6), 3, 0, QQ)),
        ("(3,5,6)+4x(2,5,6)", QQ, conds((3, 5, 6), 1, 1, QQ) + conds((2, 5, 6), 4, 2, QQ)),
        ("5x(3,5,6)+2x(2,5,6)", F, conds((3, 5, 6), 5, 1, F) + conds((2, 5, 6), 2, 2, F)),
    )
    out = []
    for label, field, cs in problems:
        par = catalog.pluecker_chart(3, 6, field, validate_degree=0)
        t, inst = _best(lambda: catalog.schubert_equations(3, 6, cs, field=field, par=par))
        out.append((label, field, t, inst.extras["n_raw_equations"], inst.extras["n_equations"]))
    return out


def _mult_step(coeffs, blocks, field):
    """The solver's step: the integer T_j = den M_j from one echelon of the
    stacked blocks, then the exact checks; returns (T, den, checks)."""
    delta = blocks.shape[1]
    E = linalg.echelon(np.hstack(list(blocks)), field)
    T = E.rows[:, delta:].reshape(delta, len(blocks) - 1, delta).transpose(1, 0, 2)
    return T, E.den, linalg.commuting_check(coeffs, T, E.den, field)


def bench_mult_qq():
    """(echelon + checks, checks) seconds on the Bott-Samelson blocks."""
    sys = catalog.bott_samelson().sys
    N = solver.kernel_basis(km.km_matrix(sys, 3))
    Nx = solver._multiplied_kernels(sys, N, 2)
    delta = N.nullity
    rng = random.Random(0)
    c = [rng.randint(1, 2 * delta * delta + 1) for _ in Nx]
    Nh = linalg.combine(c, Nx, QQ)
    B = linalg.first_independent_columns(Nh, QQ, count=delta)
    blocks = np.concatenate(([Nh], Nx))[:, :, B]
    t, (T, den, ok) = _best(lambda: _mult_step(c, blocks, QQ))
    assert ok == (True, None)
    tc, _ = _best(lambda: linalg.commuting_check(c, T, den, QQ))
    return t, tc, f"{delta}x{delta * len(blocks)}"


def bench_mult_fp(delta=11, nmats=20, p=9716633):
    """The same on random commuting P D_j P^-1 over F_p, with S M_j blocks."""
    F = GF(p)
    rng = random.Random(0)

    def rand(m, n):
        return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]

    def diag(d):
        return [[d[i] if i == j else 0 for j in range(delta)] for i in range(delta)]

    c = [rng.randrange(1, p) for _ in range(nmats)]
    D = [[rng.randrange(p) for _ in range(delta)] for _ in range(nmats - 1)]
    # D_0 makes sum c_j D_j = I, so sum c_j M_j = I
    inv0 = pow(c[0], p - 2, p)
    D.insert(0, [(1 - sum(cj * d[i] for cj, d in zip(c[1:], D))) * inv0 % p
                 for i in range(delta)])
    P, S = rand(delta, delta), rand(delta, delta)
    Pinv = linalg.invert(P, F)
    mats = [linalg.matmul(linalg.matmul(P, diag(d), F), Pinv, F) for d in D]
    blocks = np.array([S] + [linalg.matmul(S, M, F) for M in mats], dtype=np.int64)
    t, (T, _, ok) = _best(lambda: _mult_step(c, blocks, F))
    assert ok == (True, None) and T.tolist() == mats
    tc, _ = _best(lambda: linalg.commuting_check(c, T, 1, F))
    return t, tc, f"{delta}x{delta * len(blocks)}"


def main():
    rng = np.random.default_rng(0)
    print(f"{'kernel':<22}{'shape':<22}{'p':>12}{'time':>11}{'Gop/s':>9}")
    cases = [
        ("modp_rref", "2275x980 rank 969", bench_rref, (2275, 980, 969)),
        ("modp_rref", "700x350 rank 345", bench_rref, (700, 350, 345)),
        ("modp_matmul", "11x980 @ 980x3500", bench_matmul, (11, 980, 3500)),
        ("modp_matmul", "2275x64 @ 64x980", bench_matmul, (2275, 64, 980)),
    ]
    for name, shape, fn, args in cases:
        for p in PRIMES:
            t, gop = fn(rng, *args, p)
            print(f"{name:<22}{shape:<22}{p:>12}{t * 1e3:9.1f}ms{gop / t:9.3f}")
    for name, shape, t, gop, nnz in bench_f5():
        rate = f"{gop / t:9.3f}" if gop else ""
        print(f"{name:<22}{shape:<22}{9716633:>12}{t * 1e3:9.1f}ms{rate}{nnz}")
    for name, shape, t in _fresh(bench_maps):
        print(f"{name:<22}{shape:<22}{9716633:>12}{t * 1e3:9.1f}ms")
    for d, t, peak, shape, nnz in _fresh(bench_maps_high):
        print(f"{'multiplication_map':<22}{shape + f' X^({d})':<22}{9716633:>12}"
              f"{t * 1e3:9.1f}ms   nnz {nnz}, tracemalloc peak {peak / 2**20:.1f} MB")
    t, peak, shape = _fresh(bench_map_qq)
    print(f"{'multiplication_map':<22}{shape + ' X^(3)':<22}{'QQ':>12}{t * 1e3:9.1f}ms"
          f"   tracemalloc peak {peak / 2**20:.1f} MB")
    for shape, points, t, tv in bench_support():
        print(f"{'graded_support':<22}{shape:<22}{'QQ':>12}{t * 1e3:9.1f}ms"
              f"   first and array {tv * 1e3:.1f} ms, {points}")
    t, dmax, dreg = bench_default_dreg()
    print(f"{'default dreg':<22}{'Gr(2,5) 6x(3,5)':<22}{'QQ':>12}{t * 1e3:9.1f}ms"
          f"   Dmax {dmax}, dreg {dreg}")
    for name, fn in (("echelon QQ", bench_echelon_qq),
                     ("km_matrix QQ reduced", bench_km_osculating)):
        t, shape, (steps, primes, eliminations, rebuilds), peak = fn()
        memory = f", tracemalloc peak {peak / 2**20:.1f} MB" if peak else ""
        print(f"{name:<22}{shape:<22}{primes[0]:>12}{t * 1e3:9.1f}ms"
              f"   {steps} lifting steps, primes {primes}, {eliminations:g} mod-p"
              f" eliminations per echelon, {rebuilds:g} reconstructions per lift{memory}")
    for label, field, t, raw, kept in bench_schubert():
        p = field.modulus or "QQ"
        print(f"{'schubert_equations':<22}{label:<22}{p:>12}{t * 1e3:9.1f}ms"
              f"   {raw} raw, {kept} kept")
    for name, fn, p in (("mult step QQ", bench_mult_qq, 0),
                        ("mult step F_p", bench_mult_fp, 9716633)):
        t, tc, shape = fn()
        print(f"{name:<22}{shape:<22}{p or 'QQ':>12}{t * 1e3:9.1f}ms"
              f"   checks {tc * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
