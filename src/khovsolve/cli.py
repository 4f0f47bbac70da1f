"""Command-line interface.

Subcommands mirror the pipeline stages: check (truncated Khovanskii
verification), basis, hilbert, km, solve, schubert, catalog. Exit codes:
0 success, 1 input/parse errors (usage errors and out-of-range options
included), 2 mathematical failures (non-Khovanskii generators,
non-stabilizing nullity, no degree for a non-square problem), 3
unsupported field operations. A command reports a failure by raising;
`main` alone maps each exception to its exit code.

`solve` and `schubert` over QQ run `solver.solve`; `schubert` over F_p
runs the same `solver.multiplication_system` without the eigenvalue step
and prints the solution count, with the same degree choice (`--dreg`,
the regularity bound when s = n, or `--adaptive`, which excludes
`--dreg`). Without them `schubert` takes the degree of the Gr(k,m)
table when the problem has one.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys as _sys
import warnings
from functools import cache

from . import catalog as cat
from . import solver
from .fields import QQ
from .hilbert import hilbert_numerator
from .khov import check_khovanskii_truncated, graded_basis, witness_monomial
from .km import NotInAlgebraError, km_matrix, km_shape
from .sysfile import (
    SystemFileError,
    dump_system,
    load_system,
    parse_field,
    system_to_dict,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MATH = 2
EXIT_FIELD = 3


def _read_input(path):
    if path == "-":
        return _sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path, text):
    if path in (None, "-"):
        _sys.stdout.write(text)
        if not text.endswith("\n"):
            _sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _label(gamma):
    return " ".join(str(x) for x in gamma)


def cmd_check(args):
    par, _ = load_system(_read_input(args.file))
    report = check_khovanskii_truncated(par, args.dmax)
    for c in report.degrees:
        status = "pass" if c.passed else "FAIL"
        line = f"degree {c.degree}: rank {c.rank} expected {c.expected} {status}"
        if not c.passed:
            line += f" (new leading exponents: {list(c.new_leading_exponents)})"
        print(line)
    if report.passed:
        print(f"Khovanskii basis verified through degree {args.dmax}")
        return EXIT_OK
    return EXIT_MATH


def cmd_basis(args):
    par, _ = load_system(_read_input(args.file))
    bas = graded_basis(par, args.degree)
    for beta, b in bas.elements:
        alpha = witness_monomial(par, args.degree, beta)
        print(f"{_label(beta)} | x^{list(alpha)} | {b.to_string()}")
    return EXIT_OK


def cmd_hilbert(args):
    par, _ = load_system(_read_input(args.file))
    if args.dmax < par.n + 2:
        raise cat.InputError(
            f"--dmax must be at least n + 2 = {par.n + 2} for this system, "
            f"got {args.dmax}"
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hd = hilbert_numerator(par, args.dmax)
    print("HF:", " ".join(str(v) for v in hd.hf))
    print("numerator:", " ".join(str(c) for c in hd.numerator))
    print("hreg:", hd.hreg)
    print("degree:", hd.degree)
    print("certified:", "yes" if hd.certified else "no")
    for w in caught:
        print(f"warning: {w.message}", file=_sys.stderr)
    return EXIT_OK


def cmd_km(args):
    par, system = load_system(_read_input(args.file))
    if system is None:
        raise SystemFileError("system file has no equations")
    M = km_matrix(system, args.degree, reduce=args.reduce)
    rows, cols = km_shape(system, args.degree)
    print(f"shape: {M.shape[0]} x {M.shape[1]}"
          + (f" (unreduced {rows} x {cols})" if args.reduce else ""))
    if args.out:
        field = par.field
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["i", "gamma"] + [_label(b) for b in M.col_labels])
            for (i, gamma), row in zip(M.row_labels, M.entries):
                writer.writerow(
                    [i, _label(gamma)] + [field.fmt(x) for x in row]
                )
        print(f"wrote {args.out}")
    return EXIT_OK


def _solution_json(sols):
    diag = dict(sols.diagnostics)
    h = diag.pop("h_coeffs", ())
    out = {
        "certified": diag.get("certified"),
        "uncertified": list(diag.get("uncertified", ())),
        "delta": diag.get("delta", len(sols.coords)),
        "dreg": diag.get("dreg"),
        "h": [str(c) for c in h],
        "solutions": [
            {
                "coords": [[z.real, z.imag] for z in map(complex, row)],
                "residual": r,
            }
            for row, r in zip(sols.coords, sols.residuals)
        ],
        "diagnostics": {
            "commutator_norm": diag.get("commutator_float"),
            "offdiag": diag.get("offdiagonal"),
            "nullity": diag.get("nullity"),
            "km_shape": list(diag.get("km_shape", ())),
            "real": list(diag.get("real", ())),
            "seed": diag.get("seed"),
        },
    }
    return json.dumps(out, indent=2, sort_keys=True)


def cmd_solve(args):
    par, system = load_system(_read_input(args.file))
    if system is None:
        raise solver.SolverError("positive-dimensional (no equations)")
    sols = solver.solve(
        system,
        dreg=args.dreg,
        seed=args.seed,
        adaptive=args.adaptive,
        normalize=args.normalize,
    )
    _write_output(args.out, _solution_json(sols))
    return EXIT_OK


def _int_list(text, option):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as err:
        raise cat.InputError(f"bad {option} {text!r}: {err}") from err


def cmd_schubert(args):
    field = parse_field(args.field)
    alphas = [
        tuple(_int_list(chunk, "--conditions"))
        for chunk in args.conditions.split(";")
        if chunk
    ]
    if args.osculating:
        svals = _int_list(args.osculating, "--osculating")
        if len(svals) != len(alphas):
            raise cat.InputError("need one osculating parameter per condition")
        flags = [cat.osculating_flag(s, args.m, field) for s in svals]
    else:
        flags = cat.random_flags(args.m, len(alphas), seed=args.seed, field=field)
    conditions = [
        cat.SchubertCondition(alpha=a, flag=f) for a, f in zip(alphas, flags)
    ]
    inst = cat.schubert_equations(args.k, args.m, conditions, field=field)
    dreg = None if args.adaptive else args.dreg or inst.recommended_dreg
    print(
        f"equations: {inst.extras['n_equations']} "
        f"(raw {inst.extras['n_raw_equations']})"
    )
    if field == QQ:
        sols = solver.solve(
            inst.sys, dreg=dreg, seed=args.seed, adaptive=args.adaptive,
            normalize=args.normalize,
        )
        _write_output(args.out, _solution_json(sols))
    else:
        ms, dreg, _, _ = solver.multiplication_system(
            inst.sys, dreg, args.seed, args.adaptive
        )
        _write_output(
            args.out,
            json.dumps(
                {"delta": ms.delta, "dreg": dreg, "field": args.field},
                indent=2,
                sort_keys=True,
            ),
        )
    return EXIT_OK


def cmd_catalog(args):
    field = parse_field(args.field)
    inst = cat.get_instance(args.name, field=field, seed=args.seed)
    _write_output(args.out, dump_system(inst.sys.par, inst.sys))
    return EXIT_OK


def _int_at_least(low):
    """An argparse type: an integer no smaller than `low`."""

    def check(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    check.__name__ = "int"  # argparse names the type in its messages
    return check


@cache
def build_parser():
    """The parser of every subcommand, built once per process: each
    `parse_args` returns a new namespace, so calls share no options."""
    p = argparse.ArgumentParser(
        prog="khovsolve",
        description="Solve polynomial systems on unirational varieties "
        "via Khovanskii-Macaulay matrices",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="truncated Khovanskii-basis verification")
    sp.add_argument("file", help="system JSON file, or - for stdin")
    sp.add_argument("--dmax", type=_int_at_least(1), default=3)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("basis", help="graded basis of one degree")
    sp.add_argument("file")
    sp.add_argument("-d", "--degree", type=_int_at_least(0), required=True)
    sp.set_defaults(fn=cmd_basis)

    sp = sub.add_parser("hilbert", help="Hilbert function, numerator, regularity")
    sp.add_argument("file")
    sp.add_argument("--dmax", type=int, default=8)
    sp.set_defaults(fn=cmd_hilbert)

    sp = sub.add_parser("km", help="Khovanskii-Macaulay matrix")
    sp.add_argument("file")
    sp.add_argument("-d", "--degree", type=_int_at_least(0), required=True)
    sp.add_argument("--reduce", action="store_true")
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=cmd_km)

    sp = sub.add_parser("solve", help="end-to-end solve")
    sp.add_argument("file")
    degree = sp.add_mutually_exclusive_group()
    degree.add_argument("--dreg", type=_int_at_least(1))
    degree.add_argument("--adaptive", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--normalize", choices=("raw", "first"), default="raw")
    sp.add_argument("--out", help="JSON output path (default stdout)")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("schubert", help="generate and solve a Schubert problem")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument(
        "--conditions",
        required=True,
        help='semicolon-separated index tuples, e.g. "2,4,6;2,4,6;2,4,6"',
    )
    sp.add_argument("--osculating", help="comma-separated parameters s_j")
    sp.add_argument("--field", default="QQ", help='"QQ" or "Fp:<prime>"')
    degree = sp.add_mutually_exclusive_group()
    degree.add_argument("--dreg", type=_int_at_least(1))
    degree.add_argument("--adaptive", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--normalize", choices=("raw", "first"), default="raw")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_schubert)

    sp = sub.add_parser("catalog", help="emit a catalog instance as a system file")
    sp.add_argument(
        "name", help="duffing | delpezzo | bottsamelson | grassmannian:k,m"
    )
    sp.add_argument("--field", default="QQ")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_catalog)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        # argparse exits 0 after --help, and 2 after printing a usage error
        return EXIT_OK if not err.code else EXIT_INPUT
    try:
        return args.fn(args)
    except (SystemFileError, cat.InputError, OSError, UnicodeDecodeError,
            KeyError) as err:
        # an unreadable or undecodable file too: UnicodeDecodeError is a
        # ValueError, which would otherwise read as a math failure
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_INPUT
    except solver.UnsupportedFieldError as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_FIELD
    except (NotInAlgebraError, solver.SolverError, ValueError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    raise SystemExit(main())
