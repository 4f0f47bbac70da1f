"""JSON system files.

Schema:
{
  "field": "QQ" | {"Fp": p},
  "vars": ["t1", "t2", ...],
  "weight": [w1, w2, ...],
  "phi": ["1", "t1", ...],
  "equations": [
      {"degree": d, "poly": "..."} |
      {"degree": d, "coeffs": [{"alpha": [a0, ..., al], "c": "num/den"}, ...]}
  ]
}

Exact scalars are serialized as decimal strings, "num/den" over QQ.
Either form of an equation is read; files are written with "coeffs", the
coefficient form every equation of a StructuredSystem has.
"""

from __future__ import annotations

import json

from .fields import GF, QQ
from .khov import Parameterization, build_parameterization
from .km import Equation, NotInAlgebraError, StructuredSystem
from .poly import WeightOrder, parse_polynomial

__all__ = [
    "SystemFileError",
    "parse_field",
    "field_name",
    "load_system",
    "system_to_dict",
    "dump_system",
]


class SystemFileError(ValueError):
    pass


def parse_field(spec):
    if spec == "QQ":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        modulus = spec["Fp"]
    elif isinstance(spec, str) and spec.startswith("Fp:"):
        modulus = spec.split(":", 1)[1]
    else:
        raise SystemFileError(f"unknown field specification {spec!r}")
    try:
        return GF(int(modulus))
    except (TypeError, ValueError) as err:
        raise SystemFileError(f"bad field modulus {modulus!r}: {err}") from err


def field_name(field):
    if field == QQ:
        return "QQ"
    return {"Fp": field.modulus}


def _integer(value, name):
    """int(value); a bool or a non-integral number, which int() would
    truncate, is a SystemFileError naming the field."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise SystemFileError(f"{name} must be an integer, got {value!r}")
    return int(value)


def load_system(data):
    """Build (Parameterization, StructuredSystem) from a dict or JSON text."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as err:
            raise SystemFileError(f"invalid JSON: {err}") from err
    try:
        field = parse_field(data["field"])
        varnames = tuple(data["vars"])
        weight = tuple(_integer(w, "weight") for w in data["weight"])
        phi_strings = list(data["phi"])
        eq_specs = list(data.get("equations", []))
    except (KeyError, TypeError, ValueError) as err:
        raise SystemFileError(f"missing or malformed field in system file: {err}")
    if len(weight) != len(varnames):
        raise SystemFileError(
            f"weight has {len(weight)} entries for {len(varnames)} variables"
        )
    try:
        phi = [parse_polynomial(s, varnames, field) for s in phi_strings]
    except ValueError as err:
        raise SystemFileError(f"bad generator polynomial: {err}") from err
    try:
        par = build_parameterization(phi, WeightOrder(weight), field)
    except ValueError as err:
        raise SystemFileError(f"bad generators: {err}") from err
    eqs = [_equation(i, spec, par) for i, spec in enumerate(eq_specs)]
    if not eqs:
        return par, None
    try:
        return par, StructuredSystem(par, eqs)
    except NotInAlgebraError:
        raise
    except ValueError as err:  # a coefficient form that names its equation
        raise SystemFileError(str(err)) from err


def _equation(i, spec, par):
    """Equation i of a system file; SystemFileError names it when malformed.

    The exponents of a coefficient form are checked by `StructuredSystem`.
    """
    field = par.field
    try:
        degree = _integer(spec["degree"], "degree")
        if "poly" in spec:
            return Equation(f=parse_polynomial(spec["poly"], par.varnames, field),
                            degree=degree)
        if "coeffs" not in spec:
            raise ValueError("needs 'poly' or 'coeffs'")
        form = {
            tuple(_integer(a, "alpha") for a in item["alpha"]):
                field.parse(str(item["c"]))
            for item in spec["coeffs"]
        }
        return Equation(degree=degree, coeff_form=form)
    except KeyError as err:
        raise SystemFileError(f"equation {i}: missing {err}") from err
    except (TypeError, ValueError, ZeroDivisionError) as err:
        raise SystemFileError(f"equation {i}: {err}") from err


def system_to_dict(par: Parameterization, sys: StructuredSystem = None):
    data = {
        "field": field_name(par.field),
        "vars": list(par.varnames),
        "weight": list(par.ord.omega),
        "phi": [p.to_string() for p in par.phi],
        "equations": [],
    }
    if sys is not None:
        data["equations"] = [
            {
                "degree": eq.degree,
                "coeffs": [
                    {"alpha": list(a), "c": par.field.fmt(c)}
                    for a, c in sorted(eq.coeff_form.items())
                ],
            }
            for eq in sys.equations
        ]
    return data


def dump_system(par, sys=None) -> str:
    return json.dumps(system_to_dict(par, sys), indent=2, sort_keys=True)
