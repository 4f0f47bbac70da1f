"""Sparse multivariate polynomials, weight orders and the expression parser.

A polynomial is a dict mapping exponent tuples to nonzero field elements.
Monomial comparison follows the minimal-weight convention: the leading term
of p under a weight vector omega is the term whose weight dot product is
smallest, ties broken by graded lexicographic order on the exponents.
"""

from __future__ import annotations

from .fields import QQ

__all__ = [
    "MultiPoly",
    "WeightOrder",
    "parse_polynomial",
    "PolySyntaxError",
]


class WeightOrder:
    """Total multiplicative monomial order from an integer weight vector.

    Sort key of an exponent vector e is (omega . e, deg e, e); the leading
    exponent of a polynomial is the key-minimal one.
    """

    __slots__ = ("omega",)

    def __init__(self, omega):
        self.omega = tuple(int(w) for w in omega)

    @property
    def nvars(self):
        return len(self.omega)

    def key(self, exps):
        w = 0
        for wi, ei in zip(self.omega, exps):
            w += wi * ei
        return (w, sum(exps), exps)

    def tiebreak_key(self, exps):
        """Graded lexicographic key, used to order basis/support labels."""
        return (sum(exps), exps)

    def __eq__(self, other):
        return isinstance(other, WeightOrder) and other.omega == self.omega

    def __hash__(self):
        return hash(self.omega)

    def __repr__(self):
        return f"WeightOrder{self.omega}"


class MultiPoly:
    """Sparse polynomial over an exact field.

    ``terms`` maps exponent tuples (one entry per variable) to nonzero
    coefficients. Instances are treated as immutable.
    """

    __slots__ = ("field", "varnames", "terms")

    def __init__(self, field, varnames, terms, _normalized=False):
        self.field = field
        self.varnames = tuple(varnames)
        if _normalized:
            self.terms = terms
        else:
            n = len(self.varnames)
            clean = {}
            for e, c in terms.items():
                e = tuple(int(x) for x in e)
                if len(e) != n:
                    raise ValueError(
                        f"exponent vector {e} has length {len(e)}, expected {n}"
                    )
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                if c != field.zero:
                    clean[e] = c
            self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field, varnames):
        return cls(field, varnames, {}, _normalized=True)

    @classmethod
    def constant(cls, field, varnames, c):
        e = (0,) * len(tuple(varnames))
        t = {e: c} if c != field.zero else {}
        return cls(field, varnames, t, _normalized=True)

    @classmethod
    def variable(cls, field, varnames, index):
        varnames = tuple(varnames)
        e = tuple(1 if i == index else 0 for i in range(len(varnames)))
        return cls(field, varnames, {e: field.one}, _normalized=True)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        if self.varnames != other.varnames:
            raise ValueError(
                f"variable mismatch: {self.varnames} vs {other.varnames}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = F.add(out.get(e, F.zero), c)
            if s == F.zero:
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(F, self.varnames, out, _normalized=True)

    def __neg__(self):
        F = self.field
        return MultiPoly(
            F,
            self.varnames,
            {e: F.neg(c) for e, c in self.terms.items()},
            _normalized=True,
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        F = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = F.add(out.get(e, F.zero), F.mul(c1, c2))
                if s == F.zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(F, self.varnames, out, _normalized=True)

    def scale(self, c):
        F = self.field
        if c == F.zero:
            return MultiPoly.zero(F, self.varnames)
        return MultiPoly(
            F,
            self.varnames,
            {e: F.mul(v, c) for e, v in self.terms.items()},
            _normalized=True,
        )

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a natural number, got {k!r}")
        result = MultiPoly.constant(self.field, self.varnames, self.field.one)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.varnames == other.varnames
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.varnames, frozenset(self.terms.items())))

    # -- order-dependent operations ----------------------------------------

    def leading_exponent(self, order: WeightOrder):
        if not self.terms:
            raise ValueError("zero polynomial has no leading exponent")
        return min(self.terms, key=order.key)

    def evaluate(self, point):
        """Exact evaluation at a tuple of field elements."""
        point = tuple(point)
        if len(point) != len(self.varnames):
            raise ValueError(
                f"point has {len(point)} coordinates, expected {len(self.varnames)}"
            )
        F = self.field
        total = F.zero
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    p = x
                    for _ in range(k - 1):
                        p = F.mul(p, x)
                    v = F.mul(v, p)
            total = F.add(total, v)
        return total

    # -- text form -----------------------------------------------------------

    def to_string(self) -> str:
        """Render in the input grammar (graded-lex term order, stable)."""
        if not self.terms:
            return "0"
        F = self.field
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
            factors = []
            for name, k in zip(self.varnames, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            cs = F.fmt(c)
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            elif cs == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append(cs + "*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"MultiPoly({self.to_string()!r})"


class PolySyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    """Recursive descent over:

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := int | var | '(' expr ')'

    Integer literals may carry a '/nat' suffix so that exact rational
    coefficients written by `to_string` round-trip.
    """

    def __init__(self, text, varnames, field):
        self.text = text
        self.pos = 0
        self.varnames = tuple(varnames)
        self.index = {v: i for i, v in enumerate(self.varnames)}
        self.field = field

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch):
        if self._peek() != ch:
            raise PolySyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self):
        p = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise PolySyntaxError(
                f"unexpected character {self.text[self.pos]!r}", self.pos
            )
        return p

    def expr(self):
        sign = 1
        c = self._peek()
        if c in "+-":
            self.pos += 1
            sign = -1 if c == "-" else 1
        p = self.term()
        if sign < 0:
            p = -p
        while True:
            c = self._peek()
            if c == "+":
                self.pos += 1
                p = p + self.term()
            elif c == "-":
                self.pos += 1
                p = p - self.term()
            else:
                return p

    def term(self):
        p = self.factor()
        while self._peek() == "*":
            self.pos += 1
            p = p * self.factor()
        return p

    def factor(self):
        p = self.base()
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise PolySyntaxError("exponent must be a natural number", start)
            p = p ** int(self.text[start : self.pos])
        return p

    def base(self):
        c = self._peek()
        if c == "(":
            self.pos += 1
            p = self.expr()
            self._expect(")")
            return p
        if c.isdigit():
            return self._number()
        if c.isalpha() or c == "_":
            return self._variable()
        raise PolySyntaxError(f"unexpected character {c!r}", self.pos)

    def _number(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        num = self.text[start : self.pos]
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            save = self.pos
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == dstart:
                self.pos = save
            else:
                num += "/" + self.text[dstart : self.pos]
        return MultiPoly.constant(
            self.field, self.varnames, self.field.parse(num)
        )

    def _variable(self):
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        name = self.text[start : self.pos]
        if name not in self.index:
            raise PolySyntaxError(f"unknown variable {name!r}", start)
        return MultiPoly.variable(self.field, self.varnames, self.index[name])


def parse_polynomial(text: str, varnames, field=QQ) -> MultiPoly:
    """Parse a polynomial expression; see `_Parser` for the grammar."""
    return _Parser(text, varnames, field).parse()
