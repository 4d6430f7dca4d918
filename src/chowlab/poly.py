"""Sparse multivariate polynomials over an exact coefficient field.

Monomial orders match the SINGULAR conventions: "dp" (degree reverse
lexicographic), "lp" (lexicographic), and ("block", k) for an elimination
order on the first k variables.  Polynomials are immutable term lists kept
strictly descending in the ring order with no zero coefficients.
"""

from fractions import Fraction
from math import comb

from .coeff import QQ, ExtElement


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def monomial_key(order, exps):
    """Sort key; bigger key = bigger monomial under the given order."""
    if order == "dp":
        return _grevlex_key(exps)
    if order == "lp":
        return tuple(exps)
    if isinstance(order, tuple) and len(order) == 2 and order[0] == "block":
        k = order[1]
        return (_grevlex_key(exps[:k]), _grevlex_key(exps[k:]))
    raise ValueError(f"unknown monomial order: {order!r}")


class RingContext:
    """Polynomial ring data: named variables, monomial order, coefficient field."""

    def __init__(self, variables, order="dp", field=QQ):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if not names:
            raise ValueError("at least one variable required")
        monomial_key(order, (0,) * len(names))  # validates the order spec
        if isinstance(order, tuple) and not (0 < order[1] < len(names)):
            raise ValueError("block split out of range")
        self.variables = names
        self.order = order
        self.field = field
        self.nvars = len(names)
        self._index = {n: i for i, n in enumerate(names)}

    def key(self, exps):
        return monomial_key(self.order, exps)

    def var_index(self, name):
        if name not in self._index:
            raise ValueError(f"unknown variable {name!r}")
        return self._index[name]

    @property
    def zero(self):
        return Polynomial(self, ())

    @property
    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.field.coerce(c)
        if c == 0:
            return Polynomial(self, ())
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, name):
        exps = [0] * self.nvars
        exps[self.var_index(name)] = 1
        return Polynomial(self, ((tuple(exps), self.field.one),))

    def gens(self):
        return [self.var(n) for n in self.variables]

    def monomial(self, exps):
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector")
        return Polynomial(self, ((exps, self.field.one),))

    def from_dict(self, d):
        terms = []
        for exps, c in d.items():
            c = self.field.coerce(c)
            if c != 0:
                terms.append((tuple(exps), c))
        terms.sort(key=lambda t: self.key(t[0]), reverse=True)
        return Polynomial(self, tuple(terms))

    def __eq__(self, other):
        return (
            isinstance(other, RingContext)
            and self.variables == other.variables
            and self.order == other.order
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.variables, repr(self.order), self.field))

    def __repr__(self):
        return f"RingContext({','.join(self.variables)};{self.order};{self.field!r})"


class Polynomial:
    """Immutable polynomial; terms strictly descending, no zero coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ctx != self.ctx:
                raise ValueError("mixed ring contexts")
            return other
        if isinstance(other, (int, Fraction, ExtElement)):
            return self.ctx.const(other)
        return NotImplemented

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coeff(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def num_terms(self):
        return len(self.terms)

    def coeff_of(self, exps):
        exps = tuple(exps)
        for e, c in self.terms:
            if e == exps:
                return c
        return self.ctx.field.zero

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for e, c in o.terms:
            s = acc.get(e, 0) + c
            if s == 0:
                acc.pop(e, None)
            else:
                acc[e] = s
        terms = sorted(acc.items(), key=lambda t: self.ctx.key(t[0]), reverse=True)
        return Polynomial(self.ctx, tuple(terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ctx, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExtElement)):
            c0 = self.ctx.field.coerce(other)
            if c0 == 0:
                return self.ctx.zero
            return Polynomial(self.ctx, tuple((e, c * c0) for e, c in self.terms))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in o.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                s = acc.get(e, 0) + c1 * c2
                if s == 0:
                    acc.pop(e, None)
                else:
                    acc[e] = s
        terms = sorted(acc.items(), key=lambda t: self.ctx.key(t[0]), reverse=True)
        return Polynomial(self.ctx, tuple(terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return self.ctx.one
        if len(self.terms) <= 1:  # zero or a monomial: one step
            return Polynomial(self.ctx, tuple((tuple(k * n for k in e), c**n) for e, c in self.terms))
        # n - 1 products with the sparse base cost less than squaring, whose
        # operands grow dense (Fateman, Stud. Appl. Math. 53, 1974)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ExtElement)):
            other = self.ctx.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, self.terms))

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return f"<poly {render_poly(self)}>"


def diff(f, var):
    """Formal partial derivative with respect to the named variable."""
    i = f.ctx.var_index(var)
    acc = {}
    for e, c in f.terms:
        if e[i] == 0:
            continue
        e2 = e[:i] + (e[i] - 1,) + e[i + 1 :]
        acc[e2] = acc.get(e2, 0) + c * e[i]
    return f.ctx.from_dict(acc)


def graded_piece_basis(ctx, d):
    """All exponent vectors of total degree d, descending in the ring order."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = ctx.nvars
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], d, n)
    out.sort(key=ctx.key, reverse=True)
    assert len(out) == comb(d + n - 1, n - 1)
    return out


def is_homogeneous(f):
    """Common total degree of all terms, None if mixed, -1 for the zero poly."""
    if not f.terms:
        return -1
    degs = {sum(e) for e, _ in f.terms}
    if len(degs) == 1:
        return degs.pop()
    return None


def _coeff_parts(c):
    """(sign, abs-body) for a term coefficient; None body = skip 1."""
    if isinstance(c, ExtElement):
        if any(x != 0 for x in c.coeffs[1:]):
            return ("+", f"({c})")
        c = c.coeffs[0]
    sign = "-" if c < 0 else "+"
    a = abs(c)
    if a == 1:
        return (sign, None)
    return (sign, str(a))


def render_monomial(exps, names, unit_exponents=False):
    parts = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        if e == 1 and not unit_exponents:
            parts.append(name)
        else:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render_poly(f):
    """Canonical text: terms descending, ^ exponents, * between factors."""
    if not f.terms:
        return "0"
    names = f.ctx.variables
    chunks = []
    for e, c in f.terms:
        mono = render_monomial(e, names)
        sign, body = _coeff_parts(c)
        if mono:
            piece = f"{body}*{mono}" if body is not None else mono
        else:
            piece = body if body is not None else "1"
        chunks.append((sign, piece))
    first_sign, first_piece = chunks[0]
    out = ("-" if first_sign == "-" else "") + first_piece
    for sign, piece in chunks[1:]:
        out += sign + piece
    return out
