"""Exact calculus on the projective line.

Divisor orders and residues of rational 1-forms, tame symbols of pairs of
rational functions, symbolic arithmetic with the roots of z^3 + u*z + 1, and
torsion certificates for symbol values via minimal polynomials.  Univariate
polynomials are ascending coefficient lists over an exact field (Fraction or
ExtElement entries); rational functions carry an optional ramification index
that scales divisor orders, for curves mapping onto the line.  Every
reduction modulo a polynomial is `_uni.divmod_`: the power minimal
polynomial of the cubic's roots is the characteristic polynomial of
multiplication by z^k on Q[z]/(z^3 + u*z + 1), read from three remainders.
"""

from fractions import Fraction

from . import _uni
from .coeff import (
    ExtField,
    field_of,
    is_root_of_unity,
    minpoly_of_element,
    render_element,
    render_unipoly,
)


class PointOnLine:
    """A point of the projective line: an affine field value or infinity."""

    __slots__ = ("value", "at_infinity")

    def __init__(self, value=None, at_infinity=False):
        if at_infinity:
            if value is not None:
                raise ValueError("the point at infinity carries no affine value")
        elif value is None:
            raise ValueError("affine point needs a value")
        else:
            field_of(value)  # a float is refused, so every value stays exact
        self.value = value
        self.at_infinity = at_infinity

    @classmethod
    def infinity(cls):
        return cls(at_infinity=True)

    def __eq__(self, other):
        if not isinstance(other, PointOnLine):
            return NotImplemented
        if self.at_infinity or other.at_infinity:
            return self.at_infinity and other.at_infinity
        return self.value == other.value

    def __hash__(self):
        if self.at_infinity:
            return hash(("point", "inf"))
        return hash(("point", self.value))

    def render(self):
        return "inf" if self.at_infinity else render_element(self.value)

    def __repr__(self):
        return f"PointOnLine({self.render()})"


def _coerce_coeffs(cs):
    out = []
    for c in cs:
        field_of(c)  # a float is refused, so every division stays exact
        out.append(Fraction(c) if isinstance(c, int) else c)
    return _uni.trim(out)


class RationalFunction1:
    """A rational function num/den in one variable over an exact field.

    Stored with the common factor cancelled and a monic denominator, so equal
    functions compare equal.  The ramification index e scales every divisor
    order: functions pulled back along a degree-e cover totally ramified over
    their zeros and poles have curve-level orders e times the base orders.
    """

    __slots__ = ("num", "den", "e")

    def __init__(self, num, den=(1,), e=1):
        num = _coerce_coeffs(num)
        den = _coerce_coeffs(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not isinstance(e, int) or e < 1:
            raise ValueError("ramification index must be a positive integer")
        if num:
            g = _uni.gcd(num, den)
            if _uni.deg(g) > 0:
                num, r = _uni.divmod_(num, g)
                assert not r
                den, r = _uni.divmod_(den, g)
                assert not r
        lc = den[-1]
        if lc != 1:
            inv = 1 / lc
            num = [c * inv for c in num]
            den = [c * inv for c in den]
        self.num = tuple(num)
        self.den = tuple(den)
        self.e = e

    def is_zero(self):
        return not self.num

    def __mul__(self, other):
        if not isinstance(other, RationalFunction1):
            return NotImplemented
        if self.e != other.e:
            raise ValueError("ramification mismatch")
        return RationalFunction1(
            _uni.mul(list(self.num), list(other.num)),
            _uni.mul(list(self.den), list(other.den)),
            e=self.e,
        )

    def one_minus(self):
        """The function 1 - f, used by the Steinberg relation."""
        return RationalFunction1(
            _uni.sub(list(self.den), list(self.num)), list(self.den), e=self.e
        )

    def __eq__(self, other):
        if not isinstance(other, RationalFunction1):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.e == other.e

    def __hash__(self):
        return hash((self.num, self.den, self.e))

    def render(self, name="z"):
        top = render_unipoly(self.num, name)
        if self.den == (Fraction(1),):
            return top
        return f"({top})/({render_unipoly(self.den, name)})"

    def __repr__(self):
        return f"RationalFunction1({self.render()}, e={self.e})"


def _strip_root(cs, v):
    """(multiplicity of v, value of the cofactor at v)."""
    cur = list(cs)
    k = 0
    while True:
        q, r = _uni.div_linear(cur, v)
        if r != 0:
            return k, r
        cur = q
        k += 1


def _local(f, p):
    """(order of f at p scaled by e, leading coefficient of the local expansion)."""
    if p.at_infinity:
        return (len(f.den) - len(f.num)) * f.e, f.num[-1] / f.den[-1]
    nk, nval = _strip_root(f.num, p.value)
    dk, dval = _strip_root(f.den, p.value)
    return (nk - dk) * f.e, nval / dval


def order_at(f, p):
    """Vanishing order of f at p, scaled by the ramification index."""
    if f.is_zero():
        raise ValueError("the zero function has no divisor")
    return _local(f, p)[0]


def _symbol(f_local, g_local):
    """(-1)^(mn) * a^n / b^m from the local data (m, a) of f and (n, b) of g."""
    (m, a), (n, b) = f_local, g_local
    val = a**n * b**(-m)
    return -val if (m * n) % 2 else val


def residue(form, p):
    """Residue at p of the 1-form (num/den) dz.

    Exact for poles of any order: Taylor-shift to the point, strip the common
    power of the local parameter, multiply the numerator by the inverse power
    series of the denominator unit.  At infinity the form is pulled back by
    z = 1/t, dz = -dt/t^2 first.  Points that are not poles give 0.
    """
    num, den = list(form.num), list(form.den)
    if not num:
        return Fraction(0)
    if p.at_infinity:
        rn = _uni.trim(list(reversed(num)))
        rd = _uni.trim(list(reversed(den)))
        shift = (len(den) - 1) - (len(num) - 1) - 2
        num2 = _uni.neg(rn)
        den2 = rd
        if shift >= 0:
            num2 = [Fraction(0)] * shift + num2
        else:
            den2 = [Fraction(0)] * (-shift) + den2
        return _residue_at_zero(num2, den2)
    num2 = _uni.shift(num, p.value)
    den2 = _uni.shift(den, p.value)
    return _residue_at_zero(num2, den2)


def _residue_at_zero(num, den):
    s = 0
    while num[s] == 0:
        s += 1
    l = 0
    while den[l] == 0:
        l += 1
    k = l - s
    if k <= 0:
        return Fraction(0)
    n1 = num[s:]
    d1 = den[l:]
    inv = _uni.series_inv(d1, k)
    ser = _uni.trim(_uni.mul(n1, inv)[:k])
    if len(ser) < k:
        return Fraction(0)
    return ser[k - 1]


def tame_symbol(f, g, p):
    """The unit (-1)^(mn) * (f^n / g^m)(p) with m = ord_p f, n = ord_p g.

    Well defined on the cover as well: the combination f^n/g^m has order 0
    at p, so its value is independent of the ramification unit.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("tame symbol of the zero function")
    if f.e != g.e:
        raise ValueError("ramification mismatch")
    return _symbol(_local(f, p), _local(g, p))


class SymbolTuple:
    """Per-point tame symbols of a fixed pair, with the Weil product check."""

    __slots__ = ("points", "values")

    def __init__(self, points, values):
        points = tuple(points)
        values = tuple(values)
        if len(points) != len(values):
            raise ValueError("points and values must align")
        for v in values:
            if v == 0:
                raise ValueError("symbol values must be invertible")
        self.points = points
        self.values = values

    def product(self):
        out = Fraction(1)
        for v in self.values:
            out = out * v
        return out

    def torsion_report(self):
        """Per entry: minimal polynomial, torsion flag, multiplicative order."""
        out = []
        for v in self.values:
            mp = minpoly_of_element(v)
            order = is_root_of_unity(mp)
            out.append(
                {
                    "value": render_element(v),
                    "minpoly": tuple(mp),
                    "torsion": order is not None,
                    "order": order,
                }
            )
        return out

    def render(self):
        return {
            "points": [p.render() for p in self.points],
            "values": [render_element(v) for v in self.values],
        }

    def __eq__(self, other):
        if not isinstance(other, SymbolTuple):
            return NotImplemented
        return self.points == other.points and self.values == other.values

    def __repr__(self):
        vals = ", ".join(render_element(v) for v in self.values)
        return f"SymbolTuple({vals})"


def symbol_tuple(f, g, points):
    """Tame symbols of (f, g) at the given points, which must carry div f
    and div g entirely; the Weil reciprocity product is asserted to be 1."""
    seen = set()
    for p in points:
        if p in seen:
            raise ValueError("duplicate point")
        seen.add(p)
    locals_ = []
    for h in (f, g):
        if h.is_zero():
            raise ValueError("tame symbol of the zero function")
        loc = [_local(h, p) for p in points]
        # num and den are coprime, so each affine order is a zero of num or
        # a pole from den, never both
        orders = [k for (k, _), p in zip(loc, points) if not p.at_infinity]
        zeros = sum(k for k in orders if k > 0)
        poles = -sum(k for k in orders if k < 0)
        if (zeros, poles) != (_uni.deg(h.num) * h.e, _uni.deg(h.den) * h.e):
            raise ValueError("a zero or pole lies outside the point list")
        if len(h.num) != len(h.den) and not any(p.at_infinity for p in points):
            raise ValueError("a zero or pole at infinity is missing")
        locals_.append(loc)
    if f.e != g.e:
        raise ValueError("ramification mismatch")
    out = SymbolTuple(points, [_symbol(a, b) for a, b in zip(*locals_)])
    assert out.product() == 1, "Weil reciprocity failed"
    return out


class CubicRoots:
    """The roots a, b, c of z^3 + u*z + 1: e1 = 0, e2 = u, e3 = -1.

    Symmetric expressions reduce through power sums; explicit roots may be
    attached when the cubic splits over a small extension field.
    """

    def __init__(self, u, roots=None):
        self.u = Fraction(u) if isinstance(u, int) else u
        if discriminant(self.u) == 0:
            raise ValueError("the cubic has a repeated root")
        if roots is not None:
            roots = tuple(roots)
            if len(roots) != 3:
                raise ValueError("need exactly three roots")
            for r in roots:
                if r**3 + self.u * r + 1 != 0:
                    raise ValueError("not a root of the cubic")
            a, b, c = roots
            if a + b + c != 0 or a * b + b * c + c * a != self.u or a * b * c != -1:
                raise ValueError("symmetric functions disagree with the cubic")
        self.roots = roots

    @classmethod
    def split_u_zero(cls):
        """z^3 + 1 split over Q[a]/(a^2 - a + 1): roots (a, -1, 1 - a)."""
        K = ExtField("a", [1, -1, 1])
        a = K.gen
        return cls(0, roots=(a, K.coerce(-1), 1 - a))

    def power_sums(self, n):
        """p_0 .. p_n with p_k = a^k + b^k + c^k, by the Newton recurrence."""
        u = self.u
        ps = [u * 0 + 3, u * 0, -2 * u, u * 0 - 3]
        for k in range(4, n + 1):
            ps.append(-u * ps[k - 2] - ps[k - 3])
        return ps[: n + 1]


def discriminant(u):
    """Discriminant of z^3 + u*z + 1."""
    uu = Fraction(u) if isinstance(u, int) else u
    return -4 * uu**3 - 27


def root_derivative(u):
    """Logarithmic u-derivative of each root r of z^3 + u*z + 1.

    Implicit differentiation of r^3 + u*r + 1 = 0 gives
    (1/r)(dr/du) = -1/f'(r) = -1/((r-s)(r-t)); the three values are returned
    as (root, dlog) pairs.  Only u = 0 is supported, where the cubic splits
    over Q[a]/(a^2 - a + 1).
    """
    if u != 0:
        raise ValueError("no built-in splitting field for this u")
    a, b, c = CubicRoots.split_u_zero().roots
    out = []
    for r, s, t in ((a, b, c), (b, a, c), (c, a, b)):
        out.append((r, Fraction(-1) / ((r - s) * (r - t))))
    return out


def minpoly_of_power(u, k):
    """Monic polynomial in w whose roots are r^k for the roots r of
    f = z^3 + u*z + 1: the characteristic polynomial of multiplication by
    z^k on Q[z]/(f), whose eigenvalues are the r^k.  Column j of its matrix
    is z^(k+j) mod f, the remainder of `_uni.divmod_`; the coefficients are
    the trace, the sum of the principal 2x2 minors and the determinant."""
    u = Fraction(u)
    if discriminant(u) == 0:
        raise ValueError("the cubic has a repeated root")
    if not isinstance(k, int) or k < 1:
        raise ValueError("the exponent must be a positive integer")
    cubic = [Fraction(1), u, Fraction(0), Fraction(1)]
    cols = []
    for j in range(3):
        rem = _uni.divmod_([Fraction(0)] * (k + j) + [Fraction(1)], cubic)[1]
        cols.append(rem + [Fraction(0)] * (3 - len(rem)))
    (a, b, c), (d, e, f), (g, h, i) = zip(*cols)  # the rows
    minors = a * e - b * d + a * i - c * g + e * i - f * h
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return (-det, minors, -(a + e + i), Fraction(1))
