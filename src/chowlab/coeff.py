"""Exact coefficient arithmetic.

Two coefficient fields are supported: the rationals (plain Fraction values)
and simple extensions Q[a]/(m(a)) for a monic irreducible m of degree 2..4.
Every element is kept in canonical form (fully reduced mod the minimal
polynomial), so equality is structural.  Also provides root-of-unity
detection via cyclotomic polynomial matching, which backs the torsion tests.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd, isqrt, lcm

from . import _uni


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


class RationalField:
    """The field Q; elements are Fraction values."""

    name = "QQ"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, ExtElement):
            raise TypeError("extension element is not a rational")
        return _frac(x)

    def render(self, x):
        return str(_frac(x))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


QQ = RationalField()


def _rational_roots(coeffs):
    """All rational roots of a polynomial with rational coefficients."""
    cs = [_frac(c) for c in coeffs]
    if not cs or all(c == 0 for c in cs):
        raise ValueError("zero polynomial")
    den_lcm = 1
    for c in cs:
        den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in cs]
    while ints and ints[0] == 0:
        ints = ints[1:]  # factor out z; z=0 handled below
    roots = set()
    if _uni.eval_at(cs, Fraction(0)) == 0:
        roots.add(Fraction(0))
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return out

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _uni.eval_at(cs, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _splits_into_quadratics(coeffs):
    """True iff the monic quartic is a product of two rational quadratics."""
    den = lcm(*(c.denominator for c in coeffs))
    # den^4 * m(z/den) is monic and integral, so by Gauss's lemma a split
    # (z^2+pz+q)(z^2+rz+s) of it has integer p, q, r, s
    d, c, b, a = (int(coeffs[k] * den ** (4 - k)) for k in range(4))
    for q in range(-isqrt(abs(d)), isqrt(abs(d)) + 1):
        if not q or d % q:
            continue
        s = d // q
        if q == s:  # p + r = a, p*r = b - 2q, and q*a = c
            disc = a * a - 4 * (b - 2 * q)
            if c == q * a and disc >= 0 and isqrt(disc) ** 2 == disc:
                return True
        elif (c - q * a) % (s - q) == 0:
            p = (c - q * a) // (s - q)
            if q + s + p * (a - p) == b:
                return True
    return False


class ExtField:
    """Q[a]/(m(a)) for a monic irreducible m, 2 <= deg m <= 4.

    Irreducibility is verified: m has no rational root, and a quartic is
    not a product of two rational quadratics.
    """

    def __init__(self, gen_name, minpoly):
        coeffs = tuple(_frac(c) for c in minpoly)
        if len(coeffs) < 3 or len(coeffs) > 5:
            raise ValueError("extension degree must be between 2 and 4")
        if coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        if _rational_roots(coeffs):
            raise ValueError("minimal polynomial has a rational root")
        if len(coeffs) == 5 and _splits_into_quadratics(coeffs):
            raise ValueError("minimal polynomial splits into two quadratics")
        self.gen_name = gen_name
        self.minpoly = coeffs
        self.degree = len(coeffs) - 1
        # a^degree = -(c0 + c1 a + ... + c_{d-1} a^{d-1})
        self._pow = {self.degree: tuple(-c for c in coeffs[:-1])}
        for k in range(self.degree + 1, 2 * self.degree - 1):
            prev = self._pow[k - 1]
            raised = (Fraction(0),) + prev[:-1]
            top = prev[-1]
            self._pow[k] = tuple(
                raised[i] + top * self._pow[self.degree][i]
                for i in range(self.degree)
            )

    @property
    def zero(self):
        return ExtElement(self, (Fraction(0),) * self.degree)

    @property
    def one(self):
        return ExtElement(self, (Fraction(1),) + (Fraction(0),) * (self.degree - 1))

    @property
    def gen(self):
        c = [Fraction(0)] * self.degree
        c[1] = Fraction(1)
        return ExtElement(self, tuple(c))

    def element(self, coeffs):
        cs = [_frac(c) for c in coeffs]
        if len(cs) > self.degree:
            return ext_reduce(cs, self)
        cs += [Fraction(0)] * (self.degree - len(cs))
        return ExtElement(self, tuple(cs))

    def coerce(self, x):
        if isinstance(x, ExtElement):
            if x.field != self:
                raise TypeError("element of a different extension field")
            return x
        return self.element([_frac(x)])

    def render(self, x):
        return str(self.coerce(x))

    def __repr__(self):
        return f"QQ[{self.gen_name}]/({render_unipoly(self.minpoly, self.gen_name)})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and self.gen_name == other.gen_name
            and self.minpoly == other.minpoly
        )

    def __hash__(self):
        return hash((self.gen_name, self.minpoly))


class ExtElement:
    """Element of an ExtField; coefficient tuple of length deg(minpoly)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, ExtElement):
            if other.field != self.field:
                raise TypeError("mixed extension fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return ExtElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.field.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b != 0:
                    conv[i + j] += a * b
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck != 0:
                row = self.field._pow[k]
                for i in range(d):
                    out[i] += ck * row[i]
        return ExtElement(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in Q[z] against the minimal polynomial
        m = list(self.field.minpoly)
        r0, r1 = m, _uni.trim(list(self.coeffs))
        t0, t1 = [], [Fraction(1)]
        while r1:
            q, r = _uni.divmod_(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _uni.sub(t0, _uni.mul(q, t1))
        if len(r0) > 1:
            raise ValueError("minimal polynomial is reducible: no inverse")
        c = r0[0]
        inv = [t / c for t in t0]
        return self.field.element(inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and all(c == 0 for c in self.coeffs[1:])
        if isinstance(other, ExtElement):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        if all(c == 0 for c in self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.field, self.coeffs))

    def __str__(self):
        return render_unipoly(self.coeffs, self.field.gen_name)

    def __repr__(self):
        return f"<{self}>"


def render_unipoly(coeffs, name):
    """Canonical string for sum(coeffs[k] * name^k), highest power first."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = _frac(coeffs[k])
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            var = name if k == 1 else f"{name}^{k}"
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out


def ext_reduce(raw, field):
    """Reduce a raw coefficient list (powers of the generator) mod minpoly."""
    cs = _uni.trim([_frac(c) for c in raw])
    _, rem = _uni.divmod_(cs, list(field.minpoly))
    rem = rem + [Fraction(0)] * (field.degree - len(rem))
    return ExtElement(field, tuple(rem[: field.degree]))


def field_of(x):
    if isinstance(x, ExtElement):
        return x.field
    if isinstance(x, (int, Fraction)):
        return QQ
    raise TypeError(f"not a field element: {x!r}")


def render_element(x):
    if isinstance(x, ExtElement):
        return str(x)
    return str(_frac(x))


def minpoly_of_element(x):
    """Monic minimal polynomial over Q of a field element, ascending coeffs."""
    if isinstance(x, (int, Fraction)):
        return (-_frac(x), Fraction(1))
    d = x.field.degree
    powers = [x.field.one]
    for _ in range(d):
        powers.append(powers[-1] * x)
    # find the least k with x^k dependent on lower powers
    rows = []  # row-reduced coordinate vectors with pivot bookkeeping
    combos = []  # expression of each reduced row in terms of original powers
    for k, p in enumerate(powers):
        vec = list(p.coeffs)
        combo = [Fraction(0)] * (d + 1)
        combo[k] = Fraction(1)
        for rvec, rcombo in zip(rows, combos):
            piv = next(i for i, c in enumerate(rvec) if c != 0)
            if vec[piv] != 0:
                factor = vec[piv] / rvec[piv]
                vec = [a - factor * b for a, b in zip(vec, rvec)]
                combo = [a - factor * b for a, b in zip(combo, rcombo)]
        if all(c == 0 for c in vec):
            lead = combo[k]
            cs = [c / lead for c in combo[: k + 1]]
            return tuple(cs)
        rows.append(vec)
        combos.append(combo)
    raise AssertionError("element has no minimal polynomial of degree <= ext degree")


def euler_phi(n):
    out = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Coefficients (ascending, Fraction) of the n-th cyclotomic polynomial."""
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # z^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _uni.divmod_(num, list(cyclotomic(d)))
            assert not rem
    return tuple(num)


def is_root_of_unity(minpoly):
    """Order n if minpoly is the n-th cyclotomic polynomial, else None."""
    cs = [_frac(c) for c in minpoly]
    if not cs or cs[-1] != 1:
        raise ValueError("minimal polynomial must be monic")
    if _uni.deg(_uni.gcd(cs, _uni.deriv(cs))) > 0:
        raise ValueError("minimal polynomial must be squarefree")
    d = len(cs) - 1
    # phi(n) >= sqrt(n/2), so phi(n) = d forces n <= 2*d^2
    for n in range(1, 2 * d * d + 1):
        if euler_phi(n) == d and tuple(cs) == cyclotomic(n):
            return n
    return None


def is_cyclotomic_product(coeffs):
    """True iff the monic polynomial splits into cyclotomic factors over Q."""
    cs = [_frac(c) for c in coeffs]
    if not cs or cs[-1] != 1:
        raise ValueError("polynomial must be monic")
    d = len(cs) - 1
    n = 1
    while len(cs) > 1:
        if n > 2 * d * d:
            return False
        if euler_phi(n) <= len(cs) - 1:
            q, rem = _uni.divmod_(cs, list(cyclotomic(n)))
            if not rem:
                cs = q
                continue  # retry the same n for repeated factors
        n += 1
    return True
