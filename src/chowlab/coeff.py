"""Exact coefficient arithmetic.

Two coefficient fields are supported: the rationals (plain Fraction values)
and simple extensions Q[a]/(m(a)) for a monic irreducible m of degree 2..4.
Every element is kept in canonical form (fully reduced mod the minimal
polynomial), so equality is structural.  Also exact Gauss-Jordan solving
over either field (`solve_linear`), which serves the residue linear systems
and the minimal polynomials of elements, and root-of-unity detection via
cyclotomic polynomial matching, which backs the torsion tests.
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
    """Canonical string for sum(coeffs[k] * name^k), highest power first.

    Coefficients are rationals or extension elements; one whose text has an
    inner sign, such as a+1, is put in parentheses.
    """
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        text = render_element(c)
        if "+" in text or "-" in text[1:]:
            sign, body = "+", f"({text})"
        elif text.startswith("-"):
            sign, body = "-", text[1:]
        else:
            sign, body = "+", text
        if k:
            var = name if k == 1 else f"{name}^{k}"
            body = var if body == "1" else f"{body}*{var}"
        parts.append(sign + body)
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out[0] == "+" else out


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
    # columns are the coordinates of 1, x, ..., x^d; the first free column is
    # the least dependent power, so its nullspace vector has a 1 there and
    # zeros to its right: the monic relation
    matrix = [[p.coeffs[i] for p in powers] for i in range(d)]
    return tuple(_uni.trim(solve_linear(matrix, [0] * d)["nullspace"][0]))


def solve_linear(matrix, rhs):
    """Exact Gauss-Jordan over QQ or the extension field of the entries.

    Returns {"status": "no-solution"} or {"status": "unique", "solution": [...]}
    or {"status": "parametric", "solution": [...], "nullspace": [[...], ...]}.
    """
    nrows = len(matrix)
    if nrows != len(rhs):
        raise ValueError("matrix/rhs shape mismatch")
    ncols = len(matrix[0]) if nrows else 0
    field = QQ
    for row in matrix:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        for x in row:
            if isinstance(x, ExtElement):
                field = field_of(x)
    for x in rhs:
        if isinstance(x, ExtElement):
            field = field_of(x)

    rows = [
        [field.coerce(x) for x in row] + [field.coerce(b)]
        for row, b in zip(matrix, rhs)
    ]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if rows[i][ncols] != 0:
            return {"status": "no-solution"}
    particular = [field.zero] * ncols
    for i, c in enumerate(pivot_cols):
        particular[c] = rows[i][ncols]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    if not free_cols:
        return {"status": "unique", "solution": particular}
    nullspace = []
    for fc in free_cols:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for i, c in enumerate(pivot_cols):
            vec[c] = -rows[i][fc]
        nullspace.append(vec)
    return {"status": "parametric", "solution": particular, "nullspace": nullspace}


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
