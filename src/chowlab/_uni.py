"""Generic univariate polynomial helpers over an exact field.

A polynomial is a list of coefficients in ascending power order with no
trailing zeros; the zero polynomial is the empty list.  Coefficients may be
Fraction, ExtElement or plain int (the coefficient types coerce each other
through the arithmetic operators, and `divmod_` and `monic` divide by an int
as a Fraction), but every nonzero list must end in a nonzero coefficient.
"""

from fractions import Fraction


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def deg(cs):
    return len(cs) - 1


def add(f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out.append(a + b)
    return trim(out)


def neg(f):
    return [-c for c in f]


def sub(f, g):
    return add(f, neg(g))


def scale(f, c):
    if c == 0:
        return []
    return trim([a * c for a in f])


def mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return trim(out)


def eval_at(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def deriv(f):
    return trim([c * i for i, c in enumerate(f)][1:])


def divmod_(f, g):
    """Exact field division: f = q*g + r with deg r < deg g, one pass from
    the top quotient degree down; int coefficients divide as Fraction."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    # no inverse when there is no quotient or the divisor is monic
    dg, inv = len(g) - 1, None if len(f) < len(g) or g[-1] == 1 else _inv(g[-1])
    r, q = list(f), [0] * max(0, len(f) - dg)
    for k in reversed(range(len(q))):
        c = r[k + dg]
        if c:
            q[k] = c = c if inv is None else c * inv
            for i in range(dg):
                r[k + i] -= c * g[i]
    return trim(q), trim(r[:dg])


def div_linear(f, a):
    """Divide f by (z - a): returns (quotient, remainder value f(a))."""
    if not f:
        return [], 0
    accs = []
    acc = 0
    for c in reversed(f):
        acc = acc * a + c
        accs.append(acc)
    q = list(reversed(accs[:-1]))
    return trim(q), accs[-1]


def shift(f, a):
    """Coefficients of f(z + a), by repeated synthetic division by (z - a)."""
    out = []
    cur = list(f)
    while cur:
        cur, rem = div_linear(cur, a)
        out.append(rem)
    return trim(out)


def _inv(c):
    """1/c, a Fraction for an int c."""
    return Fraction(1, c) if isinstance(c, int) else 1 / c


def monic(f):
    inv = _inv(f[-1]) if f else 1
    return [c * inv for c in f]


def gcd(f, g):
    a, b = list(f), list(g)
    while b:
        _, r = divmod_(a, b)
        a, b = b, r
    return monic(a)


def series_inv(f, n):
    """First n coefficients of 1/f for f with f[0] != 0."""
    if not f or f[0] == 0:
        raise ZeroDivisionError("series inverse needs a unit constant term")
    inv0 = _inv(f[0])
    out = [inv0]
    for k in range(1, n):
        acc = 0
        for i in range(1, min(k, len(f) - 1) + 1):
            acc = acc + f[i] * out[k - i]
        out.append(-inv0 * acc)
    return out
