"""sympy as an independent oracle for the Groebner engine.

The reduced Groebner basis of an ideal is unique, so the fraction-free
`buchberger` must give the basis `sympy.groebner` gives over QQ.
`rings.hilbert_table` of each seeded homogeneous ideal
must be the table counted from the leading monomials of sympy's basis.  On
seeded sequences of forms, regular and not, `buchberger`'s
complete-intersection path must give sympy's basis and accept exactly the
sequences whose sympy leads have the numerator prod(1 - t^d_i): 3
variables, 2-3 forms of degree 1-3, dense or with a common linear factor.

The inputs are small on purpose: 3 variables, 2-3 generators of degree 2-3
with 2-4 terms, coefficients n/d with |n| <= 9 and d <= 4, and
non-homogeneous ideals only in "dp".  The fraction-free engine can run for
minutes on inputs barely larger than these, above all non-homogeneous ones
in "lp": on three such generators in x, y, z of degree at most 6, it did
not finish in 120 s, its coefficients past 285,000 bits, where sympy took
well under a second.
"""

import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from chowlab.groebner import Ideal, _padd, buchberger, hilbert_numerator  # noqa: E402
from chowlab.poly import RingContext  # noqa: E402
from chowlab.rings import hilbert_table  # noqa: E402

VARS = ("x", "y", "z")
SYMS = sympy.symbols(VARS)
ORDERS = {"dp": "grevlex", "lp": "lex"}
# (order, homogeneous) of each seeded case
KINDS = [("dp", True), ("lp", True), ("dp", False)]


def random_ideal(rng, ctx, homogeneous):
    gens = []
    for _ in range(rng.randint(2, 3)):
        deg = rng.randint(2, 3)
        monos = [
            e
            for e in itertools.product(range(deg + 1), repeat=len(VARS))
            if sum(e) == deg or not homogeneous and sum(e) < deg
        ]
        terms = {
            e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
            for e in rng.sample(monos, rng.randint(2, 4))
        }
        gens.append(ctx.from_dict(terms))
    return gens


def sympy_groebner(gens, order, to_sympy, **opts):
    """The polys of sympy's reduced basis of the gens, each coefficient
    converted by to_sympy."""
    polys = [
        sympy.Poly.from_dict({e: to_sympy(c) for e, c in g.terms}, SYMS, **opts) for g in gens
    ]
    return sympy.groebner(polys, *SYMS, order=ORDERS[order], **opts).polys


def sympy_basis(gens, order):
    """sympy's reduced basis of the gens over QQ: each polynomial monic in
    the order, as a sorted tuple of (exponents, Fraction) pairs."""

    def to_sympy(c):
        return sympy.Rational(c.numerator, c.denominator)

    def monic(c, lc):
        return Fraction(int(c.p), int(c.q)) / Fraction(int(lc.p), int(lc.q))

    out = []
    for poly in sympy_groebner(gens, order, to_sympy, domain="QQ"):
        # not poly.monic(), which divides by the lex leading coefficient
        lc = poly.LC(order=ORDERS[order])
        out.append(tuple(sorted((e, monic(c, lc)) for e, c in poly.terms())))
    return sorted(out)


def canonical(basis):
    """A basis of (exponents, coefficient) term lists as sympy_basis gives it."""
    return sorted(tuple(sorted(terms)) for terms in basis)


@pytest.mark.parametrize("kind", range(len(KINDS)))
def test_buchberger_matches_sympy(kind):
    order, homogeneous = KINDS[kind]
    ctx = RingContext(VARS, order)
    for seed in range(24):
        gens = random_ideal(random.Random(seed * len(KINDS) + kind), ctx, homogeneous)
        assert canonical(g.terms for g in buchberger(gens)) == sympy_basis(gens, order)


def sympy_leads(gens, order):
    """The leading monomials of sympy's basis of the gens over QQ."""
    rational = lambda c: sympy.Rational(c.numerator, c.denominator)  # noqa: E731
    return [
        poly.monoms(order=ORDERS[order])[0]
        for poly in sympy_groebner(gens, order, rational, domain="QQ")
    ]


def sympy_table(gens, order, cap):
    """`hilbert_table(Ideal(gens), cap)` read from the leading monomials of
    sympy's basis over QQ, by counting the monomials of each degree that no
    lead divides."""
    leads = sympy_leads(gens, order)
    rows = []
    for d in range(cap + 1):
        standard = [
            e
            for e in itertools.product(range(d + 1), repeat=len(VARS))
            if sum(e) == d and not any(all(a >= b for a, b in zip(e, m)) for m in leads)
        ]
        rows.append((d, len(standard)))
        if not standard:
            return rows, False
    return rows, True


@pytest.mark.parametrize("order", ["dp", "lp"])
def test_hilbert_tables_match_sympy(order):
    ctx = RingContext(VARS, order)
    kind = KINDS.index((order, True))
    finite = 0
    for seed in range(24):
        gens = random_ideal(random.Random(seed * len(KINDS) + kind), ctx, True)
        want = sympy_table(gens, order, 12)
        assert hilbert_table(Ideal(ctx, gens), 12) == want
        finite += not want[1]
    assert finite > 0


def form_sequence(rng, ctx, regular):
    """2-3 forms of degree 1-3 in x, y, z, coefficients n/d with |n| <= 9
    and d <= 4: dense ones, almost always a regular sequence, or else ones
    with a common linear factor, never one."""
    degrees = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]

    def dense(d):
        return ctx.from_dict({
            e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
            for e in itertools.product(range(d + 1), repeat=len(VARS))
            if sum(e) == d
        })

    if regular:
        return [dense(d) for d in degrees]
    common = dense(1)
    return [common * dense(d - 1) for d in degrees]


@pytest.mark.parametrize("order", ["dp", "lp"])
def test_form_sequences_match_sympy(order):
    ctx = RingContext(VARS, order)
    for seed in range(16):
        regular = seed % 2 == 0
        gens = form_sequence(random.Random(f"{order}-{seed}"), ctx, regular)
        basis = buchberger(gens)
        assert canonical(g.terms for g in basis) == sympy_basis(gens, order)
        target = {0: 1}
        for g in gens:
            target = _padd(target, target, g.total_degree(), -1)
        # the dense forms of these seeds are regular sequences
        assert (hilbert_numerator(sympy_leads(gens, order), len(VARS)) == target) == regular
        assert basis.num == (target if regular else None)
