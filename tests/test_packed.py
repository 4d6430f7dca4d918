"""Packed monomials in the Groebner engine, checked against tuple arithmetic.

The seeded cases here always run; `test_packed_hypothesis.py` drives the
same checks from generated inputs when hypothesis is installed.
`reference_normal_form` is the Fraction reducer the library used before
normal forms ran on the fraction-free engine, kept as an independent
oracle.
"""

import random
from fractions import Fraction

import pytest

from chowlab.coeff import QQ, ExtField
from chowlab.groebner import _Engine, _Overflow, _Packing, buchberger, normal_form
from chowlab.poly import Polynomial, RingContext, monomial_key

ORDERS = ("dp", "lp", ("block", 1), ("block", 2), ("block", 3))
FIELDS = (
    QQ,
    ExtField("a", [1, -1, 1]),  # integral: Z[a] coefficients
    ExtField("a", [Fraction(1, 2), 0, 1]),  # not integral: field coefficients
)


def reference_normal_form(f, basis):
    """Reduce each leading term by the first basis element that divides it,
    with field arithmetic on exponent tuples and tuple order keys."""
    ctx = f.ctx
    key = ctx.key
    ents = [(g.leading_monomial(), g.leading_coeff(), g.terms) for g in basis if g]
    rest = list(f.terms)
    out = []
    while rest:
        e, c = rest[0]
        red = None
        for lm, lc, terms in ents:
            if all(a <= b for a, b in zip(lm, e)):
                red = (lm, lc, terms)
                break
        if red is None:
            out.append((e, c))
            rest.pop(0)
            continue
        lm, lc, terms = red
        factor = c / lc
        bterms = []
        for te, tc in terms:
            e2 = tuple(a + (x - y) for a, x, y in zip(te, e, lm))
            bterms.append((key(e2), e2, tc * factor))
        arest = [(key(te), te, tc) for te, tc in rest]
        merged = []
        i = j = 0
        while i < len(arest) and j < len(bterms):
            ka, kb = arest[i][0], bterms[j][0]
            if ka > kb:
                merged.append(arest[i])
                i += 1
            elif kb > ka:
                t = bterms[j]
                merged.append((t[0], t[1], -t[2]))
                j += 1
            else:
                cc = arest[i][2] - bterms[j][2]
                if cc:
                    merged.append((ka, arest[i][1], cc))
                i += 1
                j += 1
        merged.extend(arest[i:])
        for t in bterms[j:]:
            merged.append((t[0], t[1], -t[2]))
        rest = [(te, tc) for _, te, tc in merged]
    return Polynomial(ctx, tuple(out))


# -- checks shared with the hypothesis module --------------------------------


def check_key_order(order, a, b, width=8):
    pk = _Packing(order, len(a), width)
    (ka, wa), (kb, wb) = pk.pack(a), pk.pack(b)
    ta, tb = monomial_key(order, a), monomial_key(order, b)
    assert (ka > kb) == (ta > tb) and (ka == kb) == (ta == tb)
    assert pk.unpack(wa) == tuple(a)
    if sum(a) + sum(b) <= pk.limit:
        # both encodings are linear in the exponents
        assert pk.pack(tuple(x + y for x, y in zip(a, b))) == (ka + kb, wa + wb)


def check_divisibility(a, b, width=8):
    pk = _Packing("dp", len(a), width)
    if max(sum(a), sum(b)) > pk.limit:
        with pytest.raises(_Overflow):
            pk.pack(a if sum(a) > pk.limit else b)
        return
    wa, wb = pk.pack(a)[1], pk.pack(b)[1]
    divides = ((wb | pk.guard) - wa) & pk.guard == pk.guard
    assert divides == all(x <= y for x, y in zip(a, b))


def check_normal_form(f, basis):
    got = normal_form(f, basis)
    want = reference_normal_form(f, basis)
    assert got.terms == want.terms
    assert [type(c) for _, c in got.terms] == [type(c) for _, c in want.terms]


def random_poly(rng, ctx, nterms, maxexp):
    d = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxexp) for _ in range(ctx.nvars))
        if ctx.field == QQ:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        else:
            c = ctx.field.element(
                [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)]
            )
        d[e] = d.get(e, 0) + c
    return ctx.from_dict(d)


# -- seeded cases -------------------------------------------------------------


def test_key_order_matches_monomial_key():
    rng = random.Random(7)
    for order in ORDERS:
        for _ in range(300):
            a = tuple(rng.randint(0, 30) for _ in range(4))
            b = tuple(rng.choice((x, rng.randint(0, 30))) for x in a)
            check_key_order(order, a, b)


def test_key_order_at_the_field_limit():
    # degree 127 is the largest an 8-bit field holds
    for order in ORDERS:
        check_key_order(order, (127, 0, 0, 0), (0, 0, 0, 127))
        check_key_order(order, (0, 127, 0, 0), (1, 125, 0, 1))
        check_key_order(order, (60, 0, 67, 0), (60, 1, 66, 0))


def test_guard_divisibility_matches_tuples():
    rng = random.Random(8)
    for _ in range(2000):
        a = tuple(rng.randint(0, 40) for _ in range(4))
        b = tuple(x + rng.randint(-3, 40) if rng.random() < 0.5 else x for x in a)
        b = tuple(max(0, x) for x in b)
        check_divisibility(a, b)
    # exponents wider than one field never pack: the engine restarts wider
    check_divisibility((128, 0, 0, 0), (200, 0, 0, 0))
    check_divisibility((0, 0, 0, 1), (127, 0, 0, 0))


def test_normal_form_matches_fraction_reducer():
    rng = random.Random(9)
    for trial in range(150):
        field, order = FIELDS[trial % 3], ORDERS[trial % 4]
        ctx = RingContext(("x", "y", "z"), order, field)
        # arbitrary generators: mostly not Groebner bases
        basis = [
            random_poly(rng, ctx, rng.randint(1, 4), rng.randint(1, 3))
            for _ in range(rng.randint(0, 4))
        ]
        if field == QQ and trial % 2 and len(basis) <= 2:
            basis = buchberger(basis)
        check_normal_form(random_poly(rng, ctx, rng.randint(0, 8), 5), basis)


def test_normal_form_is_exact_on_non_groebner_bases():
    ctx = RingContext(("x", "y"), "dp")
    x, y = ctx.gens()
    # (x*y - 1, x^2 - y) is not a Groebner basis; the reducer order matters
    f = 3 * x**2 * y + Fraction(1, 2) * x
    for basis in ([x * y - 1, x**2 - y], [x**2 - y, x * y - 1]):
        check_normal_form(f, basis)
    assert normal_form(f, [x * y - 1, x**2 - y]) == 3 * x + Fraction(1, 2) * x
    assert normal_form(f, [x**2 - y, x * y - 1]) == 3 * y**2 + Fraction(1, 2) * x


def test_wide_exponents_restart_with_wider_fields():
    ctx = RingContext(("x", "y"), "lp")
    x, y = ctx.gens()
    # y^2000 needs more than the 10-bit fields chosen from the input degree
    assert normal_form(x**200, [x - y**10]) == y**2000
    check_normal_form(x**200 + y, [x - y**10])
    ctx3 = RingContext(("x", "y", "z"), "lp")
    x, y, z = ctx3.gens()
    assert buchberger([x - y**100, x**3 - z]) == [x - y**100, y**300 - z]


def test_packing_width_does_not_change_the_run():
    ctx = RingContext(("w", "x", "y", "z"), ("block", 2))
    w, x, y, z = ctx.gens()
    gens = [w**3 - x * y * z, x**2 * z - w * y**2, y**4 - z * w**3 + x]
    narrow = _Engine(ctx, 8).run(gens)
    wide = _Engine(ctx, 40).run(gens)
    assert narrow == wide == buchberger(gens)
