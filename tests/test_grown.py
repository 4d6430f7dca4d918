"""Grown ideals: a basis that starts from the cached basis of a smaller ideal."""

import random

import pytest

from chowlab import groebner
from chowlab.coeff import QQ, ExtField
from chowlab.groebner import Ideal, buchberger
from chowlab.poly import RingContext
from chowlab.rings import jacob
from test_kernel_choice import ALL_FIELDS, rational_form, unit
from test_rowspace import ORDERS, random_form


def check_grown(base_gens, extra):
    """A grown ideal keeps its generators, and its basis, grown from the
    base's cached basis, is the reduced basis of all of them."""
    ctx = base_gens[0].ctx
    base = Ideal(ctx, base_gens)
    base.groebner_basis()
    grown = Ideal(ctx, base_gens + extra, base=base)
    assert grown.generators == Ideal(ctx, base_gens + extra).generators
    assert list(grown.groebner_basis()) == buchberger(base_gens + extra)


def forms(rng, ctx, irrational, count):
    """count seeded forms of degree 1-3, with an irrational coefficient
    each if irrational (over Q: a rational multiple)."""
    out = []
    for _ in range(count):
        d = rng.randint(1, 3)
        f = random_form(rng, ctx, d, 3) if irrational else rational_form(rng, ctx, d, 3)
        out.append(unit(ctx.field) * f if irrational else f)
    return [f for f in out if f]


def test_grown_basis_is_the_basis_of_all_generators():
    # every field and order, each of the four mixes of a rational or
    # irrational base and added generators
    rng = random.Random(2201)
    for trial in range(48):
        field = ALL_FIELDS[trial % 4]
        ctx = RingContext(("x", "y", "z"), ORDERS[trial % 3], field)
        base = forms(rng, ctx, trial // 4 % 2 == 1, 2)
        extra = forms(rng, ctx, trial // 8 % 2 == 1, rng.randint(1, 2))
        if base:
            check_grown(base, extra)


def s5_ideals():
    """The Jacobian ideal of the s5 quintic over Q[a]/(a^2-a+1) and the
    class N*P*K that `s5-hilbert` adds to it."""
    field = ExtField("a", [1, -1, 1])
    a = field.gen
    ctx = RingContext(("w", "x", "y", "z"), field=field)
    w, x, y, z = ctx.gens()
    K = w**2 * x + w * x * y + w * y**2 + y**3 + w * x * z
    i = jacob(w**5 + z**5 + x * y**4 + x**4 * y + z * w * K, "full")
    P = ctx.const(a + 1) * y**3 + ctx.const(a * (a + 1)) * x**2 * y
    return ctx, i, z * w * K * P * K


def test_grown_run_skips_the_pairs_of_the_base(monkeypatch):
    ctx, i, npk = s5_ideals()
    gb = i.groebner_basis()  # rational, so run over Q
    zeros = []
    real = groebner._Engine.run

    def counting(eng, *args):
        out = real(eng, *args)
        zeros.append(len(eng.zeros))
        return out

    monkeypatch.setattr(groebner._Engine, "run", counting)
    # the same generators, the base's basis first, with its pairs reduced
    seeded = buchberger(list(gb) + [npk])
    grown = Ideal(ctx, list(i.generators) + [npk], base=i).groebner_basis()
    assert list(grown) == seeded and len(grown) == 55
    # the plain run takes its 56 generators in degree order among the
    # pairs, so the pairs of the low-degree base elements rebuild most of
    # the higher ones: 104 pairs reduce to zero, and 51 base elements then
    # reduce to zero as generators, which eng.zeros does not count; the
    # grown run drops every pair among the 55 and m
    assert zeros == [104, 9]


def test_uncached_base_runs_from_the_generators(monkeypatch):
    ctx = RingContext(("x", "y", "z"), "dp", QQ)
    x, y, z = ctx.gens()
    base = Ideal(ctx, [x**2 - y * z, y**2 - x * z])
    grown = Ideal(ctx, list(base.generators) + [z**3], base=base)
    calls = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda gens: calls.append(gens) or real(gens))
    gb = grown.groebner_basis()
    assert calls == [list(grown.generators)]
    # the base's basis is still not computed, and nothing holds the base
    assert base._gb is None and grown._base is None
    assert list(gb) == real([x**2 - y * z, y**2 - x * z, z**3])


def test_base_generators_must_lead():
    ctx = RingContext(("x", "y"), "dp", QQ)
    x, y = ctx.gens()
    base = Ideal(ctx, [x**2, y])
    with pytest.raises(ValueError):
        Ideal(ctx, [y, x**2], base=base)


def test_every_run_inserts_in_degree_order(monkeypatch):
    # generators and S-polynomials alike go in through one degree loop, so
    # the degrees a run inserts never fall; a grown run's known basis goes
    # in first, and after it the same holds.  Seven generators in three
    # variables, so no complete-intersection run is tried.
    degrees = []
    real = groebner._Engine._insert

    def recording(eng, terms):
        if terms:  # an S-polynomial may cancel outright
            degrees.append(terms[0][1] >> eng.pk.deg_shift)
        return real(eng, terms)

    field = ExtField("a", [1, -1, 1])
    for coeff in (1, field.gen):
        ctx = RingContext(("x", "y", "z"), "dp", field)
        x, y, z = ctx.gens()
        gens = [
            x**3 - y * z**2, x * y - z**2, ctx.const(coeff) * y**4 + x * z**3,
            x**2 - y * z, y**2 * z - x**3, z**5 + x * y**4, x * z**2 + y**3,
        ]
        expected, base = buchberger(gens), Ideal(ctx, gens[:4])
        known = len(base.groebner_basis())
        monkeypatch.setattr(groebner._Engine, "_insert", recording)
        for ideal, skip in ((Ideal(ctx, gens), 0), (Ideal(ctx, gens, base=base), known)):
            degrees.clear()
            assert list(ideal.groebner_basis()) == expected
            assert degrees[skip:] == sorted(degrees[skip:]) and len(degrees) > len(gens)
        monkeypatch.undo()
