"""The generator a is an engine variable exactly when the data need it.

A job whose coefficients are all rational runs without a even in a Q[a]
ring; one with an irrational coefficient carries a as one more variable,
with its minimal polynomial as one more generator.  Scaling the inputs by
the unit a forces the extension variable without any knob, so each check
here compares the two routes on the same ideal: a reduced basis, a normal
form and a rank do not change under a field extension.  The seeded cases
always run; `test_kernel_choice_hypothesis.py` drives the same checks from
generated inputs when hypothesis is installed.
"""

import random
from fractions import Fraction
from math import comb

import pytest

import chowlab.groebner as groebner
from chowlab._engine import RowSpace, _irrational
from chowlab.coeff import QQ, ExtField
from chowlab.groebner import (
    Ideal,
    _packed,
    buchberger,
    intersect,
    minimal_generators,
    normal_form,
    s_polynomial,
)
from chowlab.hilbert import hilbert_numerator
from chowlab.poly import RingContext, graded_piece_basis
from chowlab.rings import graded_dim, graded_intersection_dim
from test_modular import (
    random_pair,
    record_certificates,
    s6_pairs,
)
from test_packed import reference_normal_form
from test_rowspace import FIELDS, ORDERS, check_rank, dependent_rows, random_form

ALL_FIELDS = FIELDS + (ExtField("a", [-2, 0, 0, 1]),)  # plus the cubic a^3 - 2
EXT_FIELDS = ALL_FIELDS[1:]


def unit(field):
    """A unit with a nonzero a-part; over Q a rational one."""
    return field.gen if field != QQ else Fraction(-3, 7)


def rational_form(rng, ctx, d, nterms):
    """A homogeneous polynomial of degree d with rational coefficients."""
    monos = graded_piece_basis(ctx, d)
    terms = {}
    for _ in range(nterms):
        terms[rng.choice(monos)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return ctx.from_dict(terms)


def embed(g, ctx):
    """g, a polynomial over Q, as a polynomial of the ring ctx."""
    return ctx.from_dict(dict(g.terms))


# -- checks shared with the hypothesis module --------------------------------


def check_buchberger(gens):
    u = unit(gens[0].ctx.field)
    assert buchberger([u * g for g in gens]) == buchberger(gens)


def check_normal_form(f, gens):
    basis = buchberger(gens)
    u = unit(f.ctx.field)
    assert normal_form(u * f, basis) == u * normal_form(f, basis)


# -- seeded cases -------------------------------------------------------------


def ring(field):
    return RingContext(("x", "y", "z"), "dp", field)


def test_scaled_generators_give_the_same_basis():
    rng = random.Random(21)
    for trial in range(24):
        ctx = ring(ALL_FIELDS[trial % 4])
        gens = [rational_form(rng, ctx, rng.randint(1, 3), 3) for _ in range(3)]
        gens = [g for g in gens if g]
        if gens:
            check_buchberger(gens)


def test_scaled_normal_form_is_the_scaled_remainder():
    rng = random.Random(22)
    for trial in range(24):
        ctx = ring(ALL_FIELDS[trial % 4])
        gens = [rational_form(rng, ctx, rng.randint(1, 2), 3) for _ in range(2)]
        gens = [g for g in gens if g]
        f = rational_form(rng, ctx, rng.randint(2, 4), 6)
        if gens and f:
            check_normal_form(f, gens)


def test_row_space_takes_on_a_at_the_first_irrational_row():
    rng = random.Random(23)
    for trial in range(24):
        field = ALL_FIELDS[trial % 4]
        ctx = ring(field)
        d = rng.randint(1, 4)
        rational = [rational_form(rng, ctx, d, rng.randint(1, 6)) for _ in range(5)]
        rational += [ctx.zero]
        irrational = [unit(field) * p for p in rational[:2]]
        irrational += dependent_rows(rng, ctx, rational, 2)
        irrational += [random_form(rng, ctx, d, rng.randint(1, 6)) for _ in range(4)]
        irrational += dependent_rows(rng, ctx, rational + irrational, 2)
        # growth is reported exactly when the reference rank grows, on both
        # sides of the switch to the extension variable
        check_rank(ctx, d, rational + irrational)


def irrational_ideals(seed, count=36):
    """Seeded generators over each field of ALL_FIELDS and each order, with
    irrational coefficients in every extension field."""
    rng = random.Random(seed)
    for trial in range(count):
        field = ALL_FIELDS[trial % 4]
        ctx = RingContext(("x", "y", "z"), ORDERS[trial % 3], field)
        gens = [random_form(rng, ctx, rng.randint(2, 3), rng.randint(2, 4)) for _ in range(3)]
        assert _irrational(field, gens) is (field != QQ)
        yield gens


def test_irrational_bases_meet_the_buchberger_criterion():
    # a basis found with a as an engine variable, checked with field
    # arithmetic alone: the generators and every S-polynomial reduce to zero,
    # and the basis is monic and interreduced
    for gens in irrational_ideals(24):
        gb = buchberger(gens)
        for g in gens:
            assert not reference_normal_form(g, gb)
        for i, g in enumerate(gb):
            assert g.leading_coeff() == 1
            assert reference_normal_form(g, gb[:i] + gb[i + 1 :]) == g
            for h in gb[i + 1 :]:
                assert not reference_normal_form(s_polynomial(g, h), gb)


def test_powers_of_a_stay_below_twice_the_degree_of_m(monkeypatch):
    # m reduces first wherever it divides, so every term of every job keeps a
    # power of a below 2 deg m - 1, far inside its packed field, however long
    # the reduction
    excess = []
    real = groebner._Engine.comb

    def recording(eng, *args):
        out = real(eng, *args)
        if eng.ext:
            top = 2 * eng.ctx.field.degree - 2
            excess.append(max([eng.pk.unpack(w)[-1] for _, w, _ in out], default=0) - top)
        return out

    monkeypatch.setattr(groebner._Engine, "comb", recording)
    # the binomial x + a*y sorts before m = a^2 - a + 1 among the reducers;
    # were it tried first, a*x^5 would reduce to a^6*y^5 in the run (lp)
    # and in the final interreduction (dp)
    field = ALL_FIELDS[1]
    a = field.gen
    x, y, z = RingContext(("x", "y", "z"), "lp", field).gens()
    buchberger([x + a * y, a * x**5 + z**5])
    x, y, z = RingContext(("x", "y", "z"), "dp", field).gens()
    buchberger([y**6 + a * x**5 * z, x + a * y])
    for gens in irrational_ideals(25):
        ctx = gens[0].ctx
        x, y, z = ctx.gens()
        f = (x + unit(ctx.field) * y + z) ** 5
        buchberger(gens)
        normal_form(f, gens)
        normal_form(f, gens[::-1])
        if ctx.order == "dp":
            minimal_generators(gens + [g * x for g in gens])
    assert excess and max(excess) <= 0


def carries_a(ctx, polys):
    """True iff a job on these polynomials carries the extension variable."""
    return _packed(ctx, polys, lambda eng: eng.ext)


def test_extension_variable_is_chosen_from_the_coefficients():
    for field in ALL_FIELDS:
        ctx = ring(field)
        x, y, z = ctx.gens()
        rational = [x**2 - Fraction(1, 3) * y * z, y**2 + 5 * x * z]
        irrational = rational + [unit(field) * z**2]
        assert not carries_a(ctx, rational)
        assert carries_a(ctx, irrational) is (field != QQ)

        space = RowSpace(ctx, 2)
        space.add_multiples([(g, [(0, 0, 0)]) for g in rational])
        assert not space.eng.ext
        assert not space.add(unit(field) * rational[0])
        assert space.eng.ext is (field != QQ)
        assert space.add(irrational[-1]) and space.rank == 3


@pytest.mark.parametrize("field", EXT_FIELDS, ids=str)
def test_rational_intersection_in_an_extension_ring(monkeypatch, field):
    certs = record_certificates(monkeypatch)
    a = field.gen
    for seed in range(24):
        i, j = random_pair(seed)
        qctx = i.context
        ctx = RingContext(qctx.variables, qctx.order, field)
        ie = Ideal(ctx, [embed(g, ctx) for g in i.generators])
        je = Ideal(ctx, [embed(g, ctx) for g in j.generators])
        want = [embed(g, ctx) for g in intersect(i, j).generators]
        # the rational pair, and its multiple by the unit a, which is the
        # rational pair once monic: both certified
        for scale in (1, a):
            certs.clear()
            got = intersect(*(Ideal(ctx, [scale * g for g in k.generators]) for k in (ie, je)))
            assert list(got.generators) == want, seed
            assert certs and None not in certs, seed
        if seed < 8:
            # irrational in a non-leading coefficient: the undriven run with
            # a, certified, and (f I) cap (f J) = f (I cap J) in a domain
            x, y = ctx.gens()[:2]
            f = x + a * y
            certs.clear()
            got = intersect(*(Ideal(ctx, [f * g for g in k.generators]) for k in (ie, je)))
            assert len(certs) == 1 and certs[0] is not None, seed
            assert buchberger(list(got.generators)) == buchberger([f * g for g in want]), seed


def irrational_homogeneous_pairs():
    """The s6 pair with 4*w^4*y made 4*a*w^4*y, then f I and f J with
    f = x + a*y for the homogeneous pairs of even seeds below 24, in each
    extension field."""
    field = EXT_FIELDS[0]
    i, j = s6_pairs()[0]
    ctx = RingContext(i.context.variables, i.context.order, field)
    w, y = ctx.var("w"), ctx.var("y")
    f1 = embed(i.generators[0], ctx) + 4 * (field.gen - 1) * w**4 * y
    cases = [(
        Ideal(ctx, [f1] + [embed(g, ctx) for g in i.generators[1:]]),
        Ideal(ctx, [embed(g, ctx) for g in j.generators]),
    )]
    for field in EXT_FIELDS:
        for seed in range(0, 24, 2):
            i, j = random_pair(seed)
            ctx = RingContext(i.context.variables, i.context.order, field)
            x, y = ctx.gens()[:2]
            f = x + field.gen * y
            cases.append(tuple(Ideal(ctx, [f * embed(g, ctx) for g in k.generators]) for k in (i, j)))
    return cases


def test_irrational_intersection_has_the_dimensions_of_the_ranks():
    # a second route: dim (I cap J)_d from the ranks of I_d, J_d and
    # (I+J)_d, with no basis of I cap J, against the standard monomials of
    # the output; and the numerator it carries against that of its leads
    for k, (i, j) in enumerate(irrational_homogeneous_pairs()):
        out = intersect(i, j)
        n = i.context.nvars
        dims = [comb(d + n - 1, n - 1) - graded_dim(out, d).dim_quotient for d in range(5, 11)]
        assert dims == [graded_intersection_dim(i, j, d) for d in range(5, 11)], k
        leads = [g.leading_monomial() for g in out.groebner_basis()]
        assert out.numerator() == hilbert_numerator(leads, n), k
        if k == 0:  # the s6 pair
            assert dims == [0, 1, 4, 10, 22, 41]
