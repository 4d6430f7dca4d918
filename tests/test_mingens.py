"""Minimal generators from one degree-driven engine run, against a rank reference.

`reference_mingens` decides minimality without a Groebner basis: in degree
d it puts every product m*g of a lower-degree generator into a `RowSpace`,
then the degree-d generators in input order, and keeps a generator iff the
rank grows.  `mingens_degrees` must return the same representatives, in the
same order, on seeded random homogeneous ideals over Q and over Q(i) with
irrational coefficients, in `dp` and `lp`, both when the ideal holds no
Groebner basis and when the run may prune with the one it holds.
"""

import random
from fractions import Fraction

import pytest

import chowlab.groebner as groebner
from chowlab._engine import RowSpace, _irrational
from chowlab.coeff import QQ, ExtField
from chowlab.groebner import (
    Ideal,
    intersect,
    minimal_generators,
)
from chowlab.poly import RingContext, graded_piece_basis
from chowlab.rings import mingens_degrees
from test_kernel_choice import EXT_FIELDS
from test_rowspace import random_coeff, random_form

GAUSS = ExtField("a", [1, 0, 1])  # a^2 + 1


def reference_mingens(ideal, up_to):
    """{degree: representatives} by ranks: a degree-d generator is kept iff
    it lies outside the span of the products of the lower generators and the
    earlier degree-d ones."""
    ctx = ideal.context
    gens = ideal.generators
    table = {}
    for d in range(up_to + 1):
        space = RowSpace(ctx, d)
        lower = [g for g in gens if g.total_degree() < d]
        space.add_multiples([(g, graded_piece_basis(ctx, d - g.total_degree())) for g in lower])
        reps = [g for g in gens if g.total_degree() == d and space.add(g)]
        if reps:
            table[d] = reps
    return table


def check(ideal, up_to):
    table = mingens_degrees(ideal, up_to)
    assert table == reference_mingens(ideal, up_to)
    assert list(table) == sorted(table)
    # the same representatives from a run that prunes with the ideal's basis
    ideal.groebner_basis()
    assert mingens_degrees(ideal, up_to) == table


@pytest.fixture
def pruned(monkeypatch):
    """[skipped pairs, skipped generators, zero reductions] summed over
    every minimal-generator run, leaving out the basis runs (`_Engine.run`):
    the Hilbert-driven bases of complete intersections and the driven
    elimination run of `intersect` go through the same degree loop."""
    total, depth = [0, 0, 0], [0]
    minimal, run = groebner._Engine.minimal, groebner._Engine.run

    def recording(eng, *args):
        out = minimal(eng, *args)
        if not depth[0]:
            for k, n in enumerate([*eng.pruned, len(eng.zeros)]):
                total[k] += n
        return out

    def running(eng, *args):
        depth[0] += 1
        try:
            return run(eng, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(groebner._Engine, "minimal", recording)
    monkeypatch.setattr(groebner._Engine, "run", running)
    return total


def nonzero_coeff(rng, field):
    c = 0
    while c == 0:
        c = random_coeff(rng, field)
    return c


def random_ideal(rng, ctx):
    """Random homogeneous forms of degree 1-4 mixed with scalar and monomial
    multiples of earlier generators and sums of their products, shuffled."""
    gens = []
    for _ in range(rng.randint(2, 7)):
        kind = rng.random()
        if len(gens) > 1 and kind < 0.45:
            g, h = rng.sample(gens, 2)
            d = max(g.total_degree(), h.total_degree()) + rng.randint(0, 1)
            terms = [
                nonzero_coeff(rng, ctx.field) * random_form(rng, ctx, d - f.total_degree(), 1) * f
                for f in (g, h)
                if rng.random() < 0.8
            ]
            gens.append(sum(terms, ctx.zero))
        elif gens and kind < 0.7:
            g = rng.choice(gens)
            m = ctx.monomial(rng.choice(graded_piece_basis(ctx, rng.randint(0, 2))))
            gens.append(nonzero_coeff(rng, ctx.field) * m * g)
        else:
            gens.append(random_form(rng, ctx, rng.randint(1, 4), rng.randint(1, 4)))
    rng.shuffle(gens)
    return Ideal(ctx, gens)


@pytest.mark.parametrize("field", [QQ, GAUSS], ids=["QQ", "Q(i)"])
@pytest.mark.parametrize("order", ["dp", "lp"])
def test_matches_rank_reference_on_random_ideals(field, order, pruned):
    rng = random.Random(f"{order}-{field}")
    for _ in range(12):
        ctx = RingContext(tuple("wxyz"[: rng.randint(2, 4)]), order, field)
        ideal = random_ideal(rng, ctx)
        if field != QQ:
            assert _irrational(field, ideal.generators)  # so a is an engine variable
        check(Ideal(ctx, ideal.generators), 3)
        check(ideal, 6)
    assert pruned[1]  # the basis let some runs skip generators


@pytest.mark.parametrize("field", [QQ, GAUSS], ids=["QQ", "Q(i)"])
def test_edge_cases(field):
    ctx = RingContext(("x", "y", "z"), "dp", field)
    x, y, z = ctx.gens()
    c = field.gen if field != QQ else Fraction(3, 2)
    # a constant generates the unit ideal: nothing after it is minimal
    unit = Ideal(ctx, [x * y, ctx.const(c), x, ctx.const(5)])
    assert mingens_degrees(unit, 3) == {0: [ctx.const(c)]}
    check(unit, 3)
    # generators above up_to are ignored
    high = Ideal(ctx, [y**5, c * x**2 + y * z, x * y**4])
    assert mingens_degrees(high, 4) == {2: [c * x**2 + y * z]}
    assert mingens_degrees(high, 5) == {2: [c * x**2 + y * z], 5: [y**5, x * y**4]}
    check(high, 4)
    check(high, 5)
    # a repeated generator and its scalar multiple count once
    f = x * y + c * y**2
    rep = Ideal(ctx, [f, x**2, f, 7 * f, z * f])
    assert mingens_degrees(rep, 3) == {2: [f, x**2]}
    check(rep, 3)


def test_irrational_lead_coefficient_is_resolved_in_its_degree():
    # g's lead coefficient a puts a into its engine lead x^2*a; the pair of g
    # with the minimal polynomial m yields the lead x^2, which h needs to
    # reduce to zero, and lies in degree 2 only because a has weight 0
    for field in EXT_FIELDS:
        ctx = RingContext(("x", "y", "z"), "dp", field)
        x, y, z = ctx.gens()
        a = field.gen
        g = a * x**2 + y**2
        h = x**2 + (1 / a) * y**2
        assert minimal_generators([g, h]) == [g]
        assert minimal_generators([g, h, z**2], Ideal(ctx, [g, z**2]).numerator()) == [g, z**2]
        check(Ideal(ctx, [g, h, x * z + a * y * z]), 3)


def test_minimal_generators_checks_its_input():
    ctx = RingContext(("x", "y"), "dp")
    x, y = ctx.gens()
    assert minimal_generators([]) == []
    assert minimal_generators([ctx.zero, x]) == [x]
    with pytest.raises(ValueError, match="non-homogeneous"):
        minimal_generators([x**2 + y])
    other = RingContext(("x", "y"), "lp")
    with pytest.raises(ValueError, match="mixed ring contexts"):
        minimal_generators([x, other.var("y")])


def test_degree_far_beyond_the_generators_is_cheap():
    ctx = RingContext(("x", "y"), "dp")
    x, y = ctx.gens()
    n = 1000000000
    ideal = Ideal(ctx, [x**n, y**3])
    assert mingens_degrees(ideal, n) == {3: [y**3], n: [x**n]}
    assert ideal._gb is None  # no basis is computed for the run
    ideal.groebner_basis()
    assert mingens_degrees(ideal, n) == {3: [y**3], n: [x**n]}


def test_s6_intersection_prunes_with_its_basis(pruned):
    ctx = RingContext(("w", "x", "y", "z"))
    w, x, y, z = ctx.gens()
    i = Ideal(ctx, [
        w * x**4 + 4 * w**4 * y, 4 * x**3 * w + y**4,
        4 * x * y**3 + w**4, 5 * z**5 + 4 * x**4 * z,
    ])
    j = Ideal(ctx, [52 * x**4 * y**3 * z, w * x**4 * z, x**4 * z**2])
    inter = intersect(i, j)  # holds its reduced basis
    table = mingens_degrees(inter, 12)
    assert {d: len(r) for d, r in table.items()} == {6: 1, 9: 2, 10: 1, 12: 1}
    # the degree-11 pair is skipped; the three of degree 10 come before the
    # degree-10 generator covers its lead, so they still reduce to zero
    assert pruned == [1, 0, 3]
    reps = [g for r in table.values() for g in r]
    assert reps == minimal_generators(inter.generators)
