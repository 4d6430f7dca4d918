"""The Groebner engine's row space, checked against field-division elimination.

The seeded cases here always run; `test_rowspace_hypothesis.py` drives the
same checks from generated inputs when hypothesis is installed.
`reference_rank` is the field-division elimination the rank oracle used over
Q[a] before every rank ran on the fraction-free engine, kept as an
independent oracle: it shares no arithmetic with `groebner`.
"""

import random
from fractions import Fraction

from chowlab.coeff import QQ, ExtField
from chowlab.groebner import Ideal, RowSpace
from chowlab.poly import RingContext, graded_piece_basis
from chowlab.rings import linalg_oracle

FIELDS = (
    QQ,
    ExtField("a", [1, -1, 1]),  # integral: Z[a] coefficients
    ExtField("a", [Fraction(-1, 2), 0, 1]),  # not integral: b = 2a is
)


def reference_rank(polys):
    """Rank of the coefficient rows of the polynomials: largest-monomial
    pivoting on {exponent: coefficient} dicts, monic pivots, field division."""
    pivots = {}
    for p in polys:
        key = p.ctx.key
        row = dict(p.terms)
        while row:
            lead = max(row, key=key)
            prow = pivots.get(lead)
            if prow is None:
                inv = 1 / row[lead]
                pivots[lead] = {e: v * inv for e, v in row.items()}
                break
            c = row[lead]
            for e, v in prow.items():
                nv = row.get(e, 0) - c * v
                if nv == 0:
                    row.pop(e, None)
                else:
                    row[e] = nv
    return len(pivots)


# -- checks shared with the hypothesis module --------------------------------


def check_rank(ctx, d, rows):
    """RowSpace.add reports growth exactly when the reference rank grows."""
    space = RowSpace(ctx, d)
    for i, p in enumerate(rows):
        grew = reference_rank(rows[: i + 1]) > reference_rank(rows[:i])
        assert space.add(p) == grew, i
    assert space.rank == reference_rank(rows)


def check_multiples(ctx, d, gens):
    """add_multiples spans the products m*g of degree d, in any order."""
    multiples, products = [], []
    for g in gens:
        ms = graded_piece_basis(ctx, d - g.total_degree())
        multiples.append((g, ms))
        products += [ctx.monomial(m) * g for m in ms]
    space = RowSpace(ctx, d)
    space.add_multiples(multiples)
    assert space.rank == reference_rank(products)


def random_coeff(rng, field):
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return field.element(
        [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)]
    )


def random_form(rng, ctx, d, nterms):
    """A homogeneous polynomial of degree d with up to nterms terms."""
    monos = graded_piece_basis(ctx, d)
    terms = {}
    for _ in range(nterms):
        terms[rng.choice(monos)] = random_coeff(rng, ctx.field)
    return ctx.from_dict(terms)


def dependent_rows(rng, ctx, rows, count):
    """Combinations of the rows, scaled by a large content and denominator,
    so they reduce to zero only once the content is stripped."""
    field = ctx.field
    out = []
    for _ in range(count):
        combo = ctx.zero
        for p in rows:
            combo = combo + random_coeff(rng, field) * p
        scale = Fraction(2**61 * 3**40 * rng.randint(1, 99), 7**20)
        if field != QQ:
            scale = scale * (field.gen + rng.randint(1, 5))
        out.append(combo * scale)
    return out


# -- seeded cases -------------------------------------------------------------


def test_rank_matches_field_division():
    rng = random.Random(11)
    for trial in range(60):
        field = FIELDS[trial % 3]
        ctx = RingContext(("x", "y", "z"), "dp", field)
        d = rng.randint(1, 4)
        nrows = rng.randint(1, 12)
        rows = [random_form(rng, ctx, d, rng.randint(1, 6)) for _ in range(nrows)]
        rows += dependent_rows(rng, ctx, rows, 3)
        rows.insert(rng.randint(0, len(rows)), ctx.zero)
        rng.shuffle(rows)
        check_rank(ctx, d, rows)


def test_long_reductions_strip_content():
    # a combination of 12 dense rows takes more than 8 reduction steps, so
    # the content strip inside a reduction runs before the row cancels
    rng = random.Random(12)
    for field in FIELDS:
        ctx = RingContext(("x", "y", "z"), "dp", field)
        rows = [random_form(rng, ctx, 4, 15) for _ in range(12)]
        check_rank(ctx, 4, rows + dependent_rows(rng, ctx, rows, 4))


def test_zero_and_scaled_rows_never_grow_the_rank():
    for field in FIELDS:
        ctx = RingContext(("x", "y"), "dp", field)
        x, y = ctx.gens()
        space = RowSpace(ctx, 2)
        assert not space.add(ctx.zero)
        assert space.add(6 * x**2 + 4 * x * y)
        assert not space.add(Fraction(9, 5) * x**2 + Fraction(6, 5) * x * y)
        assert not space.add(ctx.zero)
        assert space.add(x * y) and space.add(y**2)
        assert not space.add(x**2)
        assert space.rank == 3


def test_multiples_match_field_division():
    rng = random.Random(13)
    for trial in range(30):
        field = FIELDS[trial % 3]
        ctx = RingContext(("x", "y", "z"), "dp", field)
        gens = [random_form(rng, ctx, rng.randint(1, 3), 3) for _ in range(3)]
        gens = [g for g in gens if g]
        check_multiples(ctx, rng.randint(3, 5), gens)


def test_linalg_oracle_on_every_field():
    for field in FIELDS:
        ctx = RingContext(("x", "y", "z"), "dp", field)
        x, y, z = ctx.gens()
        c = field.gen if field != QQ else Fraction(1, 3)
        gens = [x**2 - c * y * z, y**2 + x * z, z**3 - c * x**3]
        for d in range(6):
            products = [
                ctx.monomial(m) * g
                for g in gens
                if g.total_degree() <= d
                for m in graded_piece_basis(ctx, d - g.total_degree())
            ]
            want = len(graded_piece_basis(ctx, d)) - reference_rank(products)
            assert linalg_oracle(Ideal(ctx, gens), d) == want, (field, d)
