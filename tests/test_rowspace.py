"""The Groebner engine's row space, checked against field-division elimination.

The seeded cases here always run; `test_rowspace_hypothesis.py` drives the
same checks from generated inputs when hypothesis is installed.
`reference_rank` is the field-division elimination the rank oracle used over
Q[a] before every rank ran on the fraction-free engine, kept as an
independent oracle: it shares no arithmetic with `groebner`.  The rank
oracle skips the products that a Koszul syzygy predicts; the checks below
compare its rank with the reference rank of every product.
"""

import hashlib
import random
from fractions import Fraction
from math import gcd

from chowlab import _engine
from chowlab._engine import RowSpace, _primitive
from chowlab.coeff import QQ, ExtField
from chowlab.groebner import Ideal
from chowlab.poly import RingContext, graded_piece_basis
from chowlab.rings import _ideal_space, jacob, linalg_oracle

FIELDS = (
    QQ,
    ExtField("a", [1, -1, 1]),  # integral: Z[a] coefficients
    ExtField("a", [Fraction(-1, 2), 0, 1]),  # not integral: b = 2a is
)
ORDERS = ("dp", "lp", ("block", 1))


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


def all_products(ctx, d, gens):
    """Every product m*g of degree d, m a monomial."""
    return [
        ctx.monomial(m) * g
        for g in gens
        if g.total_degree() <= d
        for m in graded_piece_basis(ctx, d - g.total_degree())
    ]


def check_ideal_space(ctx, d, gens):
    """The pruned products of the rank oracle span what all products span."""
    ideal = Ideal(ctx, gens)
    want = reference_rank(all_products(ctx, d, ideal.generators))
    assert _ideal_space(ideal, d).rank == want, (ctx.order, d)
    assert linalg_oracle(ideal, d) == len(graded_piece_basis(ctx, d)) - want


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
    # a combination of 12 dense rows takes many reduction steps, and its
    # remainders keep their content while they wait, until the row cancels
    rng = random.Random(12)
    for field in FIELDS:
        ctx = RingContext(("x", "y", "z"), "dp", field)
        rows = [random_form(rng, ctx, 4, 15) for _ in range(12)]
        check_rank(ctx, 4, rows + dependent_rows(rng, ctx, rows, 4))


def test_pivot_leads_are_rational_over_extensions():
    # over Q[a] a row goes in as its rows a^j * p over Q, so every pivot
    # coefficient, its lead too, is a rational integer: a reduction
    # multiplies the row by an integer and the content strip keeps the
    # coefficients small; irrational pivot leads, as in a Z[a] elimination
    # without that scaling, piled up about 9000 bits on these products
    F = Fraction
    for field in FIELDS[1:]:
        ctx = RingContext(("w", "x", "y", "z"), "lp", field)
        w, x, y, z = ctx.gens()
        a = field.gen
        gens = [
            2 * w * x + (2 * a + 1) * w * z + (F(5, 2) * a + 1) * x * y + (F(5, 3) - a) * y * z,
            (F(5, 3) * a - F(5, 3)) * x + (F(4, 3) * a + F(3, 2)) * y - a * z,
            (8 * a + 4) * w * x + (8 * a - 6) * w * z + (9 * a - 8) * x * y
            + (F(14, 3) * a + F(22, 3)) * y * z,
        ]
        space = RowSpace(ctx, 4)
        space.add_multiples([(g, graded_piece_basis(ctx, 4 - g.total_degree())) for g in gens])
        assert space.rank == reference_rank(all_products(ctx, 4, gens))
        for _, _, cs in space.pivots.values():
            assert all(type(c) is int for c in cs)
            assert max(abs(c) for c in cs).bit_length() < 100


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


def test_one_space_through_every_path():
    # add_multiples, add, an irrational add, which re-keys the rational
    # pivots with a, and add_multiples again all go through one elimination
    F = Fraction
    for field in FIELDS:
        ctx = RingContext(("x", "y", "z"), "dp", field)
        x, y, z = ctx.gens()
        c = field.gen if field != QQ else F(7, 2)
        space, rows = RowSpace(ctx, 4), []

        def multiples(gens):
            batch = [(g, graded_piece_basis(ctx, 4 - g.total_degree())) for g in gens]
            space.add_multiples(batch)
            rows.extend(ctx.monomial(m) * g for g, ms in batch for m in ms)
            assert space.rank == reference_rank(rows)

        def add(p, grows):
            before = reference_rank(rows)
            rows.append(p)
            assert reference_rank(rows) == before + grows
            assert space.add(p) is grows
            assert space.rank == reference_rank(rows)

        g1, g2 = x**2 - F(1, 3) * y * z, y**2 + 5 * x * z
        multiples([g1, g2])
        add(F(9, 4) * x * y * g1 - 6 * z**2 * g2, False)
        add(x**3 * y + 2 * y * z**3, True)
        add(3 * z**4 - F(5, 7) * x * y**3, True)
        add(4 * x**3 * y + 8 * y * z**3 + z**2 * g2, False)
        add(c * z**4 + x * z**3, True)
        assert space.eng.ext is (field != QQ)
        add(c * x**2 * g2 + (c + 1) * z**4 + c * x * z**3, False)
        multiples([z**3 + c * x * y**2, x * y * z - c * z**3])
        add(y * z**3, False)


def s5_jacobian(field, c):
    """The Jacobian ideal of w^5 + z^5 + xy^4 + x^4y + c*zwK over the field."""
    ctx = RingContext(("w", "x", "y", "z"), "dp", field)
    w, x, y, z = ctx.gens()
    k = w**2 * x + w * x * y + w * y**2 + y**3 + w * x * z
    return jacob(w**5 + z**5 + x * y**4 + x**4 * y + c * z * w * k, "full")


def test_shortest_pivots_on_the_s5_jacobian():
    # the products go in together, one leading monomial at a time, with the
    # shortest row as pivot: 4003 pivot terms here, against 4071 with the
    # first row at each lead and 11324 when each product in turn is
    # top-reduced by the pivots so far
    space = _ideal_space(s5_jacobian(QQ, 1), 13)
    assert space.rank == 560
    assert sum(len(keys) for keys, _, _ in space.pivots.values()) == 4003


def pivot_digest(space):
    """sha256 of every pivot as its (exponent vector, coefficient) pairs in
    stored order, the pivots sorted by lead: the digest reads no key, so it
    does not depend on how the keys are stored."""
    unpack = space.eng.pk.unpack
    pivots = sorted(
        tuple((unpack(w), c) for w, c in zip(ws, cs)) for _, ws, cs in space.pivots.values()
    )
    return hashlib.sha256(repr(pivots).encode()).hexdigest()


def test_pivots_are_pinned_byte_for_byte():
    # the elimination's arithmetic is cf * row - cg * pivot and a content
    # strip, with the shortest waiting row as each new pivot; any change to
    # it, or to the rows' order, shows here
    field = ExtField("a", [1, -1, 1])
    cases = [
        (
            s5_jacobian(QQ, 1),
            13,
            560,
            "fbe9bcbed77e6a4c9e59df1a608831b7f30d6fbf00bb6aba53d78a4d66b0d63b",
        ),
        (
            s5_jacobian(field, field.gen),
            9,
            200,
            "26a03bc589ba21c4649e062be560373549bf9729b9991510e0a28a61a8b75833",
        ),
    ]
    for ideal, d, rank, want in cases:
        space = _ideal_space(ideal, d)
        assert space.rank == rank
        assert pivot_digest(space) == want, d


def check_pivots(space, rows=()):
    """Each pivot is keyed by its first stored key, its negated keys strictly
    ascend, each word packs to its key, and its coefficients are primitive,
    nonzero and led by a positive one; each lies in the span of the rows,
    if given."""
    eng = space.eng
    pk = eng.pk
    for lead, (ks, ws, cs) in space.pivots.items():
        assert lead == ks[0] and len(ks) == len(ws) == len(cs)
        assert all(a < b for a, b in zip(ks, ks[1:]))
        assert [-pk.pack(pk.unpack(w))[0] for w in ws] == ks
        assert cs[0] > 0 and gcd(*cs) == 1 and 0 not in cs
        if rows:
            p = eng._poly_out(list(zip(ks, ws, cs)), 1)
            assert reference_rank(rows + [p]) == reference_rank(rows)


def test_in_place_reduction_edge_cases():
    # each case adds its rows one at a time; its name says what a reduction
    # of a row by a pivot does there, in (x, y, z) "dp", where
    # x^2 > xy > xz > y^2 > yz > z^2
    for field in FIELDS:
        ctx = RingContext(("x", "y", "z"), "dp", field)
        x, y, z = ctx.gens()
        c = field.gen if field != QQ else Fraction(7, 2)
        cases = {
            "a pivot term past the row's last term is appended": [
                (x**2 + z**2, True),
                (x**2 + x * y, True),
            ],
            "an interior term cancels": [
                (x**2 + y**2, True),
                (x**2 + x * y + y**2 + z**2, True),
            ],
            "the row vanishes": [
                (2 * x**2 + 3 * y * z, True),
                (4 * x**2 + 6 * y * z, False),
                (x * y + z**2, True),
                (x**2 + x * y + Fraction(3, 2) * y * z + z**2, False),
            ],
            "the new lead is negative before the strip": [
                (x**2 + x * y, True),
                (x**2 + y * z, True),
            ],
            "cf is not 1": [
                (2 * x**2 + y**2, True),
                (x**2 + x * z + y * z, True),
            ],
            "an irrational row after rational ones": [
                (x**2 + x * y, True),
                (y**2 - 3 * z**2, True),
                (c * x**2 + c * x * y, False),
                (c * x * z + z**2, True),
                (x**2 + x * z + y**2 - 3 * z**2, True),
                (c * y**2 - 3 * c * z**2 + c * c * x * z + c * z**2, False),
            ],
        }
        for name, steps in cases.items():
            space, rows = RowSpace(ctx, 2), []
            for p, grows in steps:
                rows.append(p)
                assert space.add(p) is grows, (field, name, p)
                assert space.rank == reference_rank(rows), (field, name, p)
                check_pivots(space, rows)
        assert space.eng.ext is (field != QQ)
        # a product given twice is two rows, reduced in place one against
        # the other, so neither may share its lists with the other
        space, g = RowSpace(ctx, 2), x**2 + c * y * z
        space.add_multiples([(g, [(0, 0, 0), (0, 0, 0)]), (x + y, [(1, 0, 0), (0, 0, 1)])])
        rows = [g, g, x**2 + x * y, x * z + y * z]
        assert space.rank == reference_rank(rows) == 3
        check_pivots(space, rows)
        check_pivots(_ideal_space(s5_jacobian(field, c), 8))


def test_large_leads_are_stripped_and_every_pivot_at_install(monkeypatch):
    # a remainder keeps its content while it waits, unless its lead passes
    # _STRIP_BITS; the row that becomes a pivot is always stripped.  G puts
    # the first remainders' leads far above the threshold, and the third
    # remainder waits with content 6 and a negative lead until it is a pivot
    # in (x, y, z) "dp", where x^2 > xy > xz > y^2 > yz > z^2
    strips = []

    def primitive(cs):
        out = _primitive(cs)
        strips.append((cs[0].bit_length() > _engine._STRIP_BITS, out is not cs, out))
        return out

    monkeypatch.setattr(_engine, "_primitive", primitive)
    G = 2 ** (4 * _engine._STRIP_BITS)
    for field in FIELDS:
        ctx = RingContext(("x", "y", "z"), "dp", field)
        x, y, z = ctx.gens()
        c = field.gen if field != QQ else Fraction(7, 2)
        steps = [
            (x**2 + x * y, True),
            # 6G * (xy + yz) waits at xy, stripped, and is the pivot there
            (x**2 + (1 + 6 * G) * x * y + 6 * G * y * z, True),
            # G * (xy + yz), stripped, cancels against that pivot
            ((G + 1) * x**2 + (2 * G + 1) * x * y + G * y * z, False),
            # -6 * (xz - 2z^2) waits unstripped and is the pivot at xz
            (x**2 + x * y - 6 * x * z + 12 * z**2, True),
            (c * G * y**2 + x * z + G * z**2, True),
            (G * x * z + c * G**2 * y**2 + G**2 * z**2, False),
            (c * (G * y * z + 3 * z**2) - 2 * y**2, True),
        ]
        space, rows = RowSpace(ctx, 2), []
        strips.clear()
        for p, grows in steps:
            rows.append(p)
            assert space.add(p) is grows, (field, p)
            assert space.rank == reference_rank(rows), (field, p)
            check_pivots(space, rows)
        assert space.eng.ext is (field != QQ)
        # a large lead was stripped from a row that then went on, not into
        # a pivot, and a row with a small lead was stripped at install
        pivot_cs = [cs for _, _, cs in space.pivots.values()]
        assert any(
            large and stripped and all(out is not cs for cs in pivot_cs)
            for large, stripped, out in strips
        ), field
        assert any(not large and stripped for large, stripped, _ in strips), field


# -- Koszul pruning of the rank oracle's products ------------------------------


def pruning_cases(ctx):
    x, y, z = ctx.gens()
    c = ctx.field.gen if ctx.field != QQ else Fraction(2, 3)
    return {
        "constant": [x * y + c * z**2, ctx.const(3), y**2 - x * z],
        "duplicates": [x**2 - c * y * z, x**2 - c * y * z, 2 * (x**2 - c * y * z), y * z],
        "lead divides a later lead": [x + c * y, x**2 + y * z, x * y - z**2, y + z],
        "mixed degrees": [x**3 + c * y * z**2, y - z, x * z + y**2],
        "degree above d": [x**6 + c * y**6, z**3 - x * y**2, x**2 + y * z],
        "not regular": [x * y, x * z, y * z],
    }


def test_pruned_products_keep_the_span():
    for field in FIELDS:
        for order in ORDERS:
            ctx = RingContext(("x", "y", "z"), order, field)
            for gens in pruning_cases(ctx).values():
                for d in range(6):
                    check_ideal_space(ctx, d, gens)


def test_pruned_products_on_random_generators():
    rng = random.Random(14)
    for trial in range(27):
        field, order = FIELDS[trial % 3], ORDERS[trial // 3 % 3]
        ctx = RingContext(("x", "y", "z"), order, field)
        gens = [random_form(rng, ctx, rng.randint(0, 3), 3) for _ in range(4)]
        gens.insert(rng.randint(0, 3), rng.choice(gens) * random_coeff(rng, field))
        check_ideal_space(ctx, rng.randint(2, 5), gens)


def product_counts(monkeypatch, ideal, d):
    """(products passed to RowSpace.add_multiples, rank) of _ideal_space."""
    counts = []
    add_multiples = RowSpace.add_multiples

    def counting(self, multiples):
        counts.append(sum(len(ms) for _, ms in multiples))
        return add_multiples(self, multiples)

    monkeypatch.setattr(RowSpace, "add_multiples", counting)
    rank = _ideal_space(ideal, d).rank
    monkeypatch.undo()
    return counts[0], rank


def test_koszul_pruning_counts(monkeypatch):
    s5 = s5_jacobian(QQ, 1)
    # 4 generators of degree 4 times 220 monomials of degree 9 make 880
    assert product_counts(monkeypatch, s5, 13) == (590, 560)
    # xy, xz, yz: the syzygies z*xy - y*xz and z*xy - x*yz are not Koszul
    ctx = RingContext(("x", "y", "z"))
    x, y, z = ctx.gens()
    assert product_counts(monkeypatch, Ideal(ctx, [x * y, x * z, y * z]), 3) == (9, 7)
