"""The certified path of `intersect`.

A homogeneous pair gets one exact run on its homogenized elimination L,
generated in K[t, h, x] and Hilbert-driven by N_L over Q and over Q[a]
alike, and the t-free slice of that candidate at h = 1 is certified by its
Hilbert series, its interreduction and containment; a refused driven
candidate is followed by the undriven run, whose candidate the certificate
always takes.
`reference_intersect` is the elimination `intersect` ran before it had a
certified path: one fraction-free `buchberger` on t*f and (1-t)*g, the
t-free slice, and the containment check.  A non-homogeneous pair takes the
certified path through the closures of I and J, the homogenizations of
their dp bases (`closure`).  The tests that hand the certificate another
candidate replace the first one `_traced` passes to `_certified`, the
driven one.  The seeded cases here always run; `test_modular_hypothesis.py`
drives the same checks from generated inputs when hypothesis is installed.
"""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction
from operator import add

import pytest

import chowlab.groebner as groebner
from chowlab._engine import _irrational
from chowlab.coeff import ExtField
from chowlab.groebner import Ideal, buchberger, contained, intersect
from chowlab.hilbert import hilbert_dim
from chowlab.poly import RingContext, diff, graded_piece_basis, is_homogeneous
from chowlab.rings import graded_dim

VARS = ("x", "y", "z", "w")


def elimination_generators(i, j):
    """t*f for f in I and (1-t)*g for g in J, in the block order with t first."""
    ctx = i.context
    ctxa = RingContext(("@t",) + ctx.variables, ("block", 1), ctx.field)
    t = ctxa.var("@t")

    def pad(g):
        return ctxa.from_dict({(0,) + e: c for e, c in g.terms})

    gens = [t * pad(f) for f in i.generators]
    return gens + [(ctxa.one - t) * pad(g) for g in j.generators]


def reference_intersect(i, j):
    """Generators of I cap J from one fraction-free elimination."""
    ctx = i.context
    res = [
        ctx.from_dict({e[1:]: c for e, c in g.terms})
        for g in buchberger(elimination_generators(i, j))
        if all(e[0] == 0 for e, _ in g.terms)
    ]
    assert contained(res, i, j)
    return res


def check_intersection(i, j):
    got = intersect(i, j)
    assert [g.terms for g in got.generators] == [
        g.terms for g in reference_intersect(i, j)
    ]
    return got


def random_ideal(rng, ctx, homogeneous, count):
    gens = []
    for _ in range(count):
        deg = rng.randint(1, 2)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            if homogeneous:
                e = [0] * ctx.nvars
                for _ in range(deg):
                    e[rng.randrange(ctx.nvars)] += 1
            else:
                e = [rng.randint(0, 1) for _ in range(ctx.nvars)]
            e = tuple(e)
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            terms[e] = terms.get(e, 0) + c
        gens.append(ctx.from_dict(terms))
    return Ideal(ctx, gens)


def random_pair(seed):
    """A seeded pair over 2-4 variables, homogeneous for even seeds, in an
    lp base ring for every fifth seed."""
    rng = random.Random(seed)
    nvars = 2 + seed % 3
    ctx = RingContext(VARS[:nvars], "lp" if seed % 5 == 4 else "dp")
    homogeneous = seed % 2 == 0
    return (
        random_ideal(rng, ctx, homogeneous, rng.randint(1, 2)),
        random_ideal(rng, ctx, homogeneous, rng.randint(1, 2)),
    )


def record_buchberger(monkeypatch, *ideals):
    """Record the eliminations, the calls in the ring with @t: each is the
    generators t*f and (1-t)*g."""
    for ideal in ideals:
        ideal.groebner_basis()
    calls = []
    real = groebner.buchberger

    def counting(gens, *args, **kwargs):
        if gens and gens[0].ctx.variables[0] == "@t":
            calls.append(list(gens))
        return real(gens, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    return calls


def record_certificates(monkeypatch):
    """The result of every Hilbert-series certificate: the certified slice,
    or None when it was rejected."""
    results = []
    real = groebner._certified

    def recording(cand, *args):
        results.append(real(cand, *args))
        return results[-1]

    monkeypatch.setattr(groebner, "_certified", recording)
    return results


def record_candidates(monkeypatch):
    """Every candidate `_traced` hands to the certificate."""
    cands = []
    real = groebner._certified
    monkeypatch.setattr(
        groebner, "_certified", lambda cand, *args: cands.append(cand) or real(cand, *args)
    )
    return cands


def replace_candidate(monkeypatch, make):
    """Hand the certificate make(cand) in place of the first exact candidate,
    the driven one; the candidate of an undriven rerun goes to it as it is."""
    real = groebner._certified
    seen = []

    def replaced(cand, *args):
        seen.append(cand)
        return real(make(cand) if len(seen) == 1 else cand, *args)

    monkeypatch.setattr(groebner, "_certified", replaced)


def homogeneous(i, j):
    return all(is_homogeneous(g) is not None for g in i.generators + j.generators)


def closure(ideal):
    """The ideal of the homogenizations, by a last variable @p, of the
    elements of the reduced dp basis of the ideal, in a dp ring."""
    ctx = ideal.context
    dp = RingContext(ctx.variables, "dp", ctx.field)
    ctxp = RingContext(ctx.variables + ("@p",), "dp", ctx.field)
    gens = []
    for g in buchberger([dp.from_dict(dict(f.terms)) for f in ideal.generators]):
        d = g.total_degree()
        gens.append(ctxp.from_dict({e + (d - sum(e),): c for e, c in g.terms}))
    return Ideal(ctxp, gens)


def certified_pair(i, j):
    """The pair whose elimination candidate `intersect` certifies: I and J
    if homogeneous, else their closures."""
    return (i, j) if homogeneous(i, j) else (closure(i), closure(j))


def perturb(cand, t_part):
    """cand with one coefficient of its first t-free (or t) element raised by 1."""
    for k, g in enumerate(cand):
        if any(e[0] for e, _ in g.terms) == t_part and len(g.terms) > 1:
            terms = dict(g.terms)
            e = g.terms[-1][0]
            terms[e] += 1
            return cand[:k] + [g.ctx.from_dict(terms)] + cand[k + 1 :]
    raise AssertionError("no element to perturb")


def small_pair():
    ctx = RingContext(("x", "y"), "dp")
    x, y = ctx.gens()
    return Ideal(ctx, [x**2 + y**2 - 1]), Ideal(ctx, [x - y, y**3 + Fraction(1, 3)])


def test_modular_intersection_matches_fraction_free_elimination():
    for seed in range(64):
        check_intersection(*random_pair(seed))


def regression_pair(order):
    """Non-homogeneous pairs in Q[x, y, z] whose elimination in the block
    order (t | x, y, z) blows up: seeded by the modular candidate of an
    earlier version it took about 16 s for the dp pair and about three
    minutes for the lp pair, on a 2-core x86-64 host under CPython 3.11.
    Their closures intersect in well under a second."""
    ctx = RingContext(("x", "y", "z"), order)
    x, y, z = ctx.gens()
    q = Fraction
    if order == "dp":
        return (
            Ideal(ctx, [-q(1, 2) * x**2 * z**2 + q(8, 5) * x * y**2 + 7 * y * z**2,
                        q(1, 2) * x**2 * y * z**2 - 5 * z**2]),
            Ideal(ctx, [-q(7, 5) * x**2 * y**2 + q(2, 3) * x**2 * z**2 + q(3, 5) * x * y * z,
                        q(1, 2) * x**2 * y**2 * z**2 + q(3, 2) * x * y**2 * z - q(1, 5) * x * z]),
        )
    return (
        Ideal(ctx, [-x**2 - q(7, 4) * x * y * z**2 - 4 * y**2 * z,
                    -q(2, 5) * x**2 * y**2 - 9 * x * z]),
        Ideal(ctx, [-3 * x**2 * y * z - q(9, 4) * y**2 + z,
                    -q(7, 2) * x**2 * y**2 * z**2 - q(1, 6) * x * y + 2 * y]),
    )


def test_dp_regression_pair_matches_the_exact_elimination():
    # the unseeded reference elimination of this pair ran past 20 minutes,
    # so the digest pins the output of the exact elimination seeded by the
    # modular candidate of an earlier version and checked by containment,
    # which took about 16 s
    i, j = regression_pair("dp")
    start = time.perf_counter()
    got = intersect(i, j)
    assert time.perf_counter() - start < 10
    terms = repr([g.terms for g in got.generators]).encode()
    assert hashlib.sha256(terms).hexdigest() == (
        "e5f5667d21012984ee4af998c713960bc10dcb7d155244e52528ca4ac5e9585b"
    )
    assert len(got.generators) == 15 and contained(list(got.generators), i, j)


def test_unit_scaled_dp_regression_pair_is_certified_as_the_rational_one(monkeypatch):
    # every generator times the unit a is irrational, so L runs over Q[a];
    # the ideals are the rational pair's, and so is the certified basis,
    # within the rational pair's bound, where the block elimination with a
    # did not finish in 60 s
    field = ExtField("a", [1, -1, 1])
    i, j = regression_pair("dp")
    ctx = RingContext(i.context.variables, "dp", field)
    a = field.gen
    ia, ja = (Ideal(ctx, [a * ctx.from_dict(dict(g.terms)) for g in k.generators]) for k in (i, j))
    certs = record_certificates(monkeypatch)
    start = time.perf_counter()
    got = intersect(ia, ja)
    assert time.perf_counter() - start < 10
    assert len(certs) == 1 and certs[0] is not None
    want = [ctx.from_dict(dict(g.terms)) for g in intersect(i, j).generators]
    assert list(got.generators) == want


def test_irrational_dp_regression_pair_is_certified_in_one_candidate(monkeypatch):
    # 7*y*z^2 made 7*a*y*z^2: the driven run over Q[a] on the closures,
    # where the block elimination with a ran past 120 s on a 2-core x86-64
    # host under CPython 3.11
    field = ExtField("a", [1, -1, 1])
    i, j = regression_pair("dp")
    ctx = RingContext(i.context.variables, "dp", field)
    x, y, z = ctx.gens()
    f1, f2 = (ctx.from_dict(dict(g.terms)) for g in i.generators)
    ia = Ideal(ctx, [f1 + 7 * (field.gen - 1) * y * z**2, f2])
    ja = Ideal(ctx, [ctx.from_dict(dict(g.terms)) for g in j.generators])
    certs = record_certificates(monkeypatch)
    start = time.perf_counter()
    got = intersect(ia, ja)
    assert time.perf_counter() - start < 10
    assert len(certs) == 1 and certs[0] is not None
    assert len(got.generators) == 15 and contained(list(got.generators), ia, ja)
    # I J lies in I cap J
    assert contained([f * g for f in ia.generators for g in ja.generators], got)


def test_lp_regression_pair_computes_no_lp_or_block_basis(monkeypatch):
    # its seeded elimination took about three minutes, too slow for a
    # reference here; the output is checked by containment
    i, j = regression_pair("lp")
    rings = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda gens: rings.append(gens[0].ctx) or real(gens))
    start = time.perf_counter()
    got = intersect(i, j)
    assert time.perf_counter() - start < 10
    assert rings and {ctx.order for ctx in rings} == {"dp"}
    assert len(got.generators) == 20 and contained(list(got.generators), i, j)


def test_unit_and_zero_ideals():
    ctx = RingContext(("x", "y", "z"), "dp")
    x, y, z = ctx.gens()
    unit = Ideal(ctx, [x - 1, x])
    i = Ideal(ctx, [x * y - Fraction(2, 7) * z, y**2])
    assert [str(g) for g in check_intersection(unit, unit).generators] == ["1"]
    check_intersection(unit, i)
    check_intersection(i, unit)
    assert check_intersection(Ideal(ctx, []), i).generators == ()


def test_non_homogeneous_pair_is_certified_through_its_closures(monkeypatch):
    i, j = small_pair()
    want = [g.terms for g in reference_intersect(i, j)]
    cand = candidate(closure(i), closure(j))
    calls = record_buchberger(monkeypatch, i, j)
    cands = record_candidates(monkeypatch)
    certs = record_certificates(monkeypatch)
    got = intersect(i, j)
    assert [g.terms for g in got.generators] == want
    # no elimination: one candidate, that of the closures of I and J, whose
    # certified slice has p-free leads, the output's
    assert calls == [] and cands == [cand]
    (cert,) = certs
    assert [g.leading_monomial() for g in cert] == [
        g.leading_monomial() + (0,) for g in got.generators
    ]


@pytest.mark.parametrize("t_part", [True, False])
def test_perturbed_candidate_never_changes_the_output(monkeypatch, t_part):
    i, j = small_pair()
    want = [g.terms for g in reference_intersect(i, j)]
    replace_candidate(monkeypatch, lambda cand: perturb(cand, t_part))
    calls = record_buchberger(monkeypatch, i, j)
    certs = record_certificates(monkeypatch)
    assert [g.terms for g in intersect(i, j).generators] == want
    if t_part:  # outside the slice: it is certified all the same
        assert certs[0] is not None and calls == []
    else:  # rejected: the undriven run's candidate is certified
        assert calls == [] and [c is not None for c in certs] == [False, True]


@pytest.mark.parametrize("case", ["rational", "irrational", "closures"])
def test_a_refused_undriven_candidate_raises(monkeypatch, case):
    # the undriven run's candidate always passes, so its refusal is a defect:
    # intersect raises rather than return an uncertified basis
    pairs = {"rational": homogeneous_pair, "irrational": irrational_pair, "closures": small_pair}
    i, j = pairs[case]()
    cands = []
    monkeypatch.setattr(groebner, "_certified", lambda cand, *args: cands.append(cand))
    with pytest.raises(AssertionError, match="undriven run"):
        intersect(i, j)
    # the driven candidate, then the undriven one, over Q and over Q[a]
    assert len(cands) == 2


def candidate(i, j):
    """The exact candidate of the homogeneous pair, whose t-free slice the
    certificate takes or rejects."""
    with pytest.MonkeyPatch.context() as mp:
        cands = record_candidates(mp)
        groebner._traced(i, j)
    return cands[0]


# each seed for the pairs (small_pair, random_pair(0), ..., random_pair(7)),
# made from the candidate of the pair's closures when it is not homogeneous
# (the pairs of odd seeds), and the undriven reruns it takes: 0 when its
# t-free slice passes the certificate, 1 when it is rejected and the
# undriven run's candidate is certified, None when perturb finds no element
# to change
SEEDS = {
    "unit": (lambda cand, other: [cand[0].ctx.one], [1] * 9),
    # the second element dropped: it has t in seven cases, and the slice is
    # left whole
    "dropped": (lambda cand, other: cand[:1] + cand[2:], [0, 0, 0, 0, 0, 1, 0, 0, 1]),
    "other-pair": (lambda cand, other: other, [1] * 9),
    # the slice is left whole
    "perturbed-t": (lambda cand, other: perturb(cand, True), [0] * 8 + [None]),
    "perturbed-t-free": (
        lambda cand, other: perturb(cand, False),
        [1, 1, 1, 1, 1, None, None, 1, 1],
    ),
}


@pytest.mark.parametrize("kind", sorted(SEEDS))
def test_every_seed_gives_the_exact_intersection(monkeypatch, kind):
    make, counts = SEEDS[kind]
    # the other pair has the same variables and homogeneity, so its
    # candidate's ring is the same
    cases = [(small_pair(), random_pair(3))]
    cases += [(random_pair(seed), random_pair(seed + 6)) for seed in range(8)]
    for ((i, j), other), count in zip(cases, counts):
        cand = candidate(*certified_pair(i, j))
        if count is None:
            with pytest.raises(AssertionError, match="no element to perturb"):
                make(cand, None)
            continue
        seed = make(cand, candidate(*certified_pair(*other)))
        want = [g.terms for g in reference_intersect(i, j)]
        replace_candidate(monkeypatch, lambda cand: seed)
        calls = record_buchberger(monkeypatch, i, j)
        certs = record_certificates(monkeypatch)
        assert [g.terms for g in intersect(i, j).generators] == want
        assert calls == []
        assert [c is not None for c in certs] == [count == 0] + [True] * count
        monkeypatch.undo()


def t_free(cand):
    """The indices of the candidate's elements free of t."""
    return [k for k, g in enumerate(cand) if not any(e[0] for e, _ in g.terms)]


def homogeneous_pair():
    """small_pair made homogeneous with a third variable."""
    ctx = RingContext(("x", "y", "z"), "dp")
    x, y, z = ctx.gens()
    return (
        Ideal(ctx, [x**2 + y**2 - z**2]),
        Ideal(ctx, [x - y, y**3 + Fraction(1, 3) * z**3]),
    )


def irrational_pair():
    """homogeneous_pair with y^2 made a*y^2, over Q[a]/(a^2 - a + 1)."""
    i, j = homogeneous_pair()
    field = ExtField("a", [1, -1, 1])
    ctx = RingContext(i.context.variables, "dp", field)
    x, y, z = ctx.gens()
    i = Ideal(ctx, [x**2 + field.gen * y**2 - z**2])
    return i, Ideal(ctx, [ctx.from_dict(dict(g.terms)) for g in j.generators])


def s6_pairs():
    """The two intersections of the s6-ideal experiment."""
    ctx = RingContext(("w", "x", "y", "z"))
    w, x, y, z = ctx.gens()
    i = Ideal(ctx, [
        w * x**4 + 4 * w**4 * y, 4 * x**3 * w + y**4,
        4 * x * y**3 + w**4, 5 * z**5 + 4 * x**4 * z,
    ])
    j = Ideal(ctx, [52 * x**4 * y**3 * z, w * x**4 * z, x**4 * z**2])
    return [(i, j), (i, Ideal(ctx, [x**4 * z]))]


def test_homogeneous_path_certifies_the_slice_of_the_candidate(monkeypatch):
    i, j = homogeneous_pair()
    want = [g.terms for g in reference_intersect(i, j)]
    cand = candidate(i, j)
    calls = record_buchberger(monkeypatch, i, j)
    every = []
    inner = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda gens: every.append(gens) or inner(gens))
    got = intersect(i, j)
    assert [g.terms for g in got.generators] == want
    # no elimination; the one other basis is that of I + J, in the ring of I
    assert calls == [] and every == [list(i.generators + j.generators)]
    # the output is the candidate's t-free slice, made monic
    monic = [cand[k] * (1 / cand[k].leading_coeff()) for k in t_free(cand)]
    ctx = i.context
    assert [g.terms for g in got.generators] == [
        ctx.from_dict({e[2:]: c for e, c in g.terms}).terms for g in monic
    ]


UNIT_SCALED = {
    "homogeneous": homogeneous_pair,
    "s6": lambda: s6_pairs()[0],
    "s6-second": lambda: s6_pairs()[1],
}


@pytest.mark.parametrize("case", sorted(UNIT_SCALED))
def test_unit_scaled_homogeneous_pair_is_certified_as_the_rational_one(monkeypatch, case):
    # every generator times the unit a: L runs over Q[a], where the pair
    # made monic would run over Q, and its slice is the rational pair's basis
    field = ExtField("a", [1, -1, 1])
    i, j = UNIT_SCALED[case]()
    ctx = RingContext(i.context.variables, "dp", field)
    a = field.gen
    ia, ja = (Ideal(ctx, [a * ctx.from_dict(dict(g.terms)) for g in k.generators]) for k in (i, j))
    assert _irrational(field, groebner._tagged(ia, ja))
    certs = record_certificates(monkeypatch)
    got = intersect(ia, ja)
    assert len(certs) == 1 and certs[0] is not None
    want = [ctx.from_dict(dict(g.terms)) for g in intersect(i, j).generators]
    assert list(got.generators) == want


def test_certificate_accepts_the_shipped_and_seeded_homogeneous_pairs(monkeypatch):
    # the run of L over Q[a] is driven by N_L too: its candidate passes
    pairs = s6_pairs() + [irrational_pair()] + [random_pair(seed) for seed in range(0, 32, 2)]
    for i, j in pairs:
        assert homogeneous(i, j)
        calls = record_buchberger(monkeypatch, i, j)
        certs = record_certificates(monkeypatch)
        check_intersection(i, j)
        monkeypatch.undo()
        assert calls == [] and len(certs) == 1 and certs[0] is not None


# pairs whose candidates have at least two t-free elements: homogeneous ones,
# the last of them in an lp ring, then a pair whose candidate is that of its
# closures
REJECTED = [homogeneous_pair(), s6_pairs()[0], random_pair(2), random_pair(14), small_pair()]


@pytest.mark.parametrize("case", range(len(REJECTED)))
def test_certificate_rejects_a_dropped_t_free_element(monkeypatch, case):
    # the slice still lies in I cap J and is interreduced, so only its
    # Hilbert-series numerator can tell
    i, j = REJECTED[case]
    cand = candidate(*certified_pair(i, j))
    k = t_free(cand)[0]
    seed = cand[:k] + cand[k + 1 :]
    n = cand[0].ctx.nvars - 2
    whole, rest = (
        groebner.hilbert_numerator([c[k].leading_monomial()[2:] for k in t_free(c)], n)
        for c in (cand, seed)
    )
    assert whole != rest
    want = [g.terms for g in reference_intersect(i, j)]
    replace_candidate(monkeypatch, lambda cand: seed)
    calls = record_buchberger(monkeypatch, i, j)
    certs = record_certificates(monkeypatch)
    assert [g.terms for g in intersect(i, j).generators] == want
    # rejected; the undriven run's candidate gives the intersection
    assert calls == [] and [c is not None for c in certs] == [False, True]


@pytest.mark.parametrize("case", range(len(REJECTED)))
def test_certificate_rejects_a_perturbed_coefficient(monkeypatch, case):
    # the monomials are unchanged, so the numerator and the interreduction
    # hold, and containment must reject it
    i, j = REJECTED[case]
    cand = candidate(*certified_pair(i, j))
    k = [k for k in t_free(cand) if len(cand[k].terms) > 1][0]
    terms = dict(cand[k].terms)
    e = cand[k].terms[-1][0]
    terms[e] *= 2
    seed = cand[:k] + [cand[k].ctx.from_dict(terms)] + cand[k + 1 :]
    want = [g.terms for g in reference_intersect(i, j)]
    replace_candidate(monkeypatch, lambda cand: seed)
    calls = record_buchberger(monkeypatch, i, j)
    certs = record_certificates(monkeypatch)
    assert [g.terms for g in intersect(i, j).generators] == want
    assert calls == [] and [c is not None for c in certs] == [False, True]


@pytest.mark.parametrize("case", range(len(REJECTED)))
def test_certificate_rejects_a_slice_that_is_not_interreduced(monkeypatch, case):
    # h + m*g for two t-free elements g, h, with m*LM(g) below LM(h): still
    # in I cap J with the same leads, so only the interreduction test tells
    i, j = REJECTED[case]
    cand = candidate(*certified_pair(i, j))
    ctxa = cand[0].ctx
    h, mg = [
        (h, ctxa.monomial(m) * g)
        for g, h in itertools.permutations([cand[k] for k in t_free(cand)], 2)
        if h.total_degree() >= g.total_degree()
        for m in graded_piece_basis(ctxa, h.total_degree() - g.total_degree())
        if not m[0]
        and ctxa.key(tuple(map(add, m, g.leading_monomial()))) < ctxa.key(h.leading_monomial())
    ][0]
    k = cand.index(h)
    seed = cand[:k] + [h + mg] + cand[k + 1 :]
    want = [g.terms for g in reference_intersect(i, j)]
    replace_candidate(monkeypatch, lambda cand: seed)
    calls = record_buchberger(monkeypatch, i, j)
    certs = record_certificates(monkeypatch)
    assert [g.terms for g in intersect(i, j).generators] == want
    assert calls == [] and [c is not None for c in certs] == [False, True]



def homogenized_generators(i, j):
    """t*f for f in I and (h-t)*g for g in J, in Q[t, h, x] with the block
    order (t | h, x)."""
    ctx = i.context
    ctxh = RingContext(("@t", "@h") + ctx.variables, ("block", 1), ctx.field)
    t, h = ctxh.var("@t"), ctxh.var("@h")

    def pad(g):
        return ctxh.from_dict({(0, 0) + e: c for e, c in g.terms})

    return [t * pad(f) for f in i.generators] + [(h - t) * pad(g) for g in j.generators]


def quintic_pair():
    """The two ideals of the s5-ideal experiment (u = v = 1)."""
    ctx = RingContext(("w", "x", "y", "z"))
    w, x, y, z = ctx.gens()
    K = w**2 * x + w * x * y + w * y**2 + y**3 + w * x * z
    i = Ideal(ctx, [
        5 * w**5 + w * z * K + w**2 * z * diff(K, "w"),
        y**4 + 4 * x**3 * y + 2 * x * y**3 + w * z * diff(K, "x"),
        x**4 + 4 * x * y**3 + 3 * x**2 * y**2 + z * w * diff(K, "y"),
        5 * z**5 + z * w * K + w * z**2 * diff(K, "z"),
    ])
    j = Ideal(ctx, [
        y**3 * z * w * K, x * y**2 * z * w * K, x**2 * y * w * z * K,
        w**2 * z * K, w * z**2 * K, x**2 * y**3 * w, x**2 * y**3 * z,
    ])
    return i, j


def homogeneous_cases():
    """homogeneous_pair, the homogeneous random pairs of seeds 0-63 with
    generators, and both s6 pairs."""
    pairs = [homogeneous_pair()] + [random_pair(seed) for seed in range(0, 64, 2)]
    return [(i, j) for i, j in pairs if i.generators + j.generators] + s6_pairs()


def test_hilbert_numerator_of_the_homogenized_elimination():
    # N_L against the Hilbert function of Q[t,h,x]/L, counted from the
    # standard monomials of its basis, through 3 degrees past the top
    # generator
    for i, j in homogeneous_cases()[:-2]:
        gens = homogenized_generators(i, j)
        target = groebner._numerators(i, j)[1]
        ideal = Ideal(gens[0].ctx, gens)
        n = ideal.context.nvars
        for d in range(max(g.total_degree() for g in gens) + 4):
            assert hilbert_dim(target, n, d) == graded_dim(ideal, d).dim_quotient


def test_the_library_builds_the_generators_of_l_as_the_tests_do():
    for i, j in homogeneous_cases() + [irrational_pair()]:
        assert groebner._tagged(i, j) == homogenized_generators(i, j)


def driven_run(i, j, target=None):
    """(basis, engine) of the exact run on the pair's homogenized elimination,
    Hilbert-driven by target, N_L by default, as `_traced` runs it."""
    gens = homogenized_generators(i, j)
    if target is None:
        target = groebner._numerators(i, j)[1]
    return groebner._packed(gens[0].ctx, gens, lambda eng: (eng.run(gens, target), eng))


def test_hilbert_driven_run_gives_the_plain_run_basis():
    pruned = 0
    for i, j in homogeneous_cases():
        basis, eng = driven_run(i, j)
        assert basis == buchberger(homogenized_generators(i, j))
        pruned += eng.pruned[0]
    assert pruned > 0


@pytest.mark.parametrize("case", ["homogeneous", "s6"])
def test_a_deficit_one_too_small_is_refused_by_the_certificate(monkeypatch, case):
    # a wrong target drops a pair whose remainder the basis needs; the
    # certificate is the one guard between the target and the output
    i, j = homogeneous_pair() if case == "homogeneous" else s6_pairs()[0]
    basis, _ = driven_run(i, j)
    n = basis[0].ctx.nvars
    d = max(g.total_degree() for g in basis)
    real = groebner._numerators

    def one_more(*args):
        # the target's Hilbert function one larger in degree d, where the
        # last element of the basis goes in: the deficit there one smaller
        *nums, target = real(*args)
        bump = {k: (-1) ** k * math.comb(n, k) for k in range(n + 1)}
        return (*nums, groebner._padd(target, bump, d))

    monkeypatch.setattr(groebner, "_numerators", one_more)
    assert driven_run(i, j)[0] != basis
    calls = record_buchberger(monkeypatch, i, j)
    certs = record_certificates(monkeypatch)
    # the intersection is still exact: the certificate refuses the candidate
    # and takes that of the undriven run
    check_intersection(i, j)
    assert calls == [] and [c is not None for c in certs] == [False, True]


def test_candidate_at_h_1_has_the_t_free_slice_of_the_reference():
    for i, j in homogeneous_cases():
        num = groebner._numerators(i, j)[0]
        cand = candidate(i, j)
        monic = [cand[k] * (1 / cand[k].leading_coeff()) for k in t_free(cand)]
        ctx = i.context
        assert [ctx.from_dict({e[2:]: c for e, c in g.terms}).terms for g in monic] == [
            g.terms for g in reference_intersect(i, j)
        ]
        # so the certificate takes it, and no elimination runs
        assert groebner._certified(cand, i, j, num) is not None


# (zero reductions, pairs skipped, generators skipped) of the exact driven
# run of each pair; a weaker coverage rule shows here
RUN_COUNTS = {
    "s6": (lambda: s6_pairs()[0], (8, 20, 0)),
    "s6-second": (lambda: s6_pairs()[1], (1, 23, 0)),
    "quintic": (quintic_pair, (79, 188, 0)),
    "irrational": (irrational_pair, (1, 9, 0)),
}


@pytest.mark.parametrize("case", sorted(RUN_COUNTS))
def test_hilbert_driven_run_counts_are_pinned(case):
    pair, want = RUN_COUNTS[case]
    _, eng = driven_run(*pair())
    assert (len(eng.zeros), *eng.pruned) == want
