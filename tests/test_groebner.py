"""Groebner engine: bases, normal forms, membership, intersection, dimension."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from chowlab import groebner
from chowlab.coeff import ExtField
from chowlab.groebner import (
    Ideal,
    buchberger,
    contained,
    hilbert_numerator,
    intersect,
    krull_dim,
    normal_form,
    normal_forms,
    s_polynomial,
)
from chowlab.poly import RingContext, diff
from chowlab.rings import graded_dim, hilbert_table, mingens_degrees


def wxyz(order="dp"):
    return RingContext(["w", "x", "y", "z"], order)


def session_ideals(ctx):
    """Modified-Jacobian-type ideal i and companion ideal j (u=v=1)."""
    w, x, y, z = ctx.gens()
    K = w**2 * x + w * x * y + w * y**2 + y**3 + w * x * z
    f1 = 5 * w**5 + w * z * K + w**2 * z * diff(K, "w")
    f2 = y**4 + 4 * x**3 * y + 2 * x * y**3 + w * z * diff(K, "x")
    f3 = x**4 + 4 * x * y**3 + 3 * x**2 * y**2 + z * w * diff(K, "y")
    f4 = 5 * z**5 + z * w * K + w * z**2 * diff(K, "z")
    i = Ideal(ctx, [f1, f2, f3, f4])
    j = Ideal(
        ctx,
        [
            y**3 * z * w * K,
            x * y**2 * z * w * K,
            x**2 * y * w * z * K,
            w**2 * z * K,
            w * z**2 * K,
            x**2 * y**3 * w,
            x**2 * y**3 * z,
        ],
    )
    return i, j


def test_normal_form_examples():
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    assert normal_form(x**2, [x]).is_zero()
    # leading term x^2 does not divide y^2
    assert normal_form(y**2, [x**2 - y]) == y**2


def test_normal_form_euler():
    # F lies in its own Jacobian ideal in char 0
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    F = w**5 + x * y**4 + y * x**4 + z**5
    jac = buchberger([diff(F, v) for v in ctx.variables])
    assert normal_form(F, jac).is_zero()


def test_normal_form_difference_in_ideal():
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    basis = buchberger([x**2 - y * z, y**3 - w])
    rng = random.Random(11)
    for _ in range(20):
        f = ctx.zero
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 3) for _ in range(4))
            f = f + ctx.from_dict({e: rng.randint(-4, 4)})
        r = normal_form(f, basis)
        assert contained([f - r], Ideal(ctx, list(basis)))
        # idempotence
        assert normal_form(r, basis) == r


def test_buchberger_linear_lex():
    ctx = RingContext(["x", "y", "z"], "lp")
    x, y, z = ctx.gens()
    gb = buchberger([x - y, y - z])
    assert gb == [x - z, y - z]


def test_buchberger_coprime_leads():
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    gb = buchberger([5 * w**4, 5 * x**4, 5 * y**4, 5 * z**4])
    assert gb == [w**4, x**4, y**4, z**4]


def test_buchberger_spoly_criterion():
    # every S-polynomial of the output reduces to zero
    ctx = wxyz()
    i, _ = session_ideals(ctx)
    gb = i.groebner_basis()
    spolys = [s_polynomial(gb[a], gb[b]) for a in range(len(gb)) for b in range(a + 1, len(gb))]
    assert not any(normal_forms(spolys, gb))


def test_reduced_basis_invariants():
    ctx = wxyz()
    i, _ = session_ideals(ctx)
    gb = i.groebner_basis()
    lms = [g.leading_monomial() for g in gb]
    for a, g in enumerate(gb):
        assert g.leading_coeff() == 1
        for e, _ in g.terms:
            for b, lm in enumerate(lms):
                if b != a:
                    assert not all(p >= q for p, q in zip(e, lm))
    keys = [ctx.key(lm) for lm in lms]
    assert keys == sorted(keys, reverse=True)


def test_gb_canonical_under_permutation():
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    gens = [x**2 - y * z, y**2 - w * z, z**2 - w * x, w**3 - x * y]
    base = buchberger(gens)
    rng = random.Random(20260815)
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled) == base


def test_gb_random_canonicality():
    ctx = RingContext(["x", "y", "z"], "dp")
    rng = random.Random(5150)
    for _ in range(100):
        gens = []
        for _ in range(rng.randint(2, 3)):
            d = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(0, 2) for _ in range(3))
                d[e] = d.get(e, 0) + rng.randint(-3, 3)
            g = ctx.from_dict(d)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        base = buchberger(gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled) == base


def test_ideal_member_basics():
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    F = w**5 + x * y**4 + y * x**4 + z**5
    jac = Ideal(ctx, [diff(F, v) for v in ctx.variables])
    assert contained([F], jac)
    assert not contained([ctx.one], Ideal(ctx, [w, x, y, z]))


def test_intersect_monomials():
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    got = intersect(Ideal(ctx, [x]), Ideal(ctx, [y]))
    assert [str(g) for g in got.generators] == ["x*y"]
    # lcm rule for monomial ideals
    got2 = intersect(Ideal(ctx, [x**2 * y]), Ideal(ctx, [x * y**3 * z]))
    assert [str(g) for g in got2.generators] == ["x^2*y^3*z"]


@pytest.mark.parametrize("name", ["@t", "@h", "@p"])
def test_intersect_refuses_an_auxiliary_variable_name(monkeypatch, name):
    ctx = RingContext(["x", name], "dp")
    x, v = ctx.gens()
    i, j = Ideal(ctx, [x * v + 1]), Ideal(ctx, [x**2])

    def no_work(*args):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(groebner, "_packed", no_work)
    with pytest.raises(ValueError, match="auxiliary variable name collision"):
        intersect(i, j)
    assert i._gb is None and j._gb is None


def test_buchberger_normal_forms_and_intersect_reject_mixed_contexts(monkeypatch):
    ctx, other = RingContext(("x", "y"), "dp"), RingContext(("x", "y"), "lp")
    x, y = ctx.gens()
    v = other.var("y")

    def no_work(*args):
        raise AssertionError("an engine ran")

    # each checks before any engine runs; [x, v] would otherwise take the
    # complete-intersection run
    monkeypatch.setattr(groebner, "_packed", no_work)
    with pytest.raises(ValueError, match="mixed ring contexts"):
        buchberger([x, v])
    with pytest.raises(ValueError, match="mixed ring contexts"):
        normal_forms([x * y], [x, v])
    with pytest.raises(ValueError, match="mixed ring contexts"):
        intersect(Ideal(ctx, [x]), Ideal(other, [v]))
    # zero generators are dropped before the check
    monkeypatch.undo()
    assert buchberger([other.zero, x, ctx.zero]) == [x]


def test_intersect_contains_product_random():
    ctx = RingContext(["x", "y", "z"], "dp")
    rng = random.Random(321)
    for _ in range(100):
        def rand_poly():
            d = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(0, 2) for _ in range(3))
                d[e] = d.get(e, 0) + rng.randint(-3, 3)
            return ctx.from_dict(d)

        f, g = rand_poly(), rand_poly()
        if f.is_zero() or g.is_zero():
            continue
        i, j = Ideal(ctx, [f]), Ideal(ctx, [g])
        got = intersect(i, j)
        # containment both ways is checked inside intersect; product side:
        assert contained([f * g], got)


def test_krull_dim_basics():
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    assert krull_dim(Ideal(ctx, [w, x, y, z])) == 0
    assert krull_dim(Ideal(ctx, [x])) == 3
    assert krull_dim(Ideal(ctx, [])) == 4
    assert krull_dim(Ideal(ctx, [ctx.one])) == -1


def subset_dim(n, supports):
    """The size of a largest subset of range(n) containing no support, by
    trying all 2^n subsets (-1 when the empty support is there)."""
    best = -1
    for mask in range(1 << n):
        subset = {i for i in range(n) if mask >> i & 1}
        if len(subset) > best and not any(s <= subset for s in supports):
            best = len(subset)
    return best


def numerator_dim(num, n):
    """n minus the multiplicity of the factor 1 - t of the Hilbert-series
    numerator N(t) (-1 when N = 0): the order of the pole of
    HS = N(t)/(1-t)^n at t = 1."""
    if not num:
        return -1
    num = [num.get(k, 0) for k in range(max(num) + 1)]
    while sum(num) == 0:  # divide by 1 - t: the quotient's coefficients are N's prefix sums
        num = list(itertools.accumulate(num))[:-1]
        n -= 1
    return n


def test_krull_dim_matches_the_subset_search():
    # monomial ideals: a monomial's support is its set of variables, and
    # an empty support (1 in the ideal) turns up in about 1 list in 20; the
    # Hilbert-series numerator of the leads is a second oracle
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 7)
        ctx = RingContext([f"x{i}" for i in range(n)], "dp")
        gens = ctx.gens()
        supports, monomials = [], []
        for _ in range(rng.randint(0, 6)):
            s = set(rng.sample(range(n), rng.randint(0 if rng.random() < 0.05 else 1, n)))
            m = ctx.one
            for i in s:
                m = m * gens[i] ** rng.randint(1, 2)
            supports.append(s)
            monomials.append(m)
        ideal = Ideal(ctx, monomials)
        want = subset_dim(n, supports)
        assert krull_dim(ideal) == want, supports
        leads = [g.leading_monomial() for g in ideal.groebner_basis()]
        assert numerator_dim(hilbert_numerator(leads, n), n) == want, supports


def test_krull_dim_smooth_quintic():
    # full Jacobian of w^5 + x*y^4 + y*x^4 + z^5 cuts out only the origin
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    F = w**5 + x * y**4 + y * x**4 + z**5
    assert krull_dim(Ideal(ctx, [diff(F, v) for v in ctx.variables])) == 0


def test_krull_dim_monotone_random():
    ctx = RingContext(["x", "y", "z"], "dp")
    rng = random.Random(77)
    for _ in range(40):
        def rand_poly():
            d = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(0, 2) for _ in range(3))
                d[e] = d.get(e, 0) + rng.randint(-3, 3)
            return ctx.from_dict(d)

        f, g = rand_poly(), rand_poly()
        if f.is_zero() or g.is_zero():
            continue
        d1 = krull_dim(Ideal(ctx, [f]))
        d2 = krull_dim(Ideal(ctx, [f, g]))
        assert d2 <= d1


def test_session_intersection_facts():
    # the 4-variable intersection: dim 2, all generators of degree >= 9
    ctx = wxyz()
    i, j = session_ideals(ctx)
    inter = intersect(i, j)
    assert krull_dim(inter) == 2
    assert min(g.total_degree() for g in inter.generators) == 9
    assert all(g.leading_coeff() == 1 for g in inter.generators)


def test_intersection_with_a_lead_of_huge_degree():
    # the Hilbert numerators of I, J and I+J have a term of degree 10^9
    ctx = RingContext(["x", "y", "z"], "dp")
    x, y, z = ctx.gens()
    start = time.perf_counter()
    inter = intersect(Ideal(ctx, [x**10**9, y]), Ideal(ctx, [y * z, z**2]))
    assert [str(g) for g in inter.generators] == ["x^1000000000*z^2", "y*z"]
    assert krull_dim(inter) == 2
    assert mingens_degrees(inter, 10**9 + 1) == {2: [y * z]}
    assert time.perf_counter() - start < 1


def count_numerators(monkeypatch):
    """Patch `groebner.hilbert_numerator` to record the outermost calls
    that `groebner` makes to it outside the engine's runs.  The pivot
    recursion in `hilbert` and the deficit rule of a Hilbert-driven run in
    `_engine` call `hilbert.hilbert_numerator`, which the patch does not
    reach; their numerators are those of sub-ideals and of a run's leads,
    not of an ideal."""
    real, calls, depth = groebner.hilbert_numerator, [], [0]
    run = groebner._Engine.run

    def counting(leads, n):
        if not depth[0]:
            calls.append(n)
        depth[0] += 1
        try:
            return real(leads, n)
        finally:
            depth[0] -= 1

    def running(eng, *args):
        depth[0] += 1
        try:
            return run(eng, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(groebner, "hilbert_numerator", counting)
    monkeypatch.setattr(groebner._Engine, "run", running)
    return calls


@pytest.mark.parametrize("order", ["dp", "lp"])
def test_the_numerator_of_an_ideal_is_computed_once(order, monkeypatch):
    ctx = RingContext(["x", "y", "z"], order)
    x, y, z = ctx.gens()
    i, j = Ideal(ctx, [x * y - z**2, x**2]), Ideal(ctx, [y**3, x * z])
    calls = count_numerators(monkeypatch)
    inter = intersect(i, j)
    # a certified intersection is handed N(I) + N(J) - N(I+J)
    calls.clear()
    assert krull_dim(inter) == 1
    rows, truncated = hilbert_table(inter, 8)
    assert calls == []
    # an ideal from generators computes it once for both
    k = Ideal(ctx, [x * y - z**2, x**2])
    assert krull_dim(k) == 1
    rows_k, _ = hilbert_table(k, 8)
    assert calls == [3]
    # the handed numerator is the one of the result's own basis
    leads = [g.leading_monomial() for g in inter.groebner_basis()]
    assert inter.numerator() == hilbert_numerator(leads, 3)
    for ideal, table in ((inter, rows), (k, rows_k)):
        assert table == [(d, graded_dim(ideal, d).dim_quotient) for d in range(9)]
    assert truncated


def test_ext_field_gb():
    K = ExtField("a", [1, -1, 1])
    ctx = RingContext(["x", "y"], "dp", K)
    a = K.gen
    x, y = ctx.gens()
    gb = buchberger([a * x - y, x**2 - a])
    # substituting x = (1-a)... the basis triangularizes
    assert all(g.leading_coeff() == K.one for g in gb)
    assert contained([y**2 - a**3], Ideal(ctx, [a * x - y, x**2 - a]))


def test_gb_cache_single_flight():
    import threading

    ctx = wxyz()
    i, _ = session_ideals(ctx)
    results = []

    def worker():
        results.append(i.groebner_basis())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)
