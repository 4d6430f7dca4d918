"""The complete-intersection path of `buchberger` (module docstring of
`chowlab.groebner`): homogeneous generators of positive degrees d_1..d_r,
r at most the number of variables, over Q or over Q[a], get a
Hilbert-driven run with the target prod(1 - t^d_i).  Its output is
accepted only if (b) its leads have that numerator and (a) every generator
reduces to zero by it; then it is the reduced basis and the target the
numerator of its leads.  Otherwise the plain run's basis is returned.
Either way the basis is the plain run's.
"""

import itertools
import random
from fractions import Fraction

import pytest

from chowlab import groebner
from chowlab.coeff import QQ, ExtField
from chowlab.groebner import (
    Ideal,
    _Engine,
    _on_engine,
    _padd,
    buchberger,
    hilbert_numerator,
    normal_forms,
)
from chowlab.poly import RingContext, diff
from chowlab.rings import jacob

ORDERS = ("dp", "lp", ("block", 2))
EISENSTEIN = ExtField("a", [1, -1, 1])


def plain(gens):
    return _on_engine(_Engine.run, gens)


def target(degrees):
    num = {0: 1}
    for d in degrees:
        num = _padd(num, num, d, -1)
    return num


def driven_runs(monkeypatch):
    """(zero reductions, skipped pairs) of each Hilbert-driven exact run."""
    runs, run = [], _Engine.run

    def recording(eng, polys, target=None, known=0):
        out = run(eng, polys, target, known)
        if target is not None:
            runs.append((len(eng.zeros), eng.pruned[0]))
        return out

    monkeypatch.setattr(_Engine, "run", recording)
    return runs


def session_k(ctx):
    w, x, y, z = ctx.gens()
    return w**2 * x + w * x * y + w * y**2 + y**3 + w * x * z


def s5_jacobian(field=QQ, c=1):
    """The Jacobian ideal of w^5 + z^5 + xy^4 + x^4y + c*zwK, numerator
    (1 - t^4)^4."""
    ctx = RingContext(("w", "x", "y", "z"), field=field)
    w, x, y, z = ctx.gens()
    f = w**5 + z**5 + x * y**4 + x**4 * y + c * z * w * session_k(ctx)
    return list(jacob(f).generators)


def quintic_i():
    """The u=v=1 deformation ideal I, numerator (1 - t^4)^2 (1 - t^5)^2."""
    ctx = RingContext(("w", "x", "y", "z"))
    w, x, y, z = ctx.gens()
    K = session_k(ctx)
    return [
        5 * w**5 + w * z * K + w**2 * z * diff(K, "w"),
        y**4 + 4 * x**3 * y + 2 * x * y**3 + w * z * diff(K, "x"),
        x**4 + 4 * x * y**3 + 3 * x**2 * y**2 + z * w * diff(K, "y"),
        5 * z**5 + z * w * K + w * z**2 * diff(K, "z"),
    ]


@pytest.mark.parametrize(
    "case, pins",
    [
        ("jacobian-QQ", (2, 97)),
        ("jacobian-Q[a]", (2, 97)),
        ("I", (3, 105)),
        ("jacobian-irrational", (39, 105)),
    ],
)
def test_the_heavy_complete_intersections_are_accepted(case, pins, monkeypatch):
    gens = {
        "jacobian-QQ": s5_jacobian,
        "jacobian-Q[a]": lambda: s5_jacobian(EISENSTEIN),
        "I": quintic_i,
        # its coefficient a makes every engine run carry a (`_engine`)
        "jacobian-irrational": lambda: s5_jacobian(EISENSTEIN, EISENSTEIN.gen),
    }[case]()
    want = plain(gens)
    runs = driven_runs(monkeypatch)
    gb = buchberger(gens)
    assert gb == want
    assert gb.num == target(g.total_degree() for g in gens)
    assert gb.num == hilbert_numerator([g.leading_monomial() for g in gb], 4)
    # the plain runs reduce 99, 99, 108 and 144 pairs to zero
    assert runs == [pins]


def random_form(rng, ctx, d):
    """A dense form of degree d with integer coefficients in [-99, 99]."""
    monos = [e for e in itertools.product(range(d + 1), repeat=ctx.nvars) if sum(e) == d]
    return ctx.from_dict({e: rng.randint(-99, 99) or 1 for e in monos})


@pytest.mark.parametrize("order", ORDERS, ids=str)
@pytest.mark.parametrize("full", [False, True], ids=["r<n", "r=n"])
def test_seeded_regular_sequences_are_accepted(order, full, monkeypatch):
    # 3 variables, r = 2 or 3 dense forms of degree 1-3; every seeded one
    # is a regular sequence, which `buchberger` must accept
    ctx = RingContext(("x", "y", "z"), order)
    rng = random.Random(f"{order}-{full}")
    for _ in range(4):
        degrees = [rng.randint(1, 3) for _ in range(3 if full else 2)]
        gens = [random_form(rng, ctx, d) for d in degrees]
        runs = driven_runs(monkeypatch)
        gb = buchberger(gens)
        monkeypatch.undo()
        assert gb == plain(gens) and gb.num == target(degrees)
        assert len(runs) == 1
        ideal = Ideal(ctx, gens)
        assert ideal.numerator() == gb.num and list(ideal.groebner_basis()) == gb


def s6_ideals():
    """The two s6 ideals, which are not complete intersections."""
    ctx = RingContext(("w", "x", "y", "z"))
    w, x, y, z = ctx.gens()
    i = [
        w * x**4 + 4 * w**4 * y,
        4 * x**3 * w + y**4,
        4 * x * y**3 + w**4,
        5 * z**5 + 4 * x**4 * z,
    ]
    j = [52 * x**4 * y**3 * z, w * x**4 * z, x**4 * z**2]
    return [i, j]


def test_the_driven_run_of_x2_xy_fails_only_the_numerator_check():
    ctx = RingContext(("x", "y", "z"))
    x, y, z = ctx.gens()
    gens = [x**2, x * y]
    driven = _on_engine(lambda eng, gs: eng.run(gs, target([2, 2])), gens)
    # (a) holds, so only (b) tells that (x^2, xy) is no complete intersection
    assert not any(normal_forms(gens, driven))
    assert hilbert_numerator([g.leading_monomial() for g in driven], 3) != target([2, 2])
    gb = buchberger(gens)
    assert gb == plain(gens) and gb.num is None


def test_an_irrational_complete_intersection_is_accepted(monkeypatch):
    ctx = RingContext(("x", "y"), field=EISENSTEIN)
    x, y = ctx.gens()
    gens = [EISENSTEIN.gen * x**2 + y**2, x * y]
    runs = driven_runs(monkeypatch)
    gb = buchberger(gens)
    assert gb == plain(gens) and gb.num == target([2, 2])
    assert len(runs) == 1


def refused():
    """(generators, whether they get a driven run) of each refusal."""
    ctx = RingContext(("x", "y", "z"))
    x, y, z = ctx.gens()
    return [
        ([x**2, x * y], True),  # check (b)
        *[(gens, True) for gens in s6_ideals()],
        ([x**2, y**2, z**2, x * y * z], False),  # r > n
        ([x**2 - y * z, ctx.const(Fraction(3, 2))], False),  # a constant
        ([x**2 - y, y**2, z**3], False),  # not homogeneous
    ]


@pytest.mark.parametrize("case", range(len(refused())))
def test_a_refusal_returns_the_plain_basis(case, monkeypatch):
    gens, driven = refused()[case]
    want = plain(gens)
    runs = driven_runs(monkeypatch)
    gb = buchberger(gens)
    assert gb == want and gb.num is None
    assert len(runs) == driven
    # an Ideal of them computes its numerator from its leads
    ideal = Ideal(gens[0].ctx, gens)
    leads = [g.leading_monomial() for g in want]
    assert ideal.numerator() == hilbert_numerator(leads, gens[0].ctx.nvars)


def test_an_accepted_ideal_hands_its_target_to_the_numerator(monkeypatch):
    gens = s5_jacobian(EISENSTEIN)
    ideal = Ideal(gens[0].ctx, gens)
    ideal.groebner_basis()
    calls = []
    monkeypatch.setattr(groebner, "hilbert_numerator", lambda *args: calls.append(args))
    assert ideal.numerator() == target([4, 4, 4, 4]) and calls == []
    assert groebner.krull_dim(ideal) == 0
