"""Acceptance gate: twelve criteria, one pass/fail line each.

Every test runs the full computation it certifies, asserts the pinned
values, and enforces its wall-clock budget.  `pytest -v` yields the
per-criterion verdict lines; each test also prints a `[PASS]` summary
that shows under `-s` or `-rA`.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources
from math import comb

from chowlab import _uni
from chowlab.cli import golden_bytes
from chowlab.cli.experiments import run_experiment
from chowlab.curves import (
    PointOnLine,
    RationalFunction1,
    order_at,
    residue,
    symbol_tuple,
    tame_symbol,
)
from chowlab.dsl import run_source
from chowlab.groebner import Ideal, buchberger, intersect, normal_form, krull_dim
from chowlab.poly import RingContext, render_poly
from chowlab.rings import graded_dim, hilbert_table, jacob, linalg_oracle

F = Fraction
INF = PointOnLine.infinity()


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"budget exceeded: {elapsed:.1f}s >= {seconds}s"


def _passed(n, text):
    print(f"[PASS] criterion {n}: {text}")


def _report_must_pass(exp_id):
    report = run_experiment(exp_id)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert not failed, f"{exp_id} failed checks: {failed}"
    return report


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def test_criterion_01_s5_symbols():
    with budget(1):
        report = _report_must_pass("s5-symbols")
    assert _check(report, "weil-product")["computed"] == "1"
    assert all(6 % o == 0 for o in report["results"]["orders"])
    assert _check(report, "printed-entry-multiset")["pass"]
    assert _check(report, "convention-report")["pass"]
    _passed(1, "symbol tuple, product 1, orders divide 6, multiset matched")


def test_criterion_02_s5_family_symbols():
    with budget(10):
        report = _report_must_pass("s5-family-symbols")
    assert _check(report, "u0-all-torsion")["computed"] is True
    assert _check(report, "u1-not-cyclotomic")["computed"] is False
    assert report["results"]["u1-power-minpoly"] == ["1", "6", "-5", "1"]
    _passed(2, "u=0 torsion, u=1 fifth-power minpoly not cyclotomic")


def test_criterion_03_s5_residue_system():
    with budget(1):
        report = _report_must_pass("s5-residue-system")
    assert report["results"]["status"] == "unique"
    assert report["results"]["solution"] == [
        "-5/3*a-5/3", "0", "-10/3*a+5/3", "0", "0", "0", "0", "0",
    ]
    _passed(3, "unique solution -5/3*(a+1, 0, 2a-1, 0) with zero second block")


def test_criterion_04_s5_ideal():
    with budget(300):
        report = _report_must_pass("s5-ideal")
    assert _check(report, "no-generators-below-9")["computed"] == [0] * 9
    assert report["results"]["dim"] == 2
    golden = resources.files("chowlab").joinpath("data/goldens/s5-ideal.json")
    assert golden_bytes(report) == golden.read_bytes()
    _passed(4, "intersection has no minimal generators below degree 9; dim 2; golden bytes")


def test_criterion_05_s5_hilbert():
    with budget(300):
        report = _report_must_pass("s5-hilbert")
    assert _check(report, "difference-degree-11")["computed"] == 1
    _passed(5, "degree-11 quotient drop is exactly 1, the class survives")


def test_criterion_06_s6_residue():
    with budget(1):
        report = _report_must_pass("s6-residue")
    assert report["results"]["solution"] == ["52", "0", "0", "0"]
    _passed(6, "residues +-a0 and imposed solution (52, 0, 0, 0)")


def test_criterion_07_s6_ideal():
    with budget(300):
        report = _report_must_pass("s6-ideal")
    assert _check(report, "unique-degree-6-generator")["computed"] == 1
    assert _check(report, "degree-6-generator-monomial")["computed"] == "w^1*x^4*z^1"
    assert _check(report, "no-generators-degree-7-8")["computed"] == [0, 0]
    _passed(7, "one degree-6 generator w*x^4*z, none in degrees 7 or 8")


def test_criterion_08_s7_dims():
    with budget(10):
        report = _report_must_pass("s7-dims")
    assert report["results"]["tb-dim"] == 4
    assert report["results"]["r4-dim"] == 6
    _passed(8, "tangent-space dimensions (4, 6) with the pinned bases")


def test_criterion_09_smooth_quintic():
    with budget(10):
        ctx = RingContext(("w", "x", "y", "z"))
        w, x, y, z = ctx.gens()
        Fq = w**5 + x * y**4 + y * x**4 + z**5
        assert krull_dim(jacob(Fq, "full")) == 0
    _passed(9, "full Jacobian ideal of the special quintic is zero-dimensional")


def _experiment_ideals():
    """(name, ideal, max degree) for the oracle sweep.

    Both intersections are included; the u=v=1 intersection is swept only
    through degree 10 because exact dense ranks on its 73 wide-coefficient
    generators at degrees 11 and 12 alone cost more than this criterion's
    whole budget, and its degree-11+ behavior is already pinned by the
    minimal-generator and basis-degree checks of its experiment.
    """
    from chowlab.coeff import ExtField
    from chowlab.poly import diff

    out = []
    ctx4 = RingContext(("w", "x", "y", "z"))
    w, x, y, z = ctx4.gens()
    K = w**2 * x + w * x * y + w * y**2 + y**3 + w * x * z

    f1 = 5 * w**5 + w * z * K + w**2 * z * diff(K, "w")
    f2 = y**4 + 4 * x**3 * y + 2 * x * y**3 + w * z * diff(K, "x")
    f3 = x**4 + 4 * x * y**3 + 3 * x**2 * y**2 + z * w * diff(K, "y")
    f4 = 5 * z**5 + z * w * K + w * z**2 * diff(K, "z")
    i5 = Ideal(ctx4, [f1, f2, f3, f4])
    j5 = Ideal(ctx4, [
        y**3 * z * w * K, x * y**2 * z * w * K, x**2 * y * w * z * K,
        w**2 * z * K, w * z**2 * K, x**2 * y**3 * w, x**2 * y**3 * z,
    ])
    out.append(("s5-i", i5, 12))
    out.append(("s5-j", j5, 12))
    out.append(("s5-intersection", intersect(i5, j5), 10))

    i6 = Ideal(ctx4, [
        w * x**4 + 4 * w**4 * y, 4 * x**3 * w + y**4,
        4 * x * y**3 + w**4, 5 * z**5 + 4 * x**4 * z,
    ])
    j6 = Ideal(ctx4, [52 * x**4 * y**3 * z, w * x**4 * z, x**4 * z**2])
    out.append(("s6-i", i6, 12))
    out.append(("s6-j", j6, 12))
    out.append(("s6-intersection", intersect(i6, j6), 12))

    ctx3 = RingContext(("x", "y", "z"))
    x3, y3, z3 = ctx3.gens()
    Fq = y3**4 + x3 * z3 * y3**2 + x3**4 - z3**4
    out.append(("s7-full", jacob(Fq, "full"), 12))
    out.append(("s7-partial", Ideal(ctx3, [diff(Fq, "x"), diff(Fq, "z")]), 12))
    out.append(("fermat", jacob(w**5 + x**5 + y**5 + z**5, "full"), 12))

    A = ExtField("a", [1, -1, 1])
    ctxa = RingContext(("w", "x", "y", "z"), field=A)
    wa, xa, ya, za = ctxa.gens()
    Ka = wa**2 * xa + wa * xa * ya + wa * ya**2 + ya**3 + wa * xa * za
    fa = wa**5 + za**5 + xa * ya**4 + xa**4 * ya + za * wa * Ka
    out.append(("s5-hilbert-jacobian", jacob(fa, "full"), 12))
    return out


def test_criterion_10_oracle_suite():
    with budget(120):
        for name, ideal, up_to in _experiment_ideals():
            for d in range(up_to + 1):
                gd = graded_dim(ideal, d).dim_quotient
                lo = linalg_oracle(ideal, d)
                assert gd == lo, (name, d, gd, lo)

        ctx = RingContext(("w", "x", "y", "z"))
        w, x, y, z = ctx.gens()
        rows, truncated = hilbert_table(jacob(w**5 + x**5 + y**5 + z**5, "full"))
        # (1+t+t^2+t^3)^4 expanded
        series = [1]
        for _ in range(4):
            series = [
                sum(series[i - k] for k in range(4) if 0 <= i - k < len(series))
                for i in range(len(series) + 3)
            ]
        assert not truncated
        assert [v for _, v in rows] == series + [0]
        dims = dict(rows)
        assert dims[6] == 44 and dims[11] == 4
        assert all(dims[d] == dims[12 - d] for d in range(13))
    _passed(10, "graded ranks agree with the dense oracle; Fermat series exact")


def test_criterion_11_property_suite():
    with budget(120):
        rng = random.Random(815001)

        # residue theorem on random rational forms
        for _ in range(100):
            num = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
            if all(c == 0 for c in num):
                num[0] = F(1)
            roots = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            den = [F(1)]
            for r in roots:
                den = _uni.mul(den, [F(-r), F(1)])
            form = RationalFunction1(num, den)
            pts = [PointOnLine(F(r)) for r in sorted(set(roots))] + [INF]
            assert sum(residue(form, p) for p in pts) == 0

        # reciprocity: symbol product over a full support is 1
        for _ in range(100):
            roots_f = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            roots_g = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
            num_f, den_f = [F(rng.choice([1, 2, 3]))], [F(1)]
            for i, r in enumerate(roots_f):
                part = [F(-r), F(1)]
                if i % 2:
                    den_f = _uni.mul(den_f, part)
                else:
                    num_f = _uni.mul(num_f, part)
            num_g = [F(1)]
            for r in roots_g:
                num_g = _uni.mul(num_g, [F(-r), F(1)])
            f = RationalFunction1(num_f, den_f)
            g = RationalFunction1(num_g)
            pts = [PointOnLine(F(v)) for v in sorted(set(roots_f + roots_g))] + [INF]
            assert symbol_tuple(f, g, pts).product() == 1

        # Steinberg relation at rational support points
        count = 0
        while count < 100:
            roots = [rng.randint(-2, 2) for _ in range(rng.randint(1, 2))]
            num = [F(rng.choice([1, 2, 3]))]
            for r in roots:
                num = _uni.mul(num, [F(-r), F(1)])
            f = RationalFunction1(num)
            g = f.one_minus()
            if g.is_zero():
                continue
            for p in [PointOnLine(F(r)) for r in sorted(set(roots))] + [INF]:
                assert tame_symbol(f, g, p) == 1
            count += 1

        # bilinearity in the first argument, order additivity
        for _ in range(100):
            def rand_fn():
                num, den = [F(1)], [F(1)]
                for _ in range(rng.randint(1, 2)):
                    num = _uni.mul(num, [F(-rng.randint(-2, 2)), F(1)])
                if rng.random() < 0.5:
                    den = _uni.mul(den, [F(-rng.randint(-2, 2)), F(1)])
                return RationalFunction1(_uni.scale(num, F(rng.choice([1, 2, 3]))), den)

            f1, f2, g = rand_fn(), rand_fn(), rand_fn()
            p = rng.choice([PointOnLine(F(v)) for v in (-2, -1, 0, 1, 2)] + [INF])
            prod = f1 * f2
            assert tame_symbol(prod, g, p) == tame_symbol(f1, g, p) * tame_symbol(f2, g, p)
            assert order_at(prod, p) == order_at(f1, p) + order_at(f2, p)

        # intersection containment and double membership
        ctx = RingContext(("x", "y"))
        xv, yv = ctx.gens()
        monos = [ctx.one, xv, yv, xv * yv, xv**2, yv**2]

        def rand_poly():
            p = ctx.zero
            for m in monos:
                if rng.random() < 0.4:
                    p = p + rng.randint(-3, 3) * m
            return p

        def rand_ideal():
            while True:
                gens = [rand_poly() for _ in range(rng.randint(1, 2))]
                gens = [g for g in gens if not g.is_zero()]
                if gens:
                    return Ideal(ctx, gens)

        for _ in range(100):
            I, J = rand_ideal(), rand_ideal()
            inter = intersect(I, J)
            gb_i, gb_j = I.groebner_basis(), J.groebner_basis()
            for g in inter.generators:
                assert normal_form(g, gb_i).is_zero()
                assert normal_form(g, gb_j).is_zero()

        # reduced-basis canonicality under generator permutation
        for _ in range(100):
            gens = [rand_poly() for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            shuffled = list(gens)
            rng.shuffle(shuffled)
            first = {render_poly(g) for g in buchberger(gens)}
            second = {render_poly(g) for g in buchberger(shuffled)}
            assert first == second
    _passed(11, "residue-sum, reciprocity, Steinberg, bilinearity, intersection, canonical bases")


def test_criterion_12_session_replay():
    with budget(600):
        sessions = resources.files("chowlab").joinpath("data").joinpath("sessions")
        goldens = resources.files("chowlab").joinpath("data").joinpath("goldens")
        replayed = []
        for stem in ("s5-session1", "s5-session2", "s6-session"):
            source = sessions.joinpath(f"{stem}.sess").read_text()
            golden = goldens.joinpath(f"{stem}.transcript").read_text()
            assert run_source(source) == golden, stem
            replayed.append(stem)
        assert len(replayed) == 3
    _passed(12, "all session transcripts replay byte-for-byte against goldens")
