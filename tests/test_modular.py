"""The modular path of `intersect` over Q.

`reference_intersect` is the elimination `intersect` ran before it had a
modular path: one fraction-free `buchberger` on t*f and (1-t)*g, the t-free
slice, and the containment check.  A non-homogeneous pair takes the
modular path through the closures of I and J, the homogenizations of their
dp bases (`closure`).  The seeded cases here always run;
`test_modular_hypothesis.py` drives the same checks from generated inputs
when hypothesis is installed.
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
import chowlab.modular as modular
from chowlab.groebner import Ideal, buchberger, contained, ideal_member, intersect
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
    assert all(ideal_member(g, i) and ideal_member(g, j) for g in res)
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
    """The result of every `_modular_basis` call: a candidate, or None."""
    cands = []
    real = modular._modular_basis

    def recording(ctx, gens, target):
        cands.append(real(ctx, gens, target))
        return cands[-1]

    monkeypatch.setattr(modular, "_modular_basis", recording)
    return cands


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


def is_prime(n):
    """Miller-Rabin with the first twenty prime bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


def test_prime_table_entries_are_prime():
    assert len(set(modular._PRIMES)) == len(modular._PRIMES) >= 2
    assert all(is_prime(p) for p in modular._PRIMES)
    assert not is_prime(modular._PRIMES[0] + 2)


def test_trace_prime_is_word_size():
    assert modular._PRIMES[0] < 2**30 <= min(modular._PRIMES[1:])


def record_mod_runs(monkeypatch):
    """(prime, program, replayed, zeros, searches, updates) of every mod-p
    run, in order.  program is the one a full run recorded or a replay ran;
    replayed is the replay's basis (None where it left the program) or, for
    a full run, False; zeros holds the pairs the run reduced to zero, and
    searches and updates count its `_first` and `_add` calls."""
    runs, counts = [], [0, 0]
    mod = modular._ModEngine

    def counted(k, real):
        def counting(*args):
            counts[k] += 1
            return real(*args)

        return counting

    def recorded(real, replaying):
        def recording(eng, polys, *args):
            counts[:] = [0, 0]
            out = real(eng, polys, *args)
            ran, replayed = (args[0], out) if replaying else (eng.program, False)
            runs.append((eng.p, ran, replayed, list(eng.zeros), *counts))
            return out

        return recording

    monkeypatch.setattr(mod, "_first", counted(0, mod._first))
    monkeypatch.setattr(mod, "_add", counted(1, mod._add))
    monkeypatch.setattr(mod, "run", recorded(mod.run, False))
    monkeypatch.setattr(mod, "replay", recorded(mod.replay, True))
    return runs


def test_first_prime_traces_and_later_primes_replay(monkeypatch):
    zeros_seen = 0
    for seed in range(16):
        i, j = random_pair(seed)
        runs = record_mod_runs(monkeypatch)
        check_intersection(i, j)
        monkeypatch.undo()
        if not runs:  # no generators, so no modular path
            continue
        (p, program, replayed, zeros, _, _), *replays = runs
        assert p == modular._PRIMES[0] and replayed is False
        # the program holds no S-pair that reduced to zero: no replay reduces one
        assert all(size for src, _, size in program[0] if type(src) is not int)
        assert len(replays) >= 2  # the trace prime stays out of the CRT
        for q, ran, replayed, more, searches, updates in replays:
            assert q > p and ran is program and replayed and more == []
            # straight-line: no divisor search and no pair update
            assert searches == updates == 0
        zeros_seen += len(zeros)
    assert zeros_seen > 0


def test_unlucky_trace_prime_is_replaced(monkeypatch):
    # 13 is unlucky for these pairs: its full run takes another path than
    # the 350-bit primes', so the first replay leaves the program, runs
    # again in full and traces
    unlucky = []
    for seed in range(64):
        i, j = random_pair(seed)
        calls = record_buchberger(monkeypatch, i, j)
        monkeypatch.setattr(modular, "_PRIMES", (13,) + modular._PRIMES[1:])
        cands = record_candidates(monkeypatch)
        runs = record_mod_runs(monkeypatch)
        certs = record_certificates(monkeypatch)
        check_intersection(i, j)
        monkeypatch.undo()
        # never the fallback: every slice is certified with no elimination,
        # that of a non-homogeneous pair through its closures
        assert len(cands) == len(certs) == 1 and None not in cands + certs
        assert calls == []
        fulls = [q for q, _, replayed, *_ in runs if replayed is False]
        if fulls[1:]:
            unlucky.append(seed)
            assert fulls == [13, runs[1][0]] and len(runs) == 5
            assert runs[1][2] is None  # the replay that left the program
    assert unlucky == [9, 16, 19, 38]


def test_replay_equals_a_full_run_at_each_prime():
    for i, j in [random_pair(seed) for seed in range(64)] + s6_pairs():
        gens = elimination_generators(i, j)
        if not gens:
            continue
        ctx = gens[0].ctx
        _, program = modular._mod_run(ctx, gens, modular._PRIMES[0])
        for p in modular._PRIMES:
            replayed, ran = modular._mod_run(ctx, gens, p, program)
            assert ran is program
            assert replayed == modular._mod_run(ctx, gens, p)[0]


def test_each_replay_step_and_remainder_is_checked(monkeypatch):
    ctx = RingContext(("x", "y"), "dp")
    x, y = ctx.gens()
    eng = modular._ModEngine(ctx, 8, modular._PRIMES[1])
    f = eng._poly_in(x * y + 1)[0]
    G = [eng._entry(eng._poly_in(y**2 - x)[0])]
    assert eng._follow(f, G, [], 2) == f  # steps: position, slot, position, ...
    for size in (0, 1, 3):  # a remainder of another size, zero included
        with pytest.raises(modular._Astray):
            eng._follow(f, G, [], size)
    combs = []
    monkeypatch.setattr(modular._ModEngine, "comb", lambda *args: combs.append(args))
    for steps in ([0, 0], [2, 0]):  # y^2 does not divide x*y; f has 2 terms
        with pytest.raises(modular._Astray):
            eng._follow(f, G, steps, 2)
    assert combs == []


def corrupt(kind, steps, slot):
    """A copy of the flat steps (position, slot, ...) of the op that
    installs slot, its first step corrupted."""
    steps = steps[:]
    if kind == "wrong-slot":  # another earlier reducer
        steps[1] = (steps[1] + 1) % slot
    elif kind == "shifted-position":
        steps[0] += 1
    else:
        del steps[:2]
    return steps


@pytest.mark.parametrize("kind", ["dropped-step", "shifted-position", "wrong-slot"])
@pytest.mark.parametrize("case", ["small", "homogeneous", "s6"])
def test_a_corrupted_program_is_detected_and_the_prime_runs_in_full(
    monkeypatch, kind, case
):
    pair = {"small": small_pair, "homogeneous": homogeneous_pair, "s6": s6_pairs}[case]()
    i, j = pair[0] if case == "s6" else pair
    real = modular._ModEngine.run
    corrupted = []

    def corrupting(eng, polys, *args):
        out = real(eng, polys, *args)
        if not corrupted:  # the first trace only
            ops = eng.program[0]
            # slots[t]: the slot op t installs, the number of earlier remainders
            slots = [sum(1 for op in ops[:t] if op[2]) for t in range(len(ops))]
            # the last op with steps and two earlier slots to choose from
            t = max(t for t, op in enumerate(ops) if op[1] and slots[t] > 1)
            src, steps, size = ops[t]
            ops[t] = src, corrupt(kind, steps, slots[t]), size
            corrupted.append(t)
        return out

    monkeypatch.setattr(modular._ModEngine, "run", corrupting)
    runs = record_mod_runs(monkeypatch)
    check_intersection(i, j)
    (p, _, _, _, _, _), (q, _, replayed, _, _, _), (r, _, full, _, _, _), *rest = runs
    # the first replay leaves the program; its prime runs in full and traces
    assert p == modular._PRIMES[0] and replayed is None and r == q and full is False
    assert len(rest) >= 2 and all(replayed for _, _, replayed, *_ in rest)


def record_eliminations(monkeypatch):
    """The arguments of every `_eliminated` call: the fallback of
    `intersect`."""
    calls = []
    real = groebner._eliminated
    monkeypatch.setattr(groebner, "_eliminated", lambda *args: calls.append(args) or real(*args))
    return calls


def test_modular_intersection_matches_fraction_free_elimination(monkeypatch):
    eliminated = record_eliminations(monkeypatch)
    for seed in range(64):
        check_intersection(*random_pair(seed))
    # every pair is certified, a non-homogeneous one through its closures
    assert eliminated == []


def regression_pair(order):
    """Non-homogeneous pairs in Q[x, y, z] whose elimination in the block
    order (t | x, y, z) blows up: seeded by the modular candidate it took
    about 16 s for the dp pair and about three minutes for the lp pair, on
    a 2-core x86-64 host under CPython 3.11.  Their closures intersect in
    well under a second."""
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


def test_dp_regression_pair_matches_the_exact_elimination(monkeypatch):
    # the unseeded reference elimination of this pair ran past 20 minutes,
    # so the digest pins the output of the exact elimination seeded by the
    # modular candidate and checked by containment, which took about 16 s
    i, j = regression_pair("dp")
    eliminated = record_eliminations(monkeypatch)
    start = time.perf_counter()
    got = intersect(i, j)
    assert time.perf_counter() - start < 10 and eliminated == []
    terms = repr([g.terms for g in got.generators]).encode()
    assert hashlib.sha256(terms).hexdigest() == (
        "e5f5667d21012984ee4af998c713960bc10dcb7d155244e52528ca4ac5e9585b"
    )
    assert len(got.generators) == 15 and contained(list(got.generators), i, j)


def test_lp_regression_pair_computes_no_lp_or_block_basis(monkeypatch):
    # its seeded elimination took about three minutes, too slow for a
    # reference here; the output is checked by containment
    i, j = regression_pair("lp")
    rings = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda gens: rings.append(gens[0].ctx) or real(gens))
    eliminated = record_eliminations(monkeypatch)
    start = time.perf_counter()
    got = intersect(i, j)
    assert time.perf_counter() - start < 10 and eliminated == []
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


def test_unlucky_primes_are_skipped(monkeypatch):
    ctx = RingContext(("x", "y"), "dp")
    x, y = ctx.gens()
    # the dp basis of the first I is x^2 + 1/35*y, so 7 and 5 divide a
    # denominator of its closure; 5 kills the leading coefficient 5 of the
    # homogeneous second I
    first = Ideal(ctx, [5 * x**2 + Fraction(1, 7) * y]), Ideal(ctx, [x * y - 2])
    second = Ideal(ctx, [5 * x**2 + y**2]), Ideal(ctx, [x * y])
    for (i, j), bad in ((first, 7), (first, 5), (second, 5)):
        want = [g.terms for g in reference_intersect(i, j)]
        calls = record_buchberger(monkeypatch, i, j)
        monkeypatch.setattr(modular, "_PRIMES", (bad,) + modular._PRIMES)
        runs = record_mod_runs(monkeypatch)
        certs = record_certificates(monkeypatch)
        assert [g.terms for g in intersect(i, j).generators] == want
        # no run at the bad prime ended; the table's real primes gave the
        # certified slice, with no elimination
        assert runs and bad not in [p for p, *_ in runs]
        assert len(certs) == 1 and certs[0] is not None and calls == []
        monkeypatch.undo()


def test_fallback_when_every_prime_fails(monkeypatch):
    i, j = small_pair()
    want = [g.terms for g in reference_intersect(i, j)]
    calls = record_buchberger(monkeypatch, i, j)
    monkeypatch.setattr(modular, "_PRIMES", (3,))  # divides the denominator 3
    assert [g.terms for g in intersect(i, j).generators] == want
    assert len(calls) == 1
    ctxa = calls[0][0].ctx
    assert ctxa.variables[0] == "@t" and len(calls[0]) == 3  # the generators


def test_tiny_primes_never_change_the_result(monkeypatch):
    # primes this small are often unlucky, or lift only after several of
    # them: about 35 of these 64 pairs get a candidate, the rest fall back
    monkeypatch.setattr(modular, "_PRIMES", (5, 7, 11, 101, 103, 107, 109))
    for seed in range(64):
        check_intersection(*random_pair(seed))


@pytest.mark.parametrize("t_part", [True, False])
def test_perturbed_candidate_never_changes_the_output(monkeypatch, t_part):
    i, j = small_pair()
    want = [g.terms for g in reference_intersect(i, j)]
    real = modular._modular_basis
    monkeypatch.setattr(
        modular, "_modular_basis", lambda ctx, gens, *args: perturb(real(ctx, gens, *args), t_part)
    )
    calls = record_buchberger(monkeypatch, i, j)
    certs = record_certificates(monkeypatch)
    assert [g.terms for g in intersect(i, j).generators] == want
    if t_part:  # outside the slice: it is certified all the same
        assert certs[0] is not None and calls == []
    else:  # rejected: one unseeded elimination
        assert certs == [None] and calls == [elimination_generators(i, j)]


def candidate(i, j):
    """The lifted candidate of the homogeneous pair, whose t-free slice the
    certificate takes or rejects."""
    gens = elimination_generators(i, j)
    return modular._modular_basis(gens[0].ctx, gens, groebner._numerators(i, j)[3])


# each seed for the pairs (small_pair, random_pair(0), ..., random_pair(7)),
# made from the candidate of the pair's closures when it is not homogeneous
# (the pairs of odd seeds), and the eliminations it runs: 0 when its t-free
# slice passes the certificate, 1 when it is rejected and the unseeded
# elimination runs, None when perturb finds no element to change
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
        monkeypatch.setattr(modular, "_modular_basis", lambda ctx, gens, *args: seed)
        calls = record_buchberger(monkeypatch, i, j)
        certs = record_certificates(monkeypatch)
        assert [g.terms for g in intersect(i, j).generators] == want
        assert calls == [elimination_generators(i, j)][:count]
        assert [c is not None for c in certs] == [count == 0]
        monkeypatch.undo()


@pytest.mark.parametrize("every", [True, False])
def test_lift_failing_the_trace_check_never_reaches_buchberger(monkeypatch, every):
    i, j = small_pair()
    want = [g.terms for g in reference_intersect(i, j)]
    real = modular._lift
    lifts = []

    def perturbed(basis, m):
        out = real(basis, m)
        lifts.append(out)
        if every or len(lifts) == 1:  # raise the lead of the last polynomial
            out[-1] = [out[-1][0] + 1] + out[-1][1:]
        return out

    monkeypatch.setattr(modular, "_lift", perturbed)
    calls = record_buchberger(monkeypatch, i, j)
    cands = record_candidates(monkeypatch)
    assert [g.terms for g in intersect(i, j).generators] == want
    if every:  # each prime's lift failed the check: no candidate, and the
        # one unseeded elimination
        assert len(lifts) == len(modular._PRIMES) - 2 and cands == [None]
        assert calls == [elimination_generators(i, j)]
    else:  # the next prime's lift passed it and was certified
        assert len(lifts) == 2 and calls == []
        assert [[c for _, c in g.terms] for g in cands[0]] == lifts[1]


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
        ctx.from_dict({e[1:]: c for e, c in g.terms}).terms for g in monic
    ]


def test_certificate_accepts_the_shipped_and_seeded_homogeneous_pairs(monkeypatch):
    pairs = s6_pairs() + [random_pair(seed) for seed in range(0, 32, 2)]
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
    n = cand[0].ctx.nvars - 1
    whole, rest = (
        groebner.hilbert_numerator([c[k].leading_monomial()[1:] for k in t_free(c)], n)
        for c in (cand, seed)
    )
    assert whole != rest
    want = [g.terms for g in reference_intersect(i, j)]
    monkeypatch.setattr(modular, "_modular_basis", lambda ctx, gens, *args: seed)
    calls = record_buchberger(monkeypatch, i, j)
    certs = record_certificates(monkeypatch)
    assert [g.terms for g in intersect(i, j).generators] == want
    # rejected; the one unseeded elimination gives the intersection
    assert certs == [None] and calls == [elimination_generators(i, j)]


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
    monkeypatch.setattr(modular, "_modular_basis", lambda ctx, gens, *args: seed)
    calls = record_buchberger(monkeypatch, i, j)
    certs = record_certificates(monkeypatch)
    assert [g.terms for g in intersect(i, j).generators] == want
    assert certs == [None] and calls == [elimination_generators(i, j)]


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
    monkeypatch.setattr(modular, "_modular_basis", lambda ctx, gens, *args: seed)
    calls = record_buchberger(monkeypatch, i, j)
    certs = record_certificates(monkeypatch)
    assert [g.terms for g in intersect(i, j).generators] == want
    assert certs == [None] and calls == [elimination_generators(i, j)]



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
        target = groebner._numerators(i, j)[3]
        ideal = Ideal(gens[0].ctx, gens)
        n = ideal.context.nvars
        for d in range(max(g.total_degree() for g in gens) + 4):
            assert groebner.hilbert_dim(target, n, d) == graded_dim(ideal, d).dim_quotient


def check_trace(i, j):
    """The engine of the Hilbert-driven trace run of the pair, after checking
    that its basis is that of a full run at the trace prime."""
    gens = homogenized_generators(i, j)
    ctxh, p = gens[0].ctx, modular._PRIMES[0]
    target = groebner._numerators(i, j)[3]

    def job(eng):
        return eng.run(gens, target), eng

    make = lambda c, w, ext: modular._ModEngine(c, w, p)  # noqa: E731
    basis, eng = groebner._packed(ctxh, gens, job, make)
    assert basis == modular._mod_run(ctxh, gens, p)[0]
    return eng


def test_hilbert_driven_trace_gives_the_full_run_basis():
    pruned = 0
    for i, j in homogeneous_cases():
        eng = check_trace(i, j)
        pruned += eng.pruned[0]
    assert pruned > 0


@pytest.mark.parametrize("case", ["homogeneous", "s6"])
def test_a_deficit_one_too_small_fails_the_trace_check(monkeypatch, case):
    i, j = homogeneous_pair() if case == "homogeneous" else s6_pairs()[0]
    gens = homogenized_generators(i, j)
    ctxh = gens[0].ctx
    n = ctxh.nvars
    d = max(sum(f[0][0]) for f in modular._mod_run(ctxh, gens, modular._PRIMES[0])[0])
    real = groebner._numerators

    def one_more(*args):
        # the target's Hilbert function one larger in degree d, where the
        # last element of the basis goes in: the deficit there one smaller
        *nums, target = real(*args)
        bump = {k: (-1) ** k * math.comb(n, k) for k in range(n + 1)}
        return (*nums, groebner._padd(target, bump, d))

    monkeypatch.setattr(groebner, "_numerators", one_more)
    with pytest.raises(AssertionError):
        check_trace(i, j)
    # the intersection is still exact: the certificate or the elimination decides
    check_intersection(i, j)


def test_candidate_at_h_1_has_the_t_free_slice_of_the_reference():
    for i, j in homogeneous_cases():
        nums = groebner._numerators(i, j)
        cand = candidate(i, j)
        monic = [cand[k] * (1 / cand[k].leading_coeff()) for k in t_free(cand)]
        ctx = i.context
        assert [ctx.from_dict({e[1:]: c for e, c in g.terms}).terms for g in monic] == [
            g.terms for g in reference_intersect(i, j)
        ]
        # so the certificate takes it, and no elimination runs
        assert groebner._certified(cand, i, j, nums) is not None


# (zero reductions, pairs skipped, generators skipped, ops) of the trace of
# each pair; a lost pruning shows here
TRACE_COUNTS = {
    "s6": (lambda: s6_pairs()[0], (8, 20, 0, 16)),
    "s6-second": (lambda: s6_pairs()[1], (1, 23, 0, 14)),
    "quintic": (quintic_pair, (79, 188, 0, 118)),
}


@pytest.mark.parametrize("case", sorted(TRACE_COUNTS))
def test_hilbert_driven_trace_counts_are_pinned(case):
    pair, want = TRACE_COUNTS[case]
    eng = check_trace(*pair())
    assert (len(eng.zeros), *eng.pruned, len(eng.ops)) == want
