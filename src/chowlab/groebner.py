"""Groebner bases: the API over the packed engine of `_engine`.

Public results are reduced Groebner bases (monic, interreduced, sorted
descending by leading monomial), which makes every basis canonical for a
given ideal and order; the engine computes them by Buchberger's algorithm,
fraction-free on integer coefficients (`_engine`).  On top of them: normal
forms, pairwise intersection and `krull_dim`.  The Hilbert-series
numerator of a monomial ideal (`hilbert.hilbert_numerator`), kept sparse
as {degree: coefficient}, answers every dimension question: `rings` reads
every Hilbert table from it, the driven runs and the certificates below
compare numerators, and `krull_dim` is the order of the pole of the
Hilbert series at t = 1.  An `Ideal` computes its basis and the numerator
of its leads once each; a certified homogeneous intersection is handed
both, and a certified complete intersection gets its numerator with its
basis.

An `Ideal` whose base has its basis cached by then computes its own basis
by one grown run over that basis and its other generators (`_engine`);
otherwise it runs from its generators.  `_numerators` builds I+J from the
generators, not grown from I: on the quintic that took 0.02 s, and grown
from I's 60-element basis 0.05 s.

`buchberger` first runs homogeneous generators f_1..f_r of degrees d_i >=
1, r at most n, over Q or over Q[a], Hilbert-driven with the target T =
prod (1 - t^d_i), the numerator of a complete intersection.  Its output G
is accepted iff (b) the numerator of LM(G) is T and (a) every f_i reduces
to zero by G (`normal_forms`); otherwise the plain run starts from the
generators.  The certificate is exact, with no prime.  By (a), (G) = I.  G
lies in I, so LM(G) lies in LM(I), and HF(R/I) = HF(R/LM(I)) is at most
HF(R/LM(G)), which by (b) is read from T/(1-t)^n, a pole of order n - r at
t = 1; so dim R/I <= n - r.  By Krull's height theorem I has height r, so
its r homogeneous generators form a regular sequence, R being
Cohen-Macaulay (Eisenbud, Commutative Algebra, ch. 17-18), and the Koszul
complex gives HS(R/I) = T/(1-t)^n.  So LM(G), inside LM(I), has the same
Hilbert function; the two are equal, G is a Groebner basis, and the
engine's `_finalize` has made it the reduced one, byte for byte.  The
argument holds for any G the run outputs, so a sequence that is not
regular, whose T misleads the deficit rule, costs a refused run, never a
wrong answer.  On the shipped inputs the path takes the s5 Jacobian, whose
zero reductions fall from 99 to 2, and the quintic's I, from 108 to 3, and
refuses the two s6 ideals; the Jacobian with a in place of the coefficient
1 of zwK, over Q[a]/(a^2 - a + 1), falls from 144 to 39.  No input tried
made (a) fail once (b) held; it stays, as the argument needs (G) = I.

`intersect`, in any field K (Q or Q[a]/(m)), computes the reduced basis of
I cap J from one exact run of the ideal L below and certifies it;
generators that are not homogeneous are first replaced by their closures,
below.  The run is Hilbert-driven by the numerator N_L of L, over Q and
over Q[a] alike (`_engine`).

For I and J in n variables, L's generators are built in K[t, h, x], with
one more variable h: t*f and (h - t)*g, with the block order (t | h, x).
Their ideal L = tI + sJ, with s = h - t, is homogeneous.  With R = K[x],
the quotient K[t, h, x]/L is, as a graded space, R + t R/I[t] + s R/J[s]
+ ts R/(I+J)[t, s], so its Hilbert numerator is N_L = (1-z)^2 +
z(1-z)(N_I + N_J) + z^2 N_(I+J), over (1-z)^(n+2).  It is read from the
bases of I, J and I+J, which the certificate below reuses, and the run is
Hilbert-driven by it.  Given N_L the run is exact: the deficit rule
(`_engine`) drops only pairs whose remainder is zero.  The candidate C is
the run's output, the reduced basis of L.  Since L cap K[h, x] = h (I cap
J)[h], its t-free slice is h times the reduced basis of I cap J, with the
same leads (grevlex on (h, x) compares h*u and h*v as it compares u and
v).  So that slice read at h = 1, which drops the exponents of t and h,
and made monic, is the reduced basis of I cap J.

The t-free slice H of C at h = 1, made monic, is certified with no second
elimination, by its Hilbert series (in the spirit of Traverso's
Hilbert-driven bases).  The exact sequence 0 -> R/(I cap J) -> R/I + R/J ->
R/(I+J) -> 0 gives HS(R/(I cap J)) = HS(R/I) + HS(R/J) - HS(R/(I+J)), and
for a homogeneous ideal HS(R/I) = N(t)/(1-t)^n, with N the numerator of the
leading monomials of any Groebner basis of I.  H is accepted iff (a) every
element lies in I and in J; (b) N(LM(H)) = N(LM(I)) + N(LM(J)) -
N(LM(I+J)), one numerator (`_numerators`), the basis of I+J being one more
run in n variables; and (c) no term of one element is divisible by the
lead of another.  Leads of H are read in a grevlex ring on x, whatever the
ring's order, from H itself: an element of a wrong candidate need not be
h times a form in x, and then its lead in C's order is not that of its
slice.  By (a), (H) lies in I cap J, so (LM(H)) lies in LM((H)), which
lies in LM(I cap J).  By (b) the two monomial ideals at the ends have
the same Hilbert function, so they are equal.  So H is a Groebner basis of
I cap J, and with (c) its reduced basis, byte for byte.

That is why the undriven run of L always passes: its candidate's t-free
slice is the exact reduced basis of I cap J (above), which lies in I and
in J, is interreduced, and has leads whose numerator is the one (b) asks
for.  Only the driven run can give another candidate: were N_L wrong, the
run could drop a pair it needs.  So a refused candidate is followed by the
undriven run, certified in the same way.  A refused undriven candidate is
a defect, and `intersect` raises AssertionError rather than return it.  A
wrong target costs time, never a wrong answer, and every basis `intersect`
returns is certified.

For I and J with a non-homogeneous generator, `intersect` takes that path
on their closures (`_dehomogenized`).  Let I^h be
generated by the homogenizations g^h = p^(deg g) g(x/p) of the reduced dp
basis of I, by one more variable p, last in a dp ring; in an lp or block
ring that basis comes from a dp copy of I, so no basis in the ring's order
is computed.  Since grevlex with p last takes each lead from the top-degree
part, the g^h are the reduced basis of the ideal of all f^h, f in I, with
the same leads (Cox, Little, O'Shea, ch. 8 sec. 4).  Then (I cap J)^h = I^h
cap J^h (Kreuzer and Robbiano, Computational Commutative Algebra 2, sec.
4.3), a homogeneous intersection, which the path above certifies.  Its
reduced basis H has leads free of p: in grevlex with p last, p divides the
lead of a homogeneous element only if it divides the whole element, and (I
cap J)^h is saturated in p, so such an element would be p times an element
whose lead another lead of H divides, against the minimality of H.  Setting
p = 1 keeps each lead, since every other term either loses a power of p,
and so has lower degree, or compares as before; and each f in I cap J has
f^h in (I cap J)^h, with LM(f^h) = LM(f) divisible by a lead of H.  So H at
p = 1 is a minimal dp Groebner basis of I cap J.  It is also reduced, with
no further step: no lead divides a tail term x^e p^k of H, and since the
leads are free of p, none divides x^e.  So it is the reduced dp basis of
I cap J.
"""

import threading
from math import comb

from ._engine import _Engine, _packed, _Packing
from .hilbert import _padd, hilbert_numerator
from .poly import Polynomial, RingContext, is_homogeneous


def _nonzero(gens):
    """The nonzero polynomials of gens, which must share one context."""
    gens = [g for g in gens if isinstance(g, Polynomial) and not g.is_zero()]
    if any(g.ctx != gens[0].ctx for g in gens):
        raise ValueError("mixed ring contexts")
    return gens


def _on_engine(method, gens):
    """method(engine, gens) on the nonzero polynomials of gens (one context)."""
    gens = _nonzero(gens)
    return _packed(gens[0].ctx, gens, lambda eng: method(eng, gens)) if gens else []


class _Basis(list):
    """The list `buchberger` returns, with the numerator it certified, so
    that `Ideal` gets both from the one function that computes every basis
    from generators."""

    def __init__(self, basis, num=None):
        super().__init__(basis)
        self.num = num


def buchberger(gens):
    """Reduced Groebner basis of the given generators (shared context), a
    list whose attribute num is the Hilbert numerator of its leads if the
    complete-intersection certificate gave it, else None.  Homogeneous
    generators of positive degrees, no more of them than variables, first
    get a Hilbert-driven run whose output is accepted only as the certified
    basis of a complete intersection (module docstring); other generators,
    and a refused output, get the plain run."""
    gens = _nonzero(gens)
    degs = [is_homogeneous(g) for g in gens]
    ctx = gens[0].ctx if gens else None
    if gens and None not in degs and min(degs) > 0 and len(gens) <= ctx.nvars:
        target = {0: 1}
        for d in degs:
            target = _padd(target, target, d, -1)
        gb = _on_engine(lambda eng, gs: eng.run(gs, target), gens)
        # (b) the leads have the numerator of a complete intersection, and
        # (a) the gens lie in (gb)
        leads = [g.leading_monomial() for g in gb]
        if hilbert_numerator(leads, ctx.nvars) == target and not any(normal_forms(gens, gb)):
            return _Basis(gb, target)
    return _Basis(_on_engine(_Engine.run, gens))


def minimal_generators(gens, num=None):
    """A minimal generating set of the ideal of the homogeneous gens, drawn
    from them: in ascending degree, stably, each generator outside the ideal
    of the ones before it (`_engine`).  Its size in each degree is
    the number of minimal generators of that degree.

    num, if given, is the Hilbert numerator of the leading monomials of an
    ideal that agrees with the ideal of the gens up to their largest
    degree, such as that of an `Ideal` whose generators of higher degree
    were left out.  It does not change the result; it drives the run, which
    skips every degree its leads already cover.
    """
    if any(isinstance(g, Polynomial) and is_homogeneous(g) is None for g in gens):
        raise ValueError("non-homogeneous generator")
    return _on_engine(lambda eng, gs: eng.minimal(gs, num), gens)


def normal_form(f, basis):
    """Fully reduce f modulo the basis; f - result lies in (basis).

    Each term is reduced by the first basis element, in the given order,
    whose leading monomial divides it, so the remainder is exact and the
    same for any basis, Groebner or not.
    """
    return normal_forms([f], basis)[0]


def normal_forms(fs, basis):
    """The normal form of each f by the basis, as `normal_form` gives it;
    each basis element is packed at most once for all of them."""
    fs, gs = list(fs), [g for g in basis if not g.is_zero()]
    if fs and any(p.ctx != fs[0].ctx for p in fs + gs):
        raise ValueError("mixed ring contexts")
    todo = [f for f in fs if not f.is_zero()]
    job = lambda eng: eng.normal_forms(todo, gs)  # noqa: E731
    done = iter(_packed(todo[0].ctx, todo + gs, job) if todo else ())
    return [f if f.is_zero() else next(done) for f in fs]


def s_polynomial(f, g):
    """Classic S-polynomial with monic scaling (field coefficients)."""
    ctx = f.ctx
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    big = tuple(max(a, b) for a, b in zip(lmf, lmg))
    mf = ctx.monomial(tuple(a - b for a, b in zip(big, lmf)))
    mg = ctx.monomial(tuple(a - b for a, b in zip(big, lmg)))
    return mf * f * (1 / f.leading_coeff()) - mg * g * (1 / g.leading_coeff())


class Ideal:
    """Generators plus a lazily computed, cached reduced Groebner basis
    (`basis`, when given, must be that basis) and the Hilbert numerator of
    its leading monomials, also computed once.

    base, when given, is an `Ideal` whose generators lead these: this ideal
    grows it.  It keeps its own generators, but if the base's basis is
    cached by the time this basis is asked for, the basis is one grown run
    over the base's basis followed by the other generators (`_engine`);
    otherwise it runs from the generators."""

    def __init__(self, ctx, generators, basis=None, base=None):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                g = ctx.const(g)
            if g.ctx != ctx:
                raise ValueError("generator from a different ring context")
            if not g.is_zero():
                gens.append(g)
        self.context = ctx
        self.generators = tuple(gens)
        if base is not None and self.generators[: len(base.generators)] != base.generators:
            raise ValueError("the base's generators must lead the ideal's")
        self._base = base
        self._gb = None if basis is None else tuple(basis)
        self._num = None
        self._lock = threading.Lock()

    def groebner_basis(self):
        # single-flight: the cache is computed at most once
        if self._gb is None:
            with self._lock:
                if self._gb is None:
                    base, self._base = self._base, None
                    if base is None or base._gb is None:
                        gb = buchberger(list(self.generators))
                        self._num = gb.num or self._num
                    else:
                        n, gens = len(base._gb), base._gb + self.generators[len(base.generators) :]
                        gb = _on_engine(lambda eng, gs: eng.run(gs, None, n), gens)
                    self._gb = tuple(gb)
        return self._gb

    def numerator(self):
        """`hilbert_numerator` of the leading monomials of the basis."""
        # idempotent: a racing second computation stores the same value
        if self._num is None:
            gb = self.groebner_basis()  # which sets it for a complete intersection
            if self._num is None:
                leads = [g.leading_monomial() for g in gb]
                self._num = hilbert_numerator(leads, self.context.nvars)
        return self._num

    def __repr__(self):
        return f"Ideal({len(self.generators)} gens over {self.context!r})"


def contained(polys, *ideals):
    """True iff every poly lies in every `Ideal`: each reduces to zero
    modulo the ideal's Groebner basis, which is packed once for all of them
    (`normal_forms`)."""
    for ideal in ideals:
        if any(normal_forms(polys, ideal.groebner_basis())):
            return False
    return True


def _port(g, ctx2, pad=0, drop=0):
    """g in ctx2, its exponents with pad zeros in front and drop dropped."""
    return ctx2.from_dict({(0,) * pad + e[drop:]: c for e, c in g.terms})


_AUX, _HOM, _PROJ = "@t", "@h", "@p"


def _tagged(i_ideal, j_ideal):
    """The generators t*f of I and (h - t)*g of J, of the homogeneous ideal
    L of the module docstring, in K[t, h, x] with the block order (t | h,
    x)."""
    ctx = i_ideal.context
    ctxh = RingContext((_AUX, _HOM) + ctx.variables, ("block", 1), ctx.field)
    t, h = ctxh.var(_AUX), ctxh.var(_HOM)
    gens = [t * _port(f, ctxh, pad=2) for f in i_ideal.generators]
    return gens + [(h - t) * _port(g, ctxh, pad=2) for g in j_ideal.generators]


def _numerators(i_ideal, j_ideal):
    """(N_I + N_J - N_(I+J), N_L): the Hilbert numerators of I cap J and of
    L = tI + (h - t)J, the last in two more variables, from the reduced
    bases of homogeneous I, J and I+J."""
    ni, nj = i_ideal.numerator(), j_ideal.numerator()
    nij = Ideal(i_ideal.context, i_ideal.generators + j_ideal.generators).numerator()
    # S/L = R + t R/I[t] + s R/J[s] + ts R/(I+J)[t, s] with s = h - t, so
    # N_L = (1-z)^2 + z(1-z)(N_I + N_J) + z^2 N_I+J
    s = _padd(ni, nj)
    return _padd(s, nij, sign=-1), _padd({0: 1, 1: -2, 2: 1}, _padd(_padd(s, nij, 1), s, 1, -1), 1)


def _certified(cand, i_ideal, j_ideal, num):
    """The t-free slice H of the candidate at h = 1, monic, in the ring of
    I and J and sorted by descending grevlex lead, if it passes the
    certificate of the module docstring as the reduced basis of I cap J;
    else None.  num is N_I + N_J - N_(I+J), from `_numerators`."""
    ctx = i_ideal.context
    dp = RingContext(ctx.variables, "dp", ctx.field)
    # t and h dropped, in grevlex on x, where the leads are read
    hs = [_port(g, dp, drop=2) for g in cand if g and not any(e[0] for e, _ in g.terms)]
    hs.sort(key=lambda g: dp.key(g.leading_monomial()), reverse=True)
    del cand  # its only reference (`_traced`): the rest is freed before (a)
    leads = [g.leading_monomial() for g in hs]
    # (c) interreduced: a term is divisible by one lead if it is its
    # polynomial's lead term (the first), else by none
    pk = _Packing(
        "dp", ctx.nvars, max(8, (2 * max(map(sum, leads), default=0)).bit_length() + 1)
    )
    words = [pk.pack(m)[1] for m in leads]
    for g in hs:
        for k, (e, _) in enumerate(g.terms):
            top = pk.pack(e)[1] | pk.guard
            if sum((top - w) & pk.guard == pk.guard for w in words) != (k == 0):
                return None
    # (b) HS(R/(H)) = HS(R/I) + HS(R/J) - HS(R/(I+J)), read from the leads
    if hilbert_numerator(leads, ctx.nvars) != num:
        return None
    # (a) containment, with no other copy of H kept
    hs = [_port(g * (1 / g.leading_coeff()), ctx) for g in hs]
    return hs if contained(hs, i_ideal, j_ideal) else None


def _traced(i_ideal, j_ideal):
    """(basis, numerator) of I cap J for homogeneous I and J: the certified
    t-free slice of the candidate, the reduced basis of L from one exact
    run, and N_I + N_J - N_(I+J).  The run is Hilbert-driven by N_L, and a
    refused candidate is followed by the undriven run.  The undriven
    candidate always passes, so its refusal raises AssertionError."""
    gens = _tagged(i_ideal, j_ideal)
    num, num_l = _numerators(i_ideal, j_ideal)
    for target in [num_l, None]:
        run = lambda eng: eng.run(gens, target)  # noqa: E731
        res = _certified(_packed(gens[0].ctx, gens, run), i_ideal, j_ideal, num)
        if res is not None:
            # a homogeneous ideal's Hilbert series does not depend on the order
            return res, num
    raise AssertionError("the undriven run of L failed its certificate")


def _dehomogenized(i_ideal, j_ideal):
    """The reduced dp basis of I cap J, in the ring of I and J, from the
    intersection of the homogenizations of their dp bases by one more
    variable p, the last (module docstring)."""
    ctx = i_ideal.context
    dp = RingContext(ctx.variables, "dp", ctx.field)
    ctxp = RingContext(ctx.variables + (_PROJ,), "dp", ctx.field)

    def closure(ideal):
        if ctx != dp:
            ideal = Ideal(dp, [_port(g, dp) for g in ideal.generators])
        # the reduced basis of the homogenization of the ideal
        hs = [
            ctxp.from_dict({e + (g.total_degree() - sum(e),): c for e, c in g.terms})
            for g in ideal.groebner_basis()
        ]
        return Ideal(ctxp, hs, basis=hs)

    res = _traced(closure(i_ideal), closure(j_ideal))[0]
    # at p = 1 it is the reduced dp basis of I cap J
    return [ctx.from_dict({e[:-1]: c for e, c in g.terms}) for g in res]


def intersect(i_ideal, j_ideal):
    """I cap J via a fresh auxiliary variable, in any field.  For
    homogeneous I and J the reduced basis of L, generated in K[t, h, x],
    comes from one exact run, Hilbert-driven by N_L, and its t-free slice
    at h = 1 is certified by its Hilbert series, its interreduction and
    containment; I and J with a non-homogeneous generator take that path
    on the homogenizations of their dp bases (module docstring)."""
    ctx = i_ideal.context
    if j_ideal.context != ctx:
        raise ValueError("mixed ring contexts")
    if {_AUX, _HOM, _PROJ} & set(ctx.variables):
        raise ValueError("auxiliary variable name collision")
    pair = i_ideal.generators + j_ideal.generators
    res, num = [], None
    if pair and all(is_homogeneous(g) is not None for g in pair):
        res, num = _traced(i_ideal, j_ideal)
    elif pair:
        res = _dehomogenized(i_ideal, j_ideal)
    out = Ideal(ctx, res, basis=res if ctx.order == "dp" else None)
    out._num = num
    return out


def krull_dim(ideal):
    """Affine Krull dimension of the quotient by the ideal (unit ideal: -1):
    n minus the order of the zero at t = 1 of the Hilbert numerator N of the
    leading monomials of its basis, the least j with sum_k N_k C(k, j) != 0,
    since HS(R/LM(I)) = N(t)/(1-t)^n has a pole of order dim R/LM(I) =
    dim R/I there (Cox, Little, O'Shea, ch. 9 sec. 3)."""
    n, num = ideal.context.nvars, ideal.numerator()
    if not num:
        return -1
    return n - next(j for j in range(n + 1) if sum(c * comb(k, j) for k, c in num.items()))
