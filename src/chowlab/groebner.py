"""Groebner bases: Buchberger with Gebauer-Moeller pair management.

S-polynomial arithmetic runs fraction-free on integer coefficients, with
periodic content stripping.  Public results are reduced Groebner bases
(monic, interreduced, sorted descending by leading monomial), which makes
every basis canonical for a given ideal and order.  On top of that: normal
forms, ideal membership, elimination, pairwise intersection, and the
Hilbert-series numerator of a monomial ideal (`hilbert_numerator`, Bigatti's
pivot algorithm), kept sparse as {degree: coefficient}, which answers every
dimension question: `rings` reads every Hilbert table from it, the
driven runs and the certificates below compare numerators, and
`krull_dim` is the order of the pole of the Hilbert series at t = 1.  An
`Ideal` computes its basis and the numerator of its leads once each; a
certified homogeneous intersection is handed both, and a certified complete
intersection gets its numerator with its basis.

Inside the engine a monomial is two Python ints made of W-bit fields
(`_Packing`):

- The order key is a signed-digit number whose integer order is the ring
  order.  A grevlex block of variables x_lo..x_hi-1 gives the digits (deg,
  -x_hi-1, ..., -x_lo), most significant first; "dp" is one block,
  ("block", k) puts the block of the first k variables above the rest, and
  "lp" has the digits (x_1, ..., x_n).
- The word holds each exponent in its digit's field and the total degree in
  the field above.  Every field keeps its top (guard) bit clear, so a divides
  b iff ((b | GUARD) - a) & GUARD == GUARD: a field with a_j > b_j borrows
  its guard bit away.

Both are linear in the exponents, so shifting a term by x^s adds the key and
word of x^s.  They are exact while every total degree is at most
2^(W-1) - 1: no field overflows, key digits stay inside (-2^(W-1), 2^(W-1)),
and guard bits hold.  The engine checks that bound on each pair lcm and on
each shift, against the largest degree of the shifted polynomial.  A run
that would pass it restarts with twice the width and repeats the same
steps, since nothing else depends on W: a wide exponent costs time, never a
wrong answer.

`RowSpace` runs exact ranks on the same terms: its pivots are primitive
rows keyed by the word of their leading monomial, and a new row is only
top-reduced, by `comb` against the pivot with its leading word, the
content stripped every 8 steps as in `full_reduce`.  Every graded rank of
`rings` is computed this way, over Q and over Q[a] alike.

Every engine coefficient is a Python int.  A job (the polynomials handed to
`_packed`) whose coefficients are all rational runs over Q even in a Q[a]
ring, its output coerced back into the field: a reduced Groebner basis, a
normal form and a rank are the same over Q and over any extension of Q
(Cox, Little, O'Shea, Ideals, Varieties, and Algorithms, ch. 2 sec. 7).  A
job with an irrational coefficient carries the generator a of K = Q[a]/(m)
as one more engine variable, and m, cleared of denominators, as one more
generator that goes in first, since K[x]/I is Q[x,a]/(I + (m)).  a is the
least significant block of the order (in "lp" the last variable), so the
order eliminates a and puts it below every x, and the reduced basis of I +
(m) is m plus the reduced basis of I over K, each coefficient written as a
polynomial in a of degree below deg m (ch. 3 sec. 1).  A coefficient c_0 +
... + c_{d-1} a^(d-1) goes in as its nonzero terms c_j a^j, the higher
powers of a first; the output drops m and folds each run of terms with one
x-part back into a field element.  a has weight 0 in the degree field,
which orders the pairs and drives `minimal`: an irrational leading
coefficient puts a into an engine lead, and the pair with m that takes it
out must fall in the lead's own degree.  `normal_forms` makes each reducer
monic over K, so that its engine lead has a^0 and the first divisor in
basis order is the one over K, and puts m first; it packs the basis once
for the whole batch into one reducer list, searched by the engine's
`_first`.  As m reduces first, every power of a stays below 2 deg m - 1,
far inside its field.  `RowSpace` starts without a and takes it on at its
first irrational row.

`minimal_generators` is one engine run in degree order (`_Engine.minimal`;
Kreuzer and Robbiano, Computational Commutative Algebra 2, sec. 4.6): a
generator of degree d is reduced after every pair of degree at most d and
is minimal iff its remainder is nonzero, which is then inserted.  Its lead
no basis lead divides, so its pairs lie above d and the basis stays a
Groebner basis through degree d of the ideal of the generators so far.
`run` inserts every generator before the first pair, unless it is
Hilbert-driven: taking them in degree order made the plain s5 elimination
of `intersect` twice as slow.  Every run reduces a term by the first basis
entry whose lead divides it, in the order m, then by size, then by slot
(`_reducer`), memoized per word: a word looked up again tests only the
entries added since.  It ends in `_finalize`, shared by every run:
the minimal basis (`_minimal_set`), its slots kept (`_keep`), each entry
interreduced by the others, m first, then the smallest, and the output
(`_output`) without m.

A run is grown (`Ideal` with a base) when its first polys are the reduced
basis G of an ideal I and the rest are new generators.  Once G is in, `run`
drops the pairs queued among its entries, over Q[a] with m too.  This is
exact: G is a Groebner basis, and so is G plus m in Q[x, a] (above), so
each of those S-polynomials reduces to zero by them, a standard
representation by entries that every later basis of the run contains.
Buchberger's criterion (Cox, Little, O'Shea, ch. 2 secs. 6 and 9) and the
Gebauer-Moeller updates need no more of those pairs, and the reduced basis
is unique, so the output is that of a run from all the generators.  An
`Ideal` grows only from a base whose basis is cached by then.
`_numerators` builds I+J from the generators: on the quintic that took
0.04 s, and grown from I's 60-element basis 0.09 s.

A run is Hilbert-driven (Traverso, JSC 22, 1996) when the Hilbert function
of LM(I) is known in the degrees it reaches.  Pairs and generators then go
in degree order, through the loop of `minimal`, and once the run's leads
cover the degree-d part of LM(I) the remaining pairs of degree d are
dropped and the remaining degree-d generators are not minimal.  This is
exact: a remainder in degree d lies in I and has no term divisible by a
run lead, so its lead would lie in LM(I) but not be covered; it is zero.
Two tests decide coverage.  `minimal_generators`, given a known Groebner
basis, asks that every degree-d lead of it be divisible by a run lead (the
lower degrees are covered already).  It reads no numerator, for two
reasons: over Q[a] the run's leads carry a, and m's lead a^(deg m) has no
x-part, so the numerator of their x-parts is 0; and the deficit rule below
was slower on the quintic's minimal generators.  The elimination run of
`intersect` and the complete-intersection runs below, given the Hilbert
numerator of LM(I), compute at the first item of degree d the deficit k =
HF_run(d) - HF_I(d), HF_run from the numerator of the run's leads, and
cover d after k more insertions: the run's leads lie in LM(I), and each
insertion in degree d, its lead divisible by no run lead, lowers HF_run(d)
by one.  A wrong numerator can make a run drop a pair it needs; each run
that takes one is certified, so that costs a refused output, never a wrong
answer.

`buchberger` first runs rational homogeneous generators f_1..f_r of degrees
d_i >= 1, r at most n, Hilbert-driven with the target T = prod (1 - t^d_i),
the numerator of a complete intersection.  Its output G is accepted iff (b)
the numerator of LM(G) is T and (a) every f_i reduces to zero by G
(`normal_forms`); otherwise the plain run starts from the generators.  The
certificate is exact, with no prime.  By (a), (G) = I.  G lies in I, so
LM(G) lies in LM(I), and HF(R/I) = HF(R/LM(I)) is at most HF(R/LM(G)),
which by (b) is read from T/(1-t)^n, a pole of order n - r at t = 1; so
dim R/I <= n - r.  By Krull's height theorem I has height r, so its r
homogeneous generators form a regular sequence, R being Cohen-Macaulay
(Eisenbud, Commutative Algebra, ch. 17-18), and the Koszul complex gives
HS(R/I) = T/(1-t)^n.  So LM(G), inside LM(I), has the same Hilbert
function; the two are equal, G is a Groebner basis, and `_finalize` has
made it the reduced one, byte for byte.  The argument holds for any G the
run outputs, so a sequence that is not regular, whose T misleads the
deficit rule, costs a refused run, never a wrong answer.  On the shipped
inputs the path takes the s5 Jacobian, whose zero reductions fall from 99
to 2, and the quintic's I, from 108 to 3, and refuses the two s6 ideals.
No input tried made (a) fail once (b) held; it stays, as the argument needs
(G) = I.

`intersect` on rational homogeneous generators, in any field, computes its
elimination basis by one exact run, Hilbert-driven by the numerator N_L
below; rational generators that are not homogeneous are first replaced by
their closures, below.  A pair whose generators become rational once each
is divided by its leading coefficient, a unit, is replaced by that monic
pair, which generates the same ideals.

For I and J in n variables, the run takes the generators homogenized by
one more variable h: t*f and (h - t)*g in Q[t, h, x], with the block order
(t | h, x).  Their ideal L = tI + sJ, with s = h - t, is
homogeneous.  With R = Q[x], the quotient Q[t, h, x]/L is, as a graded
space, R + t R/I[t] + s R/J[s] + ts R/(I+J)[t, s], so its Hilbert numerator
is N_L = (1-z)^2 + z(1-z)(N_I + N_J) + z^2 N_(I+J), over (1-z)^(n+2).  It
is read from the bases of I, J and I+J, which the certificate below
reuses, and the run is Hilbert-driven by it.  Given N_L the run is exact
over Q: the deficit rule drops only pairs whose remainder is zero.  The
candidate C is its output, the reduced basis of L, evaluated at h = 1.
That map sends the generators to t*f and (1 - t)*g and keeps the terms of
a homogeneous element apart.  Since L cap Q[h, x] = h (I cap J)[h], the
t-free slice of the reduced basis of L is h times the reduced basis of I
cap J, with the same leads (grevlex on (h, x) compares
h*u and h*v as it compares u and v).  So at h = 1 it is the slice the
elimination gives.

The t-free slice H of C, made monic, is certified with no second
elimination, by its Hilbert series (in the spirit of Traverso's
Hilbert-driven bases).  The exact sequence 0 -> R/(I cap J) -> R/I + R/J ->
R/(I+J) -> 0 gives HS(R/(I cap J)) = HS(R/I) + HS(R/J) - HS(R/(I+J)), and
for a homogeneous ideal HS(R/I) = N(t)/(1-t)^n, with N the numerator of the
leading monomials of any Groebner basis of I.  H is accepted iff (a) every
element lies in I and in J; (b) N(LM(H)) = N(LM(I)) + N(LM(J)) -
N(LM(I+J)), the basis of I+J being one more run in n variables; and (c) no
term of one element is divisible by the lead of another.  Leads of H are
taken in C's block order, which is grevlex on the x block whatever the
ring's order.  By (a), (H) lies in I cap J, so (LM(H)) lies in LM((H)),
which lies in LM(I cap J).  By (b) the two monomial ideals at the ends have
the same Hilbert function, so they are equal.  So H is a Groebner basis of
I cap J, and with (c) its reduced basis: the one the elimination below
would output, byte for byte.

For rational I and J with a non-homogeneous generator, `intersect` takes
that path on their closures (`_dehomogenized`).  Let I^h be
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
leads are free of p, none divides x^e.  So it is the reduced basis, the one
the elimination below outputs, byte for byte.

Otherwise, when a certificate fails or a coefficient is irrational, one
exact elimination runs: the fraction-free reduced basis of the generators
t*f for f in I and (1 - t)*g for g in J in the block order, whose ideal
meets Q[x] in I cap J (Cox, Little, O'Shea, ch. 3 sec. 1), so its t-free
slice is the reduced basis of I cap J.  That slice is checked by
containment in I and in J.  The certificate decides: were N_L wrong, the
run could drop a pair it needs, and the candidate it gives would be
refused.  So a wrong target or a failed check costs time, never a wrong
answer.
"""

import threading
from fractions import Fraction
from heapq import heappop, heappush
from math import comb, gcd, lcm
from operator import le

from .coeff import ExtField
from .poly import Polynomial, RingContext, dehomogenized, homogenized, is_homogeneous


class _Overflow(Exception):
    """A degree outgrew the packed fields; the run restarts wider."""


class _Packing:
    """Order keys and divisibility words of exponent vectors, W-bit fields.

    With ext, a vector may carry one more exponent, that of the field
    generator a: its own least significant block (in "lp" the last
    variable), with weight 0 in the degree field.  A vector without it has
    a^0.
    """

    def __init__(self, order, nvars, width, ext=False):
        self.n = nvars
        self.limit = (1 << (width - 1)) - 1
        self.mask = (1 << width) - 1
        total = nvars + ext
        if order == "lp":
            fields = [total - 1 - i for i in range(total)]
            self.sign, self.tops, nfields = 1, [], total
        else:
            k = order[1] if isinstance(order, tuple) else 0
            fields = [0] * total
            self.sign, self.tops, nfields = -1, [], 0
            blocks = ((k, nvars), (0, k)) if k else ((0, nvars),)
            for lo, hi in ((nvars, total),) * ext + blocks:  # least significant first
                for i in range(lo, hi):
                    fields[i] = nfields + i - lo
                nfields += hi - lo
                self.tops.append((lo, hi, nfields * width))
                nfields += 1
        self.shifts = [f * width for f in fields]
        self.deg_shift = nfields * width
        self.guard = sum(1 << (f * width + width - 1) for f in range(nfields + 1))

    def pack(self, exps):
        """(key, word) of an exponent vector."""
        deg = sum(exps[: self.n])
        if deg > self.limit or sum(exps[self.n :]) > self.limit:
            raise _Overflow
        body = 0
        for e, s in zip(exps, self.shifts):
            body += e << s
        key = self.sign * body
        for lo, hi, s in self.tops:
            key += sum(exps[lo:hi]) << s
        return key, body + (deg << self.deg_shift)

    def unpack(self, word):
        mask = self.mask
        return tuple(word >> s & mask for s in self.shifts)


def _irrational(field, polys):
    """True iff some coefficient of the polys has a nonzero a-part."""
    return isinstance(field, ExtField) and any(
        any(c.coeffs[1:]) for p in polys for _, c in p.terms
    )


def _packed(ctx, polys, job):
    """job(_Engine(ctx, width, ext)), with fields wide enough for every
    degree the run reaches, and ext true iff some coefficient of the polys
    is irrational."""
    width = max(8, (2 * max(p.total_degree() for p in polys)).bit_length() + 1)
    ext = _irrational(ctx.field, polys)
    while True:
        try:
            return job(_Engine(ctx, width, ext))
        except _Overflow:
            width *= 2


def _cross(a, b):
    """(b', a') with b' * a = a' * b, the cofactors of the lcm of a and b."""
    d = gcd(a, b)
    return b // d, a // d


class _Engine:
    """One Buchberger run, minimal-generator run or normal form in a ring context.

    A term is (key, word, coefficient); a polynomial is a list of terms,
    descending by key, with integer coefficients.  A basis entry is (lead
    word, lead coefficient, terms, largest total degree of its terms, slot),
    the slot being its index in G.  With ext the field generator a is one
    more variable (module docstring), and the basis starts with its minimal
    polynomial m, in slot 0.
    """

    def __init__(self, ctx, width, ext=False):
        self.ctx = ctx
        self.ext = ext
        self.pk = _Packing(ctx.order, ctx.nvars, width, ext)
        self.G = []
        self.memo = {}  # word: (len(G) when last looked up, its reducer)
        self.live = {}
        self.heap = []
        self._seq = 0
        self.zeros = []
        self.pruned = [0, 0]  # pairs and polys that the Hilbert-driven rule skipped
        self.covered = None  # the Hilbert-driven rule, if the run has one
        if ext:
            m = ctx.field.minpoly
            zero = (0,) * ctx.nvars
            lifted = [(zero + (j,), m[j]) for j in range(len(m) - 1, -1, -1) if m[j]]
            self._add(self.strip(self._integral(lifted)[0])[0])

    def _terms(self, p):
        """The (exponents, rational coefficient) pairs of p: with ext, each
        coefficient c_0 + ... + c_{d-1} a^(d-1) is its nonzero c_j a^j, the
        higher powers of a first; otherwise the a-part is zero and dropped."""
        field = self.ctx.field
        if not isinstance(field, ExtField):
            return p.terms
        if not self.ext:
            return [(e, c.coeffs[0]) for e, c in p.terms]
        top = range(field.degree - 1, -1, -1)
        return [(e + (j,), c.coeffs[j]) for e, c in p.terms for j in top if c.coeffs[j]]

    def _integral(self, terms):
        """(packed terms of den * terms, den) for the least den that makes
        them integral; terms are (exponents, rational) pairs."""
        pack = self.pk.pack
        den = lcm(*(c.denominator for _, c in terms))
        return [(*pack(e), c.numerator * (den // c.denominator)) for e, c in terms], den

    def strip(self, terms):
        """(terms / g, g) for the content g, signed to make the lead positive."""
        if not terms:
            return terms, 1
        g = gcd(*[c for _, _, c in terms])
        if terms[0][2] < 0:
            g = -g
        if g != 1:
            terms = [(k, w, c // g) for k, w, c in terms]
        return terms, g

    def _poly_in(self, p):
        """(terms, scale) with p = scale * terms, terms primitive."""
        terms, den = self._integral(self._terms(p))
        terms, g = self.strip(terms)
        return terms, Fraction(g, den)

    def _poly_out(self, terms, scale=None):
        """The polynomial scale * terms; monic when no scale is given.  With
        ext, each run of terms with one x-part folds into a field element."""
        ctx, unpack = self.ctx, self.pk.unpack
        if self.ext:
            n, runs = ctx.nvars, []
            for _, w, c in terms:
                e = unpack(w)
                if not runs or runs[-1][0] != e[:n]:
                    runs.append((e[:n], [0] * ctx.field.degree))
                runs[-1][1][e[n]] = c  # e[n] < deg m: every term is reduced by m
            vals = [(x, ctx.field.element(cs)) for x, cs in runs]
            if scale is None:
                scale = 1 / vals[0][1]
        else:
            vals = [(unpack(w), c) for _, w, c in terms]
            if scale is None:
                scale = Fraction(1, vals[0][1])
        coerce = ctx.field.coerce
        return Polynomial(ctx, tuple((x, coerce(c * scale)) for x, c in vals))

    def _entry(self, terms, slot=None):
        """The basis entry of terms, at slot (default: the next slot of G)."""
        top = max(w for _, w, _ in terms) >> self.pk.deg_shift
        return (terms[0][1], terms[0][2], terms, top, len(self.G) if slot is None else slot)

    def _shift(self, ent, key, word):
        """Key and word of the x^s that carries ent's lead to (key, word)."""
        sw = word - ent[0]
        if (sw >> self.pk.deg_shift) + ent[3] > self.pk.limit:
            raise _Overflow
        return key - ent[2][0][0], sw

    def comb(self, A, i, ca, B, cb, sk, sw):
        """ca * A - cb * x^s * B as a descending term list.

        x^s has key sk and word sw; the terms of A before index i are known
        to lie above every term of x^s * B.
        """
        mul_a = ca != 1
        out = [(k, w, c * ca) for k, w, c in A[:i]] if mul_a else A[:i]
        push = out.append
        ncb = -cb
        n = len(A)
        for kb, wb, c in B:
            if sk:  # on a zero shift B's own ints are reused: k + 0 is a new int
                kb += sk
            while i < n and A[i][0] > kb:
                t = A[i]
                push((t[0], t[1], t[2] * ca) if mul_a else t)
                i += 1
            if i < n and A[i][0] == kb:
                t = A[i]
                i += 1
                c = (t[2] * ca if mul_a else t[2]) + c * ncb
                if c:
                    push((kb, t[1], c))
            else:
                push((kb, wb + sw if sk else wb, c * ncb))
        out.extend([(k, w, c * ca) for k, w, c in A[i:]] if mul_a else A[i:])
        return out

    def _first(self, R, word):
        """The first entry of R whose leading monomial divides the word."""
        guard = self.pk.guard
        top = word | guard
        for ent in R:
            if (top - ent[0]) & guard == guard:
                return ent
        return None

    def _reducer(self, G, word):
        """The reducer of the word in G, the basis: its first divisor by
        `_rank`.  Memoized per word; only the entries added since its last
        lookup are tested."""
        n, best = self.memo.get(word, (0, None))
        if n < len(G):
            guard = self.pk.guard
            top = word | guard
            for ent in G[n:]:
                if (top - ent[0]) & guard == guard and (
                    best is None or self._rank(ent) < self._rank(best)
                ):
                    best = ent
            self.memo[word] = len(G), best
        return best

    def _rank(self, ent):
        """m first, which keeps every power of a below 2 deg m - 1, then by
        size, as the smallest reducer limits fill-in, then by slot."""
        return ent[4] > 0 or not self.ext, len(ent[2]), ent[4]

    def _step(self, f, i, red):
        """Cancel term i of f against the entry red: (new f, its factor on f)."""
        k, w, c = f[i]
        cf, cg = _cross(c, red[1])
        return self.comb(f, i, cf, red[2], cg, *self._shift(red, k, w)), cf

    def full_reduce(self, f, G, pick, scale=None):
        """(r, scale'): r is f fully reduced by G, the reducer of each term
        chosen by pick.  With a scale, scale * f and scale' * r differ by an
        element of (G); without one, scale' is None."""
        i = steps = 0
        while i < len(f):
            red = pick(G, f[i][1])
            if red is None:
                i += 1
                continue
            f, cf = self._step(f, i, red)
            if scale is not None:
                scale = scale / cf
            steps += 1
            if steps & 7 == 0:
                f, g = self.strip(f)
                if scale is not None:
                    scale = scale * g
        f, g = self.strip(f)
        return f, None if scale is None else scale * g

    def spoly(self, ei, ej, key, word):
        """S-polynomial of two entries whose lead lcm has this key and word."""
        ski, swi = self._shift(ei, key, word)
        skj, swj = self._shift(ej, key, word)
        A = [(k + ski, w + swi, c) for k, w, c in ei[2]] if swi else ei[2]
        cf, cg = _cross(ei[1], ej[1])
        return self.strip(self.comb(A, 0, cf, ej[2], cg, skj, swj))[0]

    def _add(self, terms):
        """Gebauer-Moeller update: install a new basis element and its pairs."""
        G, live, pk = self.G, self.live, self.pk
        guard = pk.guard
        idx = len(G)
        wh = terms[0][1]
        lmh = pk.unpack(wh)
        cand = []
        for g_idx in range(idx):
            wg = G[g_idx][0]
            key, big = pk.pack(tuple(map(max, pk.unpack(wg), lmh)))
            cand.append((g_idx, big, key, big == wg + wh))
        kept = []
        for t, (_, big, _, coprime) in enumerate(cand):
            top = big | guard
            if not coprime and any(
                (top - c[1]) & guard == guard for c in cand[t + 1 :] + kept
            ):
                continue
            kept.append(cand[t])
        for (i, j), big in list(live.items()):
            if ((big | guard) - wh) & guard == guard:
                if cand[i][1] != big and cand[j][1] != big:
                    del live[(i, j)]
        ent = self._entry(terms)
        G.append(ent)
        for g_idx, big, key, coprime in kept:
            if coprime:
                continue
            live[(g_idx, idx)] = big
            self._seq += 1
            # degree-first selection, order key as tie-break
            heappush(self.heap, (big >> pk.deg_shift, key, self._seq, g_idx, idx))

    def _insert(self, terms):
        """Install the remainder of terms by the basis if it is nonzero; return
        it."""
        h = self.full_reduce(terms, self.G, self._reducer)[0]
        if h:
            self._add(h)
        return h

    def _hilbert_driven(self, target):
        """Set self.covered to the Hilbert-driven rule (module docstring) for
        rational homogeneous polys whose ideal's leading monomials have the
        Hilbert numerator target: at the first item of degree d, the deficit
        k of the run's leads against the target in degree d, and covered(d)
        once k more entries are in."""
        n, goal = self.ctx.nvars, {}

        def covered(d):
            if d not in goal:
                num = hilbert_numerator([self.pk.unpack(g[0]) for g in self.G], n)
                goal[d] = len(self.G) + hilbert_dim(num, n, d) - hilbert_dim(target, n, d)
            return len(self.G) >= goal[d]

        self.covered = covered

    def _pairs_through(self, cap):
        """Reduce the live pairs of degree at most cap (None: all), lowest first;
        pairs of a degree the rule covers are dropped, and pairs that reduce
        to zero go to self.zeros."""
        heap, covered = self.heap, self.covered
        while heap and (cap is None or heap[0][0] <= cap):
            deg, key, _, i, j = heappop(heap)
            big = self.live.pop((i, j), None)
            if big is None:
                continue
            if covered and covered(deg):
                self.pruned[0] += 1
            elif not self._insert(self.spoly(self.G[i], self.G[j], key, big)):
                self.zeros.append((i, j))

    def run(self, polys, target=None, known=None):
        """Reduced basis of the polys.  With no target every generator goes in
        before the first pair, and if the first known polys are a reduced
        basis, the pairs among them are dropped once they are in (a grown
        run, module docstring); with target, the Hilbert numerator of the
        leading monomials of the ideal of the homogeneous polys, the run is
        Hilbert-driven in degree order (`minimal`)."""
        if target is None:
            for k, p in enumerate(polys):
                self._insert(self._poly_in(p)[0])
                if k + 1 == known:
                    self.live.clear()
                    self.heap.clear()
        else:
            self._hilbert_driven(target)
            self.minimal(polys)
        self._pairs_through(None)
        return self._finalize()

    def minimal(self, polys, leads=None):
        """The polys outside the ideal of those before them in degree order.

        leads, if given, are the leading monomials of a Groebner basis of the
        ideal of the polys in every degree they reach.  The pairs and polys
        of a degree all of whose leads the run's basis covers are skipped
        (module docstring), and self.pruned counts them.
        """
        if leads is not None:
            # per degree: the words of the leads no run lead divides yet, and
            # len(G) when they were last checked
            pending, seen = {}, {}
            for m in leads:
                w = self.pk.pack(m)[1]
                pending.setdefault(w >> self.pk.deg_shift, []).append(w)

            def covered(d):
                left = pending.get(d)
                if left and seen.get(d) != len(self.G):
                    seen[d] = len(self.G)
                    left = pending[d] = [w for w in left if not self._reducer(self.G, w)]
                return not left

            self.covered = covered
        out = []
        for k in sorted(range(len(polys)), key=lambda k: polys[k].total_degree()):
            d = polys[k].total_degree()
            self._pairs_through(d)
            if self.covered and self.covered(d):
                self.pruned[1] += 1
            elif self._insert(self._poly_in(polys[k])[0]):
                out.append(polys[k])
        return out

    def _minimal_set(self):
        """The indices in G of a minimal basis, ascending by lead."""
        G = self.G
        guard = self.pk.guard
        order = sorted(range(len(G)), key=lambda k: G[k][2][0][0])
        minimal = []
        for idx in order:
            top = G[idx][0] | guard
            if not any((top - G[k][0]) & guard == guard for k in minimal):
                minimal.append(idx)
        return minimal

    def _keep(self, minimal):
        """G with every slot outside minimal emptied; G itself is released."""
        kept = [None] * len(self.G)
        for k in minimal:
            kept[k] = self.G[k]
        # from here each entry is dropped once replaced, to lower the peak
        self.G = self.memo = None
        return kept

    def _output(self, kept):
        """The polynomials of the nonempty slots, descending by lead."""
        kept = sorted([e for e in kept if e], key=lambda e: e[2][0][0])
        return [self._poly_out(kept.pop()[2]) for _ in range(len(kept))]

    def _finalize(self):
        """Interreduce the minimal basis, each entry by the others, m first,
        then the smallest; output it without m."""
        minimal = self._minimal_set()
        mw = self.G[0][0] if self.ext else None  # m's lead, a^d
        kept = self._keep(minimal)
        for k in minimal:
            others = [kept[j] for j in minimal if j != k]
            others.sort(key=lambda e: (e[0] != mw, len(e[2])))
            kept[k] = self._entry(self.full_reduce(kept[k][2], others, self._first)[0], k)
        if self.ext:  # m is slot 0, in the basis unless the ideal is (1)
            kept[0] = None
        return self._output(kept)

    def normal_forms(self, fs, basis):
        """Each f reduced by the first divisor in basis order, each basis
        element packed once for all of them.  With ext, m comes first, which
        keeps every power of a below 2 deg m - 1, and each reducer is made
        monic over the field, so that its lead has a^0 and divides what it
        divides over the field."""
        if self.ext:
            basis = [g * (1 / g.leading_coeff()) for g in basis]
        R = self.G + [self._entry(self._poly_in(g)[0]) for g in basis]
        out = []
        for f in fs:
            terms, scale = self._poly_in(f)
            out.append(self._poly_out(*self.full_reduce(terms, R, self._first, scale)))
        return out


class RowSpace:
    """The span of a growing set of polynomials of total degree at most d.

    Each pivot is a primitive row keyed by the word of its leading monomial.
    A new row is top-reduced only: its leading term is cancelled,
    fraction-free, against the pivot with the same word until no pivot has
    it, and a nonzero remainder becomes a new pivot.  Pivot leads are
    distinct, so the rank is the number of pivots.  A pivot is kept as three
    tuples (keys, words, coefficients), a third of the memory of a term
    list, since all of them live until the space is dropped.

    The space starts without the generator a and takes it on at the first
    row with an irrational coefficient.  From then on a row p over Q[a]/(m)
    goes in as the rows a^j * p, j < deg m, each folded by field arithmetic
    and then lifted, whose span over Q is the span of p over Q[a]; the rank
    over Q[a] is the rank over Q divided by deg m.  The rational pivots
    before the switch are packed again with a and joined by their a^j
    shifts, which are pivots already, since their leads are distinct.
    """

    def __init__(self, ctx, d):
        self.width = max(8, d.bit_length() + 1)
        self.eng = _Engine(ctx, self.width)
        self.pivots = {}

    @property
    def rank(self):
        eng = self.eng
        return len(self.pivots) // (eng.ctx.field.degree if eng.ext else 1)

    def _admit(self, polys):
        old = self.eng
        if old.ext or not _irrational(old.ctx.field, polys):
            return
        self.eng = eng = _Engine(old.ctx, self.width, True)
        pivots = {}
        for _, ws, cs in self.pivots.values():
            exps = [old.pk.unpack(w) for w in ws]
            for j in range(old.ctx.field.degree):
                keys, words = zip(*[eng.pk.pack(e + (j,)) for e in exps])
                pivots[words[0]] = keys, words, cs
        self.pivots = pivots

    def _rows(self, p):
        """The primitive rows whose span over Q is the span of p."""
        eng = self.eng
        if not eng.ext:
            return [eng._poly_in(p)[0]]
        a = eng.ctx.field.gen
        return [eng._poly_in(p * a**j)[0] for j in range(eng.ctx.field.degree)]

    def add(self, p):
        """Insert a polynomial; True if the rank grew."""
        self._admit([p])
        # the rows of p all grow the rank or none does
        return any([self._insert(f) for f in self._rows(p)])

    def add_multiples(self, multiples):
        """Insert m*g for each (g, ms) and each exponent vector m in ms.

        Rows go in by descending leading monomial, so most of them install a
        fresh pivot without elimination; each is shifted as it goes in.
        """
        self._admit([g for g, _ in multiples])
        eng = self.eng
        rows = []
        for g, ms in multiples:
            for terms in self._rows(g):
                for m in ms:
                    sk, sw = eng.pk.pack(m)
                    rows.append((terms[0][0] + sk, sk, sw, terms))
        rows.sort(key=lambda r: r[0], reverse=True)
        for _, sk, sw, terms in rows:
            self._insert([(k + sk, w + sw, c) for k, w, c in terms])

    def _insert(self, f):
        eng, pivots = self.eng, self.pivots
        steps = 0
        while f:
            piv = pivots.get(f[0][1])
            if piv is None:
                pivots[f[0][1]] = tuple(zip(*eng.strip(f)[0]))
                return True
            cf, cg = _cross(f[0][2], piv[2][0])
            f = eng.comb(f, 0, cf, zip(*piv), cg, 0, 0)
            steps += 1
            if steps & 7 == 0:
                f = eng.strip(f)[0]
        return False


def _on_engine(method, gens):
    """method(engine, gens) on the nonzero polynomials of gens (one context)."""
    gens = [g for g in gens if isinstance(g, Polynomial) and not g.is_zero()]
    if not gens:
        return []
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx != ctx:
            raise ValueError("mixed ring contexts")
    return _packed(ctx, gens, lambda eng: method(eng, gens))


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
    complete-intersection certificate gave it, else None.  Rational
    homogeneous generators of positive degrees, no more of them than
    variables, first get a Hilbert-driven run whose output is accepted only
    as the certified basis of a complete intersection (module docstring);
    other generators, and a refused output, get the plain run."""
    gens = [g for g in gens if isinstance(g, Polynomial) and not g.is_zero()]
    degs = [is_homogeneous(g) for g in gens]
    ctx = gens[0].ctx if gens else None
    if (
        gens and None not in degs and min(degs) > 0 and len(gens) <= ctx.nvars
        and all(g.ctx == ctx for g in gens) and not _irrational(ctx.field, gens)
    ):
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


def minimal_generators(gens, basis=None):
    """A minimal generating set of the ideal of the homogeneous gens, drawn
    from them: in ascending degree, stably, each generator outside the ideal
    of the ones before it (module docstring).  Its size in each degree is
    the number of minimal generators of that degree.

    basis, if given, is a Groebner basis of an ideal that agrees with the
    ideal of the gens up to their largest degree, such as the cached basis
    of an `Ideal` whose generators of higher degree were left out.  It does
    not change the result; it lets the run skip every degree whose part of
    the leading-monomial ideal its basis already covers.
    """
    if any(isinstance(g, Polynomial) and is_homogeneous(g) is None for g in gens):
        raise ValueError("non-homogeneous generator")
    leads = None
    if basis is not None:
        top = max([g.total_degree() for g in gens if isinstance(g, Polynomial)], default=0)
        leads = [g.leading_monomial() for g in basis if g.total_degree() <= top]
    return _on_engine(lambda eng, gs: eng.minimal(gs, leads), gens)


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
    over the base's basis followed by the other generators (module
    docstring); otherwise it runs from the generators."""

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


def ideal_member(f, ideal):
    """True iff f reduces to zero modulo the ideal's Groebner basis."""
    return contained([f], ideal)


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


def eliminate(ideal, k):
    """Intersect with the subring omitting the first k variables: the
    elements of its reduced basis in a block order free of them."""
    ctx = ideal.context
    if k == 0:
        gb = ideal.groebner_basis()
        return Ideal(ctx, gb, basis=gb)
    if not 0 < k < ctx.nvars:
        raise ValueError("elimination count out of range")
    ctx_blk = RingContext(ctx.variables, ("block", k), ctx.field)
    ctx_rest = RingContext(ctx.variables[k:], "dp", ctx.field)
    res = _eliminated([_port(g, ctx_blk) for g in ideal.generators], k, ctx_rest)
    # t-free slice of a reduced elimination basis is itself a reduced basis
    return Ideal(ctx_rest, res, basis=res)


def _eliminated(gens, k, ctx):
    """The elements free of the first k variables of the reduced basis of
    gens, whose ring has a block order on those k, ported to ctx."""
    return [
        _port(g, ctx, drop=k)
        for g in buchberger(gens)
        if not any(any(e[:k]) for e, _ in g.terms)
    ]


_AUX, _HOM, _PROJ = "@t", "@h", "@p"


def _tagged(i_ideal, j_ideal):
    """The generators t*f of I and (1 - t)*g of J, whose ideal meets Q[x] in
    I cap J, in Q[t, x] with the block order (t | x)."""
    ctx = i_ideal.context
    ctxa = RingContext((_AUX,) + ctx.variables, ("block", 1), ctx.field)
    t = ctxa.var(_AUX)
    gens = [t * _port(f, ctxa, pad=1) for f in i_ideal.generators]
    return gens + [(ctxa.one - t) * _port(g, ctxa, pad=1) for g in j_ideal.generators]


def _numerators(i_ideal, j_ideal):
    """The Hilbert numerators of homogeneous I and J, of I+J and of
    L = tI + (h - t)J, the last in two more variables, from the reduced
    bases."""
    ni, nj = i_ideal.numerator(), j_ideal.numerator()
    nij = Ideal(i_ideal.context, i_ideal.generators + j_ideal.generators).numerator()
    # S/L = R + t R/I[t] + s R/J[s] + ts R/(I+J)[t, s] with s = h - t, so
    # N_L = (1-z)^2 + z(1-z)(N_I + N_J) + z^2 N_I+J
    s = _padd(ni, nj)
    return ni, nj, nij, _padd({0: 1, 1: -2, 2: 1}, _padd(_padd(s, nij, 1), s, 1, -1), 1)


def _certified(cand, i_ideal, j_ideal, nums):
    """The t-free slice H of the candidate, monic, ported to the ring of I
    and J and sorted as `_eliminated` sorts, if it passes the certificate
    of the module docstring as the reduced basis of I cap J; else None.
    nums are those of `_numerators`."""
    n = i_ideal.context.nvars
    key = cand[0].ctx.key
    hs = sorted(
        [g for g in cand if g and not any(e[0] for e, _ in g.terms)],
        key=lambda g: key(g.leading_monomial()),
        reverse=True,
    )
    # in the order of the candidate's ring, which is grevlex on the x block
    leads = [g.leading_monomial()[1:] for g in hs]
    # (c) interreduced: a term is divisible by one lead if it is its
    # polynomial's lead term (the first), else by none
    pk = _Packing(
        "dp", n, max(8, (2 * max(map(sum, leads), default=0)).bit_length() + 1)
    )
    words = [pk.pack(m)[1] for m in leads]
    for g in hs:
        for k, (e, _) in enumerate(g.terms):
            top = pk.pack(e[1:])[1] | pk.guard
            if sum((top - w) & pk.guard == pk.guard for w in words) != (k == 0):
                return None
    # (b) HS(R/(H)) = HS(R/I) + HS(R/J) - HS(R/(I+J)), read from the leads
    ni, nj, nij, _ = nums
    if _padd(hilbert_numerator(leads, n), nij) != _padd(ni, nj):
        return None
    # (a) containment
    res = [_port(g * (1 / g.leading_coeff()), i_ideal.context, drop=1) for g in hs]
    return res if contained(res, i_ideal, j_ideal) else None


def _traced(i_ideal, j_ideal):
    """(basis, numerator) of I cap J for homogeneous rational I and J: the
    certified t-free slice of the candidate, the reduced basis of L from one
    exact run Hilbert-driven by N_L and set at h = 1, None where the
    certificate fails; and N(I) + N(J) - N(I+J)."""
    gens = _tagged(i_ideal, j_ideal)
    nums = _numerators(i_ideal, j_ideal)
    ctx = gens[0].ctx
    # h goes in first in the second block: t*f and (h - t)*g
    ctxh = RingContext(ctx.variables[:1] + (_HOM,) + ctx.variables[1:], ctx.order, ctx.field)
    hgens = [homogenized(g, ctxh, 1) for g in gens]
    cand = _packed(ctxh, hgens, lambda eng: eng.run(hgens, nums[3]))
    cand = [dehomogenized(g, ctx, 1) for g in cand]
    res = _certified(cand, i_ideal, j_ideal, nums)
    # HS(R/(I cap J)) = HS(R/I) + HS(R/J) - HS(R/(I+J)), and a homogeneous
    # ideal's Hilbert series does not depend on the monomial order
    return res, _padd(_padd(nums[0], nums[1]), nums[2], sign=-1)


def _dehomogenized(i_ideal, j_ideal):
    """The reduced dp basis of I cap J for rational I and J, in their ring,
    from the intersection of the homogenizations of their dp bases by one
    more variable p, the last (module docstring); None where its
    certificate fails."""
    ctx = i_ideal.context
    dp = RingContext(ctx.variables, "dp", ctx.field)
    ctxp = RingContext(ctx.variables + (_PROJ,), "dp", ctx.field)

    def closure(ideal):
        if ctx != dp:
            ideal = Ideal(dp, [_port(g, dp) for g in ideal.generators])
        # the reduced basis of the homogenization of the ideal
        hs = [homogenized(g, ctxp, ctx.nvars) for g in ideal.groebner_basis()]
        return Ideal(ctxp, hs, basis=hs)

    res = _traced(closure(i_ideal), closure(j_ideal))[0]
    # at p = 1 it is the reduced dp basis of I cap J
    return None if res is None else [dehomogenized(g, ctx, ctx.nvars) for g in res]


def intersect(i_ideal, j_ideal):
    """I cap J via a fresh auxiliary variable.  For rational homogeneous I
    and J its elimination basis is found by one exact run on the
    homogenized generators, Hilbert-driven by N_L, and its t-free slice
    certified by its Hilbert series and containment, with no second
    elimination; rational I and J with a non-homogeneous generator take
    that path on the homogenizations of their dp bases, and a pair that is
    rational once monic takes it as that monic pair.  Otherwise, or when
    the certificate fails, one exact elimination runs, checked by
    containment in I and in J (module docstring)."""
    ctx = i_ideal.context
    if j_ideal.context != ctx:
        raise ValueError("mixed ring contexts")
    if {_AUX, _HOM, _PROJ} & set(ctx.variables):
        raise ValueError("auxiliary variable name collision")
    pair = i_ideal.generators + j_ideal.generators
    if _irrational(ctx.field, pair):  # perhaps only through units
        monic = [g * (1 / g.leading_coeff()) for g in pair]
        if not _irrational(ctx.field, monic):
            n = len(i_ideal.generators)
            i_ideal, j_ideal, pair = Ideal(ctx, monic[:n]), Ideal(ctx, monic[n:]), monic
    res = num = None
    if pair and not _irrational(ctx.field, pair):
        if all(is_homogeneous(g) is not None for g in pair):
            res, num = _traced(i_ideal, j_ideal)
        else:
            res = _dehomogenized(i_ideal, j_ideal)
    if res is None:
        res = _eliminated(_tagged(i_ideal, j_ideal), 1, ctx)
        if not contained(res, i_ideal, j_ideal):
            raise AssertionError("intersection generator failed containment check")
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


def _padd(p, q, shift=0, sign=1):
    """p + sign * t^shift * q on {degree: coefficient} dicts without zeros."""
    out = dict(p)
    for k, c in q.items():
        c = out.pop(k + shift, 0) + sign * c
        if c:
            out[k + shift] = c
    return out


def hilbert_dim(num, n, d):
    """dim (R/M)_d for a monomial ideal M with HS(R/M) = num(t)/(1-t)^n."""
    return sum(c * comb(d - k + n - 1, n - 1) for k, c in num.items() if k <= d)


def hilbert_numerator(leads, n):
    """{k: N_k} with HS(R/(leads)) = N(t)/(1-t)^n, for exponent vectors in
    n variables, without zero coefficients ({} for the unit ideal).

    Bigatti's pivot algorithm (JPAA 119, 1997): minimalize; a generator
    whose variables no other generator uses splits off as a factor
    1 - t^deg; the rest pivot on the power x^e of their most frequent
    variable, by N(M) = N(M + (x^e)) + t^e N(M : x^e), with e the median
    exponent of x in the generators that are not powers of x.  Each branch
    lowers the sum of all exponents, so the recursion ends.
    """
    gens = []
    for m in sorted(set(leads), key=sum):
        if not any(all(map(le, g, m)) for g in gens):
            gens.append(m)
    count = [sum(1 for g in gens if g[i]) for i in range(n)]
    split, rest = [], []
    for g in gens:
        (split if all(count[i] == 1 for i in range(n) if g[i]) else rest).append(g)
    num = {0: 1}
    if rest:
        x = max(range(n), key=count.__getitem__)
        exps = sorted(g[x] for g in rest if g[x] and sum(g) > g[x])
        e = exps[len(exps) // 2]
        power = tuple(e if i == x else 0 for i in range(n))
        plus = hilbert_numerator([g for g in rest if g[x] < e] + [power], n)
        colon = [g[:x] + (max(g[x] - e, 0),) + g[x + 1 :] for g in rest]
        num = _padd(plus, hilbert_numerator(colon, n), e)
    for g in split:
        num = _padd(num, num, sum(g), -1)
    return num
