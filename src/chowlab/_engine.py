"""The packed Buchberger engine under `groebner`, and `RowSpace`, its rank space.

One `_Engine` computes a reduced Groebner basis by Buchberger's algorithm
with Gebauer-Moeller pair management, a minimal generating set, or normal
forms.  S-polynomial arithmetic runs fraction-free on integer coefficients,
with periodic content stripping.

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

`RowSpace` runs exact ranks on the same monomials, by fraction-free
Gaussian elimination one leading monomial at a time, from the top.  At
each, the pivot is the one installed there, or else the shortest row whose
lead it is, the earliest on a tie, divided by its content; every other
row r with that lead becomes cf * r - cg * pivot and waits at its new lead.
It keeps its content there unless its lead coefficient has grown past
`_STRIP_BITS` bits: fraction-free elimination needs no gcd at each step
(Bareiss, Math. Comp. 22, 1968), and a scale on r changes no pivot.  A
short pivot limits fill-in (Markowitz, Management Science 3, 1957; the
matrices of F4, Faugere, JPAA 139, 1999): each reduction adds the pivot's
terms and multiplies by its lead, and the products m*g go in before any
remainder and are far shorter, with small coefficients.  The rank is the
number of pivots whichever row is chosen.  Every graded rank of `rings` is
computed this way, over Q and over Q[a] alike.

A row is reduced in place, on its own lists, so a step costs Python work
per pivot term, not per row term, unless cf is not 1: on the rank sweep of the s5 Jacobian
over Q through degree 13, 31,629 reductions add 0.33 M pivot terms to
rows that `comb` would walk in full, 1.38 M terms in all.  The engine
keeps `comb`: there the reducer's terms land on the dividend's own terms
(846 K of 872 K in `exp s5-ideal`), so a merge walks little that it does
not change anyway.

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

Every run takes its generators through one loop, in degree order among
the pairs (`_Engine.minimal`; Kreuzer and Robbiano, Computational
Commutative Algebra 2, sec. 4.6): a generator of degree d is reduced after
every pair of degree at most d, and its remainder, if nonzero, is
inserted.  Its lead no basis lead divides, so for homogeneous generators
its pairs lie above d and the basis stays a Groebner basis through degree
d of the ideal of the generators so far; `groebner.minimal_generators`
keeps the generators whose remainder is nonzero, which are minimal.  A
grown run first inserts its known basis (below).  Every run reduces a term
by the first basis entry whose lead divides it, in the order m, then by
size, then by slot (`_reducer`), memoized per word: a word looked up again
tests only the entries added since.  It ends in `_finalize`, which keeps a
minimal basis, interreduces each entry by the others, m first, then the
smallest, and outputs the basis without m, releasing each entry once it is
replaced or output.

A run is grown (a `groebner.Ideal` with a base) when its first polys are
the reduced basis G of an ideal I and the rest are new generators.  G goes
in first, and `run` drops the pairs queued among its entries, over Q[a]
with m too, before the new generators go through the degree loop.  This
is exact: G is a Groebner basis, and so is G plus m in Q[x, a] (above), so
each of those S-polynomials reduces to zero by them, a standard
representation by entries that every later basis of the run contains.
Buchberger's criterion (Cox, Little, O'Shea, ch. 2 secs. 6 and 9) and the
Gebauer-Moeller updates need no more of those pairs, and the reduced basis
is unique, so the output is that of a run from all the generators.

A run is Hilbert-driven (Traverso, JSC 22, 1996) when the Hilbert
function HF_K of LM(I) over the field K is known in the degrees it
reaches, as the Hilbert numerator of those leads
(`hilbert.hilbert_numerator`).  `groebner` drives the elimination run of
`intersect`, the complete-intersection runs of `buchberger` and, given a
numerator, the runs of `minimal_generators` this way, over Q and over
Q[a] alike.  At the first item of degree d the run computes the deficit
k = HF_run(d) - HF_K(d), HF_run from the numerator of the x-parts of its
leads free of a (over Q, every lead), and it covers d once k more leads
free of a are in.  From then on the degree loop drops the remaining pairs
of degree d and skips the remaining degree-d generators, which are not
minimal.

This is exact.  Over K = Q[a]/(m), LM(I + (m)) in Q[x, a] is generated by
a^(deg m) and by the leads x^b a^0 of the reduced basis of I over K, each
made monic (above).  A run lead x^c a^0 lies in LM(I + (m)) and is not
divisible by a^(deg m), so x^c lies in LM_K(I): the run's a^0 lead ideal M
lies in LM_K(I), and HF_run(d) >= HF_K(d).  An inserted lead is divisible
by no run lead, so an a^0 insertion in degree d adds exactly one monomial
to M there, and an insertion whose lead carries a adds none; so k more a^0
insertions make M_d = LM_K(I)_d.  Then a remainder in degree d is zero:
it lies in I + (m), so its lead x^c a^j, j < deg m, is divisible by some
x^b a^0, and x^c lies in LM_K(I)_d = M_d, so a run lead x^c' a^0 divides
it, against its being reduced.  Over Q there is no a and no m, and every
lead counts.  A wrong numerator can make a run drop a pair it needs; each
run that takes one is certified in `groebner`, so that costs a refused
output, never a wrong answer.
"""

from bisect import bisect_left
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm

from .coeff import ExtField
from .hilbert import hilbert_dim, hilbert_numerator
from .poly import Polynomial


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


_STRIP_BITS = 1024  # bits of lead past which `RowSpace` strips a waiting row


def _primitive(cs):
    """The integers cs divided by their content, signed to make the first
    one positive."""
    g = gcd(*cs)
    if cs[0] < 0:
        g = -g
    return cs if g == 1 else [c // g for c in cs]


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
        self.free = []  # the x-parts of the leads free of a, in insertion order
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
            k, w, c = f[i]
            cf, cg = _cross(c, red[1])
            f = self.comb(f, i, cf, red[2], cg, *self._shift(red, k, w))
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
        if not any(lmh[pk.n :]):
            self.free.append(lmh[: pk.n])
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
        homogeneous polys whose ideal's leading monomials over the field have
        the Hilbert numerator target: at the first item of degree d, the
        deficit k of the run's leads free of a against the target in degree
        d, and covered(d) once k more such leads are in."""
        n, free, goal = self.ctx.nvars, self.free, {}

        def covered(d):
            if d not in goal:
                num = hilbert_numerator(free, n)
                goal[d] = len(free) + hilbert_dim(num, n, d) - hilbert_dim(target, n, d)
            return len(free) >= goal[d]

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

    def run(self, polys, target=None, known=0):
        """Reduced basis of the polys.  The first known polys, a reduced basis,
        go in first and the pairs among them are dropped (a grown run, module
        docstring); the rest go in degree order among the pairs (`minimal`),
        Hilbert-driven if target, the Hilbert numerator of the leading
        monomials of the ideal of the homogeneous polys, is given."""
        for p in polys[:known]:
            self._insert(self._poly_in(p)[0])
        self.live.clear()
        self.heap.clear()
        self.minimal(polys[known:], target)
        self._pairs_through(None)
        return self._finalize()

    def minimal(self, polys, target=None):
        """The polys outside the ideal of those before them in degree order.

        target, if given, is the Hilbert numerator of the leading monomials
        of the ideal of the polys over the field, in every degree they reach:
        the pairs and polys of a degree the run's leads cover are then
        skipped (module docstring), and self.pruned counts them.
        """
        if target is not None:
            self._hilbert_driven(target)
        out = []
        for k in sorted(range(len(polys)), key=lambda k: polys[k].total_degree()):
            d = polys[k].total_degree()
            self._pairs_through(d)
            if self.covered and self.covered(d):
                self.pruned[1] += 1
            elif self._insert(self._poly_in(polys[k])[0]):
                out.append(polys[k])
        return out

    def _finalize(self):
        """Interreduce a minimal basis, each entry by the others, m first,
        then the smallest; output it without m, descending by lead."""
        G, guard = self.G, self.pk.guard
        minimal = []  # ascending by lead
        for idx in sorted(range(len(G)), key=lambda k: G[k][2][0][0]):
            top = G[idx][0] | guard
            if not any((top - G[k][0]) & guard == guard for k in minimal):
                minimal.append(idx)
        mw = G[0][0] if self.ext else None  # m's lead, a^d
        kept = [None] * len(G)
        for k in minimal:
            kept[k] = G[k]
        # from here each entry is dropped once replaced, to lower the peak
        self.G = self.memo = G = None
        for k in minimal:
            others = [kept[j] for j in minimal if j != k]
            others.sort(key=lambda e: (e[0] != mw, len(e[2])))
            kept[k] = self._entry(self.full_reduce(kept[k][2], others, self._first)[0], k)
        if self.ext:  # m is slot 0, in the basis unless the ideal is (1)
            kept[0] = None
        # interreduction keeps each lead, so minimal orders the entries
        kept = [kept[k] for k in minimal if kept[k]]
        return [self._poly_out(kept.pop()[2]) for _ in range(len(kept))]

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

    A row or pivot is three parallel lists: the negated order keys of its
    terms, ascending (so the leading monomial comes first and `bisect`
    finds a key), their words, and their integer coefficients.  Each pivot
    is primitive, with a positive lead, and is keyed by its first negated
    key; pivot leads are distinct, so the rank is the number of pivots.

    `add` and `add_multiples` hand their rows to `_eliminate`.  It files
    each row at its leading monomial (a product m*g with its shift, applied
    only when that monomial comes up) and takes the leading monomials from
    the top, through a heap.  At each, the pivot is the one already
    installed there, or else the shortest row waiting there, the earliest
    on a tie, so a product m*g wins over a remainder.  Every other row r
    waiting there becomes cf * r - cg * pivot, cf and cg the cofactors of
    the two leads, in place: r's coefficients are scaled by cf unless it is
    1, its lead is deleted, and each later pivot term is found in r by
    bisection from the position of the one before it, then updated,
    deleted if it cancels, or inserted.  Unless it vanished, r then waits
    at its new lead, which lies lower.  A short pivot with small
    coefficients keeps the rows and pivots below it short and small.  The
    choice cannot change the rank: cf is nonzero, so each step keeps the
    span of the pivots and the waiting rows, and once no row waits the
    pivots, with their distinct leads, are a basis of it.

    Only the pivots need to be primitive.  A waiting row keeps its content
    unless its lead has more than `_STRIP_BITS` bits; the row chosen as a
    pivot is always divided by its content and signed.  That changes no
    pivot: reducing q * r, q rational, gives a rational multiple of what
    reducing r gives, the pivot rule reads only lengths, and a primitive
    row with a positive lead is the only one among its multiples.  The
    threshold weighs a gcd and a division of the whole row at every step
    against arithmetic on larger integers.  On the rank sweeps of the s5
    Jacobian, over Q through degree 13 and over Q[a] through degree 10,
    1024 bits was the fastest of 0 (a strip at every step) to 4096.  Over
    Q it strips 612 of the 31,629 remainders there; a strip at every step
    divided 17,758 of them.

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
                pivots[-keys[0]] = [-k for k in keys], list(words), cs
        self.pivots = pivots

    def _rows(self, p):
        """The primitive rows whose span over Q is the span of p, each as its
        negated keys, words and coefficients."""
        eng = self.eng
        field = eng.ctx.field
        rows = []
        for q in [p * field.gen**j for j in range(field.degree)] if eng.ext else [p]:
            terms = eng._poly_in(q)[0]
            rows.append(
                ([-k for k, _, _ in terms], [w for _, w, _ in terms], [c for _, _, c in terms])
            )
        return rows

    def add(self, p):
        """Insert a polynomial; True if the rank grew."""
        self._admit([p])
        # the rows of p all grow the rank or none does
        return self._eliminate([(*f, 0, 0) for f in self._rows(p)]) > 0

    def add_multiples(self, multiples):
        """Insert m*g for each (g, ms) and each exponent vector m in ms."""
        self._admit([g for g, _ in multiples])
        pack = self.eng.pk.pack
        self._eliminate([(*f, *pack(m)) for g, ms in multiples for f in self._rows(g) for m in ms])

    def _eliminate(self, rows):
        """Eliminate the rows (negated keys, words, coefficients, key shift,
        word shift), one leading monomial at a time from the top; the number
        of new pivots."""
        pivots = self.pivots
        waiting, heap, new = {}, [], 0

        def wait(lead, row):
            if lead not in waiting:
                waiting[lead] = []
                heappush(heap, lead)
            waiting[lead].append(row)

        for ks, ws, cs, sk, sw in rows:
            if ks:  # an unshifted row is copied, as it is reduced in place
                wait(ks[0] - sk, (ks, ws, cs, sk, sw) if sw else (ks[:], ws[:], cs[:], 0, 0))
        while heap:
            lead = heappop(heap)
            here = [
                ([k - sk for k in ks], [w + sw for w in ws], cs[:]) if sw else (ks, ws, cs)
                for ks, ws, cs, sk, sw in waiting.pop(lead)
            ]
            piv = pivots.get(lead)
            if piv is None:  # the shortest row, the earliest on a tie
                ks, ws, cs = here.pop(min(range(len(here)), key=lambda i: len(here[i][0])))
                piv = pivots[lead] = ks, ws, _primitive(cs)
                new += 1
            if not here:
                continue
            pks, pws, pcs = piv
            lc, tail = pcs[0], list(zip(pks[1:], pws[1:], pcs[1:]))
            for ks, ws, cs in here:
                # cf * row - cg * pivot, in place: each pivot term is found
                # in the row by bisection, after the one before it
                cf, cg = _cross(cs[0], lc)
                if cf != 1:
                    cs = [c * cf for c in cs]
                del ks[0], ws[0], cs[0]
                i, n = 0, len(ks)
                for k, w, c in tail:
                    i = bisect_left(ks, k, i, n)
                    if i < n and ks[i] == k:
                        c = cs[i] - cg * c
                        if c:
                            cs[i] = c
                        else:
                            del ks[i], ws[i], cs[i]
                            n -= 1
                    else:
                        ks.insert(i, k)
                        ws.insert(i, w)
                        cs.insert(i, -cg * c)
                        n += 1
                if n:
                    if cs[0].bit_length() > _STRIP_BITS:
                        cs = _primitive(cs)
                    wait(ks[0], (ks, ws, cs, 0, 0))
        return new
