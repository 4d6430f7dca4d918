"""Groebner bases: Buchberger with Gebauer-Moeller pair management.

S-polynomial arithmetic runs fraction-free: integer coefficients over Q,
integer coordinate tuples over an integral extension field, with periodic
content stripping.  Public results are reduced Groebner bases (monic,
interreduced, sorted descending by leading monomial), which makes every
basis canonical for a given ideal and order.  On top of that: normal forms,
ideal membership, elimination, pairwise intersection, and Krull dimension.

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
"""

import threading
from bisect import insort
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from operator import add, neg

from .coeff import ExtField
from .poly import Polynomial, RingContext


class _Overflow(Exception):
    """A degree outgrew the packed fields; the run restarts wider."""


class _Packing:
    """Order keys and divisibility words of exponent vectors, W-bit fields."""

    def __init__(self, order, nvars, width):
        self.limit = (1 << (width - 1)) - 1
        self.mask = (1 << width) - 1
        if order == "lp":
            fields = [nvars - 1 - i for i in range(nvars)]
            self.sign, self.tops, nfields = 1, [], nvars
        else:
            k = order[1] if isinstance(order, tuple) else 0
            fields = [0] * nvars
            self.sign, self.tops, nfields = -1, [], 0
            blocks = ((k, nvars), (0, k)) if k else ((0, nvars),)
            for lo, hi in blocks:  # least significant first
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
        deg = sum(exps)
        if deg > self.limit:
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


class _ZKernel:
    """Integer coefficient arithmetic for rational-field inputs."""

    one = 1

    @staticmethod
    def poly_in(p, pack):
        """(terms, den): the packed terms of den * p, all integral."""
        den = lcm(*(c.denominator for _, c in p.terms))
        return [
            (*pack(e), c.numerator * (den // c.denominator)) for e, c in p.terms
        ], den

    @staticmethod
    def content(terms):
        """Gcd of the coefficients, signed like the leading coefficient."""
        g = gcd(*[c for _, _, c in terms])
        return -g if terms[0][2] < 0 else g

    @staticmethod
    def cross(a, b):
        d = gcd(a, b)
        return b // d, a // d

    @staticmethod
    def scalar(c):
        return c


class _ExtKernel:
    """Coefficients in Z[b] for the algebraic integer b = D*a, D the least
    common denominator of the minimal polynomial: integer coordinate tuples
    with the ring operations as operators."""

    def __init__(self, field):
        self.field = field
        d = field.degree
        D = lcm(*(c.denominator for c in field.minpoly))
        self.powers = [D**k for k in range(d)]  # b^k = D^k * a^k
        # integral rewrite rows for b^d .. b^(2d-2)
        rows = [
            [int(x * D ** (k - j)) for j, x in enumerate(field._pow[k])]
            for k in range(d, 2 * d - 1)
        ]

        class Elt(tuple):
            __slots__ = ()

            def __add__(self, other):
                return Elt(map(add, self, other))

            def __neg__(self):
                return Elt(map(neg, self))

            def __floordiv__(self, g):
                return Elt(x // g for x in self)

            def __bool__(self):
                return any(self)

            def __mul__(self, other):
                conv = [0] * (2 * d - 1)
                for i, x in enumerate(self):
                    if x:
                        for j, y in enumerate(other, i):
                            conv[j] += x * y
                out = conv[:d]
                for k in range(d, 2 * d - 1):
                    ck = conv[k]
                    if ck:
                        row = rows[k - d]
                        for i in range(d):
                            out[i] += ck * row[i]
                return Elt(out)

        self.elt = Elt
        self.one = Elt((1,) + (0,) * (d - 1))

    def poly_in(self, p, pack):
        coords = [[x / s for x, s in zip(c.coeffs, self.powers)] for _, c in p.terms]
        den = lcm(*(x.denominator for cs in coords for x in cs))
        elt = self.elt
        return [
            (*pack(e), elt(x.numerator * (den // x.denominator) for x in cs))
            for (e, _), cs in zip(p.terms, coords)
        ], den

    @staticmethod
    def content(terms):
        g = gcd(*[x for _, _, c in terms for x in c])
        return -g if next(x for x in terms[0][2] if x) < 0 else g

    @staticmethod
    def cross(a, b):
        c = gcd(*a, *b)
        if c == 1:
            return b, a
        return b // c, a // c

    def scalar(self, c):
        return self.field.element([x * s for x, s in zip(c, self.powers)])


def _packed(ctx, polys, job):
    """job(engine) with fields wide enough for every degree the run reaches."""
    width = max(8, (2 * max(p.total_degree() for p in polys)).bit_length() + 1)
    while True:
        try:
            return job(_Engine(ctx, width))
        except _Overflow:
            width *= 2


class _Engine:
    """One Buchberger run (or normal form) over a fixed ring context.

    A term is (key, word, coefficient); a polynomial is a list of terms,
    descending by key.  A basis entry is (lead word, lead coefficient,
    terms, largest total degree of its terms).
    """

    def __init__(self, ctx, width):
        self.ctx = ctx
        self.pk = _Packing(ctx.order, ctx.nvars, width)
        field = ctx.field
        self.kern = _ExtKernel(field) if isinstance(field, ExtField) else _ZKernel()

    def strip(self, terms):
        """(terms / g, g) for the content g, signed to make the lead positive."""
        if not terms:
            return terms, 1
        g = self.kern.content(terms)
        if g != 1:
            terms = [(k, w, c // g) for k, w, c in terms]
        return terms, g

    def _poly_in(self, p):
        """(terms, scale) with p = scale * terms, terms primitive."""
        terms, den = self.kern.poly_in(p, self.pk.pack)
        terms, g = self.strip(terms)
        return terms, Fraction(g, den)

    def _poly_out(self, terms, scale=None):
        """The polynomial scale * terms; monic when no scale is given."""
        scalar, unpack = self.kern.scalar, self.pk.unpack
        if scale is None:
            scale = self.ctx.field.one / scalar(terms[0][2])
        out = tuple((unpack(w), scalar(c) * scale) for _, w, c in terms)
        return Polynomial(self.ctx, out)

    def _entry(self, terms):
        top = max(w for _, w, _ in terms) >> self.pk.deg_shift
        return (terms[0][1], terms[0][2], terms, top)

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
        mul_a = ca != self.kern.one
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

    def _step(self, f, i, red):
        """Cancel term i of f against the entry red: (new f, its factor on f)."""
        k, w, c = f[i]
        cf, cg = self.kern.cross(c, red[1])
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
                scale = scale / self.kern.scalar(cf)
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
        cf, cg = self.kern.cross(ei[1], ej[1])
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
        insort(self.R, ent, key=lambda e: len(e[2]))
        for g_idx, big, key, coprime in kept:
            if coprime:
                continue
            live[(g_idx, idx)] = big
            self._seq += 1
            # degree-first selection, order key as tie-break
            heappush(self.heap, (big >> pk.deg_shift, key, self._seq, g_idx, idx))

    def run(self, polys, degree_cap=None):
        self.G = []
        # by size, stably: the first divisor is the smallest reducer, to limit fill-in
        self.R = []
        self.live = {}
        self.heap = []
        self._seq = 0
        for p in polys:
            h = self.full_reduce(self._poly_in(p)[0], self.R, self._first)[0]
            if h:
                self._add(h)
        while self.heap:
            item = heappop(self.heap)
            if degree_cap is not None and item[0] > degree_cap:
                # degree-first selection pops pairs in increasing degree, so
                # nothing below the cap remains
                break
            ij = (item[3], item[4])
            big = self.live.pop(ij, None)
            if big is None:
                continue
            s = self.spoly(self.G[ij[0]], self.G[ij[1]], item[1], big)
            h = self.full_reduce(s, self.R, self._first)[0]
            if h:
                self._add(h)
        return self._finalize()

    def _finalize(self):
        G = self.G
        guard = self.pk.guard
        order = sorted(range(len(G)), key=lambda k: G[k][2][0][0])
        minimal = []
        for idx in order:
            top = G[idx][0] | guard
            if not any((top - G[k][0]) & guard == guard for k in minimal):
                minimal.append(idx)
        kept = [G[k] for k in minimal]
        for i in range(len(kept)):
            others = sorted(kept[:i] + kept[i + 1 :], key=lambda e: len(e[2]))
            kept[i] = self._entry(self.full_reduce(kept[i][2], others, self._first)[0])
        kept.sort(key=lambda ent: ent[2][0][0], reverse=True)
        return [self._poly_out(ent[2]) for ent in kept]

    def normal_form(self, f, basis):
        guard = self.pk.guard
        words = [self.pk.pack(g.leading_monomial())[1] for g in basis]
        ents = {}

        def first(_, word):
            # the first divisor in basis order, packed on its first use
            top = word | guard
            for i, w in enumerate(words):
                if (top - w) & guard == guard:
                    if i not in ents:
                        ents[i] = self._entry(self._poly_in(basis[i])[0])
                    return ents[i]
            return None

        terms, scale = self._poly_in(f)
        terms, scale = self.full_reduce(terms, None, first, scale)
        return self._poly_out(terms, scale)


class RowSpace:
    """The span of a growing set of polynomials of total degree at most d.

    Each pivot is a primitive row keyed by the word of its leading monomial.
    A new row is top-reduced only: its leading term is cancelled,
    fraction-free, against the pivot with the same word until no pivot has
    it, and a nonzero remainder becomes a new pivot.  Pivot leads are
    distinct, so the rank is the number of pivots.  A pivot is kept as three
    tuples (keys, words, coefficients), a third of the memory of a term
    list, since all of them live until the space is dropped.
    """

    def __init__(self, ctx, d):
        self.eng = _Engine(ctx, max(8, d.bit_length() + 1))
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, p):
        """Insert a polynomial; True if the rank grew."""
        return self._insert(self.eng._poly_in(p)[0])

    def add_multiples(self, multiples):
        """Insert m*g for each (g, ms) and each exponent vector m in ms.

        Rows go in by descending leading monomial, so most of them install a
        fresh pivot without elimination; each is shifted as it goes in.
        """
        eng = self.eng
        rows = []
        for g, ms in multiples:
            terms = eng._poly_in(g)[0]
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
            cf, cg = eng.kern.cross(f[0][2], piv[2][0])
            f = eng.comb(f, 0, cf, zip(*piv), cg, 0, 0)
            steps += 1
            if steps & 7 == 0:
                f = eng.strip(f)[0]
        return False


def buchberger(gens, degree_cap=None):
    """Reduced Groebner basis of the given generators (shared context).

    With degree_cap no S-pair above that total degree is processed.  For
    homogeneous input the result then has correct leading terms and normal
    forms through the cap, because pair degrees never decrease.
    """
    gens = [g for g in gens if isinstance(g, Polynomial) and not g.is_zero()]
    if not gens:
        return []
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx != ctx:
            raise ValueError("mixed ring contexts")
    return _packed(ctx, gens, lambda eng: eng.run(gens, degree_cap))


def normal_form(f, basis):
    """Fully reduce f modulo the basis; f - result lies in (basis).

    Each term is reduced by the first basis element, in the given order,
    whose leading monomial divides it, so the remainder is exact and the
    same for any basis, Groebner or not.
    """
    gs = [g for g in basis if not g.is_zero()]
    if any(g.ctx != f.ctx for g in gs):
        raise ValueError("mixed ring contexts")
    if f.is_zero():
        return f
    return _packed(f.ctx, [f] + gs, lambda eng: eng.normal_form(f, gs))


def s_polynomial(f, g):
    """Classic S-polynomial with monic scaling (field coefficients)."""
    ctx = f.ctx
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    big = tuple(max(a, b) for a, b in zip(lmf, lmg))
    mf = ctx.monomial(tuple(a - b for a, b in zip(big, lmf)))
    mg = ctx.monomial(tuple(a - b for a, b in zip(big, lmg)))
    return mf * f * (1 / f.leading_coeff()) - mg * g * (1 / g.leading_coeff())


class Ideal:
    """Generators plus a lazily computed, cached reduced Groebner basis."""

    def __init__(self, ctx, generators):
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
        self._gb = None
        self._lock = threading.Lock()

    def groebner_basis(self):
        # single-flight: the cache is computed at most once
        if self._gb is None:
            with self._lock:
                if self._gb is None:
                    self._gb = tuple(buchberger(list(self.generators)))
        return self._gb

    def _set_gb(self, gb):
        with self._lock:
            self._gb = tuple(gb)

    def __repr__(self):
        return f"Ideal({len(self.generators)} gens over {self.context!r})"


def ideal_member(f, ideal):
    """True iff f reduces to zero modulo the ideal's Groebner basis."""
    if isinstance(ideal, Ideal):
        basis = ideal.groebner_basis()
    else:
        basis = buchberger(list(ideal))
    return normal_form(f, basis).is_zero()


def _port(g, ctx2, pad=0, drop=0):
    d = {}
    for e, c in g.terms:
        e2 = (0,) * pad + tuple(e[drop:])
        d[e2] = c
    return ctx2.from_dict(d)


def eliminate(ideal, k):
    """Intersect with the subring omitting the first k variables."""
    ctx = ideal.context
    if k == 0:
        out = Ideal(ctx, list(ideal.groebner_basis()))
        out._set_gb(ideal.groebner_basis())
        return out
    if not 0 < k < ctx.nvars:
        raise ValueError("elimination count out of range")
    ctx_blk = RingContext(ctx.variables, ("block", k), ctx.field)
    gb = buchberger([_port(g, ctx_blk) for g in ideal.generators])
    ctx_rest = RingContext(ctx.variables[k:], "dp", ctx.field)
    res = []
    for g in gb:
        if all(all(x == 0 for x in e[:k]) for e, _ in g.terms):
            res.append(_port(g, ctx_rest, drop=k))
    out = Ideal(ctx_rest, res)
    # t-free slice of a reduced elimination basis is itself a reduced basis
    out._set_gb(res)
    return out


_AUX = "@t"


def intersect(i_ideal, j_ideal):
    """I cap J via a fresh auxiliary variable and one elimination."""
    ctx = i_ideal.context
    if j_ideal.context != ctx:
        raise ValueError("mixed ring contexts")
    if _AUX in ctx.variables:
        raise ValueError("auxiliary variable name collision")
    ctxa = RingContext((_AUX,) + ctx.variables, ("block", 1), ctx.field)
    t = ctxa.var(_AUX)
    gens = [t * _port(f, ctxa, pad=1) for f in i_ideal.generators]
    gens += [(ctxa.one - t) * _port(g, ctxa, pad=1) for g in j_ideal.generators]
    gb = buchberger(gens)
    res = []
    for g in gb:
        if all(e[0] == 0 for e, _ in g.terms):
            res.append(_port(g, ctx, drop=1))
    out = Ideal(ctx, res)
    if ctx.order == "dp":
        out._set_gb(res)
    for g in res:
        if not (ideal_member(g, i_ideal) and ideal_member(g, j_ideal)):
            raise AssertionError("intersection generator failed containment check")
    return out


def krull_dim(ideal):
    """Affine Krull dimension of the quotient by the ideal (unit ideal: -1)."""
    gb = ideal.groebner_basis()
    n = ideal.context.nvars
    if not gb:
        return n
    supports = [
        frozenset(i for i, x in enumerate(g.leading_monomial()) if x) for g in gb
    ]
    best = -1
    for mask in range(1 << n):
        subset = frozenset(i for i in range(n) if mask >> i & 1)
        if len(subset) <= best:
            continue
        if any(s <= subset for s in supports):
            continue
        best = len(subset)
    return best
