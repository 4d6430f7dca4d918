"""The mod-p Groebner runs behind `groebner.intersect` over Q.

`_modular_basis` computes a candidate for the reduced elimination basis of
a rational intersection from runs modulo the primes of `_PRIMES`: a full
run at the first prime, which is `_Engine.run` with recording hooks,
records its work as a straight-line program (the trace), each later prime
replays that program, and CRT with rational reconstruction lifts the
replays to Q.  Every intersection it serves is homogeneous: a pair with a
non-homogeneous generator is first replaced by its closures, the
homogenizations of its dp bases (`_dehomogenized`, which sets the new
variable back to 1 in the result).  So the runs are on the homogenized
generators and the trace is Hilbert-driven.  The `groebner` module
docstring gives the method and why a wrong candidate costs time, never a
wrong answer.

A program is (ops, minimal, inter, shape):

- ops, in the order of the trace, are its generator insertions and its
  S-pairs that did not reduce to zero, each as (source, steps, size).  The
  source is a generator's index in the input, or (i, j, lcm) for the S-pair
  of basis slots i and j with lead lcm lcm (an exponent vector); steps
  holds the term position and the reducer slot of each reduction step, flat
  in an int array (less than half the memory of a list of pairs), and size
  is the remainder's number of terms.  Each op with a remainder installs the
  next basis slot.  A Hilbert-driven run interleaves the generators with
  the pairs, in degree order, and leaves out the ones it skipped; a run
  without a target (`_mod_run` allows one) inserts every generator before
  the first pair.  A generator that
  reduced to zero stays in, so that a replay whose remainder is not zero
  leaves the program.
- minimal holds the slots of the minimal basis, inter the (steps, size) of
  the interreduction of each of them, and shape the monomials of the
  output, one list per polynomial.
"""

from array import array
from fractions import Fraction
from math import gcd

from .groebner import _HOM, _PROJ, Ideal, _Engine, _packed, _port, _traced
from .poly import RingContext

# literal, so that import does no work.  The first, below 2^30 so that its
# residues are single-digit ints, runs the trace; two of the 350-bit ones lift
# the s5 elimination basis, whose coefficients need up to about 665 bits
_PRIMES = ((1 << 30) - 35,) + tuple((1 << 350) - c for c in (113, 131, 401, 425))


class _Astray(Exception):
    """A replay left the path of its program."""


class _ModEngine(_Engine):
    """A Buchberger run modulo the prime p, the basis coming out as monic
    (exponents, residue) term lists.  Every reducer is monic, so `cross` is
    (1, 1) and a term costs one multiply and one `% p`.  Its input is
    rational: it has no generator a to fold.

    Besides the arithmetic it has only recording hooks and the replay.
    `run` is `_Engine.run` with the hooks: `full_reduce` records the (steps,
    size) of each reduction, `_insert` turns its record into an op whose
    source is the generator index or S-pair the engine names, and the
    records left over after the pairs are the interreduction, in the order
    of `_minimal_set`.  The program (module docstring) ends in self.program;
    `replay` runs a program instead, with the same `_keep` and `_output`.
    """

    def __init__(self, ctx, width, p):
        super().__init__(ctx, width)
        self.p = p
        self.ops, self.records = [], []
        self.program = None

    def _poly_in(self, f):
        p = self.p
        terms, den = self._integral(self._terms(f))  # den * f, integral
        if den % p == 0 or terms[0][2] % p == 0:
            raise ZeroDivisionError("a denominator or the lead vanishes mod p")
        return self.strip([(k, w, c % p) for k, w, c in terms if c % p])[0], None

    def _poly_out(self, terms, scale=None):
        return [(self.pk.unpack(w), c) for _, w, c in terms]

    def strip(self, terms):
        lc, p = terms[0][2] if terms else 1, self.p
        inv = pow(lc, -1, p)
        return ([(k, w, c * inv % p) for k, w, c in terms] if inv != 1 else terms), lc

    def comb(self, A, i, ca, B, cb, sk, sw):
        """A - cb * x^s * B mod p (ca is 1)."""
        p = self.p
        out = A[:i]
        push = out.append
        ncb = p - cb
        n = len(A)
        for kb, wb, c in B:
            kb += sk
            while i < n and A[i][0] > kb:
                push(A[i])
                i += 1
            if i < n and A[i][0] == kb:
                t = A[i]
                i += 1
                c = (t[2] + c * ncb) % p
                if c:
                    push((kb, t[1], c))
            else:
                push((kb, wb + sw, c * ncb % p))
        out.extend(A[i:])
        return out

    def full_reduce(self, f, G, pick, scale=None):
        """As `_Engine.full_reduce`, with no strip of a partial remainder;
        the (steps, size) of the run go to self.records."""
        steps = array("l")
        i = 0
        while i < len(f):
            red = pick(G, f[i][1])
            if red is None:
                i += 1
            else:
                steps.append(i)
                steps.append(red[4])
                f = self._step(f, i, red)[0]
        f = self.strip(f)[0]
        self.records.append((steps, len(f)))
        return f, None

    def _follow(self, f, G, steps, size):
        """f reduced by the recorded steps, the reducers taken from the slots
        of G; each reducer's lead must divide the term at its position, and
        the remainder must have size terms."""
        guard = self.pk.guard
        pairs = iter(steps)
        for i, s in zip(pairs, pairs):
            red = G[s]
            if red is None or i >= len(f):
                raise _Astray
            if ((f[i][1] | guard) - red[0]) & guard != guard:  # the lead does not divide
                raise _Astray
            f = self._step(f, i, red)[0]
        f = self.strip(f)[0]
        if len(f) != size:
            raise _Astray
        return f

    def _insert(self, terms, src=None):
        h = super()._insert(terms)
        steps, size = self.records.pop()
        if type(src) is tuple:  # an S-pair: its lcm as exponents, for any width
            src = src[0], src[1], self.pk.unpack(src[2])
        if h or type(src) is int:  # a generator is an op even if it reduced to zero
            self.ops.append((src, steps, size))
        return h

    def _minimal_set(self):
        self.minimal = super()._minimal_set()
        return self.minimal

    def run(self, polys, target=None):
        """The reduced basis of the polys mod p, recorded in self.program."""
        basis = super().run(polys, target)
        self.program = self.ops, self.minimal, self.records, _shape(basis)
        return basis

    def replay(self, polys, program):
        """The basis of the program's run at this prime, with no pair
        update and no divisor search, or None where the run leaves the
        program's path: a failed step check, a remainder of another size or
        an output with other monomials."""
        ops, minimal, inter, shape = program
        gens = [self._poly_in(f)[0] for f in polys]
        G = self.G
        try:
            for src, steps, size in ops:
                if type(src) is int:
                    f = gens[src]
                else:
                    f = self.spoly(G[src[0]], G[src[1]], *self.pk.pack(src[2]))
                f = self._follow(f, G, steps, size)
                if f:
                    G.append(self._entry(f))
            G = gens = None  # so that _keep releases the entries outside minimal
            kept = self._keep(minimal)
            for k, (steps, size) in zip(minimal, inter):
                kept[k] = self._entry(self._follow(kept[k][2], kept, steps, size), k)
        except _Astray:
            return None
        basis = self._output(kept)
        return basis if _shape(basis) == shape else None


def _homogenized(g, ctx, k):
    """g homogenized by the variable k of ctx, the others g's in order."""
    d = g.total_degree()
    return ctx.from_dict({e[:k] + (d - sum(e),) + e[k:]: c for e, c in g.terms})


def _dehomogenized(i_ideal, j_ideal):
    """The reduced dp basis of I cap J for rational I and J, in their ring,
    from the intersection of the homogenizations of their dp bases by one
    more variable p, the last (`groebner` module docstring); None where its
    certificate fails."""
    ctx = i_ideal.context
    dp = RingContext(ctx.variables, "dp", ctx.field)
    ctxp = RingContext(ctx.variables + (_PROJ,), "dp", ctx.field)

    def closure(ideal):
        if ctx != dp:
            ideal = Ideal(dp, [_port(g, dp) for g in ideal.generators])
        # the reduced basis of the homogenization of the ideal
        hs = [_homogenized(g, ctxp, ctx.nvars) for g in ideal.groebner_basis()]
        return Ideal(ctxp, hs, basis=hs)

    res = _traced(closure(i_ideal), closure(j_ideal))[0]
    # at p = 1 it is the reduced dp basis of I cap J
    return None if res is None else [ctx.from_dict({e[:-1]: c for e, c in g.terms}) for g in res]


def _ratrec(u, m):
    """n/d = u mod m by maximal-quotient rational reconstruction (Monagan,
    ISSAC 2004), or None when no quotient of the Euclidean run on (m, u)
    exceeds T = 2^20 log2(m)."""
    T = m.bit_length() << 20
    n = d = 0
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 and r0 > T:
        q = r0 // r1
        if q > T:
            n, d, T = r1, t1, q
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(n, d) if d and gcd(n, d) == 1 else None


def _lift(residues, m):
    """Integral multiples of the polynomials over Q whose coefficient lists
    are congruent mod m to the monic residue lists, as int lists (smaller in
    memory than monic ones), or None.  Each coefficient is reconstructed
    times the common denominator of the ones before it, so most come out as
    integers at once."""
    out = []
    for f in residues:
        den, terms = 1, []
        for a in f:
            r = _ratrec(a * den % m, m)
            if r is None:
                return None
            terms.append((r.numerator, den * r.denominator))
            den *= r.denominator
        out.append([n * den // d for n, d in terms])
    return out


def _agrees(lifted, trace, q):
    """True iff each lifted list, made monic mod q, is the trace's."""
    for f, g in zip(lifted, trace):
        lc = f[0] % q
        if not lc:
            return False
        inv = pow(lc, -1, q)
        if [c * inv % q for c in f] != g:
            return False
    return True


def _modular_basis(ctx, gens, target):
    """A candidate for the reduced basis of (gens) over Q, or None.

    The gens are t*f and (1 - t)*g of `groebner.intersect` for homogeneous
    I and J, and target is the Hilbert numerator of their homogenization by
    h, first in the second block of ctx's order: t*f and (h - t)*g.  The
    runs take the homogenized gens, and the candidate is the lift at h = 1.
    It lies in (gens), and when the lift is right its t-free slice is that
    of the reduced basis of (gens) (`groebner` module docstring).

    The first prime that runs is the trace: it runs in full, Hilbert-driven
    by the target, records its program and stays out of the CRT.  Each
    later prime replays the program.  A replay that leaves it runs again in
    full and becomes the new trace, the residues so far dropped; the others
    are combined by CRT, and a lift is returned once it reduces mod the
    trace prime to the trace basis.  Only the program keeps the monomials;
    the rest are coefficient lists.
    """
    out, k = ctx, ctx.order[1]  # h goes in at k, first in the second block
    names = ctx.variables[:k] + (_HOM,) + ctx.variables[k:]
    ctx = RingContext(names, ctx.order, ctx.field)
    gens = [_homogenized(g, ctx, k) for g in gens]
    program = acc = None
    for p in _PRIMES:
        try:
            basis = _mod_run(ctx, gens, p, program)[0] if program else None
            traced = basis is None
            if traced:  # no trace yet, or the replay left its program
                basis, program = _mod_run(ctx, gens, p, target=target)
        except ZeroDivisionError:  # an unlucky prime
            continue
        residues = [[c for _, c in f] for f in basis]
        if traced:
            trace, q, acc = residues, p, None
        elif acc is None:
            acc, m = residues, p
        else:
            inv = pow(m, -1, p)
            acc = [
                [a + m * ((c - a) * inv % p) for a, c in zip(f, g)]
                for f, g in zip(acc, residues)
            ]
            m *= p
            lifted = _lift(acc, m)
            if lifted is not None and _agrees(lifted, trace, q):
                shape = [[e[:k] + e[k + 1 :] for e in es] for es in program[3]]  # h = 1
                return [out.from_dict(dict(zip(es, cs))) for es, cs in zip(shape, lifted)]
        basis = residues = None  # not held through the next run
    return None


def _mod_run(ctx, gens, p, program=None, target=None):
    """(basis, program) mod p: the program's replay (basis None where it
    leaves the program), or with no program a full run and its program,
    Hilbert-driven by the target if one is given."""

    def job(eng):
        if program is None:
            return eng.run(gens, target), eng.program
        return eng.replay(gens, program), program

    return _packed(ctx, gens, job, lambda c, w, ext: _ModEngine(c, w, p))


def _shape(basis):
    """The monomials of a mod-p basis."""
    return [[e for e, _ in f] for f in basis]
