"""Hilbert-series numerators of monomial ideals, by Bigatti's algorithm.

For a monomial ideal M of R = K[x_1..x_n], HS(R/M) = N(t)/(1-t)^n with N a
polynomial with integer coefficients, kept sparse as {degree: coefficient}
without zeros.  `hilbert_numerator` computes N by Bigatti's pivot algorithm
(JPAA 119, 1997), `hilbert_dim` reads dim (R/M)_d from it, and `_padd` adds
and shifts numerators.  For a homogeneous ideal I with a Groebner basis G,
HS(R/I) = HS(R/LM(G)) (Cox, Little, O'Shea, Ideals, Varieties, and
Algorithms, ch. 9 sec. 3), so N answers every dimension question: `rings`
reads its Hilbert tables from it, the Hilbert-driven runs of `_engine` and
the certificates of `groebner` compare numerators, and `groebner.krull_dim`
is the order of the pole at t = 1.  The module imports nothing from
chowlab, so both `_engine` and `groebner` build on it.
"""

from math import comb
from operator import le


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
