"""Graded quotient-ring computations for homogeneous ideals.

Jacobian-type ideals of a homogeneous form, Hilbert-function tables from
the Hilbert-series numerator of the leading monomials
(`groebner.Ideal.numerator`; `graded_dim` counts standard monomials, the
enumerating reference), minimal-generator tables by degree from one
degree-driven Groebner run (`groebner.minimal_generators`), basis checks
for graded quotient spaces, and a dense rank oracle that never touches
Groebner bases (used to cross-validate the ones that do).  Every rank is
that of an `_engine.RowSpace`; this module supplies the degrees, the
shifts and the rank formulas.  The oracle's rows are every product of a
generator and a monomial not predicted by a Koszul syzygy g_i*g_j = g_j*g_i,
which the generators' leading monomials alone detect (see `_ideal_space`).
"""

from ._engine import RowSpace
from .groebner import Ideal, minimal_generators
from .hilbert import hilbert_dim
from .poly import diff, graded_piece_basis, is_homogeneous


def _require_homogeneous(ideal):
    for g in ideal.generators:
        if is_homogeneous(g) is None:
            raise ValueError("ideal has a non-homogeneous generator")


def jacob(F, kind="full"):
    """Jacobian-type ideal of a homogeneous form.

    full: all partial derivatives.  modified: the first and last partials
    are multiplied by their own variables (4-variable rings only), which
    computes the cohomology of the complement of the first/last coordinate
    divisor rather than of the hypersurface itself.
    """
    if is_homogeneous(F) is None:
        raise ValueError("form must be homogeneous")
    ctx = F.ctx
    names = ctx.variables
    if kind == "full":
        gens = [diff(F, v) for v in names]
    elif kind == "modified":
        if ctx.nvars != 4:
            raise ValueError("modified kind needs exactly 4 variables")
        gens = [
            ctx.var(names[0]) * diff(F, names[0]),
            diff(F, names[1]),
            diff(F, names[2]),
            ctx.var(names[3]) * diff(F, names[3]),
        ]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return Ideal(ctx, gens)


class GradedReport:
    """Degree-d data of a graded quotient: dimension and standard monomials."""

    def __init__(self, degree, dim_quotient, standard_monomials):
        self.degree = degree
        self.dim_quotient = dim_quotient
        self.standard_monomials = tuple(standard_monomials)

    def __eq__(self, other):
        return (
            isinstance(other, GradedReport)
            and self.degree == other.degree
            and self.dim_quotient == other.dim_quotient
            and self.standard_monomials == other.standard_monomials
        )

    def __repr__(self):
        return f"GradedReport(d={self.degree}, dim={self.dim_quotient})"


def _divisible(m, leads):
    """True iff some exponent vector in leads divides the monomial m."""
    return any(all(a >= b for a, b in zip(m, lm)) for lm in leads)


def graded_dim(ideal, d):
    """Dimension of (B/I)_d by counting standard monomials of degree d."""
    _require_homogeneous(ideal)
    lms = [g.leading_monomial() for g in ideal.groebner_basis()]
    std = [m for m in graded_piece_basis(ideal.context, d) if not _divisible(m, lms)]
    return GradedReport(d, len(std), std)


def _ideal_space(ideal, d):
    """The row space of I_d, spanned by every product m*g_j of degree d not
    predicted by a Koszul syzygy.

    The product m*g_j is skipped when the leading monomial, in the ring's
    order, of an earlier generator g_i (i < j, any degree) divides m.  Write
    m = t*LM(g_i) and g_i = c_i*LM(g_i) + r_i.  Then
    c_i*m*g_j = t*g_j*g_i - t*r_i*g_j.  The first part is a sum of products
    of g_i, an earlier generator; the second is a sum of products of g_j
    whose multipliers lie below m in the order, since every monomial of r_i
    lies below LM(g_i).  By induction on (j, m) each skipped product lies in
    the span of the kept ones, so the span is I_d.  No Groebner basis is
    involved: only the generators' own leading monomials are read.
    """
    ctx = ideal.context
    multiples, leads = [], []
    for g in ideal.generators:
        dg = is_homogeneous(g)
        if dg is None:
            raise ValueError("ideal has a non-homogeneous generator")
        if 0 <= dg <= d:
            ms = [m for m in graded_piece_basis(ctx, d - dg) if not _divisible(m, leads)]
            multiples.append((g, ms))
        leads.append(g.leading_monomial())
    space = RowSpace(ctx, d)
    space.add_multiples(multiples)
    return space


def linalg_oracle(ideal, d):
    """dim (B/I)_d by the rank of every product m*g of degree d not predicted
    by a Koszul syzygy; no GB involved."""
    return hilbert_dim({0: 1}, ideal.context.nvars, d) - _ideal_space(ideal, d).rank


def mingens_degrees(ideal, up_to):
    """{degree: representatives} of the minimal generators of degree at most
    up_to, ascending, holding only the degrees that have some.

    In degree d the representatives are the degree-d generators, in input
    order, outside the ideal of the lower generators and the earlier degree-d
    ones (`groebner.minimal_generators`); there are dim I_d - dim (I_{<d})_d.
    When the ideal already holds its Groebner basis (as the results of
    `intersect` in `dp` and `std` do), the run is driven by the Hilbert
    numerator of its leads (`Ideal.numerator`, which an `intersect` result
    already holds); no basis is computed for that.
    """
    _require_homogeneous(ideal)
    gens = [g for g in ideal.generators if g.total_degree() <= up_to]
    table = {}
    num = None if ideal._gb is None else ideal.numerator()
    for g in minimal_generators(gens, num):
        table.setdefault(g.total_degree(), []).append(g)
    return table


def quotient_basis_check(ideal, d, candidates, within=None):
    """True iff candidates are a basis of the degree-d quotient space.

    The quotient is (B/I)_d, or (W/(I_d cap W)) when `within` spans a
    subspace W of the degree-d piece.  Candidates must lie in W.
    """
    _require_homogeneous(ideal)
    ctx = ideal.context
    candidates = list(candidates)
    ambient = None if within is None else list(within)
    for p in candidates + (ambient or []):
        if is_homogeneous(p) != d:
            raise ValueError(f"candidate is not homogeneous of degree {d}")
    if ambient is None:
        ambient = [ctx.monomial(m) for m in graded_piece_basis(ctx, d)]
    else:
        cspace = RowSpace(ctx, d)
        for p in ambient:
            cspace.add(p)
        if any(cspace.add(p) for p in candidates):
            raise ValueError("candidate lies outside the ambient subspace")

    # independence: every candidate must grow the rank over I_d
    space = _ideal_space(ideal, d)
    if not all(space.add(p) for p in candidates):
        return False
    # spanning: then I_d + candidates, inside I_d + W, must already hold W
    return not any(space.add(p) for p in ambient)


def graded_intersection_dim(i_ideal, j_ideal, d):
    """dim (I_d cap J_d) = dim I_d + dim J_d - dim (I+J)_d; no GB involved."""
    if i_ideal.context != j_ideal.context:
        raise ValueError("mixed ring contexts")
    both = Ideal(i_ideal.context, list(i_ideal.generators) + list(j_ideal.generators))
    dims = [_ideal_space(ideal, d).rank for ideal in (i_ideal, j_ideal, both)]
    return dims[0] + dims[1] - dims[2]


def hilbert_table(ideal, cap=40):
    """[(d, dim (B/I)_d)] until the first zero dimension; capped length.

    Returns (rows, truncated): truncated is True when the cap was hit before
    a zero dimension appeared.  A positive-dimensional quotient is always
    truncated, but so is a finite-dimensional one that is nonzero in every
    degree up to the cap, such as (x^41, y) in two variables.

    Every dimension comes from the numerator N(t) of the Hilbert series of
    the leading monomials of the ideal's basis, in n variables:
    dim (B/I)_d = sum over k <= d of N_k * C(d - k + n - 1, n - 1).  No
    monomial is enumerated.
    """
    _require_homogeneous(ideal)
    n, num = ideal.context.nvars, ideal.numerator()
    rows = []
    for d in range(cap + 1):
        dim_d = hilbert_dim(num, n, d)
        rows.append((d, dim_d))
        if dim_d == 0:
            return rows, False
    return rows, True
