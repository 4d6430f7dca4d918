"""Graded quotient-ring computations for homogeneous ideals.

Jacobian-type ideals of a homogeneous form, Hilbert-function tables via
standard monomials, minimal-generator degree counts via exact ranks, basis
checks for graded quotient spaces, and a dense rank oracle that never touches
Groebner bases (used to cross-validate the ones that do).  Every rank is
that of a `groebner.RowSpace`; this module supplies the degrees, the
shifts and the rank formulas.
"""

from .groebner import Ideal, RowSpace, buchberger, normal_form
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


def graded_dim(ideal, d):
    """Dimension of (B/I)_d by counting standard monomials of degree d."""
    _require_homogeneous(ideal)
    ctx = ideal.context
    lms = [g.leading_monomial() for g in ideal.groebner_basis()]
    std = []
    for m in graded_piece_basis(ctx, d):
        if not any(all(a >= b for a, b in zip(m, lm)) for lm in lms):
            std.append(m)
    return GradedReport(d, len(std), std)


def _ideal_space(ideal, d):
    """The row space of I_d, spanned by the products m*g of degree d."""
    ctx = ideal.context
    multiples = []
    for g in ideal.generators:
        dg = is_homogeneous(g)
        if dg is None:
            raise ValueError("ideal has a non-homogeneous generator")
        if 0 <= dg <= d:
            multiples.append((g, graded_piece_basis(ctx, d - dg)))
    space = RowSpace(ctx, d)
    space.add_multiples(multiples)
    return space


def linalg_oracle(ideal, d):
    """dim (B/I)_d by brute-force rank of generator multiples; no GB involved."""
    return len(graded_piece_basis(ideal.context, d)) - _ideal_space(ideal, d).rank


def mingens_degrees(ideal, up_to):
    """Minimal-generator counts per degree with representative generators.

    In degree d the count is dim I_d - dim (I_{<d})_d, where I_{<d} is the
    subideal generated below degree d: every product m*g with deg m >= 1
    lands in (I_{<d})_d, so only degree-d generators contribute fresh rank.
    That rank is the span of the normal forms of the degree-d generators
    against a degree-d-truncated basis of I_{<d}, which avoids eliminating
    the full product space.
    """
    _require_homogeneous(ideal)
    ctx = ideal.context
    by_degree = {}
    for g in ideal.generators:
        dg = is_homogeneous(g)
        if dg >= 0:
            by_degree.setdefault(dg, []).append(g)
    out = []
    lower = []
    for d in range(up_to + 1):
        gens_d = by_degree.get(d, [])
        if not gens_d:
            out.append((d, 0, []))
        else:
            lower_gb = buchberger(lower, degree_cap=d)
            space = RowSpace(ctx, d)
            reps = [g for g in gens_d if space.add(normal_form(g, lower_gb))]
            out.append((d, len(reps), reps))
        lower.extend(gens_d)
    return out


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
    a zero dimension appeared (positive-dimensional quotients).
    """
    rows = []
    for d in range(cap + 1):
        dim_d = graded_dim(ideal, d).dim_quotient
        rows.append((d, dim_d))
        if dim_d == 0:
            return rows, False
    return rows, True

