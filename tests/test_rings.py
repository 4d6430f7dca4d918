"""Graded quotients: Jacobian ideals, Hilbert data, minimal generators, ranks."""

import random
from fractions import Fraction
from math import comb

import pytest

from chowlab.coeff import QQ, ExtField, solve_linear
from chowlab.groebner import Ideal, intersect
from chowlab.poly import RingContext, diff
from chowlab.rings import (
    GradedReport,
    graded_dim,
    graded_intersection_dim,
    hilbert_table,
    jacob,
    linalg_oracle,
    mingens_degrees,
    quotient_basis_check,
)
from test_rowspace import random_form

F = Fraction


def wxyz():
    return RingContext(["w", "x", "y", "z"], "dp")


def fermat_quintic(ctx):
    w, x, y, z = ctx.gens()
    return w**5 + x**5 + y**5 + z**5


# coefficients of (1+t+t^2+t^3)^4: Hilbert function of B/(w^4,x^4,y^4,z^4)
FERMAT_HILB = [1, 4, 10, 20, 31, 40, 44, 40, 31, 20, 10, 4, 1]


def test_jacob_full_fermat():
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    i = jacob(fermat_quintic(ctx), "full")
    assert list(i.generators) == [5 * w**4, 5 * x**4, 5 * y**4, 5 * z**4]


def test_jacob_modified_matches_four_generators():
    # x0*dF/dx0, dF/dx1, dF/dx2, x3*dF/dx3 for the u=v=1 family member
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    K = w**2 * x + w * x * y + w * y**2 + y**3 + w * x * z
    f = w**5 + x * y**4 + y * x**4 + z**5 + x**2 * y**3 + w * z * K
    i = jacob(f, "modified")
    f1 = 5 * w**5 + w * z * K + w**2 * z * diff(K, "w")
    f2 = y**4 + 4 * x**3 * y + 2 * x * y**3 + w * z * diff(K, "x")
    f3 = x**4 + 4 * x * y**3 + 3 * x**2 * y**2 + z * w * diff(K, "y")
    f4 = 5 * z**5 + z * w * K + w * z**2 * diff(K, "z")
    assert list(i.generators) == [f1, f2, f3, f4]


def test_jacob_rejects_inhomogeneous():
    ctx = wxyz()
    w, x, _, _ = ctx.gens()
    with pytest.raises(ValueError):
        jacob(w**2 + x, "full")


def test_graded_dim_zero_ideal():
    ctx = wxyz()
    rep = graded_dim(Ideal(ctx, []), 3)
    assert rep.dim_quotient == 20
    assert len(rep.standard_monomials) == 20


def test_fermat_hilbert_function():
    ctx = wxyz()
    ideal = jacob(fermat_quintic(ctx), "full")
    dims = [graded_dim(ideal, d).dim_quotient for d in range(14)]
    assert dims == FERMAT_HILB + [0]
    # Gorenstein symmetry about socle degree 12
    assert dims[1] == dims[11] == 4
    assert dims[5] == dims[7] == 40
    assert dims[6] == 44


def test_hilbert_table_stops_at_zero():
    ctx = wxyz()
    rows, truncated = hilbert_table(jacob(fermat_quintic(ctx), "full"))
    assert rows == [(d, v) for d, v in enumerate(FERMAT_HILB + [0])]
    assert truncated is False


def test_hilbert_table_caps_positive_dimension():
    ctx = wxyz()
    x = ctx.var("x")
    rows, truncated = hilbert_table(Ideal(ctx, [x]), cap=5)
    assert truncated is True
    assert len(rows) == 6


# the degree cap per number of variables: graded_dim enumerates every
# monomial of each degree up to it
DIFF_CAPS = {1: 40, 2: 40, 3: 30, 4: 16, 5: 10, 6: 8}


def check_hilbert_table(ideal, cap, oracle_through=3):
    """hilbert_table against graded_dim in every row, and against the
    GB-free linalg_oracle in the rows of degree at most oracle_through."""
    rows, truncated = hilbert_table(ideal, cap)
    assert [d for d, _ in rows] == list(range(len(rows)))
    assert [v for _, v in rows] == [graded_dim(ideal, d).dim_quotient for d, _ in rows]
    assert all(v for _, v in rows[:-1])
    assert truncated is (rows[-1][1] != 0)
    assert not truncated or len(rows) == cap + 1
    for d, v in rows[: oracle_through + 1]:
        assert v == linalg_oracle(ideal, d), d
    return rows, truncated


def test_hilbert_table_matches_graded_dim_on_random_ideals():
    # seeded homogeneous ideals over QQ and Q[a] (irrational coefficients
    # too), in dp and lp, in 1-6 variables; with up to n + 1 generators some
    # quotients are finite-dimensional
    rng = random.Random(14)
    fields = (QQ, ExtField("a", [1, -1, 1]))
    for trial in range(48):
        n = 1 + trial % 6
        order, field = ("dp", "lp")[trial // 6 % 2], fields[trial // 12 % 2]
        ctx = RingContext([f"x{k}" for k in range(n)], order, field)
        gens = [
            random_form(rng, ctx, rng.randint(1, 3), rng.randint(1, 3))
            for _ in range(rng.randint(1, n + 1))
        ]
        check_hilbert_table(Ideal(ctx, gens), DIFF_CAPS[n])


def test_hilbert_table_of_the_zero_and_unit_ideals_and_at_the_cap():
    ctx = wxyz()
    rows, truncated = check_hilbert_table(Ideal(ctx, []), 12)
    assert rows == [(d, comb(d + 3, 3)) for d in range(13)] and truncated
    assert check_hilbert_table(Ideal(ctx, [ctx.one]), 12) == ([(0, 0)], False)
    # finite-dimensional, but nonzero in every degree up to the cap
    ctx2 = RingContext(["x", "y"], "dp")
    x, y = ctx2.gens()
    rows, truncated = check_hilbert_table(Ideal(ctx2, [x**41, y]), 40)
    assert rows == [(d, 1) for d in range(41)] and truncated
    assert hilbert_table(Ideal(ctx2, [x**41, y]), 41) == (
        [(d, 1) for d in range(41)] + [(41, 0)], False
    )


def test_linalg_oracle_matches_graded_dim_monomial():
    ctx = RingContext(["x", "y"], "dp")
    x, y = ctx.gens()
    i = Ideal(ctx, [x**2, x * y, y**3])
    for d in range(7):
        assert linalg_oracle(i, d) == graded_dim(i, d).dim_quotient


def test_linalg_oracle_matches_graded_dim_jacobian():
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    K = w**2 * x + w * x * y + w * y**2 + y**3 + w * x * z
    f = w**5 + x * y**4 + y * x**4 + z**5 + x**2 * y**3 + w * z * K
    for kind in ("full", "modified"):
        i = jacob(f, kind)
        for d in range(13):
            assert linalg_oracle(i, d) == graded_dim(i, d).dim_quotient, (kind, d)


def test_mingens_monomial_ideal():
    ctx = RingContext(["x", "y"], "dp")
    x, y = ctx.gens()
    i = Ideal(ctx, [x**2, x * y, y**3])
    table = mingens_degrees(i, 6)
    degs = [d for d, reps in table.items() for _ in reps]
    assert degs == [2, 2, 3]
    # representatives are the generators themselves here
    assert table[2] == [x**2, x * y]
    assert table[3] == [y**3]


def test_mingens_drops_redundant_generator():
    ctx = RingContext(["x", "y"], "dp")
    x, y = ctx.gens()
    i = Ideal(ctx, [x**2, x**2 * y])
    degs = [d for d, reps in mingens_degrees(i, 5).items() for _ in reps]
    assert degs == [2]


def test_quotient_basis_check_trivial():
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    i = Ideal(ctx, [x])
    assert quotient_basis_check(i, 1, [y, z, w])
    assert not quotient_basis_check(i, 1, [y, z])  # does not span
    assert not quotient_basis_check(i, 1, [y, z, w, y + z])  # not independent
    assert not quotient_basis_check(i, 1, [x, y, z])  # x dies in the quotient


def test_quotient_basis_check_standard_monomials():
    ctx = RingContext(["x", "y"], "dp")
    x, y = ctx.gens()
    i = Ideal(ctx, [x**2, x * y, y**3])
    for d in range(5):
        rep = graded_dim(i, d)
        cands = [ctx.monomial(m) for m in rep.standard_monomials]
        if cands:
            assert quotient_basis_check(i, d, cands)


def test_quotient_basis_check_within_subspace():
    # plane quartic F = y^4 + xz*y^2 + x^4 - z^4; ambient W spanned by
    # {A(x,z)*y^2 + B(x,z)}; relations x*Fx, z*Fx, x*Fz, z*Fz stay inside W
    ctx = RingContext(["x", "y", "z"], "dp")
    x, y, z = ctx.gens()
    Fq = y**4 + x * z * y**2 + x**4 - z**4
    fx, fz = diff(Fq, "x"), diff(Fq, "z")
    i = Ideal(ctx, [fx, fz])
    within = [
        x**2 * y**2, x * z * y**2, z**2 * y**2,
        x**4, x**3 * z, x**2 * z**2, x * z**3, z**4,
    ]
    basis = [x**4, x**3 * z, x**2 * z**2, x * z**3]
    assert quotient_basis_check(i, 4, basis, within=within)
    # wrong size fails
    assert not quotient_basis_check(i, 4, basis[:3], within=within)
    # candidates outside W are rejected
    with pytest.raises(ValueError):
        quotient_basis_check(i, 4, [y**4], within=within)


def test_graded_intersection_dim_matches_intersect():
    from chowlab.poly import graded_piece_basis

    ctx = RingContext(["x", "y", "z"], "dp")
    x, y, z = ctx.gens()
    i = Ideal(ctx, [x**2 - y * z, y**2])
    j = Ideal(ctx, [x * y, z**3])
    inter = intersect(i, j)
    for d in range(8):
        ambient = len(graded_piece_basis(ctx, d))
        assert graded_intersection_dim(i, j, d) == (
            ambient - graded_dim(inter, d).dim_quotient
        )


def test_solve_linear_identity():
    got = solve_linear([[1, 0], [0, 1]], [F(2), F(3)])
    assert got == {"status": "unique", "solution": [F(2), F(3)]}


def test_solve_linear_inconsistent():
    got = solve_linear([[1, 1], [1, 1]], [0, 1])
    assert got == {"status": "no-solution"}


def test_solve_linear_parametric():
    got = solve_linear([[1, 1]], [F(5)])
    assert got["status"] == "parametric"
    x0 = got["solution"]
    assert x0[0] + x0[1] == 5
    (v,) = got["nullspace"]
    assert v[0] + v[1] == 0 and v != [0, 0]


def test_solve_linear_ext_field():
    K = ExtField("a", [1, -1, 1])
    a = K.gen
    # x + a*y = a^2, y = 1 - a  ->  x = a^2 - a*(1-a) = 2a^2 - a = a - 2
    got = solve_linear([[1, a], [0, 1]], [a * a, 1 - a])
    assert got["status"] == "unique"
    assert got["solution"][0] == a * a - a * (1 - a)
    assert got["solution"][1] == 1 - a


def test_solve_linear_shape_errors():
    with pytest.raises(ValueError):
        solve_linear([[1, 2]], [1, 2])
    with pytest.raises(ValueError):
        solve_linear([[1, 2], [1]], [1, 2])
