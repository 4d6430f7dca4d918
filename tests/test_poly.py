"""Multivariate polynomial arithmetic, orders, calculus, graded pieces."""

import random
from fractions import Fraction
from math import comb

import pytest

from chowlab.coeff import ExtField
from chowlab.poly import (
    RingContext,
    compare_monomials,
    diff,
    graded_piece_basis,
    is_homogeneous,
    render_poly,
    substitute,
)

F = Fraction


def wxyz():
    return RingContext(["w", "x", "y", "z"], "dp")


def quintic_family(ctx, u, v):
    # w^5 + x*y^4 + y*x^4 + z^5 + u*x^2*y^3 + v*w*z*K
    w, x, y, z = ctx.gens()
    K = w**2 * x + w * x * y + w * y**2 + y**3 + w * x * z
    return w**5 + x * y**4 + y * x**4 + z**5 + u * x**2 * y**3 + v * w * z * K, K


def test_grevlex_example():
    # x*y > w*z in dp on (w,x,y,z)
    assert compare_monomials("dp", (0, 1, 1, 0), (1, 0, 0, 1)) == 1
    assert compare_monomials("dp", (1, 0, 0, 1), (0, 1, 1, 0)) == -1


def test_lex_example():
    assert compare_monomials("lp", (1, 0, 0, 0), (0, 100, 0, 0)) == 1


def test_compare_reflexive():
    for order in ("dp", "lp", ("block", 2)):
        assert compare_monomials(order, (1, 2, 3, 4), (1, 2, 3, 4)) == 0


def test_compare_length_mismatch():
    with pytest.raises(ValueError):
        compare_monomials("dp", (1, 0), (1, 0, 0))


def test_block_order_eliminates_first_vars():
    # any monomial containing the first variable beats any that does not
    assert compare_monomials(("block", 1), (1, 0, 0, 0), (0, 9, 9, 9)) == 1


def test_terms_strictly_descending_invariant():
    ctx = wxyz()
    rng = random.Random(7)
    for _ in range(50):
        f = ctx.zero
        for _ in range(rng.randint(1, 8)):
            e = tuple(rng.randint(0, 3) for _ in range(4))
            f = f + ctx.from_dict({e: rng.randint(-5, 5)})
        g = ctx.from_dict(
            {tuple(rng.randint(0, 3) for _ in range(4)): rng.randint(-5, 5)}
        )
        for h in (f + g, f - g, f * g):
            keys = [ctx.key(e) for e, _ in h.terms]
            assert keys == sorted(keys, reverse=True)
            assert all(c != 0 for _, c in h.terms)


def test_product_of_conjugates():
    ctx = wxyz()
    _, x, y, _ = ctx.gens()
    assert (x + y) * (x - y) == x**2 - y**2


def test_add_zero_identity():
    ctx = wxyz()
    f = ctx.gens()[0] + 3
    assert f + ctx.zero == ctx.zero + f == f
    assert f - ctx.zero == f


def test_binomial_expansion():
    ctx = wxyz()
    w, x, _, _ = ctx.gens()
    f = (w + x) ** 5
    assert f.num_terms() == 6
    for k in range(6):
        e = [0, 0, 0, 0]
        e[0], e[1] = 5 - k, k
        assert f.coeff_of(e) == comb(5, k)


def test_diff_basic():
    ctx = wxyz()
    w, x, _, _ = ctx.gens()
    assert diff(w**2 * x, "w") == 2 * w * x
    assert diff(ctx.const(7), "w").is_zero()
    with pytest.raises(ValueError):
        diff(w, "q")


def test_diff_matches_family_partial():
    # d/dx of the u=v=1 member: y^4 + 4x^3y + 2xy^3 + wz*dK/dx
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    f, K = quintic_family(ctx, 1, 1)
    want = y**4 + 4 * x**3 * y + 2 * x * y**3 + w * z * diff(K, "x")
    assert diff(f, "x") == want


def test_diff_product_rule_random():
    ctx = wxyz()
    rng = random.Random(20260815)
    for _ in range(100):
        def rand_poly():
            d = {}
            for _ in range(rng.randint(1, 5)):
                e = tuple(rng.randint(0, 2) for _ in range(4))
                d[e] = d.get(e, 0) + rng.randint(-4, 4)
            return ctx.from_dict(d)

        f, g = rand_poly(), rand_poly()
        v = rng.choice(["w", "x", "y", "z"])
        assert diff(f * g, v) == diff(f, v) * g + f * diff(g, v)
        assert diff(f + g, v) == diff(f, v) + diff(g, v)


def test_substitute_identity():
    ctx = wxyz()
    f, _ = quintic_family(ctx, 1, 1)
    assert substitute(f, {"w": ctx.var("w"), "y": ctx.var("y")}) == f


def test_substitute_kills_parameters():
    # setting x0=x3=0 in the family leaves x1*x2^4 + x2*x1^4 + u*x1^2*x2^3
    ctx = wxyz()
    _, x, y, _ = ctx.gens()
    f, _ = quintic_family(ctx, 1, 1)
    bar = substitute(f, {"w": 0, "z": 0})
    assert bar == x * y**4 + y * x**4 + x**2 * y**3


def test_substitute_unknown_var():
    ctx = wxyz()
    f = ctx.gens()[0]
    with pytest.raises(ValueError):
        substitute(f, {"q": 1})


def test_euler_identity():
    # sum x_i dF/dx_i = 5F for the degree-5 family member
    ctx = wxyz()
    f, _ = quintic_family(ctx, 1, 1)
    acc = ctx.zero
    for name in ctx.variables:
        acc = acc + ctx.var(name) * diff(f, name)
    assert acc == 5 * f


def test_graded_piece_counts():
    ctx = wxyz()
    b1 = graded_piece_basis(ctx, 1)
    assert b1 == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert len(graded_piece_basis(ctx, 3)) == 20
    ctx3 = RingContext(["x", "y", "z"], "dp")
    assert len(graded_piece_basis(ctx3, 4)) == 15
    # strictly descending
    b3 = graded_piece_basis(ctx, 3)
    keys = [ctx.key(e) for e in b3]
    assert keys == sorted(keys, reverse=True)


def test_is_homogeneous():
    ctx = wxyz()
    _, x, y, _ = ctx.gens()
    assert is_homogeneous(x**2 + x * y) == 2
    assert is_homogeneous(x**2 + x) is None
    assert is_homogeneous(ctx.zero) == -1
    f, _ = quintic_family(ctx, 1, 1)
    assert is_homogeneous(f) == 5


def test_degree_of_zero_sentinel():
    ctx = wxyz()
    assert ctx.zero.total_degree() == -1


def test_render_roundtrip_shapes():
    ctx = wxyz()
    w, x, y, z = ctx.gens()
    assert render_poly(w**2 * x + w * x * y + w * y**2 + y**3 + w * x * z) == (
        "w^2*x+w*x*y+w*y^2+y^3+w*x*z"
    )
    assert render_poly(ctx.zero) == "0"
    assert render_poly(-x + 1) == "-x+1"
    assert render_poly(5 * z**5) == "5*z^5"
    assert render_poly(x * F(1, 2) - y * F(3, 2)) == "1/2*x-3/2*y"


def test_render_ext_coefficients():
    K = ExtField("a", [1, -1, 1])
    ctx = RingContext(["x", "y"], "dp", K)
    a = K.gen
    x, y = ctx.gens()
    f = (a + 1) * y**2 + a * x
    assert render_poly(f) == "(a+1)*y^2+(a)*x"
    assert render_poly(ctx.const(a + 1)) == "(a+1)"
    # rational ext coefficients render as plain rationals
    assert render_poly(x * (a * 0 + 2)) == "2*x"


def test_mixed_context_rejected():
    c1 = wxyz()
    c2 = RingContext(["w", "x", "y", "z"], "lp")
    with pytest.raises(ValueError):
        c1.gens()[0] + c2.gens()[0]


def test_mul_degree_additive():
    ctx = wxyz()
    rng = random.Random(99)
    for _ in range(60):
        def rand_poly():
            d = {}
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 3) for _ in range(4))
                d[e] = d.get(e, 0) + rng.randint(-3, 3)
            return ctx.from_dict(d)

        f, g = rand_poly(), rand_poly()
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()
