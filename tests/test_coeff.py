"""Exact field arithmetic: rationals, quadratic/cubic extensions, cyclotomics."""

import random
from fractions import Fraction

import pytest

from chowlab import coeff
from chowlab.coeff import (
    QQ,
    ExtField,
    cyclotomic,
    ext_reduce,
    euler_phi,
    is_cyclotomic_product,
    is_root_of_unity,
    minpoly_of_element,
    render_element,
)

F = Fraction


def eisenstein():
    # a^2 - a + 1 = 0, a primitive 6th root of unity
    return ExtField("a", [1, -1, 1])


def test_rational_add():
    assert F(1, 2) + F(1, 3) == F(5, 6)


def test_rational_div_exact():
    # an int over a Fraction stays exact; only int / int would be a float
    for q in (1 / F(3), F(1) / 3, F(2, 3) / F(2)):
        assert q == F(1, 3) and type(q) is F
    with pytest.raises(ZeroDivisionError):
        F(1) / 0
    with pytest.raises(ZeroDivisionError):
        1 / F(0)
    with pytest.raises(ZeroDivisionError):
        1 / eisenstein().zero
    with pytest.raises(ZeroDivisionError):
        eisenstein().zero.inverse()


def test_ext_square():
    K = eisenstein()
    a = K.gen
    assert a * a == a - 1


def test_ext_inverse_is_one_minus_gen():
    K = eisenstein()
    a = K.gen
    inv = 1 / a
    assert inv == 1 - a == a.inverse() == F(1) / a == K.one / a
    assert a * inv == K.one
    assert (2 * a) / a == 2


def test_ext_fifth_power_frozen():
    # a^5 mod (a^2 - a + 1), oracle by repeated squaring on the raw side:
    # a^2=a-1, a^4=(a-1)^2=a^2-2a+1=-a, a^5=-a^2=1-a... wait a^5=a^4*a=-a*a=1-a
    K = eisenstein()
    a = K.gen
    assert a**5 == 1 - a
    assert a**6 == K.one  # order 6 root of unity


def test_ext_reduce_matches_pow():
    K = eisenstein()
    # raw a^5 as coefficient list [0,0,0,0,0,1]
    assert ext_reduce([0, 0, 0, 0, 0, 1], K) == K.gen ** 5


def test_ext_reduce_idempotent_on_reduced():
    K = eisenstein()
    x = K.element([F(2, 3), F(-1, 7)])
    assert ext_reduce(list(x.coeffs), K) == x


def test_minpoly_of_generator():
    K = eisenstein()
    assert minpoly_of_element(K.gen) == (F(1), F(-1), F(1))


def test_minpoly_of_rational_element():
    K = eisenstein()
    x = K.element([F(5, 3)])
    assert minpoly_of_element(x) == (F(-5, 3), F(1))


def test_minpoly_of_shifted_gen():
    K = eisenstein()
    # b = a + 1 satisfies (b-1)^2 - (b-1) + 1 = b^2 - 3b + 3
    assert minpoly_of_element(K.gen + 1) == (F(3), F(-3), F(1))


def test_minpoly_in_cubic_and_quartic_fields():
    Q = ExtField("c", [1, 0, 0, 0, 1])  # c^4 + 1
    c = Q.gen
    assert minpoly_of_element(c * c) == (F(1), F(0), F(1))
    # (c + c^3)^2 = c^2 + 2c^4 + c^6 = -2: an element of the quadratic subfield
    assert (c + c**3) ** 2 == -2
    assert minpoly_of_element(c + c**3) == (F(2), F(0), F(1))
    assert minpoly_of_element(Q.element([F(5, 3)])) == (F(-5, 3), F(1))
    b = ExtField("b", [-2, 0, 0, 1]).gen  # b^3 = 2
    assert minpoly_of_element(b) == (F(-2), F(0), F(0), F(1))


def test_reducible_minpoly_rejected():
    with pytest.raises(ValueError):
        ExtField("a", [-1, 0, 1])  # a^2 - 1 = (a-1)(a+1)
    with pytest.raises(ValueError):
        ExtField("a", [0, 0, 0, 1])  # a^3
    with pytest.raises(ValueError):
        ExtField("a", [1, 1, 2])  # not monic
    with pytest.raises(ValueError):
        ExtField("a", [1, 1])  # degree 1
    with pytest.raises(ValueError):
        ExtField("a", [1, 0, 0, 0, 0, 1])  # degree 5


def test_reducible_quartics_rejected():
    for minpoly in (
        [-4, 0, 0, 0, 1],  # (a^2-2)(a^2+2)
        [4, 0, 0, 0, 1],  # (a^2+2a+2)(a^2-2a+2)
        [1, 0, 1, 0, 1],  # (a^2+a+1)(a^2-a+1)
        [1, 0, -3, 0, 1],  # (a^2+a-1)(a^2-a-1)
        [F(1, 4), 0, 0, 0, 1],  # (a^2+a+1/2)(a^2-a+1/2)
        [-1, 0, 0, 0, 1],  # rational root 1
    ):
        with pytest.raises(ValueError):
            ExtField("a", minpoly)
    for minpoly in ([2, 0, 0, 0, 1], [1, 0, -1, 0, 1], [3, 0, -1, 0, 1], [1, 1, 1, 1, 1]):
        ExtField("a", minpoly)


def test_irreducibility_search_refuses_huge_coefficients():
    # up to 2^40 the check runs, here in well under a second each
    ExtField("a", [-(2**40 - 87), 0, 1])
    ExtField("a", [2**40 - 87, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="rational root"):
        ExtField("a", [-(2**40), 0, 1])
    for minpoly in (
        [-(2**40 + 1), 0, 1],  # a0 for the rational roots
        [F(1, 2**40 + 1), 0, 0, 1],  # cleared of its denominator
        # a0 * 7^4 for the quadratic factors, a0 * 7 for the rational roots
        [F(2**38, 7), 0, 0, 0, 1],
    ):
        with pytest.raises(ValueError, match="coefficients too large"):
            ExtField("a", minpoly)


def test_inverse_of_a_zero_divisor_raises(monkeypatch):
    # skip the construction check to reach arithmetic modulo a reducible quartic
    monkeypatch.setattr(coeff, "_splits_into_quadratics", lambda coeffs: False)
    K = ExtField("a", [-4, 0, 0, 0, 1])
    a = K.gen
    with pytest.raises(ValueError):
        (a**2 + 2).inverse()
    assert (a + 1).inverse() * (a + 1) == K.one


def test_sqrt2_field():
    K = ExtField("s", [-2, 0, 1])
    s = K.gen
    assert s * s == 2
    assert (1 / s) * s == K.one
    assert 1 / s == s / 2


def test_cubic_field_inverse():
    K = ExtField("c", [-2, 0, 0, 1])  # c^3 = 2
    c = K.gen
    inv = c.inverse()
    assert c * inv == K.one
    assert inv == c * c / 2


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_table():
    # all n with phi(n) <= 4
    want = {
        1: (-1, 1),
        2: (1, 1),
        3: (1, 1, 1),
        4: (1, 0, 1),
        5: (1, 1, 1, 1, 1),
        6: (1, -1, 1),
        8: (1, 0, 0, 0, 1),
        10: (1, -1, 1, -1, 1),
        12: (1, 0, -1, 0, 1),
    }
    for n, coeffs in want.items():
        assert cyclotomic(n) == tuple(F(c) for c in coeffs), n


def test_is_root_of_unity():
    assert is_root_of_unity([1, -1, 1]) == 6
    assert is_root_of_unity([1, 1, 1]) == 3
    assert is_root_of_unity([1, 1]) == 2
    assert is_root_of_unity([-1, 1]) == 1
    assert is_root_of_unity([1, 0, 1]) == 4
    assert is_root_of_unity([-2, 0, 1]) is None  # sqrt(2) is not a root of unity


def test_is_root_of_unity_rejects_nonmonic():
    with pytest.raises(ValueError):
        is_root_of_unity([1, 1, 2])


def test_is_cyclotomic_product():
    # (z^2-z+1)(z+1) = z^3 + 1
    assert is_cyclotomic_product([1, 0, 0, 1]) is True
    # z^3 - 5z^2 + 6z + 1 has no rational root and phi(n)=3 is impossible
    assert is_cyclotomic_product([1, 6, -5, 1]) is False
    # (z-1)^2: repeated cyclotomic factor
    assert is_cyclotomic_product([1, -2, 1]) is True
    assert is_cyclotomic_product([-2, 0, 1]) is False


def test_render_element():
    K = eisenstein()
    x = K.element([F(-5, 3), F(-5, 3)])
    assert render_element(x) == "-5/3*a-5/3"
    assert render_element(K.gen) == "a"
    assert render_element(K.zero) == "0"
    assert render_element(-K.gen) == "-a"
    assert render_element(F(7, 2)) == "7/2"
    assert render_element(K.gen**2) == "a-1"


def test_mixed_fields_rejected():
    K1 = eisenstein()
    K2 = ExtField("s", [-2, 0, 1])
    for op in (
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x * y,
        lambda x, y: x / y,
    ):
        with pytest.raises(TypeError):
            op(K1.gen, K2.gen)


def test_field_axioms_random():
    K = eisenstein()
    rng = random.Random(20260815)
    for _ in range(100):
        xs = [
            K.element([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)])
            for _ in range(3)
        ]
        x, y, z = xs
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        if not y.is_zero():
            assert (x / y) * y == x
        m = minpoly_of_element(x)
        # the element satisfies its own minimal polynomial
        acc = K.zero
        p = K.one
        for c in m:
            acc = acc + p * c
            p = p * x
        assert acc.is_zero()


def test_product_by_a_rational_factor_is_the_general_product():
    # a factor with no a-part scales the other's coefficient tuple; the
    # general product multiplies the coefficient lists and reduces them by
    # the minimal polynomial, and both give the same tuple of Fractions
    from chowlab import _uni

    rng = random.Random(20261022)
    for K in (eisenstein(), ExtField("a", [-2, 0, 0, 1])):
        for _ in range(40):
            x = K.element([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(K.degree)])
            r = F(rng.randint(-9, 9), rng.randint(1, 9))
            n = rng.randint(-9, 9)
            for y in (K.element([r]), K.element([n]), K.zero, K.one, x):
                want = ext_reduce(_uni.mul(list(x.coeffs), list(y.coeffs)), K).coeffs
                assert (x * y).coeffs == (y * x).coeffs == want, (x, y)
                if not any(y.coeffs[1:]):
                    c = y.coeffs[0]
                    assert (x * c).coeffs == (c * x).coeffs == want
                assert all(type(c) is F for c in (x * y).coeffs)


def test_quartic_field():
    K = ExtField("t", list(cyclotomic(5)))  # t^4+t^3+t^2+t+1
    t = K.gen
    assert t**5 == K.one
    assert t**4 == -(t**3) - t**2 - t - 1
    assert (1 / t) * t == K.one
    assert is_root_of_unity(list(K.minpoly)) == 5


def test_qq_coerce():
    assert QQ.coerce(3) == F(3)
    K = eisenstein()
    with pytest.raises(TypeError):
        QQ.coerce(K.gen)


def test_univariate_division_is_exact_on_int_coefficients():
    from chowlab import _uni

    q, r = _uni.divmod_([1, 2, 3], [1, 2])
    assert (q, r) == ([F(1, 4), F(3, 2)], [F(3, 4)])
    assert _uni.gcd([1, 2, 1], [1, 1]) == [1, 1]
    assert _uni.monic([2, 4]) == [F(1, 2), 1]
    for cs in (q, r, _uni.gcd([1, 2, 1], [1, 1]), _uni.monic([2, 4])):
        assert all(type(c) is F for c in cs)
    # a monic int divisor divides with no Fraction at all
    assert _uni.divmod_([1, 0, 0, 1], [1, 1]) == ([1, -1, 1], [])
    # f = q*g + r with deg r < deg g, over Q and over Q[a]
    rng = random.Random(5)
    a = eisenstein().gen
    for _ in range(50):
        f = _uni.trim([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))])
        g = _uni.trim([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]) or [3]
        for unit in (1, a):
            fu = [c * unit for c in f]
            q, r = _uni.divmod_(fu, g)
            assert _uni.add(_uni.mul(q, g), r) == _uni.trim(fu) and len(r) < len(g)
