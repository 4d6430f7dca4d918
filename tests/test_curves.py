"""Projective-line calculus: orders, residues, tame symbols, torsion tests."""

import random
from fractions import Fraction

import pytest

from chowlab.coeff import ExtElement, ExtField, is_cyclotomic_product, render_element
from chowlab.curves import (
    CubicRoots,
    PointOnLine,
    RationalFunction1,
    SymbolTuple,
    discriminant,
    minpoly_of_power,
    order_at,
    residue,
    root_derivative,
    symbol_tuple,
    tame_symbol,
)

F = Fraction
INF = PointOnLine.infinity()


def rf(num, den=(1,), e=1):
    return RationalFunction1(num, den, e=e)


def pt(v):
    return PointOnLine(F(v) if isinstance(v, int) else v)


def cube_field():
    # cube roots of unity
    return ExtField("r", [1, 1, 1])


def sixth_field():
    # primitive sixth roots of unity; contains the roots of z^3+1
    return ExtField("a", [1, -1, 1])


def test_point_canonical_forms():
    assert INF == PointOnLine.infinity()
    assert INF != pt(0)
    assert pt(3) == pt(3)
    assert INF.render() == "inf"
    with pytest.raises(ValueError):
        PointOnLine()
    with pytest.raises(ValueError):
        PointOnLine(value=F(1), at_infinity=True)


def test_rational_function_canonicalization():
    # common factor cancelled, denominator monic
    f = rf([-1, 0, 1], [-1, 1])  # (z^2-1)/(z-1) = z+1
    assert f == rf([1, 1])
    g = rf([2, 2], [4])
    assert g == rf([F(1, 2), F(1, 2)])
    with pytest.raises(ZeroDivisionError):
        rf([1], [0])
    with pytest.raises(ValueError):
        rf([1], [1], e=0)


def test_render_with_extension_coefficients():
    a = ExtField("a", [-2, 0, 1]).gen  # a^2 = 2
    assert rf([0, a + 1]).render() == "(a+1)*z"
    assert rf([0, -a]).render() == "-a*z"
    assert rf([0, F(-5, 3)]).render() == "-5/3*z"
    assert rf([a, 1]).render() == "z+a"
    assert rf([-a, 0, a - 1]).render() == "(a-1)*z^2-a"
    assert rf([a + 1, 1], [-a, 1]).render() == "(z+(a+1))/(z-a)"
    assert rf([1, 0, -a], [a, 1]).render("t") == "(-a*t^2+1)/(t+a)"


def test_order_at_scaled_by_ramification():
    f = rf([0, 1], e=5)  # z with e=5
    assert order_at(f, pt(0)) == 5
    assert order_at(f, INF) == -5
    assert order_at(f, pt(7)) == 0
    assert order_at(rf([3]), pt(0)) == 0
    assert order_at(rf([3]), INF) == 0
    with pytest.raises(ValueError):
        order_at(rf([0]), pt(0))


def test_order_at_quotient_of_linear_factors():
    K = cube_field()
    z = K.gen
    g = rf([1, 1], [z * z, K.one], e=5)  # (z+1)/(z+zeta^2)
    assert order_at(g, pt(K.coerce(-1))) == 5
    assert order_at(g, PointOnLine(-z * z)) == -5
    assert order_at(g, pt(K.coerce(0))) == 0
    assert order_at(g, INF) == 0


def test_residue_simple_poles():
    w = rf([1], [0, 1])  # dz/z
    assert residue(w, pt(0)) == 1
    assert residue(w, INF) == -1
    assert residue(w, pt(5)) == 0
    # P(z)/Q(z) with simple pole at 2: residue P(2)/Q'(2)
    form = rf([1, 1], [-2, 1])
    assert residue(form, pt(2)) == 3


def test_residue_higher_order_pole():
    # (z+3)/z^2 dz: residue at 0 is 1 (the z^{-1} coefficient)
    form = rf([3, 1], [0, 0, 1])
    assert residue(form, pt(0)) == 1
    # (1)/(z-1)^3 dz has residue 0 at 1
    den = [-1, 3, -3, 1]
    assert residue(rf([1], den), pt(1)) == 0
    # (z^2)/(z-1)^3 dz: numerator (t+1)^2 over t^3 has t^2-coefficient 1
    form = rf([0, 0, 1], den)
    assert residue(form, pt(1)) == 1
    # the only other pole is at infinity; the residues must cancel
    assert residue(form, INF) == -1


def test_residue_at_infinity_of_polynomials():
    # z^(j-1) dz has residue -1 at infinity only for j=0
    assert residue(rf([1], [0, 1]), INF) == -1
    for j in range(1, 4):
        assert residue(rf([0] * (j - 1) + [1]), INF) == 0


def test_residue_quartic_denominator_table():
    # basis forms z^j/(z+z^4) dz at the five poles: frozen row values
    K = sixth_field()
    a = K.gen
    den = [0, 1, 0, 0, 1]
    pts = [pt(K.coerce(0)), PointOnLine(a), PointOnLine(K.coerce(-1)),
           PointOnLine(1 - a), INF]
    M = [[residue(rf([0] * j + [1], den), p) for j in range(4)] for p in pts]
    assert M[0] == [1, 0, 0, 0]
    assert M[4] == [0, 0, 0, -1]
    third = F(1, 3)
    assert M[2] == [-third, third, -third, third]
    # root rows are (1, r, r^2, r^3) / (r f'(r))
    for row, r in ((M[1], a), (M[3], 1 - a)):
        scale = r * 3 * r * r
        assert [v * scale for v in row] == [K.one, r, r * r, r**3]
    # residue theorem: each column sums to zero
    for j in range(4):
        assert sum(M[i][j] for i in range(5)) == 0


def test_residue_sum_property_random():
    rng = random.Random(20260815)
    for _ in range(100):
        num = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        if all(c == 0 for c in num):
            num[0] = F(1)
        roots = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        den = [F(1)]
        from chowlab import _uni

        for r in roots:
            den = _uni.mul(den, [F(-r), F(1)])
        form = rf(num, den)
        pts = [pt(r) for r in sorted(set(roots))] + [INF]
        total = sum(residue(form, p) for p in pts)
        assert total == 0


def test_tame_symbol_basics():
    z = rf([0, 1])
    assert tame_symbol(z, z, pt(0)) == -1
    # Steinberg: T(f, 1-f) = 1 at every point of the support
    f = rf([0, 1], [-2, 1])
    g = f.one_minus()
    for p in [pt(0), pt(2), pt(-2), INF, pt(1)]:
        assert tame_symbol(f, g, p) == 1
    with pytest.raises(ValueError):
        tame_symbol(rf([0]), z, pt(0))
    with pytest.raises(ValueError):
        tame_symbol(rf([0, 1], e=2), rf([0, 1], e=3), pt(0))


def test_tame_symbol_constant_pair():
    # T(z, c): value c^{-ord(z)} at each point; product telescopes to 1
    c = rf([F(7)])
    z = rf([0, 1])
    tup = symbol_tuple(z, c, [pt(0), INF])
    assert list(tup.values) == [F(1, 7), F(7)]
    assert tup.product() == 1


def test_symbol_tuple_quintic_cover():
    # the two degree-5 functions on the cube-root field, e=5 everywhere
    K = cube_field()
    z = K.gen
    f1 = rf([0, 1], e=5)
    g1 = rf([1, 1], [z * z, K.one], e=5)
    pts = [pt(K.coerce(0)), INF, pt(K.coerce(-1)), PointOnLine(-z), PointOnLine(-z * z)]
    tup = symbol_tuple(f1, g1, pts)
    assert [render_element(v) for v in tup.values] == ["r", "1", "-1", "1", "r+1"]
    assert tup.product() == 1
    # all entries are roots of unity of order dividing 6
    report = tup.torsion_report()
    assert [r["order"] for r in report] == [3, 1, 2, 1, 6]
    assert all(r["torsion"] for r in report)
    # multiset comparison against the printed entries (zeta^{pm 5} family)
    printed = {render_element(v) for v in (z**-5, K.one, K.coerce(-1), -(z**5), K.one)}
    assert {render_element(v) for v in tup.values} == printed


def test_symbol_tuple_family_formula():
    # f=z, g=(z-alpha)/(z-beta) over the splitting field of z^3+1
    cr = CubicRoots.split_u_zero()
    al, be, ga = cr.roots
    K = al.field
    f1 = rf([0, 1], e=5)
    g1 = rf([-al, K.one], [-be, K.one], e=5)
    pts = [pt(K.coerce(0)), INF, PointOnLine(al), PointOnLine(be), PointOnLine(ga)]
    tup = symbol_tuple(f1, g1, pts)
    assert list(tup.values) == [(be / al) ** 5, K.one, al**5, be**-5, K.one]
    assert tup.product() == 1
    assert all(r["torsion"] for r in tup.torsion_report())


def test_symbol_tuple_missing_point_rejected():
    z = rf([0, 1])
    with pytest.raises(ValueError):
        symbol_tuple(z, z.one_minus(), [pt(0), INF])  # zero of 1-z at 1 missing
    with pytest.raises(ValueError):
        symbol_tuple(z, rf([1]), [pt(0)])  # pole of z at infinity missing
    with pytest.raises(ValueError):
        symbol_tuple(z, rf([1]), [pt(0), pt(0), INF])  # duplicate
    # on a cover the orders scale by e; the zero of z+1 at -1 must still be listed
    w, w1 = rf([0, 1], e=5), rf([1, 1], e=5)
    with pytest.raises(ValueError, match="outside the point list"):
        symbol_tuple(w, w1, [pt(0), INF])
    assert symbol_tuple(w, w1, [pt(0), pt(-1), INF]).product() == 1


def test_weil_reciprocity_random():
    rng = random.Random(977)
    from chowlab import _uni

    for _ in range(100):
        roots_f = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        roots_g = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        cf = F(rng.choice([1, 2, -1, 3]))
        num_f, den_f = [cf], [F(1)]
        for i, r in enumerate(roots_f):
            part = [F(-r), F(1)]
            if i % 2:
                den_f = _uni.mul(den_f, part)
            else:
                num_f = _uni.mul(num_f, part)
        num_g = [F(1)]
        for r in roots_g:
            num_g = _uni.mul(num_g, [F(-r), F(1)])
        f = rf(num_f, den_f)
        g = rf(num_g)
        if f.is_zero() or g.is_zero():
            continue
        pts = [pt(v) for v in sorted(set(roots_f + roots_g))] + [INF]
        tup = symbol_tuple(f, g, pts)
        assert tup.product() == 1


def test_tame_symbol_bilinearity_and_order_additivity():
    rng = random.Random(1201)
    from chowlab import _uni

    for _ in range(100):
        def random_fn():
            num = [F(1)]
            den = [F(1)]
            for _ in range(rng.randint(1, 2)):
                num = _uni.mul(num, [F(-rng.randint(-2, 2)), F(1)])
            for _ in range(rng.randint(0, 1)):
                den = _uni.mul(den, [F(-rng.randint(-2, 2)), F(1)])
            return rf(_uni.scale(num, F(rng.choice([1, 2, 3]))), den)

        f1, f2, g = random_fn(), random_fn(), random_fn()
        p = rng.choice([pt(-2), pt(-1), pt(0), pt(1), pt(2), INF])
        prod = f1 * f2
        if prod.is_zero():
            continue
        assert tame_symbol(prod, g, p) == tame_symbol(f1, g, p) * tame_symbol(f2, g, p)
        assert order_at(prod, p) == order_at(f1, p) + order_at(f2, p)


def test_degree_sum_zero():
    rng = random.Random(55)
    from chowlab import _uni

    for _ in range(100):
        num, den = [F(rng.choice([1, 2, 5]))], [F(1)]
        support = set()
        for _ in range(rng.randint(1, 3)):
            r = rng.randint(-3, 3)
            support.add(r)
            num = _uni.mul(num, [F(-r), F(1)])
        for _ in range(rng.randint(0, 2)):
            r = rng.randint(-3, 3)
            support.add(r)
            den = _uni.mul(den, [F(-r), F(1)])
        f = rf(num, den, e=rng.choice([1, 5]))
        pts = [pt(v) for v in sorted(support)] + [INF]
        assert sum(order_at(f, p) for p in pts) == 0


def test_cubic_roots_validation():
    cr = CubicRoots.split_u_zero()
    a, b, c = cr.roots
    assert a + b + c == 0
    assert a * b + b * c + c * a == 0
    assert a * b * c == -1
    with pytest.raises(ValueError):
        CubicRoots(0, roots=(a, b, b))
    assert discriminant(0) == -27
    assert discriminant(1) == -31


def test_cubic_power_sums_newton():
    # oracle: sums of powers of the explicit u=0 roots
    cr = CubicRoots.split_u_zero()
    a, b, c = cr.roots
    ps = cr.power_sums(15)
    for k in (1, 2, 3, 5, 10, 15):
        assert a**k + b**k + c**k == ps[k], k
    ps1 = CubicRoots(1).power_sums(15)
    assert ps1[5] == 5 and ps1[10] == 13 and ps1[15] == 32


def test_root_derivative_u_zero():
    out = root_derivative(0)
    for r, dlog in out:
        # direct differentiation: dlog = -1/(3 r^2) when u = 0
        assert dlog == -1 / (3 * r * r)
    roots = [r for r, _ in out]
    assert roots == list(CubicRoots.split_u_zero().roots)
    with pytest.raises(ValueError):
        root_derivative(1)  # no built-in splitting


def test_divisions_stay_exact():
    # each division takes a Fraction or ExtElement operand, never two ints
    f = rf([1], [0, 2])
    assert f.num == (F(1, 2),) and f.den == (0, 1)
    assert all(type(c) is F for c in f.num + f.den)
    # Weil reciprocity: the three values multiply to 1
    for p, value in ((PointOnLine(0), F(1, 3)), (INF, F(6)), (pt(1), F(1, 2))):
        got = tame_symbol(rf([0, 2]), rf([3], [1, -1]), p)
        assert got == value and type(got) is F
    for _, dlog in root_derivative(0):
        assert isinstance(dlog, ExtElement)
    # floats never enter, so no division can round
    with pytest.raises(TypeError):
        rf([1.5], [0, 2])
    with pytest.raises(TypeError):
        rf([1], [0, 2.0])
    with pytest.raises(TypeError):
        PointOnLine(0.5)


def test_minpoly_of_power_frozen():
    assert minpoly_of_power(0, 1) == (1, 0, 0, 1)
    assert minpoly_of_power(0, 5) == (1, 0, 0, 1)
    got = minpoly_of_power(1, 5)
    assert got == (1, 6, -5, 1)  # w^3 - 5w^2 + 6w + 1
    assert is_cyclotomic_product(minpoly_of_power(0, 5))
    assert not is_cyclotomic_product(got)


def test_minpoly_of_power_newton_oracle():
    # independent route: elementary symmetric functions of the k-th powers
    # from Newton power sums of the cubic
    for u in (F(0), F(1), F(2), F(-1), F(1, 2)):
        for k in (1, 2, 3, 5, 7):
            ps = CubicRoots(u).power_sums(3 * k)
            q1, q2, q3 = ps[k], ps[2 * k], ps[3 * k]
            e1 = q1
            e2 = (q1 * q1 - q2) / 2
            e3 = (q1**3 - 3 * q1 * q2 + 2 * q3) / 6
            assert minpoly_of_power(u, k) == (-e3, e2, -e1, 1), (u, k)


def test_minpoly_of_power_splitting_oracle():
    # direct root computation over the u=0 splitting field
    cr = CubicRoots.split_u_zero()
    for k in (1, 2, 5, 6):
        mp = minpoly_of_power(0, k)
        for r in cr.roots:
            x = r**k
            acc = x.field.zero
            for i, cc in enumerate(mp):
                acc = acc + x**i * cc
            assert acc == 0


def test_symbol_tuple_type_invariants():
    with pytest.raises(ValueError):
        SymbolTuple([pt(0)], [F(1), F(2)])
    with pytest.raises(ValueError):
        SymbolTuple([pt(0)], [F(0)])


def test_tame_symbol_scaling_invariance():
    # multiplying f by a function that is a unit at p leaves T unchanged
    z = rf([0, 1])
    g = rf([2, 1], [5, 1])
    unit = rf([1, 1])  # nonzero at 0
    p = pt(0)
    assert tame_symbol(z * unit, g, p) == tame_symbol(z, g, p)
