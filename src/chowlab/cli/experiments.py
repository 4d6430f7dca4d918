"""Experiment reports: each computation rebuilt from scratch, end to end.

An experiment constructs its inputs, runs the library layer, and returns a
JSON-ready report.  Every check carries a provenance tag: PAPER for expected
values pinned externally, TRIVIAL for identities that must hold by
construction, DERIVED for values frozen from an independent recomputation.
Reports use fixed iteration orders throughout, so everything except the
wall-time field is reproducible byte for byte.
"""

import time
from fractions import Fraction
from math import comb

from ..coeff import (
    ExtElement,
    ExtField,
    is_cyclotomic_product,
    render_element,
    solve_linear,
)
from ..curves import (
    CubicRoots,
    PointOnLine,
    RationalFunction1,
    discriminant,
    minpoly_of_power,
    residue,
    root_derivative,
    symbol_tuple,
)
from ..groebner import Ideal, intersect, krull_dim, normal_form
from ..poly import Polynomial, RingContext, diff, render_monomial, render_poly
from ..rings import (
    graded_dim,
    graded_intersection_dim,
    hilbert_table,
    jacob,
    linalg_oracle,
    mingens_degrees,
    quotient_basis_check,
)

_INF = PointOnLine.infinity()


def _canon(value):
    """Canonical JSON form: exact scalars become strings, containers recurse."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, ExtElement):
        return render_element(value)
    if isinstance(value, Polynomial):
        return render_poly(value)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


class _Report:
    """Accumulator for one experiment: inputs, results, tagged checks."""

    def __init__(self, exp_id):
        self.id = exp_id
        self.inputs = {}
        self.results = {}
        self.checks = []

    def check(self, name, tag, expected, computed):
        expected = _canon(expected)
        computed = _canon(computed)
        self.checks.append(
            {
                "name": name,
                "tag": tag,
                "expected": expected,
                "computed": computed,
                "pass": expected == computed,
            }
        )

    def finish(self, elapsed_ms):
        return {
            "id": self.id,
            "inputs": _canon(self.inputs),
            "results": _canon(self.results),
            "checks": self.checks,
            "elapsed_ms": elapsed_ms,
        }


def _exp_s5_symbols():
    """Tame-symbol tuple of (z, (z+1)/(z+r^2)) on the degree-5 cyclic cover."""
    rep = _Report("s5-symbols")
    K = ExtField("r", [1, 1, 1])
    z = K.gen
    f = RationalFunction1([0, 1], e=5)
    g = RationalFunction1([1, 1], [z * z, K.one], e=5)
    points = [
        PointOnLine(K.coerce(0)),
        _INF,
        PointOnLine(K.coerce(-1)),
        PointOnLine(-z),
        PointOnLine(-z * z),
    ]
    tup = symbol_tuple(f, g, points)
    torsion = tup.torsion_report()
    orders = [t["order"] for t in torsion]
    values = [t["value"] for t in torsion]

    # reference tuple (zeta^5, 1, -1, -zeta^-5, 1); our symbol convention
    # inverts it entrywise up to the point pairing, so record both the
    # per-entry relation and the multiset match against the inverses
    printed = [z**5, K.one, K.coerce(-1), -(z**-5), K.one]
    statuses = []
    for v, p in zip(tup.values, printed):
        if v == p:
            statuses.append("equal")
        elif v * p == K.one:
            statuses.append("inverse")
        else:
            statuses.append("neither")
    inverse_multiset = sorted(render_element(p**-1) for p in printed)

    rep.inputs = {
        "field": "Q[r]/(r^2+r+1)",
        "f": "z with e=5",
        "g": "(z+1)/(z+r^2) with e=5",
        "points": [p.render() for p in points],
    }
    rep.results = {
        "symbols": values,
        "orders": orders,
        "product": tup.product(),
        "convention": statuses,
    }
    rep.check("weil-product", "TRIVIAL", "1", tup.product())
    rep.check("entry-values", "DERIVED", ["r", "1", "-1", "1", "r+1"], values)
    rep.check("entry-orders", "DERIVED", [3, 1, 2, 1, 6], orders)
    rep.check(
        "orders-divide-6", "PAPER", True, all(6 % o == 0 for o in orders)
    )
    rep.check(
        "printed-entry-multiset", "PAPER", inverse_multiset, sorted(values)
    )
    rep.check(
        "convention-report",
        "DERIVED",
        ["inverse", "equal", "equal", "neither", "neither"],
        statuses,
    )
    return rep


def _exp_s5_family_symbols():
    """Torsion analysis of the family symbol at u=0 (torsion) and u=1 (not)."""
    rep = _Report("s5-family-symbols")
    cr = CubicRoots.split_u_zero()
    al, be, ga = cr.roots
    K = ExtField("a", [1, -1, 1])
    f = RationalFunction1([0, 1], e=5)
    g = RationalFunction1([-al, K.one], [-be, K.one], e=5)
    points = [PointOnLine(K.coerce(0)), _INF, PointOnLine(al), PointOnLine(be), PointOnLine(ga)]
    tup = symbol_tuple(f, g, points)
    formula = [(be / al) ** 5, K.one, al**5, be**-5, K.one]
    torsion = tup.torsion_report()

    mp0 = minpoly_of_power(0, 5)
    mp1 = minpoly_of_power(1, 5)
    rep.inputs = {
        "cubic": "z^3 + u*z + 1",
        "field-u0": "Q[a]/(a^2-a+1)",
        "f": "z with e=5",
        "g": "(z-alpha)/(z-beta) with e=5",
        "u-values": [0, 1],
    }
    rep.results = {
        "u0-symbols": [t["value"] for t in torsion],
        "u0-orders": [t["order"] for t in torsion],
        "u0-power-minpoly": list(mp0),
        "u1-power-minpoly": list(mp1),
        "discriminants": {"0": discriminant(0), "1": discriminant(1)},
    }
    rep.check(
        "u0-formula-match",
        "PAPER",
        [render_element(v) for v in formula],
        [t["value"] for t in torsion],
    )
    rep.check("u0-weil-product", "TRIVIAL", "1", tup.product())
    rep.check("u0-all-torsion", "PAPER", True, all(t["torsion"] for t in torsion))
    rep.check("u0-orders", "DERIVED", [3, 1, 6, 2, 1], [t["order"] for t in torsion])
    rep.check("u0-fifth-power-cyclotomic", "DERIVED", True, is_cyclotomic_product(mp0))
    rep.check("u1-fifth-power-minpoly", "DERIVED", ["1", "6", "-5", "1"], list(mp1))
    rep.check("u1-not-cyclotomic", "PAPER", False, is_cyclotomic_product(mp1))
    # product of the fifth powers of the roots is (-1)^5, so the constant
    # term of the power minimal polynomial must be 1 for every u
    rep.check("u1-constant-term", "TRIVIAL", "1", mp1[0])

    # independent route: elementary symmetric functions of the fifth powers
    # via Newton power sums of the u=1 cubic
    ps = CubicRoots(1).power_sums(15)
    q1, q2, q3 = ps[5], ps[10], ps[15]
    e1 = q1
    e2 = (q1 * q1 - q2) / 2
    e3 = (q1**3 - 3 * q1 * q2 + 2 * q3) / 6
    rep.check(
        "u1-newton-oracle", "DERIVED", list(mp1), [-e3, e2, -e1, Fraction(1)]
    )
    return rep


def _exp_s5_residue_system():
    """The 10x8 residue-matching linear system over Q[a]/(a^2-a+1) at u=0."""
    rep = _Report("s5-residue-system")
    K = ExtField("a", [1, -1, 1])
    a = K.gen
    cr = CubicRoots.split_u_zero()
    ra, rb, rc = cr.roots
    points = [PointOnLine(K.coerce(0)), PointOnLine(ra), PointOnLine(rb), PointOnLine(rc), _INF]
    den = [K.coerce(0), K.one, K.coerce(0), K.coerce(0), K.one]  # z + z^4

    basis = [RationalFunction1([K.coerce(0)] * j + [K.one], den) for j in range(4)]
    matrix5 = [[residue(b, p) for b in basis] for p in points]

    derivs = root_derivative(0)
    da = next(d for r, d in derivs if r == ra)
    db = next(d for r, d in derivs if r == rb)
    rhs_u = [5 * db - 5 * da, K.coerce(0), 5 * da, -5 * db, K.coerce(0)]

    # block system: coefficients a_0..a_3 match the du-part, b_0..b_3 the
    # dv-part (which vanishes identically since the roots do not move)
    zero4 = [K.coerce(0)] * 4
    rows = [list(r) + zero4 for r in matrix5] + [zero4 + list(r) for r in matrix5]
    rhs = list(rhs_u) + [K.coerce(0)] * 5
    sol = solve_linear(rows, rhs)

    rep.inputs = {
        "field": "Q[a]/(a^2-a+1)",
        "denominator": "z + z^4",
        "points": [p.render() for p in points],
        "rhs-du": rhs_u,
        "unknowns": ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"],
    }
    rep.results = {
        "matrix": matrix5,
        "status": sol["status"],
        "solution": sol.get("solution", []),
    }
    rep.check("status-unique", "PAPER", "unique", sol["status"])
    expected = ["-5/3*a-5/3", "0", "-10/3*a+5/3", "0", "0", "0", "0", "0"]
    rep.check("solution", "PAPER", expected, sol.get("solution", []))
    rep.check(
        "solution-closed-form",
        "DERIVED",
        [Fraction(-5, 3) * (a + 1), K.coerce(0), Fraction(-5, 3) * a * (a + 1), K.coerce(0)],
        sol.get("solution", [])[:4],
    )
    rep.check("q-part-zero", "PAPER", ["0"] * 4, sol.get("solution", [])[4:])
    rep.check("residue-at-zero-row", "PAPER", ["1", "0", "0", "0"], matrix5[0])
    rep.check("residue-at-infinity-row", "PAPER", ["0", "0", "0", "-1"], matrix5[4])
    rep.check(
        "residue-columns-sum",
        "TRIVIAL",
        ["0"] * 4,
        [sum((matrix5[i][j] for i in range(5)), K.coerce(0)) for j in range(4)],
    )
    # the right hand side is d log of a reciprocity product, hence sums to 0
    rep.check("rhs-sum", "DERIVED", "0", sum(rhs_u, K.coerce(0)))

    # round trip: the solved numerator must reproduce the target residues
    # through the residue calculus itself
    s = sol.get("solution", [K.coerce(0)] * 8)
    solved = RationalFunction1(s[:4], den)
    rep.check(
        "solution-residue-roundtrip",
        "DERIVED",
        rhs_u,
        [residue(solved, p) for p in points],
    )
    return rep


def _session_k(ctx):
    w, x, y, z = ctx.gens()
    return w**2 * x + w * x * y + w * y**2 + y**3 + w * x * z


def _exp_s5_ideal():
    """Intersection of the deformation ideal with its correction ideal, u=v=1."""
    rep = _Report("s5-ideal")
    ctx = RingContext(("w", "x", "y", "z"))
    w, x, y, z = ctx.gens()
    K = _session_k(ctx)
    f1 = 5 * w**5 + w * z * K + w**2 * z * diff(K, "w")
    f2 = y**4 + 4 * x**3 * y + 2 * x * y**3 + w * z * diff(K, "x")
    f3 = x**4 + 4 * x * y**3 + 3 * x**2 * y**2 + z * w * diff(K, "y")
    f4 = 5 * z**5 + z * w * K + w * z**2 * diff(K, "z")
    i = Ideal(ctx, [f1, f2, f3, f4])
    jgens = [
        y**3 * z * w * K,
        x * y**2 * z * w * K,
        x**2 * y * w * z * K,
        w**2 * z * K,
        w * z**2 * K,
        x**2 * y**3 * w,
        x**2 * y**3 * z,
    ]
    j = Ideal(ctx, jgens)
    inter = intersect(i, j)
    table = mingens_degrees(inter, 15)
    counts = {d: c for d, c, _ in table if c}
    gb = inter.groebner_basis()
    gb_degrees = {}
    for g in gb:
        gb_degrees[g.total_degree()] = gb_degrees.get(g.total_degree(), 0) + 1

    rep.inputs = {
        "field": "QQ",
        "order": "dp",
        "u": 1,
        "v": 1,
        "K": K,
        "i-generators": [f1, f2, f3, f4],
        "j-generators": jgens,
    }
    rep.results = {
        "dim": krull_dim(inter),
        "mingens": counts,
        "gb-degrees": gb_degrees,
        "intersection-generators": len(inter.generators),
    }
    rep.check(
        "no-generators-below-9",
        "PAPER",
        [0] * 9,
        [next(c for dd, c, _ in table if dd == d) for d in range(9)],
    )
    rep.check(
        "first-generator-degree", "PAPER", 9, min(counts) if counts else None
    )
    rep.check("mingens-table", "DERIVED", {9: 21, 10: 2}, counts)
    rep.check(
        "gb-degree-multiset",
        "DERIVED",
        {9: 21, 10: 20, 11: 12, 12: 10, 13: 6, 14: 3, 15: 1},
        gb_degrees,
    )
    rep.check("dim", "DERIVED", 2, krull_dim(inter))

    # two oracles for the empty degree-8 piece, neither using the
    # intersection's Groebner basis: a dense rank over the raw intersection
    # generators, and an inclusion-exclusion rank straight from i and j
    rep.check(
        "piece-empty-degree-8-rank", "DERIVED", comb(11, 3), linalg_oracle(inter, 8)
    )
    rep.check(
        "piece-empty-degree-8-pair", "DERIVED", 0, graded_intersection_dim(i, j, 8)
    )
    rep.check(
        "oracle-agreement-degree-10",
        "DERIVED",
        graded_dim(inter, 10).dim_quotient,
        linalg_oracle(inter, 10),
    )

    gb_i = i.groebner_basis()
    gb_j = j.groebner_basis()
    rep.check(
        "membership-both-factors",
        "TRIVIAL",
        True,
        all(
            normal_form(g, gb_i).is_zero() and normal_form(g, gb_j).is_zero()
            for g in inter.generators
        ),
    )
    # the two degree-8 products spanning the obstruction class; both must
    # survive reduction against i, which pins the class outside the ideal
    # for every coefficient choice that is independent over Q
    n1 = normal_form(y**3 * w * z * K, gb_i)
    n2 = normal_form(x**2 * y * w * z * K, gb_i)
    rep.check(
        "kernel-witness-reductions-nonzero",
        "DERIVED",
        [False, False],
        [n1.is_zero(), n2.is_zero()],
    )
    return rep


def _exp_s5_hilbert():
    """Hilbert series of the Jacobian ring, with and without the class NPK."""
    rep = _Report("s5-hilbert")
    A = ExtField("a", [1, -1, 1])
    a = A.gen
    ctx = RingContext(("w", "x", "y", "z"), field=A)
    w, x, y, z = ctx.gens()
    K = _session_k(ctx)
    f = w**5 + z**5 + x * y**4 + x**4 * y + z * w * K
    i = jacob(f, "full")
    rows1, truncated1 = hilbert_table(i)
    N = z * w * K
    P = ctx.const(a + 1) * y**3 + ctx.const(a * (a + 1)) * x**2 * y
    k = Ideal(ctx, list(i.generators) + [N * P * K])
    rows2, truncated2 = hilbert_table(k)
    dims1 = dict(rows1)
    dims2 = dict(rows2)

    rep.inputs = {
        "field": "Q[a]/(a^2-a+1)",
        "order": "dp",
        "f": f,
        "N": N,
        "P": P,
        "K": K,
    }
    rep.results = {
        "jacobian-table": [[d, v] for d, v in rows1],
        "quotient-table": [[d, v] for d, v in rows2],
    }
    rep.check(
        "difference-degree-11", "PAPER", 1, dims1[11] - dims2[11]
    )
    rep.check("jacobian-dim-11", "DERIVED", 4, dims1[11])
    rep.check("quotient-dim-11", "DERIVED", 3, dims2[11])
    rep.check(
        "jacobian-table",
        "DERIVED",
        [[0, 1], [1, 4], [2, 10], [3, 20], [4, 31], [5, 40], [6, 44], [7, 40],
         [8, 31], [9, 20], [10, 10], [11, 4], [12, 1], [13, 0]],
        [[d, v] for d, v in rows1],
    )
    # the extra generator N*P*K has degree 11, so nothing changes below it
    rep.check(
        "tables-agree-below-11", "TRIVIAL", True, rows1[:11] == rows2[:11]
    )
    rep.check(
        "gorenstein-symmetry",
        "DERIVED",
        True,
        all(dims1[d] == dims1[12 - d] for d in range(13)),
    )
    rep.check(
        "finite-length", "TRIVIAL", [False, False], [truncated1, truncated2]
    )
    return rep


def _exp_s6_residue():
    """Residues of (a0 + a1 z + a2 z^2 + a3 z^3)/z dz and the imposed solution."""
    rep = _Report("s6-residue")
    den = [Fraction(0), Fraction(1)]  # z
    basis = [RationalFunction1([Fraction(0)] * j + [Fraction(1)], den) for j in range(4)]
    points = [PointOnLine(Fraction(0)), _INF]
    matrix = [[residue(b, p) for b in basis] for p in points]
    sol = solve_linear(matrix, [Fraction(52), Fraction(-52)])

    rep.inputs = {
        "denominator": "z",
        "points": [p.render() for p in points],
        "targets": ["52", "-52"],
    }
    rep.results = {
        "matrix": matrix,
        "status": sol["status"],
        "solution": sol.get("solution", []),
        "nullspace": sol.get("nullspace", []),
    }
    rep.check("residues-at-zero", "PAPER", ["1", "0", "0", "0"], matrix[0])
    rep.check("residues-at-infinity", "PAPER", ["-1", "0", "0", "0"], matrix[1])
    rep.check("imposed-solution", "PAPER", ["52", "0", "0", "0"], sol.get("solution", []))
    # only a0 is pinned by the residues; the free directions never touch it
    rep.check(
        "determined-coordinate",
        "DERIVED",
        True,
        sol["status"] == "parametric"
        and all(vec[0] == 0 for vec in sol.get("nullspace", [])),
    )
    solved = RationalFunction1(sol.get("solution", [Fraction(0)] * 4), den)
    rep.check(
        "solution-residue-roundtrip",
        "DERIVED",
        ["52", "-52"],
        [residue(solved, p) for p in points],
    )
    rep.check(
        "residue-sum", "TRIVIAL", "0", sum(residue(solved, p) for p in points)
    )
    return rep


def _exp_s6_ideal():
    """Intersection pinning the single degree-6 generator w*x^4*z at u=0."""
    rep = _Report("s6-ideal")
    ctx = RingContext(("w", "x", "y", "z"))
    w, x, y, z = ctx.gens()
    f1 = w * x**4 + 4 * w**4 * y
    f2 = 4 * x**3 * w + y**4
    f3 = 4 * x * y**3 + w**4
    f4 = 5 * z**5 + 4 * x**4 * z
    i = Ideal(ctx, [f1, f2, f3, f4])
    jgens = [52 * x**4 * y**3 * z, w * x**4 * z, x**4 * z**2]
    j = Ideal(ctx, jgens)
    inter = intersect(i, j)
    table = mingens_degrees(inter, 12)
    counts = {d: c for d, c, _ in table if c}
    reps6 = next(r for d, _, r in table if d == 6)

    rep.inputs = {
        "field": "QQ",
        "order": "dp",
        "u": 0,
        "i-generators": [f1, f2, f3, f4],
        "j-generators": jgens,
    }
    rep.results = {
        "dim": krull_dim(inter),
        "mingens": counts,
        "degree-6-generators": reps6,
        "intersection-generators": len(inter.generators),
    }
    rep.check("unique-degree-6-generator", "PAPER", 1, counts.get(6, 0))
    rep.check(
        "degree-6-generator-monomial",
        "PAPER",
        "w^1*x^4*z^1",
        render_monomial(reps6[0].leading_monomial(), ctx.variables, unit_exponents=True)
        if len(reps6) == 1 and reps6[0].num_terms() == 1
        else None,
    )
    rep.check(
        "no-generators-degree-7-8",
        "PAPER",
        [0, 0],
        [counts.get(7, 0), counts.get(8, 0)],
    )
    rep.check("mingens-table", "DERIVED", {6: 1, 9: 2, 10: 1, 12: 1}, counts)
    rep.check("dim", "DERIVED", 3, krull_dim(inter))

    # rank oracles, neither touching the intersection's Groebner basis:
    # degree d of I cap J has dimension 1, 4, 10 for d = 6, 7, 8, exactly
    # the multiples of the single degree-6 monomial generator
    rep.check(
        "piece-dims-6-7-8-rank",
        "DERIVED",
        [comb(9, 3) - 1, comb(10, 3) - 4, comb(11, 3) - 10],
        [linalg_oracle(inter, d) for d in (6, 7, 8)],
    )
    rep.check(
        "piece-dims-6-7-8-pair",
        "DERIVED",
        [1, 4, 10],
        [graded_intersection_dim(i, j, d) for d in (6, 7, 8)],
    )

    gb_i = i.groebner_basis()
    gb_j = j.groebner_basis()
    rep.check(
        "membership-both-factors",
        "TRIVIAL",
        True,
        all(
            normal_form(g, gb_i).is_zero() and normal_form(g, gb_j).is_zero()
            for g in inter.generators
        ),
    )
    # the degree-8 obstruction class 52*x^4*y^3*z must survive reduction
    rep.check(
        "obstruction-witness-nonzero",
        "DERIVED",
        False,
        normal_form(52 * x**4 * y**3 * z, gb_i).is_zero(),
    )

    # alternate single-generator form of the correction ideal
    inter2 = intersect(i, Ideal(ctx, [x**4 * z]))
    table2 = mingens_degrees(inter2, 8)
    counts2 = {d: c for d, c, _ in table2 if c}
    reps6b = next(r for d, _, r in table2 if d == 6)
    rep.results["narrow-form-mingens"] = counts2
    rep.results["narrow-form-degree-6-generators"] = reps6b
    rep.check("narrow-form-unique-degree-6", "PAPER", 1, counts2.get(6, 0))
    rep.check(
        "narrow-form-degree-6-monomial",
        "PAPER",
        "w^1*x^4*z^1",
        render_monomial(reps6b[0].leading_monomial(), ctx.variables, unit_exponents=True)
        if len(reps6b) == 1 and reps6b[0].num_terms() == 1
        else None,
    )
    rep.check(
        "narrow-form-no-other-generators-le-8",
        "PAPER",
        {6: 1},
        {d: c for d, c in counts2.items() if d <= 8},
    )
    return rep


def _exp_s7_dims():
    """Tangent-space dimensions for the biquadratic plane quartic."""
    rep = _Report("s7-dims")
    ctx = RingContext(("x", "y", "z"))
    x, y, z = ctx.gens()
    F = y**4 + x * z * y**2 + x**4 - z**4
    full = jacob(F, "full")
    partial = Ideal(ctx, [diff(F, "x"), diff(F, "z")])

    # ambient subspace: A(x,z)*y^2 + B(x,z) in degree 4
    W = [
        x**2 * y**2, x * z * y**2, z**2 * y**2,
        x**4, x**3 * z, x**2 * z**2, x * z**3, z**4,
    ]
    tb_basis = [x**4, x**3 * z, x**2 * z**2, x * z**3]
    r4_basis = [x**2 * z * y, x * z**2 * y, x**4, x**3 * z, x**2 * z**2, x * z**3]

    rows, truncated = hilbert_table(full)
    rep.inputs = {
        "field": "QQ",
        "order": "dp",
        "F": F,
        "subspace": W,
    }
    rep.results = {
        "tb-dim": len(tb_basis),
        "r4-dim": graded_dim(full, 4).dim_quotient,
        "hilbert-table": [[d, v] for d, v in rows],
    }
    rep.check(
        "tb-dim-4-basis",
        "PAPER",
        True,
        quotient_basis_check(partial, 4, tb_basis, within=W),
    )
    rep.check(
        "r4-dim-6-basis", "PAPER", True, quotient_basis_check(full, 4, r4_basis)
    )
    rep.check("r4-dimension", "PAPER", 6, graded_dim(full, 4).dim_quotient)
    # negative control: x^4 + z^4 dies in TB, so swapping x*z^3 for z^4
    # must break independence
    rep.check(
        "tb-dependent-set-rejected",
        "DERIVED",
        False,
        quotient_basis_check(partial, 4, [x**4, x**3 * z, x**2 * z**2, z**4], within=W),
    )
    # smooth plane quartic: Jacobian quotient is (1+t+t^2)^3
    rep.check(
        "hilbert-oracle",
        "DERIVED",
        [[0, 1], [1, 3], [2, 6], [3, 7], [4, 6], [5, 3], [6, 1], [7, 0]],
        [[d, v] for d, v in rows],
    )
    rep.check("finite-length", "TRIVIAL", False, truncated)
    rep.check("smooth-curve", "DERIVED", 0, krull_dim(full))
    rep.check("oracle-agreement-deg-4", "DERIVED", 6, linalg_oracle(full, 4))
    return rep


_BUILDERS = {
    "s5-symbols": _exp_s5_symbols,
    "s5-family-symbols": _exp_s5_family_symbols,
    "s5-residue-system": _exp_s5_residue_system,
    "s5-ideal": _exp_s5_ideal,
    "s5-hilbert": _exp_s5_hilbert,
    "s6-residue": _exp_s6_residue,
    "s6-ideal": _exp_s6_ideal,
    "s7-dims": _exp_s7_dims,
}

EXPERIMENT_IDS = tuple(_BUILDERS)


class UnknownExperiment(KeyError):
    pass


def run_experiment(exp_id):
    """Build, run, and time one experiment; returns the report dictionary."""
    try:
        builder = _BUILDERS[exp_id]
    except KeyError:
        raise UnknownExperiment(exp_id) from None
    start = time.perf_counter()
    rep = builder()
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return rep.finish(elapsed_ms)
