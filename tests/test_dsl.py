"""Script language: lexing, parsing, evaluation, and the round trip
through the canonical renderer that this module owns.

`render` prints an AST back to canonical one-statement-per-line source,
and `signature` is an AST without its source positions.  Every AST
comparison goes through `signature`: nodes compare by identity.  On every
supported script parse(render(parse(s))) has the signature of parse(s).
`test_dsl_hypothesis.py` imports both for generated scripts.
"""

import random
from importlib import resources

import pytest

from chowlab import dsl, groebner
from chowlab.dsl import (
    _CMP_OPS,
    Assign,
    BinOp,
    Call,
    Decl,
    DslEvalError,
    DslSyntaxError,
    ExprStmt,
    ForLoop,
    Index,
    MinpolyDecl,
    Name,
    Neg,
    Node,
    Num,
    Quit,
    RingDecl,
    SessionScript,
    Str,
    evaluate,
    parse,
    run_source,
    tokenize,
)
from chowlab.groebner import Ideal, krull_dim
from chowlab.poly import RingContext, render_poly
from chowlab.rings import hilbert_table, jacob, mingens_degrees

RING = "ring r=0,(w,x,y,z),dp;\n"
DATA = resources.files("chowlab") / "data"


def signature(node):
    """The node's type and fields, recursively, without source positions."""
    if isinstance(node, Node):
        return (type(node).__name__,) + tuple(signature(getattr(node, f)) for f in node._fields)
    if isinstance(node, (list, tuple)):
        return tuple(signature(v) for v in node)
    return node


_PREC = {
    "==": 1, "!=": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "+": 2, "-": 2, "*": 3, "/": 3, "^": 5,
}
_UNARY_PREC = 4
_INDEX_PREC = 6
_ATOM_PREC = 7


def _render_expr(node):
    """(text, precedence) with minimal parentheses."""
    if isinstance(node, Num):
        return str(node.value), _ATOM_PREC
    if isinstance(node, Str):
        return '"' + node.value + '"', _ATOM_PREC
    if isinstance(node, Name):
        return node.ident, _ATOM_PREC
    if isinstance(node, Call):
        args = ",".join(_render_expr(a)[0] for a in node.args)
        return f"{node.func}({args})", _ATOM_PREC
    if isinstance(node, Index):
        base, prec = _render_expr(node.base)
        if prec < _INDEX_PREC:
            base = f"({base})"
        return f"{base}[{_render_expr(node.index)[0]}]", _INDEX_PREC
    if isinstance(node, Neg):
        inner, prec = _render_expr(node.operand)
        if prec < _UNARY_PREC:
            inner = f"({inner})"
        return "-" + inner, _UNARY_PREC
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        left, lp = _render_expr(node.left)
        right, rp = _render_expr(node.right)
        # ^ associates right, comparisons do not associate, the rest left
        wrap_left = lp <= prec if node.op in _CMP_OPS or node.op == "^" else lp < prec
        wrap_right = rp < prec if node.op == "^" else rp <= prec
        if wrap_left:
            left = f"({left})"
        if wrap_right:
            right = f"({right})"
        return left + node.op + right, prec
    raise TypeError(f"not an expression node: {type(node).__name__}")


def _render_stmt(node):
    if isinstance(node, RingDecl):
        ground = "0" if node.param is None else f"(0,{node.param})"
        return f"ring {node.name}={ground},({','.join(node.variables)}),{node.order};"
    if isinstance(node, MinpolyDecl):
        return f"minpoly={_render_expr(node.expr)[0]};"
    if isinstance(node, Decl):
        if not node.exprs:
            return f"{node.kind} {node.name};"
        body = ",".join(_render_expr(e)[0] for e in node.exprs)
        return f"{node.kind} {node.name}={body};"
    if isinstance(node, Assign):
        return f"{node.name}={_render_expr(node.expr)[0]};"
    if isinstance(node, ExprStmt):
        return ",".join(_render_expr(e)[0] for e in node.exprs) + ";"
    if isinstance(node, ForLoop):
        init = _render_stmt(node.init)[:-1]
        step = _render_stmt(node.step)[:-1]
        cond = _render_expr(node.cond)[0]
        body = " ".join(_render_stmt(s) for s in node.body)
        return f"for ({init}; {cond}; {step}) {{ {body} }}"
    if isinstance(node, Quit):
        return "quit;"
    raise TypeError(f"not a statement node: {type(node).__name__}")


def render(script):
    """Canonical source for an AST, one statement per line."""
    if not script.statements:
        return ""
    return "\n".join(_render_stmt(s) for s in script.statements) + "\n"


def test_tokenize_shorthand_and_comments():
    toks = tokenize('poly K=5w5+wz*K; // trailing $TeX$ comment\nprint("a;b");')
    texts = [(t.kind, t.text) for t in toks]
    assert ("word", "5w5") in texts
    assert ("word", "wz") in texts
    assert ("str", "a;b") in texts
    assert all("trailing" not in t.text for t in toks)
    # positions are 1-based line:col
    assert toks[0].line == 1 and toks[0].col == 1
    assert [t.line for t in toks if t.kind == "str"] == [2]


def test_tokenize_rejects_stray_characters():
    with pytest.raises(DslSyntaxError) as err:
        tokenize("poly f=x;\npoly g=&;\n")
    assert err.value.line == 2 and err.value.col == 8


def test_parse_ring_forms_and_ast_equality():
    plain = parse("ring r=0,(w,x,y,z),dp;")
    param = parse("ring r=(0,a),(w,x,y,z),dp;")
    assert plain.statements[0].param is None
    assert param.statements[0].param == "a"
    assert plain.statements[0].variables == ("w", "x", "y", "z")
    # equality ignores positions
    assert signature(parse("poly f = x + y;")) == signature(parse("poly f=x+y;"))
    assert signature(parse("poly f=x+y;")) != signature(parse("poly f=x*y;"))


def test_parse_empty_source():
    assert signature(parse("")) == signature(SessionScript([]))
    assert evaluate(parse("")) == ""


def test_parse_precedence():
    script = parse("f=a+b*c^2[1];")
    expr = script.statements[0].expr
    assert signature(expr) == signature(BinOp(
        "+",
        Name("a"),
        BinOp("*", Name("b"), BinOp("^", Name("c"), Index(Num(2), Num(1)))),
    ))
    # unary minus binds looser than ^
    assert signature(parse("f=-x^2;")) == signature(parse("f=-(x^2);"))
    assert signature(parse("f=-x^2;")) != signature(parse("f=(-x)^2;"))
    # ^ is right-associative
    assert signature(parse("f=a^b^c;")) == signature(parse("f=a^(b^c);"))


def test_parse_errors_carry_locations():
    with pytest.raises(DslSyntaxError) as err:
        parse("ring r=0,(w,x),dp;\npoly f=;\n")
    assert err.value.line == 2 and err.value.col == 8
    with pytest.raises(DslSyntaxError):
        parse("ring r=1,(x),dp;")
    with pytest.raises(DslSyntaxError):
        parse("ring r=0,(x),weird;")
    with pytest.raises(DslSyntaxError):
        parse("poly f=x")  # missing terminator
    with pytest.raises(DslSyntaxError):
        parse("for (n=1; n>=1; n=n-1) { deg(x); ")


def test_render_round_trip_fixed_point():
    sources = [
        "ring r=0,(w,x,y,z),dp;",
        "poly K=w2x+wxy+wy2+y3+wxz;",
        "ideal j = y3zw*K,xy2zw*K, x2ywz*K, w2z*K, wz2*K, x2y3w, x2y3z;",
        'print(betti(T),"betti");',
        "for (n=ncols(T); n>=1; n=n-1)\n{ deg(I[n]), homog(I[n]); }",
        "poly P = (a+1)*y3+a*(1+a)*x2y;",
        "f=-x^2+(x+y)*(x-y);",
        "f=a-(b-c); f=(a-b)-c; f=a/(b*c); f=x^(-2);",
        "int n; quit;",
    ]
    for src in sources:
        ast = parse(src)
        canon = render(ast)
        assert signature(parse(canon)) == signature(ast), src
        assert render(parse(canon)) == canon, src


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.4:
            return Num(rng.randrange(0, 50))
        return Name(rng.choice(["x", "y", "n", "K", "w2x", "5w5"]))
    shape = rng.random()
    if shape < 0.15:
        return Neg(_random_expr(rng, depth - 1))
    if shape < 0.3:
        return Call(rng.choice(["deg", "homog", "f"]), [_random_expr(rng, depth - 1)])
    if shape < 0.4:
        return Index(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^", "==", "<="])
    return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_render_round_trip_random_expressions():
    rng = random.Random(20260815)
    for _ in range(100):
        script = SessionScript([ExprStmt([_random_expr(rng, 4)])])
        canon = render(script)
        assert signature(parse(canon)) == signature(script), canon
        assert render(parse(canon)) == canon, canon


def test_shorthand_monomials_resolve():
    out = run_source(RING + "print(5w5); print(x4y3z); print(zw); print(52*x4y3z);")
    assert out == "5*w^5\nx^4*y^3*z\nw*z\n52*x^4*y^3*z\n"


def test_unknown_identifier_has_location():
    with pytest.raises(DslEvalError) as err:
        run_source(RING + "poly f=bogus+1;")
    assert "bogus" in str(err.value)
    assert err.value.line == 2 and err.value.col == 8
    # shorthand with a letter outside the ring is unknown too
    with pytest.raises(DslEvalError):
        run_source(RING + "poly f=x2q;")


def test_ring_variables_resolve_before_the_shorthand():
    assert run_source("ring r=0,(x1,x2),dp; x1^2+x2;") == "x1^2+x2\n"
    assert run_source("ring r=0,(xy,z),dp; xy*z+z^2;") == "xy*z+z^2\n"
    out = run_source("ring r=(0,ab),(x),dp; minpoly=ab^2+1; ab*ab; (x+ab)^2;")
    assert out == "-1\nx^2+(2*ab)*x-1\n"
    # single letters still build shorthand monomials from the variables
    assert run_source("ring r=0,(x,y),dp; x2y;") == "x^2*y\n"


@pytest.mark.parametrize(
    "call, library",
    [
        ("jacob(x+y2)", lambda i: jacob(i.generators[0], "full")),
        ("hilb(i,2)", hilbert_table),
        ("lres(i,0)", lambda i: mingens_degrees(i, 2)),
    ],
)
def test_library_value_errors_are_located_eval_errors(call, library):
    ctx = RingContext(("x", "y"), order="dp")
    x, y = ctx.gens()
    with pytest.raises(ValueError) as lib:
        library(Ideal(ctx, [x + y**2]))
    with pytest.raises(DslEvalError) as err:
        run_source("ring r=0,(x,y),dp;\nideal i=x+y2;\n  " + call + ";\n")
    assert (err.value.message, err.value.line, err.value.col) == (str(lib.value), 3, 3)


def test_unsupported_builtin_and_arity_errors():
    with pytest.raises(DslEvalError) as err:
        run_source(RING + "ideal i=x; foo(i);")
    assert "foo" in str(err.value)
    with pytest.raises(DslEvalError) as err:
        run_source(RING + "dim(1,2);")
    assert "dim expects 1" in str(err.value)
    with pytest.raises(DslEvalError):
        run_source(RING + "poly f=diff(x2,7);")


def test_int_constants_substitute():
    assert run_source("ring r=0,(x,y),dp; int u=1; poly f=u*x; print(f);") == "x\n"
    assert run_source("ring r=0,(x,y),dp; int u; print(u); u=u+5; print(u);") == "0\n5\n"


def test_int_value_must_be_integral():
    with pytest.raises(DslEvalError):
        run_source("ring r=0,(x,y),dp; int u=1/2;")
    assert run_source("ring r=0,(x,y),dp; int u=4/2; print(u);") == "2\n"


def test_huge_integers_are_located_errors():
    with pytest.raises(DslEvalError) as err:
        run_source("int n = 2^1000000;\nn;")
    assert (err.value.line, err.value.col, err.value.message) == (2, 1, "value too large to print")
    with pytest.raises(DslEvalError) as err:
        run_source("int n = 2^1000000;\nprint(n);")
    assert err.value.line == 2
    with pytest.raises(DslEvalError) as err:
        run_source("int n = 3^(10^9);")
    assert err.value.message == "power too large"
    with pytest.raises(DslSyntaxError) as err:
        parse("int n = " + "9" * 5000 + ";")
    assert (err.value.line, err.value.col) == (1, 9)
    assert run_source("int n = 2^20000; print(n - n); print(2^(-3));") == "0\n1/8\n"


def test_polynomial_power_work_bound():
    # the bound counts term products: (w+x+y+z+1)^18 costs about three
    # times (x+1)^202, the largest power of x+1 it admits
    for base, e in (("x+1", 202), ("w+x+y+z+1", 13)):
        src = f"ring r=0,(w,x,y,z),dp; poly f=({base})^{e}; deg(f);"
        assert run_source(src) == f"{e}\n"
    for base, e in (("x+1", 203), ("w+x+y+z+1", 14), ("w+x+y+z+1", 18)):
        with pytest.raises(DslEvalError) as err:
            run_source(f"ring r=0,(w,x,y,z),dp; poly f=({base})^{e};")
        assert err.value.message == "power too large"


def test_huge_shorthand_digits_are_located_errors():
    nines = "9" * 5000
    for ident in ("x" + nines, nines + "x", "x2y" + nines, nines + "x" + nines):
        with pytest.raises(DslEvalError) as err:
            run_source("ring r=0,(x,y),dp;\npoly f=" + ident + ";\nf;")
        assert (err.value.line, err.value.col) == (2, 8)
        assert err.value.message == "integer literal too long"
    # up to the literal bound the shorthand still builds its monomial
    out = run_source("ring r=0,(x,y),dp; poly f=" + "9" * 4000 + "x" + "9" * 4000 + "; deg(f);")
    assert out == "9" * 4000 + "\n"


def test_deep_nesting_is_a_located_syntax_error():
    ring = "ring r=0,(x,y),dp;\n"
    scripts = [
        "poly f=" + "(" * 50000 + "x" + ")" * 50000 + ";",
        "poly f=" + "-" * 30000 + "x;",
        "poly f=" + "+".join(["x"] * 30000) + ";",
    ]
    # the first level past the bound: a parenthesis, a minus, a plus
    cols = [8 + dsl._MAX_NESTING, 8 + dsl._MAX_NESTING, 8 + 2 * dsl._MAX_NESTING + 1]
    for script, col in zip(scripts, cols):
        with pytest.raises(DslSyntaxError) as err:
            parse(ring + script)
        assert (err.value.line, err.value.col) == (2, col)
        assert err.value.message == "expression nested too deeply"


def test_nesting_at_the_bound_parses_renders_and_evaluates():
    n = dsl._MAX_NESTING
    ring = "ring r=0,(x,y),dp; ideal i=x;\n"
    at_bound = [
        "poly f=" + "(" * n + "x" + ")" * n + ";",
        "poly f=" + "-" * n + "x;",
        "poly f=" + "+".join(["x"] * (n + 1)) + ";",
        "poly f=" + "*".join(["x"] * (n + 1)) + ";",
        "int f=" + "^".join(["1"] * (n + 1)) + ";",
        "int f=" + "deg(" * n + "x" + ")" * n + ";",
        "poly f=i" + "[1]" * n + ";",
        "poly f=" + "-(" * (n // 2) + "x" + ")" * (n // 2) + "+x" * (n // 2) + ";",
    ]
    for script in at_bound:
        ast = parse(ring + script)
        assert signature(parse(render(ast))) == signature(ast)
        if "[" in script:  # i[1] is a polynomial, so the second index fails
            with pytest.raises(DslEvalError, match="only ideals support indexing"):
                run_source(ring + script)
        else:
            run_source(ring + script)
        # one more level of the same kind is refused
        deeper = script.replace("=", "=(", 1).replace(";", ");", 1)
        with pytest.raises(DslSyntaxError, match="nested too deeply"):
            parse(ring + deeper)


def test_expression_statements_print_each_value():
    out = run_source(RING + "poly f=x2+y; deg(f), homog(f); 3+4; print(1/2);")
    assert out == "2\n0\n7\n1/2\n"


def test_scalar_division_and_errors():
    assert run_source(RING + "print(x/2);") == "1/2*x\n"
    with pytest.raises(DslEvalError):
        run_source(RING + "print(x/y);")
    with pytest.raises(DslEvalError):
        run_source(RING + "print(1/0);")
    with pytest.raises(DslEvalError):
        run_source(RING + "print(x^(-2));")


def test_minpoly_builds_extension_field():
    src = "ring r=(0,a),(w,x,y,z),dp; minpoly=a2-a+1;\n"
    assert run_source(src + "print(a*a); print(1/a); print(-a^6);") == "(a-1)\n(-a+1)\n-1\n"
    # the parameter mixes into polynomial coefficients
    assert run_source(src + "print((a+1)*y3+a*(1+a)*x2y);") == "(2*a-1)*x^2*y+(a+1)*y^3\n"


def test_minpoly_gating_errors():
    with pytest.raises(DslEvalError):
        run_source("ring r=(0,a),(x,y),dp; poly f=x;")  # minpoly must come next
    with pytest.raises(DslEvalError):
        run_source("ring r=0,(x,y),dp; minpoly=x2-2;")
    with pytest.raises(DslEvalError):
        run_source("ring r=(0,a),(x,y),dp; minpoly=a-1;")
    with pytest.raises(DslEvalError):
        run_source("ring r=(0,a),(x,y),dp; minpoly=a2-1;")  # reducible
    with pytest.raises(DslEvalError):
        run_source("ring r=0,(x,y),dp; ring s=0,(w,z),dp;")
    with pytest.raises(DslEvalError):
        run_source("poly f=3;")  # no active ring


def test_polynomial_operands_share_one_coercion():
    with pytest.raises(DslEvalError) as err:
        run_source(RING + "ideal i = x;\ni + x;")
    assert (err.value.line, err.value.col) == (3, 3)
    assert err.value.message == "expected a polynomial or scalar"
    for src in ('poly f="s";', 'ideal i=x,"s";', 'homog("s");'):
        with pytest.raises(DslEvalError) as err:
            run_source(RING + src)
        assert err.value.message == "expected a polynomial or scalar"
    with pytest.raises(DslEvalError) as err:
        run_source("poly f=3;")
    assert err.value.message == "no active ring"


def test_ideal_declaration_flattens_ideals():
    out = run_source(RING + "poly f=x5+y5+z5+w5; ideal k=jacob(f),x2y3; print(ncols(k)); print(k[5]);")
    assert out == "5\nx^2*y^3\n"


def test_indexing_errors():
    with pytest.raises(DslEvalError):
        run_source(RING + "ideal i=x,y; print(i[3]);")
    with pytest.raises(DslEvalError):
        run_source(RING + "poly f=x; print(f[1]);")


def test_quit_stops_evaluation():
    assert run_source(RING + "print(1); quit; print(2);") == "1\n"


def test_for_loop_matches_manual_iteration():
    out = run_source(RING + "int n; for (n=3; n>=1; n=n-1) { n, 2*n; }")
    assert out == "3\n6\n2\n4\n1\n2\n"


def test_for_loop_iteration_guard(monkeypatch):
    monkeypatch.setattr(dsl, "_LOOP_LIMIT", 5)
    with pytest.raises(DslEvalError) as err:
        run_source(RING + "int n; for (n=1; n>=0; n=n+1) { deg(x); }")
    assert "iteration limit" in str(err.value)


def test_builtins_agree_with_library_calls():
    ctx = RingContext(("w", "x", "y", "z"), order="dp")
    w, x, y, z = ctx.gens()
    F = w ** 5 + x * y ** 4 + y * x ** 4 + z ** 5
    J = jacob(F, "full")
    script = RING + "poly f=w5+xy4+yx4+z5;\nideal j=jacob(f);\nideal i=std(j);\ndim(i);\nprint(i);\n"
    expected_dim = str(krull_dim(J))
    expected_gb = [f"_[{k}]={render_poly(g)}" for k, g in enumerate(J.groebner_basis(), 1)]
    assert run_source(script) == "\n".join([expected_dim] + expected_gb) + "\n"


def test_hilb_matches_hilbert_table():
    ctx = RingContext(("w", "x", "y", "z"), order="dp")
    w, x, y, z = ctx.gens()
    J = jacob(w ** 5 + x ** 5 + y ** 5 + z ** 5, "full")
    rows, truncated = hilbert_table(J)
    assert not truncated
    expected = "".join(f"// {v:8d} t^{d}\n" for d, v in rows)
    out = run_source(RING + "ideal i=std(jacob(w5+x5+y5+z5)); hilb(i,2);")
    assert out == expected
    # positive-dimensional quotients get the truncation marker
    out2 = run_source(RING + "ideal i=std(jacob(w5+x5+y5+z5)); ideal k=x,y; hilb(k,2);")
    assert out2.endswith("// ** table truncated; quotient is not finite dimensional\n")
    # a finite quotient longer than the cap names the cap, not infinitude
    out3 = run_source("ring r=0,(x,y),dp; ideal i=x^41,y; hilb(i,2);")
    ctx2 = RingContext(("x", "y"), order="dp")
    rows3, truncated3 = hilbert_table(Ideal(ctx2, [ctx2.var("x") ** 41, ctx2.var("y")]))
    assert truncated3 and rows3 == [(d, 1) for d in range(41)]
    expected3 = "".join(f"// {v:8d} t^{d}\n" for d, v in rows3)
    marker = "// ** table truncated at the degree cap t^40; quotient is finite dimensional\n"
    assert out3 == expected3 + marker


def test_lres_betti_matches_mingens_degrees():
    ctx = RingContext(("w", "x", "y", "z"), order="dp")
    w, x, y, z = ctx.gens()
    ideal = Ideal(ctx, [x ** 2, x * y, y ** 3, x ** 2 + z * w])
    counts = {d: len(r) for d, r in mingens_degrees(ideal, 3).items()}
    out = run_source(
        RING + "ideal i=x2,xy,y3,x2+zw;\nlist T=lres(i,0);\nprint(betti(T),\"betti\"); print(ncols(T));"
    )
    lines = out.splitlines()
    assert lines[0].startswith("// ** higher syzygies unsupported")
    assert lines[1] == "//  degree  count"
    table = {}
    for row in lines[2:-2]:
        _, deg, count = row.rsplit(None, 2)
        table[int(deg)] = int(count)
    assert table == counts
    assert lines[-2] == f"// total: {sum(counts.values())}"
    assert lines[-1] == "4"  # ncols of the table is the generator count


def test_evaluation_is_deterministic():
    src = (DATA / "sessions" / "s6-session.sess").read_text()
    first = evaluate(parse(src))
    second = evaluate(parse(src))
    assert first == second
    # canonicalising the source does not change the transcript
    assert evaluate(parse(render(parse(src)))) == first


def test_session_transcript_structure():
    src = (DATA / "sessions" / "s6-session.sess").read_text()
    out = evaluate(parse(src))
    lines = out.splitlines()
    assert lines[0] == "3"  # dim
    assert "//       6      1" in lines
    assert not any(l.startswith("//       7 ") or l.startswith("//       8 ") for l in lines)
    assert lines[-3:] == ["x^4*y^3*z^5", "x^8*z^2+5/4*x^4*z^6", "x^5*y^3*z"]


def test_ideal_declaration_keeps_the_cached_basis(monkeypatch):
    # `ideal l = std(k);` binds the value itself, so `hilb(l,2)` reuses its
    # basis instead of running Buchberger on it again
    calls, grown = [], []
    real, real_run = groebner.buchberger, groebner._Engine.run

    def counting(gens):
        calls.append(len(gens))
        return real(gens)

    def recording(eng, polys, target=None, known=0):
        if known:
            grown.append((len(polys), known))
        return real_run(eng, polys, target, known)

    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(groebner._Engine, "run", recording)
    src = (DATA / "sessions" / "s5-session2.sess").read_text()
    with (DATA / "goldens" / "s5-session2.transcript").open() as fh:
        assert evaluate(parse(src)) == fh.read()
    # only std(j) runs from generators: the second jacob(f) is j itself,
    # so `ideal k = jacob(f),N*P*K;` grows j's 55-element basis by N*P*K
    assert calls == [4]
    assert grown == [(56, 55)]


def test_session_interns_ideals_and_grows_declarations(monkeypatch):
    envs = []

    class Recording(dsl.Environment):
        def __init__(self):
            super().__init__()
            envs.append(self)

    monkeypatch.setattr(dsl, "Environment", Recording)
    src = (
        "ring r=0,(x,y,z),dp; poly f=x3+y3+z3+xyz;\n"
        "ideal j = jacob(f); ideal i = std(j); ideal j2 = jacob(f);\n"
        "ideal k = jacob(f),xyz; k; ideal l = std(k); l;\n"
    )
    out = run_source(src)
    assert run_source(src) == out
    # without std(j), k's basis runs from its generators: the same output
    assert run_source(src.replace("ideal i = std(j);", "")) == out
    first, second = envs[:2]
    # one session: jacob(f) twice is the same Ideal, whose basis std(j) cached
    assert first.names["j2"] is first.names["j"]
    assert first.names["j"]._gb is not None
    # two sessions share nothing
    assert second.names["j"] is not first.names["j"]
    assert not set(map(id, first.ideals.values())) & set(map(id, second.ideals.values()))
    # k prints its declared generators, not the basis it grew from
    x, y, z = first.ctx.gens()
    want = [3 * x**2 + y * z, 3 * y**2 + x * z, 3 * z**2 + x * y, x * y * z]
    assert out.splitlines()[:4] == [f"_[{n}]={render_poly(g)}" for n, g in enumerate(want, 1)]
    assert first.names["k"].generators == tuple(want)
