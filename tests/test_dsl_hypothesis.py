"""Generated session scripts: the interpreter ends in a transcript or a
located script error, and rendering round-trips every script that parses."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chowlab import dsl  # noqa: E402
from chowlab.dsl import DslEvalError, DslSyntaxError, parse, run_source  # noqa: E402
from test_dsl import render, signature  # noqa: E402

RINGS = (
    "ring r=0,(x,y,z),dp;",
    "ring r=0,(x,y,z),lp;",
    "ring r=(0,a),(x,y,z),dp; minpoly=a^2+1;",
)
PRELUDE = "poly f=x+y; poly g=x2; ideal i=x,y2; ideal j=x2,xy; int n=2; list T=lres(i,0);"
BUILTINS = ("jacob", "diff", "deg", "homog", "ncols", "betti", "print", "nosuch")
# the Groebner builtins take only names and atoms, and ideals are declared
# from low-degree generators below: the fraction-free `buchberger` can run
# for minutes on some tiny non-homogeneous inputs (exponents and degrees
# stay small for the same reason)
GROEBNER = ("std", "intersect", "dim", "hilb", "lres")

ATOMS = st.one_of(
    st.sampled_from(["x", "y", "z", "xy", "x2z", "3y", "f", "g", "n", "1", "2", "3"]),
    st.sampled_from(["a", "i", "j", "T", "0", '"betti"', '"s"']),
)
EXPONENTS = st.sampled_from(["(0)", "(1)", "(2)", "(3)", "(-1)"])
TERMS = st.sampled_from(["x", "y", "z", "2*x*y", "x2", "-3*z", "1/2*y2", "xz", "a*x", "1", "-2"])
LOW = st.lists(TERMS, min_size=1, max_size=3).map("+".join)


def _join(parts):
    return "".join(parts)


def _call(name_args):
    name, args = name_args
    return f"{name}({','.join(args)})"


def _expressions(depth):
    if depth == 0:
        return ATOMS
    inner = _expressions(depth - 1)
    small = st.one_of(ATOMS, st.tuples(ATOMS, st.sampled_from("+-*"), ATOMS).map(_join))
    return st.one_of(
        ATOMS,
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(_join),
        st.tuples(inner, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), inner).map(
            lambda t: "(" + _join(t) + ")"
        ),
        # a power's base is at most one operation on atoms
        st.tuples(small, EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda e: f"-({e})"),
        st.tuples(inner, inner).map(lambda t: f"({t[0]})[{t[1]}]"),
        st.tuples(st.sampled_from(BUILTINS), st.lists(inner, max_size=3)).map(_call),
        st.tuples(st.sampled_from(GROEBNER), st.lists(ATOMS, max_size=3)).map(_call),
    )


EXPR = _expressions(3)

SIMPLE = st.one_of(
    st.tuples(st.sampled_from(["poly f=", "poly g=", "f="]), LOW).map(lambda t: _join(t) + ";"),
    st.tuples(st.sampled_from(["ideal i=", "ideal j="]), st.lists(LOW, min_size=1, max_size=3)).map(
        lambda t: t[0] + ",".join(t[1]) + ";"
    ),
    st.sampled_from(["ideal i=std(j);", "ideal j=intersect(i,j);", "list T=lres(j,0);", "hilb(i,2);"]),
    LOW.map(lambda p: f"ideal i=jacob({p});"),
    st.tuples(st.sampled_from(["int n=", "n="]), EXPR).map(lambda t: _join(t) + ";"),
    st.lists(EXPR, min_size=1, max_size=2).map(lambda es: ",".join(es) + ";"),
    EXPR.map(lambda e: f"print({e});"),
)
# a loop makes at most 3 passes
LOOP = st.tuples(st.integers(0, 3), st.lists(SIMPLE, min_size=1, max_size=2)).map(
    lambda t: f"for (n={t[0]}; n>=1; n=n-1) {{ {' '.join(t[1])} }}"
)
SCRIPTS = st.tuples(
    st.sampled_from(RINGS),
    st.lists(st.one_of(SIMPLE, LOOP), min_size=1, max_size=5),
).map(lambda t: "\n".join([t[0], PRELUDE, *t[1]]) + "\n")

# no digits: an inserted digit could turn ^(3) into ^(31)
MUTANTS = st.sampled_from(list('"/\n(),;=+-*^<>![]{}#é ') + ["//"])


@st.composite
def mutated(draw, scripts):
    # drawn before the script: a draw after a long script leans to 0
    where = draw(st.integers(0, 2**32))
    how = draw(st.sampled_from(["delete", "insert", "replace"]))
    char = draw(MUTANTS)
    src = draw(scripts)
    k = where % (len(src) + 1)
    if how == "delete":
        return src[:k] + src[k + 1:]
    return src[:k] + char + src[k + (how == "replace"):]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(SCRIPTS, mutated(SCRIPTS)))
def test_scripts_end_in_a_transcript_or_a_located_error(src):
    # a mutated `n=n-1` can loop forever: a small limit makes that cheap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsl, "_LOOP_LIMIT", 10)
        try:
            assert isinstance(run_source(src), str)
        except (DslSyntaxError, DslEvalError) as err:
            assert err.line >= 1 and err.col >= 1
    try:
        tree = parse(src)
    except DslSyntaxError:
        return
    canon = render(tree)
    assert signature(parse(canon)) == signature(tree)
    assert render(parse(canon)) == canon
