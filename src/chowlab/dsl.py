"""Interpreter for a small ideal-theory scripting language.

Scripts declare one polynomial ring, bind ints, polys and ideals, and call
a fixed set of builtins (jacob, std, intersect, dim, hilb, lres, betti,
diff, deg, homog, ncols, print).  Bare expression statements print their
values, so running a script yields a plain-text transcript, one line per
printed item, suitable for byte-for-byte comparison.

The surface syntax follows the classical computer-algebra convention:
`//` line comments, `;` terminators, and shorthand monomials where a
digit run glues to a variable run (`5w5` is 5*w^5, `x2y3z` is x^2*y^3*z).
Caret exponents are also accepted.  A ring variable is named by its full
identifier before the shorthand applies.  `parse` returns an AST with a
source position on every node; the tests own its canonical renderer and
check that rendering round-trips every script that parses.

The lexer is one regular expression, matched at each position.  Each
builtin's argument count sits in the `_BUILTINS` table beside its
handler, and a `ValueError` by which the library refuses a builtin's
input becomes a `DslEvalError` located at the call.
"""

import operator
import re
from collections import namedtuple
from fractions import Fraction
from math import comb, log2

from .coeff import QQ, ExtElement, ExtField
from .groebner import Ideal, intersect, krull_dim
from .poly import Polynomial, RingContext, diff, is_homogeneous, render_poly
from .rings import hilbert_table, jacob, mingens_degrees


class DslError(Exception):
    """Script error carrying a 1-based source location."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class DslSyntaxError(DslError):
    pass


class DslEvalError(DslError):
    pass


# ---------------------------------------------------------------------------
# lexer

# below Python's default limit (4300) on int-from-string conversion
_MAX_LITERAL_DIGITS = 4000
# deepest expression nesting the parser accepts: parentheses, unary
# operators, ^, calls, indexing and each operator of a + - * / chain count
# one level.  A level costs at most 7 parser frames (a parenthesis), so
# parse and evaluate need under 470 frames of Python's default recursion
# limit of 1000.
_MAX_NESTING = 64


Token = namedtuple("Token", "kind text line col")  # kind: word num str op eof

# one lexeme per match, named by its group; `\w` is ASCII only, since
# str.isdigit() is also true of '²' and '٣', which int() rejects or reads as 3
_LEXEME = re.compile(
    r'(?P<nl>\n)|(?P<space>[ \t\r]+)|(?P<comment>//[^\n]*)|"(?P<str>[^"\n]*)"'
    r"|(?P<word>\w+)|(?P<op>[=!<>]=|[(){}\[\],;=+\-*/^<>])",
    re.ASCII,
)


def tokenize(source):
    """Token list for script text; whitespace and // comments are skipped."""
    toks = []
    i = line_start = 0
    line = 1
    while i < len(source):
        col = i - line_start + 1
        lexeme = _LEXEME.match(source, i)
        if lexeme is None:
            if source[i] == '"':
                raise DslSyntaxError("unterminated string literal", line, col)
            raise DslSyntaxError(f"unexpected character {source[i]!r}", line, col)
        kind, text = lexeme.lastgroup, lexeme[lexeme.lastgroup]
        i = lexeme.end()
        if kind == "nl":
            line, line_start = line + 1, i
        elif kind == "comment":
            # a comment takes no columns: the end of input after it is
            # located at its start
            line_start += len(text)
        elif kind != "space":
            if kind == "word" and text.isdigit():
                kind = "num"
            toks.append(Token(kind, text, line, col))
    toks.append(Token("eof", "", line, i - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# AST


class Node:
    """AST node: its `_fields`, and pos, the (line, col) of its source.
    Nodes compare by identity; the tests compare ASTs by their fields."""

    _fields = ()

    def __init__(self, *args, pos=(0, 0)):
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields")
        for name, value in zip(self._fields, args):
            setattr(self, name, value)
        self.pos = pos

    def __repr__(self):
        inner = ", ".join(repr(getattr(self, f)) for f in self._fields)
        return f"{type(self).__name__}({inner})"


class SessionScript(Node):
    _fields = ("statements",)


class RingDecl(Node):
    _fields = ("name", "param", "variables", "order")


class MinpolyDecl(Node):
    _fields = ("expr",)


class Decl(Node):
    _fields = ("kind", "name", "exprs")


class Assign(Node):
    _fields = ("name", "expr")


class ExprStmt(Node):
    _fields = ("exprs",)


class ForLoop(Node):
    _fields = ("init", "cond", "step", "body")


class Quit(Node):
    _fields = ()


class Num(Node):
    _fields = ("value",)


class Str(Node):
    _fields = ("value",)


class Name(Node):
    _fields = ("ident",)


class Call(Node):
    _fields = ("func", "args")


class Index(Node):
    _fields = ("base", "index")


class BinOp(Node):
    _fields = ("op", "left", "right")


class Neg(Node):
    _fields = ("operand",)


# ---------------------------------------------------------------------------
# parser

_KEYWORDS = {"ring", "minpoly", "int", "poly", "ideal", "list", "for", "quit"}
_DECL_KINDS = ("int", "poly", "ideal", "list")
_ORDERS = ("dp", "lp")
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise DslSyntaxError(message, tok.line, tok.col)

    def deeper(self, tok):
        """Enter one more level of expression nesting, at tok."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise DslSyntaxError("expression nested too deeply", tok.line, tok.col)

    def at_op(self, text):
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    def expect_op(self, text):
        if not self.at_op(text):
            found = self.peek().text or "end of input"
            self.fail(f"expected {text!r}, found {found!r}")
        return self.advance()

    def expect_word(self, what="an identifier"):
        tok = self.peek()
        if tok.kind != "word":
            self.fail(f"expected {what}")
        return self.advance()

    def items(self, parse_one):
        """One or more comma-separated results of parse_one."""
        out = [parse_one()]
        while self.at_op(","):
            self.advance()
            out.append(parse_one())
        return out

    # statements

    def statement(self):
        tok = self.peek()
        if tok.kind == "word" and tok.text in _KEYWORDS:
            if tok.text == "ring":
                return self.ring_decl()
            if tok.text == "minpoly":
                return self.minpoly_decl()
            if tok.text in _DECL_KINDS:
                return self.decl()
            if tok.text == "for":
                return self.for_loop()
            self.advance()
            self.expect_op(";")
            return Quit(pos=(tok.line, tok.col))
        if tok.kind == "word" and self.peek(1).kind == "op" and self.peek(1).text == "=":
            stmt = self.simple_assign()
            self.expect_op(";")
            return stmt
        exprs = self.items(self.expression)
        self.expect_op(";")
        return ExprStmt(exprs, pos=(tok.line, tok.col))

    def ring_decl(self):
        start = self.advance()
        name = self.expect_word("a ring name").text
        self.expect_op("=")
        param = None
        tok = self.peek()
        if tok.kind == "num":
            if tok.text != "0":
                self.fail("only characteristic 0 is supported", tok)
            self.advance()
        elif self.at_op("("):
            self.advance()
            zero = self.advance()
            if zero.kind != "num" or zero.text != "0":
                self.fail("expected characteristic 0", zero)
            self.expect_op(",")
            param = self.expect_word("a parameter name").text
            self.expect_op(")")
        else:
            self.fail("expected a ground field specification")
        self.expect_op(",")
        self.expect_op("(")
        variables = self.items(lambda: self.expect_word("a variable name").text)
        self.expect_op(")")
        self.expect_op(",")
        order = self.expect_word("a monomial order")
        if order.text not in _ORDERS:
            self.fail(f"unsupported monomial order {order.text!r}", order)
        self.expect_op(";")
        return RingDecl(
            name, param, tuple(variables), order.text, pos=(start.line, start.col)
        )

    def minpoly_decl(self):
        start = self.advance()
        self.expect_op("=")
        expr = self.expression()
        self.expect_op(";")
        return MinpolyDecl(expr, pos=(start.line, start.col))

    def decl(self):
        start = self.advance()
        kind = start.text
        name = self.expect_word(f"a name after {kind!r}").text
        exprs = []
        if self.at_op("="):
            self.advance()
            exprs = self.items(self.expression)
        if kind in ("poly", "list") and len(exprs) != 1:
            self.fail(f"{kind} declaration needs exactly one value", start)
        if kind == "int" and len(exprs) > 1:
            self.fail("int declaration takes at most one value", start)
        self.expect_op(";")
        return Decl(kind, name, exprs, pos=(start.line, start.col))

    def simple_assign(self):
        name_tok = self.expect_word()
        self.expect_op("=")
        expr = self.expression()
        return Assign(name_tok.text, expr, pos=(name_tok.line, name_tok.col))

    def for_loop(self):
        start = self.advance()
        self.expect_op("(")
        init = self.simple_assign()
        self.expect_op(";")
        cond = self.expression()
        self.expect_op(";")
        step = self.simple_assign()
        self.expect_op(")")
        self.expect_op("{")
        body = []
        while not self.at_op("}"):
            if self.peek().kind == "eof":
                self.fail("unterminated loop body")
            body.append(self.statement())
        self.expect_op("}")
        return ForLoop(init, cond, step, body, pos=(start.line, start.col))

    # expressions, loosest binding first

    def expression(self):
        left = self.additive()
        tok = self.peek()
        if tok.kind == "op" and tok.text in _CMP_OPS:
            self.advance()
            right = self.additive()
            return BinOp(tok.text, left, right, pos=(tok.line, tok.col))
        return left

    def additive(self):
        return self.chain(("+", "-"), self.multiplicative)

    def multiplicative(self):
        return self.chain(("*", "/"), self.unary)

    # a chain is a left-deep tree, so its operators stay counted to its end

    def chain(self, ops, operand):
        """operand, then any number of (op in ops, operand), left-associative."""
        depth = self.depth
        node = operand()
        while self.peek().kind == "op" and self.peek().text in ops:
            tok = self.advance()
            self.deeper(tok)
            node = BinOp(tok.text, node, operand(), pos=(tok.line, tok.col))
        self.depth = depth
        return node

    def unary(self):
        if self.at_op("-") or self.at_op("+"):
            tok = self.advance()
            self.deeper(tok)
            node = self.unary()
            self.depth -= 1
            return Neg(node, pos=(tok.line, tok.col)) if tok.text == "-" else node
        return self.power()

    def power(self):
        base = self.postfix()
        if self.at_op("^"):
            tok = self.advance()
            self.deeper(tok)
            node = BinOp("^", base, self.unary(), pos=(tok.line, tok.col))
            self.depth -= 1
            return node
        return base

    def postfix(self):
        depth = self.depth
        node = self.primary()
        while self.at_op("["):
            tok = self.advance()
            self.deeper(tok)
            index = self.expression()
            self.expect_op("]")
            node = Index(node, index, pos=(tok.line, tok.col))
        self.depth = depth
        return node

    def primary(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            if len(tok.text) > _MAX_LITERAL_DIGITS:
                raise DslSyntaxError("integer literal too long", tok.line, tok.col)
            return Num(int(tok.text), pos=(tok.line, tok.col))
        if tok.kind == "str":
            self.advance()
            return Str(tok.text, pos=(tok.line, tok.col))
        if tok.kind == "word":
            self.advance()
            if self.at_op("("):
                self.deeper(self.advance())
                args = [] if self.at_op(")") else self.items(self.expression)
                self.expect_op(")")
                self.depth -= 1
                return Call(tok.text, args, pos=(tok.line, tok.col))
            return Name(tok.text, pos=(tok.line, tok.col))
        if self.at_op("("):
            self.deeper(self.advance())
            node = self.expression()
            self.expect_op(")")
            self.depth -= 1
            return node
        found = tok.text or "end of input"
        self.fail(f"expected an expression, found {found!r}")


def parse(source):
    """Parse script text into a SessionScript AST (positions on every node)."""
    parser = _Parser(tokenize(source))
    statements = []
    while parser.peek().kind != "eof":
        statements.append(parser.statement())
    return SessionScript(statements)


# ---------------------------------------------------------------------------
# evaluator


class MingensTable:
    """Degree table of minimal ideal generators; stands in for a resolution."""

    def __init__(self, ideal, rows):
        self.ideal = ideal
        self.rows = rows  # {degree: representatives}, as mingens_degrees

    def lines(self):
        rows = [f"// {d:7d} {len(reps):6d}" for d, reps in self.rows.items()]
        total = sum(len(reps) for reps in self.rows.values())
        return ["//  degree  count", *rows, f"// total: {total}"]


class Environment:
    """Single mutable scope: the active ring plus named bindings."""

    def __init__(self):
        self.ctx = None
        self.names = {}
        self.pending = None  # a parametric RingDecl waiting for its minpoly
        self.lines = []
        self.ideals = {}  # (ring, generators): the first such ideal (`_intern`)


def _intern(env, ideal):
    """The session's first ideal with these generators in this ring, whose
    basis may be cached already."""
    return env.ideals.setdefault((ideal.context, ideal.generators), ideal)


class _QuitSignal(Exception):
    pass


_LOOP_LIMIT = 100000
# largest integer or rational power the interpreter builds, in bits
_POWER_BITS_LIMIT = 1 << 20
# largest bound on the terms of a polynomial power that it builds
_POWER_TERMS_LIMIT = 1 << 13
# largest estimate of the work of a polynomial power that it builds (see
# `_power`); it admits (x+1)^202 but not (x+1)^203, and no power of
# (w+x+y+z+1) above the 13th
_POWER_WORK_LIMIT = 1 << 24

_SHORTHAND = re.compile(r"(\d*)((?:[A-Za-z]\d*)+)")


def _require_ctx(env, pos):
    if env.ctx is None:
        raise DslEvalError("no active ring", *pos)
    return env.ctx


def _as_int(value, pos, what):
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    raise DslEvalError(f"{what} must be an integer", *pos)


def _as_poly(value, ctx, pos):
    if isinstance(value, Polynomial):
        if value.ctx != ctx:
            raise DslEvalError("mixed ring contexts", *pos)
        return value
    if isinstance(value, int):
        return ctx.const(Fraction(value))
    if isinstance(value, (Fraction, ExtElement)):
        return ctx.const(value)
    raise DslEvalError("expected a polynomial or scalar", *pos)


def _as_ideal(value, pos, what):
    if not isinstance(value, Ideal):
        raise DslEvalError(f"{what} must be an ideal", *pos)
    return value


def _resolve(ident, env, pos):
    if ident in env.names:
        return env.names[ident]
    if env.ctx is not None:
        if ident in env.ctx.variables:
            return env.ctx.var(ident)
        match = _SHORTHAND.fullmatch(ident)
        if match:
            coeff, body = match.groups()
            parts = re.findall(r"([A-Za-z])(\d*)", body)
            if all(letter in env.ctx.variables for letter, _ in parts):
                # the digits obey the bounds of integer literals and of ^
                runs = [coeff] + [digits for _, digits in parts]
                if max(map(len, runs)) > _MAX_LITERAL_DIGITS:
                    raise DslEvalError("integer literal too long", *pos)
                poly = env.ctx.one if not coeff else env.ctx.const(Fraction(int(coeff)))
                for letter, digits in parts:
                    poly = poly * _power(env.ctx.var(letter), int(digits or 1), pos)
                return poly
    raise DslEvalError(f"unknown identifier {ident!r}", *pos)


def _bits(q):
    """The bits of the larger of the numerator and denominator of q."""
    q = Fraction(q)
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _power(base, exponent, pos):
    e = _as_int(exponent, pos, "exponent")
    try:
        if isinstance(base, Polynomial):
            if e < 0:
                raise DslEvalError("negative exponent on a polynomial", *pos)
            t, n = len(base.terms), base.ctx.nvars
            if t > 1:
                # base^e has at most C(t + e - 1, e) terms, t those of the
                # base, and at most the C(n + e deg, n) monomials of degree
                # <= e deg, so e < terms; its coefficients have about
                # e * bits bits, bits = (those of the base) + log2 t.  Its
                # e - 1 products with the base make at most e * terms * t
                # term products, each costing about 200 + e * bits
                # (measured on a 2-core x86-64 host, CPython 3.11: this puts
                # (x+1)^202 and (w+x+y+z+1)^18 within 2% of their time
                # ratio).  The work is the larger of that cost, over 3 so
                # that (x+1)^202 stays admitted, and e * terms * e * bits,
                # so that nothing the coefficient estimate alone refuses is
                # admitted
                terms = min(comb(t + e - 1, e), comb(n + e * base.total_degree(), n))
                cs = [c.coeffs if isinstance(c, ExtElement) else [c] for _, c in base.terms]
                bits = max(_bits(q) for qs in cs for q in qs) + log2(t)
                if terms > _POWER_TERMS_LIMIT or e * terms * max(e * bits, t * (e * bits + 200) / 3) > _POWER_WORK_LIMIT:
                    raise DslEvalError("power too large", *pos)
            return base ** e
        if isinstance(base, (int, Fraction)):
            bits = _bits(base)
            # the power has at least (bits - 1) * |e| bits
            if bits > 1 and (bits - 1) * abs(e) > _POWER_BITS_LIMIT:
                raise DslEvalError("power too large", *pos)
        if isinstance(base, int):
            return Fraction(base) ** e if e < 0 else base ** e
        if isinstance(base, (Fraction, ExtElement)):
            return base ** e
    except ZeroDivisionError:
        raise DslEvalError("zero to a negative power", *pos)
    raise DslEvalError("cannot exponentiate this value", *pos)


_SCALARS = (int, Fraction, ExtElement)
# "/" multiplies by the inverse of its scalar divisor
_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.mul,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


def _binop(expr, env):
    op, pos = expr.op, expr.pos
    left = _eval(expr.left, env)
    right = _eval(expr.right, env)
    if op == "^":
        return _power(left, right, pos)
    if op in _CMP_OPS:
        if op not in ("==", "!="):
            for v in (left, right):
                if not isinstance(v, (int, Fraction)):
                    raise DslEvalError(f"ordered comparison needs numbers, not {type(v).__name__}", *pos)
        return int(_OPS[op](left, right))
    if isinstance(left, str) or isinstance(right, str):
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        raise DslEvalError("strings only support +", *pos)
    if isinstance(left, Polynomial) or isinstance(right, Polynomial):
        ctx = left.ctx if isinstance(left, Polynomial) else right.ctx
        left = _as_poly(left, ctx, pos)
        right = _as_poly(right, ctx, pos)
        if op == "/":
            if right.total_degree() > 0:
                raise DslEvalError("polynomial division is not supported", *pos)
            right = right.coeff_of((0,) * ctx.nvars)
    elif not (isinstance(left, _SCALARS) and isinstance(right, _SCALARS)):
        raise DslEvalError(f"unsupported operands for {op!r}", *pos)
    if op == "/":
        if right == 0:
            raise DslEvalError("division by zero", *pos)
        # Fraction(1), not 1: int / int is a float
        right = Fraction(1) / right
    return _OPS[op](left, right)


def _eval(expr, env):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Str):
        return expr.value
    if isinstance(expr, Name):
        return _resolve(expr.ident, env, expr.pos)
    if isinstance(expr, Neg):
        value = _eval(expr.operand, env)
        if isinstance(value, (int, Fraction, ExtElement, Polynomial)):
            return -value
        raise DslEvalError("cannot negate this value", *expr.pos)
    if isinstance(expr, Index):
        base = _eval(expr.base, env)
        index = _as_int(_eval(expr.index, env), expr.pos, "index")
        if isinstance(base, Ideal):
            gens = base.generators
            if not 1 <= index <= len(gens):
                raise DslEvalError(
                    f"index {index} out of range (1..{len(gens)})", *expr.pos
                )
            return gens[index - 1]
        raise DslEvalError("only ideals support indexing", *expr.pos)
    if isinstance(expr, BinOp):
        return _binop(expr, env)
    if isinstance(expr, Call):
        return _call(expr, env)
    raise DslEvalError(f"cannot evaluate {type(expr).__name__}", *expr.pos)


# builtins; each takes the evaluated arguments, whose count _call checks


def _bi_jacob(env, args, pos):
    return jacob(_as_poly(args[0], _require_ctx(env, pos), pos), "full")


def _bi_std(env, args, pos):
    ideal = _as_ideal(args[0], pos, "std argument")
    gb = ideal.groebner_basis()
    return Ideal(ideal.context, gb, basis=gb)


def _bi_intersect(env, args, pos):
    a = _as_ideal(args[0], pos, "intersect argument")
    b = _as_ideal(args[1], pos, "intersect argument")
    return intersect(a, b)


def _bi_dim(env, args, pos):
    return krull_dim(_as_ideal(args[0], pos, "dim argument"))


def _bi_hilb(env, args, pos):
    ideal = _as_ideal(args[0], pos, "hilb argument")
    if args[1] != 2:
        raise DslEvalError("only hilb(I,2) is supported", *pos)
    rows, truncated = hilbert_table(ideal)
    env.lines.extend(f"// {value:8d} t^{degree}" for degree, value in rows)
    if truncated and krull_dim(ideal) > 0:
        env.lines.append("// ** table truncated; quotient is not finite dimensional")
    elif truncated:
        cap = rows[-1][0]
        env.lines.append(f"// ** table truncated at the degree cap t^{cap}; quotient is finite dimensional")
    return None


def _bi_diff(env, args, pos):
    f = _as_poly(args[0], _require_ctx(env, pos), pos)
    v = args[1]
    if (
        isinstance(v, Polynomial)
        and v.num_terms() == 1
        and v.total_degree() == 1
        and v.leading_coeff() == v.ctx.field.one
    ):
        exps = v.leading_monomial()
        name = v.ctx.variables[[i for i, e in enumerate(exps) if e][0]]
        return diff(f, name)
    raise DslEvalError("second argument of diff must be a ring variable", *pos)


def _bi_deg(env, args, pos):
    value = args[0]
    if isinstance(value, Polynomial):
        return value.total_degree()
    if isinstance(value, _SCALARS):
        return 0 if value != 0 else -1
    raise DslEvalError("deg expects a polynomial", *pos)


def _bi_homog(env, args, pos):
    value = _as_poly(args[0], _require_ctx(env, pos), pos)
    return 1 if is_homogeneous(value) is not None else 0


def _bi_ncols(env, args, pos):
    value = args[0]
    if isinstance(value, Ideal):
        return len(value.generators)
    if isinstance(value, MingensTable):
        return len(value.ideal.generators)
    raise DslEvalError("ncols expects an ideal or a resolution table", *pos)


def _bi_lres(env, args, pos):
    ideal = _as_ideal(args[0], pos, "lres argument")
    if args[1] != 0:
        raise DslEvalError("only lres(I,0) is supported", *pos)
    env.lines.append("// ** higher syzygies unsupported; reporting minimal generator degrees")
    up_to = max((g.total_degree() for g in ideal.generators), default=0)
    return MingensTable(ideal, mingens_degrees(ideal, up_to))


def _bi_betti(env, args, pos):
    if not isinstance(args[0], MingensTable):
        raise DslEvalError("betti expects a resolution table", *pos)
    return args[0]


def _bi_print(env, args, pos):
    if len(args) not in (1, 2):
        raise DslEvalError(f"print expects 1 or 2 arguments, got {len(args)}", *pos)
    if len(args) == 2:
        if args[1] != "betti":
            raise DslEvalError(f"unsupported print format {args[1]!r}", *pos)
        if not isinstance(args[0], MingensTable):
            raise DslEvalError('print(.,"betti") expects a resolution table', *pos)
    env.lines.extend(_format_value(args[0], pos))
    return None


# name -> (handler, argument count); print checks its own count
_BUILTINS = {
    "jacob": (_bi_jacob, 1),
    "std": (_bi_std, 1),
    "intersect": (_bi_intersect, 2),
    "dim": (_bi_dim, 1),
    "hilb": (_bi_hilb, 2),
    "diff": (_bi_diff, 2),
    "deg": (_bi_deg, 1),
    "homog": (_bi_homog, 1),
    "ncols": (_bi_ncols, 1),
    "lres": (_bi_lres, 2),
    "betti": (_bi_betti, 1),
    "print": (_bi_print, None),
}


def _call(expr, env):
    if expr.func not in _BUILTINS:
        raise DslEvalError(f"unsupported builtin {expr.func!r}", *expr.pos)
    handler, count = _BUILTINS[expr.func]
    args = [_eval(a, env) for a in expr.args]
    if count not in (None, len(args)):
        raise DslEvalError(f"{expr.func} expects {count} argument(s), got {len(args)}", *expr.pos)
    try:
        value = handler(env, args, expr.pos)
    except ValueError as exc:  # the library refuses the input
        raise DslEvalError(str(exc), *expr.pos)
    return _intern(env, value) if isinstance(value, Ideal) else value


def _format_value(value, pos):
    try:
        if isinstance(value, (str, int, Fraction, ExtElement)):
            return [str(value)]
        if isinstance(value, Polynomial):
            return [render_poly(value)]
        if isinstance(value, Ideal):
            return [f"_[{k}]={render_poly(g)}" for k, g in enumerate(value.generators, 1)]
        if isinstance(value, MingensTable):
            return value.lines()
    except ValueError:  # Python's int-to-string digit limit
        raise DslEvalError("value too large to print", *pos)
    raise DslEvalError(f"cannot print a {type(value).__name__}", *pos)


# statement execution


def _exec(stmt, env):
    pos = stmt.pos
    if env.pending is not None and not isinstance(stmt, MinpolyDecl):
        raise DslEvalError("parametric ring declaration needs a minpoly next", *pos)
    if isinstance(stmt, RingDecl):
        _exec_ring(stmt, env)
    elif isinstance(stmt, MinpolyDecl):
        _exec_minpoly(stmt, env)
    elif isinstance(stmt, Decl):
        _exec_decl(stmt, env)
    elif isinstance(stmt, Assign):
        if stmt.name not in env.names:
            raise DslEvalError(f"unknown identifier {stmt.name!r}", *pos)
        value = _eval(stmt.expr, env)
        if isinstance(env.names[stmt.name], int):
            value = _as_int(value, pos, f"value for {stmt.name!r}")
        env.names[stmt.name] = value
    elif isinstance(stmt, ExprStmt):
        for e in stmt.exprs:
            value = _eval(e, env)
            if value is None:
                continue
            env.lines.extend(_format_value(value, e.pos))
    elif isinstance(stmt, ForLoop):
        _exec(stmt.init, env)
        for _ in range(_LOOP_LIMIT):
            cond = _eval(stmt.cond, env)
            if not _as_int(cond, stmt.pos, "loop condition"):
                break
            for s in stmt.body:
                _exec(s, env)
            _exec(stmt.step, env)
        else:
            raise DslEvalError("loop iteration limit exceeded", *pos)
    elif isinstance(stmt, Quit):
        raise _QuitSignal()
    else:
        raise DslEvalError(f"cannot execute {type(stmt).__name__}", *pos)


def _exec_ring(stmt, env):
    if env.ctx is not None or env.pending is not None:
        raise DslEvalError("only one ring declaration per script", *stmt.pos)
    if stmt.param is None:
        try:
            env.ctx = RingContext(stmt.variables, order=stmt.order, field=QQ)
        except ValueError as exc:
            raise DslEvalError(str(exc), *stmt.pos)
    else:
        if stmt.param in stmt.variables:
            raise DslEvalError("parameter name collides with a variable", *stmt.pos)
        env.pending = stmt


def _exec_minpoly(stmt, env):
    pos = stmt.pos
    ring = env.pending
    if ring is None:
        raise DslEvalError("minpoly outside a parametric ring declaration", *pos)
    param = ring.param
    scratch = Environment()
    scratch.ctx = RingContext((param,), order="lp", field=QQ)
    value = _eval(stmt.expr, scratch)
    if not isinstance(value, Polynomial) or value.total_degree() < 2:
        raise DslEvalError("minpoly must have degree at least 2", *pos)
    coeffs = [Fraction(0)] * (value.total_degree() + 1)
    for exps, c in value.terms:
        coeffs[exps[0]] = c
    lead = coeffs[-1]
    try:
        field = ExtField(param, [c / lead for c in coeffs])
        env.ctx = RingContext(ring.variables, order=ring.order, field=field)
    except ValueError as exc:
        raise DslEvalError(str(exc), *pos)
    env.names[param] = env.ctx.const(field.gen)
    env.pending = None


def _exec_decl(stmt, env):
    pos = stmt.pos
    if stmt.kind == "int":
        value = _eval(stmt.exprs[0], env) if stmt.exprs else 0
        env.names[stmt.name] = _as_int(value, pos, f"value for {stmt.name!r}")
    elif stmt.kind == "poly":
        value = _eval(stmt.exprs[0], env)
        env.names[stmt.name] = _as_poly(value, _require_ctx(env, pos), pos)
    elif stmt.kind == "ideal":
        ctx = _require_ctx(env, pos)
        gens, base = [], None
        for e in stmt.exprs:
            value = _eval(e, env)
            if isinstance(value, Ideal):
                if len(stmt.exprs) == 1:
                    # ideals are immutable: bind the value, its cached basis too
                    env.names[stmt.name] = value
                    return
                if e is stmt.exprs[0]:
                    base = value  # the declared ideal grows it
                gens.extend(value.generators)
            else:
                gens.append(_as_poly(value, ctx, e.pos))
        env.names[stmt.name] = _intern(env, Ideal(ctx, gens, base=base))
    else:  # list
        env.names[stmt.name] = _eval(stmt.exprs[0], env)


def evaluate(script):
    """Run a parsed script; returns the transcript (newline-terminated lines)."""
    env = Environment()
    try:
        for stmt in script.statements:
            _exec(stmt, env)
    except _QuitSignal:
        pass
    if not env.lines:
        return ""
    return "\n".join(env.lines) + "\n"


def run_source(source):
    """Parse and evaluate in one step."""
    return evaluate(parse(source))
