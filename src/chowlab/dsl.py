"""Interpreter for a small ideal-theory scripting language.

Scripts declare one polynomial ring, bind ints, polys and ideals, and call
a fixed set of builtins (jacob, std, intersect, dim, hilb, lres, betti,
diff, deg, homog, ncols, print).  Bare expression statements print their
values, so running a script yields a plain-text transcript, one line per
printed item, suitable for byte-for-byte comparison.

The surface syntax follows the classical computer-algebra convention:
`//` line comments, `;` terminators, and shorthand monomials where a
digit run glues to a variable run (`5w5` is 5*w^5, `x2y3z` is x^2*y^3*z).
Caret exponents are also accepted.  `parse` returns an AST whose nodes
compare equal modulo source positions, `render` prints an AST back to
canonical one-statement-per-line source, and parse(render(parse(s)))
== parse(s) on every supported script.
"""

import re
from fractions import Fraction

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

_TWO_CHAR_OPS = ("==", "!=", "<=", ">=")
_ONE_CHAR_OPS = set("(){}[],;=+-*/^<>")
# below Python's default limit (4300) on int-from-string conversion
_MAX_LITERAL_DIGITS = 4000


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # word | num | str | op | eof
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(source):
    """Token list for script text; whitespace and // comments are skipped."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == '"':
            end = source.find('"', i + 1)
            if end < 0 or "\n" in source[i + 1 : end]:
                raise DslSyntaxError("unterminated string literal", line, col)
            toks.append(Token("str", source[i + 1 : end], line, col))
            col += end + 1 - i
            i = end + 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            toks.append(Token("num" if text.isdigit() else "word", text, line, col))
            col += j - i
            i = j
            continue
        pair = source[i : i + 2]
        if pair in _TWO_CHAR_OPS:
            toks.append(Token("op", pair, line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR_OPS:
            toks.append(Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# AST


def _sig(value):
    if isinstance(value, Node):
        return value.signature()
    if isinstance(value, (list, tuple)):
        return tuple(_sig(v) for v in value)
    return value


class Node:
    """AST node; equality and hashing ignore source positions."""

    _fields = ()

    def __init__(self, *args, pos=(0, 0)):
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields")
        for name, value in zip(self._fields, args):
            setattr(self, name, value)
        self.pos = pos

    def signature(self):
        return (type(self).__name__,) + tuple(
            _sig(getattr(self, f)) for f in self._fields
        )

    def __eq__(self, other):
        return isinstance(other, Node) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

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
        exprs = [self.expression()]
        while self.at_op(","):
            self.advance()
            exprs.append(self.expression())
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
        variables = [self.expect_word("a variable name").text]
        while self.at_op(","):
            self.advance()
            variables.append(self.expect_word("a variable name").text)
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
            exprs.append(self.expression())
            while self.at_op(","):
                self.advance()
                exprs.append(self.expression())
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
        node = self.multiplicative()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            tok = self.advance()
            node = BinOp(tok.text, node, self.multiplicative(), pos=(tok.line, tok.col))
        return node

    def multiplicative(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in ("*", "/"):
            tok = self.advance()
            node = BinOp(tok.text, node, self.unary(), pos=(tok.line, tok.col))
        return node

    def unary(self):
        if self.at_op("-"):
            tok = self.advance()
            return Neg(self.unary(), pos=(tok.line, tok.col))
        if self.at_op("+"):
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.postfix()
        if self.at_op("^"):
            tok = self.advance()
            return BinOp("^", base, self.unary(), pos=(tok.line, tok.col))
        return base

    def postfix(self):
        node = self.primary()
        while self.at_op("["):
            tok = self.advance()
            index = self.expression()
            self.expect_op("]")
            node = Index(node, index, pos=(tok.line, tok.col))
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
                self.advance()
                args = []
                if not self.at_op(")"):
                    args.append(self.expression())
                    while self.at_op(","):
                        self.advance()
                        args.append(self.expression())
                self.expect_op(")")
                return Call(tok.text, args, pos=(tok.line, tok.col))
            return Name(tok.text, pos=(tok.line, tok.col))
        if self.at_op("("):
            self.advance()
            node = self.expression()
            self.expect_op(")")
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
# renderer

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


# ---------------------------------------------------------------------------
# evaluator


class MingensTable:
    """Degree table of minimal ideal generators; stands in for a resolution."""

    def __init__(self, ideal, rows):
        self.ideal = ideal
        self.rows = rows  # [(degree, count, representatives)]

    def ncols(self):
        return len(self.ideal.generators)

    def lines(self):
        out = ["//  degree  count"]
        total = 0
        for degree, count, _ in self.rows:
            if count:
                out.append(f"// {degree:7d} {count:6d}")
                total += count
        out.append(f"// total: {total}")
        return out


class Environment:
    """Single mutable scope: the active ring plus named bindings."""

    def __init__(self):
        self.ctx = None
        self.names = {}
        self.pending_param = None
        self.pending_ring = None
        self.lines = []

    def emit(self, text):
        self.lines.append(text)


class _QuitSignal(Exception):
    pass


_LOOP_LIMIT = 100000
# largest integer or rational power the interpreter builds, in bits
_POWER_BITS_LIMIT = 1 << 20

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


def _compare(op, left, right, pos):
    if op in ("==", "!="):
        equal = left == right
        return int(equal) if op == "==" else int(not equal)
    for v in (left, right):
        if not isinstance(v, (int, Fraction)):
            raise DslEvalError(f"ordered comparison needs numbers, not {type(v).__name__}", *pos)
    table = {"<": left < right, "<=": left <= right, ">": left > right, ">=": left >= right}
    return int(table[op])


def _power(base, exponent, pos):
    e = _as_int(exponent, pos, "exponent")
    try:
        if isinstance(base, Polynomial):
            if e < 0:
                raise DslEvalError("negative exponent on a polynomial", *pos)
            return base ** e
        if isinstance(base, (int, Fraction)):
            q = Fraction(base)
            bits = max(q.numerator.bit_length(), q.denominator.bit_length())
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


def _binop(expr, env):
    op, pos = expr.op, expr.pos
    left = _eval(expr.left, env)
    right = _eval(expr.right, env)
    if op in _CMP_OPS:
        return _compare(op, left, right, pos)
    if op == "^":
        return _power(left, right, pos)
    if isinstance(left, str) or isinstance(right, str):
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        raise DslEvalError("strings only support +", *pos)
    if isinstance(left, Polynomial) or isinstance(right, Polynomial):
        ctx = left.ctx if isinstance(left, Polynomial) else right.ctx
        a = _as_poly(left, ctx, pos)
        b = _as_poly(right, ctx, pos)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if b.total_degree() > 0:
            raise DslEvalError("polynomial division is not supported", *pos)
        scalar = b.coeff_of((0,) * ctx.nvars)
        if scalar == 0:
            raise DslEvalError("division by zero", *pos)
        return a * scalar ** (-1)
    if isinstance(left, (int, Fraction, ExtElement)) and isinstance(
        right, (int, Fraction, ExtElement)
    ):
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        try:
            if isinstance(left, int) and isinstance(right, int):
                return Fraction(left, right)
            if isinstance(right, ExtElement):
                return left * right ** (-1)
            return left / right
        except ZeroDivisionError:
            raise DslEvalError("division by zero", *pos)
    raise DslEvalError(f"unsupported operands for {op!r}", *pos)


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


# builtins


def _need(args, count, name, pos):
    if len(args) != count:
        raise DslEvalError(f"{name} expects {count} argument(s), got {len(args)}", *pos)


def _bi_jacob(env, args, pos):
    _need(args, 1, "jacob", pos)
    f = _as_poly(args[0], _require_ctx(env, pos), pos)
    try:
        return jacob(f, "full")
    except ValueError as exc:
        raise DslEvalError(str(exc), *pos)


def _bi_std(env, args, pos):
    _need(args, 1, "std", pos)
    ideal = _as_ideal(args[0], pos, "std argument")
    gb = ideal.groebner_basis()
    out = Ideal(ideal.context, list(gb))
    out._set_gb(gb)
    return out


def _bi_intersect(env, args, pos):
    _need(args, 2, "intersect", pos)
    a = _as_ideal(args[0], pos, "intersect argument")
    b = _as_ideal(args[1], pos, "intersect argument")
    return intersect(a, b)


def _bi_dim(env, args, pos):
    _need(args, 1, "dim", pos)
    return krull_dim(_as_ideal(args[0], pos, "dim argument"))


def _bi_hilb(env, args, pos):
    _need(args, 2, "hilb", pos)
    ideal = _as_ideal(args[0], pos, "hilb argument")
    if args[1] != 2:
        raise DslEvalError("only hilb(I,2) is supported", *pos)
    try:
        rows, truncated = hilbert_table(ideal)
    except ValueError as exc:
        raise DslEvalError(str(exc), *pos)
    for degree, value in rows:
        env.emit(f"// {value:8d} t^{degree}")
    if truncated:
        env.emit("// ** table truncated; quotient is not finite dimensional")
    return None


def _bi_diff(env, args, pos):
    _need(args, 2, "diff", pos)
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
    _need(args, 1, "deg", pos)
    value = args[0]
    if isinstance(value, Polynomial):
        return value.total_degree()
    if isinstance(value, (int, Fraction, ExtElement)):
        return 0 if value != 0 else -1
    raise DslEvalError("deg expects a polynomial", *pos)


def _bi_homog(env, args, pos):
    _need(args, 1, "homog", pos)
    value = _as_poly(args[0], _require_ctx(env, pos), pos)
    return 1 if is_homogeneous(value) is not None else 0


def _bi_ncols(env, args, pos):
    _need(args, 1, "ncols", pos)
    value = args[0]
    if isinstance(value, Ideal):
        return len(value.generators)
    if isinstance(value, MingensTable):
        return value.ncols()
    raise DslEvalError("ncols expects an ideal or a resolution table", *pos)


def _bi_lres(env, args, pos):
    _need(args, 2, "lres", pos)
    ideal = _as_ideal(args[0], pos, "lres argument")
    if args[1] != 0:
        raise DslEvalError("only lres(I,0) is supported", *pos)
    env.emit("// ** higher syzygies unsupported; reporting minimal generator degrees")
    up_to = max((g.total_degree() for g in ideal.generators), default=0)
    try:
        rows = mingens_degrees(ideal, up_to)
    except ValueError as exc:
        raise DslEvalError(str(exc), *pos)
    return MingensTable(ideal, rows)


def _bi_betti(env, args, pos):
    _need(args, 1, "betti", pos)
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
    for line in _format_value(args[0], pos):
        env.emit(line)
    return None


_BUILTINS = {
    "jacob": _bi_jacob,
    "std": _bi_std,
    "intersect": _bi_intersect,
    "dim": _bi_dim,
    "hilb": _bi_hilb,
    "diff": _bi_diff,
    "deg": _bi_deg,
    "homog": _bi_homog,
    "ncols": _bi_ncols,
    "lres": _bi_lres,
    "betti": _bi_betti,
    "print": _bi_print,
}


def _call(expr, env):
    handler = _BUILTINS.get(expr.func)
    if handler is None:
        raise DslEvalError(f"unsupported builtin {expr.func!r}", *expr.pos)
    args = [_eval(a, env) for a in expr.args]
    return handler(env, args, expr.pos)


def _format_value(value, pos):
    try:
        return _value_lines(value, pos)
    except ValueError:  # Python's int-to-string digit limit
        raise DslEvalError("value too large to print", *pos)


def _value_lines(value, pos):
    if isinstance(value, str):
        return [value]
    if isinstance(value, int):
        return [str(value)]
    if isinstance(value, (Fraction, ExtElement)):
        return [str(value)]
    if isinstance(value, Polynomial):
        return [render_poly(value)]
    if isinstance(value, Ideal):
        return [f"_[{k}]={render_poly(g)}" for k, g in enumerate(value.generators, 1)]
    if isinstance(value, MingensTable):
        return value.lines()
    raise DslEvalError(f"cannot print a {type(value).__name__}", *pos)


# statement execution


def _exec(stmt, env):
    pos = stmt.pos
    if env.pending_param is not None and not isinstance(stmt, MinpolyDecl):
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
            for line in _format_value(value, e.pos):
                env.emit(line)
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
    if env.ctx is not None or env.pending_ring is not None:
        raise DslEvalError("only one ring declaration per script", *stmt.pos)
    if stmt.param is None:
        try:
            env.ctx = RingContext(stmt.variables, order=stmt.order, field=QQ)
        except ValueError as exc:
            raise DslEvalError(str(exc), *stmt.pos)
    else:
        if stmt.param in stmt.variables:
            raise DslEvalError("parameter name collides with a variable", *stmt.pos)
        env.pending_param = stmt.param
        env.pending_ring = (stmt.variables, stmt.order)


def _exec_minpoly(stmt, env):
    pos = stmt.pos
    if env.pending_param is None:
        raise DslEvalError("minpoly outside a parametric ring declaration", *pos)
    param = env.pending_param
    variables, order = env.pending_ring
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
        env.ctx = RingContext(variables, order=order, field=field)
    except ValueError as exc:
        raise DslEvalError(str(exc), *pos)
    env.names[param] = env.ctx.const(field.gen)
    env.pending_param = None
    env.pending_ring = None


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
        gens = []
        for e in stmt.exprs:
            value = _eval(e, env)
            if isinstance(value, Ideal):
                gens.extend(value.generators)
            else:
                gens.append(_as_poly(value, ctx, e.pos))
        env.names[stmt.name] = Ideal(ctx, gens)
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
