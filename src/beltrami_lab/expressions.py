"""Expression trees for coefficient formulas.

Grammar (ASCII, standard precedence ^ > unary - > * / > + -):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right associative
    atom    := NUMBER | 'i' | VAR | FUNC '(' expr ')' | '(' expr ')'

Functions: exp, conj, abs, re, im, arg, sqrt, log (all unary).
Literals: decimal reals that a float holds (1e999 is refused) and the
imaginary unit token ``i``.
Variables: declared per parse; the coefficient set is {z, w, r, theta}
with r = |z| and theta = arg z in [0, 2pi).

Depth: the depth of an expression is the most levels on a path from
the whole down to one number or variable, counting that operand; each
binary operator, unary minus, function call and parenthesised group is
a level. So `z` has depth 1, `(z)` and `z+z` depth 2, and a chain
`z+z+...+z` of n terms depth n. An expression deeper than MAX_DEPTH =
100 is refused with ParseError at the offset of the token that crosses
the limit, so every accepted tree can be evaluated, printed and walked
by recursion.

Evaluation is numpy-vectorised over complex arrays with IEEE semantics:
a division by zero or an overflow gives inf or nan, which propagates and
never raises. The majorant evaluators rely on this for extended-real
values, and the coefficient samplers mask or truncate such samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnknownIdentifier

COEFFICIENT_VARIABLES = frozenset({"z", "w", "r", "theta"})
MAJORANT_VARIABLES = frozenset({"z", "r", "theta"})
RADIAL_VARIABLES = frozenset({"t"})

FUNCTIONS = ("exp", "conj", "abs", "re", "im", "arg", "sqrt", "log")
MAX_DEPTH = 100  # deepest accepted expression; see the module docstring


@dataclass(frozen=True)
class Num:
    value: complex


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Func:
    name: str
    arg: object


ZERO = Num(0.0 + 0.0j)


# ---------------------------------------------------------------------------
# tokenizer

_SINGLE = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(text):
    """Yield (kind, value, offset) triples; kind in {num, name, op, end}."""
    toks = []
    k = 0
    while k < len(text):
        c = text[k]
        if c.isspace():
            k += 1
            continue
        if c in _SINGLE:
            toks.append(("op", c, k))
            k += 1
            continue
        if c.isdigit() or (c == "." and k + 1 < len(text) and text[k + 1].isdigit()):
            start = k
            seen_dot = False
            while k < len(text) and (text[k].isdigit() or (text[k] == "." and not seen_dot)):
                seen_dot = seen_dot or text[k] == "."
                k += 1
            if k < len(text) and text[k] in "eE":
                j = k + 1
                if j < len(text) and text[j] in "+-":
                    j += 1
                if j < len(text) and text[j].isdigit():
                    k = j
                    while k < len(text) and text[k].isdigit():
                        k += 1
            toks.append(("num", text[start:k], start))
            continue
        if c.isalpha() or c == "_":
            start = k
            while k < len(text) and (text[k].isalnum() or text[k] == "_"):
                k += 1
            toks.append(("name", text[start:k], start))
            continue
        raise ParseError(f"unexpected character {c!r}", k, expected=("number", "name", "operator"))
    toks.append(("end", "", len(text)))
    return toks


# ---------------------------------------------------------------------------
# recursive-descent parser


class _Parser:
    """Recursive descent; each parse_* method returns (tree, height).

    The height counts a parenthesised group as a level. `level` counts the
    groups, calls, unary minuses and exponents open above the current token,
    so level + height is the depth of what was just parsed.
    """

    def __init__(self, tokens, variables):
        self.toks = tokens
        self.pos = 0
        self.variables = frozenset(variables)
        self.level = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            return self.take()
        raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", off, expected=(op,))

    def check_depth(self, height, off):
        if self.level + height > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", off)

    def nested(self, parse, off):
        """Parse one level down, refusing to descend past MAX_DEPTH."""
        self.level += 1
        self.check_depth(1, off)
        node, height = parse()
        self.level -= 1
        return node, height + 1

    def parse_expr(self):
        node, height = self.parse_term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                right, h = self.parse_term()
                node, height = BinOp(val, node, right), 1 + max(height, h)
                self.check_depth(height, off)
            else:
                return node, height

    def parse_term(self):
        node, height = self.parse_factor()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                right, h = self.parse_factor()
                node, height = BinOp(val, node, right), 1 + max(height, h)
                self.check_depth(height, off)
            else:
                return node, height

    def parse_factor(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.take()
            arg, height = self.nested(self.parse_factor, off)
            return Neg(arg), height
        return self.parse_power()

    def parse_power(self):
        node, height = self.parse_atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.take()
            exponent, h = self.nested(self.parse_factor, off)
            node, height = BinOp("^", node, exponent), max(height + 1, h)
            self.check_depth(height, off)
        return node, height

    def parse_atom(self):
        kind, val, off = self.take()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):  # 1e999: its printed form, inf, would not parse back
                raise ParseError(f"number {val!r} overflows a float", off)
            return Num(complex(value)), 1
        if kind == "name":
            if val == "i":
                return Num(1j), 1
            if val in FUNCTIONS:
                self.expect_op("(")
                arg, height = self.nested(self.parse_expr, off)
                self.expect_op(")")
                return Func(val, arg), height
            if val in self.variables:
                return Var(val), 1
            raise UnknownIdentifier(val, off, allowed=tuple(sorted(self.variables)) + FUNCTIONS)
        if kind == "op" and val == "(":
            node, height = self.nested(self.parse_expr, off)
            self.expect_op(")")
            return node, height
        raise ParseError(
            f"expected an operand, found {val or 'end of input'!r}",
            off,
            expected=("number", "name", "(", "unary -"),
        )


def parse_expression(text, variables=COEFFICIENT_VARIABLES):
    """Parse ``text`` into an expression tree over the given variable names."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0, expected=("number", "name", "("))
    parser = _Parser(_tokenize(text), variables)
    node, _ = parser.parse_expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", off, expected=("end of input",))
    return node


def free_variables(node) -> frozenset:
    """Names of the variables a tree reads."""
    if isinstance(node, Var):
        return frozenset({node.name})
    if isinstance(node, (Neg, Func)):
        return free_variables(node.arg)
    if isinstance(node, BinOp):
        return free_variables(node.left) | free_variables(node.right)
    return frozenset()  # a Num


# ---------------------------------------------------------------------------
# printer

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node):
    if isinstance(node, BinOp):
        return _PRECEDENCE[node.op]
    if isinstance(node, Neg):
        return _PRECEDENCE["neg"]
    return 5


def _fmt_num(v: complex) -> str:
    # negative and complex literals print in a parenthesised, reparseable form
    if v == 1j:
        return "i"
    if v.imag == 0.0:
        re = v.real
        return f"{re:.17g}" if re >= 0 else f"(0-{-re:.17g})"
    re, im = v.real, v.imag
    res = f"{re:.17g}" if re >= 0 else f"0-{-re:.17g}"
    ims = f"+{im:.17g}*i" if im >= 0 else f"-{-im:.17g}*i"
    return f"({res}{ims})"


def format_expression(node) -> str:
    """Render a tree back to parseable text; parse(format(t)) evaluates like t.

    A tree the parser made comes back as the same tree, with no group the
    parsed text did not have, so it is no deeper than that text.
    """
    if isinstance(node, Num):
        return _fmt_num(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Func):
        return f"{node.name}({format_expression(node.arg)})"
    if isinstance(node, Neg):
        inner = format_expression(node.arg)
        if _prec(node.arg) < _PRECEDENCE["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        lhs = format_expression(node.left)
        rhs = format_expression(node.right)
        p = _PRECEDENCE[node.op]
        # left operand needs parens below own precedence, and ^'s base at it too;
        # the right operand also at equal precedence, so the chains keep their
        # grouping, except the exponent: a factor, which may be -x or x^y
        if _prec(node.left) < p or (node.op == "^" and _prec(node.left) <= p):
            lhs = f"({lhs})"
        if _prec(node.right) < (_PRECEDENCE["neg"] if node.op == "^" else p + 1):
            rhs = f"({rhs})"
        return f"{lhs}{node.op}{rhs}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation

_FUNC_IMPL = {
    "exp": np.exp,
    "conj": np.conj,
    "abs": lambda x: np.asarray(np.abs(x), dtype=complex),
    "re": lambda x: np.asarray(np.real(x), dtype=complex),
    "im": lambda x: np.asarray(np.imag(x), dtype=complex),
    "arg": lambda x: np.asarray(np.mod(np.angle(x), 2.0 * np.pi), dtype=complex),
    "sqrt": np.sqrt,
    "log": np.log,
}


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.arg, env)
    if isinstance(node, Func):
        return _FUNC_IMPL[node.name](_eval(node.arg, env))
    if isinstance(node, BinOp):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            # numpy semantics even for scalar operands: inf/nan, not ZeroDivisionError
            return np.asarray(a, dtype=complex) / np.asarray(b, dtype=complex)
        if node.op == "^":
            return np.asarray(a, dtype=complex) ** np.asarray(b, dtype=complex)
    raise TypeError(f"not an expression node: {node!r}")


def standard_env(z, w=None):
    """Environment binding z, w and the derived r = |z|, theta = arg z."""
    z = np.asarray(z, dtype=complex)
    env = {
        "z": z,
        "r": np.abs(z).astype(complex),
        "theta": np.mod(np.angle(z), 2.0 * np.pi).astype(complex),
    }
    if w is not None:
        env["w"] = np.asarray(w, dtype=complex)
    return env


def evaluate(node, env):
    """Evaluate a tree over an environment of complex scalars or arrays.

    IEEE inf/nan propagate (extended-real semantics); nothing raises.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _eval(node, env)
    return np.asarray(out, dtype=complex)
