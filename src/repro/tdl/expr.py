"""The Tcl expression evaluator.

``expr`` (and the conditions of ``if``/``while``/``for``) evaluate C-like
expressions.  Operands are integers, floats, ``"strings"`` (substituted),
bare words, parenthesised sub-expressions, ``$variables`` and ``[command]``
substitutions.

An expression text is compiled once into a tree of closures; variables and
commands are its leaves and are substituted when the tree is evaluated, as
in Tcl.  So ``expr {$a + $b}`` reads ``a`` and ``b`` on every evaluation,
and a variable's value is always one operand: with ``x`` set to ``1 + 2``,
``expr {$x * 2}`` is an error, not ``7``.  ``&&`` and ``||`` evaluate their
right operand only when it decides the result.  Sub-trees without leaves
are folded to constants at compile time.

Precedence (high to low): unary ``- + ! ~``; ``* / %``; ``+ -``; ``<< >>``;
``< <= > >=``; ``== !=``; ``&``; ``^``; ``|``; ``&&``; ``||``.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.errors import TdlError
from repro.tdl.tokenizer import QUOTED, compile_word, skip_bracket

Number = int | float

#: A compiled expression: called with the interpreter, returns the value.
Compiled = Callable[[object], "Number | str"]

_INT_TEXT = re.compile(r"\s*[+-]?[0-9]+\s*\Z")
_FLOAT_TEXT = re.compile(
    r"\s*[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\s*\Z")


class _Const:
    """A compile-time value (a leaf or a folded sub-tree)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _operand(text: str) -> Number | str:
    """A substituted value as one operand: a number if it reads as one."""
    if _INT_TEXT.match(text):
        return int(text)
    if _FLOAT_TEXT.match(text):
        return float(text)
    return text


# ---------------------------------------------------------------- leaves


def _variable(name: str) -> Compiled:
    return lambda interp: _operand(interp.get_var(name))


def _command(script: str) -> Compiled:
    return lambda interp: _operand(interp.eval(script))


def _quoted(text: str):
    word = compile_word(QUOTED, text)
    if word.__class__ is str:
        return _Const(word)
    return lambda interp: interp.expand_word(word)


#: One token after optional white space.  ``other`` is a character the
#: scanner in :func:`_tokenize` handles itself (or rejects).
_TOKEN = re.compile(r"""[ \t\n\r]*(?:
    (?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<op><<|>>|<=|>=|==|!=|&&|\|\||[-+*/%()<>!~&^|])
  | (?P<word>[^\W\d][\w.]*)
  | \$(?:\{(?P<braced>[^}]*)\}|(?P<name>[\w.]+))
  | (?P<other>.)
)""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str) -> list:
    """Operators as strings, operands as leaves (constants or closures)."""
    tokens: list = []
    pos = 0
    n = len(text)
    while True:
        match = _TOKEN.match(text, pos)
        if match is None:       # only white space is left
            return tokens
        pos = match.end()
        kind = match.lastgroup
        if kind == "op":
            tokens.append(match.group("op"))
        elif kind == "number":
            tokens.append(_Const(_operand(match.group("number"))))
        elif kind == "word":
            tokens.append(_Const(match.group("word")))  # a string operand
        elif kind in ("braced", "name"):
            tokens.append(_variable(match.group(kind)))
        else:
            ch = match.group("other")
            start = pos - 1
            if ch == "[":
                pos = skip_bracket(text, start)
                tokens.append(_command(text[start + 1:pos - 1]))
            elif ch == '"':
                while pos < n and text[pos] != '"':
                    if text[pos] == "\\":
                        pos += 2
                    elif text[pos] == "[":
                        pos = skip_bracket(text, pos)
                    else:
                        pos += 1
                if pos >= n:
                    raise TdlError(
                        f"unterminated string in expression {text!r}")
                tokens.append(_quoted(text[start + 1:pos]))
                pos += 1
            else:
                raise TdlError(
                    f"bad character {ch!r} in expression {text!r}")


# ------------------------------------------------------------- operators


def _as_number(value) -> Number:
    if isinstance(value, (int, float)):
        return value
    try:
        return int(value)
    except (TypeError, ValueError):
        try:
            return float(value)
        except (TypeError, ValueError):
            raise TdlError(f"expected number, got {value!r}") from None


def _as_int(value) -> int:
    num = _as_number(value)
    if isinstance(num, float):
        if num != int(num):
            raise TdlError(f"expected integer, got {num!r}")
        return int(num)
    return num


def _truth(value) -> bool:
    if isinstance(value, str):
        try:
            return _as_number(value) != 0
        except TdlError:
            return bool(value)
    return value != 0


def _equal(left, right) -> bool:
    if isinstance(left, str) or isinstance(right, str):
        try:
            return _as_number(left) == _as_number(right)
        except TdlError:
            return str(left) == str(right)
    return left == right


def _divide(left, right):
    ln, rn = _as_number(left), _as_number(right)
    if rn == 0:
        raise TdlError("division by zero")
    if isinstance(ln, int) and isinstance(rn, int):
        return ln // rn
    return ln / rn


_BINARY: dict[str, Callable] = {
    "==": lambda a, b: int(_equal(a, b)),
    "!=": lambda a, b: int(not _equal(a, b)),
    "+": lambda a, b: _as_number(a) + _as_number(b),
    "-": lambda a, b: _as_number(a) - _as_number(b),
    "*": lambda a, b: _as_number(a) * _as_number(b),
    "/": _divide,
    "%": lambda a, b: _as_int(a) % _as_int(b),
    "<": lambda a, b: int(_as_number(a) < _as_number(b)),
    "<=": lambda a, b: int(_as_number(a) <= _as_number(b)),
    ">": lambda a, b: int(_as_number(a) > _as_number(b)),
    ">=": lambda a, b: int(_as_number(a) >= _as_number(b)),
    "<<": lambda a, b: _as_int(a) << _as_int(b),
    ">>": lambda a, b: _as_int(a) >> _as_int(b),
    "&": lambda a, b: _as_int(a) & _as_int(b),
    "^": lambda a, b: _as_int(a) ^ _as_int(b),
    "|": lambda a, b: _as_int(a) | _as_int(b),
}

_UNARY: dict[str, Callable] = {
    "-": lambda v: -_as_number(v),
    "+": _as_number,
    "!": lambda v: 0 if _truth(v) else 1,
    "~": lambda v: ~_as_int(v),
}


def _closure(node) -> Compiled:
    if node.__class__ is _Const:
        value = node.value
        return lambda interp: value
    return node


def _apply(fn: Callable, left, right=None):
    """``fn`` over one node's value, or two: folded now if the nodes are
    constant and ``fn`` succeeds, else a closure (so an error such as a
    division by zero is raised when, and only if, the node is evaluated)."""
    unary = right is None
    if left.__class__ is _Const and (unary or right.__class__ is _Const):
        try:
            if unary:
                return _Const(fn(left.value))
            return _Const(fn(left.value, right.value))
        except TdlError:
            pass
    lf = _closure(left)
    if unary:
        return lambda interp: fn(lf(interp))
    rf = _closure(right)
    return lambda interp: fn(lf(interp), rf(interp))


_LOGIC: dict[str, Callable] = {
    "&&": lambda a, b: int(_truth(a) and _truth(b)),
    "||": lambda a, b: int(_truth(a) or _truth(b)),
}


def _logical(op: str, left, right):
    """``&&``/``||``: the right operand is evaluated only if it decides."""
    if left.__class__ is _Const and right.__class__ is _Const:
        return _apply(_LOGIC[op], left, right)
    lf, rf = _closure(left), _closure(right)
    if op == "&&":
        return lambda interp: int(_truth(lf(interp)) and _truth(rf(interp)))
    return lambda interp: int(_truth(lf(interp)) or _truth(rf(interp)))


#: Binding strength of each binary operator (higher binds tighter).
_PRECEDENCE = {
    op: level
    for level, ops in enumerate([
        ("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
        ("<", "<=", ">", ">="), ("<<", ">>"), ("+", "-"), ("*", "/", "%"),
    ])
    for op in ops
}


class _Parser:
    """Precedence climbing; every binary operator is left-associative."""

    def __init__(self, tokens: list, text: str):
        self.tokens = tokens + [None]   # None marks the end
        self.text = text
        self.pos = 0

    def parse(self):
        node = self._binary(0)
        if self.tokens[self.pos] is not None:
            raise TdlError(f"trailing tokens in expression {self.text!r}")
        return node

    def _binary(self, min_level: int):
        left = self._operand()
        tokens = self.tokens
        while True:
            op = tokens[self.pos]
            level = _PRECEDENCE.get(op) if op.__class__ is str else None
            if level is None or level < min_level:
                return left
            self.pos += 1
            right = self._binary(level + 1)
            if op in _LOGIC:
                left = _logical(op, left, right)
            else:
                left = _apply(_BINARY[op], left, right)

    def _operand(self):
        tok = self.tokens[self.pos]
        if tok is None:
            raise TdlError("unexpected end of expression")
        self.pos += 1
        if tok.__class__ is not str:
            return tok
        if tok in _UNARY:
            return _apply(_UNARY[tok], self._operand())
        if tok == "(":
            node = self._binary(0)
            if self.tokens[self.pos] != ")":
                raise TdlError("missing ')' in expression")
            self.pos += 1
            return node
        raise TdlError(f"bad operand {tok!r}")


def compile_expr(text: str) -> Compiled:
    """Compile an expression text; substitution happens at evaluation."""
    tokens = _tokenize(text)
    if not tokens:
        raise TdlError("empty expression")
    return _closure(_Parser(tokens, text).parse())


class _NoInterp:
    """Stands in for the interpreter when an expression is evaluated alone."""

    def _refuse(self, *_):
        raise TdlError("substitution in an expression needs an interpreter")

    get_var = eval = expand_word = _refuse


_NO_INTERP = _NoInterp()


def evaluate(expression: str | Compiled, interp=None) -> Number | str:
    """Evaluate an expression text, or a form made by :func:`compile_expr`,
    substituting its ``$var`` and ``[command]`` leaves through ``interp``."""
    if isinstance(expression, str):
        expression = compile_expr(expression)
    return expression(_NO_INTERP if interp is None else interp)


def format_result(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(value)  # Tcl prints 4.0 as 4.0
        return repr(value)
    return str(value)


def truthy(value) -> bool:
    """Public truth test used by if/while/for conditions."""
    return _truth(value)
