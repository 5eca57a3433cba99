"""Concrete syntax: parser and printer, round-trip stable.

Abbreviations (&, ->, <->, [a], tt, ff, nu) expand while parsing, so the
parser returns core syntax; vector fixpoints survive as `fix` nodes.  The
printer emits core constructors only and always re-parses to an
alpha-equal formula.  Propositions and actions are lowercase-first
identifiers, variables uppercase-first; `<a>` modalities must not contain
whitespace, which keeps them distinct from `<->`.

The lexer is one regular expression, `_TOKEN`, with one named group per
token kind (punct, dia, box, nat, ident); whitespace and `#` comments
match no group.  A token is a `(kind, text, start, end)` tuple.  Binary
connectives are parsed by precedence climbing over `_BINARY`:

    <->  binds 1, left      ->  binds 2, right
    |    binds 3, left      &   binds 4, left

The prefixes `!`, `<a>` and `[a]` bind tighter, and application tightest;
binders extend as far right as they can.  A run of prefixes is read in a
loop and printed in one, so it takes no frame per operator; each level of
parentheses takes three.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from .errors import ParseError
from .syntax import (
    App,
    Dia,
    Formula,
    Lam,
    Mu,
    MuVec,
    Neg,
    Or,
    Prop,
    Var,
    and_,
    box,
    ff,
    iff,
    implies,
    nu,
    tt,
)
from .types import PR, Arrow, HflType, Variance, format_type

RESERVED = {"mu", "nu", "fix", "tt", "ff", "true", "false", "Pr"}


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start after end")


# `[^\W\d]` also admits the Unicode numerics that are not letters (such
# as `½`); `tokenize` refuses a name that starts with one.
_TOKEN = re.compile(r"""
    [ \t\r\n]+ | \#[^\n]*
  | (?P<punct> <-> | -> | \^[-+0] | [()|&!.:;\\] )
  | < (?P<dia> [^\W\d]\w* ) >
  | \[ (?P<box> [^\W\d]\w* ) \]
  | (?P<nat> \d+ )
  | (?P<ident> [^\W\d]\w* )
""", re.VERBOSE)


def tokenize(text: str):
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(text):
        start, end = m.span()
        if start != pos:
            break
        kind = m.lastgroup
        if kind is not None:
            word = m.group(kind)
            if (kind != "punct" and kind != "nat" and not word[0].isalpha()
                    and word[0] != "_"):
                break
            tokens.append((kind, word, start, end))
        pos = end
    if pos < len(text):
        c = text[pos]
        span = SourceSpan(pos, pos + 1)
        if c == "<":
            raise ParseError("stray '<'", span, {"<action>", "<->"})
        if c == "[":
            raise ParseError("stray '['", span, {"[action]"})
        raise ParseError(f"unexpected character {c!r}", span)
    tokens.append(("eof", "", pos, pos))
    return tokens


def _span(token) -> SourceSpan:
    return SourceSpan(token[2], token[3])


def _found(token, expected) -> ParseError:
    return ParseError(f"found {token[1] or 'end of input'!r}", _span(token),
                      expected)


# Token text -> (binding power, right-associative, constructor).  Texts
# identify punctuation, because no name or number is spelled like one.
_BINARY = {
    "<->": (1, False, iff),
    "->": (2, True, implies),
    "|": (3, False, Or),
    "&": (4, False, and_),
}

_VARIANCE = {"^+": Variance.PLUS, "^-": Variance.MINUS, "^0": Variance.ZERO}


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str):
        t = self.next()
        if t[1] != text:
            raise _found(t, {text})

    def formula(self, power: int = 1) -> Formula:
        """Connectives binding at least `power`.  A run of one connective
        is read in a loop and then folded, so only a higher-binding
        operand takes a frame."""
        out = self.unary()
        while True:
            op = self.tokens[self.pos][1]
            row = _BINARY.get(op)
            if row is None or row[0] < power:
                return out
            op_power, right, build = row
            operands = [out]
            while self.tokens[self.pos][1] == op:
                self.pos += 1
                operands.append(self.formula(op_power + 1))
            if right:
                out = reduce(lambda acc, f: build(f, acc), reversed(operands))
            else:
                out = reduce(build, operands)

    def unary(self) -> Formula:
        """A run of `!`, `<a>` and `[a]`, then an application; the
        prefixes apply innermost first."""
        tokens = self.tokens
        prefixes = []
        while True:
            t = tokens[self.pos]
            if t[0] == "dia" or t[0] == "box":
                if not t[1][0].islower() and t[1][0] != "_":
                    raise ParseError("actions are lowercase-first", _span(t))
            elif t[1] != "!":
                break
            prefixes.append(t)
            self.pos += 1
        out = self.atom()
        while True:
            kind, text = tokens[self.pos][:2]
            if kind != "ident" and text != "(" and text != "\\":
                break
            out = App(out, self.atom())
        for kind, text, _, _ in reversed(prefixes):
            if kind == "dia":
                out = Dia(text, out)
            elif kind == "box":
                out = box(text, out)
            else:
                out = Neg(out)
        return out

    def atom(self) -> Formula:
        t = self.next()
        kind, text = t[:2]
        if text == "(":
            out = self.formula()
            self.expect(")")
            return out
        if text == "\\":
            var, ty = self.binder()
            variance = self.opt_variance()
            self.expect(".")
            return Lam(var, variance, ty, self.formula())
        if kind != "ident":
            raise _found(t, {"formula"})
        if text in ("mu", "nu"):
            var, ty = self.binder()
            self.expect(".")
            body = self.formula()
            return Mu(var, ty, body) if text == "mu" else nu(var, ty, body)
        if text == "fix":
            return self.vector_fixpoint()
        if text in ("tt", "true"):
            return tt()
        if text in ("ff", "false"):
            return ff()
        if text in RESERVED:
            raise ParseError(f"reserved word {text!r}", _span(t))
        return Var(text) if text[0].isupper() else Prop(text)

    def binder(self):
        """`(X:type)`, the head of a lambda or a fixpoint."""
        self.expect("(")
        var = self.var_name()
        self.expect(":")
        ty = self.type_()
        self.expect(")")
        return var, ty

    def vector_fixpoint(self) -> Formula:
        t = self.next()
        if t[0] != "nat":
            raise ParseError("fix needs a component index", _span(t), {"NAT"})
        self.expect("(")
        bindings = [self.binding()]
        while self.peek()[1] == ";":
            self.pos += 1
            bindings.append(self.binding())
        self.expect(")")
        try:
            return MuVec(int(t[1]), tuple(bindings))
        except ValueError as e:
            raise ParseError(str(e), _span(t)) from e

    def binding(self):
        var = self.var_name()
        self.expect(":")
        ty = self.type_()
        self.expect(".")
        body = self.formula()
        return (var, ty, body)

    def var_name(self) -> str:
        t = self.next()
        if t[0] != "ident" or not t[1][0].isupper():
            raise _found(t, {"variable"})
        if t[1] in RESERVED:
            raise ParseError(f"reserved word {t[1]!r}", _span(t))
        return t[1]

    def opt_variance(self) -> Variance:
        variance = _VARIANCE.get(self.peek()[1])
        if variance is None:
            return Variance.PLUS
        self.pos += 1
        return variance

    # type := tatom ( varc? "->" type )?
    def type_(self) -> HflType:
        left = self.tatom()
        if self.peek()[1] not in ("^+", "^-", "^0", "->"):
            return left
        variance = self.opt_variance()
        self.expect("->")
        return Arrow(left, variance, self.type_())

    def tatom(self) -> HflType:
        t = self.next()
        if t[0] == "ident" and t[1] == "Pr":
            return PR
        if t[1] == "(":
            ty = self.type_()
            self.expect(")")
            return ty
        raise _found(t, {"Pr", "("})


def _parse(text: str, rule):
    p = _Parser(text)
    out = rule(p)
    t = p.peek()
    if t[0] != "eof":
        raise ParseError(f"trailing input {t[1]!r}", _span(t))
    return out


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def parse_type(text: str) -> HflType:
    return _parse(text, _Parser.type_)


# ---------------------------------------------------------------------------
# Printing

_VARC = {v: k for k, v in _VARIANCE.items()}


# Types print the same everywhere; this is `types.format_type`.
print_type = format_type


_PREC_BINDER = 0
_PREC_OR = 1
_PREC_UNARY = 2
_PREC_APP = 3
_PREC_ATOM = 4


def print_formula(phi: Formula, full_parens: bool = False) -> str:
    def wrap(text, prec, minimum):
        if full_parens and prec < _PREC_ATOM:
            return f"({text})"
        return f"({text})" if prec < minimum else text

    def go(f: Formula, minimum: int) -> str:
        if isinstance(f, Prop):
            return f.name
        if isinstance(f, Var):
            return f.name
        if isinstance(f, Or):
            text = f"{go(f.left, _PREC_OR)} | {go(f.right, _PREC_OR + 1)}"
            return wrap(text, _PREC_OR, minimum)
        if isinstance(f, (Neg, Dia)):
            # A prefix run prints in a loop; only its outermost prefix
            # can need parentheses, unless every level gets them.
            prefixes = []
            while isinstance(f, (Neg, Dia)):
                prefixes.append("!" if isinstance(f, Neg) else f"<{f.action}> ")
                f = f.body
            text = go(f, _PREC_UNARY)
            for prefix in reversed(prefixes[1:]):
                text = wrap(prefix + text, _PREC_UNARY, _PREC_UNARY)
            return wrap(prefixes[0] + text, _PREC_UNARY, minimum)
        if isinstance(f, App):
            text = f"{go(f.func, _PREC_APP)} {go(f.arg, _PREC_ATOM)}"
            return wrap(text, _PREC_APP, minimum)
        if isinstance(f, Lam):
            text = (f"\\({f.var}:{print_type(f.ty)}){_VARC[f.variance]}. "
                    f"{go(f.body, _PREC_BINDER)}")
            return wrap(text, _PREC_BINDER, minimum)
        if isinstance(f, Mu):
            text = f"mu ({f.var}:{print_type(f.ty)}). {go(f.body, _PREC_BINDER)}"
            return wrap(text, _PREC_BINDER, minimum)
        if isinstance(f, MuVec):
            bindings = "; ".join(
                f"{v}:{print_type(t)}. {go(b, _PREC_BINDER)}"
                for v, t, b in f.bindings
            )
            text = f"fix {f.index} ({bindings})"
            return wrap(text, _PREC_ATOM, minimum)
        raise TypeError(f"not a formula: {f!r}")

    return go(phi, _PREC_BINDER)
