"""Concrete syntax: parser and printer, round-trip stable.

Abbreviations (&, ->, <->, [a], tt, ff, nu) expand while parsing, so the
parser returns core syntax; vector fixpoints survive as `fix` nodes.  The
printer emits core constructors only and always re-parses to an
alpha-equal formula.  Propositions and actions are lowercase-first
identifiers, variables uppercase-first; `<a>` modalities must not contain
whitespace, which keeps them distinct from `<->`.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    kind: str  # ident, nat, dia, box, punct, eof
    text: str
    span: SourceSpan


_PUNCT = ("<->", "->", "^+", "^-", "^0", "(", ")", "|", "&", "!", ".", ":",
          ";", "\\")


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = i
        if c == "<":
            if text.startswith("<->", i):
                tokens.append(Token("punct", "<->", SourceSpan(i, i + 3)))
                i += 3
                continue
            j = i + 1
            if j < n and _is_ident_start(text[j]):
                while j < n and _is_ident_char(text[j]):
                    j += 1
                if j < n and text[j] == ">":
                    tokens.append(
                        Token("dia", text[i + 1:j], SourceSpan(i, j + 1))
                    )
                    i = j + 1
                    continue
            raise ParseError("stray '<'", SourceSpan(i, i + 1),
                             {"<action>", "<->"})
        if c == "[":
            j = i + 1
            if j < n and _is_ident_start(text[j]):
                while j < n and _is_ident_char(text[j]):
                    j += 1
                if j < n and text[j] == "]":
                    tokens.append(
                        Token("box", text[i + 1:j], SourceSpan(i, j + 1))
                    )
                    i = j + 1
                    continue
            raise ParseError("stray '['", SourceSpan(i, i + 1), {"[action]"})
        matched = False
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, SourceSpan(i, i + len(p))))
                i += len(p)
                matched = True
                break
        if matched:
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("nat", text[i:j], SourceSpan(i, j)))
            i = j
            continue
        if _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            tokens.append(Token("ident", text[i:j], SourceSpan(i, j)))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", SourceSpan(i, i + 1))
    tokens.append(Token("eof", "", SourceSpan(n, n)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.kind == "punct" and t.text == text:
            return self.next()
        if t.kind == "ident" and t.text == text:
            return self.next()
        raise ParseError(f"found {t.text or 'end of input'!r}", t.span, {text})

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    # formula := iff
    def formula(self) -> Formula:
        return self.iff_level()

    def iff_level(self) -> Formula:
        out = self.impl_level()
        while self.at_punct("<->"):
            self.next()
            out = iff(out, self.impl_level())
        return out

    def impl_level(self) -> Formula:
        parts = [self.or_level()]
        while self.at_punct("->"):
            self.next()
            parts.append(self.or_level())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = implies(p, out)
        return out

    def or_level(self) -> Formula:
        out = self.and_level()
        while self.at_punct("|"):
            self.next()
            out = Or(out, self.and_level())
        return out

    def and_level(self) -> Formula:
        out = self.unary()
        while self.at_punct("&"):
            self.next()
            out = and_(out, self.unary())
        return out

    def unary(self) -> Formula:
        t = self.peek()
        if t.kind == "punct" and t.text == "!":
            self.next()
            return Neg(self.unary())
        if t.kind == "dia":
            self.next()
            self._check_action(t)
            return Dia(t.text, self.unary())
        if t.kind == "box":
            self.next()
            self._check_action(t)
            return box(t.text, self.unary())
        return self.app()

    def app(self) -> Formula:
        out = self.atom()
        while self._at_atom_start():
            out = App(out, self.atom())
        return out

    def _at_atom_start(self) -> bool:
        t = self.peek()
        if t.kind == "ident":
            return True
        return t.kind == "punct" and t.text in ("(", "\\")

    def atom(self) -> Formula:
        t = self.peek()
        if t.kind == "punct" and t.text == "(":
            self.next()
            out = self.formula()
            self.expect(")")
            return out
        if t.kind == "punct" and t.text == "\\":
            return self.lam()
        if t.kind == "ident":
            if t.text in ("mu", "nu"):
                return self.fixpoint()
            if t.text == "fix":
                return self.vector_fixpoint()
            if t.text in ("tt", "true"):
                self.next()
                return tt()
            if t.text in ("ff", "false"):
                self.next()
                return ff()
            if t.text in RESERVED:
                raise ParseError(f"reserved word {t.text!r}", t.span)
            self.next()
            if t.text[0].isupper():
                return Var(t.text)
            return Prop(t.text)
        raise ParseError(f"found {t.text or 'end of input'!r}", t.span,
                         {"formula"})

    def lam(self) -> Formula:
        self.expect("\\")
        self.expect("(")
        var = self.var_name()
        self.expect(":")
        ty = self.type_()
        self.expect(")")
        variance = self.opt_variance(default=Variance.PLUS)
        self.expect(".")
        body = self.formula()
        return Lam(var, variance, ty, body)

    def fixpoint(self) -> Formula:
        kw = self.next().text
        self.expect("(")
        var = self.var_name()
        self.expect(":")
        ty = self.type_()
        self.expect(")")
        self.expect(".")
        body = self.formula()
        if kw == "mu":
            return Mu(var, ty, body)
        return nu(var, ty, body)

    def vector_fixpoint(self) -> Formula:
        self.expect("fix")
        t = self.peek()
        if t.kind != "nat":
            raise ParseError("fix needs a component index", t.span, {"NAT"})
        self.next()
        index = int(t.text)
        self.expect("(")
        bindings = [self.binding()]
        while self.at_punct(";"):
            self.next()
            bindings.append(self.binding())
        self.expect(")")
        try:
            return MuVec(index, tuple(bindings))
        except ValueError as e:
            raise ParseError(str(e), t.span) from e

    def binding(self):
        var = self.var_name()
        self.expect(":")
        ty = self.type_()
        self.expect(".")
        body = self.formula()
        return (var, ty, body)

    def var_name(self) -> str:
        t = self.peek()
        if t.kind != "ident" or not t.text[0].isupper():
            raise ParseError(f"found {t.text or 'end of input'!r}", t.span,
                             {"variable"})
        if t.text in RESERVED:
            raise ParseError(f"reserved word {t.text!r}", t.span)
        self.next()
        return t.text

    def _check_action(self, t: Token):
        if not t.text[0].islower() and t.text[0] != "_":
            raise ParseError("actions are lowercase-first", t.span)

    def opt_variance(self, default: Variance) -> Variance:
        t = self.peek()
        if t.kind == "punct" and t.text in ("^+", "^-", "^0"):
            self.next()
            return {"^+": Variance.PLUS, "^-": Variance.MINUS,
                    "^0": Variance.ZERO}[t.text]
        return default

    # type := tatom ( varc? "->" type )?
    def type_(self) -> HflType:
        left = self.tatom()
        t = self.peek()
        if (t.kind == "punct" and t.text in ("^+", "^-", "^0", "->")):
            variance = self.opt_variance(default=Variance.PLUS)
            self.expect("->")
            return Arrow(left, variance, self.type_())
        return left

    def tatom(self) -> HflType:
        t = self.peek()
        if t.kind == "ident" and t.text == "Pr":
            self.next()
            return PR
        if t.kind == "punct" and t.text == "(":
            self.next()
            ty = self.type_()
            self.expect(")")
            return ty
        raise ParseError(f"found {t.text or 'end of input'!r}", t.span,
                         {"Pr", "("})


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    out = p.formula()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.span)
    return out


def parse_type(text: str) -> HflType:
    p = _Parser(text)
    out = p.type_()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.span)
    return out


# ---------------------------------------------------------------------------
# Printing

_VARC = {Variance.PLUS: "^+", Variance.MINUS: "^-", Variance.ZERO: "^0"}


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
        if isinstance(f, Neg):
            text = f"!{go(f.body, _PREC_UNARY)}"
            return wrap(text, _PREC_UNARY, minimum)
        if isinstance(f, Dia):
            text = f"<{f.action}> {go(f.body, _PREC_UNARY)}"
            return wrap(text, _PREC_UNARY, minimum)
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
