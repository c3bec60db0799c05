"""Surface syntax for .qpel files and embedded proof scripts.

A file is a sequence of declarations::

    type Pair = qbit * qbit
    term coin () : I + I = measure { 1/2 -> inl unit | 1/2 -> inr unit }
    effect top (x : I) = bot(0)
    lemma l (x : I) : x = unit : I by { eta-unit }
    check coin

Later declarations may reference earlier ``type``, ``term`` and ``effect``
declarations by name; references are substituted inline during elaboration.
Only closed term and effect declarations can be referenced, since inlining an
open body would silently duplicate variable uses in a linear language.

Proof scripts appear after ``by`` in lemma declarations, or in a JSON sidecar
(``{"rule": ..., "args": {...}, "premises": [...]}``), whose names elaboration
resolves at the lemma, as it resolves an inline script's.  ``requires { ... }``
clauses supply scripts for the orthogonality obligations of ``o+`` and
``measure``, matched to their occurrences in preorder.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import rules
from .printer import print_context, print_effect, print_term, print_type
from .syntax import (
    Ascribe,
    Case,
    CaseEff,
    Context,
    CZ,
    Effect,
    EffForm,
    EffLeq,
    Inl,
    Inr,
    LetPair,
    Measure,
    NewPlus,
    Orth,
    OSum,
    Pair,
    PauliX,
    PauliZ,
    ProjPlus,
    ScalarLit,
    SMul,
    Star,
    Syntax,
    Term,
    TermEq,
    TQbit,
    TSum,
    TTensor,
    TUnit,
    Type,
    Typing,
    Var,
    Zero,
    desugar_let,
    map_subterms,
    rebuilt,
)


class QpelSyntaxError(Exception):
    def __init__(self, msg, line=None, col=None, expected=()):
        self.line, self.col, self.expected = line, col, tuple(expected)
        where = f" at {line}:{col}" if line is not None else ""
        hint = f" (expected one of: {', '.join(sorted(self.expected))})" if expected else ""
        super().__init__(f"{msg}{where}{hint}")


# Deepest nesting of phrases the parser accepts.  Each term, application,
# effect, effect product, type or script that begins inside another one counts
# one level; so `X X plus` as a declaration body is three levels deep, and a
# `let` or a `bot(...)` adds one or two.  The typechecker, the derivation
# checker, the interpreter and the printer recurse on the syntax tree too: at
# this bound every stage stays within Python's default recursion limit with
# some 300 frames to spare, while the deepest benchmark input (a chain of 85
# `let`s) is 92 levels deep.
MAX_NESTING = 128


class NestingError(QpelSyntaxError):
    """Input nested deeper than MAX_NESTING; no alternative parse can help."""


def _nested(parse):
    """Count one level of nesting around a recursive parsing method."""

    @functools.wraps(parse)
    def parse_nested(self, *args):
        if self.depth >= MAX_NESTING:
            t = self.peek()
            raise NestingError(f"nesting deeper than {MAX_NESTING}", t.line, t.col)
        self.depth += 1
        try:
            return parse(self, *args)
        finally:
            self.depth -= 1

    return parse_nested


# ------------------------------------------------------------------ reference
# nodes that exist only between parsing and elaboration


@dataclass(frozen=True)
class TRef(Type):
    name: str


@dataclass(frozen=True, eq=False)
class EffRef(Effect):
    name: str


# ----------------------------------------------------------------- file model


@dataclass(frozen=True)
class ScriptNode:
    rule: str
    args: dict = field(default_factory=dict)
    premises: tuple | None = None  # None: discharge premises automatically

    def __post_init__(self):
        object.__setattr__(self, "args", dict(self.args))


@dataclass(frozen=True)
class AutoNode:
    depth: int | None = None


@dataclass(frozen=True)
class ArithNode:
    pass


@dataclass(frozen=True)
class BothNode:
    fwd: object
    bwd: object


@dataclass(frozen=True)
class UseNode:
    name: str


Script = ScriptNode | AutoNode | ArithNode | BothNode | UseNode


@dataclass(frozen=True)
class GTyping:
    term: Term
    ty: Type


@dataclass(frozen=True)
class GTermEq:
    lhs: Term
    rhs: Term
    ty: Type


@dataclass(frozen=True)
class GLeq:
    low: Effect
    high: Effect


@dataclass(frozen=True)
class GEquiv:
    lhs: Effect
    rhs: Effect


@dataclass(frozen=True)
class GPerp:
    lhs: Effect
    rhs: Effect


@dataclass(frozen=True)
class GEff:
    eff: Effect


Goal = GTyping | GTermEq | GLeq | GEquiv | GPerp | GEff


def goal_judgements(goal: Goal, g: Context):
    """Expand a surface goal into core judgements (notation normalisation)."""
    match goal:
        case GTyping(term=m, ty=a):
            return [Typing(g, m, a)]
        case GTermEq(lhs=m, rhs=n, ty=a):
            return [TermEq(g, m, n, a)]
        case GLeq(low=a, high=b):
            return [EffLeq(g, a, b)]
        case GPerp(lhs=a, rhs=b):
            return [EffLeq(g, a, Orth(b))]
        case GEquiv(lhs=a, rhs=b):
            return [EffLeq(g, a, b), EffLeq(g, b, a)]
        case GEff(eff=e):
            return [EffForm(g, e)]
    raise TypeError(goal)


@dataclass(frozen=True)
class TypeDecl:
    name: str
    ty: Type


@dataclass(frozen=True)
class TermDecl:
    name: str
    ctx: Context
    ty: Type
    term: Term
    requires: tuple = ()


@dataclass(frozen=True)
class EffectDecl:
    name: str
    ctx: Context
    eff: Effect
    requires: tuple = ()


@dataclass(frozen=True)
class LemmaDecl:
    name: str
    ctx: Context
    goal: Goal
    script: Script | None = None
    requires: tuple = ()

    def judgements(self):
        return goal_judgements(self.goal, self.ctx)


@dataclass(frozen=True)
class CheckDecl:
    name: str


Decl = TypeDecl | TermDecl | EffectDecl | LemmaDecl | CheckDecl


@dataclass(frozen=True)
class SourceFile:
    decls: tuple


# -------------------------------------------------------------------- lexing


class Token(NamedTuple):
    kind: str  # NAME, INT, EOF, or the punct text itself
    text: str
    line: int
    col: int


# the digits of a numeric literal: ASCII only, as `str.isdigit` holds for
# superscripts that `int` rejects and for other scripts' digits it reads
DIGITS = frozenset("0123456789")


def _name_char(c):
    return c.isalnum() or c in "_'"


def tokenize(text: str) -> list[Token]:
    toks, i, line, col = [], 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("--", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            i, col = j, col + j - i
            continue
        if text.startswith("_|_", i) and not (i + 3 < n and _name_char(text[i + 3])):
            toks.append(Token("_|_", "_|_", line, col))
            i, col = i + 3, col + 3
            continue
        if text.startswith("->", i):
            toks.append(Token("->", "->", line, col))
            i, col = i + 2, col + 2
            continue
        if text.startswith("<=", i) or text.startswith("==", i):
            toks.append(Token(text[i : i + 2], text[i : i + 2], line, col))
            i, col = i + 2, col + 2
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n:
                if _name_char(text[j]):
                    j += 1
                elif text[j] == "-" and j + 1 < n and text[j + 1].isalnum():
                    j += 2
                else:
                    break
            word = text[i:j]
            if word == "o" and j < n and text[j] == "+":
                toks.append(Token("o+", "o+", line, col))
                j += 1
            else:
                toks.append(Token("NAME", word, line, col))
            col += j - i
            i = j
            continue
        if c in DIGITS:
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            toks.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in "(){}[]:;,|*+./=":
            toks.append(Token(c, c, line, col))
            i, col = i + 1, col + 1
            continue
        raise QpelSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


# ------------------------------------------------------------------- parsing


_KEYWORDS = {
    "type", "term", "effect", "lemma", "check", "by", "requires",
    "let", "in", "case", "caseE", "of", "inl", "inr", "measure",
    "unit", "plus", "qbit", "I", "X", "Z", "E", "proj", "bot", "eff",
    "auto", "arith", "both", "use",
}

# sort of each script argument value, keyed by (rule, key) with a fallback key;
# `derivation.deriv_to_script` keeps the derivation arguments named here
ARG_SORTS = {
    ("trans", "via"): "term",
    ("leq-trans", "via"): "effect",
    ("measure-perm", "perm"): "intlist",
    ("beta-iso", "x"): "name",
    ("beta-iso", "body"): "effect",
    ("beta-iso", "m"): "term",
    ("beta-iso", "n"): "term",
    (None, "ty"): "type",
    (None, "ty2"): "type",
    (None, "depth"): "int",
}


def arg_sort(rule: str, key: str) -> str:
    if (rule, key) in ARG_SORTS:
        return ARG_SORTS[(rule, key)]
    if (None, key) in ARG_SORTS:
        return ARG_SORTS[(None, key)]
    raise QpelSyntaxError(f"rule {rule} takes no argument named {key!r}")


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing

    # the last token is EOF and nothing advances past it, so the current
    # token is always self.toks[self.pos]

    def peek(self, ahead=0) -> Token:
        if ahead:
            return self.toks[min(self.pos + ahead, len(self.toks) - 1)]
        return self.toks[self.pos]

    def at(self, kind, text=None) -> bool:
        t = self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def at_word(self, word) -> bool:
        t = self.toks[self.pos]
        return t.kind == "NAME" and t.text == word

    def advance(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, text=None) -> Token:
        if not self.at(kind, text):
            self.fail(text or kind)
        return self.advance()

    def expect_word(self, word) -> Token:
        if not self.at_word(word):
            self.fail(word)
        return self.advance()

    def fail(self, *expected):
        t = self.peek()
        raise QpelSyntaxError(
            f"unexpected {t.text!r}" if t.kind != "EOF" else "unexpected end of input",
            t.line,
            t.col,
            expected,
        )

    def ident(self) -> str:
        t = self.peek()
        if t.kind != "NAME" or t.text in _KEYWORDS:
            self.fail("identifier")
        return self.advance().text

    def integer(self) -> int:
        t = self.expect("INT")
        return self.build(t, int, t.text)

    def build(self, tok: Token, ctor, *args):
        """Apply a constructor that validates its arguments (a scalar literal
        in [0, 1], distinct context names, ...), reporting a refusal at `tok`."""
        try:
            return ctor(*args)
        except ZeroDivisionError:
            raise QpelSyntaxError("zero denominator", tok.line, tok.col) from None
        except ValueError as exc:
            raise QpelSyntaxError(str(exc), tok.line, tok.col) from None

    # -- top level

    def parse_file(self) -> SourceFile:
        decls = []
        while not self.at("EOF"):
            decls.append(self.parse_decl())
        return SourceFile(tuple(decls))

    def parse_decl(self) -> Decl:
        t = self.peek()
        if t.kind != "NAME":
            self.fail("type", "term", "effect", "lemma", "check")
        if t.text == "type":
            self.advance()
            name = self.ident()
            self.expect("=")
            return TypeDecl(name, self.parse_type())
        if t.text == "term":
            self.advance()
            name = self.ident()
            g = self.parse_context()
            self.expect(":")
            ty = self.parse_type()
            self.expect("=")
            body = self.parse_term()
            return TermDecl(name, g, ty, body, self.parse_requires())
        if t.text == "effect":
            self.advance()
            name = self.ident()
            g = self.parse_context()
            self.expect("=")
            eff = self.parse_effect()
            return EffectDecl(name, g, eff, self.parse_requires())
        if t.text == "lemma":
            self.advance()
            name = self.ident()
            g = self.parse_context()
            self.expect(":")
            goal = self.parse_goal()
            requires = self.parse_requires()
            script = None
            if self.at_word("by"):
                self.advance()
                self.expect("{")
                script = self.parse_script()
                self.expect("}")
            return LemmaDecl(name, g, goal, script, requires)
        if t.text == "check":
            self.advance()
            return CheckDecl(self.ident())
        self.fail("type", "term", "effect", "lemma", "check")

    def parse_requires(self) -> tuple:
        if not self.at_word("requires"):
            return ()
        self.advance()
        self.expect("{")
        scripts = [self.parse_script()]
        while self.at(";"):
            self.advance()
            scripts.append(self.parse_script())
        self.expect("}")
        return tuple(scripts)

    def parse_context(self) -> Context:
        self.expect("(")
        g = Context()
        if not self.at(")"):
            while True:
                binder = self.peek()
                name = self.ident()
                self.expect(":")
                g = self.build(binder, g.extend, name, self.parse_type())
                if not self.at(","):
                    break
                self.advance()
        self.expect(")")
        return g

    def parse_goal(self) -> Goal:
        save = self.pos
        try:
            lhs = self.parse_term()
            if self.at("="):
                self.advance()
                rhs = self.parse_term()
                self.expect(":")
                return GTermEq(lhs, rhs, self.parse_type())
            if self.at(":"):
                self.advance()
                return GTyping(lhs, self.parse_type())
            raise QpelSyntaxError("not a term goal")
        except NestingError:
            raise
        except QpelSyntaxError:
            self.pos = save
        lhs = self.parse_effect()
        if self.at("<="):
            self.advance()
            return GLeq(lhs, self.parse_effect())
        if self.at("=="):
            self.advance()
            return GEquiv(lhs, self.parse_effect())
        if self.at("_|_"):
            self.advance()
            return GPerp(lhs, self.parse_effect())
        if self.at_word("eff"):
            self.advance()
            return GEff(lhs)
        self.fail("<=", "==", "_|_", "eff")

    # -- types

    @_nested
    def parse_type(self) -> Type:
        t = self.parse_tensor_type()
        while self.at("+"):
            self.advance()
            t = TSum(t, self.parse_tensor_type())
        return t

    def parse_tensor_type(self) -> Type:
        t = self.parse_atom_type()
        while self.at("*"):
            self.advance()
            t = TTensor(t, self.parse_atom_type())
        return t

    def parse_atom_type(self) -> Type:
        if self.at_word("I"):
            self.advance()
            return TUnit()
        if self.at_word("qbit"):
            self.advance()
            return TQbit()
        if self.at("("):
            self.advance()
            t = self.parse_type()
            self.expect(")")
            return t
        return TRef(self.ident())

    # -- terms

    @_nested
    def parse_term(self) -> Term:
        if self.at_word("let"):
            self.advance()
            x = self.ident()
            if self.at("*"):
                self.advance()
                y = self.ident()
                self.expect("=")
                pair = self.parse_term()
                self.expect_word("in")
                return LetPair(x, y, pair, self.parse_term())
            self.expect("=")
            bound = self.parse_term()
            self.expect_word("in")
            return desugar_let(x, bound, self.parse_term())
        if self.at_word("case"):
            self.advance()
            scrut = self.parse_pair_term()
            self.expect_word("of")
            self.expect_word("inl")
            x = self.ident()
            self.expect("->")
            left = self.parse_term()
            self.expect("|")
            self.expect_word("inr")
            y = self.ident()
            self.expect("->")
            return Case(scrut, x, left, y, self.parse_term())
        if self.at_word("measure"):
            self.advance()
            self.expect("{")
            branches = [self.parse_measure_branch()]
            while self.at("|"):
                self.advance()
                branches.append(self.parse_measure_branch())
            self.expect("}")
            return Measure(tuple(branches))
        return self.parse_pair_term()

    def parse_measure_branch(self):
        phi = self.parse_effect()
        self.expect("->")
        return (phi, self.parse_term())

    def parse_pair_term(self) -> Term:
        t = self.parse_app_term()
        while self.at("*"):
            self.advance()
            t = Pair(t, self.parse_app_term())
        return t

    @_nested
    def parse_app_term(self) -> Term:
        if self.at_word("inl"):
            self.advance()
            return Inl(self.parse_app_term())
        if self.at_word("inr"):
            self.advance()
            return Inr(self.parse_app_term())
        if self.at_word("X"):
            self.advance()
            return PauliX(self.parse_app_term())
        if self.at_word("Z"):
            self.advance()
            return PauliZ(self.parse_app_term())
        if self.at_word("E"):
            self.advance()
            left = self.parse_app_term()
            return CZ(left, self.parse_atom_term())
        return self.parse_atom_term()

    def parse_atom_term(self) -> Term:
        if self.at_word("unit"):
            self.advance()
            return Star()
        if self.at_word("plus"):
            self.advance()
            return NewPlus()
        if self.at("("):
            self.advance()
            t = self.parse_term()
            if self.at(":"):
                self.advance()
                t = Ascribe(t, self.parse_type())
            self.expect(")")
            return t
        return Var(self.ident())

    # -- effects

    @_nested
    def parse_effect(self) -> Effect:
        if self.at_word("caseE"):
            self.advance()
            scrut = self.parse_pair_term()
            self.expect_word("of")
            self.expect_word("inl")
            x = self.ident()
            self.expect("->")
            left = self.parse_effect()
            self.expect("|")
            self.expect_word("inr")
            y = self.ident()
            self.expect("->")
            return CaseEff(scrut, x, left, y, self.parse_effect())
        e = self.parse_mult_effect()
        if self.at("o+"):
            self.advance()
            return OSum(e, self.parse_mult_effect())
        return e

    @_nested
    def parse_mult_effect(self) -> Effect:
        e = self.parse_atom_effect()
        if self.at("."):
            self.advance()
            return SMul(e, self.parse_mult_effect())
        return e

    def parse_rational(self) -> Fraction:
        t = self.peek()
        num = self.integer()
        if self.at("/"):
            self.advance()
            return self.build(t, Fraction, num, self.integer())
        return Fraction(num)

    def parse_atom_effect(self) -> Effect:
        if self.at("INT"):
            t = self.peek()
            q = self.parse_rational()
            return Zero() if q == 0 else self.build(t, ScalarLit, q)
        if self.at_word("bot"):
            self.advance()
            self.expect("(")
            e = self.parse_effect()
            self.expect(")")
            return Orth(e)
        if self.at_word("proj"):
            self.advance()
            self.expect("(")
            m = self.parse_term()
            self.expect(",")
            t = self.peek()
            q = self.parse_rational()
            self.expect(")")
            return self.build(t, ProjPlus, m, q)
        if self.at("("):
            self.advance()
            e = self.parse_effect()
            self.expect(")")
            return e
        return EffRef(self.ident())

    # -- proof scripts

    @_nested
    def parse_script(self) -> Script:
        t = self.peek()
        if t.kind != "NAME":
            self.fail("rule name")
        name = t.text
        if name == "auto":
            self.advance()
            depth = None
            if self.at("(") and self.peek(1).kind == "INT":
                self.advance()
                depth = self.integer()
                self.expect(")")
            return AutoNode(depth)
        if name == "arith":
            self.advance()
            return ArithNode()
        if name == "both":
            self.advance()
            self.expect("(")
            fwd = self.parse_script()
            self.expect(";")
            bwd = self.parse_script()
            self.expect(")")
            return BothNode(fwd, bwd)
        if name == "use":
            self.advance()
            self.expect("(")
            target = self.ident()
            self.expect(")")
            return UseNode(target)
        if name not in rules.ALL_RULE_NAMES:
            self.fail("rule name")
        self.advance()
        args = {}
        if self.at("["):
            self.advance()
            while True:
                key = self.ident()
                self.expect("=")
                args[key] = self.parse_arg_value(name, key)
                if not self.at(","):
                    break
                self.advance()
            self.expect("]")
        premises = None
        if self.at("("):
            self.advance()
            prems = [self.parse_script()]
            while self.at(";"):
                self.advance()
                prems.append(self.parse_script())
            self.expect(")")
            premises = tuple(prems)
        return ScriptNode(name, args, premises)

    def parse_arg_value(self, rule: str, key: str):
        sort = arg_sort(rule, key)
        if sort == "term":
            return self.parse_term()
        if sort == "effect":
            return self.parse_effect()
        if sort == "type":
            return self.parse_type()
        if sort == "name":
            return self.ident()
        if sort == "int":
            return self.integer()
        if sort == "intlist":
            self.expect("[")
            xs = [self.integer()]
            while self.at(","):
                self.advance()
                xs.append(self.integer())
            self.expect("]")
            return tuple(xs)
        raise AssertionError(sort)


# -------------------------------------------------------------- elaboration


class ElabError(Exception):
    pass


@dataclass
class DeclTables:
    types: dict
    terms: dict
    effects: dict


def _shadow(bound, tables: DeclTables, names):
    """`bound` with the binders among names that shadow a declared term,
    the only names it is consulted for."""
    hidden = [n for n in names if n in tables.terms and n not in bound]
    return bound | frozenset(hidden) if hidden else bound


def resolve_type(t: Type, tables: DeclTables) -> Type:
    match t:
        case TRef(name=n):
            if n not in tables.types:
                raise ElabError(f"unknown type name {n!r}")
            return tables.types[n]
        case TTensor(left=a, right=b) | TSum(left=a, right=b):
            return rebuilt(t, left=resolve_type(a, tables), right=resolve_type(b, tables))
        case _:
            return t


def resolve_syntax(s, tables: DeclTables, bound=frozenset()):
    """A term or effect with its references to declared terms, effects and
    types inlined; `bound` holds the binders that shadow a declared term.
    A tree without references is returned itself."""
    cls = type(s)
    if cls is Var:
        return tables.terms[s.name] if s.name not in bound and s.name in tables.terms else s
    if cls is EffRef:
        if s.name not in tables.effects:
            raise ElabError(f"unknown effect name {s.name!r}")
        return tables.effects[s.name]
    parts = map_subterms(
        s, lambda m, names: resolve_syntax(m, tables, _shadow(bound, tables, names))
    )
    if cls is Ascribe:
        parts["ty"] = resolve_type(s.ty, tables)
    return rebuilt(s, **parts)


def resolve_context(g: Context, tables: DeclTables) -> Context:
    return Context(tuple((n, resolve_type(t, tables)) for n, t in g))


def resolve_script(s: Script | None, tables: DeclTables):
    if s is None:
        return None
    match s:
        case AutoNode() | ArithNode() | UseNode():
            return s
        case BothNode(fwd=a, bwd=b):
            return BothNode(resolve_script(a, tables), resolve_script(b, tables))
        case ScriptNode(rule=r, args=args, premises=prems):
            out_args = {}
            for k, v in args.items():
                if isinstance(v, Syntax):
                    out_args[k] = resolve_syntax(v, tables)
                elif isinstance(v, Type):
                    out_args[k] = resolve_type(v, tables)
                else:
                    out_args[k] = v
            out_prems = None if prems is None else tuple(resolve_script(p, tables) for p in prems)
            return ScriptNode(r, out_args, out_prems)
    raise TypeError(s)


def resolve_goal(goal: Goal, tables: DeclTables) -> Goal:
    match goal:
        case GTyping(term=m, ty=a):
            return GTyping(resolve_syntax(m, tables), resolve_type(a, tables))
        case GTermEq(lhs=m, rhs=n, ty=a):
            return GTermEq(resolve_syntax(m, tables), resolve_syntax(n, tables), resolve_type(a, tables))
        case GLeq(low=a, high=b):
            return GLeq(resolve_syntax(a, tables), resolve_syntax(b, tables))
        case GEquiv(lhs=a, rhs=b):
            return GEquiv(resolve_syntax(a, tables), resolve_syntax(b, tables))
        case GPerp(lhs=a, rhs=b):
            return GPerp(resolve_syntax(a, tables), resolve_syntax(b, tables))
        case GEff(eff=e):
            return GEff(resolve_syntax(e, tables))
    raise TypeError(goal)


def elaborate(raw: SourceFile, sidecar=None) -> SourceFile:
    """Resolve declaration references; check name uniqueness and closedness.
    A lemma without a script takes its script in the JSON document at path
    `sidecar`, if there is one, resolved as an inline script is, against
    the declarations before the lemma; a lemma with a script keeps it.  A
    sidecar entry that names no lemma of the file raises ElabError."""
    from .syntax import free_vars

    scripts = load_sidecar(sidecar) if sidecar else {}
    tables = DeclTables({}, {}, {})
    seen = set()
    out = []
    for d in raw.decls:
        if not isinstance(d, CheckDecl):
            if d.name in seen:
                raise ElabError(f"duplicate declaration name {d.name!r}")
            seen.add(d.name)
        match d:
            case TypeDecl(name=n, ty=t):
                resolved = TypeDecl(n, resolve_type(t, tables))
                tables.types[n] = resolved.ty
                out.append(resolved)
            case TermDecl(name=n, ctx=g, ty=t, term=m, requires=req):
                resolved = TermDecl(
                    n,
                    resolve_context(g, tables),
                    resolve_type(t, tables),
                    resolve_syntax(m, tables, frozenset(g.names())),
                    tuple(resolve_script(s, tables) for s in req),
                )
                if len(resolved.ctx) == 0:
                    tables.terms[n] = resolved.term
                out.append(resolved)
            case EffectDecl(name=n, ctx=g, eff=e, requires=req):
                resolved = EffectDecl(
                    n,
                    resolve_context(g, tables),
                    resolve_syntax(e, tables, frozenset(g.names())),
                    tuple(resolve_script(s, tables) for s in req),
                )
                if len(resolved.ctx) == 0 and not free_vars(resolved.eff):
                    tables.effects[n] = resolved.eff
                out.append(resolved)
            case LemmaDecl(name=n, ctx=g, goal=goal, script=sc, requires=req):
                g2 = resolve_context(g, tables)
                if sc is None and n in scripts:
                    try:
                        sc = resolve_script(scripts[n], tables)
                    except ElabError as exc:
                        raise ElabError(f"{sidecar}: script for lemma {n!r}: {exc}") from exc
                else:
                    sc = resolve_script(sc, tables)
                out.append(
                    LemmaDecl(
                        n,
                        g2,
                        resolve_goal(goal, tables),
                        sc,
                        tuple(resolve_script(s, tables) for s in req),
                    )
                )
            case CheckDecl():
                out.append(d)
    lemmas = {d.name for d in out if isinstance(d, LemmaDecl)}
    for n in scripts:
        if n not in lemmas:
            raise ElabError(f"{sidecar}: script for {n!r}, which is no lemma of the file")
    return SourceFile(tuple(out))


def parse(text: str, sidecar=None) -> SourceFile:
    """Parse and elaborate a .qpel source text, whose lemmas without a
    script take theirs from the JSON document at path `sidecar`, if any."""
    return elaborate(Parser(text).parse_file(), sidecar)


def parse_term_text(text: str) -> Term:
    p = Parser(text)
    t = p.parse_term()
    p.expect("EOF")
    return resolve_syntax(t, DeclTables({}, {}, {}))


def parse_effect_text(text: str) -> Effect:
    p = Parser(text)
    e = p.parse_effect()
    p.expect("EOF")
    return resolve_syntax(e, DeclTables({}, {}, {}))


# ----------------------------------------------------------- script sidecars


def _json_arg_ok(sort: str, v) -> bool:
    """Whether `v` is the JSON form of a script argument of this sort."""
    if sort == "int":
        return isinstance(v, int) and not isinstance(v, bool)
    if sort == "intlist":
        return isinstance(v, list) and all(_json_arg_ok("int", x) for x in v)
    return isinstance(v, str)


def script_from_json(obj, depth=0) -> Script:
    """Proof script from its JSON document form, its names unresolved, as
    the parser reads an inline one.  A document of any other shape raises
    QpelSyntaxError."""
    if depth >= MAX_NESTING:
        raise NestingError(f"proof script nested deeper than {MAX_NESTING}")
    if not isinstance(obj, dict) or not isinstance(obj.get("rule"), str):
        raise QpelSyntaxError("proof script JSON needs a string 'rule' field")
    rule = obj["rule"]
    prems = obj.get("premises")
    args = obj.get("args", {})
    if prems is not None and not isinstance(prems, list):
        raise QpelSyntaxError(f"premises of rule {rule} must be a list of scripts")
    if not isinstance(args, dict):
        raise QpelSyntaxError(f"args of rule {rule} must be an object")
    sorts = {"name": "name"} if rule == "use" else {k: arg_sort(rule, k) for k in args}
    for k, sort in sorts.items():
        if not _json_arg_ok(sort, args.get(k)):
            raise QpelSyntaxError(f"argument {k!r} of rule {rule} must be of sort {sort}")
    if rule == "auto":
        return AutoNode(args.get("depth"))
    if rule == "arith":
        return ArithNode()
    if rule == "both":
        if not prems or len(prems) != 2:
            raise QpelSyntaxError("'both' takes exactly two premises")
        fwd, bwd = (script_from_json(p, depth + 1) for p in prems)
        return BothNode(fwd, bwd)
    if rule == "use":
        return UseNode(args["name"])
    if rule not in rules.ALL_RULE_NAMES:
        raise QpelSyntaxError(f"unknown rule name {rule!r}")
    parsed_args = {}
    for k, v in args.items():
        if sorts[k] in ("term", "effect", "type"):
            p = Parser(v)
            v = p.parse_arg_value(rule, k)
            p.expect("EOF")
        elif sorts[k] == "intlist":
            v = tuple(v)
        parsed_args[k] = v
    premises = None if prems is None else tuple(script_from_json(p, depth + 1) for p in prems)
    return ScriptNode(rule, parsed_args, premises)


def script_to_json(s: Script):
    match s:
        case AutoNode(depth=d):
            return {"rule": "auto", "args": {} if d is None else {"depth": d}}
        case ArithNode():
            return {"rule": "arith"}
        case BothNode(fwd=a, bwd=b):
            return {"rule": "both", "premises": [script_to_json(a), script_to_json(b)]}
        case UseNode(name=n):
            return {"rule": "use", "args": {"name": n}}
        case ScriptNode(rule=r, args=args, premises=prems):
            out_args = {}
            for k, v in args.items():
                if isinstance(v, Term):
                    out_args[k] = print_term(v)
                elif isinstance(v, Effect):
                    out_args[k] = print_effect(v)
                elif isinstance(v, Type):
                    out_args[k] = print_type(v)
                elif isinstance(v, tuple):
                    out_args[k] = list(v)
                else:
                    out_args[k] = v
            doc = {"rule": r}
            if out_args:
                doc["args"] = out_args
            if prems is not None:
                doc["premises"] = [script_to_json(p) for p in prems]
            return doc
    raise TypeError(s)


def load_sidecar(path) -> dict:
    """Sidecar proof document: {lemma name: script JSON}.  A document that is
    not a UTF-8 JSON object of scripts raises QpelSyntaxError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise QpelSyntaxError(f"{path}: not a JSON document: {exc}") from exc
    if not isinstance(data, dict):
        raise QpelSyntaxError(f"{path}: not a JSON object of lemma names to scripts")
    out = {}
    for name, obj in data.items():
        try:
            out[name] = script_from_json(obj)
        except QpelSyntaxError as exc:
            raise QpelSyntaxError(f"{path}: script for lemma {name!r}: {exc}") from exc
    return out


# -------------------------------------------------------------- file printing


def print_script(s: Script) -> str:
    match s:
        case AutoNode(depth=d):
            return "auto" if d is None else f"auto({d})"
        case ArithNode():
            return "arith"
        case BothNode(fwd=a, bwd=b):
            return f"both({print_script(a)}; {print_script(b)})"
        case UseNode(name=n):
            return f"use({n})"
        case ScriptNode(rule=r, args=args, premises=prems):
            out = r
            if args:
                parts = []
                for k, v in args.items():
                    if isinstance(v, Term):
                        parts.append(f"{k} = {print_term(v)}")
                    elif isinstance(v, Effect):
                        parts.append(f"{k} = {print_effect(v)}")
                    elif isinstance(v, Type):
                        parts.append(f"{k} = {print_type(v)}")
                    elif isinstance(v, tuple):
                        parts.append(f"{k} = [{', '.join(str(x) for x in v)}]")
                    else:
                        parts.append(f"{k} = {v}")
                out += "[" + ", ".join(parts) + "]"
            if prems is not None:
                out += "(" + "; ".join(print_script(p) for p in prems) + ")"
            return out
    raise TypeError(s)


def print_goal(goal: Goal) -> str:
    match goal:
        case GTyping(term=m, ty=a):
            return f"{print_term(m)} : {print_type(a)}"
        case GTermEq(lhs=m, rhs=n, ty=a):
            return f"{print_term(m)} = {print_term(n)} : {print_type(a)}"
        case GLeq(low=a, high=b):
            return f"{print_effect(a)} <= {print_effect(b)}"
        case GEquiv(lhs=a, rhs=b):
            return f"{print_effect(a)} == {print_effect(b)}"
        case GPerp(lhs=a, rhs=b):
            return f"{print_effect(a)} _|_ {print_effect(b)}"
        case GEff(eff=e):
            return f"{print_effect(e)} eff"
    raise TypeError(goal)


def print_decl(d: Decl) -> str:
    def req(scripts):
        if not scripts:
            return ""
        return " requires { " + "; ".join(print_script(s) for s in scripts) + " }"

    match d:
        case TypeDecl(name=n, ty=t):
            return f"type {n} = {print_type(t)}"
        case TermDecl(name=n, ctx=g, ty=t, term=m, requires=r):
            return f"term {n} {print_context(g)} : {print_type(t)} = {print_term(m)}{req(r)}"
        case EffectDecl(name=n, ctx=g, eff=e, requires=r):
            return f"effect {n} {print_context(g)} = {print_effect(e)}{req(r)}"
        case LemmaDecl(name=n, ctx=g, goal=goal, script=s, requires=r):
            by = f" by {{ {print_script(s)} }}" if s is not None else ""
            return f"lemma {n} {print_context(g)} : {print_goal(goal)}{req(r)}{by}"
        case CheckDecl(name=n):
            return f"check {n}"
    raise TypeError(d)


def pretty(f: SourceFile) -> str:
    return "\n".join(print_decl(d) for d in f.decls) + "\n"


def file_alpha_eq(a: SourceFile, b: SourceFile) -> bool:
    """Declaration-wise alpha equality of two elaborated files."""
    if len(a.decls) != len(b.decls):
        return False
    for da, db in zip(a.decls, b.decls):
        if type(da) is not type(db):
            return False
        match da:
            case TypeDecl():
                if (da.name, da.ty) != (db.name, db.ty):
                    return False
            case TermDecl():
                if (da.name, da.ctx, da.ty) != (db.name, db.ctx, db.ty) or da.term != db.term:
                    return False
            case EffectDecl():
                if (da.name, da.ctx) != (db.name, db.ctx) or da.eff != db.eff:
                    return False
            case LemmaDecl():
                if (da.name, da.ctx) != (db.name, db.ctx):
                    return False
                ja, jb = da.judgements(), db.judgements()
                if len(ja) != len(jb) or any(x != y for x, y in zip(ja, jb)):
                    return False
            case CheckDecl():
                if da.name != db.name:
                    return False
    return True
