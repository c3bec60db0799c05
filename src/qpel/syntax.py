"""Abstract syntax: types, terms, effects, contexts and judgements.

Terms and effects carry named binders; ``==`` on them is alpha-equivalence,
decided by converting both sides to a locally nameless form.  Substitution is
capture-avoiding and freshens bound names on demand, so user-facing names
survive wherever no capture threatens.

`SHAPES` states the grammar once: for each constructor, its subterm fields,
the binders that scope over each, and its data fields.  The tree walks here
(nameless keys, free and bound names, substitution, ascription erasure), the
parser's name resolution and the interpreter's applicability scan are folds
over that table.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple


# --------------------------------------------------------------------- types


class Type:
    pass


@dataclass(frozen=True)
class TUnit(Type):
    pass


@dataclass(frozen=True)
class TTensor(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class TSum(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class TQbit(Type):
    pass


# ---------------------------------------------------------------- terms/effects


class Syntax:
    """Base for terms and effects: equality and hashing are alpha-insensitive.

    Each constructor is a slotted dataclass whose fields `SHAPES` describes.
    Nodes are immutable, so each computes its nameless key (and the key's
    hash) at most once and keeps it in a slot outside the dataclass fields,
    where a walk over an enclosing tree may have put it already;
    `free_vars` is kept the same way, and `bound_names` on binding nodes.
    The cached hash depends on the process's string hashing, so a node must
    not be moved to another process with it.
    """

    __slots__ = ("_nameless", "_hash", "_free_vars", "_bound_names")

    def _key(self):
        try:
            return self._nameless
        except AttributeError:
            key = nameless(self)
            object.__setattr__(self, "_nameless", key)
            return key

    def __eq__(self, other):
        if not isinstance(other, Syntax):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
            return h


class Term(Syntax):
    __slots__ = ()


class Effect(Syntax):
    __slots__ = ()


@dataclass(frozen=True, eq=False, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, eq=False, slots=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False, slots=True)
class LetPair(Term):
    """let x * y = pair in body; binds x and y in body."""

    x: str
    y: str
    pair: Term
    body: Term


@dataclass(frozen=True, eq=False, slots=True)
class Star(Term):
    """The sole inhabitant of the unit type."""


@dataclass(frozen=True, eq=False, slots=True)
class Inl(Term):
    arg: Term


@dataclass(frozen=True, eq=False, slots=True)
class Inr(Term):
    arg: Term


@dataclass(frozen=True, eq=False, slots=True)
class Case(Term):
    """case scrut of inl x -> left | inr y -> right."""

    scrut: Term
    x: str
    left: Term
    y: str
    right: Term


@dataclass(frozen=True, eq=False, slots=True)
class Measure(Term):
    """Probabilistic branch over a family of effects covering the top effect."""

    branches: tuple[tuple[Effect, Term], ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("measure needs at least one branch")


@dataclass(frozen=True, eq=False, slots=True)
class NewPlus(Term):
    """Fresh qubit prepared in the +1 eigenstate of Pauli-X."""


@dataclass(frozen=True, eq=False, slots=True)
class PauliX(Term):
    arg: Term


@dataclass(frozen=True, eq=False, slots=True)
class PauliZ(Term):
    arg: Term


@dataclass(frozen=True, eq=False, slots=True)
class CZ(Term):
    """Controlled-Z applied to a pair of qubits."""

    left: Term
    right: Term


@dataclass(frozen=True, eq=False, slots=True)
class Ascribe(Term):
    """Surface-only type ascription, erased once checking has used it.

    Alpha-equality looks through ascriptions, so erased and unerased trees
    compare equal.
    """

    term: Term
    ty: Type


@dataclass(frozen=True, eq=False, slots=True)
class Zero(Effect):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class OSum(Effect):
    """Partial sum of two orthogonal effects."""

    left: Effect
    right: Effect


@dataclass(frozen=True, eq=False, slots=True)
class Orth(Effect):
    """Orthosupplement; the top effect is written Orth(Zero())."""

    arg: Effect


@dataclass(frozen=True, eq=False, slots=True)
class SMul(Effect):
    """Scalar product; the left factor must be closed."""

    scalar: Effect
    body: Effect


@dataclass(frozen=True, eq=False, slots=True)
class CaseEff(Effect):
    """caseE scrut of inl x -> left | inr y -> right."""

    scrut: Term
    x: str
    left: Effect
    y: str
    right: Effect


@dataclass(frozen=True, eq=False, slots=True)
class ScalarLit(Effect):
    """Rational probability literal in [0, 1]."""

    value: Fraction

    def __post_init__(self):
        v = Fraction(self.value)
        if not 0 <= v <= 1:
            raise ValueError(f"scalar literal {v} outside [0, 1]")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True, eq=False, slots=True)
class ProjPlus(Effect):
    """The qubit effect `term = |+_a>` with a = angle * pi, angle in [0, 2)."""

    term: Term
    angle: Fraction

    def __post_init__(self):
        a = Fraction(self.angle)
        if not 0 <= a < 2:
            raise ValueError(f"projection angle {a}*pi outside [0, 2*pi)")
        object.__setattr__(self, "angle", a)


def one() -> Effect:
    """The top effect, notation for the orthosupplement of zero."""
    return Orth(Zero())


def is_one(phi: Effect) -> bool:
    return isinstance(phi, Orth) and isinstance(phi.arg, Zero)


def ovee_all(effs) -> Effect:
    """Left-associated n-ary sum: ((e1 + e2) + ...) + en."""
    effs = list(effs)
    if not effs:
        raise ValueError("empty effect sum")
    acc = effs[0]
    for e in effs[1:]:
        acc = OSum(acc, e)
    return acc


# ------------------------------------------------------------------- contexts


@dataclass(frozen=True)
class Context:
    """A typing context.  Its hash is computed once, as a term's is, and
    depends on the process's string hashing in the same way."""

    entries: tuple[tuple[str, Type], ...] = ()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self.entries)
            object.__setattr__(self, "_hash", h)
            return h

    def __post_init__(self):
        if len(self.entries) > 1 and len(dict(self.entries)) != len(self.entries):
            raise ValueError(f"duplicate variable in context: {self.names()}")

    def names(self):
        return [n for n, _ in self.entries]

    def lookup(self, name: str):
        for n, t in self.entries:
            if n == name:
                return t
        return None

    def extend(self, name: str, ty: Type) -> "Context":
        return Context(self.entries + ((name, ty),))

    def same_multiset(self, other: "Context") -> bool:
        # names are unique in a context, so its entries are a map
        return dict(self.entries) == dict(other.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __contains__(self, name: str):
        return any(n == name for n, _ in self.entries)


def ctx(*entries) -> Context:
    return Context(tuple(entries))


# ----------------------------------------------------------------- judgements


@dataclass(frozen=True)
class Typing:
    ctx: Context
    term: Term
    ty: Type


@dataclass(frozen=True)
class TermEq:
    ctx: Context
    lhs: Term
    rhs: Term
    ty: Type


@dataclass(frozen=True)
class EffForm:
    ctx: Context
    eff: Effect


@dataclass(frozen=True)
class EffLeq:
    ctx: Context
    low: Effect
    high: Effect


Judgement = Typing | TermEq | EffForm | EffLeq


def perp(g: Context, phi: Effect, psi: Effect) -> EffLeq:
    """phi _|_ psi unfolds to phi <= bot(psi)."""
    return EffLeq(g, phi, Orth(psi))


def equiv(g: Context, phi: Effect, psi: Effect) -> tuple[EffLeq, EffLeq]:
    """phi == psi unfolds to the pair of <= judgements."""
    return EffLeq(g, phi, psi), EffLeq(g, psi, phi)


def judgement_up_to_exchange(a: Judgement, b: Judgement) -> bool:
    """Equality of judgements modulo reordering the context; the syntax and
    types are compared first, as they tell most judgements apart."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Typing):
        same = a.term == b.term and a.ty == b.ty
    elif isinstance(a, TermEq):
        same = a.lhs == b.lhs and a.rhs == b.rhs and a.ty == b.ty
    elif isinstance(a, EffForm):
        same = a.eff == b.eff
    else:
        same = a.low == b.low and a.high == b.high
    return same and a.ctx.same_multiset(b.ctx)


# ------------------------------------------------------- constructor shapes


class Shape(NamedTuple):
    """What the tree walks need to know of a constructor: its tag in the
    nameless key, its subterm fields in field order, each paired with the
    binder fields that scope over it, and its data fields, which hold no
    syntax.  A binder list of None marks a field of (effect, term) pairs,
    `Measure.branches`, that binds nothing."""

    tag: str | None
    children: tuple = ()
    data: tuple = ()


# One entry per term and effect constructor: the grammar, stated once.  The
# walks below special-case only Var, whose name is free or bound, and
# Ascribe, which alpha-equality and erasure look through.
SHAPES = {
    Var: Shape("v", data=("name",)),
    Pair: Shape("pair", (("left", ()), ("right", ()))),
    LetPair: Shape("let", (("pair", ()), ("body", ("x", "y")))),
    Star: Shape("star"),
    Inl: Shape("inl", (("arg", ()),)),
    Inr: Shape("inr", (("arg", ()),)),
    Case: Shape("case", (("scrut", ()), ("left", ("x",)), ("right", ("y",)))),
    Measure: Shape("measure", (("branches", None),)),
    NewPlus: Shape("plus"),
    PauliX: Shape("X", (("arg", ()),)),
    PauliZ: Shape("Z", (("arg", ()),)),
    CZ: Shape("E", (("left", ()), ("right", ()))),
    Ascribe: Shape(None, (("term", ()),), ("ty",)),
    Zero: Shape("0"),
    OSum: Shape("o+", (("left", ()), ("right", ()))),
    Orth: Shape("bot", (("arg", ()),)),
    SMul: Shape("smul", (("scalar", ()), ("body", ()))),
    CaseEff: Shape("caseE", (("scrut", ()), ("left", ("x",)), ("right", ("y",)))),
    ScalarLit: Shape("lit", data=("value",)),
    ProjPlus: Shape("proj", (("term", ()),), ("angle",)),
}
_BINDING = frozenset(c for c, sh in SHAPES.items() if any(b for _, b in sh.children))


def shape(node) -> Shape:
    try:
        return SHAPES[type(node)]
    except KeyError:
        raise TypeError(f"not syntax: {node!r}") from None


def subterms(node) -> list:
    """The subterms of a node in field order, each with the names bound
    over it."""
    out = []
    for f, binders in shape(node).children:
        m = getattr(node, f)
        if binders is None:
            out += [(x, ()) for pair in m for x in pair]
        else:
            out.append((m, tuple([getattr(node, b) for b in binders]) if binders else ()))
    return out


def map_subterms(node, fn) -> dict:
    """Each subterm field of a node mapped by fn(subterm, names bound over
    it), as keyword arguments for `rebuilt`."""
    parts = {}
    for f, binders in shape(node).children:
        m = getattr(node, f)
        if binders is None:
            parts[f] = tuple(tuple(fn(x, ()) for x in pair) for pair in m)
        else:
            parts[f] = fn(m, tuple([getattr(node, b) for b in binders]) if binders else ())
    return parts


# ------------------------------------------------------- nameless conversion


def nameless(s, under=()):
    """Locally nameless skeleton of a term or effect, for alpha-equality:
    its tag, its subterms' keys and its data; a bound variable is the depth
    of its binder.  A subtree under no binder has its own key there, so the
    walk reuses the key its node keeps, or keeps the one it computes; under
    a binder the depths differ, and the subtree is walked.

    ``under`` names enclosing binders, so open subtrees can be compared as
    abstractions.
    """

    def go(node, env, depth):
        if not depth:
            try:
                return node._nameless
            except AttributeError:
                pass
        cls = type(node)
        if cls is Var:
            x = node.name
            return ("b", env[x]) if x in env else ("v", x)
        if cls is Ascribe:
            return go(node.term, env, depth)
        tag, children, data = SHAPES.get(cls) or shape(node)
        key = (tag,)
        for f, binders in children:
            m = getattr(node, f)
            if binders is None:
                key += tuple([(go(phi, env, depth), go(t, env, depth)) for phi, t in m])
            elif binders:
                inner = env.copy()
                for i, b in enumerate(binders):
                    inner[getattr(node, b)] = depth + i
                key += (go(m, inner, depth + len(binders)),)
            else:
                key += (go(m, env, depth),)
        for f in data:
            key += (getattr(node, f),)
        if not depth:
            object.__setattr__(node, "_nameless", key)
        return key

    env0 = {x: i for i, x in enumerate(under)}
    return go(s, env0, len(under))


def alpha_eq(a, b) -> bool:
    return nameless(a) == nameless(b)


def abstraction_eq(binders_a, a, binders_b, b) -> bool:
    """Alpha-equality of open subtrees under aligned binder lists."""
    if len(binders_a) != len(binders_b):
        return False
    return nameless(a, tuple(binders_a)) == nameless(b, tuple(binders_b))


# ------------------------------------------------------------- free variables

# one empty set for every node without names, rather than one set each
_NO_NAMES = frozenset()


def free_vars(s) -> frozenset[str]:
    try:
        return s._free_vars
    except AttributeError:
        pass
    fvs = frozenset((s.name,)) if type(s) is Var else _NO_NAMES
    for m, names in subterms(s):
        part = free_vars(m).difference(names) if names else free_vars(m)
        fvs = fvs | part if fvs else part
    object.__setattr__(s, "_free_vars", fvs)
    return fvs


def bound_names(s) -> frozenset[str]:
    """Every name that occurs in binding position somewhere inside.

    Binding nodes keep theirs, as every node keeps its free variables, so
    that a chain of n `let`s is walked once rather than n times; the nodes
    between them compute theirs afresh, which keeps the cache to one set per
    binder."""
    try:
        return s._bound_names
    except AttributeError:
        pass
    names = _NO_NAMES
    for m, binders in subterms(s):
        part = bound_names(m).union(binders) if binders else bound_names(m)
        names = names | part if names else part
    if type(s) in _BINDING:
        object.__setattr__(s, "_bound_names", names)
    return names


def fresh(base: str, avoid) -> str:
    """A name not in avoid, derived from base by numeric suffixing."""
    if base not in avoid:
        return base
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


# --------------------------------------------------------------- substitution


def subst_many(s, repl: dict[str, Term]):
    """Simultaneous capture-avoiding substitution of terms for variables."""
    repl = {x: t for x, t in repl.items()}
    if not repl:
        return s
    value_fvs = frozenset().union(*(free_vars(t) for t in repl.values()))

    def rebind(names, body, active):
        """Freshen the binders in names where they would capture."""
        live = {x: t for x, t in active.items() if x not in names}
        live_fvs = frozenset().union(*(free_vars(t) for t in live.values())) if live else frozenset()
        out_names, renames = [], {}
        taken = set(names) | live_fvs | value_fvs | free_vars(body) | set(live)
        for n in names:
            if n in live_fvs:
                n2 = fresh(n, taken)
                renames[n] = Var(n2)
                taken.add(n2)
                out_names.append(n2)
            else:
                out_names.append(n)
        if renames:
            body = subst_many(body, renames)
        return out_names, body, live

    def go(node, active):
        if not active:
            return node
        if type(node) is Var:
            return active.get(node.name, node)
        _, children, data = shape(node)
        if not children:
            return node
        parts = {f: getattr(node, f) for f in data}
        for f, binders in children:
            m = getattr(node, f)
            if binders is None:
                parts[f] = tuple(tuple(go(x, active) for x in pair) for pair in m)
            elif binders:
                names, m, live = rebind([getattr(node, b) for b in binders], m, active)
                parts.update(zip(binders, names))
                parts[f] = go(m, live)
            else:
                parts[f] = go(m, active)
        return type(node)(**parts)

    return go(s, repl)


def subst(s, x: str, value: Term):
    """[value/x]s on a term or effect."""
    return subst_many(s, {x: value})


def desugar_let(x: str, bound: Term, body: Term) -> LetPair:
    """let x = M in N as let x * y = M * unit in N with y fresh."""
    y = fresh("_u", free_vars(body) | bound_names(body) | free_vars(bound) | {x})
    return LetPair(x, y, Pair(bound, Star()), body)


def _same(a, b):
    """a is b, or both are tuples of the same objects (measure branches)."""
    return a is b or (type(a) is tuple and len(a) == len(b) and all(map(_same, a, b)))


def rebuilt(node, **parts):
    """node with the given fields, or node itself when it already has them,
    so that a rewrite that changes nothing shares the whole tree."""
    for k, v in parts.items():
        if not _same(getattr(node, k), v):
            return replace(node, **parts)
    return node


def erase_ascriptions(s):
    """Drop every surface type ascription from a term or effect; a tree
    without one is returned itself."""
    if type(s) is Ascribe:
        return erase_ascriptions(s.term)
    return rebuilt(s, **map_subterms(s, lambda m, _: erase_ascriptions(m)))
