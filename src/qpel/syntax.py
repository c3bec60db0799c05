"""Abstract syntax: types, terms, effects, contexts and judgements.

Terms and effects carry named binders; ``==`` on them is alpha-equivalence,
decided by converting both sides to a locally nameless form.  Substitution is
capture-avoiding and freshens bound names on demand, so user-facing names
survive wherever no capture threatens.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction


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

    Nodes are immutable, so each computes its nameless key (and the key's
    hash) at most once and keeps it in an attribute outside the dataclass
    fields; `free_vars` is kept the same way, and `bound_names` on binding
    nodes.  The cached hash depends on the process's string hashing, so a
    node must not be moved to another process with it.
    """

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
    pass


class Effect(Syntax):
    pass


@dataclass(frozen=True, eq=False)
class Var(Term):
    name: str


@dataclass(frozen=True, eq=False)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class LetPair(Term):
    """let x * y = pair in body; binds x and y in body."""

    x: str
    y: str
    pair: Term
    body: Term


@dataclass(frozen=True, eq=False)
class Star(Term):
    """The sole inhabitant of the unit type."""


@dataclass(frozen=True, eq=False)
class Inl(Term):
    arg: Term


@dataclass(frozen=True, eq=False)
class Inr(Term):
    arg: Term


@dataclass(frozen=True, eq=False)
class Case(Term):
    """case scrut of inl x -> left | inr y -> right."""

    scrut: Term
    x: str
    left: Term
    y: str
    right: Term


@dataclass(frozen=True, eq=False)
class Measure(Term):
    """Probabilistic branch over a family of effects covering the top effect."""

    branches: tuple[tuple[Effect, Term], ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("measure needs at least one branch")


@dataclass(frozen=True, eq=False)
class NewPlus(Term):
    """Fresh qubit prepared in the +1 eigenstate of Pauli-X."""


@dataclass(frozen=True, eq=False)
class PauliX(Term):
    arg: Term


@dataclass(frozen=True, eq=False)
class PauliZ(Term):
    arg: Term


@dataclass(frozen=True, eq=False)
class CZ(Term):
    """Controlled-Z applied to a pair of qubits."""

    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Ascribe(Term):
    """Surface-only type ascription, erased once checking has used it.

    Alpha-equality looks through ascriptions, so erased and unerased trees
    compare equal.
    """

    term: Term
    ty: Type


@dataclass(frozen=True, eq=False)
class Zero(Effect):
    pass


@dataclass(frozen=True, eq=False)
class OSum(Effect):
    """Partial sum of two orthogonal effects."""

    left: Effect
    right: Effect


@dataclass(frozen=True, eq=False)
class Orth(Effect):
    """Orthosupplement; the top effect is written Orth(Zero())."""

    arg: Effect


@dataclass(frozen=True, eq=False)
class SMul(Effect):
    """Scalar product; the left factor must be closed."""

    scalar: Effect
    body: Effect


@dataclass(frozen=True, eq=False)
class CaseEff(Effect):
    """caseE scrut of inl x -> left | inr y -> right."""

    scrut: Term
    x: str
    left: Effect
    y: str
    right: Effect


@dataclass(frozen=True, eq=False)
class ScalarLit(Effect):
    """Rational probability literal in [0, 1]."""

    value: Fraction

    def __post_init__(self):
        v = Fraction(self.value)
        if not 0 <= v <= 1:
            raise ValueError(f"scalar literal {v} outside [0, 1]")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True, eq=False)
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
    entries: tuple[tuple[str, Type], ...] = ()

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

    def concat(self, other: "Context") -> "Context":
        return Context(self.entries + other.entries)

    def same_multiset(self, other: "Context") -> bool:
        return sorted(self.entries, key=repr) == sorted(other.entries, key=repr)

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
    """Equality of judgements modulo reordering the context."""
    if type(a) is not type(b) or not a.ctx.same_multiset(b.ctx):
        return False
    if isinstance(a, Typing):
        return a.term == b.term and a.ty == b.ty
    if isinstance(a, TermEq):
        return a.lhs == b.lhs and a.rhs == b.rhs and a.ty == b.ty
    if isinstance(a, EffForm):
        return a.eff == b.eff
    return a.low == b.low and a.high == b.high


# ------------------------------------------------------- nameless conversion


def nameless(s, under=()):
    """Locally nameless skeleton of a term or effect, for alpha-equality.

    ``under`` names enclosing binders, so open subtrees can be compared as
    abstractions.
    """

    def go(node, env, depth):
        match node:
            case Var(name=x):
                return ("b", env[x]) if x in env else ("v", x)
            case Pair(left=m, right=n):
                return ("pair", go(m, env, depth), go(n, env, depth))
            case LetPair(x=x, y=y, pair=m, body=n):
                inner = {**env, x: depth, y: depth + 1}
                return ("let", go(m, env, depth), go(n, inner, depth + 2))
            case Star():
                return ("star",)
            case Inl(arg=m):
                return ("inl", go(m, env, depth))
            case Inr(arg=m):
                return ("inr", go(m, env, depth))
            case Case(scrut=m, x=x, left=n, y=y, right=p):
                return (
                    "case",
                    go(m, env, depth),
                    go(n, {**env, x: depth}, depth + 1),
                    go(p, {**env, y: depth}, depth + 1),
                )
            case Measure(branches=bs):
                return ("measure",) + tuple(
                    (go(phi, env, depth), go(m, env, depth)) for phi, m in bs
                )
            case NewPlus():
                return ("plus",)
            case PauliX(arg=m):
                return ("X", go(m, env, depth))
            case PauliZ(arg=m):
                return ("Z", go(m, env, depth))
            case CZ(left=m, right=n):
                return ("E", go(m, env, depth), go(n, env, depth))
            case Ascribe(term=m):
                return go(m, env, depth)
            case Zero():
                return ("0",)
            case OSum(left=a, right=b):
                return ("o+", go(a, env, depth), go(b, env, depth))
            case Orth(arg=a):
                return ("bot", go(a, env, depth))
            case SMul(scalar=a, body=b):
                return ("smul", go(a, env, depth), go(b, env, depth))
            case CaseEff(scrut=m, x=x, left=a, y=y, right=b):
                return (
                    "caseE",
                    go(m, env, depth),
                    go(a, {**env, x: depth}, depth + 1),
                    go(b, {**env, y: depth}, depth + 1),
                )
            case ScalarLit(value=v):
                return ("lit", v)
            case ProjPlus(term=m, angle=a):
                return ("proj", go(m, env, depth), a)
            case _:
                raise TypeError(f"not syntax: {node!r}")

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


def free_vars(s) -> frozenset[str]:
    try:
        return s._free_vars
    except AttributeError:
        pass
    fvs = _free_vars(s)
    object.__setattr__(s, "_free_vars", fvs)
    return fvs


def _free_vars(s) -> frozenset[str]:
    match s:
        case Var(name=x):
            return frozenset({x})
        case Pair(left=m, right=n) | CZ(left=m, right=n):
            return free_vars(m) | free_vars(n)
        case LetPair(x=x, y=y, pair=m, body=n):
            return free_vars(m) | (free_vars(n) - {x, y})
        case Star() | NewPlus() | Zero() | ScalarLit():
            return frozenset()
        case Inl(arg=m) | Inr(arg=m) | PauliX(arg=m) | PauliZ(arg=m) | Orth(arg=m):
            return free_vars(m)
        case Ascribe(term=m):
            return free_vars(m)
        case Case(scrut=m, x=x, left=n, y=y, right=p) | CaseEff(
            scrut=m, x=x, left=n, y=y, right=p
        ):
            return free_vars(m) | (free_vars(n) - {x}) | (free_vars(p) - {y})
        case Measure(branches=bs):
            out = frozenset()
            for phi, m in bs:
                out |= free_vars(phi) | free_vars(m)
            return out
        case OSum(left=a, right=b) | SMul(scalar=a, body=b):
            return free_vars(a) | free_vars(b)
        case ProjPlus(term=m):
            return free_vars(m)
        case _:
            raise TypeError(f"not syntax: {s!r}")


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
    names = _bound_names(s)
    if isinstance(s, (LetPair, Case, CaseEff)):
        object.__setattr__(s, "_bound_names", names)
    return names


def _bound_names(s) -> frozenset[str]:
    match s:
        case Var() | Star() | NewPlus() | Zero() | ScalarLit():
            return frozenset()
        case Pair(left=m, right=n) | CZ(left=m, right=n) | OSum(left=m, right=n) | SMul(
            scalar=m, body=n
        ):
            return bound_names(m) | bound_names(n)
        case LetPair(x=x, y=y, pair=m, body=n):
            return frozenset({x, y}) | bound_names(m) | bound_names(n)
        case Inl(arg=m) | Inr(arg=m) | PauliX(arg=m) | PauliZ(arg=m) | Orth(arg=m):
            return bound_names(m)
        case Ascribe(term=m):
            return bound_names(m)
        case Case(scrut=m, x=x, left=n, y=y, right=p) | CaseEff(
            scrut=m, x=x, left=n, y=y, right=p
        ):
            return frozenset({x, y}) | bound_names(m) | bound_names(n) | bound_names(p)
        case Measure(branches=bs):
            out = frozenset()
            for phi, m in bs:
                out |= bound_names(phi) | bound_names(m)
            return out
        case ProjPlus(term=m):
            return bound_names(m)
        case _:
            raise TypeError(f"not syntax: {s!r}")


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
        match node:
            case Var(name=x):
                return active.get(x, node)
            case Pair(left=m, right=n):
                return Pair(go(m, active), go(n, active))
            case LetPair(x=x, y=y, pair=m, body=n):
                (x2, y2), n2, live = rebind([x, y], n, active)
                return LetPair(x2, y2, go(m, active), go(n2, live))
            case Star() | NewPlus() | Zero() | ScalarLit():
                return node
            case Inl(arg=m):
                return Inl(go(m, active))
            case Inr(arg=m):
                return Inr(go(m, active))
            case Case(scrut=m, x=x, left=n, y=y, right=p):
                (x2,), n2, live_l = rebind([x], n, active)
                (y2,), p2, live_r = rebind([y], p, active)
                return Case(go(m, active), x2, go(n2, live_l), y2, go(p2, live_r))
            case Measure(branches=bs):
                return Measure(tuple((go(phi, active), go(m, active)) for phi, m in bs))
            case PauliX(arg=m):
                return PauliX(go(m, active))
            case PauliZ(arg=m):
                return PauliZ(go(m, active))
            case CZ(left=m, right=n):
                return CZ(go(m, active), go(n, active))
            case Ascribe(term=m, ty=ty):
                return Ascribe(go(m, active), ty)
            case OSum(left=a, right=b):
                return OSum(go(a, active), go(b, active))
            case Orth(arg=a):
                return Orth(go(a, active))
            case SMul(scalar=a, body=b):
                return SMul(go(a, active), go(b, active))
            case CaseEff(scrut=m, x=x, left=a, y=y, right=b):
                (x2,), a2, live_l = rebind([x], a, active)
                (y2,), b2, live_r = rebind([y], b, active)
                return CaseEff(go(m, active), x2, go(a2, live_l), y2, go(b2, live_r))
            case ProjPlus(term=m, angle=ang):
                return ProjPlus(go(m, active), ang)
            case _:
                raise TypeError(f"not syntax: {node!r}")

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
    if all(_same(getattr(node, k), v) for k, v in parts.items()):
        return node
    return replace(node, **parts)


def erase_ascriptions(s):
    """Drop every surface type ascription from a term or effect; a tree
    without one is returned itself."""
    e = erase_ascriptions
    match s:
        case Ascribe(term=m):
            return e(m)
        case Var() | Star() | NewPlus() | Zero() | ScalarLit():
            return s
        case Pair(left=m, right=n) | CZ(left=m, right=n) | OSum(left=m, right=n):
            return rebuilt(s, left=e(m), right=e(n))
        case LetPair(pair=m, body=n):
            return rebuilt(s, pair=e(m), body=e(n))
        case Inl(arg=m) | Inr(arg=m) | PauliX(arg=m) | PauliZ(arg=m) | Orth(arg=m):
            return rebuilt(s, arg=e(m))
        case Case(scrut=m, left=n, right=p) | CaseEff(scrut=m, left=n, right=p):
            return rebuilt(s, scrut=e(m), left=e(n), right=e(p))
        case Measure(branches=bs):
            return rebuilt(s, branches=tuple((e(phi), e(t)) for phi, t in bs))
        case SMul(scalar=a, body=b):
            return rebuilt(s, scalar=e(a), body=e(b))
        case ProjPlus(term=m):
            return rebuilt(s, term=e(m))
    raise TypeError(f"not syntax: {s!r}")
