"""Typing and effect formation with affine contexts.

Checking is directed: a term is checked against a given type, with synthesis
as a convenience for scrutinee positions (sum injections cannot be inferred;
write a ``(M : A)`` ascription there).

The formation rules are stated once, as schemas in `rules`: unit, tensor,
let, inl, inr, case, eff-0 through eff-case and qbit-new through qbit-proj
as patterns, which also name the message for a term of the wrong type, and
var and measure as code, as they read the context or range over branches.
A premise that binds (of let, case and caseE) is renamed away from its
zone by `Premise.to_judgement` alone.  Each term and effect constructor
names its rule (`TERM_RULES`, `EFFECT_RULES`); `_derive` instantiates that
schema at the goal, splits the goal context among the schema's zones with
`split_zones`, the split the derivation checker and the search use too, and
discharges the premises in order: typing and formation premises by
recursion, inequality premises through the `Resolver`.  Each
variable may be consumed at most once across the zones; unused variables
are allowed everywhere and go to the zone of the last premise.

What this module adds to the schemas: ascriptions, the unbound-variable
check, synthesis of the scrutinee type of let, case and caseE (passed to the
schema as its `ty` argument), the rule `lit` of scalar literals, the check
that a scalar factor is closed, and forming the summands of o+ and the
branch effects of measure before their inequality premise, so that attached
scripts meet the obligations in source order; those formation derivations
stay on the node for the interpreter.  Accepted judgements come with a
derivation whose nodes are instances of the schemas, with every ascription
erased from their judgements, which the derivation checker re-validates and
the interpreter folds into a denotation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .printer import print_effect, print_term, print_type
from .rules import SCHEMAS, SYNTAX_SLOTS, Instantiation, Premise, RuleMismatch
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
    Judgement,
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
    erase_ascriptions,
    free_vars,
)


class QpelTypeError(Exception):
    pass


class ObligationError(QpelTypeError):
    """An orthogonality or coverage premise could not be discharged."""

    def __init__(self, judgement: EffLeq, detail=""):
        self.judgement = judgement
        extra = f": {detail}" if detail else ""
        super().__init__(
            "undischarged obligation "
            f"{show_judgement(judgement)}{extra}"
        )


def show_judgement(j: Judgement) -> str:
    names = ", ".join(f"{n} : {print_type(t)}" for n, t in j.ctx)
    pre = f"{names} |- " if names else "|- "
    if isinstance(j, Typing):
        return pre + f"{print_term(j.term)} : {print_type(j.ty)}"
    if isinstance(j, TermEq):
        return pre + f"{print_term(j.lhs)} = {print_term(j.rhs)} : {print_type(j.ty)}"
    if isinstance(j, EffForm):
        return pre + f"{print_effect(j.eff)} eff"
    return pre + f"{print_effect(j.low)} <= {print_effect(j.high)}"


@dataclass(frozen=True)
class Derivation:
    """An instance of rule `rule` concluding `judgement` from the derivations
    of its premises, `children`.  `formations` are the formation derivations
    of the effects an o+ or measure obligation is about: the type checker
    builds them, the interpreter reads them, and as they are not premises of
    the schema, scripts and rechecking ignore them.  The derivations of
    closed term declarations live as long as their file's report is built,
    for `check` to evaluate."""

    rule: str
    judgement: Judgement
    children: tuple = ()
    args: dict = field(default_factory=dict, compare=False)
    formations: tuple = field(default=(), compare=False, repr=False)


class Resolver:
    """Discharges the <= obligations embedded in o+ and measure."""

    def resolve(self, goal: EffLeq) -> Derivation:
        raise ObligationError(goal, "no resolver available")


# ------------------------------------------------------------------ splitting


def split_context(g: Context, parts: list) -> list[Context]:
    """Deterministic partition of a context among premise variable sets.

    Each variable goes to the part that needs it; a variable needed by two
    parts is a linearity violation; unused variables go to the last part.
    """
    needs = [frozenset(p) for p in parts]
    for i, a in enumerate(needs):
        for b in needs[i + 1 :]:
            overlap = a & b
            if overlap:
                overlap &= set(g.names())
            if overlap:
                raise QpelTypeError(
                    f"variable {sorted(overlap)[0]!r} is consumed in two places (no cloning)"
                )
    out = [[] for _ in parts]
    for entry in g.entries:
        for i, ns in enumerate(needs):
            if entry[0] in ns:
                out[i].append(entry)
                break
        else:
            out[-1].append(entry)
    return [Context(tuple(entries)) for entries in out]


_EMPTY = Context()


def _premise_need(p: Premise) -> frozenset:
    """The variables a premise takes from its zone."""
    fvs = free_vars(p.shape[1])
    if SYNTAX_SLOTS[p.shape[0]] == 2:
        fvs = fvs | free_vars(p.shape[2])
    return fvs - {n for n, _ in p.ext} if p.ext else fvs


def split_zones(g: Context, instn: Instantiation) -> dict:
    """The context of each zone of a rule instance whose conclusion context
    is g: zone name -> Context, with "" the empty context.

    Fixed entries are taken out first.  A premise in zone "" must not need
    anything from the pool that is left; the pool is split by
    `split_context` among the other zones by what their premises need, and
    the variables no premise needs go to the zone of the last premise that
    has one.
    """
    pool = g
    for entry in instn.fixed:
        if entry not in pool.entries:
            raise QpelTypeError(f"conclusion context must contain {entry[0]} : fixed binding")
        pool = Context(tuple(e for e in pool.entries if e != entry))
    zones = instn.zones
    if not zones and pool.entries:
        raise QpelTypeError(
            "this rule concludes in the empty context, but the goal context is not empty"
        )
    several = len(zones) > 1
    needs = {}
    last_open = zones[-1] if zones else ""
    for p in instn.premises:
        if not p.zone:
            stray = _premise_need(p)
            if stray:
                stray &= set(pool.names())
            if stray:
                raise QpelTypeError(f"premise must be closed but mentions {sorted(stray)[0]!r}")
        elif several:
            need = _premise_need(p)
            needs[p.zone] = needs[p.zone] | need if p.zone in needs else need
            last_open = p.zone
    if not several:
        # the one zone takes the whole pool; with no zone, the pool is empty
        return {"": _EMPTY, last_open: pool}
    order = zones
    if last_open != zones[-1]:
        order = [z for z in zones if z != last_open] + [last_open]
    bindings = dict(zip(order, split_context(pool, [needs.get(z, ()) for z in order])))
    bindings[""] = _EMPTY
    return bindings


# ------------------------------------------------------------------ synthesis


def synth_type(g: Context, m: Term, extra=()) -> Type | None:
    """Usage-blind type synthesis; None where the shape is ambiguous."""

    def go(t, env):  # env: the extra entries and binders, which shadow g
        match t:
            case Var(name=x):
                return env[x] if x in env else g.lookup(x)
            case Star():
                return TUnit()
            case Ascribe(ty=ty):
                return ty
            case Pair(left=a, right=b):
                ta, tb = go(a, env), go(b, env)
                return TTensor(ta, tb) if ta is not None and tb is not None else None
            case LetPair(x=x, y=y, pair=p, body=n):
                tp = go(p, env)
                if not isinstance(tp, TTensor):
                    return None
                return go(n, {**env, x: tp.left, y: tp.right})
            case Inl() | Inr():
                return None
            case Case(scrut=s, x=x, left=n, y=y, right=p):
                ts = go(s, env)
                if not isinstance(ts, TSum):
                    return None
                tl = go(n, {**env, x: ts.left})
                if tl is not None:
                    return tl
                return go(p, {**env, y: ts.right})
            case Measure(branches=bs):
                for _, t2 in bs:
                    ty = go(t2, env)
                    if ty is not None:
                        return ty
                return None
            case NewPlus() | PauliX() | PauliZ():
                return TQbit()
            case CZ():
                return TTensor(TQbit(), TQbit())
        return None

    return go(m, dict(extra))


# ------------------------------------------------------------------- checking

# The formation rule of each term and effect constructor; `lit`, the rule of
# scalar literals, is this checker's own extension and has no schema.
TERM_RULES = {
    Var: "var", Star: "unit", Pair: "tensor", LetPair: "let", Inl: "inl",
    Inr: "inr", Case: "case", Measure: "measure", NewPlus: "qbit-new",
    PauliX: "qbit-x", PauliZ: "qbit-z", CZ: "qbit-cz",
}
EFFECT_RULES = {
    Zero: "eff-0", Orth: "eff-bot", OSum: "eff-ovee", SMul: "eff-mult",
    CaseEff: "eff-case", ProjPlus: "qbit-proj",
}

# the synthesised scrutinee type of let, case and caseE: the type class it
# must have and how the message names it
_SCRUTINEES = {
    LetPair: (TTensor, "a tensor type for the let"),
    Case: (TSum, "a sum type for the case"),
    CaseEff: (TSum, "a sum type for the caseE"),
}


def _unbound(g: Context, s):
    """Raise unless g binds every free variable of s."""
    missing = free_vars(s) - set(g.names())
    if missing:
        raise QpelTypeError(f"unbound variable {sorted(missing)[0]!r}")


def check_term(g: Context, m: Term, ty: Type, resolver: Resolver) -> Derivation:
    """Decide the typing judgement; returns its derivation."""
    _unbound(g, m)
    return _derive(Typing(g, m, ty), resolver)


def check_effect(g: Context, e: Effect, resolver: Resolver) -> Derivation:
    """Decide the formation judgement; returns its derivation."""
    _unbound(g, e)
    return _derive(EffForm(g, e), resolver)


def _derive(goal, resolver: Resolver) -> Derivation:
    """A derivation of a typing or effect-formation goal whose free variables
    are all bound: the formation rule of the head constructor, its premises
    discharged in order (typing and formation by recursion, inequalities by
    the resolver)."""
    if type(goal) is Typing:
        node = goal.term
        while type(node) is Ascribe:
            if node.ty != goal.ty:
                raise QpelTypeError(
                    f"ascription {print_type(node.ty)} does not match expected {print_type(goal.ty)}"
                )
            node = node.term
            goal = Typing(goal.ctx, node, goal.ty)
        name = TERM_RULES.get(type(node))
        if name is None:
            raise QpelTypeError(f"not a term: {node!r}")
    else:
        node = goal.eff
        name = EFFECT_RULES.get(type(node))
        if name is None:
            if type(node) is ScalarLit:
                return Derivation("lit", goal)
            raise QpelTypeError(f"not an effect: {node!r}")
        if name == "eff-mult" and free_vars(node.scalar):
            raise QpelTypeError(f"scalar factor {print_effect(node.scalar)} must be closed")

    args = {}
    scrutinee = _SCRUTINEES.get(type(node))
    if scrutinee is not None:
        s = node.pair if type(node) is LetPair else node.scrut
        ts = synth_type(goal.ctx, s)
        if not isinstance(ts, scrutinee[0]):
            raise QpelTypeError(
                f"cannot infer {scrutinee[1]} scrutinee {print_term(s)}; ascribe it"
            )
        args = {"ty": ts}
    try:
        # with `ty` given, no formation schema synthesises a type
        (instn,) = SCHEMAS[name].match(goal, args, None)
    except RuleMismatch as exc:
        raise QpelTypeError(str(exc)) from None
    zones = split_zones(goal.ctx, instn)

    # the summands of a sum and the branch effects of a measurement form
    # before their inequality premise is resolved, so that attached scripts
    # meet the obligations in source order
    effects = ()
    if name == "eff-ovee":
        effects = (node.left, node.right)
    elif name == "measure":
        effects = tuple(phi for phi, _ in node.branches)
    formations = tuple(_derive(EffForm(zones["G"], phi), resolver) for phi in effects)

    # A derivation's judgement holds no ascription, and _derive returns its
    # own goal when that has none; so the goal here holds one below its head
    # exactly when a derived premise or formation comes back with another.
    ascribed = any(f.judgement.eff is not phi for f, phi in zip(formations, effects))
    children = []
    for p in instn.premises:
        j = p.to_judgement(zones[p.zone])
        if p.shape[0] == "leq":
            children.append(resolver.resolve(j))
            continue
        d = _derive(j, resolver)
        ascribed = ascribed or d.judgement is not j
        children.append(d)
    if ascribed:
        if type(goal) is Typing:
            goal = Typing(goal.ctx, erase_ascriptions(node), goal.ty)
        else:
            goal = EffForm(goal.ctx, erase_ascriptions(node))
    return Derivation(name, goal, tuple(children), args, formations)


# -------------------------------------------------- judgement-level checking


def check_judgement(j: Judgement, resolver: Resolver):
    """Check every component of a judgement.  Returns the ascription-erased
    judgement, ready for derivation checking, with the derivations of its
    components (one for a typing or a formation, two for an equation or an
    inequality)."""
    if isinstance(j, Typing):
        d = check_term(j.ctx, j.term, j.ty, resolver)
        return d.judgement, (d,)
    if isinstance(j, TermEq):
        dl = check_term(j.ctx, j.lhs, j.ty, resolver)
        dr = check_term(j.ctx, j.rhs, j.ty, resolver)
        return TermEq(j.ctx, dl.judgement.term, dr.judgement.term, j.ty), (dl, dr)
    if isinstance(j, EffForm):
        d = check_effect(j.ctx, j.eff, resolver)
        return d.judgement, (d,)
    if isinstance(j, EffLeq):
        dl = check_effect(j.ctx, j.low, resolver)
        dh = check_effect(j.ctx, j.high, resolver)
        return EffLeq(j.ctx, dl.judgement.eff, dh.judgement.eff), (dl, dh)
    raise TypeError(j)
