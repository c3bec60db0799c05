"""Deduction rule schemas.

Each schema matches a candidate conclusion, reads off the rule's metavariables
(consulting explicit script arguments where the conclusion does not determine
them), and produces the list of premises together with the context zones the
conclusion is assembled from.  `typecheck.split_zones` splits a goal context
among those zones, for the type checker, the script checker in `derivation`
and its search alike.  The formation schemas (var through measure, eff-0
through eff-case, qbit-new through qbit-proj) are the type checker's rules
too, so their messages are its user-facing ones.  The inequality schemas
that the search tries have heads: the (low, high) effect classes a
conclusion they match can have, by which the search indexes them.

Pattern rules are data: a conclusion and premises over metavariables, which
one interpreter matches and from whose conclusions their heads are read.
They are the first-order rules zero-leq through comm, and case-cong,
case-ovee, case-bot and case-times, whose conclusions bind: their
metavariables stand for effects, for the scrutinee of caseE, for its binder
names and, in premises, for the scrutinee's sum type.  The other search
rules are code and declare their heads, since no pattern says what they do:
case-mono and case-leq freshen their binders against the goal, the
beta-plus-*-eff rules substitute in their conclusion, eta-plus-eff looks up
the context, and qbit-x-proj, qbit-z-proj and qbit-xz-zx relate projection
angles, which a `ProjPlus` checks when it is built, so no pattern can hold
an angle metavariable.  leq-ref stays code for its heads: each effect
class paired with itself, finer than the pair a pattern (phi, phi) gives.

Premise shapes use zone variables: a premise context is one zone plus bound
extensions, and the conclusion context is the disjoint union of the listed
zones plus any fixed entries.  A zone name of "" demands the empty context.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .printer import print_type
from .syntax import (
    Case,
    CaseEff,
    Context,
    CZ,
    EffForm,
    Effect,
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
    SHAPES,
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
    abstraction_eq,
    bound_names,
    free_vars,
    fresh,
    is_one,
    one,
    ovee_all,
    subst,
    subst_many,
)


class RuleMismatch(Exception):
    """Raised when a conclusion does not instantiate the named schema.

    The message may be a function giving it, so that search, which discards
    most mismatches, does not format the syntax they name."""

    def __str__(self):
        msg = self.args[0]
        return msg() if callable(msg) else msg


def need(cond, msg):
    if not cond:
        raise RuleMismatch(msg)


def need_arg(args, key, rule):
    if key not in args:
        raise RuleMismatch(f"rule {rule} needs an explicit argument {key!r} here")
    return args[key]


# premise goal shapes: ("ty", m, a) ("eq", m, n, a) ("eff", e) ("leq", lo, hi)
# ("equiv", a, b); the number of terms and effects after the kind tag
SYNTAX_SLOTS = {"ty": 1, "eq": 2, "eff": 1, "leq": 2, "equiv": 2}


# Premise and Instantiation are named tuples because the type checker builds
# them at every node it checks, and a tuple is the cheapest record to build.
class Premise(NamedTuple):
    zone: str
    shape: tuple
    ext: tuple = ()

    def to_judgement(self, zone_ctx: Context):
        """The premise judgement over `zone_ctx`; an "equiv" premise gives its
        forward inequality.  An `ext` binder that clashes with a zone name is
        renamed in the shape, so the binder shadows as it does in the
        conclusion."""
        shape, g = self.shape, zone_ctx
        if self.ext:
            try:
                g = Context(zone_ctx.entries + self.ext)
            except ValueError:
                shape, ext = self._rebind({n for n, _ in zone_ctx.entries})
                g = Context(zone_ctx.entries + ext)
        kind = shape[0]
        if kind == "ty":
            return Typing(g, shape[1], shape[2])
        if kind == "eq":
            return TermEq(g, shape[1], shape[2], shape[3])
        if kind == "eff":
            return EffForm(g, shape[1])
        return EffLeq(g, shape[1], shape[2])

    def _rebind(self, taken):
        """The shape and ext with each ext binder in taken renamed, in the
        terms and effects of the shape, where ext binds."""
        parts = self.shape[1 : 1 + SYNTAX_SLOTS[self.shape[0]]]
        avoid = set(taken) | {n for n, _ in self.ext}
        avoid |= frozenset().union(*(free_vars(s) for s in parts))
        renames, ext = {}, []
        for n, t in self.ext:
            if n in taken:
                n2 = fresh(n, avoid)
                avoid.add(n2)
                renames[n] = Var(n2)
                n = n2
            ext.append((n, t))
        parts = tuple(subst_many(s, renames) for s in parts)
        return (self.shape[0],) + parts + self.shape[1 + len(parts) :], tuple(ext)


class Instantiation(NamedTuple):
    premises: tuple
    zones: tuple
    fixed: tuple = ()


@dataclass(frozen=True)
class Schema:
    name: str
    pack: str
    match: object = field(compare=False)  # fn(goal, args, synth) -> [Instantiation]
    # for a rule the search tries, the (low, high) effect classes of its
    # conclusions: one whose sides are of no listed pair cannot match;
    # `Effect` stands for any effect
    heads: tuple | None = None

    def admits(self, low: type, high: type) -> bool:
        """Whether a conclusion with sides of these classes may match."""
        return any(issubclass(low, lo) and issubclass(high, hi) for lo, hi in self.heads)


# the one instance of a rule without premises: its conclusion in any context
AXIOM = (Instantiation((), ("G",)),)


def p_ty(zone, m, a, ext=()):
    return Premise(zone, ("ty", m, a), tuple(ext))


def p_eq(zone, m, n, a, ext=()):
    return Premise(zone, ("eq", m, n, a), tuple(ext))


def p_eff(zone, e, ext=()):
    return Premise(zone, ("eff", e), tuple(ext))


def p_leq(zone, lo, hi, ext=()):
    return Premise(zone, ("leq", lo, hi), tuple(ext))


def p_equiv(zone, a, b, ext=()):
    return Premise(zone, ("equiv", a, b), tuple(ext))


def inst(premises, zones, fixed=()):
    return Instantiation(tuple(premises), tuple(zones), tuple(fixed))


def scrut_type(m, args, synth, extra=(), key="ty"):
    """The type of a scrutinee: explicit argument first, synthesis second."""
    if key in args:
        return args[key]
    t = synth(m, extra)
    if t is None:
        raise RuleMismatch(lambda: f"cannot infer the type of {m!r}; supply the {key!r} argument")
    return t


def as_sum(t, what):
    if not isinstance(t, TSum):
        raise RuleMismatch(lambda: f"{what} must have a sum type, got {t!r}")
    return t.left, t.right


def as_tensor(t, what):
    if not isinstance(t, TTensor):
        raise RuleMismatch(lambda: f"{what} must have a tensor type, got {t!r}")
    return t.left, t.right


def fresh_pair(base1, base2, avoid):
    x = fresh(base1, avoid)
    y = fresh(base2, set(avoid) | {x})
    return x, y


def need_type(ty, cls, what):
    """A `what` must have a type of class cls."""
    if not isinstance(ty, cls):
        raise RuleMismatch(f"{what} cannot have type {print_type(ty)}")


def alpha2(got, want, what):
    if got != want:
        raise RuleMismatch(lambda: f"{what}: expected {want!r}, found {got!r}")


def both_readings(goal: EffLeq):
    return [(goal.low, goal.high), (goal.high, goal.low)]


def angle_neg(q: Fraction) -> Fraction:
    return (-q) % 2


def angle_minus_pi(q: Fraction) -> Fraction:
    return (q - 1) % 2


# --------------------------------------------------------------------- schemas


SCHEMAS: dict[str, Schema] = {}

# the effect constructors, for head declarations
EFFECTS = tuple(c for c in SHAPES if issubclass(c, Effect))


def rule(name, pack="core", heads=None):
    def deco(fn):
        SCHEMAS[name] = Schema(name, pack, fn, None if heads is None else tuple(heads))
        return fn

    return deco


# ---- structural


@rule("exch")
def _exch(goal, args, synth):
    if isinstance(goal, Typing):
        shape = ("ty", goal.term, goal.ty)
    elif isinstance(goal, TermEq):
        shape = ("eq", goal.lhs, goal.rhs, goal.ty)
    elif isinstance(goal, EffForm):
        shape = ("eff", goal.eff)
    else:
        shape = ("leq", goal.low, goal.high)
    return [inst([Premise("G", shape)], ["G"])]


# ---- term formation


@rule("var")
def _var(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, Var), "conclusion is not a variable typing")
    x = goal.term.name
    ty = goal.ctx.lookup(x)
    if ty is None:
        raise RuleMismatch(f"unbound variable {x!r}")
    if ty != goal.ty:
        raise RuleMismatch(
            f"variable {x} has type {print_type(ty)}, expected {print_type(goal.ty)}"
        )
    return AXIOM


@rule("tensor")
def _tensor(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, Pair), "conclusion is not a pair typing")
    need_type(goal.ty, TTensor, "a pair")
    a, b = goal.ty.left, goal.ty.right
    return [inst([p_ty("G", goal.term.left, a), p_ty("D", goal.term.right, b)], ["G", "D"])]


@rule("let")
def _let(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, LetPair), "conclusion is not a let typing")
    t = goal.term
    ab = scrut_type(t.pair, args, synth)
    a, b = as_tensor(ab, "the let scrutinee")
    x, y, body = _freshen2(t.x, t.y, t.body, goal.ctx.names())
    return [
        inst(
            [p_ty("G", t.pair, ab), p_ty("D", body, goal.ty, ext=((x, a), (y, b)))],
            ["G", "D"],
        )
    ]


@rule("unit")
def _unit(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, Star), "conclusion is not a unit typing")
    need_type(goal.ty, TUnit, "unit value")
    return AXIOM


@rule("inl")
def _inl(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, Inl), "conclusion is not an inl typing")
    need_type(goal.ty, TSum, "inl")
    return [inst([p_ty("G", goal.term.arg, goal.ty.left)], ["G"])]


@rule("inr")
def _inr(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, Inr), "conclusion is not an inr typing")
    need_type(goal.ty, TSum, "inr")
    return [inst([p_ty("G", goal.term.arg, goal.ty.right)], ["G"])]


@rule("case")
def _case(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, Case), "conclusion is not a case typing")
    t = goal.term
    ab = scrut_type(t.scrut, args, synth)
    a, b = as_sum(ab, "the case scrutinee")
    x, left, y, right = _freshen_branches(t, goal.ctx.names())
    return [
        inst(
            [
                p_ty("G", t.scrut, ab),
                p_ty("D", left, goal.ty, ext=((x, a),)),
                p_ty("D", right, goal.ty, ext=((y, b),)),
            ],
            ["G", "D"],
        )
    ]


@rule("measure")
def _measure(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, Measure), "conclusion is not a measure typing")
    bs = goal.term.branches
    prem = [p_leq("G", one(), ovee_all([phi for phi, _ in bs]))]
    prem += [p_ty("D", m, goal.ty) for _, m in bs]
    return [inst(prem, ["G", "D"])]


# ---- equality scaffolding


@rule("ref")
def _ref(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    need(goal.lhs == goal.rhs, "the two sides are not alpha-equal")
    return [inst([p_ty("G", goal.lhs, goal.ty)], ["G"])]


@rule("sym")
def _sym(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    return [inst([p_eq("G", goal.rhs, goal.lhs, goal.ty)], ["G"])]


@rule("trans")
def _trans(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    mid = need_arg(args, "via", "trans")
    return [
        inst(
            [p_eq("G", goal.lhs, mid, goal.ty), p_eq("G", mid, goal.rhs, goal.ty)],
            ["G"],
        )
    ]


# ---- congruences


@rule("tensor-eq")
def _tensor_eq(goal, args, synth):
    need(
        isinstance(goal, TermEq) and isinstance(goal.lhs, Pair) and isinstance(goal.rhs, Pair),
        "both sides must be pairs",
    )
    a, b = as_tensor(goal.ty, "a pair equality")
    return [
        inst(
            [
                p_eq("G", goal.lhs.left, goal.rhs.left, a),
                p_eq("D", goal.lhs.right, goal.rhs.right, b),
            ],
            ["G", "D"],
        )
    ]


def freshen_binder(x, body, avoid):
    """Rename binder x of body away from the names in avoid."""
    if x in avoid:
        x2 = fresh(x, set(avoid) | free_vars(body) | bound_names(body))
        return x2, subst(body, x, Var(x2))
    return x, body


def _freshen2(x, y, body, avoid):
    avoid = set(avoid)
    x2, body = freshen_binder(x, body, avoid)
    y2, body = freshen_binder(y, body, avoid | {x2})
    return x2, y2, body


def _freshen_branches(c, avoid):
    """The binders and branches of a case or caseE, renamed away from avoid
    and the second binder away from the first."""
    avoid = set(avoid)
    x, left = freshen_binder(c.x, c.left, avoid)
    y, right = freshen_binder(c.y, c.right, avoid | {x})
    return x, left, y, right


def _align_let(l: LetPair, r: LetPair, avoid):
    """Rename both lets to shared fresh binders; returns (x, y, bodyL, bodyR)."""
    avoid = set(avoid) | free_vars(l) | free_vars(r) | bound_names(l) | bound_names(r)
    x, y = fresh_pair(l.x, l.y, avoid)
    bl = subst_many(l.body, {l.x: Var(x), l.y: Var(y)})
    br = subst_many(r.body, {r.x: Var(x), r.y: Var(y)})
    return x, y, bl, br


def _align_case(l, r, avoid):
    avoid = set(avoid) | free_vars(l) | free_vars(r) | bound_names(l) | bound_names(r)
    x = fresh(l.x, avoid)
    y = fresh(l.y, avoid | {x})
    ll = subst(l.left, l.x, Var(x))
    rl = subst(r.left, r.x, Var(x))
    lr = subst(l.right, l.y, Var(y))
    rr = subst(r.right, r.y, Var(y))
    return x, y, ll, rl, lr, rr


@rule("let-eq")
def _let_eq(goal, args, synth):
    need(
        isinstance(goal, TermEq) and isinstance(goal.lhs, LetPair) and isinstance(goal.rhs, LetPair),
        "both sides must be lets",
    )
    l, r = goal.lhs, goal.rhs
    ab = scrut_type(l.pair, args, synth)
    a, b = as_tensor(ab, "the let scrutinee")
    x, y, bl, br = _align_let(l, r, goal.ctx.names())
    return [
        inst(
            [
                p_eq("G", l.pair, r.pair, ab),
                p_eq("D", bl, br, goal.ty, ext=((x, a), (y, b))),
            ],
            ["G", "D"],
        )
    ]


@rule("inl-eq")
def _inl_eq(goal, args, synth):
    need(
        isinstance(goal, TermEq) and isinstance(goal.lhs, Inl) and isinstance(goal.rhs, Inl),
        "both sides must be inl",
    )
    a, b = as_sum(goal.ty, "inl")
    return [inst([p_eq("G", goal.lhs.arg, goal.rhs.arg, a)], ["G"])]


@rule("inr-eq")
def _inr_eq(goal, args, synth):
    need(
        isinstance(goal, TermEq) and isinstance(goal.lhs, Inr) and isinstance(goal.rhs, Inr),
        "both sides must be inr",
    )
    a, b = as_sum(goal.ty, "inr")
    return [inst([p_eq("G", goal.lhs.arg, goal.rhs.arg, b)], ["G"])]


@rule("case-eq")
def _case_eq(goal, args, synth):
    need(
        isinstance(goal, TermEq) and isinstance(goal.lhs, Case) and isinstance(goal.rhs, Case),
        "both sides must be cases",
    )
    l, r = goal.lhs, goal.rhs
    ab = scrut_type(l.scrut, args, synth)
    a, b = as_sum(ab, "the case scrutinee")
    x, y, ll, rl, lr, rr = _align_case(l, r, goal.ctx.names())
    return [
        inst(
            [
                p_eq("G", l.scrut, r.scrut, ab),
                p_eq("D", ll, rl, goal.ty, ext=((x, a),)),
                p_eq("D", lr, rr, goal.ty, ext=((y, b),)),
            ],
            ["G", "D"],
        )
    ]


@rule("measure-eq")
def _measure_eq(goal, args, synth):
    need(
        isinstance(goal, TermEq)
        and isinstance(goal.lhs, Measure)
        and isinstance(goal.rhs, Measure),
        "both sides must be measures",
    )
    bl, br = goal.lhs.branches, goal.rhs.branches
    need(len(bl) == len(br), "branch counts differ")
    prem = [p_leq("G", one(), ovee_all([phi for phi, _ in bl]))]
    prem += [p_equiv("G", phi, psi) for (phi, _), (psi, _) in zip(bl, br)]
    prem += [p_eq("D", m, n, goal.ty) for (_, m), (_, n) in zip(bl, br)]
    return [inst(prem, ["G", "D"])]


# ---- beta conversions


@rule("beta-tensor")
def _beta_tensor(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    l = goal.lhs
    need(
        isinstance(l, LetPair) and isinstance(l.pair, Pair),
        "left side must be `let x * y = M * N in P`",
    )
    m, n = l.pair.left, l.pair.right
    if "ty" in args:
        a, b = as_tensor(args["ty"], "the pair")
    else:
        a = synth(m, ())
        b = synth(n, ())
        need(a is not None and b is not None, "cannot infer pair component types; supply `ty`")
    alpha2(goal.rhs, subst_many(l.body, {l.x: m, l.y: n}), "right side")
    return [
        inst(
            [
                p_ty("G", m, a),
                p_ty("D", n, b),
                p_ty("T", l.body, goal.ty, ext=((l.x, a), (l.y, b))),
            ],
            ["G", "D", "T"],
        )
    ]


@rule("beta-plus-1")
def _beta_plus_1(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    l = goal.lhs
    need(isinstance(l, Case) and isinstance(l.scrut, Inl), "left side must be `case inl M of ...`")
    m = l.scrut.arg
    ab = args.get("ty")
    need(ab is not None, "beta-plus-1 needs the `ty` argument (the scrutinee sum type)")
    a, b = as_sum(ab, "the scrutinee")
    alpha2(goal.rhs, subst(l.left, l.x, m), "right side")
    return [
        inst(
            [
                p_ty("G", m, a),
                p_ty("D", l.left, goal.ty, ext=((l.x, a),)),
                p_ty("D", l.right, goal.ty, ext=((l.y, b),)),
            ],
            ["G", "D"],
        )
    ]


@rule("beta-plus-2")
def _beta_plus_2(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    l = goal.lhs
    need(isinstance(l, Case) and isinstance(l.scrut, Inr), "left side must be `case inr M of ...`")
    m = l.scrut.arg
    ab = args.get("ty")
    need(ab is not None, "beta-plus-2 needs the `ty` argument (the scrutinee sum type)")
    a, b = as_sum(ab, "the scrutinee")
    alpha2(goal.rhs, subst(l.right, l.y, m), "right side")
    return [
        inst(
            [
                p_ty("G", m, b),
                p_ty("D", l.left, goal.ty, ext=((l.x, a),)),
                p_ty("D", l.right, goal.ty, ext=((l.y, b),)),
            ],
            ["G", "D"],
        )
    ]


# ---- eta conversions


@rule("eta-tensor")
def _eta_tensor(goal, args, synth):
    need(isinstance(goal, TermEq) and isinstance(goal.ty, TTensor), "needs a tensor-typed equality")
    r = goal.rhs
    need(isinstance(r, LetPair), "right side must be `let x * y = M in x * y`")
    need(r.body == Pair(Var(r.x), Var(r.y)), "let body must repack its binders")
    alpha2(r.pair, goal.lhs, "let scrutinee")
    return [inst([p_ty("G", goal.lhs, goal.ty)], ["G"])]


@rule("eta-unit")
def _eta_unit(goal, args, synth):
    need(
        isinstance(goal, TermEq) and isinstance(goal.ty, TUnit) and isinstance(goal.rhs, Star),
        "conclusion must equate a unit-typed term with `unit`",
    )
    return [inst([p_ty("G", goal.lhs, goal.ty)], ["G"])]


@rule("eta-plus")
def _eta_plus(goal, args, synth):
    need(isinstance(goal, TermEq) and isinstance(goal.ty, TSum), "needs a sum-typed equality")
    r = goal.rhs
    need(isinstance(r, Case), "right side must be an identity case")
    need(
        r.left == Inl(Var(r.x)) and r.right == Inr(Var(r.y)),
        "case branches must re-inject their binders",
    )
    alpha2(r.scrut, goal.lhs, "case scrutinee")
    return [inst([p_ty("G", goal.lhs, goal.ty)], ["G"])]


# ---- commuting conversions


@rule("let-commute")
def _let_commute(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    l = goal.lhs
    need(
        isinstance(l, LetPair) and isinstance(l.body, LetPair),
        "left side must be `let x*y = M in let t*u = N in P`",
    )
    inner = l.body
    m, n, p = l.pair, inner.pair, inner.body
    ab = scrut_type(m, args, synth)
    a, b = as_tensor(ab, "the outer scrutinee")
    cd = scrut_type(n, args, synth, extra=((l.x, a), (l.y, b)), key="ty2")
    c, d = as_tensor(cd, "the inner scrutinee")
    expected = _mk_let(inner.x, inner.y, _mk_let(l.x, l.y, m, n), p)
    alpha2(goal.rhs, expected, "right side")
    return [
        inst(
            [
                p_ty("G", m, ab),
                p_ty("D", n, cd, ext=((l.x, a), (l.y, b))),
                p_ty("T", p, goal.ty, ext=((inner.x, c), (inner.y, d))),
            ],
            ["G", "D", "T"],
        )
    ]


def _mk_let(x, y, pair, body):
    """LetPair that freshens binders against the scrutinee's free variables."""
    clash = free_vars(pair) & {x, y}
    if clash:
        avoid = free_vars(pair) | free_vars(body) | bound_names(body) | {x, y}
        x2, y2 = fresh_pair(x, y, avoid)
        body = subst_many(body, {x: Var(x2), y: Var(y2)})
        x, y = x2, y2
    return LetPair(x, y, pair, body)


def _mk_case(scrut, x, left, y, right):
    clash = free_vars(scrut) & {x, y}
    if clash:
        avoid = free_vars(scrut) | free_vars(left) | free_vars(right) | bound_names(left) | bound_names(right) | {x, y}
        x2 = fresh(x, avoid)
        y2 = fresh(y, avoid | {x2})
        left = subst(left, x, Var(x2))
        right = subst(right, y, Var(y2))
        x, y = x2, y2
    return Case(scrut, x, left, y, right)


@rule("let-case")
def _let_case(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    l = goal.lhs
    need(
        isinstance(l, LetPair) and isinstance(l.pair, Case),
        "left side must be `let z*t = case M of ... in Q`",
    )
    cs = l.pair
    m, n, p, q = cs.scrut, cs.left, cs.right, l.body
    ab = scrut_type(m, args, synth)
    a, b = as_sum(ab, "the case scrutinee")
    cd = scrut_type(n, args, synth, extra=((cs.x, a),), key="ty2")
    c, d = as_tensor(cd, "the case branches")
    expected = _mk_case(
        m, cs.x, _mk_let(l.x, l.y, n, q), cs.y, _mk_let(l.x, l.y, p, q)
    )
    alpha2(goal.rhs, expected, "right side")
    return [
        inst(
            [
                p_ty("G", m, ab),
                p_ty("D", n, cd, ext=((cs.x, a),)),
                p_ty("D", p, cd, ext=((cs.y, b),)),
                p_ty("T", q, goal.ty, ext=((l.x, c), (l.y, d))),
            ],
            ["G", "D", "T"],
        )
    ]


@rule("let-tensor")
def _let_tensor(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    l = goal.lhs
    need(
        isinstance(l, Pair) and isinstance(l.left, LetPair),
        "left side must be `(let x*y = M in N) * P`",
    )
    lt, p = l.left, l.right
    c, d = as_tensor(goal.ty, "the conclusion")
    ab = scrut_type(lt.pair, args, synth)
    a, b = as_tensor(ab, "the let scrutinee")
    expected = _mk_let(lt.x, lt.y, lt.pair, Pair(lt.body, p))
    alpha2(goal.rhs, expected, "right side")
    return [
        inst(
            [
                p_ty("G", lt.pair, ab),
                p_ty("D", lt.body, c, ext=((lt.x, a), (lt.y, b))),
                p_ty("T", p, d),
            ],
            ["G", "D", "T"],
        )
    ]


@rule("case-commute")
def _case_commute(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    l = goal.lhs
    need(
        isinstance(l, Case) and isinstance(l.left, Case) and isinstance(l.right, Case),
        "left side must be a case of cases",
    )
    m = l.scrut
    inl_case, inr_case = l.left, l.right
    n, p = inl_case.scrut, inr_case.scrut
    q, r = inl_case.left, inl_case.right
    need(
        abstraction_eq([inr_case.x], inr_case.left, [inl_case.x], q)
        and abstraction_eq([inr_case.y], inr_case.right, [inl_case.y], r),
        "the two inner cases must share their branches",
    )
    ab = scrut_type(m, args, synth)
    a, b = as_sum(ab, "the outer scrutinee")
    cd = scrut_type(n, args, synth, extra=((l.x, a),), key="ty2")
    c, d = as_sum(cd, "the inner scrutinee")
    expected = _mk_case(_mk_case(m, l.x, n, l.y, p), inl_case.x, q, inl_case.y, r)
    alpha2(goal.rhs, expected, "right side")
    return [
        inst(
            [
                p_ty("G", m, ab),
                p_ty("D", n, cd, ext=((l.x, a),)),
                p_ty("D", p, cd, ext=((l.y, b),)),
                p_ty("T", q, goal.ty, ext=((inl_case.x, c),)),
                p_ty("T", r, goal.ty, ext=((inl_case.y, d),)),
            ],
            ["G", "D", "T"],
        )
    ]


@rule("case-tensor")
def _case_tensor(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    l = goal.lhs
    need(
        isinstance(l, Pair) and isinstance(l.left, Case),
        "left side must be `(case Q of ...) * P`",
    )
    cs, p = l.left, l.right
    c, d = as_tensor(goal.ty, "the conclusion")
    ab = scrut_type(cs.scrut, args, synth)
    a, b = as_sum(ab, "the case scrutinee")
    expected = _mk_case(cs.scrut, cs.x, Pair(cs.left, p), cs.y, Pair(cs.right, p))
    alpha2(goal.rhs, expected, "right side")
    return [
        inst(
            [
                p_ty("G", cs.scrut, ab),
                p_ty("D", cs.left, c, ext=((cs.x, a),)),
                p_ty("D", cs.right, c, ext=((cs.y, b),)),
                p_ty("T", p, d),
            ],
            ["G", "D", "T"],
        )
    ]


# ---- measurement equations


@rule("measure-perm")
def _measure_perm(goal, args, synth):
    need(
        isinstance(goal, TermEq)
        and isinstance(goal.lhs, Measure)
        and isinstance(goal.rhs, Measure),
        "both sides must be measures",
    )
    perm = need_arg(args, "perm", "measure-perm")
    bl, br = goal.lhs.branches, goal.rhs.branches
    n = len(bl)
    need(len(br) == n and len(perm) == n, "permutation length mismatch")
    need(sorted(perm) == list(range(1, n + 1)), f"{perm} is not a permutation of 1..{n}")
    for i, (phi, m) in enumerate(br):
        phi0, m0 = bl[perm[i] - 1]
        need(phi == phi0 and m == m0, f"branch {i + 1} is not branch {perm[i]} of the left side")
    prem = [p_leq("G", one(), ovee_all([phi for phi, _ in bl]))]
    prem += [p_ty("D", m, goal.ty) for _, m in bl]
    return [inst(prem, ["G", "D"])]


@rule("measure-0")
def _measure_0(goal, args, synth):
    need(
        isinstance(goal, TermEq)
        and isinstance(goal.lhs, Measure)
        and isinstance(goal.rhs, Measure),
        "both sides must be measures",
    )
    bl, br = goal.lhs.branches, goal.rhs.branches
    need(len(bl) == len(br) + 1, "left side must have one extra branch")
    need(isinstance(bl[-1][0], Zero), "the extra branch must have effect 0")
    for (phi, m), (psi, n) in zip(bl, br):
        need(phi == psi and m == n, "shared branches differ")
    prem = [p_leq("G", one(), ovee_all([phi for phi, _ in br]))]
    prem += [p_ty("D", m, goal.ty) for _, m in bl]
    return [inst(prem, ["G", "D"])]


@rule("measure-1")
def _measure_1(goal, args, synth):
    need(isinstance(goal, TermEq) and isinstance(goal.lhs, Measure), "left side must be a measure")
    bs = goal.lhs.branches
    need(len(bs) == 1, "measure-1 applies to a single branch")
    need(is_one(bs[0][0]), "the branch effect must be bot(0)")
    alpha2(goal.rhs, bs[0][1], "right side")
    return [inst([p_ty("G", goal.rhs, goal.ty)], ["G"])]


@rule("measure-plus")
def _measure_plus(goal, args, synth):
    need(
        isinstance(goal, TermEq)
        and isinstance(goal.lhs, Measure)
        and isinstance(goal.rhs, Measure),
        "both sides must be measures",
    )
    bl, br = goal.lhs.branches, goal.rhs.branches
    need(len(br) == len(bl) + 1, "right side must split the first branch")
    head, m0 = bl[0]
    need(isinstance(head, OSum), "first left branch must carry a sum effect")
    phi, psi = head.left, head.right
    need(br[0][0] == phi and br[1][0] == psi, "split branch effects do not match")
    need(br[0][1] == m0 and br[1][1] == m0, "split branches must share the original term")
    for (chi, p), (chi2, p2) in zip(bl[1:], br[2:]):
        need(chi == chi2 and p == p2, "trailing branches differ")
    chis = [chi for chi, _ in bl[1:]]
    prem = [p_leq("", one(), ovee_all([phi, psi] + chis))]
    prem += [p_ty("G", m0, goal.ty)]
    prem += [p_ty("G", p, goal.ty) for _, p in bl[1:]]
    return [inst(prem, ["G"])]


@rule("measure-case")
def _measure_case(goal, args, synth):
    need(isinstance(goal, TermEq) and isinstance(goal.lhs, Measure), "left side must be a measure")
    bs = goal.lhs.branches
    need(
        all(isinstance(phi, CaseEff) for phi, _ in bs),
        "every branch effect must be a case effect",
    )
    first = bs[0][0]
    m, x, y = first.scrut, first.x, first.y
    phis, psis = [], []
    for phi, _ in bs:
        need(phi.scrut == m, "branch effects must share one scrutinee")
        # realigning a branch binder to x/y is only alpha when no conflation
        need(
            phi.x == x or x not in free_vars(phi.left),
            f"branch binder {phi.x} cannot be aligned to {x}",
        )
        need(
            phi.y == y or y not in free_vars(phi.right),
            f"branch binder {phi.y} cannot be aligned to {y}",
        )
        phis.append(subst(phi.left, phi.x, Var(x)) if phi.x != x else phi.left)
        psis.append(subst(phi.right, phi.y, Var(y)) if phi.y != y else phi.right)
    ab = scrut_type(m, args, synth)
    a, b = as_sum(ab, "the shared scrutinee")
    terms = [t for _, t in bs]
    expected = _mk_case(
        m,
        x,
        Measure(tuple(zip(phis, terms))),
        y,
        Measure(tuple(zip(psis, terms))),
    )
    alpha2(goal.rhs, expected, "right side")
    prem = [
        p_leq("G", one(), ovee_all(phis), ext=((x, a),)),
        p_leq("G", one(), ovee_all(psis), ext=((y, b),)),
        p_ty("D", m, ab),
    ]
    prem += [p_ty("T", t, goal.ty) for t in terms]
    return [inst(prem, ["G", "D", "T"])]


# ---- effect formation


@rule("eff-0")
def _eff_0(goal, args, synth):
    need(isinstance(goal, EffForm) and isinstance(goal.eff, Zero), "conclusion is not `0 eff`")
    return AXIOM


@rule("eff-bot")
def _eff_bot(goal, args, synth):
    need(isinstance(goal, EffForm) and isinstance(goal.eff, Orth), "conclusion is not `bot(phi) eff`")
    return [inst([p_eff("G", goal.eff.arg)], ["G"])]


@rule("eff-ovee")
def _eff_ovee(goal, args, synth):
    need(isinstance(goal, EffForm) and isinstance(goal.eff, OSum), "conclusion is not a sum formation")
    return [inst([p_leq("G", goal.eff.left, Orth(goal.eff.right))], ["G"])]


@rule("eff-mult")
def _eff_mult(goal, args, synth):
    need(isinstance(goal, EffForm) and isinstance(goal.eff, SMul), "conclusion is not a product formation")
    return [inst([p_eff("", goal.eff.scalar), p_eff("G", goal.eff.body)], ["G"])]


@rule("eff-case")
def _eff_case(goal, args, synth):
    need(isinstance(goal, EffForm) and isinstance(goal.eff, CaseEff), "conclusion is not a case formation")
    e = goal.eff
    ab = scrut_type(e.scrut, args, synth)
    a, b = as_sum(ab, "the case scrutinee")
    x, left, y, right = _freshen_branches(e, goal.ctx.names())
    return [
        inst(
            [
                p_eff("G", left, ext=((x, a),)),
                p_eff("G", right, ext=((y, b),)),
                p_ty("D", e.scrut, ab),
            ],
            ["G", "D"],
        )
    ]


# ---- derivability


@rule("leq-ref", heads=[(c, c) for c in EFFECTS])
def _leq_ref(goal, args, synth):
    need(isinstance(goal, EffLeq), "conclusion is not an inequality")
    need(goal.low == goal.high, "the two sides are not alpha-equal")
    return [inst([p_eff("G", goal.low)], ["G"])]


@rule("leq-trans")
def _leq_trans(goal, args, synth):
    need(isinstance(goal, EffLeq), "conclusion is not an inequality")
    mid = need_arg(args, "via", "leq-trans")
    return [inst([p_leq("G", goal.low, mid), p_leq("G", mid, goal.high)], ["G"])]


# ---- inequality rules, as patterns


class Meta(NamedTuple):
    """A metavariable of a rule pattern: it matches any node of class `cls`,
    an effect, a term (a scrutinee) or, with `str`, the name in a binder
    field.  A binder metavariable matches any name each time; each further
    occurrence of any other must be alpha-equal to its first.  One that a
    premise puts under binders (in its `ext`) is a body, which may name the
    binders in scope: it is compared as an abstraction over the binders in
    scope at each of the two occurrences."""

    name: str
    cls: type = Effect


PHI, PSI, CHI = Meta("phi"), Meta("psi"), Meta("chi")
# caseE's scrutinees and binders
M, N, X, Y = Meta("m", Term), Meta("n", Term), Meta("x", str), Meta("y", str)
# the sum type A + B of the scrutinee M, for premises: read from the `ty`
# argument or synthesised, as `scrut_type` and `as_sum` read it
AB, A, B = Meta("ab", Type), Meta("a", Type), Meta("b", Type)


def _paths(pat, path, scope=()):
    """Each subpattern of pat with its attribute path and the paths of the
    binder fields in scope at it, parents first, through the fields `SHAPES`
    lists; a binder field comes just before the subterm it scopes over."""
    yield path, pat, scope
    for f, binders in () if isinstance(pat, Meta) else SHAPES[type(pat)].children:
        for b in binders:
            yield f"{path}.{b}", getattr(pat, b), scope
        yield from _paths(getattr(pat, f), f"{path}.{f}", scope + tuple(f"{path}.{b}" for b in binders))


def _metas(pat):
    """The metavariables in pat: a pattern, or a tuple of them and of data."""
    if isinstance(pat, Meta):
        return {pat}
    if isinstance(pat, tuple):
        return set().union(*map(_metas, pat))
    if isinstance(pat, Syntax):
        return {p for _, p, _ in _paths(pat, "") if isinstance(p, Meta)}
    return set()


def _builder(pat, where):
    """A function of the matched nodes that builds pat, a premise's shape or
    ext or the syntax in them, each metavariable replaced by the node at its
    position in `where`.  Nodes are immutable, so a part without
    metavariables is one object for every instance."""
    if isinstance(pat, Meta):
        return itemgetter(where[pat])
    if not _metas(pat):
        return lambda nodes: pat
    if isinstance(pat, tuple):
        parts = [_builder(p, where) for p in pat]
        return lambda nodes: tuple([part(nodes) for part in parts])
    cls, parts = type(pat), [_builder(getattr(pat, f), where) for f, _ in SHAPES[type(pat)].children]
    return lambda nodes: cls(*[part(nodes) for part in parts])


def _reading(low, high, sides, premises, zones):
    """A conclusion read with its low and high patterns against the goal
    fields `sides` names, compiled once: the (low, high) classes it admits,
    and for the interpreter its steps and its instance builder.  A step takes
    a field of an earlier node (the goal is node 0), which must hold the
    step's class and, at a metavariable seen before, be alpha-equal to the
    node of its first occurrence.  A body seen before under binders is
    compared by the builder instead, which then reads the scrutinee's type if
    a premise names it, and gives None if a body differs."""
    steps, nodes, where, scopes, scoped = [], {"": 0}, {}, {}, []
    bodies = set().union(*(_metas(p.shape) for p in premises if p.ext))
    for side, pat in zip(sides, (low, high)):
        for path, p, scope in _paths(pat, side):
            parent, _, field = path.rpartition(".")
            nodes[path] = here = len(nodes)
            if not isinstance(p, Meta):
                steps.append((nodes[parent], field, type(p), 0))
                continue
            scope = tuple(nodes[b] for b in scope)
            first = where.setdefault(p, here)
            scopes.setdefault(p, scope)
            if first == here or p.cls is str:
                first = 0
            elif p in bodies and (scope or scopes[p]):
                scoped.append((scope, here, scopes[p], first))
                first = 0
            steps.append((nodes[parent], field, p.cls, first))
    typed = not _metas(tuple(premises)).isdisjoint((AB, A, B))
    scrut = where[M] if typed else None
    where.update({AB: len(nodes), A: len(nodes) + 1, B: len(nodes) + 2})
    built = [(p.zone, _builder(p.shape, where), _builder(p.ext, where)) for p in premises]

    def build(nodes, args, synth):
        for here, node, there, first in scoped:
            if not abstraction_eq([nodes[i] for i in here], nodes[node],
                                  [nodes[i] for i in there], nodes[first]):
                return None
        if typed:
            ab = scrut_type(nodes[scrut], args, synth)
            nodes += (ab, *as_sum(ab, "the case scrutinee"))
        return Instantiation(tuple([Premise(z, shape(nodes), ext(nodes)) for z, shape, ext in built]), zones)

    roots = {field: cls for parent, field, cls, _ in steps if parent == 0}
    return (roots["low"], roots["high"]), (tuple(steps), build)


def pattern_rule(name, conclusion, premises, message, both=False, extra=(), zones=("G",)):
    """Register core rule `name`, whose conclusion (low, high) is read
    against an inequality goal as written and, with `both`, with the goal's
    sides swapped, after the `extra` conclusions.  A goal no reading fits
    gets `message`."""
    readings = [_reading(lo, hi, ("low", "high"), premises, zones) for lo, hi in (*extra, conclusion)]
    if both:
        readings.append(_reading(*conclusion, ("high", "low"), premises, zones))
    heads, compiled = zip(*readings)

    def match(goal, args, synth):
        if not isinstance(goal, EffLeq):
            raise RuleMismatch("conclusion is not an inequality")
        out = []
        for steps, build in compiled:
            nodes = [goal]
            for parent, field, cls, first in steps:
                node = getattr(nodes[parent], field)
                if not isinstance(node, cls) or first and not node == nodes[first]:
                    break
                nodes.append(node)
            else:
                found = build(nodes, args, synth)
                if found:
                    out.append(found)
        need(out, message)
        return out

    SCHEMAS[name] = Schema(name, "core", match, tuple(dict.fromkeys(heads)))


pattern_rule("zero-leq", (Zero(), PHI), [p_eff("G", PHI)], "left side must be 0")
pattern_rule("bot-antitone", (Orth(PHI), Orth(PSI)), [p_leq("G", PSI, PHI)],
             "both sides must be orthosupplements")
pattern_rule("bot-bot", (PHI, Orth(Orth(PHI))), [p_eff("G", PHI)],
             "right side must be a double orthosupplement")
pattern_rule("leq-ovee", (PHI, OSum(PHI, PSI)), [p_leq("G", PHI, Orth(PSI))], "right side must be a sum")
pattern_rule("ovee-mono", (OSum(PHI, CHI), OSum(PSI, CHI)),
             [p_leq("G", PHI, PSI), p_leq("G", PSI, Orth(CHI))], "both sides must be sums")
pattern_rule("ovee-comm", (OSum(PHI, PSI), OSum(PSI, PHI)), [p_leq("G", PHI, Orth(PSI))],
             "both sides must be sums")
pattern_rule("perp-rotate", (OSum(PSI, CHI), Orth(PHI)), [p_leq("G", OSum(PHI, PSI), Orth(CHI))],
             "conclusion must be `psi o+ chi <= bot(phi)`")
pattern_rule("ovee-assoc", (OSum(PHI, OSum(PSI, CHI)), OSum(OSum(PHI, PSI), CHI)),
             [p_leq("G", OSum(PHI, PSI), Orth(CHI))], "conclusion must reassociate a triple sum")
pattern_rule("ovee-0", (OSum(PHI, Zero()), PHI), [p_eff("G", PHI)], "left side must be `phi o+ 0`")
pattern_rule("ortho-1", (Orth(PSI), PHI), [p_leq("G", one(), OSum(PHI, PSI))],
             "left side must be an orthosupplement")
pattern_rule("ortho-2", (one(), OSum(PHI, Orth(PHI))), [p_eff("G", PHI)], "left side must be bot(0)")
pattern_rule("dist-l", (SMul(OSum(PHI, PSI), CHI), OSum(SMul(PHI, CHI), SMul(PSI, CHI))),
             [p_leq("", PHI, Orth(PSI)), p_eff("G", CHI)], "conclusion matches no reading of dist-l",
             both=True, extra=[(SMul(PHI, CHI), Orth(SMul(PSI, CHI)))])
pattern_rule("dist-r", (SMul(PHI, OSum(PSI, CHI)), OSum(SMul(PHI, PSI), SMul(PHI, CHI))),
             [p_eff("", PHI), p_leq("G", PSI, Orth(CHI))], "conclusion matches no reading of dist-r",
             both=True, extra=[(SMul(PHI, PSI), Orth(SMul(PHI, CHI)))])
pattern_rule("unit-l", (SMul(one(), PHI), PHI), [p_eff("G", PHI)],
             "conclusion must relate `bot(0) . phi` with `phi`", both=True)
pattern_rule("unit-r", (SMul(PHI, one()), PHI), [p_eff("", PHI)],
             "conclusion must relate `phi . bot(0)` with `phi`", both=True)
pattern_rule("assoc", (SMul(PHI, SMul(PSI, CHI)), SMul(SMul(PHI, PSI), CHI)),
             [p_eff("", PHI), p_eff("", PSI), p_eff("G", CHI)],
             "conclusion must reassociate a scalar product", both=True)
pattern_rule("comm", (SMul(PHI, PSI), SMul(PSI, PHI)), [p_eff("", PHI), p_eff("", PSI)],
             "conclusion must flip a scalar product", zones=())


pattern_rule("case-cong", (CaseEff(M, X, PHI, Y, PSI), CaseEff(N, X, PHI, Y, PSI)),
             [p_eff("G", PHI, ext=((X, A),)), p_eff("G", PSI, ext=((Y, B),)), p_eq("D", M, N, AB)],
             "the two sides must be case effects with shared branches", both=True, zones=("G", "D"))


@rule("case-mono", heads=[(CaseEff, CaseEff)])
def _case_mono(goal, args, synth):
    need(
        isinstance(goal, EffLeq)
        and isinstance(goal.low, CaseEff)
        and isinstance(goal.high, CaseEff),
        "both sides must be case effects",
    )
    l, h = goal.low, goal.high
    alpha2(h.scrut, l.scrut, "case scrutinee")
    ab = scrut_type(l.scrut, args, synth)
    a, b = as_sum(ab, "the case scrutinee")
    avoid = set(goal.ctx.names()) | free_vars(l) | free_vars(h)
    x = fresh(l.x, avoid)
    y = fresh(l.y, avoid | {x})
    return [
        inst(
            [
                p_leq("G", subst(l.left, l.x, Var(x)), subst(h.left, h.x, Var(x)), ext=((x, a),)),
                p_leq("G", subst(l.right, l.y, Var(y)), subst(h.right, h.y, Var(y)), ext=((y, b),)),
                p_ty("D", l.scrut, ab),
            ],
            ["G", "D"],
        )
    ]


@rule("beta-plus-1-eff")
def _beta_plus_1_eff(goal, args, synth):
    need(isinstance(goal, EffLeq), "conclusion is not an inequality")
    out = []
    for a, b in both_readings(goal):
        if not (isinstance(a, CaseEff) and isinstance(a.scrut, Inl)):
            continue
        m = a.scrut.arg
        if b != subst(a.left, a.x, m):
            continue
        ab = args.get("ty")
        need(ab is not None, "beta-plus-1-eff needs the `ty` argument (the scrutinee sum type)")
        sa, sb = as_sum(ab, "the scrutinee")
        out.append(
            inst(
                [
                    p_eff("G", a.left, ext=((a.x, sa),)),
                    p_eff("G", a.right, ext=((a.y, sb),)),
                    p_ty("D", m, sa),
                ],
                ["G", "D"],
            )
        )
    need(out, "conclusion must reduce `caseE (inl M)`")
    return out


@rule("beta-plus-2-eff")
def _beta_plus_2_eff(goal, args, synth):
    need(isinstance(goal, EffLeq), "conclusion is not an inequality")
    out = []
    for a, b in both_readings(goal):
        if not (isinstance(a, CaseEff) and isinstance(a.scrut, Inr)):
            continue
        m = a.scrut.arg
        if b != subst(a.right, a.y, m):
            continue
        ab = args.get("ty")
        need(ab is not None, "beta-plus-2-eff needs the `ty` argument (the scrutinee sum type)")
        sa, sb = as_sum(ab, "the scrutinee")
        out.append(
            inst(
                [
                    p_eff("G", a.left, ext=((a.x, sa),)),
                    p_eff("G", a.right, ext=((a.y, sb),)),
                    p_ty("D", m, sb),
                ],
                ["G", "D"],
            )
        )
    need(out, "conclusion must reduce `caseE (inr M)`")
    return out


@rule("eta-plus-eff", heads=[(Effect, CaseEff), (CaseEff, Effect)])
def _eta_plus_eff(goal, args, synth):
    need(isinstance(goal, EffLeq), "conclusion is not an inequality")
    out = []
    for phi, rhs in both_readings(goal):
        if not (isinstance(rhs, CaseEff) and isinstance(rhs.scrut, Var)):
            continue
        z = rhs.scrut.name
        zty = goal.ctx.lookup(z)
        if zty is None or not isinstance(zty, TSum):
            continue
        if rhs.left != subst(phi, z, Inl(Var(rhs.x))):
            continue
        if rhs.right != subst(phi, z, Inr(Var(rhs.y))):
            continue
        out.append(
            inst(
                [p_eff("G", phi, ext=((z, zty),))],
                ["G"],
                fixed=((z, zty),),
            )
        )
    need(out, "conclusion must eta-expand an effect at a sum variable")
    return out


PHI1, PHI2, PSI1, PSI2 = (Meta(n) for n in ("phi1", "phi2", "psi1", "psi2"))
pattern_rule("case-ovee", (CaseEff(M, X, OSum(PHI1, PHI2), Y, OSum(PSI1, PSI2)),
                           OSum(CaseEff(M, X, PHI1, Y, PSI1), CaseEff(M, X, PHI2, Y, PSI2))),
             [p_leq("G", PHI1, Orth(PHI2), ext=((X, A),)), p_leq("G", PSI1, Orth(PSI2), ext=((Y, B),)),
              p_ty("D", M, AB)],
             "conclusion must distribute a sum over a case effect", both=True, zones=("G", "D"))
pattern_rule("case-bot", (CaseEff(M, X, Orth(PHI), Y, Orth(PSI)), Orth(CaseEff(M, X, PHI, Y, PSI))),
             [p_eff("G", PHI, ext=((X, A),)), p_eff("G", PSI, ext=((Y, B),)), p_ty("D", M, AB)],
             "conclusion must push an orthosupplement through a case effect", both=True, zones=("G", "D"))


@rule("case-leq", heads=[(CaseEff, Effect)])
def _case_leq(goal, args, synth):
    need(isinstance(goal, EffLeq) and isinstance(goal.low, CaseEff), "left side must be a case effect")
    l, chi = goal.low, goal.high
    ab = scrut_type(l.scrut, args, synth)
    a, b = as_sum(ab, "the case scrutinee")
    x, left = freshen_binder(l.x, l.left, set(goal.ctx.names()) | free_vars(chi))
    y, right = freshen_binder(l.y, l.right, set(goal.ctx.names()) | free_vars(chi) | {x})
    return [
        inst(
            [
                p_ty("G", l.scrut, ab),
                p_leq("D", left, chi, ext=((x, a),)),
                p_leq("D", right, chi, ext=((y, b),)),
            ],
            ["G", "D"],
        )
    ]


# the scalar CHI is closed: no premise binds over it, so its occurrences
# inside the branches and outside are compared as they stand
pattern_rule("case-times", (CaseEff(M, X, SMul(CHI, PHI), Y, SMul(CHI, PSI)),
                            SMul(CHI, CaseEff(M, X, PHI, Y, PSI))),
             [p_eff("G", PHI, ext=((X, A),)), p_eff("G", PSI, ext=((Y, B),)), p_ty("D", M, AB),
              p_eff("", CHI)],
             "conclusion must pull a closed scalar out of a case effect", both=True, zones=("G", "D"))


# ---- qubit pack


@rule("qbit-new", pack="qubit")
def _qbit_new(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, NewPlus), "conclusion is not a plus-state typing")
    need(isinstance(goal.ty, TQbit), "plus is a qubit")
    return AXIOM


@rule("qbit-x", pack="qubit")
def _qbit_x(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, PauliX), "conclusion is not an X typing")
    need(isinstance(goal.ty, TQbit), "X produces a qubit")
    return [inst([p_ty("G", goal.term.arg, TQbit())], ["G"])]


@rule("qbit-z", pack="qubit")
def _qbit_z(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, PauliZ), "conclusion is not a Z typing")
    need(isinstance(goal.ty, TQbit), "Z produces a qubit")
    return [inst([p_ty("G", goal.term.arg, TQbit())], ["G"])]


@rule("qbit-cz", pack="qubit")
def _qbit_cz(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, CZ), "conclusion is not a controlled-Z typing")
    need(goal.ty == TTensor(TQbit(), TQbit()), "E produces a pair of qubits")
    return [
        inst(
            [p_ty("G", goal.term.left, TQbit()), p_ty("D", goal.term.right, TQbit())],
            ["G", "D"],
        )
    ]


@rule("qbit-proj", pack="qubit")
def _qbit_proj(goal, args, synth):
    need(
        isinstance(goal, EffForm) and isinstance(goal.eff, ProjPlus),
        "conclusion is not a projection formation",
    )
    return [inst([p_ty("G", goal.eff.term, TQbit())], ["G"])]


@rule("qbit-cz-x", pack="qubit")
def _qbit_cz_x(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    l = goal.lhs
    need(
        isinstance(l, CZ) and isinstance(l.left, PauliX),
        "left side must be `E (X M) N`",
    )
    m, n = l.left.arg, l.right
    avoid = free_vars(m) | free_vars(n) | set(goal.ctx.names())
    x, y = fresh_pair("x", "y", avoid)
    expected = LetPair(x, y, CZ(m, n), Pair(PauliX(Var(x)), PauliZ(Var(y))))
    alpha2(goal.rhs, expected, "right side")
    return [
        inst([p_ty("G", m, TQbit()), p_ty("D", n, TQbit())], ["G", "D"])
    ]


@rule("qbit-cz-z", pack="qubit")
def _qbit_cz_z(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    l = goal.lhs
    need(
        isinstance(l, CZ) and isinstance(l.left, PauliZ),
        "left side must be `E (Z M) N`",
    )
    m, n = l.left.arg, l.right
    avoid = free_vars(m) | free_vars(n) | set(goal.ctx.names())
    x, y = fresh_pair("x", "y", avoid)
    expected = LetPair(x, y, CZ(m, n), Pair(PauliZ(Var(x)), Var(y)))
    alpha2(goal.rhs, expected, "right side")
    return [
        inst([p_ty("G", m, TQbit()), p_ty("D", n, TQbit())], ["G", "D"])
    ]


@rule("qbit-x-proj", pack="qubit", heads=[(ProjPlus, ProjPlus)])
def _qbit_x_proj(goal, args, synth):
    need(isinstance(goal, EffLeq), "conclusion is not an inequality")
    out = []
    for a, b in both_readings(goal):
        if not (isinstance(a, ProjPlus) and isinstance(a.term, PauliX) and isinstance(b, ProjPlus)):
            continue
        if b.term != a.term.arg or b.angle != angle_neg(a.angle):
            continue
        out.append(inst([p_ty("G", a.term.arg, TQbit())], ["G"]))
    need(out, "conclusion must reflect a projection angle through X")
    return out


@rule("qbit-z-proj", pack="qubit", heads=[(ProjPlus, ProjPlus)])
def _qbit_z_proj(goal, args, synth):
    need(isinstance(goal, EffLeq), "conclusion is not an inequality")
    out = []
    for a, b in both_readings(goal):
        if not (isinstance(a, ProjPlus) and isinstance(a.term, PauliZ) and isinstance(b, ProjPlus)):
            continue
        if b.term != a.term.arg or b.angle != angle_minus_pi(a.angle):
            continue
        out.append(inst([p_ty("G", a.term.arg, TQbit())], ["G"]))
    need(out, "conclusion must shift a projection angle through Z")
    return out


@rule("qbit-xx", pack="qubit")
def _qbit_xx(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    l = goal.lhs
    need(isinstance(l, PauliX) and isinstance(l.arg, PauliX), "left side must be X (X M)")
    alpha2(goal.rhs, l.arg.arg, "right side")
    return [inst([p_ty("G", goal.rhs, TQbit())], ["G"])]


@rule("qbit-zz", pack="qubit")
def _qbit_zz(goal, args, synth):
    need(isinstance(goal, TermEq), "conclusion is not a term equality")
    l = goal.lhs
    need(isinstance(l, PauliZ) and isinstance(l.arg, PauliZ), "left side must be Z (Z M)")
    alpha2(goal.rhs, l.arg.arg, "right side")
    return [inst([p_ty("G", goal.rhs, TQbit())], ["G"])]


@rule("qbit-xz-zx", pack="qubit", heads=[(ProjPlus, ProjPlus)])
def _qbit_xz_zx(goal, args, synth):
    need(isinstance(goal, EffLeq), "conclusion is not an inequality")
    out = []
    for a, b in both_readings(goal):
        if not (isinstance(a, ProjPlus) and isinstance(b, ProjPlus) and a.angle == b.angle):
            continue
        if not (isinstance(a.term, PauliX) and isinstance(a.term.arg, PauliZ)):
            continue
        if not (isinstance(b.term, PauliZ) and isinstance(b.term.arg, PauliX)):
            continue
        if a.term.arg.arg != b.term.arg.arg:
            continue
        out.append(inst([p_ty("G", a.term.arg.arg, TQbit())], ["G"]))
    need(out, "conclusion must exchange X Z with Z X under a projection")
    return out


# ---- beta-iso pack


def _extract_at_var(body, x, filled):
    """The term standing at x's free positions when `filled` is [R/x]body.

    Walks the two trees in parallel with binder alignment; returns None when
    the shapes disagree or the occurrences collect different terms.
    """

    found = []

    def walk(b, f, pairs):
        # pairs: aligned binder names (body side, filled side), innermost last
        if isinstance(b, Var):
            n = b.name
            if n == x and all(n != bb for bb, _ in pairs):
                # candidate redex; its free vars must not be captured here
                if free_vars(f) & {ff for _, ff in pairs}:
                    return False
                found.append(f)
                return True
            for bb, ff in reversed(pairs):
                if n == bb:
                    return isinstance(f, Var) and f.name == ff
            if not isinstance(f, Var):
                return False
            if any(f.name == ff for _, ff in pairs):
                return False
            return f.name == n
        if type(b) is not type(f):
            return False
        match b:
            case Pair() | CZ():
                return walk(b.left, f.left, pairs) and walk(b.right, f.right, pairs)
            case OSum():
                return walk(b.left, f.left, pairs) and walk(b.right, f.right, pairs)
            case SMul():
                return walk(b.scalar, f.scalar, pairs) and walk(b.body, f.body, pairs)
            case LetPair():
                return walk(b.pair, f.pair, pairs) and walk(
                    b.body, f.body, pairs + [(b.x, f.x), (b.y, f.y)]
                )
            case Star() | NewPlus() | Zero():
                return True
            case Inl() | Inr() | PauliX() | PauliZ() | Orth():
                return walk(b.arg, f.arg, pairs)
            case Case() | CaseEff():
                return (
                    walk(b.scrut, f.scrut, pairs)
                    and walk(b.left, f.left, pairs + [(b.x, f.x)])
                    and walk(b.right, f.right, pairs + [(b.y, f.y)])
                )
            case Measure():
                if len(b.branches) != len(f.branches):
                    return False
                return all(
                    walk(be, fe, pairs) and walk(bt, ft, pairs)
                    for (be, bt), (fe, ft) in zip(b.branches, f.branches)
                )
            case ScalarLit():
                return b.value == f.value
            case ProjPlus():
                return b.angle == f.angle and walk(b.term, f.term, pairs)
        return False

    if not walk(body, filled, []) or not found:
        return None
    first = found[0]
    if any(f != first for f in found[1:]):
        return None
    return first


@rule("beta-iso", pack="beta-iso")
def _beta_iso(goal, args, synth):
    need(isinstance(goal, EffLeq), "conclusion is not an inequality")
    x = need_arg(args, "x", "beta-iso")
    psi = need_arg(args, "body", "beta-iso")
    out = []
    for lhs, rhs in both_readings(goal):
        if not (
            isinstance(rhs, OSum)
            and isinstance(rhs.left, SMul)
            and isinstance(rhs.right, SMul)
        ):
            continue
        phi = rhs.left.scalar
        if rhs.right.scalar != Orth(phi):
            continue
        if "m" in args and "n" in args:
            m, n = args["m"], args["n"]
        else:
            redex = _extract_at_var(psi, x, lhs)
            if redex is None or not isinstance(redex, Measure) or len(redex.branches) != 2:
                continue
            (phi1, m), (phi2, n) = redex.branches
            if phi1 != phi or phi2 != Orth(phi):
                continue
        measure = Measure(((phi, m), (Orth(phi), n)))
        if lhs != subst(psi, x, measure):
            continue
        if rhs.left.body != subst(psi, x, m) or rhs.right.body != subst(psi, x, n):
            continue
        a = args.get("ty") or synth(m, ())
        need(a is not None, "cannot infer the branch type; supply `ty`")
        out.append(
            inst(
                [
                    p_eff("", phi),
                    p_ty("G", m, a),
                    p_ty("G", n, a),
                    p_eff("D", psi, ext=((x, a),)),
                ],
                ["G", "D"],
            )
        )
    need(out, "conclusion does not match the measurement substitution identity")
    return out


# ------------------------------------------------------------------ inventory


ALL_RULE_NAMES = tuple(SCHEMAS)

PACKS = ("core", "qubit", "beta-iso")
DEFAULT_PACKS = frozenset({"core", "qubit"})
