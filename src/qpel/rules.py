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

Pattern rules are data: a conclusion, one pattern for each field of a
judgement form, and premises over metavariables, which one interpreter
matches, which builds each reading's premises in one step, and from whose
inequality conclusions the search reads their heads.  They are the formation
rules unit, tensor, let, inl, inr, case and eff-0 through eff-case, ref, sym
and leq-ref, the congruences tensor-eq, inl-eq and inr-eq, the beta
conversions beta-tensor, beta-plus-1, beta-plus-2, beta-plus-1-eff and
beta-plus-2-eff, the eta rules eta-tensor, eta-unit and eta-plus, the
commuting conversions let-commute, let-case, let-tensor, case-commute and
case-tensor, the inequality rules zero-leq through comm, case-cong,
case-ovee, case-bot and case-times, and the whole qubit pack: 63 of the 80.
Their metavariables stand for effects, terms, types, projection angles and
binder names.  A side condition (f, (P, ...), Q) demands that Q match f
applied to what the Ps match, a binder metavariable giving its name: it
relates the angles of qbit-x-proj and qbit-z-proj, and substitutes into the
body of a beta conversion to give its reduct.  A metavariable that occurs
again matches what it matched first up to the binders in scope at both
places, and names no binder in scope at only one of them, so no pattern
rule captures a variable.  A premise binds the
conclusion's binders as they are named there; `Premise.to_judgement` is the
one place that renames them, away from the names of the premise's zone.
The other 17 rules are code, since no pattern says what they do: `var`,
`exch` and `eta-plus-eff` read the context; `case-leq` relates a case
effect to an effect outside its binders, whose free variables a renamed
premise binder would rename too; `case-mono`, `let-eq` and `case-eq` rename
the binders of their two sides to shared fresh names; the measure rules
`measure`, `measure-eq`, `measure-perm`, `measure-0`, `measure-1`,
`measure-plus` and `measure-case` range over branches; `trans` and
`leq-trans` take a `via`, `measure-perm` a `perm` and `beta-iso` its redex.
The search rules among the code rules declare their heads.

Premise shapes use zone variables: a premise context is one zone plus bound
extensions, and the conclusion context is the disjoint union of the listed
zones plus any fixed entries.  A zone name of "" demands the empty context.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import NamedTuple

from .printer import print_effect, print_term, print_type
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
    subterms,
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
        forward inequality.  This is the one place where the binders of a
        premise are renamed, and `typecheck._premise_need` relies on the same
        invariant: the `ext` binds over every term and effect of the shape.
        An `ext` binder that clashes with a zone name is renamed in them, so
        the binder shadows as it does in the conclusion, and one that a later
        `ext` binder shadows is renamed alone."""
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
        terms and effects of the shape, where ext binds, and each ext binder
        that a later one shadows renamed in ext alone."""
        parts = self.shape[1 : 1 + SYNTAX_SLOTS[self.shape[0]]]
        avoid = set(taken) | {n for n, _ in self.ext}
        avoid |= frozenset().union(*(free_vars(s) for s in parts))
        renames, ext = {}, []
        for i, (n, t) in enumerate(self.ext):
            shadowed = any(n == later for later, _ in self.ext[i + 1 :])
            if n in taken or shadowed:
                n2 = fresh(n, avoid)
                avoid.add(n2)
                if not shadowed:
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
        raise RuleMismatch(lambda: f"cannot infer the type of {print_term(m)}; supply the {key!r} argument")
    return t


def as_sum(t, what):
    if not isinstance(t, TSum):
        raise RuleMismatch(lambda: f"{what} must have a sum type, got {print_type(t)}")
    return t.left, t.right


def as_tensor(t, what):
    if not isinstance(t, TTensor):
        raise RuleMismatch(lambda: f"{what} must have a tensor type, got {print_type(t)}")
    return t.left, t.right


def differs(what, want, got):
    """The mismatch of a part of a conclusion that is not what a rule
    expects there, printed as a term or an effect."""
    show = print_effect if isinstance(want, Effect) else print_term
    return RuleMismatch(lambda: f"{what}: expected {show(want)}, found {show(got)}")


def alpha2(got, want, what):
    if got != want:
        raise differs(what, want, got)


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


# ---- rules as patterns


class Meta(NamedTuple):
    """A metavariable of a rule pattern: it matches any node of class `cls`,
    an effect, a term, a type, a data value (an angle) or, with `str`, the
    name in a binder field.  A binder metavariable matches any name each
    time, and `Var(X)` a variable bound by the binder X matched in scope.
    Each further occurrence of any other must be alpha-equal to its first up
    to the binder metavariables in scope at both, and may name no binder in
    scope at only one of the two: so a subterm that a rule moves under a
    binder, or out from under one, keeps its meaning."""

    name: str
    cls: type = Effect


PHI, PSI, CHI = Meta("phi"), Meta("psi"), Meta("chi")
PHI1, PHI2, PSI1, PSI2 = (Meta(n) for n in ("phi1", "phi2", "psi1", "psi2"))
# terms, such as caseE's scrutinee, the bodies R and R2 that the commuting
# conversions move across binders, and binder names
M, N, M2, N2 = Meta("m", Term), Meta("n", Term), Meta("m2", Term), Meta("n2", Term)
R, R2 = Meta("r", Term), Meta("r2", Term)
X, Y, X2, Y2 = Meta("x", str), Meta("y", str), Meta("x2", str), Meta("y2", str)
# types, C and D for a conclusion's; in premises only, the type AB of a
# scrutinee, read from the `ty` argument or synthesised, as `scrut_type`
# reads it: A * B when A types a let's binder, A + B when a case's; and the
# type AB2 of a second scrutinee, with A2 and B2, read from `ty2` or
# synthesised under the binders of the premise that types it
AB, A, B, C, D = (Meta(n, Type) for n in ("ab", "a", "b", "c", "d"))
AB2, A2, B2 = (Meta(n, Type) for n in ("ab2", "a2", "b2"))
SCRUTINEES = ((AB, A, B, "ty"), (AB2, A2, B2, "ty2"))
# projection angles
P, Q = Meta("p", Fraction), Meta("q", Fraction)

# the sides of an equation or an inequality, as a side condition names them
WHOLE_SIDES = {"lhs": "left side", "low": "left side", "rhs": "right side", "high": "right side"}
# the judgement forms, as a goal of another form is told it is not one
FORMS = {Typing: "a typing", TermEq: "a term equality", EffForm: "an effect formation",
         EffLeq: "an inequality"}


def pattern(cls, *values):
    """A pattern node of class cls, built without the checks its constructor
    makes on data, which a metavariable would fail."""
    node = object.__new__(cls)
    for f, v in zip(fields(cls), values):
        object.__setattr__(node, f.name, v)
    return node


def _paths(pat, path, scope=()):
    """Each subpattern of pat with its attribute path and the paths of the
    binder fields in scope at it, parents first, through the fields `SHAPES`
    lists, or a type's fields; a binder field comes just before the subterm
    it scopes over, and data fields come last."""
    yield path, pat, scope
    if isinstance(pat, Meta):
        return
    if isinstance(pat, Type):
        children, data = [(f.name, ()) for f in fields(pat)], ()
    else:
        _, children, data = SHAPES[type(pat)]
    for f, binders in children:
        for b in binders:
            yield f"{path}.{b}", getattr(pat, b), scope
        yield from _paths(getattr(pat, f), f"{path}.{f}", scope + tuple(f"{path}.{b}" for b in binders))
    for f in data:
        if not isinstance(getattr(pat, f), Meta):
            raise ValueError(f"pattern data {path}.{f} must be a metavariable")
        yield f"{path}.{f}", getattr(pat, f), scope


def _metas(pat):
    """The metavariables in pat: a pattern, or a tuple of them and of data."""
    if isinstance(pat, Meta):
        return {pat}
    if isinstance(pat, tuple):
        return set().union(*map(_metas, pat))
    if isinstance(pat, (Syntax, Type)):
        return {p for _, p, _ in _paths(pat, "") if isinstance(p, Meta)}
    return set()


def _source(pat, where, names):
    """Python source of an expression in the matched nodes `n` that builds
    pat, an instance or a part of one, each metavariable replaced by the node
    at its position in `where`, or None when pat has no metavariable; its
    constructors, and its parts without metavariables (one object for every
    instance, since nodes are immutable), are put in `names`."""
    if isinstance(pat, Meta):
        return f"n[{where[pat]}]"
    if isinstance(pat, tuple):
        parts = pat
    elif isinstance(pat, (Syntax, Type)):
        parts = [getattr(pat, f.name) for f in fields(pat)]
    else:
        return None
    built = [_source(part, where, names) for part in parts]
    if built.count(None) == len(built):
        return None
    for i, part in enumerate(parts):
        if built[i] is None:
            built[i] = f"c{len(names)}"
            names[built[i]] = part
    cls = type(pat)
    names[cls.__name__] = cls
    return f"{'' if cls is tuple else cls.__name__}({''.join(src + ', ' for src in built)})"


def _in_scope(nodes, scope, common):
    """The names the binders of scope, (metavariable, node) pairs outermost
    first, bind over a node: for each metavariable of common, the name of
    its innermost binder, or None where an inner binder shadows that name;
    and the names whose innermost binder is of another metavariable."""
    inner = {nodes[i]: meta for meta, i in scope}
    last = {meta: nodes[i] for meta, i in scope}
    under = tuple(last[c] if inner[last[c]] == c else None for c in common)
    return under, {x for x, meta in inner.items() if meta not in common}


def _reading(pats, sides, premises, zones, side):
    """A conclusion read with its patterns against the goal fields `sides`
    names, compiled once for the interpreter: its steps, its instance
    builder, and the index of its first step on the goal's type.  A step
    takes a field of an earlier node (the goal is node 0), which must hold
    the step's class and, at a metavariable seen before under no binder
    metavariable in scope at both, be alpha-equal to the node of its first
    occurrence.  A node seen before with binders in scope, a variable that
    must be bound by a binder in scope, and the side condition are checked
    by the builder instead, which then reads the type of each scrutinee a
    premise names but the conclusion does not, and gives None if a check
    fails, or the mismatch naming the side when the side condition fails
    and its Q is a whole side of the goal.  A premise must bind its `ext`
    over every metavariable of its terms and effects where the conclusion
    first matches it, since `Premise.to_judgement` renames a binder
    throughout them, and must bind each binder in scope at all its
    occurrences, which it may name."""
    steps, nodes, at, where, scopes, scoped, bound, binds = [], {"": 0}, {}, {}, {}, [], [], {}
    type_at = None
    for name, pat in zip(sides, pats):
        if name == "ty":
            type_at = len(steps)
        for path, p, scope in _paths(pat, name):
            parent, _, field = path.rpartition(".")
            here = nodes[path] = len(nodes)
            at[path] = p
            if not isinstance(p, Meta):
                steps.append((nodes[parent], field, type(p), 0))
                continue
            binders = tuple((at[b], nodes[b]) for b in scope)
            first = where.setdefault(p, here)
            scopes.setdefault(p, []).append(binders)
            if p.cls is str and type(at[parent]) is Var:
                # the innermost binder in scope that p matches must bind it
                k = max(i for i, b in enumerate(scope) if at[b] == p)
                bound.append((here, binders[k][1], [i for _, i in binders[k + 1:]]))
                first = 0
            elif p.cls is str:
                binds.setdefault(p, (parent, scope))
                first = 0
            elif first == here:
                first = 0
            elif binders or scopes[p][0]:
                there = scopes[p][0]
                common = tuple(dict.fromkeys(m for m, _ in there if m in dict(binders)))
                scoped.append((here, binders, first, there, common))
                first = 0 if common else first
            steps.append((nodes[parent], field, p.cls, first))
    for p in premises:
        ext = {x for x, _ in p.ext}
        for m in _metas(p.shape[1 : 1 + SYNTAX_SLOTS[p.shape[0]]]):
            if not {where[x] for x in ext} <= {i for _, i in scopes[m][0]}:
                raise ValueError(f"a premise binds over {m.name}, which the conclusion matches"
                                 " outside its binders")
            if set.intersection(*({x for x, _ in s} for s in scopes[m])) - ext:
                raise ValueError(f"a premise leaves {m.name} under a binder in scope at each of"
                                 " its occurrences")
    # the scrutinees whose types the premises name: the first premise that
    # names a type gives its scrutinee and the binders it is read under; if
    # none does, the scrutinee is the one of the let or case whose binder A
    # types, read under no binder
    names, typed = {}, []
    for ab, a, b, key in SCRUTINEES:
        if not _metas(tuple(premises)) & {ab, a, b} - where.keys():
            continue
        binder = next(x for p in premises for x, t in p.ext if t == a)
        parent, scope = binds[binder]
        let = type(at[parent]) is LetPair
        components, what = (as_tensor, "the let scrutinee") if let else (as_sum, "the case scrutinee")
        scrut, ext = next(((where[p.shape[1]], p.ext) for p in premises if ab in _metas(p.shape)), (None, ()))
        if scrut is None:
            if scope:
                raise ValueError(f"no premise types the scrutinee of {binder.name}, which is under a binder")
            scrut = nodes[f"{parent}.{'pair' if let else 'scrut'}"]
        extra = eval(f"lambda n: {_source(ext, where, names) or '()'}", names)
        i = len(nodes) + 3 * len(typed)
        typed.append((scrut, extra, key, components, what))
        where.update({ab: i, a: i + 1, b: i + 2})
    # the reading's instance, built from the nodes in one step, as the type
    # checker applies the formation rules at each node it checks
    instance = Instantiation(tuple(premises), tuple(zones))
    names["instance"] = instance
    make = eval(f"lambda n, args, synth: {_source(instance, where, names) or 'instance'}", names)
    if side:
        fn, ps, q = side
        whole = WHOLE_SIDES.get(next(path for path, p in at.items() if p == q))
        side = fn, tuple(where[p] for p in ps), where[q], whole
    build = make
    if scoped or bound or side or typed:
        def build(nodes, args, synth):
            for here, scope, first, there, common in scoped:
                under, hidden = _in_scope(nodes, scope, common)
                under2, hidden2 = _in_scope(nodes, there, common)
                node, node2 = nodes[here], nodes[first]
                if (hidden and free_vars(node) & hidden or hidden2 and free_vars(node2) & hidden2
                        or common and not abstraction_eq(under, node, under2, node2)):
                    return None
            for here, binder, inner in bound:
                if nodes[here] != nodes[binder] or any(nodes[here] == nodes[i] for i in inner):
                    return None
            if side:
                fn, ps, q, whole = side
                want = fn(*(nodes[i] for i in ps))
                if want != nodes[q]:
                    return whole and differs(whole, want, nodes[q])
            for scrut, extra, key, components, what in typed:
                ab = scrut_type(nodes[scrut], args, synth, extra(nodes), key)
                nodes += (ab, *components(ab, what))
            return make(nodes, args, synth)
    return tuple(steps), build, len(steps) if type_at is None else type_at


def _heads(low, high):
    """The (low, high) classes of the goals a reading of an inequality
    matches: a metavariable on both sides stands for alpha-equal effects,
    which have one class."""
    if isinstance(low, Meta) and low == high:
        return [(c, c) for c in EFFECTS if issubclass(c, low.cls)]
    return [tuple(p.cls if isinstance(p, Meta) else type(p) for p in (low, high))]


def pattern_rule(name, conclusion, premises, message, form=EffLeq, pack="core", zones=("G",),
                 type_message=None, side=None, both=False, extra=()):
    """Register rule `name`, whose conclusion, a pattern for each field of a
    `form` goal after its context, is read against the goal as written and,
    for an inequality with `both`, with its sides swapped, after the `extra`
    conclusions.  `side` is a condition on matched data: (f, (P, ...), Q)
    demands that Q be alpha-equal to f applied to what the Ps match, where a
    binder metavariable gives its name.  A goal of another form is told so; a
    goal that fits a conclusion but for its type gets `type_message`, in
    which {} is the type; one that one reading fits but for a side condition
    whose Q is a whole side is told how that side differs; and one no
    reading fits gets `message`."""
    sides = tuple(f.name for f in fields(form)[1:])
    readings = [(pats, sides) for pats in (*extra, conclusion)]
    if both:
        readings.append((conclusion, sides[::-1]))
    compiled = [_reading(pats, read, premises, zones, side) for pats, read in readings]
    heads = None
    if form is EffLeq:
        heads = []
        for pats, read in readings:
            fit = dict(zip(read, pats))
            heads += _heads(fit["low"], fit["high"])
        heads = tuple(dict.fromkeys(heads))
    wrong_form = f"conclusion is not {FORMS[form]}"

    def match(goal, args, synth):
        if type(goal) is not form:
            raise RuleMismatch(wrong_form)
        out, near = [], []
        for steps, build, type_at in compiled:
            nodes = [goal]
            for parent, field, cls, first in steps:
                node = getattr(nodes[parent], field)
                if not isinstance(node, cls) or first and not node == nodes[first]:
                    break
                nodes.append(node)
            else:
                found = build(nodes, args, synth)
                if type(found) is RuleMismatch:
                    near.append(found)
                elif found:
                    out.append(found)
                continue
            if type_message and len(nodes) > type_at:  # a step on the type failed
                raise RuleMismatch(lambda: type_message.format(print_type(goal.ty)))
        if not out:
            raise near[0] if len(near) == 1 else RuleMismatch(message)
        return out

    SCHEMAS[name] = Schema(name, pack, match, heads)


# ---- structural


@rule("exch")
def _exch(goal, args, synth):
    kind = {Typing: "ty", TermEq: "eq", EffForm: "eff", EffLeq: "leq"}[type(goal)]
    return [inst([Premise("G", (kind, *[getattr(goal, f.name) for f in fields(goal)[1:]]))], ["G"])]


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


pattern_rule("tensor", (Pair(M, N), TTensor(A, B)), [p_ty("G", M, A), p_ty("D", N, B)],
             "conclusion is not a pair typing", Typing, zones=("G", "D"),
             type_message="a pair cannot have type {}")


pattern_rule("let", (LetPair(X, Y, M, N), C), [p_ty("G", M, AB), p_ty("D", N, C, ext=((X, A), (Y, B)))],
             "conclusion is not a let typing", Typing, zones=("G", "D"))


pattern_rule("unit", (Star(), TUnit()), [], "conclusion is not a unit typing", Typing,
             type_message="unit value cannot have type {}")
pattern_rule("inl", (Inl(M), TSum(A, B)), [p_ty("G", M, A)], "conclusion is not an inl typing", Typing,
             type_message="inl cannot have type {}")
pattern_rule("inr", (Inr(M), TSum(A, B)), [p_ty("G", M, B)], "conclusion is not an inr typing", Typing,
             type_message="inr cannot have type {}")


pattern_rule("case", (Case(M, X, N, Y, N2), C),
             [p_ty("G", M, AB), p_ty("D", N, C, ext=((X, A),)), p_ty("D", N2, C, ext=((Y, B),))],
             "conclusion is not a case typing", Typing, zones=("G", "D"))


@rule("measure")
def _measure(goal, args, synth):
    need(isinstance(goal, Typing) and isinstance(goal.term, Measure), "conclusion is not a measure typing")
    bs = goal.term.branches
    prem = [p_leq("G", one(), ovee_all([phi for phi, _ in bs]))]
    prem += [p_ty("D", m, goal.ty) for _, m in bs]
    return [inst(prem, ["G", "D"])]


# ---- equality scaffolding


pattern_rule("ref", (M, M, A), [p_ty("G", M, A)], "the two sides are not alpha-equal", TermEq)
pattern_rule("sym", (M, N, A), [p_eq("G", N, M, A)], "conclusion is not a term equality", TermEq)


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


pattern_rule("tensor-eq", (Pair(M, N), Pair(M2, N2), TTensor(A, B)),
             [p_eq("G", M, M2, A), p_eq("D", N, N2, B)], "both sides must be pairs", TermEq,
             zones=("G", "D"), type_message="a pair equality must have a tensor type, got {}")


def freshen_binder(x, body, avoid):
    """Rename binder x of body away from the names in avoid."""
    if x in avoid:
        x2 = fresh(x, set(avoid) | free_vars(body) | bound_names(body))
        return x2, subst(body, x, Var(x2))
    return x, body


def _align_let(l: LetPair, r: LetPair, avoid):
    """Rename both lets to shared fresh binders; returns (x, y, bodyL, bodyR)."""
    avoid = set(avoid) | free_vars(l) | free_vars(r) | bound_names(l) | bound_names(r)
    x = fresh(l.x, avoid)
    y = fresh(l.y, avoid | {x})
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


pattern_rule("inl-eq", (Inl(M), Inl(N), TSum(A, B)), [p_eq("G", M, N, A)], "both sides must be inl",
             TermEq, type_message="inl must have a sum type, got {}")
pattern_rule("inr-eq", (Inr(M), Inr(N), TSum(A, B)), [p_eq("G", M, N, B)], "both sides must be inr",
             TermEq, type_message="inr must have a sum type, got {}")


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


# the right side is the left one's body with the paired or injected terms
# substituted for its binders
pattern_rule("beta-tensor", (LetPair(X, Y, Pair(M, N), R), R2, C),
             [p_ty("G", M, A), p_ty("D", N, B), p_ty("T", R, C, ext=((X, A), (Y, B)))],
             "left side must be `let x * y = M * N in P`", TermEq, zones=("G", "D", "T"),
             side=(lambda r, x, m, y, n: subst_many(r, {x: m, y: n}), (R, X, M, Y, N), R2))
pattern_rule("beta-plus-1", (Case(Inl(M), X, N, Y, N2), R, C),
             [p_ty("G", M, A), p_ty("D", N, C, ext=((X, A),)), p_ty("D", N2, C, ext=((Y, B),))],
             "left side must be `case inl M of ...`", TermEq, zones=("G", "D"), side=(subst, (N, X, M), R))
pattern_rule("beta-plus-2", (Case(Inr(M), X, N, Y, N2), R, C),
             [p_ty("G", M, B), p_ty("D", N, C, ext=((X, A),)), p_ty("D", N2, C, ext=((Y, B),))],
             "left side must be `case inr M of ...`", TermEq, zones=("G", "D"), side=(subst, (N2, Y, M), R))


# ---- eta conversions


pattern_rule("eta-tensor", (M, LetPair(X, Y, M, Pair(Var(X), Var(Y))), TTensor(A, B)),
             [p_ty("G", M, TTensor(A, B))], "conclusion must be `M = let x * y = M in x * y`", TermEq,
             type_message="needs a tensor-typed equality, got {}")
pattern_rule("eta-unit", (M, Star(), TUnit()), [p_ty("G", M, TUnit())],
             "conclusion must equate a unit-typed term with `unit`", TermEq)
pattern_rule("eta-plus", (M, Case(M, X, Inl(Var(X)), Y, Inr(Var(Y))), TSum(A, B)),
             [p_ty("G", M, TSum(A, B))], "conclusion must be `M = case M of inl x -> inl x | inr y -> inr y`",
             TermEq, type_message="needs a sum-typed equality, got {}")


# ---- commuting conversions


# the bodies the commuting conversions move keep their meaning: the pattern
# engine refuses one that names a binder in scope at only one of its places
pattern_rule("let-commute", (LetPair(X, Y, M, LetPair(X2, Y2, N, R)), LetPair(X2, Y2, LetPair(X, Y, M, N), R), C),
             [p_ty("G", M, AB), p_ty("D", N, AB2, ext=((X, A), (Y, B))), p_ty("T", R, C, ext=((X2, A2), (Y2, B2)))],
             "conclusion must be `let x * y = M in let z * t = N in P = let z * t = (let x * y = M in N) in P`",
             TermEq, zones=("G", "D", "T"))
pattern_rule("let-case", (LetPair(X2, Y2, Case(M, X, N, Y, N2), R),
                          Case(M, X, LetPair(X2, Y2, N, R), Y, LetPair(X2, Y2, N2, R)), C),
             [p_ty("G", M, AB), p_ty("D", N, AB2, ext=((X, A),)), p_ty("D", N2, AB2, ext=((Y, B),)),
              p_ty("T", R, C, ext=((X2, A2), (Y2, B2)))],
             "conclusion must be `let z * t = (case M of inl x -> N | inr y -> N') in P"
             " = case M of inl x -> let z * t = N in P | inr y -> let z * t = N' in P`",
             TermEq, zones=("G", "D", "T"))
pattern_rule("let-tensor", (Pair(LetPair(X, Y, M, N), R), LetPair(X, Y, M, Pair(N, R)), TTensor(C, D)),
             [p_ty("G", M, AB), p_ty("D", N, C, ext=((X, A), (Y, B))), p_ty("T", R, D)],
             "conclusion must be `(let x * y = M in N) * P = let x * y = M in N * P`", TermEq,
             zones=("G", "D", "T"), type_message="the conclusion must have a tensor type, got {}")
pattern_rule("case-commute", (Case(M, X, Case(N, X2, R, Y2, R2), Y, Case(N2, X2, R, Y2, R2)),
                              Case(Case(M, X, N, Y, N2), X2, R, Y2, R2), C),
             [p_ty("G", M, AB), p_ty("D", N, AB2, ext=((X, A),)), p_ty("D", N2, AB2, ext=((Y, B),)),
              p_ty("T", R, C, ext=((X2, A2),)), p_ty("T", R2, C, ext=((Y2, B2),))],
             "conclusion must be `case M of inl x -> (case N of inl z -> P | inr t -> Q) | inr y -> (case N'"
             " of inl z -> P | inr t -> Q) = case (case M of inl x -> N | inr y -> N') of inl z -> P | inr t -> Q`",
             TermEq, zones=("G", "D", "T"))
pattern_rule("case-tensor", (Pair(Case(M, X, N, Y, N2), R), Case(M, X, Pair(N, R), Y, Pair(N2, R)), TTensor(C, D)),
             [p_ty("G", M, AB), p_ty("D", N, C, ext=((X, A),)), p_ty("D", N2, C, ext=((Y, B),)), p_ty("T", R, D)],
             "conclusion must be `(case M of inl x -> N | inr y -> N') * P = case M of inl x -> N * P"
             " | inr y -> N' * P`", TermEq, zones=("G", "D", "T"),
             type_message="the conclusion must have a tensor type, got {}")


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
    need(all(isinstance(phi, CaseEff) for phi, _ in bs), "every branch effect must be a case effect")
    m = bs[0][0].scrut
    need(all(phi.scrut == m for phi, _ in bs), "branch effects must share one scrutinee")
    r = goal.rhs
    need(isinstance(r, Case) and r.scrut == m and isinstance(r.left, Measure) and isinstance(r.right, Measure)
         and len(r.left.branches) == len(r.right.branches) == len(bs),
         "right side must be a case on the shared scrutinee of a measure in each branch")
    for (phi, t), (left, tl), (right, tr) in zip(bs, r.left.branches, r.right.branches):
        need(abstraction_eq([r.x], left, [phi.x], phi.left) and abstraction_eq([r.y], right, [phi.y], phi.right)
             and tl == t and tr == t, "right side must split each branch effect with its term")
        # the branch terms move under the case binders
        need(not free_vars(t) & {r.x, r.y},
             lambda t=t: f"a case binder of the right side would capture a variable of {print_term(t)}")
    ab = scrut_type(m, args, synth)
    a, b = as_sum(ab, "the shared scrutinee")
    prem = [
        p_leq("G", one(), ovee_all([phi for phi, _ in r.left.branches]), ext=((r.x, a),)),
        p_leq("G", one(), ovee_all([psi for psi, _ in r.right.branches]), ext=((r.y, b),)),
        p_ty("D", m, ab),
    ]
    prem += [p_ty("T", t, goal.ty) for _, t in bs]
    return [inst(prem, ["G", "D", "T"])]


# ---- effect formation


pattern_rule("eff-0", (Zero(),), [], "conclusion is not `0 eff`", EffForm)
pattern_rule("eff-bot", (Orth(PHI),), [p_eff("G", PHI)], "conclusion is not `bot(phi) eff`", EffForm)
pattern_rule("eff-ovee", (OSum(PHI, PSI),), [p_leq("G", PHI, Orth(PSI))], "conclusion is not a sum formation",
             EffForm)
pattern_rule("eff-mult", (SMul(PHI, PSI),), [p_eff("", PHI), p_eff("G", PSI)],
             "conclusion is not a product formation", EffForm)


pattern_rule("eff-case", (CaseEff(M, X, PHI, Y, PSI),),
             [p_eff("G", PHI, ext=((X, A),)), p_eff("G", PSI, ext=((Y, B),)), p_ty("D", M, AB)],
             "conclusion is not a case formation", EffForm, zones=("G", "D"))


# ---- derivability


pattern_rule("leq-ref", (PHI, PHI), [p_eff("G", PHI)], "the two sides are not alpha-equal")


@rule("leq-trans")
def _leq_trans(goal, args, synth):
    need(isinstance(goal, EffLeq), "conclusion is not an inequality")
    mid = need_arg(args, "via", "leq-trans")
    return [inst([p_leq("G", goal.low, mid), p_leq("G", mid, goal.high)], ["G"])]


# ---- inequality rules


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


pattern_rule("beta-plus-1-eff", (CaseEff(Inl(M), X, PHI, Y, PSI), CHI),
             [p_eff("G", PHI, ext=((X, A),)), p_eff("G", PSI, ext=((Y, B),)), p_ty("D", M, A)],
             "conclusion must reduce `caseE (inl M)`", both=True, zones=("G", "D"), side=(subst, (PHI, X, M), CHI))
pattern_rule("beta-plus-2-eff", (CaseEff(Inr(M), X, PHI, Y, PSI), CHI),
             [p_eff("G", PHI, ext=((X, A),)), p_eff("G", PSI, ext=((Y, B),)), p_ty("D", M, B)],
             "conclusion must reduce `caseE (inr M)`", both=True, zones=("G", "D"), side=(subst, (PSI, Y, M), CHI))


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
        if free_vars(phi) - {z} & {rhs.x, rhs.y}:
            continue  # a case binder would capture a variable of phi
        out.append(
            inst(
                [p_eff("G", phi, ext=((z, zty),))],
                ["G"],
                fixed=((z, zty),),
            )
        )
    need(out, "conclusion must eta-expand an effect at a sum variable")
    return out


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


pattern_rule("qbit-new", (NewPlus(), TQbit()), [], "conclusion is not a plus-state typing", Typing, "qubit",
             type_message="plus is a qubit")
pattern_rule("qbit-x", (PauliX(M), TQbit()), [p_ty("G", M, TQbit())], "conclusion is not an X typing", Typing,
             "qubit", type_message="X produces a qubit")
pattern_rule("qbit-z", (PauliZ(M), TQbit()), [p_ty("G", M, TQbit())], "conclusion is not a Z typing", Typing,
             "qubit", type_message="Z produces a qubit")
pattern_rule("qbit-cz", (CZ(M, N), TTensor(TQbit(), TQbit())), [p_ty("G", M, TQbit()), p_ty("D", N, TQbit())],
             "conclusion is not a controlled-Z typing", Typing, "qubit", zones=("G", "D"),
             type_message="E produces a pair of qubits")
pattern_rule("qbit-proj", (pattern(ProjPlus, M, P),), [p_ty("G", M, TQbit())],
             "conclusion is not a projection formation", EffForm, "qubit")
pattern_rule("qbit-cz-x",
             (CZ(PauliX(M), N), LetPair(X, Y, CZ(M, N), Pair(PauliX(Var(X)), PauliZ(Var(Y)))), A),
             [p_ty("G", M, TQbit()), p_ty("D", N, TQbit())],
             "conclusion must be `E (X M) N = let x * y = E M N in X x * Z y`", TermEq, "qubit",
             zones=("G", "D"))
pattern_rule("qbit-cz-z", (CZ(PauliZ(M), N), LetPair(X, Y, CZ(M, N), Pair(PauliZ(Var(X)), Var(Y))), A),
             [p_ty("G", M, TQbit()), p_ty("D", N, TQbit())],
             "conclusion must be `E (Z M) N = let x * y = E M N in Z x * y`", TermEq, "qubit",
             zones=("G", "D"))
pattern_rule("qbit-x-proj", (pattern(ProjPlus, PauliX(M), P), pattern(ProjPlus, M, Q)),
             [p_ty("G", M, TQbit())], "conclusion must reflect a projection angle through X", pack="qubit",
             side=(angle_neg, (P,), Q), both=True)
pattern_rule("qbit-z-proj", (pattern(ProjPlus, PauliZ(M), P), pattern(ProjPlus, M, Q)),
             [p_ty("G", M, TQbit())], "conclusion must shift a projection angle through Z", pack="qubit",
             side=(angle_minus_pi, (P,), Q), both=True)
pattern_rule("qbit-xx", (PauliX(PauliX(M)), M, A), [p_ty("G", M, TQbit())],
             "conclusion must be `X (X M) = M`", TermEq, "qubit")
pattern_rule("qbit-zz", (PauliZ(PauliZ(M)), M, A), [p_ty("G", M, TQbit())],
             "conclusion must be `Z (Z M) = M`", TermEq, "qubit")
pattern_rule("qbit-xz-zx", (pattern(ProjPlus, PauliX(PauliZ(M)), P), pattern(ProjPlus, PauliZ(PauliX(M)), P)),
             [p_ty("G", M, TQbit())], "conclusion must exchange X Z with Z X under a projection",
             pack="qubit", both=True)


# ---- beta-iso pack


def _extract_at_var(body, x, filled):
    """The term standing at x's free positions when `filled` is [R/x]body.

    Walks the two trees in parallel through `subterms`, aligning binders and
    comparing data fields; returns None when the shapes or data disagree or
    the occurrences collect different terms.
    """

    found = []

    def walk(b, f, pairs):
        # pairs: aligned binder names (body side, filled side), innermost last
        if type(b) is Var:
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
        if type(b) is not type(f) or any(getattr(b, d) != getattr(f, d) for d in SHAPES[type(b)].data):
            return False
        bs, fs = subterms(b), subterms(f)
        return len(bs) == len(fs) and all(
            walk(bm, fm, pairs + list(zip(bnames, fnames))) for (bm, bnames), (fm, fnames) in zip(bs, fs)
        )

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
