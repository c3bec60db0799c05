"""Proof script checking and bounded search for the inequality fragment.

Scripts are checked goal-directed: a rule node's conclusion must instantiate
its named schema, the context is split deterministically over the premises
by `typecheck.split_zones` (each variable goes to the premise that needs it,
leftovers to the last open premise), and child scripts are checked against
the resulting premise judgements.  A node given without premises has them
discharged automatically: typing and formation premises by the type checker,
inequality premises by a prover the caller passes in, and equality premises
only when reflexive.  For a script that prover is a bounded search.

Search over the inequality rules is depth-bounded and deterministic.  At a
goal it tries, in `SEARCH_RULES` order, only the rules whose heads
(`rules.Schema.heads`, read off a pattern rule's conclusion or declared by
a rule given as code) admit the classes of the goal's two sides; that is
necessary for a schema to match, so the index skips only misses.  The
transitivity rule is explored against a fixed family of middle candidates
(double orthosupplements, the top and zero effects, and immediate summands).
One search expands at most `SEARCH_BUDGET` goals, counting those of the
searches that the obligations of its typing and formation premises start;
running out ends the whole search with `SearchBudgetExhausted`, which no
rule catches.  Only goals missing from the table are counted, so whether a
search runs out depends on what earlier searches on the same lemma
environment tabled; which derivation a finished search returns does not.
Search derivations are assembled by the script checker's discharge
(`_discharge`): each rule instance the search tries is a node without
premise scripts, whose inequality premises the search itself proves one
level shallower.  So everything a search finds is an ordinary script that
re-checks, and scripts and search build rule nodes in one place.

The search is tabled (SLG-style, after Chen & Warren, JACM 43(1), 1996),
with one `SearchTable` per lemma environment: `Env.add_lemma` replaces it
when the new lemma proves an inequality, and every search and unscripted
formation premise in between shares it:

- a success is stored under (goal, depth) and reused only at that depth,
  since a deeper search may find an earlier rule's proof first;
- a failure is stored as the deepest depth at which the goal failed, and
  answers every request at that depth or less: whatever a shallower search
  finds, a deeper one finds too;
- goals are keyed by value (`EffLeq` equality: context entries and the
  alpha-keys of both effects), never by hash, so colliding hashes cannot
  merge distinct goals; an alpha-variant of a stored goal gets the stored
  derivation, which proves it too;
- a typing or formation premise is stored with its derivation or its type
  error, whichever the type checker gave.

`_search(goal, depth)` and the formation checks are pure functions of the
goal, the depth, the packs, the default depth and the inequality lemmas.
A lemma reaches a table entry only when a search cites it (`_cite`, in
`_search_rules`, which the searches that formation checks start run too),
and a search cites only a lemma judgement equal to its goal up to exchange,
which `judgement_up_to_exchange` never finds across judgement forms.  So a
lemma that proves only equations or typings changes no entry, and only
adding a lemma with an inequality among its judgements drops the table.
The search finds those by one lookup in `Env.leqs`, which indexes them by
their two sides; the least name whose context is a reordering of the
goal's is cited, the lemma a scan in name order would find first.  A budget
that runs out is never stored.  No cycle check is needed: every recursive
call lowers the depth by one, so no (goal, depth) key repeats along a path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain

from . import rules
from .parser import ARG_SORTS, ArithNode, AutoNode, BothNode, ScriptNode, UseNode
from .rules import Instantiation, RuleMismatch, Schema
from .syntax import (
    EffForm,
    EffLeq,
    Judgement,
    Orth,
    OSum,
    ScalarLit,
    SMul,
    TermEq,
    Typing,
    Zero,
    free_vars,
    judgement_up_to_exchange,
    one,
)
from .typecheck import (
    Derivation,
    ObligationError,
    QpelTypeError,
    Resolver,
    check_effect,
    check_term,
    show_judgement,
    split_context,  # not called here; perfbench/tracer.py rebinds it by name
    split_zones,
    synth_type,
)


class DerivationError(Exception):
    """A script or premise that does not check.  As with
    `rules.RuleMismatch`, the message may be a function giving it, so that
    the search formats none of the failures it discards."""

    __str__ = RuleMismatch.__str__


@dataclass
class Env:
    """A lemma environment: the rule packs, the default search depth, the
    lemmas proved so far, their inequalities indexed for the search, and
    the `SearchTable` of what the search and the formation checks have
    worked out under them.  Lemmas are added only by `add_lemma`, which
    replaces the table when the lemma it adds, or the one of that name it
    replaces, proves an inequality: no search cites any other."""

    packs: frozenset = rules.DEFAULT_PACKS
    depth: int = 6
    lemmas: dict = field(default_factory=dict)  # name -> list[Judgement]
    leqs: dict = field(init=False, repr=False, compare=False)  # (low, high) -> [(name, ctx)]
    search: SearchTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.packs = frozenset(self.packs) | {"core"}
        self._index()
        self.search = SearchTable()

    def add_lemma(self, name: str, judgements) -> None:
        replaced = self.lemmas.get(name, ())
        self.lemmas[name] = list(judgements)
        if any(isinstance(j, EffLeq) for j in chain(replaced, self.lemmas[name])):
            self._index()
            self.search = SearchTable()

    def _index(self) -> None:
        self.leqs = {}
        for name, judgements in self.lemmas.items():
            for j in judgements:
                if isinstance(j, EffLeq):
                    self.leqs.setdefault((j.low, j.high), []).append((name, j.ctx))

    def resolver(self, scripts=()):
        return QueueResolver(list(scripts), self)


class QueueResolver(Resolver):
    """Feeds attached `requires` scripts to obligations in encounter order,
    falling back to bounded search."""

    def __init__(self, scripts, env: Env):
        self.scripts = list(scripts)
        self.env = env

    def resolve(self, goal: EffLeq) -> Derivation:
        if self.scripts:
            script = self.scripts.pop(0)
            try:
                return check_script(goal, script, self.env)
            except (DerivationError, QpelTypeError) as exc:
                raise ObligationError(goal, f"attached script failed: {exc}")
        try:
            return auto_search_leq(goal, self.env.depth, self.env)
        except SearchFailed:
            raise ObligationError(goal, f"no proof found within depth {self.env.depth}")


# ------------------------------------------------------------ literal effects


def literal_value(e) -> Fraction | None:
    """Exact value of a variable-free scalar effect; None when not literal or
    when a partial sum inside is undefined."""
    match e:
        case Zero():
            return Fraction(0)
        case ScalarLit(value=v):
            return v
        case Orth(arg=a):
            v = literal_value(a)
            return None if v is None else 1 - v
        case OSum(left=a, right=b):
            va, vb = literal_value(a), literal_value(b)
            if va is None or vb is None or va + vb > 1:
                return None
            return va + vb
        case SMul(scalar=a, body=b):
            va, vb = literal_value(a), literal_value(b)
            if va is None or vb is None:
                return None
            return va * vb
    return None


def check_arith(goal: Judgement) -> Derivation:
    if isinstance(goal, EffLeq):
        lo, hi = literal_value(goal.low), literal_value(goal.high)
        if lo is None or hi is None:
            raise DerivationError(
                f"arith applies only to literal scalar effects: {show_judgement(goal)}"
            )
        if not lo <= hi:
            raise DerivationError(
                f"arith refuted: {lo} <= {hi} is false in {show_judgement(goal)}"
            )
        return Derivation("arith", goal)
    raise DerivationError("arith proves only inequality judgements")


# ------------------------------------------------------------- script checking


def check_script(goal: Judgement, script, env: Env) -> Derivation:
    match script:
        case AutoNode(depth=d):
            if isinstance(goal, TermEq) and goal.lhs != goal.rhs:
                raise DerivationError(
                    f"auto cannot prove {show_judgement(goal)}; give an explicit script"
                )
            depth = d if d is not None else env.depth
            prove_leq = _searcher(depth, env, "auto: no proof found within depth {} for {}")
            return _unscripted(goal, env, prove_leq)
        case ArithNode():
            return check_arith(goal)
        case UseNode(name=n):
            if n not in env.lemmas:
                raise DerivationError(f"use({n}): no such lemma")
            d = _use(goal, n, env)
            if d is None:
                raise DerivationError(
                    f"use({n}): lemma does not prove {show_judgement(goal)}"
                )
            return d
        case BothNode():
            raise DerivationError(
                "both(...) is only meaningful for an equivalence position"
            )
        case ScriptNode(rule=name, args=args, premises=children):
            prove_leq = _searcher(env.depth, env, "premise not proved within depth {}: {}")
            return _rule_node(goal, name, args, children, env, prove_leq)
    raise DerivationError(f"not a proof script: {script!r}")


def _searcher(depth: int, env: Env, message: str):
    """The inequality prover of a script: a bounded search, failing
    with `message` formatted with the depth and the goal."""

    def prove(j: EffLeq) -> Derivation:
        try:
            return auto_search_leq(j, depth, env)
        except SearchFailed:
            raise DerivationError(lambda: message.format(depth, show_judgement(j))) from None

    return prove


def _use(goal: Judgement, name: str, env: Env) -> Derivation | None:
    """`use(name)` at goal, if lemma `name` proves goal up to exchange."""
    for j in env.lemmas[name]:
        if judgement_up_to_exchange(j, goal):
            return Derivation("use", goal, (), {"name": name})
    return None


def _cite(goal: EffLeq, env: Env) -> Derivation | None:
    """`use` of the least-named lemma that proves goal up to exchange, if
    any: what `_use` finds first when tried on every lemma in name order."""
    names = [name for name, g in env.leqs.get((goal.low, goal.high), ())
             if g.same_multiset(goal.ctx)]
    if not names:
        return None
    return Derivation("use", goal, (), {"name": min(names)})


def _rule_node(goal, name, args, children, env: Env, prove_leq) -> Derivation:
    """A script node: the first reading of rule `name` at goal whose premises
    check."""
    schema: Schema | None = rules.SCHEMAS.get(name)
    if schema is None:
        raise DerivationError(f"unknown rule name {name!r}")
    if schema.pack not in env.packs:
        raise DerivationError(
            f"rule {name} belongs to the disabled pack {schema.pack!r}"
        )
    try:
        candidates = schema.match(goal, args, partial(synth_type, goal.ctx))
    except RuleMismatch as exc:
        raise DerivationError(f"{name}: schema mismatch: {exc}")

    error = None
    for instn in candidates:
        try:
            return _discharge(goal, name, args, instn, children, env, prove_leq)
        except (DerivationError, QpelTypeError) as exc:
            if error is None:
                error = str(exc)
    raise DerivationError(f"{name}: {error if error is not None else 'no reading applies'}")


def _discharge(goal, name, args, instn: Instantiation, children, env: Env,
               prove_leq) -> Derivation:
    """The node of rule `name` concluding goal from the premises of instn:
    each checked against its script in children or, with children None,
    derived by `_unscripted` with `prove_leq` for inequalities.  Scripts and
    the search build every rule node here."""
    bindings = split_zones(goal.ctx, instn)
    premises = instn.premises
    if children is None:
        children = (None,) * len(premises)
    elif len(children) != len(premises):
        raise DerivationError(
            f"{name} takes {len(premises)} premises, got {len(children)}"
        )

    child_derivs = []
    for p, script in zip(premises, children):
        j = p.to_judgement(bindings[p.zone])
        if p.shape[0] == "equiv":
            fwd, bwd = j, EffLeq(j.ctx, j.high, j.low)
            if isinstance(script, BothNode):
                df, db = check_script(fwd, script.fwd, env), check_script(bwd, script.bwd, env)
            elif script is None:
                df, db = _unscripted(fwd, env, prove_leq), _unscripted(bwd, env, prove_leq)
            else:
                df, db = check_script(fwd, script, env), check_script(bwd, script, env)
            child_derivs.append(Derivation("both", fwd, (df, db)))
        elif script is None:
            child_derivs.append(_unscripted(j, env, prove_leq))
        else:
            child_derivs.append(check_script(j, script, env))
    return Derivation(name, goal, tuple(child_derivs), dict(args))


def _unscripted(j: Judgement, env: Env, prove_leq) -> Derivation:
    """A derivation of a judgement given without a script: inequalities by
    `prove_leq`, typing and formation by the type checker through the lemma
    environment's table, and equalities only when reflexive."""
    if isinstance(j, EffLeq):
        return prove_leq(j)
    if isinstance(j, (Typing, EffForm)):
        formed = env.search.formed
        d = formed.get(j)
        if d is None:
            try:
                if isinstance(j, Typing):
                    d = check_term(j.ctx, j.term, j.ty, env.resolver())
                else:
                    d = check_effect(j.ctx, j.eff, env.resolver())
            except QpelTypeError as exc:
                # kept without the frames and the exception it was raised in
                d = exc.with_traceback(None)
                d.__context__ = None
            formed[j] = d
        if isinstance(d, QpelTypeError):
            # each hit raises a copy, so the stored error never takes a traceback
            exc = type(d).__new__(type(d), *d.args)
            exc.__dict__.update(vars(d))
            raise exc
        return d
    if j.lhs == j.rhs:
        return _rule_node(j, "ref", {}, None, env, prove_leq)
    raise DerivationError(lambda: f"premise needs an explicit script: {show_judgement(j)}")


# ------------------------------------------------------------- bounded search


class SearchFailed(Exception):
    pass


# inequality-concluding rules explored by the search, in order; transitivity
# is handled separately with a bounded middle-candidate family
SEARCH_RULES = (
    "leq-ref", "arith", "zero-leq", "ortho-2", "ovee-0", "leq-ovee",
    "bot-bot", "bot-antitone", "ovee-comm", "ovee-mono", "perp-rotate",
    "ovee-assoc", "ortho-1", "unit-l", "unit-r", "assoc", "comm", "dist-l",
    "dist-r", "case-mono", "case-leq", "case-ovee", "case-bot", "case-times",
    "case-cong", "eta-plus-eff", "qbit-x-proj", "qbit-z-proj", "qbit-xz-zx",
)

# goals one outermost `auto_search_leq` call may expand, with those of the
# searches nested in it.  No call that finishes in the test suite expands
# more than 647, nor more than 451 in the benchmark workloads (252 on
# corpus), nor more than 1,601 with the refutable converses at auto(6);
# checked in one file at auto(40), each of them reaches the budget in 0.5
# to 0.8 seconds on 2 vCPUs.
SEARCH_BUDGET = 10_000


class SearchBudgetExhausted(Exception):
    """An outermost search call, given as (goal, depth), that expanded
    SEARCH_BUDGET goals with the searches nested in it.  It is not a rule
    failure: nothing in the checker catches or tables it, and the driver
    reports it as a proof error."""

    def __str__(self):
        goal, depth = self.args
        return (f"auto: budget exhausted after {SEARCH_BUDGET} nodes "
                f"at depth {depth} for {show_judgement(goal)}")


def _mid_candidates(goal: EffLeq):
    out = [Orth(Orth(goal.low)), one()]
    if isinstance(goal.high, OSum):
        out.append(goal.high.left)
        out.append(goal.high.right)
        out.append(OSum(goal.high.right, goal.high.left))
    if isinstance(goal.low, OSum):
        out.append(goal.low.left)
        out.append(OSum(goal.low.right, goal.low.left))
    if isinstance(goal.high, Orth):
        out.append(Orth(Orth(goal.high)))
    dedup = []
    for c in out:
        if c not in dedup and c != goal.low and c != goal.high:
            dedup.append(c)
    return dedup


class SearchTable:
    """The answers of the searches and formation checks run on one lemma
    environment, keyed by judgement value, and the budget count of the
    outermost search running."""

    def __init__(self):
        self.proved = {}  # (goal, depth) -> Derivation
        self.failed = {}  # goal -> deepest depth at which the search failed
        self.formed = {}  # Typing | EffForm -> Derivation | QpelTypeError
        self.nodes = 0  # goals the outermost search has expanded
        self.root = None  # its (goal, depth) while it runs


def auto_search_leq(goal: EffLeq, depth: int, env: Env) -> Derivation:
    """Deterministic bounded search; results always re-check.  A call made
    while another runs, by an obligation of a premise it types, charges the
    running call's budget."""
    table = env.search
    if table.root is not None:
        return _search(goal, depth, env, table)
    table.root, table.nodes = (goal, depth), 0
    try:
        return _search(goal, depth, env, table)
    finally:
        table.root = None


def _search(goal: EffLeq, depth: int, env: Env, table: SearchTable) -> Derivation:
    if depth <= 0 or table.failed.get(goal, 0) >= depth:
        raise SearchFailed()
    d = table.proved.get((goal, depth))
    if d is not None:
        return d
    if table.nodes == SEARCH_BUDGET:
        raise SearchBudgetExhausted(*table.root)
    table.nodes += 1
    try:
        d = _search_rules(goal, depth, env, table)
    except SearchFailed:
        table.failed[goal] = depth
        raise
    table.proved[goal, depth] = d
    return d


# the search's steps before transitivity, per (low, high) class pair of a
# goal: each rule whose heads admit the pair, without script arguments, in
# SEARCH_RULES order; built when a pair is first met, and holding names, as
# the schemas are looked up when tried
_RULE_STEPS = {}


def _rule_steps(goal: EffLeq) -> tuple:
    heads = type(goal.low), type(goal.high)
    steps = _RULE_STEPS.get(heads)
    if steps is None:
        steps = _RULE_STEPS[heads] = tuple(
            (name, {}) for name in SEARCH_RULES
            if name == "arith" or rules.SCHEMAS[name].admits(*heads)
        )
    return steps


def _trans_steps(goal: EffLeq):
    """Transitivity through each middle candidate, built only when reached."""
    for mid in _mid_candidates(goal):
        yield "leq-trans", {"via": mid}


def _search_rules(goal: EffLeq, depth: int, env: Env, table: SearchTable) -> Derivation:
    d = _cite(goal, env)
    if d is not None:
        return d

    synth = partial(synth_type, goal.ctx)

    def prove_leq(j):
        return _search(j, depth - 1, env, table)

    steps = _rule_steps(goal)
    if depth >= 2:
        steps = chain(steps, _trans_steps(goal))
    for name, args in steps:
        if name == "arith":
            # arith has no schema; comparing here instead of calling
            # check_arith spares a raise at each non-literal goal, about 3%
            # of a refute pass.  A literal effect has no variables, so a
            # goal with any is not evaluated.
            if free_vars(goal.low) or free_vars(goal.high):
                continue
            lo, hi = literal_value(goal.low), literal_value(goal.high)
            if lo is not None and hi is not None and lo <= hi:
                return Derivation("arith", goal)
            continue
        schema = rules.SCHEMAS[name]
        if schema.pack not in env.packs:
            continue
        try:
            candidates = schema.match(goal, args, synth)
        except RuleMismatch:
            continue
        for instn in candidates:
            try:
                return _discharge(goal, name, args, instn, None, env, prove_leq)
            except (SearchFailed, DerivationError, QpelTypeError):
                pass
    raise SearchFailed()


# ------------------------------------------------------- derivation re-check


def deriv_to_script(d: Derivation):
    """Convert an emitted derivation back into a checkable script."""
    if d.rule in ("lit",):
        return AutoNode()
    if d.rule == "arith":
        return ArithNode()
    if d.rule == "use":
        return UseNode(d.args["name"])
    if d.rule == "both":
        return BothNode(deriv_to_script(d.children[0]), deriv_to_script(d.children[1]))
    prems = tuple(deriv_to_script(c) for c in d.children)
    args = {
        k: v for k, v in d.args.items() if (d.rule, k) in ARG_SORTS or (None, k) in ARG_SORTS
    }
    return ScriptNode(d.rule, args, prems if prems else None)


def recheck_derivation(d: Derivation, env: Env) -> Derivation:
    return check_script(d.judgement, deriv_to_script(d), env)
