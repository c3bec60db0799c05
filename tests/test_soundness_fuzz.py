"""Randomised soundness: derivable judgements built over random well-typed
subterms must evaluate true in every backend able to interpret them.

This complements the fixed rule corpus with instance shapes the corpus does
not enumerate: random contexts, nested subterms, and searched inequalities.
"""
import random
from fractions import Fraction

import pytest

from qpel.backends import make_backend
from qpel.corpus import build_item
from qpel.derivation import DerivationError, Env, SearchFailed, auto_search_leq, check_script, deriv_to_script
from qpel.interpreter import backend_applicable, judgement_true
from qpel.parser import ScriptNode
from qpel.randgen import canonical, typed_context, typed_effect, typed_term, typed_type
from qpel.syntax import (
    Ascribe,
    ScalarLit,
    TQbit,
    Case,
    CaseEff,
    Context,
    EffLeq,
    Inl,
    Inr,
    LetPair,
    Measure,
    Orth,
    OSum,
    Pair,
    Star,
    TermEq,
    TSum,
    TTensor,
    TUnit,
    Var,
    Zero,
    free_vars,
    one,
    subst,
    subst_many,
)
from qpel.typecheck import QpelTypeError, check_judgement

BACKENDS = [make_backend(n) for n in ("set", "stochastic", "quantum")]


def _verify(it_judgement, script, requires=()):
    env = Env(packs=frozenset({"core", "qubit", "beta-iso"}))
    j, ds = check_judgement(it_judgement, env.resolver(requires))
    check_script(j, script, env)
    for b in BACKENDS:
        if backend_applicable(b, it_judgement, ds):
            assert judgement_true(b, it_judgement), (b.name, it_judgement)


def _accepted(it_judgement, script, requires=()):
    """Whether the checker accepts the judgement by script, which it then
    verifies as `_verify` does."""
    try:
        _verify(it_judgement, script, requires)
    except (QpelTypeError, DerivationError):
        return False
    return True


def test_random_eta_tensor_instances():
    rng = random.Random(81)
    for _ in range(12):
        a = typed_type(rng, 1, qbit=True)
        b = typed_type(rng, 1, qbit=True)
        g = typed_context(rng, rng.randint(0, 2), qbit=True)
        m = typed_term(rng, g, TTensor(a, b), depth=2)
        rhs = LetPair("ex", "ey", Ascribe(m, TTensor(a, b)), Pair(Var("ex"), Var("ey")))
        _verify(TermEq(g, m, rhs, TTensor(a, b)), ScriptNode("eta-tensor", {}, None))


def test_random_eta_unit_instances():
    rng = random.Random(82)
    for _ in range(12):
        g = typed_context(rng, rng.randint(0, 2), qbit=True)
        m = typed_term(rng, g, TUnit(), depth=2)
        _verify(TermEq(g, m, Star(), TUnit()), ScriptNode("eta-unit", {}, None))


def test_random_eta_plus_instances():
    rng = random.Random(83)
    for _ in range(12):
        a = typed_type(rng, 1, qbit=True)
        b = typed_type(rng, 1, qbit=True)
        g = typed_context(rng, rng.randint(0, 2), qbit=True)
        m = typed_term(rng, g, TSum(a, b), depth=2)
        rhs = Case(Ascribe(m, TSum(a, b)), "ex", Inl(Var("ex")), "ey", Inr(Var("ey")))
        _verify(TermEq(g, m, rhs, TSum(a, b)), ScriptNode("eta-plus", {}, None))


def test_random_beta_tensor_instances():
    rng = random.Random(84)
    for _ in range(12):
        a = typed_type(rng, 1, qbit=True)
        b = typed_type(rng, 1, qbit=True)
        c = typed_type(rng, 1, qbit=True)
        gm = Context((("gm", typed_type(rng, 1, True)),))
        gn = Context((("gn", typed_type(rng, 1, True)),))
        m = typed_term(rng, gm, a, depth=2)
        n = typed_term(rng, gn, b, depth=2)
        body_ctx = Context(((("bx"), a), (("by"), b)))
        p = typed_term(rng, body_ctx, c, depth=2)
        lhs = LetPair("bx", "by", Ascribe(Pair(m, n), TTensor(a, b)), p)
        rhs = subst_many(p, {"bx": Ascribe(m, a), "by": Ascribe(n, b)})
        goal = TermEq(Context(gm.entries + gn.entries), lhs, rhs, c)
        _verify(goal, ScriptNode("beta-tensor", {"ty": TTensor(a, b)}, None))


def test_random_measure_permutations():
    rng = random.Random(85)
    for _ in range(10):
        g = Context((("q", TQbit()),))
        phi = typed_effect(rng, g, depth=1)
        branches = ((phi, Inl(Star())), (Orth(phi), Inr(Star())))
        lhs = Measure(branches)
        rhs = Measure((branches[1], branches[0]))
        goal = TermEq(g, lhs, rhs, TSum(TUnit(), TUnit()))
        _verify(goal, ScriptNode("measure-perm", {"perm": (2, 1)}, None))


def test_random_searched_inequalities_are_true():
    rng = random.Random(86)
    env = Env()
    found, skipped = 0, 0
    while found < 30 and skipped < 200:
        g = typed_context(rng, rng.randint(1, 2), qbit=True)
        phi = typed_effect(rng, g, depth=2)
        shape = rng.randrange(4)
        if shape == 0:
            goal = EffLeq(g, Zero(), phi)
        elif shape == 1:
            goal = EffLeq(g, phi, one())
        elif shape == 2:
            goal = EffLeq(g, one(), OSum(phi, Orth(phi)))
        else:
            goal = EffLeq(g, OSum(phi, Zero()), phi)
        try:
            check_judgement(goal, env.resolver())
            d = auto_search_leq(goal, 6, env)
        except (SearchFailed, Exception) as exc:
            if isinstance(exc, SearchFailed):
                skipped += 1
                continue
            raise
        redone = check_script(goal, deriv_to_script(d), env)
        assert redone.judgement == goal
        for b in BACKENDS:
            if backend_applicable(b, goal):
                assert judgement_true(b, goal), (b.name, goal)
        found += 1
    assert found >= 30


def test_random_measure_zero_extension():
    rng = random.Random(87)
    for _ in range(8):
        g = Context()
        q = Fraction(rng.randint(0, 4), 4)
        phi = ScalarLit(q) if q else Zero()
        branches = ((phi, Inl(Star())), (Orth(phi), Inr(Star())))
        lhs = Measure(branches + ((Zero(), Inl(Star())),))
        rhs = Measure(branches)
        goal = TermEq(g, lhs, rhs, TSum(TUnit(), TUnit()))
        _verify(goal, ScriptNode("measure-0", {}, None))


def _context(rng):
    """A context of one or two entries: small, as the quantum backend's maps
    grow with the fourth power of its dimension."""
    return typed_context(rng, rng.randint(1, 2), qbit=True)


def _binders(rng, names, *fresh):
    """For each name of fresh, one of names half the time, so that a binder
    may capture a variable of that name, and else the fresh name: all
    distinct."""
    out = []
    for f in fresh:
        taken = [n for n in names if n not in out]
        out.append(rng.choice(taken) if taken and rng.random() < 0.5 else f)
    return out


def _under(binders, g):
    """The context of a term under binders in g: the binders, and g's
    entries they do not shadow."""
    names = {x for x, _ in binders}
    return Context(tuple(binders) + tuple(e for e in g.entries if e[0] not in names))


def _commuting(rng, rule):
    """A random instance of a commuting conversion over well-typed parts:
    the judgement, its script's arguments, and the subterms that move
    across the binders x and y, with their names, which are often names the
    moved subterms use."""
    g, parts = _context(rng), [[], [], []]
    for entry in g.entries:
        rng.choice(parts).append(entry)
    gm, gn, gr = (Context(tuple(p)) for p in parts)
    # the type of what moves is often one of its context's, which it then uses
    a, b, c, d, e = (typed_type(rng, 2) for _ in range(5))
    if gr and rng.random() < 0.5:
        d = e = rng.choice(gr.entries)[1]
    z, t = _binders(rng, gm.names() + gn.names(), "bz", "bt")

    def part(ty, ctx, *binders):
        return Ascribe(typed_term(rng, _under(binders, ctx), ty, depth=2), ty)

    if rule.endswith("tensor"):
        moved = [part(d, gr)]
    elif rule == "case-commute":
        moved = [part(e, gr, (z, c)), part(e, gr, (t, d))]
    else:
        moved = [part(e, gr, (z, c), (t, d))]
    used = [n for n in gr.names() if any(n in free_vars(m) for m in moved)]
    x, y = _binders(rng, used * 2 + [n for n in g.names() if n not in (z, t)], "bx", "by")
    # a binder that reuses a context name has its type, so that a capture
    # type-checks and only the rule can refuse it
    a, b = (g.lookup(v) or ty for v, ty in ((x, a), (y, b)))
    r, r2 = moved[0], moved[-1]
    tensor, plus = TTensor(a, b), TSum(a, b)
    if rule == "let-tensor":
        m, n = part(tensor, gm), part(c, gn, (x, a), (y, b))
        return (TermEq(g, Pair(LetPair(x, y, m, n), r), LetPair(x, y, m, Pair(n, r)), TTensor(c, d)),
                {"ty": tensor}, moved, {x, y})
    if rule == "case-tensor":
        m, n, n2 = part(plus, gm), part(c, gn, (x, a)), part(c, gn, (y, b))
        return (TermEq(g, Pair(Case(m, x, n, y, n2), r), Case(m, x, Pair(n, r), y, Pair(n2, r)), TTensor(c, d)),
                {"ty": plus}, moved, {x, y})
    if rule == "let-commute":
        cd = TTensor(c, d)
        m, n = part(tensor, gm), part(cd, gn, (x, a), (y, b))
        return (TermEq(g, LetPair(x, y, m, LetPair(z, t, n, r)), LetPair(z, t, LetPair(x, y, m, n), r), e),
                {"ty": tensor, "ty2": cd}, moved, {x, y})
    cd = TTensor(c, d) if rule == "let-case" else TSum(c, d)
    m, n, n2 = part(plus, gm), part(cd, gn, (x, a)), part(cd, gn, (y, b))
    if rule == "let-case":
        return (TermEq(g, LetPair(z, t, Case(m, x, n, y, n2), r),
                       Case(m, x, LetPair(z, t, n, r), y, LetPair(z, t, n2, r)), e),
                {"ty": plus, "ty2": cd}, moved, {x, y})
    return (TermEq(g, Case(m, x, Case(n, z, r, t, r2), y, Case(n2, z, r, t, r2)),
                   Case(Case(m, x, n, y, n2), z, r, t, r2), e),
            {"ty": plus, "ty2": cd}, moved, {x, y})


def _measure_case(rng):
    """A random instance of measure-case: two branches whose effects are the
    case effects of corpus lemma measure-case-0, variables or values that
    move under the case binders x and y, and that lemma's proofs of the
    obligations."""
    gt = _context(rng)
    c = rng.choice(gt.entries)[1] if rng.random() < 0.5 else typed_type(rng, 2)
    x, y = _binders(rng, gt.names(), "bx", "by")
    a, b = (gt.lookup(v) or typed_type(rng, 2) for v in (x, y))
    g = Context((("s", TSum(a, b)),) + gt.entries)
    effects = [(one(), Zero()), (Zero(), one())]
    # no measurement in the terms, whose obligations would come before the
    # right side's in the order the lemma's proofs follow
    terms = [rng.choice([Var(n) for n, ty in gt if ty == c] + [canonical(c)]) for _ in effects]
    lhs = Measure(tuple((CaseEff(Var("s"), x, phi, y, psi), m) for (phi, psi), m in zip(effects, terms)))
    rhs = Case(Var("s"), x, Measure(tuple((phi, m) for (phi, _), m in zip(effects, terms))),
               y, Measure(tuple((psi, m) for (_, psi), m in zip(effects, terms))))
    return TermEq(g, lhs, rhs, c), build_item("measure-case", 0).requires, terms, {x, y}


def _eta_plus_eff(rng):
    """A random instance of eta-plus-eff at the sum variable s, read either
    way, with the effect that moves under the case binders x and y."""
    g0 = _context(rng)
    x, y = _binders(rng, g0.names(), "bx", "by")
    a, b = (g0.lookup(v) or typed_type(rng, 2) for v in (x, y))
    g = Context((("s", TSum(a, b)),) + g0.entries)
    phi = typed_effect(rng, g, depth=2)
    rhs = CaseEff(Var("s"), x, subst(phi, "s", Ascribe(Inl(Var(x)), TSum(a, b))),
                  y, subst(phi, "s", Ascribe(Inr(Var(y)), TSum(a, b))))
    goal = EffLeq(g, phi, rhs) if rng.random() < 0.5 else EffLeq(g, rhs, phi)
    return goal, [phi], {x, y}


@pytest.mark.parametrize("rule", ["let-tensor", "case-tensor", "let-commute", "let-case", "case-commute",
                                  "measure-case", "eta-plus-eff"])
def test_random_instances_of_rules_that_move_terms_across_binders(rule):
    """Every instance the checker accepts holds in each backend able to
    interpret it.  Half the binders reuse a context name, so some moved
    subterms name a binder they move across, and the rule must refuse
    each such instance."""
    rng = random.Random(sum(map(ord, rule)))
    accepted = captured = 0
    for _ in range(80):
        args, requires = {}, ()
        if rule == "measure-case":
            goal, requires, moved, binders = _measure_case(rng)
        elif rule == "eta-plus-eff":
            goal, moved, binders = _eta_plus_eff(rng)
        else:
            goal, args, moved, binders = _commuting(rng, rule)
        capture = any(free_vars(m) & binders for m in moved)
        ok = _accepted(goal, ScriptNode(rule, args, None), requires)
        assert not (capture and ok), goal
        accepted += ok
        captured += capture
    assert accepted >= 40 and captured >= 3, (accepted, captured)
