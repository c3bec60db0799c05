"""Randomised soundness: derivable judgements built over random well-typed
subterms must evaluate true in every backend able to interpret them.

This complements the fixed rule corpus with instance shapes the corpus does
not enumerate: random contexts, nested subterms, and searched inequalities.
"""
import random
from fractions import Fraction

from qpel.backends import make_backend
from qpel.derivation import Env, SearchFailed, auto_search_leq, check_script, deriv_to_script
from qpel.interpreter import backend_applicable, judgement_true
from qpel.parser import ScriptNode
from qpel.randgen import typed_context, typed_effect, typed_term, typed_type
from qpel.syntax import (
    Ascribe,
    ScalarLit,
    TQbit,
    Case,
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
    subst_many,
)
from qpel.typecheck import check_judgement

BACKENDS = [make_backend(n) for n in ("set", "stochastic", "quantum")]


def _verify(it_judgement, script, requires=()):
    env = Env(packs=frozenset({"core", "qubit", "beta-iso"}))
    j, _ = check_judgement(it_judgement, env.resolver(requires))
    check_script(j, script, env)
    for b in BACKENDS:
        if backend_applicable(b, it_judgement):
            assert judgement_true(b, it_judgement), (b.name, it_judgement)


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
