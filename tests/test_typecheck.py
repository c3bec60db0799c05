import random

import pytest

from qpel.derivation import Env, recheck_derivation
from qpel.parser import parse_effect_text as E
from qpel.parser import parse_term_text as T
from qpel.randgen import typed_context, typed_term, typed_type
from qpel.syntax import (
    Context,
    EffLeq,
    TQbit,
    TSum,
    TTensor,
    TUnit,
    Var,
    free_vars,
    fresh,
    subst,
)
from qpel.typecheck import (
    ObligationError,
    QpelTypeError,
    check_effect,
    check_term,
    split_context,
    synth_type,
)


def resolver():
    return Env().resolver()


def ctx(*entries):
    return Context(tuple(entries))


II = TSum(TUnit(), TUnit())


def test_var_accepts():
    d = check_term(ctx(("x", TUnit())), Var("x"), TUnit(), resolver())
    assert d.rule == "var"


def test_no_cloning_rejected():
    with pytest.raises(QpelTypeError, match="no cloning"):
        check_term(ctx(("x", TUnit())), T("x * x"), TTensor(TUnit(), TUnit()), resolver())


def _rules(d):
    """The rule names used anywhere in a derivation."""
    return {d.rule}.union(*(_rules(c) for c in d.children))


def test_measure_with_ortho2_obligation():
    g = ctx(("x", TQbit()))
    m = T("measure { proj(x, 0) -> inl unit | bot(proj(x, 0)) -> inr unit }")
    assert "ortho-2" in _rules(check_term(g, m, II, resolver()))


def test_undischarged_obligation_reports_judgement():
    g = ctx(("x", TQbit()))
    m = T("measure { proj(x, 0) -> inl unit | proj(x, 1) -> inr unit }")
    with pytest.raises(ObligationError) as exc:
        check_term(g, m, II, resolver())
    assert isinstance(exc.value.judgement, EffLeq)


def test_effect_sum_needs_orthogonality():
    g = ctx(("x", TQbit()))
    with pytest.raises(ObligationError):
        check_effect(g, E("proj(x, 0) o+ proj(x, 1)"), resolver())
    d = check_effect(g, E("proj(x, 0) o+ bot(proj(x, 0))"), resolver())
    assert d.rule == "eff-ovee"


def test_scalar_factor_must_be_closed():
    g = ctx(("x", TQbit()))
    with pytest.raises(QpelTypeError, match="closed"):
        check_effect(g, E("proj(x, 0) . proj(x, 0)"), resolver())


def test_effect_branches_share_context():
    # the same variable may appear in both arms of a sum of effects
    g = ctx(("x", TQbit()))
    d = check_effect(g, E("proj(x, 0) o+ bot(proj(x, 0))"), resolver())
    assert d.rule == "eff-ovee"


def test_caseE_splits_scrutinee_from_branches():
    g = ctx(("s", II), ("x", TQbit()))
    d = check_effect(g, E("caseE s of inl a -> proj(x, 0) | inr b -> 0"), resolver())
    assert d.rule == "eff-case"
    with pytest.raises(QpelTypeError):
        # the scrutinee may not also be consumed by a branch
        check_effect(
            ctx(("s", TSum(TQbit(), TQbit()),)),
            E("caseE s of inl a -> proj(s, 0) | inr b -> 0"),
            resolver(),
        )


def test_split_context_examples():
    g = ctx(("x", TUnit()), ("y", TQbit()), ("z", II))
    parts = split_context(g, [{"x"}, {"y"}])
    assert parts[0].names() == ["x"]
    assert parts[1].names() == ["y", "z"]  # unused goes to the last part
    with pytest.raises(QpelTypeError):
        split_context(g, [{"x"}, {"x"}])


def test_ascription_directs_injections():
    g = ctx(("m", TUnit()))
    t = T("case (inl m : I + I) of inl a -> a | inr b -> b")
    d = check_term(g, t, TUnit(), resolver())
    assert d.judgement.ty == TUnit() and d.args["ty"] == II
    with pytest.raises(QpelTypeError, match="ascribe"):
        check_term(g, T("case inl m of inl a -> a | inr b -> b"), TUnit(), resolver())


def test_synth_examples():
    g = ctx(("p", TTensor(TUnit(), TQbit())))
    assert synth_type(g, T("let a * b = p in b")) == TQbit()
    assert synth_type(g, T("inl unit")) is None
    assert synth_type(g, T("(inl unit : I + I)")) == II


def test_emitted_derivations_recheck():
    rng = random.Random(31)
    env = Env()
    for _ in range(25):
        g = typed_context(rng, 2, qbit=True)
        ty = typed_type(rng, 2, qbit=True)
        m = typed_term(rng, g, ty)
        d = check_term(g, m, ty, env.resolver())
        assert recheck_derivation(d, env).judgement == d.judgement


def test_weakening_never_flips():
    rng = random.Random(32)
    for _ in range(40):
        g = typed_context(rng, 2, qbit=True)
        ty = typed_type(rng, 2, qbit=True)
        m = typed_term(rng, g, ty)
        name = fresh("w", set(g.names()) | free_vars(m))
        g2 = g.extend(name, typed_type(rng, 1, True))
        check_term(g2, m, ty, resolver())  # must stay accepted
    # and a rejected program stays rejected
    bad = T("x * x")
    for extra in [("w", TUnit()), ("v", TQbit())]:
        with pytest.raises(QpelTypeError):
            check_term(ctx(("x", TUnit()), extra), bad, TTensor(TUnit(), TUnit()), resolver())


def test_substitution_metatheorem():
    # Gamma |- M : A and Delta, x : A |- N : B imply Delta, Gamma |- [M/x]N : B.
    # The substituted term carries its type ascription so the directed checker
    # can still synthesise where N used the variable as a scrutinee.
    from qpel.syntax import Ascribe

    rng = random.Random(33)
    done = 0
    while done < 30:
        a = typed_type(rng, 1, qbit=True)
        gamma = Context((("g1", typed_type(rng, 1, True)),))
        delta = Context((("d1", typed_type(rng, 1, True)),))
        m = typed_term(rng, gamma, a)
        b = typed_type(rng, 1, qbit=True)
        n = typed_term(rng, delta.extend("x", a), b)
        combined = Context(delta.entries + gamma.entries)
        out = subst(n, "x", Ascribe(m, a))
        check_term(combined, out, b, resolver())
        done += 1


def test_equation_validity_direction():
    # both sides of every corpus equation typecheck on their own
    from qpel.corpus import all_items
    from qpel.syntax import TermEq

    for it in all_items():
        if isinstance(it.judgement, TermEq):
            env = Env(packs=frozenset({"core", "qubit", "beta-iso"}))
            r = env.resolver(it.requires)
            check_term(it.judgement.ctx, it.judgement.lhs, it.judgement.ty, r)
            check_term(it.judgement.ctx, it.judgement.rhs, it.judgement.ty, r)


def test_linearity_negative_suite():
    """At least ten duplicated-variable programs, all rejected."""
    cases = [
        (ctx(("x", TUnit())), "x * x", TTensor(TUnit(), TUnit())),
        (ctx(("x", TQbit())), "E x x", TTensor(TQbit(), TQbit())),
        (ctx(("x", TQbit())), "X x * x", TTensor(TQbit(), TQbit())),
        (ctx(("x", TQbit())), "x * Z x", TTensor(TQbit(), TQbit())),
        (ctx(("p", TTensor(TUnit(), TUnit()))), "(let a * b = p in a * b) * (let c * d = p in c * d)",
         TTensor(TTensor(TUnit(), TUnit()), TTensor(TUnit(), TUnit()))),
        (ctx(("s", II)), "(case s of inl a -> a | inr b -> b) * (case s of inl a -> a | inr b -> b)",
         TTensor(TUnit(), TUnit())),
        (ctx(("x", TUnit())), "inl (x * x)", TSum(TTensor(TUnit(), TUnit()), TUnit())),
        (ctx(("x", TQbit()), ("y", TQbit())), "E x (measure { bot(0) -> x })", TTensor(TQbit(), TQbit())),
        (ctx(("p", TTensor(TQbit(), TQbit()))), "let a * b = p in E a (let c * d = p in c)",
         TTensor(TQbit(), TQbit())),
        (ctx(("x", TUnit())), "let a * b = x * x in a * b", TTensor(TUnit(), TUnit())),
        (ctx(("x", TQbit())), "measure { proj(x, 0) -> x | bot(proj(x, 0)) -> x }", TQbit()),
    ]
    assert len(cases) >= 10
    for g, src, ty in cases:
        with pytest.raises(QpelTypeError):
            check_term(g, T(src), ty, resolver())


def test_measure_effect_and_term_zones_disjoint():
    g = ctx(("x", TQbit()))
    # x is needed by the branch effects and by a branch term: rejected
    m = T("measure { proj(x, 0) -> x | bot(proj(x, 0)) -> x }")
    with pytest.raises(QpelTypeError):
        check_term(g, m, TQbit(), resolver())
