"""Executable counterparts of the metatheorems: functionality, the local
definition encoding, the commuting substitution lemmas, and the coproduct /
terminal preservation of the predicate functor."""
import random

from qpel.backends import make_backend
from qpel.corpus import all_items
from qpel.derivation import Env, check_script
from qpel.interpreter import backend_applicable, interp_term, judgement_true
from qpel.parser import parse_term_text as T
from qpel.randgen import typed_term, typed_type
from qpel.syntax import (
    Ascribe,
    Context,
    LetPair,
    TermEq,
    TSum,
    TTensor,
    TUnit,
    Typing,
    Var,
    desugar_let,
    subst,
)
from qpel.typecheck import check_term

SB = make_backend("set")
ST = make_backend("stochastic")
QB = make_backend("quantum")


def test_let_encoding_beta_reduces():
    # let x = M in x  is  let x * y = M * unit in x, and (beta-tensor)
    # rewrites it to M
    g = Context((("m", TUnit()),))
    lhs = desugar_let("x", Var("m"), Var("x"))
    goal = TermEq(g, lhs, Var("m"), TUnit())
    d = check_script(goal, __import__("qpel.corpus", fromlist=["sc"]).sc("beta-tensor"), Env())
    assert d.rule == "beta-tensor"
    # and the encoding substitutes: (let x = M in N) = [M/x]N semantically
    n = T("x * unit")
    enc = desugar_let("x", Var("m"), n)
    j = TermEq(g, enc, subst(n, "x", Var("m")), TTensor(TUnit(), TUnit()))
    for b in (SB, ST, QB):
        assert judgement_true(b, j)


def test_functionality_semantically():
    # From a derivable M = N, substitution into any P preserves denotation.
    rng = random.Random(71)
    eq_items = [
        (it, it.judgement)
        for it in all_items()
        if type(it.judgement).__name__ == "TermEq" and len(it.judgement.ctx) <= 2
    ]
    rng.shuffle(eq_items)
    done = 0
    for it, j in eq_items:
        if done >= 12:
            break
        a = j.ty
        b_ty = typed_type(rng, 1, qbit=True)
        delta = Context((("dd", TUnit()),))
        p = typed_term(rng, delta.extend("xx", a), b_ty, depth=2)
        combined = Context(j.ctx.entries + delta.entries)
        lhs = subst(p, "xx", Ascribe(j.lhs, a))
        rhs = subst(p, "xx", Ascribe(j.rhs, a))
        env = Env(packs=frozenset({"core", "qubit", "beta-iso"}))
        try:
            check_term(combined, lhs, b_ty, env.resolver())
            check_term(combined, rhs, b_ty, env.resolver())
        except Exception:
            continue
        jj = TermEq(combined, lhs, rhs, b_ty)
        for backend in (SB, ST, QB):
            if backend_applicable(backend, jj):
                assert judgement_true(backend, jj), (it.name, p)
        done += 1
    assert done >= 10


def test_let_commuting_substitution_lemma():
    # [let x * y = N in M / z] P  =  let x * y = N in [M/z] P, semantically
    g = Context((("p", TTensor(TUnit(), TUnit())),))
    n = Var("p")
    m = T("x * y")
    big = LetPair("x", "y", n, m)
    p_body = T("let u * v = z in v * u")
    lhs = subst(p_body, "z", Ascribe(big, TTensor(TUnit(), TUnit())))
    rhs = LetPair("x", "y", n, subst(p_body, "z", Ascribe(m, TTensor(TUnit(), TUnit()))))
    j = TermEq(g, lhs, rhs, TTensor(TUnit(), TUnit()))
    for b in (SB, ST, QB):
        assert judgement_true(b, j)


def test_case_commuting_substitution_lemma():
    g = Context((("s", TSum(TUnit(), TUnit())),))
    big = T("case s of inl a -> a | inr b -> b")
    q_body = T("z * unit")
    lhs = subst(q_body, "z", Ascribe(big, TUnit()))
    rhs = T("case s of inl a -> (a * unit) | inr b -> (b * unit)")
    j = TermEq(g, lhs, rhs, TTensor(TUnit(), TUnit()))
    for b in (SB, ST, QB):
        assert judgement_true(b, j)


def test_predicate_functor_preserves_coproducts_and_unit():
    # P(A+B) ~ P(A) x P(B) via pred_pair, and P(I) ~ E via scalar_of_pred
    a, b = ("x", "y"), ("u",)
    # set predicates are {0, 1}-maps: here the subsets {x} and {u}
    px, pu = {"x": 1, "y": 0}, {"u": 1}
    paired = SB.pred_pair(a, b, px, pu)
    k1, k2 = SB.inj1(a, b), SB.inj2(a, b)
    assert SB.apply_pred(k1, paired) == px
    assert SB.apply_pred(k2, paired) == pu
    assert SB.scalar_of_pred(SB.pred_one(SB.unit_ob())) == 1
    assert SB.scalar_of_pred(SB.pred_zero(SB.unit_ob())) == 0

    from fractions import Fraction

    pa = {"x": Fraction(1, 2), "y": Fraction(1, 3)}
    pb = {"u": Fraction(1, 4)}
    paired2 = ST.pred_pair(a, b, pa, pb)
    assert ST.apply_pred(ST.inj1(a, b), paired2) == pa
    assert ST.apply_pred(ST.inj2(a, b), paired2) == pb

    import numpy as np

    rng = random.Random(72)
    qa, qb = (2,), (3,)
    ea, eb = QB.random_pred(qa, rng), QB.random_pred(qb, rng)
    paired3 = QB.pred_pair(qa, qb, ea, eb)
    back_a = QB.apply_pred(QB.inj1(qa, qb), paired3)
    assert np.linalg.norm(back_a[0] - ea[0]) < 1e-12


def test_corpus_terms_agree_under_boolean_embedding():
    # set-interpretable typings embed into the stochastic backend pointwise;
    # the embedding of {0, 1} into [0, 1] is the identity on representations
    done = 0
    for it in all_items():
        j = it.judgement
        if not isinstance(j, Typing) or not backend_applicable(SB, j):
            continue
        f_set = interp_term(SB, j.ctx, j.term, j.ty)
        f_st = interp_term(ST, j.ctx, j.term, j.ty)
        assert ST.mor_eq(f_set, f_st), it.name
        done += 1
    assert done >= 20
