import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qpel.backends import make_backend
from qpel.corpus import all_items
from qpel.derivation import Env
from qpel.interpreter import (
    assume_checked,
    backend_applicable,
    ctx_ob,
    interp_effect,
    interp_term,
    interpret,
    judgement_true,
    split_mor,
)
from qpel.parser import parse_effect_text as E
from qpel.parser import parse_term_text as T
from qpel.randgen import typed_context, typed_effect, typed_term, typed_type
from qpel.syntax import (
    Ascribe,
    Context,
    EffForm,
    EffLeq,
    Measure,
    Orth,
    ScalarLit,
    TermEq,
    TQbit,
    TSum,
    TTensor,
    TUnit,
    Typing,
    Var,
    Zero,
    map_subterms,
    one,
    rebuilt,
    shape,
    Syntax,
    subst,
    subst_many,
)
from qpel.typecheck import check_effect

SB = make_backend("set")
ST = make_backend("stochastic")
QB = make_backend("quantum")
II = TSum(TUnit(), TUnit())


def test_variable_is_identity_after_unit_isos():
    g = Context((("x", II),))
    f = interp_term(SB, g, Var("x"), II)
    for p in SB.dom(f):
        assert f.rows[p] == {p[1]: 1}


def test_fair_coin_distribution():
    coin = T("measure { 1/2 -> inl unit | 1/2 -> inr unit }")
    f = interp_term(ST, Context(), coin, II)
    state = ST.state_of_mor(f)
    assert state == {("L", "*"): Fraction(1, 2), ("R", "*"): Fraction(1, 2)}


def test_pauli_x_denotation_is_the_channel():
    g = Context((("x", TQbit()),))
    f = interp_term(QB, g, T("X x"), TQbit())
    expected = QB.compose(QB.qbit_x(), QB.unit_left((2,)))
    assert QB.mor_eq(f, expected)


def test_top_effect_is_identity_predicate():
    g = Context((("x", II),))
    for backend in (SB, ST, QB) if False else (SB, ST):
        p = interp_effect(backend, g, one())
        assert backend.pred_eq(p, backend.pred_one(ctx_ob(backend, g)))


def test_caseE_indicator():
    g = Context((("x", II),))
    p = interp_effect(ST, g, E("caseE x of inl a -> bot(0) | inr b -> 0"))
    assert p[("*", ("L", "*"))] == 1
    assert p[("*", ("R", "*"))] == 0


def test_projection_orthosupplement_is_minus_projector():
    g = Context((("q", TQbit()),))
    p = interp_effect(QB, g, E("bot(proj(q, 0))"))
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.linalg.norm(p[0] - minus) < 1e-12


def test_truth_examples():
    g = Context((("x", TUnit()),))
    j = TermEq(g, Measure(((one(), Var("x")),)), Var("x"), TUnit())
    for backend in (SB, ST, QB):
        assert judgement_true(backend, j)
    false_j = EffLeq(g, one(), Zero())
    assert not judgement_true(ST, false_j)


def test_scalar_literal_in_backends():
    g = Context()
    p = interp_effect(ST, g, ScalarLit(Fraction(1, 3)))
    assert p["*"] == Fraction(1, 3)
    q = interp_effect(QB, g, ScalarLit(Fraction(1, 3)))
    assert abs(q[0][0, 0] - 1 / 3) < 1e-12
    from qpel.triangle import BackendError

    with pytest.raises(BackendError):
        interp_effect(SB, g, ScalarLit(Fraction(1, 3)))
    assert interp_effect(SB, g, ScalarLit(Fraction(1))) == SB.pred_one(SB.unit_ob())


def test_split_mor_is_an_iso_on_points():
    g = Context((("a", TUnit()), ("b", II), ("c", II)))
    m = split_mor(SB, g, {"b"})
    # bijective with the expected regrouping
    seen = set()
    for p in SB.dom(m):
        (out,) = m.rows[p]
        assert m.rows[p][out] == 1
        assert out not in seen
        seen.add(out)


def test_interpretation_respects_alpha():
    """The fold reads no binder name: a judgement and its copy with every
    binder renamed, each folded by a backend of its own (so that neither
    reads the other's memoised denotation), denote the same.  Over random
    terms, the corpus judgements and let, case and caseE whose binders reuse
    a context name of the other zone or of their own, on every backend that
    applies."""
    rng = random.Random(41)
    judgements = []
    for qbit in (False, True):
        for _ in range(20):
            g = typed_context(rng, 2, qbit=qbit)
            ty = typed_type(rng, 2, qbit=qbit)
            judgements.append(Typing(g, typed_term(rng, g, ty), ty))
    judgements += [item.judgement for item in all_items()]
    pair = Context((("x", TTensor(TUnit(), II)), ("u", II)))
    sums = Context((("x", II), ("u", II)))
    nested = Context((("x", TSum(II, II)), ("u", II)))
    judgements += [
        Typing(pair, T("let x * y = x in y"), II),
        Typing(pair, T("let u * y = x in y"), II),
        Typing(sums, T("case x of inl x -> u | inr y -> inr y"), II),
        Typing(sums, T("case x of inl u -> inl u | inr y -> inr y"), II),
        EffForm(Context((("x", II),)), E("caseE x of inl x -> bot(0) | inr y -> 0")),
        EffForm(nested, E("caseE x of inl x -> bot(0) | inr u -> caseE u of inl a -> 0 | inr b -> bot(0)")),
        EffForm(sums, E("caseE u of inl x -> bot(0) | inr y -> caseE x of inl a -> 0 | inr b -> bot(0)")),
    ]
    renamed = Counter()
    for j in judgements:
        syntax = {f.name: getattr(j, f.name) for f in fields(j)
                  if isinstance(getattr(j, f.name), Syntax)}
        copies = {f: _rename_binders(s) for f, s in syntax.items()}
        j2 = replace(j, **copies)
        assert j2 == j
        for name in ("set", "stochastic", "quantum"):
            first, second = make_backend(name), make_backend(name)
            if not backend_applicable(first, j):
                continue
            renamed[name] += any(copies[f] is not syntax[f] for f in syntax)
            for d1, d2 in zip(assume_checked(j), assume_checked(j2)):
                f1, f2 = interpret(first, d1), interpret(second, d2)
                same = first.mor_eq if isinstance(d1.judgement, Typing) else first.pred_eq
                assert same(f1, f2), (name, j)
    assert min(renamed.values()) >= 40, renamed


def _rename_binders(t):
    """t with every binder renamed x -> xr."""
    parts = map_subterms(t, lambda m, _: _rename_binders(m))
    names = {}
    for f, binders in shape(t).children:
        if binders:
            fresh = {b: getattr(t, b) + "r" for b in binders}
            parts[f] = subst_many(parts[f], {getattr(t, b): Var(x) for b, x in fresh.items()})
            names.update(fresh)
    return rebuilt(t, **parts, **names)


def test_validity_bilinearity():
    rng = random.Random(42)
    g = Context((("x", II),))
    obj = ctx_ob(ST, g)
    for _ in range(30):
        p = ST.random_pred(obj, rng)
        q = {k: 1 - v for k, v in p.items()}
        s = ST.random_state(obj, rng)
        lhs = ST.validity(ST.pred_ovee(p, q), s)
        rhs = ST.validity(p, s) + ST.validity(q, s)
        assert lhs == rhs


SUBST_PAIRS_PER_BACKEND = 100


@pytest.mark.parametrize("backend_name", ["set", "stochastic", "quantum"])
def test_semantic_substitution_lemma(backend_name):
    """[[ [M/x]phi ]] = P(1 (x) [[M]]) [[phi]] on randomly generated pairs."""
    backend = make_backend(backend_name)
    rng = random.Random(43)
    env = Env()
    done = 0
    while done < SUBST_PAIRS_PER_BACKEND:
        qbit = backend_name == "quantum"
        a = typed_type(rng, 1, qbit=qbit)
        gamma = typed_context(rng, rng.randint(0, 2), qbit=qbit)
        delta = Context((("d0", typed_type(rng, 1, qbit=qbit)),))
        if set(gamma.names()) & set(delta.names()):
            continue
        phi = typed_effect(rng, gamma.extend("x", a), depth=2)
        m = typed_term(rng, delta, a, depth=2)
        combined = Context(gamma.entries + delta.entries)
        substituted = subst(phi, "x", Ascribe(m, a))
        try:
            check_effect(combined, substituted, env.resolver())
        except Exception:
            continue
        from qpel.syntax import EffForm

        applicable = backend_applicable(backend, Typing(delta, m, a)) and backend_applicable(
            backend, EffForm(gamma.extend("x", a), phi)
        )
        if not applicable:
            continue
        lhs = interp_effect(backend, combined, substituted)

        # right side: pull phi back along the structural split and 1 (x) [[M]]
        from qpel.triangle import compose_all

        split = split_mor(backend, combined, set(gamma.names()))
        fm = interp_term(backend, delta, m, a)
        h = compose_all(
            backend,
            backend.tensor_mor(backend.identity(ctx_ob(backend, gamma)), fm),
            split,
        )
        rhs = backend.apply_pred(h, interp_effect(backend, gamma.extend("x", a), phi))
        assert backend.pred_eq(lhs, rhs), (phi, m)
        done += 1


def test_measure_denotation_expands_by_hand():
    # [[ measure phi -> inl unit | bot(phi) -> inr unit ]] on a coin weighted 1/4
    q = Fraction(1, 4)
    m = Measure(
        ((ScalarLit(q), T("inl unit")), (Orth(ScalarLit(q)), T("inr unit")))
    )
    f = interp_term(ST, Context(), m, II)
    assert ST.state_of_mor(f) == {("L", "*"): q, ("R", "*"): 1 - q}


def _wide_sum(n):
    """(I + I) * ... * (I + I), n factors: 2^n points in `set`."""
    ty = II
    for _ in range(n - 1):
        ty = TTensor(II, ty)
    return ty


# each judgement with whether set, stochastic and quantum can interpret it
APPLICABILITY = [
    (Typing(Context((("x", TQbit()),)), Var("x"), TQbit()), (False, False, True)),
    (EffLeq(Context(), ScalarLit(Fraction(1, 2)), one()), (False, True, True)),
    # a qubit that only an erased ascription names
    (TermEq(Context(), *[T("case (inl unit : I + qbit) of inl x -> x | inr y -> unit")] * 2, TUnit()),
     (False, False, True)),
    (EffForm(Context(), ScalarLit(Fraction(1))), (True, True, True)),
    (Typing(Context(), T("measure { 1/2 -> inl unit | bot(1/2) -> inr unit }"), II), (False, True, True)),
    (EffLeq(Context(), E("proj(plus, 0)"), E("bot(0)")), (False, False, True)),
    (Typing(Context((("x", _wide_sum(20)), ("q", TQbit()))), Var("q"), TQbit()), (False, False, True)),
]


def test_backend_applicability():
    """A bare judgement gets the answer its derivations get, and asking
    builds no object of a compound type."""
    for j, expected in APPLICABILITY:
        backends = [make_backend(name) for name in ("set", "stochastic", "quantum")]
        derivations = assume_checked(j)
        assert [backend_applicable(b, j) for b in backends] == list(expected), j
        assert [backend_applicable(b, j, derivations) for b in backends] == list(expected), j
        assert not any(isinstance(key, (TSum, TTensor)) for b in backends for key in b.memo), j


def test_measurement_based_hadamard():
    """Entangle with a plus ancilla, X-measure the input, correct with X:
    the composite channel is conjugation by the Hadamard."""
    from qpel.parser import parse
    from qpel.typecheck import check_term
    from qpel.derivation import Env

    sf = parse((Path(__file__).resolve().parent.parent / "corpus" / "intro.qpel")
               .read_text(encoding="utf-8"))
    decl = next(d for d in sf.decls if getattr(d, "name", None) == "hadamard")
    check_term(decl.ctx, decl.term, decl.ty, Env().resolver())
    f = interp_term(QB, decl.ctx, decl.term, decl.ty)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    t = np.einsum("ki,lj->klij", h, h.conj())
    from qpel.backends.quantum import QMor

    expected = QMor((2,), (2,), {(0, 0): t})
    # the term's domain is I (x) qbit = qbit in block form, so compare directly
    assert QB.mor_eq(f, expected)
    # and twice is the identity channel
    ff = QB.compose(f, f)
    assert QB.mor_eq(ff, QB.identity((2,)))
