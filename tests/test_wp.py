import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qpel.backends import make_backend
from qpel.derivation import Env
from qpel.interpreter import (
    interp_effect,
    interp_term,
    weakest_precondition,
)
from qpel.parser import parse, parse_effect_text as E, parse_term_text as T
from qpel.randgen import typed_effect, typed_term
from qpel.syntax import (
    Ascribe,
    Context,
    Measure,
    TQbit,
    Var,
    subst,
)
from qpel.triangle import BackendError
from qpel.typecheck import check_effect, check_term

QB = make_backend("quantum")
TOL = 1e-9


def test_wp_of_identity_is_identity():
    g = Context((("q", TQbit()),))
    f = interp_term(QB, g, Var("q"), TQbit())
    e = QB.qbit_proj(Fraction(1, 4))
    out = weakest_precondition(QB, f, e)
    # the context object is I (x) qbit = qbit here, so compare directly
    assert np.linalg.norm(out[0] - e[0]) < TOL


def test_wp_of_x_reflects_angle():
    g = Context((("q", TQbit()),))
    f = interp_term(QB, g, T("X q"), TQbit())
    for angle in (Fraction(0), Fraction(1, 2), Fraction(5, 4)):
        out = weakest_precondition(QB, f, QB.qbit_proj(angle))
        expected = QB.qbit_proj((-angle) % 2)
        assert np.linalg.norm(out[0] - expected[0]) < TOL


def test_wp_of_z_shifts_angle():
    g = Context((("q", TQbit()),))
    f = interp_term(QB, g, T("Z q"), TQbit())
    out = weakest_precondition(QB, f, QB.qbit_proj(Fraction(1, 2)))
    expected = QB.qbit_proj(Fraction(3, 2))
    assert np.linalg.norm(out[0] - expected[0]) < TOL


def test_wp_only_on_quantum():
    st = make_backend("stochastic")
    with pytest.raises(BackendError):
        weakest_precondition(st, None, None)


def test_wp_is_an_effect_module_homomorphism():
    rng = random.Random(53)
    f = QB.random_channel((2,), (2,), rng)
    for _ in range(15):
        p = tuple(0.4 * x for x in QB.random_pred((2,), rng))
        q = tuple(0.4 * x for x in QB.random_pred((2,), rng))
        s = QB.pred_ovee(p, q)
        assert s is not None
        lhs = QB.apply_pred(f, s)
        rhs = QB.pred_ovee(QB.apply_pred(f, p), QB.apply_pred(f, q))
        assert np.abs(lhs[0] - rhs[0]).max() <= TOL
        orth = QB.apply_pred(f, QB.pred_orth((2,), p))
        orth2 = QB.pred_orth((2,), QB.apply_pred(f, p))
        assert np.abs(orth[0] - orth2[0]).max() <= TOL
        half = QB.apply_pred(f, QB.pred_smul(0.5, p))
        assert np.abs(half[0] - 0.5 * QB.apply_pred(f, p)[0]).max() <= TOL


def test_wp_is_greatest_precondition():
    # any P with Tr(P rho) <= Tr(Q F rho) for all rho sits below wp(F)(Q)
    rng = random.Random(51)
    f = QB.random_channel((2,), (2,), rng)
    q = QB.random_pred((2,), rng)
    w = QB.apply_pred(f, q)
    for _ in range(30):
        rho = QB.random_state((2,), rng)
        assert QB.validity(w, rho) <= QB.validity(q, QB.apply_state(f, rho)) + TOL
    shrunk = tuple(0.7 * x for x in w)
    assert QB.pred_leq(shrunk, w)


def _wp_pairs(rng, n):
    """(ctx, term, effect-body) pairs, measure-containing ones included."""
    out = []
    g = Context((("q", TQbit()),))
    fixed = [
        (g, T("X q"), E("proj(h, 0)")),
        (g, T("Z q"), E("proj(h, 1/2)")),
        (g, T("X (Z q)"), E("proj(h, 3/2)")),
        (g, T("measure { proj(q, 0) -> plus | bot(proj(q, 0)) -> X plus }"),
         E("proj(h, 1)")),
        (g, T("measure { 1/2 -> q | 1/2 -> X q }"), E("proj(h, 1/4)")),
        (Context((("a", TQbit()), ("b", TQbit()))),
         T("let p * r = E a b in measure { proj(p, 0) -> r | bot(proj(p, 0)) -> X r }"),
         E("proj(h, 0)")),
    ]
    out.extend(fixed)
    while len(out) < n:
        m = typed_term(rng, g, TQbit(), depth=2)
        phi = typed_effect(rng, Context((("h", TQbit()),)), depth=2)
        out.append((g, m, phi))
    return out


def test_wp_substitution_lemma_corpus():
    """wp([[M]])([[phi]]) equals [[ [M/h]phi ]] within 1e-9 on >= 20 pairs."""
    rng = random.Random(52)
    env = Env()
    pairs = _wp_pairs(rng, 24)
    assert len(pairs) >= 20
    assert sum(1 for _, m, _ in pairs if "measure" in repr(m).lower() or isinstance(m, Measure)) >= 2
    for g, m, phi in pairs:
        check_term(g, m, TQbit(), env.resolver())
        hctx = Context((("h", TQbit()),))
        check_effect(hctx, phi, env.resolver())
        f = interp_term(QB, g, m, TQbit())
        p_ctx = interp_effect(QB, hctx, phi)
        p_a = QB.apply_pred(QB.unit_left_inv((2,)), p_ctx)
        wp = weakest_precondition(QB, f, p_a)
        direct = interp_effect(QB, g, subst(phi, "h", Ascribe(m, TQbit())))
        dev = max(np.abs(x - y).max() for x, y in zip(wp, direct))
        assert dev <= TOL, (m, phi, dev)


def test_cli_wp_cross_check_on_intro_corpus():
    from qpel.driver import wp_decls

    sf = parse((Path(__file__).resolve().parent.parent / "corpus" / "intro.qpel")
               .read_text(encoding="utf-8"))
    # hadamard, the measurement-based Hadamard, folds let, E, measure and X
    pairs = [("xgate", "prj0"), ("zgate", "prjhalf"), ("prepared", "prj0"),
             ("hadamard", "prj0"), ("hadamard", "prjhalf")]
    for term, eff in pairs:
        pred, dev = wp_decls(sf, term, eff, cross_check=True)
        assert dev is not None and dev <= TOL


def test_wp_shape_mismatch_reported():
    from qpel.driver import wp_decls
    from qpel.typecheck import QpelTypeError

    sf = parse(
        "term t (q : qbit) : qbit = X q\n"
        "effect wrongctx (z : I) = bot(0)\n"
    )
    with pytest.raises(QpelTypeError) as exc:
        wp_decls(sf, "t", "wrongctx")
    assert str(exc.value) == "shape mismatch: the term produces qbit but the effect context expects I"
