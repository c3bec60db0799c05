"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are fixed here: exact equality for the set and stochastic
backends, Frobenius 1e-9 for the quantum backend.
"""
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

QUANTUM_TOL = 1e-9


def report(n, text):
    print(f"[PASS] criterion {n}: {text}")


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_algebra_laws():
    from qpel.effects import (
        MUTANTS,
        boolean_algebra,
        boolean_monoid,
        boolean_square_monoid,
        chain3_algebra,
        chain3_module_over_boolean,
        check_effect_algebra_laws,
        check_effect_module_laws,
        check_effect_monoid_laws,
        unit_interval_module,
        unit_interval_monoid,
    )

    assert check_effect_algebra_laws(boolean_algebra()).passed
    assert check_effect_algebra_laws(chain3_algebra()).passed
    assert check_effect_monoid_laws(boolean_monoid()).passed
    assert check_effect_monoid_laws(boolean_square_monoid()).passed
    assert check_effect_module_laws(chain3_module_over_boolean()).passed

    # rational [0,1]: the law tuples are >= 10^4 random samples per law
    from qpel.effects import N_RANDOM_TUPLES

    assert N_RANDOM_TUPLES >= 10_000
    assert check_effect_monoid_laws(unit_interval_monoid()).passed
    assert check_effect_module_laws(unit_interval_module()).passed

    flagged = {}
    for law, make in MUTANTS.items():
        rep = check_effect_algebra_laws(make())
        assert not rep.passed
        assert law in rep.failed_laws(), (law, rep.failed_laws())
        flagged[law] = True
    assert len(flagged) == 3
    report(1, "algebra/monoid/module law suites pass; 3 mutants rejected with the named law")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_monad_laws():
    # The three-element chain admits no effect monoid (the effects suite
    # proves this exhaustively), so the exhaustive monad-law runs use the
    # boolean scalars and the boolean square, the smallest commutative
    # effect monoids.  The laws hold of the Kleisli backend's own
    # composition: a state is a distribution, `apply_state` is bind, and a
    # distribution is a point of D(A) as the frozen set of its weights.
    from qpel.backends.points import UNIT_OB, PointBackend
    from qpel.backends.setb import SetBackend
    from qpel.effects import boolean_square_monoid

    class BooleanSquareBackend(PointBackend):
        name = "boolean square"
        scalars = boolean_square_monoid()

    B, SQ = SetBackend(), BooleanSquareBackend()

    def kleisli(k, dom, f):
        rows = {x: f(x) for x in dom}
        return k._mk(tuple(dom), tuple(dict.fromkeys(y for r in rows.values() for y in r)), rows)

    def unit(k, x):
        return k.state_of_mor(k._map(UNIT_OB, (x,), lambda _: x))

    def dmap(k, f, d):
        return k.apply_state(k._map(tuple(d), tuple(dict.fromkeys(map(f, d))), f), d)

    def bind(k, d, f):
        return k.apply_state(kleisli(k, d, f), d)

    def mult(k, dd):
        return bind(k, dd, dict)

    def strength(k, a, phi):
        pa, f = k._map(UNIT_OB, (a,), lambda _: a), kleisli(k, UNIT_OB, lambda _: phi)
        return k.state_of_mor(k.compose(k.tensor_mor(pa, f), k.unit_left_inv(UNIT_OB)))

    def points(k, elements):
        return [frozenset(d.items()) for d in k.enum_states(tuple(elements))]

    for k, elems in ((B, "abcd"), (SQ, "ab")):
        for phi in k.enum_states(tuple(elems)):
            assert mult(k, unit(k, frozenset(phi.items()))) == phi
            assert mult(k, dmap(k, lambda x: frozenset(unit(k, x).items()), phi)) == phi

    level2 = points(SQ, points(SQ, "ab"))
    outer = []
    for i in range(len(level2)):
        for j in range(i + 1, len(level2)):
            outer.extend(SQ.enum_states((level2[i], level2[j])))
    for ddd in outer:
        lhs = mult(SQ, mult(SQ, ddd))
        rhs = mult(SQ, dmap(SQ, lambda dd: frozenset(mult(SQ, dict(dd)).items()), ddd))
        assert lhs == rhs

    # strength formula, verbatim table, exhaustive on carriers <= 4
    for phi in SQ.enum_states(tuple("uvwx")):
        t = strength(SQ, "c", phi)
        for b, w in phi.items():
            assert t[("c", b)] == w

    # commutativity of the two strength composites
    das = SQ.enum_states(tuple("ab"))
    dbs = SQ.enum_states(tuple("uv"))
    for da in das:
        for db in dbs:
            left = bind(SQ, da, lambda a: strength(SQ, a, db))
            right = dmap(SQ, lambda p: (p[1], p[0]), bind(SQ, db, lambda b: strength(SQ, b, da)))
            assert left == right
    report(2, "monad unit/assoc + strength verified exhaustively (boolean & boolean-square scalars)")


# ---------------------------------------------------------------- criterion 3


def _checked_corpus():
    from qpel.corpus import all_items
    from qpel.derivation import Env, check_script
    from qpel.typecheck import check_judgement

    out = []
    for it in all_items():
        env = Env(packs=frozenset({"core", "qubit", "beta-iso"}))
        j, _ = check_judgement(it.judgement, env.resolver(it.requires))
        check_script(j, it.script, env)
        out.append((it, j))
    return out


def test_criterion_3_rule_coverage():
    from qpel.corpus import all_items
    from qpel.derivation import DerivationError, Env, check_script
    from qpel.rules import ALL_RULE_NAMES, SCHEMAS
    from qpel.typecheck import ObligationError, QpelTypeError, check_judgement

    published = (
        "exch", "var", "tensor", "let", "unit", "inl", "inr", "case", "measure",
        "ref", "sym", "trans", "tensor-eq", "let-eq", "inl-eq", "inr-eq",
        "case-eq", "measure-eq", "beta-tensor", "beta-plus-1", "beta-plus-2",
        "eta-tensor", "eta-unit", "eta-plus", "let-commute", "let-case",
        "let-tensor", "case-commute", "case-tensor", "measure-perm",
        "measure-0", "measure-1", "measure-plus", "measure-case", "eff-0",
        "eff-bot", "eff-ovee", "eff-mult", "eff-case", "leq-ref", "leq-trans",
        "zero-leq", "bot-antitone", "bot-bot", "leq-ovee", "ovee-mono",
        "ovee-comm", "perp-rotate", "ovee-assoc", "ovee-0", "ortho-1",
        "ortho-2", "dist-l", "dist-r", "unit-l", "unit-r", "assoc", "comm",
        "case-cong", "case-mono", "beta-plus-1-eff", "beta-plus-2-eff",
        "eta-plus-eff", "case-ovee", "case-bot", "case-leq", "case-times",
        "qbit-new", "qbit-x", "qbit-z", "qbit-cz", "qbit-proj", "qbit-cz-x",
        "qbit-cz-z", "qbit-x-proj", "qbit-z-proj", "qbit-xx", "qbit-zz",
        "qbit-xz-zx", "beta-iso",
    )
    assert ALL_RULE_NAMES == published
    assert set(SCHEMAS) == set(published)

    items = all_items()
    per_rule = {}
    for it in items:
        per_rule.setdefault(it.rule, []).append(it)
    assert set(per_rule) == set(published)
    assert all(len(v) >= 3 for v in per_rule.values())

    checked = _checked_corpus()
    assert len(checked) == len(items)

    rejected = 0
    for it in items:
        env = Env(packs=frozenset({"core", "qubit", "beta-iso"}))
        try:
            jm, _ = check_judgement(it.mutant, env.resolver(it.requires))
            check_script(jm, it.script, env)
            raise AssertionError(f"mutant accepted: {it.name}")
        except (DerivationError, ObligationError, QpelTypeError):
            rejected += 1
    assert rejected == len(items)
    report(3, f"inventory is exactly the {len(published)} published schemas; "
              f"{len(items)} instances accepted, {rejected} mutants rejected")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_empirical_soundness():
    from qpel.backends import make_backend
    from qpel.interpreter import backend_applicable, judgement_true

    # the README states the count of applicable lemmas in each backend
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8").split())
    m = re.search(r"every applicable judgement true: (\d+) in `set`, (\d+) in `stochastic`"
                  r" and all (\d+) in `quantum`", readme)
    assert m, "the README's count of applicable lemmas per backend"
    backends = [make_backend(n) for n in ("set", "stochastic", "quantum")]
    counts, exceptions = Counter(), []
    for it, _ in _checked_corpus():
        for b in backends:
            if backend_applicable(b, it.judgement):
                counts[b.name] += 1
                if not judgement_true(b, it.judgement):
                    exceptions.append((it.name, b.name))
    assert exceptions == []
    assert [counts[b.name] for b in backends] == [int(n) for n in m.groups()]
    total = sum(counts.values())
    report(4, f"all {total} backend evaluations of accepted lemmas are true; zero exceptions")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_linearity_and_weakening():
    from qpel.derivation import Env
    from qpel.parser import parse_term_text as T
    from qpel.randgen import typed_context, typed_term, typed_type
    from qpel.syntax import Context, TQbit, TSum, TTensor, TUnit, free_vars, fresh
    from qpel.typecheck import QpelTypeError, check_term

    II = TSum(TUnit(), TUnit())
    dup_cases = [
        (Context((("x", TUnit()),)), "x * x", TTensor(TUnit(), TUnit())),
        (Context((("x", TQbit()),)), "E x x", TTensor(TQbit(), TQbit())),
        (Context((("x", TQbit()),)), "X x * x", TTensor(TQbit(), TQbit())),
        (Context((("x", TQbit()),)), "x * Z x", TTensor(TQbit(), TQbit())),
        (Context((("p", TTensor(TUnit(), TUnit())),)),
         "(let a * b = p in a * b) * (let c * d = p in c * d)",
         TTensor(TTensor(TUnit(), TUnit()), TTensor(TUnit(), TUnit()))),
        (Context((("s", II),)),
         "(case s of inl a -> a | inr b -> b) * (case s of inl a -> a | inr b -> b)",
         TTensor(TUnit(), TUnit())),
        (Context((("x", TUnit()),)), "inl (x * x)", TSum(TTensor(TUnit(), TUnit()), TUnit())),
        (Context((("x", TQbit()), ("y", TQbit()))), "E x (measure { bot(0) -> x })",
         TTensor(TQbit(), TQbit())),
        (Context((("p", TTensor(TQbit(), TQbit())),)),
         "let a * b = p in E a (let c * d = p in c)", TTensor(TQbit(), TQbit())),
        (Context((("x", TUnit()),)), "let a * b = x * x in a * b", TTensor(TUnit(), TUnit())),
        (Context((("x", TQbit()),)), "measure { proj(x, 0) -> x | bot(proj(x, 0)) -> x }", TQbit()),
    ]
    assert len(dup_cases) >= 10
    env = Env()
    for g, src, ty in dup_cases:
        with pytest.raises(QpelTypeError):
            check_term(g, T(src), ty, env.resolver())

    rng = random.Random(61)
    flips = 0
    for _ in range(40):
        g = typed_context(rng, 2, qbit=True)
        ty = typed_type(rng, 2, qbit=True)
        m = typed_term(rng, g, ty)
        name = fresh("w", set(g.names()) | free_vars(m))
        g2 = g.extend(name, typed_type(rng, 1, True))
        check_term(g2, m, ty, env.resolver())  # raises on a flip
    for g, src, ty in dup_cases[:5]:
        name = fresh("w", set(g.names()))
        with pytest.raises(QpelTypeError):
            check_term(g.extend(name, TUnit()), T(src), ty, env.resolver())
    report(5, f"{len(dup_cases)} duplicated-variable programs rejected; weakening never flips")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_semantic_substitution():
    from qpel.backends import make_backend
    from qpel.derivation import Env
    from qpel.interpreter import (
        backend_applicable,
        ctx_ob,
        interp_effect,
        interp_term,
        split_mor,
    )
    from qpel.randgen import typed_context, typed_effect, typed_term, typed_type
    from qpel.syntax import Ascribe, Context, EffForm, Typing, subst
    from qpel.triangle import compose_all
    from qpel.typecheck import check_effect

    env = Env()
    counts = {}
    for backend_name in ("set", "stochastic", "quantum"):
        backend = make_backend(backend_name)
        rng = random.Random(62)
        done = 0
        while done < 100:
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
            if not (
                backend_applicable(backend, Typing(delta, m, a))
                and backend_applicable(backend, EffForm(gamma.extend("x", a), phi))
            ):
                continue
            lhs = interp_effect(backend, combined, substituted)
            split = split_mor(backend, combined, set(gamma.names()))
            fm = interp_term(backend, delta, m, a)
            h = compose_all(
                backend,
                backend.tensor_mor(backend.identity(ctx_ob(backend, gamma)), fm),
                split,
            )
            rhs = backend.apply_pred(h, interp_effect(backend, gamma.extend("x", a), phi))
            if backend_name == "quantum":
                dev = max(np.abs(np.asarray(x) - np.asarray(y)).max() for x, y in zip(lhs, rhs))
                assert dev <= QUANTUM_TOL
            else:
                assert backend.pred_eq(lhs, rhs)
            done += 1
        counts[backend_name] = done
    assert all(v >= 100 for v in counts.values())
    report(6, "substitution lemma holds on 100 random (term, effect) pairs per backend")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_qubit_identities():
    from qpel.backends import make_backend
    from qpel.corpus import build_item
    from qpel.derivation import Env, check_script
    from qpel.interpreter import judgement_true
    from qpel.typecheck import check_judgement

    QB = make_backend("quantum")
    equational = (
        "qbit-cz-x", "qbit-cz-z", "qbit-x-proj", "qbit-z-proj",
        "qbit-xx", "qbit-zz", "qbit-xz-zx",
    )
    assert len(equational) == 7
    for rule in equational:
        it = build_item(rule, 0)
        env = Env()
        j, _ = check_judgement(it.judgement, env.resolver(it.requires))
        d = check_script(j, it.script, env)
        assert d.rule == rule
        # depth 1: every child discharges a typing premise, no nested equations
        assert all(c.judgement.__class__.__name__ == "Typing" for c in d.children)
        assert judgement_true(QB, it.judgement)

    # numeric channel identities within 1e-9
    cz, x, z, i2 = QB.qbit_cz(), QB.qbit_x(), QB.qbit_z(), QB.identity((2,))
    pairs = [
        (QB.compose(cz, QB.tensor_mor(x, i2)), QB.compose(QB.tensor_mor(x, z), cz)),
        (QB.compose(cz, QB.tensor_mor(z, i2)), QB.compose(QB.tensor_mor(z, i2), cz)),
        (QB.compose(x, x), i2),
        (QB.compose(z, z), i2),
    ]
    for lhs, rhs in pairs:
        assert QB.mor_eq(lhs, rhs)
    for angle in (Fraction(0), Fraction(1, 2), Fraction(7, 4)):
        px = QB.apply_pred(x, QB.qbit_proj(angle))
        assert np.linalg.norm(px[0] - QB.qbit_proj((-angle) % 2)[0]) < QUANTUM_TOL
        pz = QB.apply_pred(z, QB.qbit_proj(angle))
        assert np.linalg.norm(pz[0] - QB.qbit_proj((angle - 1) % 2)[0]) < QUANTUM_TOL
        xz = QB.compose(x, z)
        zx = QB.compose(z, x)
        assert np.linalg.norm(
            QB.apply_pred(xz, QB.qbit_proj(angle))[0]
            - QB.apply_pred(zx, QB.qbit_proj(angle))[0]
        ) < QUANTUM_TOL
    report(7, "all 7 qubit equations: depth-1 derivations + channel equalities within 1e-9")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_wp_lemma():
    from qpel.backends import make_backend
    from qpel.derivation import Env
    from qpel.interpreter import interp_effect, interp_term, weakest_precondition
    from qpel.parser import parse, parse_effect_text as E, parse_term_text as T
    from qpel.randgen import typed_effect, typed_term
    from qpel.syntax import Ascribe, Context, Measure, TQbit, subst
    from qpel.typecheck import check_effect, check_term

    QB = make_backend("quantum")
    env = Env()
    g = Context((("q", TQbit()),))
    hctx = Context((("h", TQbit()),))
    pairs = [
        (g, T("X q"), E("proj(h, 0)")),
        (g, T("Z q"), E("proj(h, 1/2)")),
        (g, T("X (Z q)"), E("proj(h, 3/2)")),
        (g, T("measure { proj(q, 0) -> plus | bot(proj(q, 0)) -> X plus }"), E("proj(h, 1)")),
        (g, T("measure { 1/2 -> q | 1/2 -> X q }"), E("proj(h, 1/4)")),
        (g, T("measure { 1/4 -> q | 3/4 -> Z q }"), E("bot(proj(h, 0))")),
        (Context((("a", TQbit()), ("b", TQbit()))),
         T("let p * r = E a b in measure { proj(p, 0) -> r | bot(proj(p, 0)) -> X r }"),
         E("proj(h, 0)")),
    ]
    rng = random.Random(63)
    while len(pairs) < 20:
        pairs.append(
            (g, typed_term(rng, g, TQbit(), depth=2), typed_effect(rng, hctx, depth=2))
        )
    measure_count = sum(1 for _, m, _ in pairs if isinstance(m, Measure) or "Measure" in repr(m))
    assert measure_count >= 3

    worst = 0.0
    for ctx, m, phi in pairs:
        check_term(ctx, m, TQbit(), env.resolver())
        check_effect(hctx, phi, env.resolver())
        f = interp_term(QB, ctx, m, TQbit())
        p_a = QB.apply_pred(QB.unit_left_inv((2,)), interp_effect(QB, hctx, phi))
        wp = weakest_precondition(QB, f, p_a)
        direct = interp_effect(QB, ctx, subst(phi, "h", Ascribe(m, TQbit())))
        dev = max(np.abs(np.asarray(a) - np.asarray(b)).max() for a, b in zip(wp, direct))
        worst = max(worst, dev)
    assert worst <= QUANTUM_TOL

    # wp of the identity program is the identity on effects
    rng = random.Random(64)
    ident = interp_term(QB, g, T("q"), TQbit())
    for _ in range(10):
        e = QB.random_pred((2,), rng)
        lifted = QB.apply_pred(QB.unit_left_inv((2,)), QB.apply_pred(QB.unit_left((2,)), e))
        out = weakest_precondition(QB, ident, e)
        assert np.abs(out[0] - e[0]).max() <= QUANTUM_TOL

    # the CLI path agrees
    out = subprocess.run(
        [sys.executable, "-m", "qpel.cli", "wp", "--cross-check", "corpus/intro.qpel", "zgate", "prjhalf"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert float(out.stdout.strip().split()[-1]) <= QUANTUM_TOL
    report(8, f"wp cross-check deviation <= 1e-9 on {len(pairs)} pairs (max {worst:.2e}); wp(id) = id")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_beta_iso_pack():
    from qpel.backends import make_backend
    from qpel.corpus import build_item
    from qpel.derivation import DerivationError, Env, check_script
    from qpel.interpreter import judgement_true
    from qpel.typecheck import check_judgement

    QB = make_backend("quantum")
    for k in range(3):
        it = build_item("beta-iso", k)
        off = Env(packs=frozenset({"core", "qubit"}))
        j, _ = check_judgement(it.judgement, off.resolver(it.requires))
        with pytest.raises(DerivationError):
            check_script(j, it.script, off)
        on = Env(packs=frozenset({"core", "qubit", "beta-iso"}))
        check_script(j, it.script, on)
        assert judgement_true(QB, it.judgement)
    report(9, "measurement-substitution instances check only with the pack on; true in quantum")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_roundtrip():
    import pathlib

    from qpel.parser import file_alpha_eq, parse, parse_effect_text, parse_term_text, pretty
    from qpel.printer import print_effect, print_term
    from qpel.randgen import raw_effect, raw_term

    count = 0
    for p in sorted(pathlib.Path("corpus").glob("*.qpel")):
        f = parse(p.read_text())
        assert file_alpha_eq(f, parse(pretty(f))), p
        count += 1
    assert count >= 4

    rng = random.Random(65)
    for _ in range(700):
        t = raw_term(rng, 3)
        assert parse_term_text(print_term(t)) == t
    for _ in range(300):
        e = raw_effect(rng, 3)
        assert parse_effect_text(print_effect(e)) == e
    report(10, "parse . print alpha-identity on the corpus and 1000 random trees")
