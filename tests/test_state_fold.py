"""Closed terms evaluated state-forward.

`interpreter.evaluate` folds a closed term's derivation with a quantum state
over the live context factors as its carrier.  Its state must be the state
of the map `interpret` gives, on seeded random closed terms that reach
every term formation rule, on the measurement-calculus declarations of the
benchmark, and on a long `let` chain whose context is mostly `I` factors.
Its local update `apply_trailing` must be the map path's (id (x) f), and a
let or case must reshuffle nothing after its scrutinee has run.
The cluster states n=5..8 are checked through the driver against their closed
form, which shows that the absolute tolerance of 1e-9 holds up to d=256.
"""
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qpel import driver, interpreter
from qpel.backends import make_backend
from qpel.backends.quantum import TOL, QuantumBackend
from qpel.derivation import Env
from qpel.interpreter import ctx_ob, evaluate, interp_type, interpret
from qpel.parser import TermDecl, parse
from qpel.randgen import typed_context, typed_term, typed_type
from qpel.syntax import (
    CZ,
    Ascribe,
    Case,
    Context,
    LetPair,
    Measure,
    NewPlus,
    Orth,
    PauliX,
    PauliZ,
    ProjPlus,
    TQbit,
    TSum,
    TTensor,
    TUnit,
    Var,
    desugar_let,
)
from qpel.typecheck import check_term

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the benchmark's declaration generators)

Q = make_backend("quantum")
EXACT = 1e-12
TERM_RULES = {"var", "unit", "tensor", "let", "inl", "inr", "case", "measure",
              "qbit-new", "qbit-x", "qbit-z", "qbit-cz"}
# the map path builds d^4 blocks; keep its contexts and types small
MAX_DIM = 16


def _deviation(d) -> float:
    forward = evaluate(Q, d)
    reference = Q.state_of_mor(interpret(Q, d))
    assert [b.shape for b in forward] == [b.shape for b in reference]
    return max(float(np.abs(x - y).max()) for x, y in zip(forward, reference))


def _derive(term, ty):
    return check_term(Context(), term, ty, Env().resolver())


def _contexts(d, acc):
    acc.append(d.judgement.ctx.entries)
    for p in d.children:
        _contexts(p, acc)
    return acc


def _rules(d, acc):
    acc.add(d.rule)
    for p in d.children + d.formations:
        _rules(p, acc)
    return acc


# ------------------------------------------------------- random closed terms


def _closed(rng, ty):
    return Ascribe(typed_term(rng, Context(), ty, depth=3), ty)


def _random_closed(rng):
    """A closed term and its type, with the largest context or type at most
    MAX_DIM: a closed `typed_term`, or an open one closed by a `let` per
    context entry, under a case, a let-pair or an E on closed scrutinees."""
    while True:
        ty = typed_type(rng, 2, qbit=True)
        shape = rng.randrange(5)
        if shape == 0:
            return typed_term(rng, Context(), ty, depth=3), ty
        g = typed_context(rng, rng.randint(0, 3), qbit=True)
        a, b = typed_type(rng, 1, qbit=True), typed_type(rng, 1, qbit=True)
        if shape == 4:
            a = b = TQbit()
        inner = Context(g.entries + (("x", a), ("y", b)))
        if max(Q.tensor_ob(ctx_ob(Q, inner), interp_type(Q, ty))) > MAX_DIM:
            continue
        if shape == 1:
            body = typed_term(rng, g, ty, depth=3)
        elif shape == 2:
            left = typed_term(rng, Context(g.entries + (("x", a),)), ty, depth=3)
            right = typed_term(rng, Context(g.entries + (("y", b),)), ty, depth=3)
            body = Case(_closed(rng, TSum(a, b)), "x", left, "y", right)
        else:
            pair = _closed(rng, TTensor(a, b))
            if shape == 4:
                pair = CZ(_closed(rng, a), _closed(rng, b))
            body = LetPair("x", "y", pair, typed_term(rng, inner, ty, depth=3))
        for name, t in reversed(g.entries):
            body = desugar_let(name, _closed(rng, t), body)
        return body, ty


def test_random_closed_terms_match_the_map_path():
    rng = random.Random(2027)
    rules, worst = set(), 0.0
    for _ in range(520):
        d = _derive(*_random_closed(rng))
        _rules(d, rules)
        worst = max(worst, _deviation(d))
    assert worst <= EXACT
    assert TERM_RULES <= rules, TERM_RULES - rules


# ------------------------------------------------------------ local updates


@pytest.mark.parametrize("rest,dom,cod", [((1, 2), (2, 1), (1, 2)),
                                          ((2, 1), (1, 2), (2, 1)),
                                          ((3, 1, 2), (2, 1), (1, 1, 2))])
def test_apply_trailing_is_the_map_path(rest, dom, cod):
    rng = random.Random(repr((rest, dom, cod)))
    for _ in range(5):
        f = Q.random_channel(dom, cod, rng)
        s = Q.random_state(Q.tensor_ob(rest, dom), rng)
        forward = Q.apply_trailing(f, s, rest)
        reference = Q.apply_state(Q.tensor_mor(Q.identity(rest), f), s)
        assert [b.shape for b in forward] == [b.shape for b in reference]
        assert max(float(np.abs(x - y).max()) for x, y in zip(forward, reference)) <= EXACT


# each term, its type, and the reshuffles its evaluation makes in all
SCRUTINISING = {
    "let a * b = E plus plus in b * a": ("qbit * qbit", 9),
    "case (inl plus : qbit + qbit) of inl x -> X x | inr y -> y": ("qbit", 4),
}


@pytest.mark.parametrize("term", SCRUTINISING)
def test_let_and_case_reshuffle_nothing_after_their_scrutinee(term, monkeypatch):
    """The scrutinee's value lands where the binders of the body or the arms
    end their context, so a let or a case reshuffles the state once, before
    its scrutinee runs, and cuts the arms out of the sum's blocks."""
    events, forward, reshuffle = [], interpreter._forward, QuantumBackend.reshuffle_state

    def traced(backend, d, s, rest):
        events.append(("call", d.rule))
        s = forward(backend, d, s, rest)
        events.append(("return", d.rule))
        return s

    monkeypatch.setattr(interpreter, "_forward", traced)
    monkeypatch.setattr(QuantumBackend, "reshuffle_state",
                        lambda self, *a: events.append(("reshuffle", None)) or reshuffle(self, *a))
    ty, calls = SCRUTINISING[term]
    (decl,) = parse(f"term t () : {ty} = {term}\n").decls
    evaluate(Q, _derive(decl.term, decl.ty))
    # each reshuffle belongs to the innermost running node: [rule, whether
    # a premise of it has run]
    stack, late = [], []
    for kind, rule in events:
        if kind == "call":
            if stack:
                stack[-1][1] = True
            stack.append([rule, False])
        elif kind == "return":
            stack.pop()
        elif stack[-1][0] in ("let", "case") and stack[-1][1]:
            late.append(stack[-1][0])
    assert late == []
    assert [kind for kind, _ in events].count("reshuffle") == calls


# ----------------------------------------------------- the benchmark's terms


def _mbqc_source(seed):
    rng = random.Random(seed)
    decls = [workloads._cluster_decl(n) for n in workloads.CLUSTER_SIZES]
    for i, k in enumerate(workloads.CHAIN_LENGTHS):
        decls.append(workloads._chain_decl(f"hchain{i}", rng.choice(("plus", "Z plus")), ["0"] * k))
        angles = []
        for _ in range(k):
            den = rng.choice(workloads.ANGLE_DENOMS)
            angles.append(str(Fraction(rng.randrange(1, 2 * den), den)))
        decls.append(workloads._chain_decl(f"jchain{i}", "plus", angles))
    return "\n\n".join(decls) + "\n"


def test_mbqc_declarations_match_the_map_path():
    decls = [d for d in parse(_mbqc_source(5)).decls if isinstance(d, TermDecl)]
    assert len(decls) == len(workloads.CLUSTER_SIZES) + 2 * len(workloads.CHAIN_LENGTHS)
    for decl in decls:
        assert _deviation(_derive(decl.term, decl.ty)) <= EXACT, decl.name


def test_a_long_let_chain_over_unit_factors_matches_the_map_path():
    """120 lets, each leaving an `_u : I` entry in the context of the rest:
    X, Z and a measurement that prepares a fresh qubit, in turn."""
    term = Var("q120")
    for i in range(120, 0, -1):
        prev = Var(f"q{i - 1}")
        phi = ProjPlus(prev, Fraction(1, 4))
        bound = [PauliX(prev), PauliZ(prev),
                 Measure(((phi, NewPlus()), (Orth(phi), PauliZ(NewPlus()))))][i % 3]
        term = desugar_let(f"q{i}", bound, term)
    term = desugar_let("q0", NewPlus(), term)
    d = _derive(term, TQbit())
    deepest = max(_contexts(d, []), key=len)
    assert sum(ty == TUnit() for _, ty in deepest) >= 120
    assert _deviation(d) <= EXACT


# ------------------------------------------------------------ large clusters


def _cluster_density(n):
    """|C_n><C_n| for |C_n> = prod CZ(i, i+1) |+>^n, with qubit 1 the most
    significant bit of a basis index."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    signs = (-1.0) ** (bits[:, :-1] * bits[:, 1:]).sum(axis=1)
    psi = signs / 2 ** (n / 2)
    return np.outer(psi, psi)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_large_clusters_check_within_the_absolute_tolerance(n, tmp_path, monkeypatch):
    path = tmp_path / f"cluster{n}.qpel"
    path.write_text(workloads._cluster_decl(n) + f"\ncheck cluster{n}\n", encoding="utf-8")
    states = []
    render = driver.render_state

    def capture(backend_name, state):
        states.append(state)
        return render(backend_name, state)

    monkeypatch.setattr(driver, "render_state", capture)
    out, code = driver.run_paths([str(path)], verify=("quantum",))
    assert code == 0 and f"check cluster{n}: evaluated" in out, out
    (state,) = states
    assert len(state) == 1 and state[0].shape == (2**n, 2**n)
    assert np.linalg.norm(state[0] - _cluster_density(n)) <= TOL


def test_closed_checks_build_no_superoperator(tmp_path, monkeypatch):
    """A closed cluster composes and tensors no map; a chain composes only
    for its measurements' predicates, one per step: `bot(proj(a, q))` reads
    the projector of `proj(a, q)`, which the interpreter folded once."""
    calls = []
    for name in ("compose", "tensor_mor"):
        method = getattr(QuantumBackend, name)
        monkeypatch.setattr(QuantumBackend, name,
                            lambda self, *a, _m=method, _n=name: calls.append(_n) or _m(self, *a))
    path = tmp_path / "closed.qpel"
    path.write_text(workloads._cluster_decl(6) + "\ncheck cluster6\n", encoding="utf-8")
    assert driver.run_paths([str(path)], verify=("quantum",))[1] == 0
    assert calls == []
    path.write_text(workloads._chain_decl("c", "plus", ["1/4"] * 5) + "\ncheck c\n",
                    encoding="utf-8")
    assert driver.run_paths([str(path)], verify=("quantum",))[1] == 0
    assert set(calls) == {"compose"} and len(calls) == 5


def test_a_measurement_builds_its_projector_once(tmp_path, monkeypatch):
    angles = []
    qbit_proj = QuantumBackend.qbit_proj
    monkeypatch.setattr(QuantumBackend, "qbit_proj",
                        lambda self, angle: angles.append(angle) or qbit_proj(self, angle))
    path = tmp_path / "measure.qpel"
    path.write_text(
        "term m () : qbit =\n  let a = plus in\n"
        "  measure { proj(a, 1/4) -> plus | bot(proj(a, 1/4)) -> X plus }\ncheck m\n",
        encoding="utf-8",
    )
    out, code = driver.run_paths([str(path)], verify=("quantum",))
    assert code == 0 and "check m: evaluated" in out, out
    assert angles == [Fraction(1, 4)]


def test_check_of_an_open_term_or_an_effect_is_a_type_error(tmp_path):
    path = tmp_path / "kinds.qpel"
    path.write_text(
        "term id (x : qbit) : qbit = x\n"
        "effect e (x : qbit) = proj(x, 0)\n"
        "term p () : qbit = X plus\n"
        "check id\ncheck e\ncheck p\ncheck nothing\n",
        encoding="utf-8",
    )
    out, code = driver.run_paths([str(path)], verify=("quantum",), fmt="json")
    checks = {d["name"]: d for d in json.loads(out)[0]["decls"] if d["kind"] == "check"}
    assert code == 3
    assert checks["id"]["message"] == "check expects a closed term"
    assert checks["e"]["message"] == "check expects a term declaration"
    assert checks["nothing"]["message"] == "check names unknown declaration 'nothing'"
    assert checks["p"]["status"] == "ok" and checks["p"]["stage"] == "evaluated"
