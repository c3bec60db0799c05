"""Each backend folds each formation judgement once.

`interpreter.interpret` keeps the denotation of every judgement it folds in
the backend's `memo`, keyed by the judgement (alpha-equality on binders).
Over the corpus, the folds run per backend are the distinct judgements it
meets; binder names do not split an entry; the scrutinee types erased
ascriptions chose, which a judgement does not fix, do not change a
denotation; and no backend operation writes into a denotation it shares.
"""
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from qpel import driver, interpreter
from qpel.backends import make_backend
from qpel.backends.quantum import QMor
from qpel.interpreter import assume_checked, backend_applicable, interp_term, interpret
from qpel.parser import parse_effect_text as E
from qpel.parser import parse_term_text as T
from qpel.syntax import Context, EffForm, TQbit, TSum, TTensor, TUnit, Typing

ROOT = Path(__file__).resolve().parent.parent
CORPUS = [str(ROOT / "corpus" / f"{stem}.qpel")
          for stem in ("intro", "core", "probabilistic", "qubit", "beta_iso")]
PACKS = frozenset({"core", "qubit", "beta-iso"})
BACKENDS = ("set", "stochastic", "quantum")


def test_each_backend_folds_each_judgement_it_meets_once(monkeypatch):
    met, folds = defaultdict(set), Counter()
    calls = 0
    memoised, fold = interpreter.interpret, interpreter._fold

    def meet(backend, d):
        nonlocal calls
        calls += 1
        met[backend].add(d.judgement)
        return memoised(backend, d)

    def count(backend, d):
        folds[backend] += 1
        return fold(backend, d)

    monkeypatch.setattr(interpreter, "interpret", meet)
    monkeypatch.setattr(interpreter, "_fold", count)
    assert driver.run_paths(CORPUS, packs=PACKS, verify=BACKENDS)[1] == 0
    assert {b.name for b in met} == set(BACKENDS) and set(folds) == set(met)
    assert {b: len(js) for b, js in met.items()} == dict(folds)
    assert sum(folds.values()) < calls


def test_judgements_differing_in_binder_names_share_one_entry():
    backend = make_backend("stochastic")
    bit = TSum(TUnit(), TUnit())
    g = Context((("p", TTensor(bit, bit)),))
    first = interp_term(backend, g, T("let x * y = p in y * x"), TTensor(bit, bit))
    entries = len(backend.memo)
    again = interp_term(backend, g, T("let u * v = p in v * u"), TTensor(bit, bit))
    assert again is first and len(backend.memo) == entries


BIT = TSum(TUnit(), TUnit())

# Judgements whose term or effect hides an ascription "(B)" under other
# formations; each choice of B erases to the same judgement, whose
# derivations read different scrutinee types.  None as the type marks an
# effect.
ASCRIBED = [
    ((), "(case (inl unit : I + (B)) of inl x -> x | inr y -> unit) * unit",
     TTensor(TUnit(), TUnit()), ("I", "I + I", "I * (I + I)", "qbit", "qbit * (I + I)")),
    ((), "case (inr (inl unit) : (B) + (I + I)) of inl x -> inl unit"
         " | inr y -> case y of inl a -> inr a | inr b -> inl b",
     BIT, ("I", "I + I", "I * (I + I)", "qbit", "qbit + qbit")),
    ((("p", BIT),), "case (case p of inl x -> inl x | inr y -> inr (inr y) : I + ((B) + I))"
                    " of inl u -> inl u | inr v -> case v of inl a -> inr unit | inr b -> inr b",
     BIT, ("I", "I + I", "I * (I + I)", "qbit")),
    ((("p", BIT),), "let a * b = (inl unit : I + (B)) * p in case a of inl u -> b | inr w -> b",
     BIT, ("I", "I + I", "I * (I + I)", "qbit")),
    ((("q", TQbit()),), "measure { proj(q, 1/4) -> case (inl unit : I + (B)) of inl x -> inl x"
                        " | inr y -> inr unit | bot(proj(q, 1/4)) -> inr unit }",
     BIT, ("I", "qbit", "I + qbit")),
    ((), "proj(case (inl unit : I + (B)) of inl x -> plus | inr y -> X plus, 1/4)",
     None, ("I", "I + I", "qbit")),
]


def _scrutinee_types(d):
    return [d.args.get("ty")] + [t for p in d.children for t in _scrutinee_types(p)]


@pytest.mark.parametrize("name", BACKENDS)
def test_the_scrutinee_types_ascriptions_choose_do_not_change_a_denotation(name):
    """Why the memo can key by the judgement alone: derivations of one
    judgement that differ only in a scrutinee type an erased ascription
    chose denote the same, each folded by a backend of its own."""
    compared = 0
    for entries, source, ty, choices in ASCRIBED:
        derivations = []
        for choice in choices:
            text = source.replace("(B)", f"({choice})")
            j = EffForm(Context(entries), E(text)) if ty is None else Typing(Context(entries), T(text), ty)
            backend = make_backend(name)
            if backend_applicable(backend, j) and (backend.has_qbit or "qbit" not in choice):
                (d,) = assume_checked(j)
                derivations.append((d, interpret(backend, d)))
        if not derivations:
            continue
        (d0, first), *others = derivations
        for d, den in others:
            assert d.judgement == d0.judgement and _scrutinee_types(d) != _scrutinee_types(d0)
            same = backend.mor_eq if ty is not None else backend.pred_eq
            assert same(first, den), (name, d.judgement)
            compared += 1
    assert compared == {"set": 8, "stochastic": 8, "quantum": 18}[name]


def _arrays(den):
    if isinstance(den, QMor):
        return list(den.blocks.values())
    if isinstance(den, tuple):
        return [x for x in den if isinstance(x, np.ndarray)]
    return []


class _ReadOnlyMemo(dict):
    """A memo that makes every array of a denotation read-only as it is
    stored, so an in-place write into a shared block raises."""

    def __setitem__(self, key, den):
        for block in _arrays(den):
            block.setflags(write=False)
        super().__setitem__(key, den)


def test_no_backend_operation_writes_into_a_shared_quantum_denotation(tmp_path, monkeypatch):
    chain = tmp_path / "chain.qpel"
    chain.write_text(
        "term c () : qbit =\n  let q0 = plus in\n"
        "  let a * b = E q0 plus in\n"
        "  let q1 = measure { proj(a, 1/4) -> b | bot(proj(a, 1/4)) -> X b } in\n"
        "  q1\ncheck c\n",
        encoding="utf-8",
    )
    paths = CORPUS + [str(chain)]
    want = driver.run_paths(paths, packs=PACKS, verify=BACKENDS, fmt="json")

    make, memos = driver.make_backend, []

    def read_only(name):
        backend = make(name)
        if name == "quantum":
            backend.memo = _ReadOnlyMemo()
            memos.append(backend.memo)
        return backend

    monkeypatch.setattr(driver, "make_backend", read_only)
    got = driver.run_paths(paths, packs=PACKS, verify=BACKENDS, fmt="json")
    assert got == want and want[1] == 0
    assert any(_arrays(den) for memo in memos for den in memo.values())
