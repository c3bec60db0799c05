"""The interpreter is a fold over type checker derivations.

The digest pins the set and stochastic denotations of every corpus lemma
side and of some 2,900 seeded random judgements (terms, effects, and
let/case/caseE eliminations whose binders often reuse a context name).  It
was taken from the interpreter that walked the raw term and re-derived
scrutinee types, context splits and binder renamings itself, so the fold
gives exactly its denotations.  Rendering sorts every set and dict, so the
digest does not depend on PYTHONHASHSEED.
"""
import hashlib
import random
from pathlib import Path

import pytest

from qpel import interpreter
from qpel.backends import make_backend
from qpel.backends.points import PointMor
from qpel.corpus import all_items
from qpel.driver import run_paths
from qpel.interpreter import backend_applicable, interp_effect, interp_term
from qpel.randgen import typed_context, typed_effect, typed_term, typed_type
from qpel.syntax import (
    Case,
    CaseEff,
    Context,
    EffForm,
    EffLeq,
    LetPair,
    Star,
    TermEq,
    TSum,
    TTensor,
    TUnit,
    Typing,
    Var,
    free_vars,
    subst,
)

SEED = 2026
COUNT = 3000
# sha256 of the newline-joined renderings, their number, and the number of
# judgements they come from
GOLDEN_SHA256 = "8e13260e4e9fa04366156ab255d3c5abe255b306dbb74789c0014942dbac4c5d"
GOLDEN_RECORDS = 4662
GOLDEN_JUDGEMENTS = 2873


def _canon(v, backend_name=None) -> str:
    """The rendering the golden was taken with.  The set backend's
    denotations are rendered in the form they had as functions and subsets:
    each single-entry row as its point, and a {0, 1}-predicate as the subset
    it weights 1."""
    if isinstance(v, PointMor) and backend_name == "set":
        points = [next(iter(v.rows[x])) for x in v.dom]
        assert all(len(v.rows[x]) == 1 for x in v.dom)
        return f"SetMor({_canon(v.dom)}, {_canon(v.cod)}, {_canon(points)})"
    if isinstance(v, PointMor):
        return f"StochMor({_canon(v.dom)}, {_canon(v.cod)}, {_canon([v.rows[x] for x in v.dom])})"
    if isinstance(v, dict) and backend_name == "set":
        assert set(v.values()) <= {0, 1}
        return _canon(frozenset(x for x, w in v.items() if w == 1))
    if isinstance(v, dict):
        return "{" + ", ".join(sorted(f"{_canon(k)}: {_canon(x)}" for k, x in v.items())) + "}"
    if isinstance(v, (set, frozenset)):
        return "{" + ", ".join(sorted(_canon(x) for x in v)) + "}"
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(_canon(x) for x in v) + ")"
    return repr(v)


def _sides(j):
    """(context, term or effect, type or None) for each component."""
    if isinstance(j, TermEq):
        return [(j.ctx, j.lhs, j.ty), (j.ctx, j.rhs, j.ty)]
    if isinstance(j, Typing):
        return [(j.ctx, j.term, j.ty)]
    if isinstance(j, EffLeq):
        return [(j.ctx, j.low, None), (j.ctx, j.high, None)]
    return [(j.ctx, j.eff, None)]


def _binder(rng, g, x, body):
    """x, or an unused context name that the type checker must rename."""
    spare = [n for n in g.names() if n not in free_vars(body)]
    if spare and rng.random() < 0.5:
        y = rng.choice(spare)
        return y, subst(body, x, Var(y))
    return x, body


def _elimination(rng, g):
    """A let, case or caseE on a context variable of tensor or sum type."""
    cands = [(n, t) for n, t in g if isinstance(t, (TTensor, TSum))]
    if not cands:
        return None
    v, t = rng.choice(cands)
    rest = tuple(e for e in g.entries if e[0] != v)
    if isinstance(t, TTensor):
        ty = typed_type(rng, 1)
        body = typed_term(rng, Context(rest + (("p", t.left), ("q", t.right))), ty, depth=2)
        x, body = _binder(rng, g, "p", body)
        y, body = _binder(rng, g, "q", body) if x != "q" else ("q", body)
        return None if x == y else Typing(g, LetPair(x, y, Var(v), body), ty)
    if rng.random() < 0.5:
        ty = typed_type(rng, 1)
        left = typed_term(rng, Context(rest + (("p", t.left),)), ty, depth=2)
        x, left = _binder(rng, g, "p", left)
        right = typed_term(rng, Context(rest + (("q", t.right),)), ty, depth=2)
        y, right = _binder(rng, g, "q", right)
        return Typing(g, Case(Var(v), x, left, y, right), ty)
    x, left = _binder(rng, g, "p", typed_effect(rng, Context(rest + (("p", t.left),)), depth=1))
    y, right = _binder(rng, g, "q", typed_effect(rng, Context(rest + (("q", t.right),)), depth=1))
    return EffForm(g, CaseEff(Var(v), x, left, y, right))


def _judgements():
    out = [it.judgement for it in all_items()]
    rng = random.Random(SEED)
    for i in range(COUNT):
        g = typed_context(rng, rng.randrange(4))
        if i % 3 == 2:
            j = _elimination(rng, g)
            if j is not None:
                out.append(j)
        elif i % 3:
            ty = typed_type(rng, 2)
            out.append(Typing(g, typed_term(rng, g, ty, depth=3), ty))
        else:
            out.append(EffForm(g, typed_effect(rng, g, depth=2)))
    return out


def test_fold_denotations_match_the_term_walk_golden():
    judgements = _judgements()
    records = []
    for name in ("set", "stochastic"):
        backend = make_backend(name)
        for j in judgements:
            if not backend_applicable(backend, j):
                continue
            for g, s, ty in _sides(j):
                den = interp_effect(backend, g, s) if ty is None else interp_term(backend, g, s, ty)
                records.append(_canon(den, name))
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert (len(judgements), len(records), digest) == (
        GOLDEN_JUDGEMENTS, GOLDEN_RECORDS, GOLDEN_SHA256
    )


CORPUS = [str(Path(__file__).resolve().parent.parent / "corpus" / f"{stem}.qpel")
          for stem in ("intro", "core", "probabilistic", "qubit", "beta_iso")]


def test_the_driver_interprets_only_the_derivations_it_built(monkeypatch):
    packs = frozenset({"core", "qubit", "beta-iso"})
    want = run_paths(CORPUS, packs=packs, verify=("set", "stochastic", "quantum"))

    def derive_first(j):
        raise AssertionError(f"the driver derived {j} again")

    monkeypatch.setattr(interpreter, "assume_checked", derive_first)
    got = run_paths(CORPUS, packs=packs, verify=("set", "stochastic", "quantum"))
    assert got == want and got[1] == 0
    # the patch is live: a caller holding a bare judgement reaches it
    with pytest.raises(AssertionError, match="derived"):
        interp_term(make_backend("set"), Context(), Star(), TUnit())
