"""The typechecker's verdicts, messages and derivations on seeded random input.

About 4,000 inputs (a context, a term with a type or an effect) are drawn
from `randgen`: arbitrary trees, which mostly fail, well-typed ones, and
let/case/caseE eliminations of context variables whose binders reuse the
context's names.  Each gives one record: the error class and message, or the
derivation rendered up to renaming (rule names, premise arguments and the
nameless key of each judgement).  The digest of the records was taken from
the typechecker that restated each formation rule by hand, before it applied
the `rules` schemas.
"""
import hashlib
import random

from qpel.derivation import Env, recheck_derivation
from qpel.randgen import (
    raw_effect,
    raw_term,
    typed_context,
    typed_effect,
    typed_term,
    typed_type,
)
from qpel.syntax import (
    Ascribe,
    Case,
    CaseEff,
    Context,
    EffForm,
    LetPair,
    Pair,
    Syntax,
    TermEq,
    TSum,
    TTensor,
    Typing,
    Var,
    free_vars,
    nameless,
    subst,
)
from qpel.typecheck import QpelTypeError, check_effect, check_term

SEED = 2024
COUNT = 4000
# sha256 of the newline-joined records, and the number of accepted inputs
GOLDEN_SHA256 = "5ac6e491ac0f5b3e9609a4c446ba843540e9ac5516706129c8a9c69816e89c33"
GOLDEN_ACCEPTED = 2374


def _key(j):
    names = tuple(j.ctx.names())
    types = tuple(repr(t) for _, t in j.ctx)
    if isinstance(j, Typing):
        parts = (nameless(j.term, names), repr(j.ty))
    elif isinstance(j, TermEq):
        parts = (nameless(j.lhs, names), nameless(j.rhs, names), repr(j.ty))
    elif isinstance(j, EffForm):
        parts = (nameless(j.eff, names),)
    else:
        parts = (nameless(j.low, names), nameless(j.high, names))
    return (type(j).__name__, types) + parts


def _render(d, out, depth=0):
    names = tuple(d.judgement.ctx.names())
    args = sorted(
        (k, nameless(v, names) if isinstance(v, Syntax) else repr(v))
        for k, v in d.args.items()
    )
    out.append(f"{' ' * depth}{d.rule} {args} {_key(d.judgement)}")
    for c in d.children:
        _render(c, out, depth + 1)


def _rebind(rng, g, x, body):
    """Rename binder x of body to a context name body does not use, if any,
    so that the typechecker must freshen it."""
    spare = [n for n in g.names() if n not in free_vars(body)]
    if not spare or rng.random() < 0.3:
        return x, body
    y = rng.choice(spare)
    return y, subst(body, x, Var(y))


def _elimination(rng, g):
    """A let, case or caseE on a context variable whose binders often reuse
    an unused context name, or None when no variable has a tensor or sum type."""
    cands = [(n, t) for n, t in g if isinstance(t, (TTensor, TSum))]
    if not cands:
        return None
    v, t = rng.choice(cands)
    rest = tuple(e for e in g.entries if e[0] != v)
    scrut = Var(v) if rng.random() < 0.8 else Ascribe(Var(v), t)
    if isinstance(t, TTensor):
        ty = typed_type(rng, 1, qbit=True)
        body = typed_term(rng, Context(rest + (("p", t.left), ("q", t.right))), ty, depth=2)
        x, body = _rebind(rng, g, "p", body)
        y, body = ("q", body) if x == "q" else _rebind(rng, g, "q", body)
        if x == y:
            return None
        return Typing(g, LetPair(x, y, scrut, body), ty)
    if rng.random() < 0.5:
        ty = typed_type(rng, 1, qbit=True)
        x, left = _rebind(rng, g, "p", typed_term(rng, Context(rest + (("p", t.left),)), ty, depth=2))
        y, right = _rebind(rng, g, "q", typed_term(rng, Context(rest + (("q", t.right),)), ty, depth=2))
        return Typing(g, Case(scrut, x, left, y, right), ty)
    x, left = _rebind(rng, g, "p", typed_effect(rng, Context(rest + (("p", t.left),)), depth=1))
    y, right = _rebind(rng, g, "q", typed_effect(rng, Context(rest + (("q", t.right),)), depth=1))
    return EffForm(g, CaseEff(scrut, x, left, y, right))


def _input(rng):
    g = typed_context(rng, rng.randrange(4), qbit=True)
    roll = rng.random()
    if roll < 0.3:
        return Typing(g, raw_term(rng, rng.randrange(1, 4)), typed_type(rng, 2, qbit=True))
    if roll < 0.45:
        return EffForm(g, raw_effect(rng, rng.randrange(1, 3)))
    if roll < 0.65:
        ty = typed_type(rng, 2, qbit=True)
        return Typing(g, typed_term(rng, g, ty, depth=rng.randrange(1, 4)), ty)
    if roll < 0.7:
        # a well-typed term twice over: accepted only when it is closed
        ty = typed_type(rng, 1, qbit=True)
        m = typed_term(rng, g, ty, depth=2)
        return Typing(g, Pair(m, m), TTensor(ty, ty))
    if roll < 0.8:
        return EffForm(g, typed_effect(rng, g, depth=rng.randrange(1, 3)))
    return _elimination(rng, g)


def _inputs():
    rng = random.Random(SEED)
    out = []
    while len(out) < COUNT:
        j = _input(rng)
        if j is not None:
            out.append(j)
    return out


def _derivation(j, env):
    if isinstance(j, Typing):
        return check_term(j.ctx, j.term, j.ty, env.resolver())
    return check_effect(j.ctx, j.eff, env.resolver())


def test_typechecker_golden():
    env = Env(depth=3)
    accepted = 0
    records = []
    for j in _inputs():
        try:
            d = _derivation(j, env)
        except QpelTypeError as exc:
            records.append(f"{type(exc).__name__}: {exc}")
            continue
        accepted += 1
        out = ["ok"]
        _render(d, out)
        records.append("\n".join(out))
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert (digest, accepted) == (GOLDEN_SHA256, GOLDEN_ACCEPTED)


def test_accepted_derivations_recheck():
    # derivation judgements hold no ascription, so every accepted input
    # rechecks, the 91 ascribed ones included
    env = Env(depth=3)
    rechecked = 0
    for j in _inputs():
        try:
            d = _derivation(j, env)
        except QpelTypeError:
            continue
        assert recheck_derivation(d, env).judgement == d.judgement
        rechecked += 1
    assert rechecked == GOLDEN_ACCEPTED
