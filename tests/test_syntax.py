import dataclasses
import hashlib
import inspect
import random
from fractions import Fraction

import pytest

from qpel.parser import parse_effect_text as E
from qpel.parser import parse_term_text as T
from qpel.randgen import raw_effect, raw_term
from qpel import syntax
from qpel.syntax import (
    SHAPES,
    CZ,
    Ascribe,
    Case,
    CaseEff,
    Inl,
    Inr,
    LetPair,
    Measure,
    NewPlus,
    Orth,
    OSum,
    Pair,
    ProjPlus,
    PauliX,
    ScalarLit,
    SMul,
    Star,
    Syntax,
    TQbit,
    TSum,
    TTensor,
    TUnit,
    Var,
    Zero,
    alpha_eq,
    bound_names,
    desugar_let,
    erase_ascriptions,
    free_vars,
    is_one,
    nameless,
    one,
    ovee_all,
    subst,
    subst_many,
)


# independent alpha-equivalence oracle: parallel walk with a binder pairing,
# structured differently from the locally nameless conversion used by __eq__
def alpha_oracle(a, b, pairs=()):
    def bound_to(n, side):
        for xa, xb in reversed(pairs):
            if (xa if side == 0 else xb) == n:
                return (xa, xb)
        return None

    if isinstance(a, Var) and isinstance(b, Var):
        ba, bb = bound_to(a.name, 0), bound_to(b.name, 1)
        if ba is None and bb is None:
            return a.name == b.name
        return ba is not None and ba == bb
    if type(a) is not type(b):
        return False
    if isinstance(a, (Star, Zero)) or type(a).__name__ in ("NewPlus",):
        return True
    if isinstance(a, ScalarLit):
        return a.value == b.value
    if isinstance(a, ProjPlus):
        return a.angle == b.angle and alpha_oracle(a.term, b.term, pairs)
    if isinstance(a, (Pair,)):
        return alpha_oracle(a.left, b.left, pairs) and alpha_oracle(a.right, b.right, pairs)
    if isinstance(a, LetPair):
        return alpha_oracle(a.pair, b.pair, pairs) and alpha_oracle(
            a.body, b.body, pairs + ((a.x, b.x), (a.y, b.y))
        )
    if isinstance(a, (Inl, Inr)):
        return alpha_oracle(a.arg, b.arg, pairs)
    if isinstance(a, Case):
        return (
            alpha_oracle(a.scrut, b.scrut, pairs)
            and alpha_oracle(a.left, b.left, pairs + ((a.x, b.x),))
            and alpha_oracle(a.right, b.right, pairs + ((a.y, b.y),))
        )
    if isinstance(a, Measure):
        return len(a.branches) == len(b.branches) and all(
            alpha_oracle(ea, eb, pairs) and alpha_oracle(ta, tb, pairs)
            for (ea, ta), (eb, tb) in zip(a.branches, b.branches)
        )
    if isinstance(a, (OSum,)):
        return alpha_oracle(a.left, b.left, pairs) and alpha_oracle(a.right, b.right, pairs)
    if isinstance(a, Orth):
        return alpha_oracle(a.arg, b.arg, pairs)
    if type(a).__name__ == "SMul":
        return alpha_oracle(a.scalar, b.scalar, pairs) and alpha_oracle(a.body, b.body, pairs)
    if type(a).__name__ == "CaseEff":
        return (
            alpha_oracle(a.scrut, b.scrut, pairs)
            and alpha_oracle(a.left, b.left, pairs + ((a.x, b.x),))
            and alpha_oracle(a.right, b.right, pairs + ((a.y, b.y),))
        )
    if type(a).__name__ in ("PauliX", "PauliZ"):
        return alpha_oracle(a.arg, b.arg, pairs)
    if type(a).__name__ == "CZ":
        return alpha_oracle(a.left, b.left, pairs) and alpha_oracle(a.right, b.right, pairs)
    raise AssertionError(type(a))


def test_subst_variable_hit():
    assert subst(Var("x"), "x", Star()) == Star()


def test_subst_variable_miss():
    assert subst(Var("y"), "x", T("unit * unit")) == Var("y")


def test_subst_capture_avoidance():
    # [y/x](let y * z = x in y * z): the binder y must be renamed
    m = LetPair("y", "z", Var("x"), T("y * z"))
    out = subst(m, "x", Var("y"))
    assert isinstance(out, LetPair)
    assert out.pair == Var("y")
    assert out.x != "y"  # freshened
    # and the result is alpha-equal to the renaming-free expectation
    expected = LetPair("w", "z", Var("y"), T("w * z"))
    assert alpha_eq(out, expected)
    assert alpha_oracle(out, expected)


def test_subst_effect_examples():
    assert subst(Zero(), "x", T("unit")) == Zero()
    e = E("caseE x of inl a -> 0 | inr b -> bot(0)")
    out = subst(e, "x", T("inl unit"))
    assert out == E("caseE (inl unit) of inl a -> 0 | inr b -> bot(0)")
    p = subst(E("proj(x, 0)"), "x", T("plus"))
    assert p == E("proj(plus, 0)")


def test_alpha_examples():
    assert T("let a * b = z in a * b") == T("let c * d = z in c * d")
    assert T("x") != T("y")
    # nested shadowing
    m1 = T("let a * b = z in let a * c = a * b in a * c")
    m2 = T("let p * q = z in let r * s = p * q in r * s")
    assert (m1 == m2) == alpha_oracle(m1, m2)


def test_alpha_matches_oracle_on_random_terms():
    rng = random.Random(5)
    for _ in range(300):
        a = raw_term(rng, 3)
        b = raw_term(rng, 3)
        assert (a == b) == alpha_oracle(a, b)
        assert alpha_oracle(a, a)
        assert a == a


def test_alpha_matches_oracle_on_random_effects():
    rng = random.Random(6)
    for _ in range(300):
        a = raw_effect(rng, 3)
        assert (a == a) and alpha_oracle(a, a)
        b = raw_effect(rng, 3)
        assert (a == b) == alpha_oracle(a, b)


def _fresh(s):
    """A copy of s that shares no node with it, so keeps no key yet."""
    return dataclasses.replace(s, **syntax.map_subterms(s, lambda m, _: _fresh(m)))


def _nodes(s):
    yield s
    for m, _ in syntax.subterms(s):
        yield from _nodes(m)


def test_keys_walks_keep_and_reuse_are_the_subtrees_own():
    """A walk keeps the keys of the subtrees under no binder in their nodes,
    and reuses the keys it finds there; either way, each key a node gives
    is the key of its own tree.  Hashed from the root down, and from the
    leaves up."""
    rng = random.Random(8)
    trees = [raw_term(rng, 4) for _ in range(150)] + [raw_effect(rng, 3) for _ in range(150)]
    for tree in trees:
        top_down, bottom_up = _fresh(tree), _fresh(tree)
        hash(top_down)
        for node in reversed(list(_nodes(bottom_up))):
            hash(node)
        for copy in (top_down, bottom_up):
            for node in _nodes(copy):
                assert node._key() == nameless(_fresh(node))


def test_substitution_composition():
    # [P/y][N/x]M == [[P/y]N / x][P/y]M  when x != y and x not free in P
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        m = raw_term(rng, 3)
        n = raw_term(rng, 2)
        p = raw_term(rng, 2)
        if "a" in free_vars(p):
            continue
        lhs = subst(subst(m, "a", n), "b", p)
        rhs = subst(subst(m, "b", p), "a", subst(n, "b", p))
        assert lhs == rhs, (m, n, p)
        checked += 1


def test_alpha_congruence_for_subst():
    rng = random.Random(8)
    for _ in range(200):
        m = raw_term(rng, 3)
        m2 = subst_many(m, {})  # identity
        assert m2 == m
        n = raw_term(rng, 2)
        a = subst(m, "a", n)
        # renaming a bound variable first must not change the result
        b = subst(subst_many(m, {}), "a", n)
        assert a == b


def test_desugar_let():
    out = desugar_let("x", Star(), Var("x"))
    assert isinstance(out, LetPair)
    assert out.pair == Pair(Star(), Star())
    assert out.x == "x" and out.y not in free_vars(Var("x"))
    # freshness against the body
    out2 = desugar_let("x", Star(), T("_u * x"))
    assert out2.y != "_u"
    assert out2.y not in free_vars(out2.body) - {out2.x, out2.y} or True
    assert "_u" in free_vars(out2.body)


def test_notation_helpers_idempotent():
    phis = [Zero(), one(), E("proj(x, 0)")]
    s = ovee_all(phis)
    assert s == OSum(OSum(Zero(), one()), E("proj(x, 0)"))
    assert is_one(one()) and not is_one(Zero())
    # expanding twice equals expanding once: one() and ovee_all are stable
    assert one() == Orth(Zero())
    assert ovee_all([s]) == s


def test_projection_angle_range():
    from fractions import Fraction

    with pytest.raises(ValueError):
        ProjPlus(Var("x"), Fraction(2))
    with pytest.raises(ValueError):
        ProjPlus(Var("x"), Fraction(-1, 2))
    with pytest.raises(ValueError):
        ScalarLit(Fraction(3, 2))


def test_free_and_bound_names():
    m = T("let a * b = z in a * (case w of inl c -> c | inr d -> b)")
    assert free_vars(m) == {"z", "w"}
    assert {"a", "b", "c", "d"} <= bound_names(m)


def test_every_constructor_has_a_shape():
    constructors = [
        c for _, c in inspect.getmembers(syntax, inspect.isclass)
        if issubclass(c, Syntax) and dataclasses.is_dataclass(c)
        and c.__module__ == syntax.__name__
    ]
    assert {Var, Measure, CaseEff, ProjPlus} <= set(constructors)
    for c in constructors:
        assert c in SHAPES, c.__name__
        # every field is a subterm, a binder or data, each exactly once
        _, children, data = SHAPES[c]
        binders = [b for _, bs in children for b in bs or ()]
        named = [f for f, _ in children] + binders + list(data)
        assert sorted(named) == sorted(f.name for f in dataclasses.fields(c)), c.__name__


# Seeded random trees and hand-built ones covering what `raw_term` and
# `raw_effect` never build: ascriptions, and `let`s whose two binders share a
# name.  The digest was taken from the per-constructor walks that the
# `SHAPES` table replaced.
TRAVERSAL_SEED = 17
TRAVERSAL_COUNT = 811
TRAVERSAL_SHA256 = "16e9cf2df8c3745fc284ea4e046fba0bdc3afce5e6b1e22da5a58d61a36e1d2f"


def _traversal_trees():
    rng = random.Random(TRAVERSAL_SEED)
    trees = [raw_term(rng, 3) for _ in range(400)] + [raw_effect(rng, 3) for _ in range(400)]
    a, b, c = Var("a"), Var("b"), Var("c")
    q = Ascribe(Var("q"), TQbit())
    qq = TTensor(TQbit(), TQbit())
    case_e = CaseEff(b, "a", ProjPlus(a, Fraction(3, 2)), "c", Zero())
    trees += [
        LetPair("a", "a", Pair(a, b), Pair(a, c)),
        LetPair("b", "b", Ascribe(a, TTensor(TUnit(), TQbit())),
                Ascribe(Pair(b, a), TTensor(TQbit(), TUnit()))),
        Ascribe(Ascribe(Pair(q, NewPlus()), qq), qq),
        Case(Ascribe(a, TSum(TUnit(), TQbit())), "b", Pair(b, c), "c", Pair(c, b)),
        Case(Var("d"), "a", LetPair("b", "a", a, Pair(a, b)), "a", PauliX(a)),
        Measure(((ProjPlus(Ascribe(a, TQbit()), Fraction(1, 4)), Inl(Ascribe(Star(), TUnit()))),
                 (Orth(ProjPlus(a, Fraction(1, 4))), CZ(b, Ascribe(c, TQbit()))))),
        Measure(((case_e, LetPair("b", "c", a, Pair(b, c))), (Orth(case_e), Star()))),
        CaseEff(Ascribe(Pair(a, b), qq), "b",
                OSum(ScalarLit(Fraction(1, 3)), ProjPlus(b, Fraction(1))),
                "a", SMul(ScalarLit(Fraction(2, 3)), ProjPlus(Pair(a, c), Fraction(0)))),
        SMul(ScalarLit(Fraction(1)),
             CaseEff(c, "c", ProjPlus(LetPair("a", "c", c, a), Fraction(1, 2)), "a", Orth(Zero()))),
        ProjPlus(LetPair("c", "c", Ascribe(b, TQbit()), c), Fraction(7, 4)),
        ScalarLit(Fraction(0)),
    ]
    return trees


def _traversal_record(s):
    names = sorted(bound_names(s)) or ["a"]
    # each free variable replaced by a bound name, so that binders freshen
    capture = {x: Var(names[i % len(names)]) for i, x in enumerate(sorted(free_vars(s)))}
    fixed = {"a": Pair(Var("b"), Var("c'")), "b": Var("a"), "u": Inl(Var("d'"))}
    return "\n".join((
        repr(nameless(s)),
        repr(sorted(free_vars(s))),
        repr(sorted(bound_names(s))),
        repr(subst_many(s, capture)),
        repr(subst_many(s, fixed)),
        repr(erase_ascriptions(s)),
    ))


def test_traversal_golden():
    records = [_traversal_record(s) for s in _traversal_trees()]
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert (len(records), digest) == (TRAVERSAL_COUNT, TRAVERSAL_SHA256)
