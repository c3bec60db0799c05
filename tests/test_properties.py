"""Property-based checks with hypothesis over seeded generators."""
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qpel.derivation import literal_value
from qpel.parser import parse_effect_text, parse_term_text
from qpel.printer import print_effect, print_term
from qpel.randgen import NAMES, raw_effect, raw_term, typed_context, typed_type
from qpel.rules import _extract_at_var
from qpel.syntax import (
    Context,
    Measure,
    Orth,
    OSum,
    ProjPlus,
    ScalarLit,
    SMul,
    Star,
    Var,
    Zero,
    free_vars,
    one,
    subst,
)
from qpel.typecheck import QpelTypeError, split_context

seeds = st.integers(min_value=0, max_value=10_000)


@given(seed=seeds)
@settings(max_examples=150, deadline=None)
def test_term_roundtrip(seed):
    t = raw_term(random.Random(seed), 3)
    assert parse_term_text(print_term(t)) == t


@given(seed=seeds)
@settings(max_examples=150, deadline=None)
def test_effect_roundtrip(seed):
    e = raw_effect(random.Random(seed), 3)
    assert parse_effect_text(print_effect(e)) == e


@given(seed=seeds)
@settings(max_examples=200, deadline=None)
def test_same_multiset_compares_the_entries_sorted(seed):
    """`Context.same_multiset` agrees with comparing the two contexts'
    entries sorted by their repr: at a permutation of a random context, and
    at one with an entry dropped, renamed or retyped, then permuted."""
    rng = random.Random(seed)
    g = typed_context(rng, rng.randrange(6), qbit=True)
    entries = list(g.entries)
    rng.shuffle(entries)
    assert g.same_multiset(Context(tuple(entries)))
    if entries:
        i = rng.randrange(len(entries))
        name, ty = entries[i]
        changed = [[], [(rng.choice(["x", name]), ty)], [(name, typed_type(rng, 1, qbit=True))]]
        entries[i : i + 1] = rng.choice(changed)
        rng.shuffle(entries)
    h = Context(tuple(entries))
    assert g.same_multiset(h) == (sorted(g.entries, key=repr) == sorted(h.entries, key=repr))


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_substitution_composition_property(seed):
    rng = random.Random(seed)
    m, n, p = raw_term(rng, 3), raw_term(rng, 2), raw_term(rng, 2)
    if "a" in free_vars(p):
        return
    assert subst(subst(m, "a", n), "b", p) == subst(
        subst(m, "b", p), "a", subst(n, "b", p)
    )


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_subst_of_fresh_variable_is_identity(seed):
    rng = random.Random(seed)
    m = raw_term(rng, 3)
    assert subst(m, "zz_not_there", raw_term(rng, 1)) == m


@given(seed=seeds)
@settings(max_examples=300, deadline=None)
def test_extract_at_var_inverts_substitution(seed):
    """beta-iso reads the redex R back from [R/x]psi: it is R when x is free
    in psi, and there is none when x is not."""
    rng = random.Random(seed)
    psi, r = raw_effect(rng, 3), raw_term(rng, 2)
    # a free variable of psi half the time, when it has one
    free = sorted(free_vars(psi))
    x = rng.choice(free) if free and rng.random() < 0.5 else rng.choice(NAMES)
    found = _extract_at_var(psi, x, subst(psi, x, r))
    if x in free_vars(psi):
        assert found == r
    else:
        assert found is None


def test_extract_at_var_refuses_other_branch_counts_and_data():
    x = Var("x")
    psi = ProjPlus(Measure(((one(), x), (Zero(), Star()))), Fraction(0))
    assert _extract_at_var(psi, "x", subst(psi, "x", Star())) == Star()
    wider = ProjPlus(Measure(((one(), Star()), (Zero(), Star()), (Zero(), Star()))), Fraction(0))
    assert _extract_at_var(psi, "x", wider) is None
    assert _extract_at_var(ProjPlus(x, Fraction(0)), "x", ProjPlus(Star(), Fraction(1, 2))) is None


LIT = st.fractions(min_value=0, max_value=1, max_denominator=16)


@given(a=LIT, b=LIT)
def test_literal_sum_matches_rational_arithmetic(a, b):
    ea = ScalarLit(a) if a else Zero()
    eb = ScalarLit(b) if b else Zero()
    v = literal_value(OSum(ea, eb))
    assert v == (a + b if a + b <= 1 else None)


@given(a=LIT)
def test_literal_orthosupplement(a):
    e = ScalarLit(a) if a else Zero()
    assert literal_value(Orth(e)) == 1 - a
    assert literal_value(SMul(one(), e)) == a


@given(seed=seeds)
@settings(max_examples=80, deadline=None)
def test_split_context_partitions(seed):
    from qpel.syntax import TUnit

    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randint(1, 6))]
    g = Context(tuple((n, TUnit()) for n in names))
    left = frozenset(n for n in names if rng.random() < 0.4)
    right_pool = [n for n in names if n not in left]
    right = frozenset(n for n in right_pool if rng.random() < 0.5)
    parts = split_context(g, [left, right])
    assert set(parts[0].names()) == set(left)
    assert set(parts[0].names()) | set(parts[1].names()) == set(names)
    # order within parts follows the context
    assert parts[0].names() == [n for n in names if n in left]


@given(seed=seeds)
@settings(max_examples=50, deadline=None)
def test_split_context_rejects_shared_needs(seed):
    from qpel.syntax import TUnit

    rng = random.Random(seed)
    g = Context((("x", TUnit()), ("y", TUnit())))
    try:
        split_context(g, [{"x"}, {"x"}])
        raised = False
    except QpelTypeError:
        raised = True
    assert raised
