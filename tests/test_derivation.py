import re
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from qpel import rules
from qpel.corpus import all_items, sc
from qpel.derivation import (
    SEARCH_RULES,
    DerivationError,
    Env,
    SearchFailed,
    auto_search_leq,
    check_arith,
    check_script,
    deriv_to_script,
    literal_value,
)
from qpel.parser import ScriptNode, UseNode
from qpel.parser import parse_effect_text as E
from qpel.parser import parse_term_text as T
from qpel.rules import (
    ALL_RULE_NAMES,
    SCHEMAS,
    A,
    AB,
    B,
    C,
    CHI,
    M,
    M2,
    N,
    PHI as PHI_,
    PSI,
    R as R_,
    R2,
    X,
    X2,
    Y,
    Y2,
    p_equiv,
    p_leq,
    p_ty,
    pattern_rule,
)
from qpel.syntax import (
    CaseEff,
    Context,
    EffForm,
    EffLeq,
    LetPair,
    Measure,
    Orth,
    OSum,
    Pair,
    ScalarLit,
    Star,
    TermEq,
    TQbit,
    TSum,
    TTensor,
    TUnit,
    Typing,
    Var,
    Zero,
    one,
)
from qpel.typecheck import QpelTypeError, check_judgement, check_term, split_zones, synth_type

QCTX = Context((("x", TQbit()),))
PHI = E("proj(x, 0)")


def env(*packs):
    return Env(packs=frozenset(packs) if packs else frozenset({"core", "qubit"}))


def test_rule_inventory_is_exactly_the_published_list():
    assert len(ALL_RULE_NAMES) == 80
    assert set(SCHEMAS) == set(ALL_RULE_NAMES)
    assert len(set(ALL_RULE_NAMES)) == 80
    packs = {SCHEMAS[n].pack for n in ALL_RULE_NAMES}
    assert packs == {"core", "qubit", "beta-iso"}
    qubit_rules = [n for n in ALL_RULE_NAMES if SCHEMAS[n].pack == "qubit"]
    assert len(qubit_rules) == 12


def _named_code_rules(text, start, end):
    """The rule names in backquotes in text from `start` to `end`, with its
    white space normalised, and that span."""
    text = " ".join(text.split())
    span = text[text.index(start):text.index(end)]
    return {n for n in re.findall(r"`([a-z0-9-]+)`", span) if n in ALL_RULE_NAMES}, span


def test_the_rules_given_as_code_are_those_the_docs_name():
    """A rule is code when its schema's match was not made by
    `pattern_rule`.  The `rules` docstring and the README name the code
    rules and count them, so a rule that becomes data must leave both."""
    code = {name for name, schema in SCHEMAS.items()
            if schema.match.__qualname__ != "pattern_rule.<locals>.match"}
    assert len(code) == 17
    docstring, span = _named_code_rules(rules.__doc__, "The other 17 rules are code",
                                        "The search rules among")
    assert docstring == code, span
    assert f"{80 - len(code)} of the 80" in " ".join(rules.__doc__.split())
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    named, span = _named_code_rules(readme, "other 17 rules stay code", "Rules are tried by goal head")
    assert named == code, span
    assert f"re-checks. {80 - len(code)} rules are data" in " ".join(readme.split())


def test_measure_one_instance():
    g = TermEq(Context(), Measure(((one(), Star()),)), Star(), TUnit())
    d = check_script(g, sc("measure-1"), env())
    assert d.rule == "measure-1"


def test_beta_tensor_with_scaffolding():
    g2 = Context((("a", TUnit()), ("b", TUnit())))
    goal = TermEq(g2, T("let x * y = a * b in x * y"), T("a * b"), TTensor(TUnit(), TUnit()))
    d = check_script(goal, sc("beta-tensor"), env())
    assert d.rule == "beta-tensor"
    # wrapped in transitivity and symmetry scaffolding
    goal2 = TermEq(g2, T("a * b"), T("let x * y = a * b in x * y"), TTensor(TUnit(), TUnit()))
    d2 = check_script(goal2, sc("sym(beta-tensor)"), env())
    assert d2.rule == "sym"


def test_sym_with_swapped_premise_rejected():
    g = Context((("x", TUnit()),))
    goal = TermEq(g, Measure(((one(), Var("x")),)), Var("x"), TUnit())
    # sym expects the premise the other way round; measure-1 cannot prove it
    with pytest.raises(DerivationError):
        check_script(goal, sc("sym(measure-1)"), env())


def test_wrong_premise_count():
    g = Context((("x", TUnit()),))
    goal = TermEq(g, Var("x"), Var("x"), TUnit())
    with pytest.raises(DerivationError, match="premises"):
        check_script(goal, sc("ref(var; var)"), env())


def test_unknown_rule_name():
    goal = EffLeq(QCTX, Zero(), PHI)
    with pytest.raises(DerivationError, match="unknown rule"):
        check_script(goal, ScriptNode("zero-below", {}, None), env())


def test_pack_gating():
    goal = TermEq(QCTX, T("X (X x)"), T("x"), TQbit())
    with pytest.raises(DerivationError, match="pack"):
        check_script(goal, sc("qbit-xx"), env("core"))
    check_script(goal, sc("qbit-xx"), env("core", "qubit"))
    # core cannot be disabled
    assert "core" in Env(packs=frozenset({"qubit"})).packs


def test_beta_iso_needs_its_pack():
    from qpel.corpus import build_item

    it = build_item("beta-iso", 0)
    e_off = Env(packs=frozenset({"core", "qubit"}))
    j, _ = check_judgement(it.judgement, e_off.resolver(it.requires))
    with pytest.raises(DerivationError, match="pack"):
        check_script(j, it.script, e_off)
    e_on = Env(packs=frozenset({"core", "qubit", "beta-iso"}))
    check_script(j, it.script, e_on)


def test_auto_search_examples():
    e = env()
    assert auto_search_leq(EffLeq(QCTX, Zero(), PHI), 6, e).rule == "zero-leq"
    d = auto_search_leq(EffLeq(QCTX, one(), OSum(PHI, Orth(PHI))), 6, e)
    assert d.rule == "ortho-2"
    with pytest.raises(SearchFailed):
        auto_search_leq(EffLeq(QCTX, PHI, Orth(PHI)), 6, e)


def test_generic_self_orthogonality_is_semantically_false():
    # phi <= bot(phi) fails the search and is false for phi = 2/3
    from qpel.backends import make_backend
    from qpel.interpreter import judgement_true

    st = make_backend("stochastic")
    phi = ScalarLit(Fraction(2, 3))
    j = EffLeq(Context(), phi, Orth(phi))
    assert not judgement_true(st, j)


def test_search_results_recheck():
    e = env()
    goals = [
        EffLeq(QCTX, Zero(), PHI),
        EffLeq(QCTX, one(), OSum(PHI, Orth(PHI))),
        EffLeq(QCTX, OSum(PHI, Orth(PHI)), one()),
        EffLeq(QCTX, one(), OSum(OSum(PHI, Orth(PHI)), Zero())),
        EffLeq(Context(), one(), OSum(ScalarLit(Fraction(1, 2)), ScalarLit(Fraction(1, 2)))),
    ]
    for goal in goals:
        d = auto_search_leq(goal, 6, e)
        redone = check_script(goal, deriv_to_script(d), e)
        assert redone.judgement == goal


def test_search_is_deterministic():
    e = env()
    goal = EffLeq(QCTX, one(), OSum(OSum(PHI, Orth(PHI)), Zero()))
    a = auto_search_leq(goal, 6, e)
    b = auto_search_leq(goal, 6, e)
    assert deriv_to_script(a) == deriv_to_script(b)


def test_exch_excluded_from_search():
    assert "exch" not in SEARCH_RULES
    assert "leq-trans" not in SEARCH_RULES


def test_arith_leaf():
    h = ScalarLit(Fraction(1, 2))
    good = EffLeq(Context(), one(), OSum(h, h))
    assert check_arith(good).rule == "arith"
    bad = EffLeq(Context(), one(), h)
    with pytest.raises(DerivationError, match="refuted"):
        check_arith(bad)
    nonlit = EffLeq(QCTX, PHI, PHI)
    with pytest.raises(DerivationError, match="literal"):
        check_arith(nonlit)
    assert literal_value(OSum(h, h)) == 1
    assert literal_value(OSum(h, ScalarLit(Fraction(3, 4)))) is None


def test_use_node_cites_lemmas():
    e = env()
    e.add_lemma("covered", [EffLeq(QCTX, one(), OSum(PHI, Orth(PHI)))])
    goal = EffLeq(QCTX, one(), OSum(PHI, Orth(PHI)))
    d = check_script(goal, UseNode("covered"), e)
    assert d.rule == "use"
    with pytest.raises(DerivationError, match="no such lemma"):
        check_script(goal, UseNode("missing"), e)
    # context matched up to exchange
    ctx2 = Context((("y", TUnit()), ("x", TQbit())))
    e.add_lemma("covered", [EffLeq(ctx2, one(), OSum(PHI, Orth(PHI)))])
    goal2 = EffLeq(Context((("x", TQbit()), ("y", TUnit()))), one(), OSum(PHI, Orth(PHI)))
    assert check_script(goal2, UseNode("covered"), e).rule == "use"


def test_schema_mismatch_message_names_the_difference():
    g2 = Context((("a", TUnit()), ("b", TUnit())))
    goal = TermEq(g2, T("let x * y = a * b in x * y"), T("b * a"), TTensor(TUnit(), TUnit()))
    with pytest.raises(DerivationError, match="right side"):
        check_script(goal, sc("beta-tensor"), env())


PATTERN_RULE_MESSAGES = {
    "zero-leq": "left side must be 0",
    "bot-antitone": "both sides must be orthosupplements",
    "bot-bot": "right side must be a double orthosupplement",
    "leq-ovee": "right side must be a sum",
    "ovee-mono": "both sides must be sums",
    "ovee-comm": "both sides must be sums",
    "perp-rotate": "conclusion must be `psi o+ chi <= bot(phi)`",
    "ovee-assoc": "conclusion must reassociate a triple sum",
    "ovee-0": "left side must be `phi o+ 0`",
    "ortho-1": "left side must be an orthosupplement",
    "ortho-2": "left side must be bot(0)",
    "dist-l": "conclusion matches no reading of dist-l",
    "dist-r": "conclusion matches no reading of dist-r",
    "unit-l": "conclusion must relate `bot(0) . phi` with `phi`",
    "unit-r": "conclusion must relate `phi . bot(0)` with `phi`",
    "assoc": "conclusion must reassociate a scalar product",
    "comm": "conclusion must flip a scalar product",
}


# a goal no pattern rule's heads admit, and for each rule with a repeated
# metavariable, a goal of the rule's heads whose repeated occurrences differ
P, Q, R = "proj(x, 0)", "proj(x, 1/2)", "proj(x, 1)"
MISMATCHES = [(name, P, Q) for name in PATTERN_RULE_MESSAGES] + [
    ("bot-bot", P, f"bot(bot({Q}))"),
    ("leq-ovee", P, f"{Q} o+ {P}"),
    ("ovee-mono", f"{P} o+ {Q}", f"{R} o+ {P}"),
    ("ovee-comm", f"{P} o+ {Q}", f"{P} o+ {Q}"),
    ("ovee-assoc", f"{P} o+ ({Q} o+ {R})", f"({Q} o+ {P}) o+ {R}"),
    ("ovee-0", f"{P} o+ 0", Q),
    ("ortho-2", "bot(0)", f"{P} o+ bot({Q})"),
    ("dist-l", f"({P} o+ {Q}) . {R}", f"{P} . {R} o+ {R} . {Q}"),
    ("unit-l", f"bot(0) . {P}", Q),
    ("comm", f"{P} . {Q}", f"{P} . {Q}"),
]


@pytest.mark.parametrize("name, low, high", MISMATCHES)
def test_pattern_rule_mismatch_gives_the_rule_message(name, low, high):
    """An explicit node of a pattern rule at a goal no reading of the rule
    fits fails with the rule's one message."""
    with pytest.raises(DerivationError) as exc:
        check_script(EffLeq(QCTX, E(low), E(high)), ScriptNode(name), env())
    assert str(exc.value) == f"{name}: schema mismatch: {PATTERN_RULE_MESSAGES[name]}"


QQ = Context((("x", TQbit()), ("y", TQbit())))
QUBITS = TTensor(TQbit(), TQbit())
SUM = TSum(TQbit(), TQbit())
ETA_TENSOR = "conclusion must be `M = let x * y = M in x * y`"
ETA_PLUS = "conclusion must be `M = case M of inl x -> inl x | inr y -> inr y`"


def _typing(term, ty):
    return Typing(QQ, T(term), ty)


def _equation(lhs, rhs, ty=TQbit()):
    return TermEq(QQ, T(lhs), T(rhs), ty)


def _formation(eff):
    return EffForm(QQ, E(eff))


def _inequality(low, high):
    return EffLeq(QQ, E(low), E(high))


# for each rule written as a pattern of fixed shape, goals it mismatches and
# its message there: at a goal of another judgement form, at one of its form
# and another shape, and at one of its shape and another type
FIXED_SHAPE_MESSAGES = [
    ("unit", _typing("x", TUnit()), "conclusion is not a unit typing"),
    ("unit", _typing("unit", TQbit()), "unit value cannot have type qbit"),
    ("tensor", _formation("0"), "conclusion is not a typing"),
    ("tensor", _typing("x", QUBITS), "conclusion is not a pair typing"),
    ("tensor", _typing("x * y", TQbit()), "a pair cannot have type qbit"),
    ("inl", _typing("inr x", TSum(TQbit(), TQbit())), "conclusion is not an inl typing"),
    ("inl", _typing("inl x", TQbit()), "inl cannot have type qbit"),
    ("inr", _typing("inl x", TSum(TQbit(), TQbit())), "conclusion is not an inr typing"),
    ("inr", _typing("inr x", TQbit()), "inr cannot have type qbit"),
    ("ref", _equation("x", "X x"), "the two sides are not alpha-equal"),
    ("sym", _typing("x", TQbit()), "conclusion is not a term equality"),
    ("tensor-eq", _typing("x * y", QUBITS), "conclusion is not a term equality"),
    ("tensor-eq", _equation("x * y", "x", QUBITS), "both sides must be pairs"),
    ("tensor-eq", _equation("x * y", "x * y"), "a pair equality must have a tensor type, got qbit"),
    ("inl-eq", _equation("inl x", "inr x"), "both sides must be inl"),
    ("inl-eq", _equation("inl x", "inl x"), "inl must have a sum type, got qbit"),
    ("inr-eq", _equation("inr x", "inl x"), "both sides must be inr"),
    ("inr-eq", _equation("inr x", "inr x"), "inr must have a sum type, got qbit"),
    ("eff-0", _inequality("0", "0"), "conclusion is not an effect formation"),
    ("eff-0", _formation("bot(0)"), "conclusion is not `0 eff`"),
    ("eff-bot", _formation("0"), "conclusion is not `bot(phi) eff`"),
    ("eff-ovee", _formation("0"), "conclusion is not a sum formation"),
    ("eff-mult", _formation("0"), "conclusion is not a product formation"),
    ("leq-ref", _inequality("proj(x, 0)", "proj(y, 0)"), "the two sides are not alpha-equal"),
    ("qbit-new", _typing("x", TQbit()), "conclusion is not a plus-state typing"),
    ("qbit-new", _typing("plus", TUnit()), "plus is a qubit"),
    ("qbit-x", _typing("Z x", TQbit()), "conclusion is not an X typing"),
    ("qbit-x", _typing("X x", TUnit()), "X produces a qubit"),
    ("qbit-z", _typing("X x", TQbit()), "conclusion is not a Z typing"),
    ("qbit-z", _typing("Z x", TUnit()), "Z produces a qubit"),
    ("qbit-cz", _typing("x * y", QUBITS), "conclusion is not a controlled-Z typing"),
    ("qbit-cz", _typing("E x y", TQbit()), "E produces a pair of qubits"),
    ("qbit-proj", _formation("0"), "conclusion is not a projection formation"),
    ("qbit-cz-x", _equation("E (X x) y", "let a * b = E x y in X a * X b", QUBITS),
     "conclusion must be `E (X M) N = let x * y = E M N in X x * Z y`"),
    ("qbit-cz-x", _equation("E (X x) y", "let a * a = E x y in X a * Z a", QUBITS),
     "conclusion must be `E (X M) N = let x * y = E M N in X x * Z y`"),
    ("qbit-cz-z", _equation("E (Z x) y", "let a * b = E x x in Z a * b", QUBITS),
     "conclusion must be `E (Z M) N = let x * y = E M N in Z x * y`"),
    ("qbit-x-proj", _formation("proj(X x, 1/2)"), "conclusion is not an inequality"),
    ("qbit-x-proj", _inequality("proj(X x, 1/2)", "proj(x, 1/2)"),
     "conclusion must reflect a projection angle through X"),
    ("qbit-z-proj", _inequality("proj(Z x, 1/2)", "proj(x, 1/2)"),
     "conclusion must shift a projection angle through Z"),
    ("qbit-xx", _equation("X (X x)", "X x"), "conclusion must be `X (X M) = M`"),
    ("qbit-zz", _equation("Z (Z x)", "y"), "conclusion must be `Z (Z M) = M`"),
    ("qbit-xz-zx", _inequality("proj(X (Z x), 1/2)", "proj(Z (X x), 0)"),
     "conclusion must exchange X Z with Z X under a projection"),
    ("let", _formation("0"), "conclusion is not a typing"),
    ("let", _typing("x", TQbit()), "conclusion is not a let typing"),
    ("let", _typing("let a * b = x in a", TQbit()), "the let scrutinee must have a tensor type, got qbit"),
    ("let", _typing("let a * b = inl x in a", TQbit()),
     "cannot infer the type of inl x; supply the 'ty' argument"),
    ("case", _formation("0"), "conclusion is not a typing"),
    ("case", _typing("x", TQbit()), "conclusion is not a case typing"),
    ("case", _typing("case x * y of inl a -> a | inr b -> b", TQbit()),
     "the case scrutinee must have a sum type, got qbit * qbit"),
    ("eff-case", _typing("x", TQbit()), "conclusion is not an effect formation"),
    ("eff-case", _formation("0"), "conclusion is not a case formation"),
    ("eff-case", _formation("caseE x of inl a -> 0 | inr b -> 0"),
     "the case scrutinee must have a sum type, got qbit"),
    ("eta-unit", _formation("0"), "conclusion is not a term equality"),
    ("eta-unit", _equation("x", "unit"), "conclusion must equate a unit-typed term with `unit`"),
    ("eta-unit", _equation("x", "x", TUnit()), "conclusion must equate a unit-typed term with `unit`"),
    ("eta-tensor", _formation("0"), "conclusion is not a term equality"),
    ("eta-tensor", _equation("x * y", "let a * b = y * x in a * b", QUBITS), ETA_TENSOR),
    ("eta-tensor", _equation("x * y", "let a * b = x * y in b * a", QUBITS), ETA_TENSOR),
    # the body's two a are the second binder's
    ("eta-tensor", _equation("x * y", "let a * a = x * y in a * a", QUBITS), ETA_TENSOR),
    ("eta-tensor", _equation("x * y", "let a * b = x * y in a * b"), "needs a tensor-typed equality, got qbit"),
    ("eta-plus", _formation("0"), "conclusion is not a term equality"),
    ("eta-plus", _equation("inl x", "case inl x of inl a -> inr a | inr b -> inr b", SUM), ETA_PLUS),
    ("eta-plus", _equation("inl x", "case inr x of inl a -> inl a | inr b -> inr b", SUM), ETA_PLUS),
    ("eta-plus", _equation("inl x", "case inl x of inl a -> inl a | inr b -> inr b"),
     "needs a sum-typed equality, got qbit"),
    # the commuting conversions, each at a goal where the x that moves across
    # a binder x would change its meaning
    ("let-tensor", _equation("(let x * b = y in b) * x", "let x * b = y in b * x", QUBITS),
     "conclusion must be `(let x * y = M in N) * P = let x * y = M in N * P`"),
    ("case-tensor", _equation("(case y of inl x -> unit | inr b -> unit) * x",
                              "case y of inl x -> unit * x | inr b -> unit * x", TTensor(TUnit(), TQbit())),
     "conclusion must be `(case M of inl x -> N | inr y -> N') * P = case M of inl x -> N * P | inr y -> N' * P`"),
    ("let-commute", _equation("let x * b = y in let c * d = y in x", "let c * d = let x * b = y in y in x"),
     "conclusion must be `let x * y = M in let z * t = N in P = let z * t = (let x * y = M in N) in P`"),
    ("let-case", _equation("let c * d = case y of inl x -> x * x | inr b -> b * b in x",
                           "case y of inl x -> let c * d = x * x in x | inr b -> let c * d = b * b in x"),
     "conclusion must be `let z * t = (case M of inl x -> N | inr y -> N') in P"
     " = case M of inl x -> let z * t = N in P | inr y -> let z * t = N' in P`"),
    ("case-commute", _equation("case y of inl x -> case x of inl c -> x | inr d -> x"
                               " | inr b -> case b of inl c -> x | inr d -> x",
                               "case (case y of inl x -> x | inr b -> b) of inl c -> x | inr d -> x"),
     "conclusion must be `case M of inl x -> (case N of inl z -> P | inr t -> Q) | inr y -> (case N' of"
     " inl z -> P | inr t -> Q) = case (case M of inl x -> N | inr y -> N') of inl z -> P | inr t -> Q`"),
    # the beta conversions: a side that is not the reduct is named when the
    # one reading that fits the other side gives it
    ("beta-tensor", _formation("0"), "conclusion is not a term equality"),
    ("beta-tensor", _equation("x", "x"), "left side must be `let x * y = M * N in P`"),
    ("beta-tensor", _equation("let a * b = x * y in b * a", "x * y", QUBITS), "right side: expected y * x, found x * y"),
    ("beta-tensor", _equation("let a * b = x * inl y in b * a", "inl y * x", QUBITS),
     "cannot infer the type of x * inl y; supply the 'ty' argument"),
    ("beta-plus-1", _equation("case inr x of inl a -> a | inr b -> b", "x"), "left side must be `case inl M of ...`"),
    ("beta-plus-1", _equation("case inl x of inl a -> a | inr b -> b", "y"), "right side: expected x, found y"),
    ("beta-plus-1", _equation("case inl x of inl a -> a | inr b -> b", "x"),
     "cannot infer the type of inl x; supply the 'ty' argument"),
    ("beta-plus-2", _equation("case inl x of inl a -> a | inr b -> b", "x"), "left side must be `case inr M of ...`"),
    ("beta-plus-2", _equation("case inr x of inl a -> a | inr b -> X b", "x"), "right side: expected X x, found x"),
    ("beta-plus-2", _equation("case inr x of inl a -> a | inr b -> X b", "X x"),
     "cannot infer the type of inr x; supply the 'ty' argument"),
    ("beta-plus-1-eff", _equation("x", "x"), "conclusion is not an inequality"),
    ("beta-plus-1-eff", _inequality("caseE inr x of inl a -> proj(a, 0) | inr b -> 0", "proj(x, 0)"),
     "conclusion must reduce `caseE (inl M)`"),
    ("beta-plus-1-eff", _inequality("caseE inl x of inl a -> proj(a, 0) | inr b -> 0", "proj(y, 0)"),
     "right side: expected proj(x, 0), found proj(y, 0)"),
    ("beta-plus-1-eff", _inequality("proj(y, 0)", "caseE inl x of inl a -> proj(a, 0) | inr b -> 0"),
     "left side: expected proj(x, 0), found proj(y, 0)"),
    # both readings fit but for the side condition
    ("beta-plus-1-eff", _inequality("caseE inl x of inl a -> proj(a, 0) | inr b -> 0",
                                    "caseE inl y of inl a -> proj(a, 0) | inr b -> 0"),
     "conclusion must reduce `caseE (inl M)`"),
    ("beta-plus-1-eff", _inequality("caseE inl x of inl a -> proj(a, 0) | inr b -> 0", "proj(x, 0)"),
     "cannot infer the type of inl x; supply the 'ty' argument"),
    ("beta-plus-2-eff", _formation("0"), "conclusion is not an inequality"),
    ("beta-plus-2-eff", _inequality("caseE inl x of inl a -> 0 | inr b -> proj(b, 1)", "proj(x, 1)"),
     "conclusion must reduce `caseE (inr M)`"),
    ("beta-plus-2-eff", _inequality("caseE inr x of inl a -> 0 | inr b -> proj(b, 1)", "proj(x, 0)"),
     "right side: expected proj(x, 1), found proj(x, 0)"),
    ("beta-plus-2-eff", _inequality("proj(x, 1)", "caseE inr x of inl a -> 0 | inr b -> proj(b, 1)"),
     "cannot infer the type of inr x; supply the 'ty' argument"),
]


@pytest.mark.parametrize("name, goal, message", FIXED_SHAPE_MESSAGES)
def test_fixed_shape_rule_mismatch_gives_its_message(name, goal, message):
    with pytest.raises(DerivationError) as exc:
        check_script(goal, ScriptNode(name), env())
    assert str(exc.value) == f"{name}: schema mismatch: {message}"


# the formation rules' messages as the type checker gives them: it picks
# the rule by the term's constructor, so only the type can mismatch
TYPE_CHECKER_MESSAGES = [
    ("unit", TQbit(), "unit value cannot have type qbit"),
    ("x * y", TQbit(), "a pair cannot have type qbit"),
    ("inl x", TQbit(), "inl cannot have type qbit"),
    ("inr x", QUBITS, "inr cannot have type qbit * qbit"),
    ("plus", TUnit(), "plus is a qubit"),
    ("X x", TUnit(), "X produces a qubit"),
    ("Z x", QUBITS, "Z produces a qubit"),
    ("E x y", TTensor(TQbit(), TUnit()), "E produces a pair of qubits"),
]


@pytest.mark.parametrize("term, ty, message", TYPE_CHECKER_MESSAGES)
def test_formation_rule_type_mismatch_gives_its_message(term, ty, message):
    with pytest.raises(QpelTypeError) as exc:
        check_term(QQ, T(term), ty, Env().resolver())
    assert str(exc.value) == message


def test_permutation_side_condition():
    it_goal = TermEq(
        Context(),
        Measure(((one(), Star()), (Zero(), Star()))),
        Measure(((Zero(), Star()), (one(), Star()))),
        TUnit(),
    )
    with pytest.raises(DerivationError, match="permutation"):
        check_script(it_goal, sc("measure-perm[perm = [1, 1]]"), env())
    check_script(it_goal, sc("measure-perm[perm = [2, 1]]"), env())


def test_angle_side_conditions_are_exact():
    goal = EffLeq(QCTX, E("proj(X x, 1/2)"), E("proj(x, 3/2)"))
    check_script(goal, sc("qbit-x-proj"), env())
    bad = EffLeq(QCTX, E("proj(X x, 1/2)"), E("proj(x, 1/2)"))
    with pytest.raises(DerivationError):
        check_script(bad, sc("qbit-x-proj"), env())


def test_qubit_involutions_at_depth_one():
    for rule, term in (("qbit-xx", T("X (X x)")), ("qbit-zz", T("Z (Z x)"))):
        goal = TermEq(QCTX, term, Var("x"), TQbit())
        d = check_script(goal, ScriptNode(rule, {}, None), env())
        assert d.rule == rule
        assert d.children[0].rule == "var"  # depth-1: single typing premise


def test_corpus_rules_used_match_roots():
    for it in all_items():
        e = Env(packs=frozenset({"core", "qubit", "beta-iso"}))
        j, _ = check_judgement(it.judgement, e.resolver(it.requires))
        d = check_script(j, it.script, e)
        assert d.rule in set(ALL_RULE_NAMES) | {"use", "both", "arith"}


def test_premise_binder_is_renamed_away_from_its_zone():
    zone = Context((("b", TQbit()), ("c", TUnit())))
    low, high = E("proj(b, 0)"), E("caseE c1 of inl b -> 0 | inr d -> bot(proj(b, 0))")
    ext = (("b", TUnit()), ("c1", TSum(TUnit(), TUnit())))
    j = p_leq("G", low, high, ext=ext).to_judgement(zone)
    # every free b is the binder's and is renamed with it
    assert j.ctx.names() == ["b", "c", "b1", "c1"]
    assert j.low == E("proj(b1, 0)")
    assert j.high == E("caseE c1 of inl b -> 0 | inr d -> bot(proj(b1, 0))")
    fwd = p_equiv("G", low, Zero(), ext=ext[:1]).to_judgement(zone)
    assert fwd == EffLeq(Context(zone.entries + (("b1", TUnit()),)), E("proj(b1, 0)"), Zero())


def test_the_second_of_two_like_named_let_binders_is_the_bodys():
    """In `let x * x = M in N` the body's x is the pair's second component,
    whether or not the context has an x of its own."""
    term = T("let x * x = plus * unit in x")
    for g in (Context(), Context((("x", TUnit()),))):
        d = check_term(g, term, TUnit(), Env().resolver())
        assert [t for _, t in d.children[1].judgement.ctx][-2:] == [TQbit(), TUnit()]
        with pytest.raises(QpelTypeError, match="expected qbit"):
            check_term(g, term, TQbit(), Env().resolver())


def test_a_premise_binds_only_over_what_the_conclusion_binds():
    """Renaming a premise binder renames it throughout the premise's terms
    and effects.  case-leq's chi lies outside the binders of its case
    effect, so written as a pattern its premises would rename chi's free
    variables of a binder's name too, and registering it raises.  As code,
    its premise at this goal keeps chi's x apart from the binder x, where a
    renaming of both would make it an instance of leq-ref."""
    with pytest.raises(ValueError, match="chi"):
        pattern_rule("case-leq-pattern", (CaseEff(M, X, PHI_, Y, PSI), CHI),
                     [p_ty("G", M, AB), p_leq("D", PHI_, CHI, ext=((X, A),)),
                      p_leq("D", PSI, CHI, ext=((Y, B),))],
                     "left side must be a case effect", zones=("G", "D"))
    assert "case-leq-pattern" not in SCHEMAS
    g = Context((("x", TQbit()), ("s", TSum(TUnit(), TUnit()))))
    goal = EffLeq(g, E("caseE s of inl x -> proj(x, 0) | inr y -> 0"), PHI)
    (instn,) = SCHEMAS["case-leq"].match(goal, {}, partial(synth_type, g))
    premise = instn.premises[1].to_judgement(split_zones(g, instn)["D"])
    assert premise.low != premise.high
    with pytest.raises(DerivationError):
        check_script(premise, ScriptNode("leq-ref"), env())


def test_a_premise_binds_each_binder_in_scope_wherever_its_syntax_occurs():
    """A metavariable under the same binder at each of its occurrences may
    name that binder, which a premise over it must then bind, or the name
    would be free there: registering such a rule raises."""
    with pytest.raises(ValueError, match="leaves n under a binder"):
        pattern_rule("let-tensor-unbound", (Pair(LetPair(X, Y, M, N), M2), LetPair(X, Y, M, Pair(N, M2)), C),
                     [p_ty("G", M, AB), p_ty("D", N, C), p_ty("T", M2, C)], "no message", TermEq,
                     zones=("G", "D", "T"))
    assert "let-tensor-unbound" not in SCHEMAS


def test_a_scrutinee_no_premise_types_is_under_no_binder():
    """A rule whose premises type the components A and B of a scrutinee but
    not the scrutinee reads it from the conclusion, under no binder: one
    under a binder would need the binder's type, and registering raises."""
    unit = TUnit()
    outer = ((X2, unit), (Y2, unit))
    with pytest.raises(ValueError, match="no premise types the scrutinee of x"):
        pattern_rule("beta-tensor-under-let", (LetPair(X2, Y2, M2, LetPair(X, Y, Pair(M, N), R_)), R2, C),
                     [p_ty("G", M2, TTensor(unit, unit)), p_ty("G", M, A, ext=outer), p_ty("G", N, B, ext=outer),
                      p_ty("G", R_, C, ext=outer + ((X, A), (Y, B)))], "no message", TermEq)
    assert "beta-tensor-under-let" not in SCHEMAS
