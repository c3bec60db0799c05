import json
import random

import pytest

from qpel.parser import (
    GEff,
    GEquiv,
    GLeq,
    GTermEq,
    GTyping,
    QpelSyntaxError,
    TermDecl,
    file_alpha_eq,
    parse,
    parse_effect_text,
    parse_term_text,
    pretty,
    print_script,
    script_from_json,
    script_to_json,
)
from qpel.printer import print_effect, print_term
from qpel.randgen import raw_effect, raw_term
from qpel.syntax import (
    Case,
    CZ,
    Inl,
    LetPair,
    Measure,
    Orth,
    OSum,
    PauliX,
    ProjPlus,
    ScalarLit,
    SMul,
    Star,
    TQbit,
    TTensor,
    TUnit,
    Var,
    Zero,
    one,
)


def test_term_declaration():
    f = parse("term id (x : I) : I = x")
    (d,) = f.decls
    assert isinstance(d, TermDecl)
    assert d.ctx.entries == (("x", TUnit()),)
    assert d.term == Var("x") and d.ty == TUnit()


def test_effect_top_is_orth_zero():
    f = parse("effect top (x : I) = bot(0)")
    (d,) = f.decls
    assert d.eff == one() == Orth(Zero())


def test_single_branch_measure():
    f = parse("term m () : I = measure { bot(0) -> unit }")
    (d,) = f.decls
    assert d.term == Measure(((one(), Star()),))


def test_surface_forms():
    t = parse_term_text("let x * y = p in case x of inl a -> a * y | inr b -> b * y")
    assert isinstance(t, LetPair) and isinstance(t.body, Case)
    assert parse_term_text("E X a b") == CZ(PauliX(Var("a")), Var("b"))
    assert parse_term_text("inl X a") == Inl(PauliX(Var("a")))
    e = parse_effect_text("1/2 . proj(x, 3/2) o+ 0")
    assert e == OSum(SMul(ScalarLit(__import__("fractions").Fraction(1, 2)),
                          ProjPlus(Var("x"), __import__("fractions").Fraction(3, 2))), Zero())


def test_nonassociative_sum_requires_parens():
    with pytest.raises(QpelSyntaxError):
        parse_effect_text("0 o+ 0 o+ 0")
    parse_effect_text("(0 o+ 0) o+ 0")


def test_parse_errors_have_positions():
    with pytest.raises(QpelSyntaxError) as exc:
        parse("term bad (x : I) : I = let x y")
    assert exc.value.line == 1 and exc.value.col > 0
    assert exc.value.expected
    # input that ends inside a comment ends after the comment, not at its start
    with pytest.raises(QpelSyntaxError) as exc:
        parse("lemma l (x : I) : x = x : I by { ref -- the proof")
    assert (exc.value.line, exc.value.col) == (1, 50)


@pytest.mark.parametrize("text, col", [
    ("effect e () = ²/4", 15),  # superscript two, which `int` rejects
    ("effect e () = 1²", 16),
    ("effect e () = ٣/4", 15),  # Arabic-Indic three, which `int` reads as 3
])
def test_numeric_literals_take_only_ascii_digits(text, col):
    with pytest.raises(QpelSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == f"unexpected character {text[col - 1]!r} at 1:{col}"


def test_type_alias_and_inlining():
    f = parse(
        """
        type Q2 = qbit * qbit
        term mk () : Q2 = E plus plus
        effect half () = 1/2
        term coin () : I + I = measure { half -> inl unit | half -> inr unit }
        """
    )
    mk = f.decls[1]
    assert mk.ty == TTensor(TQbit(), TQbit())
    coin = f.decls[3]
    assert coin.term.branches[0][0] == ScalarLit(__import__("fractions").Fraction(1, 2))


def test_duplicate_names_rejected():
    from qpel.parser import ElabError

    with pytest.raises(ElabError):
        parse("term a () : I = unit\nterm a () : I = unit")


def test_open_declaration_not_referencable():
    from qpel.parser import ElabError

    with pytest.raises(ElabError):
        parse(
            "effect probe (x : qbit) = proj(x, 0)\n"
            "lemma l (x : qbit) : probe <= probe by { leq-ref }"
        )


def test_goal_forms():
    f = parse(
        """
        lemma t1 (x : I) : x : I
        lemma t2 (x : I) : x = unit : I by { eta-unit }
        lemma t3 (x : qbit) : proj(x, 0) <= bot(0) by { auto }
        lemma t4 (x : qbit) : proj(x, 0) == proj(x, 0) by { leq-ref }
        lemma t5 (x : qbit) : proj(x, 0) _|_ bot(proj(x, 0)) by { auto }
        lemma t6 (x : qbit) : proj(x, 0) eff
        """
    )
    from qpel.parser import GPerp

    kinds = [type(d.goal) for d in f.decls]
    assert kinds == [GTyping, GTermEq, GLeq, GEquiv, GPerp, GEff]
    # equivalence goal expands into the two inequalities
    js = f.decls[3].judgements()
    assert len(js) == 2 and js[0].low == js[1].high
    # the perp goal expands to one inequality against the orthosupplement
    (jp,) = f.decls[4].judgements()
    assert isinstance(jp.high, Orth)


def test_roundtrip_corpus_files():
    import pathlib

    for p in sorted(pathlib.Path("corpus").glob("*.qpel")):
        f = parse(p.read_text())
        assert file_alpha_eq(f, parse(pretty(f))), p


def test_roundtrip_random_terms():
    rng = random.Random(9)
    for _ in range(400):
        t = raw_term(rng, 3)
        assert parse_term_text(print_term(t)) == t


def test_roundtrip_random_effects():
    rng = random.Random(10)
    for _ in range(400):
        e = raw_effect(rng, 3)
        assert parse_effect_text(print_effect(e)) == e


def test_grammar_coverage():
    """Every constructor of the abstract syntax is reachable from the surface."""
    reached = set()
    rng = random.Random(11)
    for _ in range(3000):
        t = raw_term(rng, 4)
        reparsed = parse_term_text(print_term(t))
        stack = [reparsed]
        while stack:
            node = stack.pop()
            reached.add(type(node).__name__)
            for fname in getattr(node, "__dataclass_fields__", {}):
                v = getattr(node, fname)
                if hasattr(v, "__dataclass_fields__"):
                    stack.append(v)
                elif isinstance(v, tuple):
                    for x in v:
                        if isinstance(x, tuple):
                            stack.extend(y for y in x if hasattr(y, "__dataclass_fields__"))
                        elif hasattr(x, "__dataclass_fields__"):
                            stack.append(x)
    expected = {
        "Var", "Pair", "LetPair", "Star", "Inl", "Inr", "Case", "Measure",
        "NewPlus", "PauliX", "PauliZ", "CZ", "Zero", "OSum", "Orth", "SMul",
        "CaseEff", "ScalarLit", "ProjPlus",
    }
    assert expected <= reached


def test_script_json_roundtrip():
    scripts = [
        "measure-1",
        "trans[via = x * y](measure-1; ref)",
        "leq-trans[via = bot(0)](leq-ref; leq-ovee(auto))",
        "measure-perm[perm = [2, 1]]",
        "both(bot-bot; ortho-1(ortho-2))",
        "use(some-lemma)",
        "arith",
        "auto(4)",
        "beta-plus-1[ty = I + I]",
    ]
    from qpel.corpus import sc

    for text in scripts:
        s = sc(text)
        doc = script_to_json(s)
        json.dumps(doc)  # serialisable
        back = script_from_json(doc)
        assert print_script(back) == print_script(s)


def test_unknown_rule_name_is_parse_error():
    with pytest.raises(QpelSyntaxError):
        parse("lemma l (x : I) : x = x : I by { frobnicate }")
    with pytest.raises(QpelSyntaxError):
        script_from_json({"rule": "frobnicate"})


def test_let_chain_walks_each_node_once_for_bound_names(monkeypatch):
    """`let x = M in N` picks its fresh `_u` avoiding the names bound in N;
    in a chain of lets no body may be walked again for each enclosing let."""
    from collections import Counter

    from qpel import syntax

    original = syntax.bound_names
    stack, walks, nodes = [], Counter(), {}

    def traced(s):
        # a call walks its node when it asks for the bound names of a child
        if stack:
            stack[-1][1] = True
        frame = [s, False]
        stack.append(frame)
        try:
            return original(s)
        finally:
            stack.pop()
            if frame[1]:
                walks[id(s)] += 1
                nodes[id(s)] = s  # keeps ids unique

    monkeypatch.setattr(syntax, "bound_names", traced)
    lets = ["  let q1 = plus in\n"] + [f"  let q{i + 1} = X q{i} in\n" for i in range(1, 120)]
    parse("term t () : qbit =\n" + "".join(lets) + "  q120\n")
    assert len(walks) > 120 and max(walks.values()) == 1
