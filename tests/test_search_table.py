"""The tabled search finds exactly what an untabled one finds.

`auto_search_leq` answers repeated subgoals, and `_unscripted` repeated
formation premises, from the table of the lemma environment, kept across the
searches of a file until a lemma proving an inequality is added.  These
tests pin down what that must not change: every top-level search result
over the corpus and the refutable corpus converses (a golden digest taken
before tabling), the answer behind every table hit, and the two facts the
table relies on, that failure is monotone in depth and that goals are
keyed by value rather than by hash.  The last tests pin the index of the search rules by goal head,
which must skip only schema misses, what it saves, the heads and instances
of the rules written as patterns, the node budget that ends a search too
deep to finish and that its nested searches charge, the table's
invalidation, which only an inequality lemma causes and which leaves every
corpus derivation as it was, the lemma index, and the formation failures.
"""
import hashlib
import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import NamedTuple

import pytest

from qpel import derivation, driver, typecheck
from qpel.backends import BACKEND_NAMES, make_backend
from qpel.corpus import all_items
from qpel.derivation import (
    SEARCH_BUDGET,
    SEARCH_RULES,
    Env,
    SearchBudgetExhausted,
    SearchFailed,
    SearchTable,
    auto_search_leq,
)
from qpel.driver import EXIT_PROOF, process_file
from qpel.interpreter import assume_checked, backend_applicable, judgement_true
from qpel.parser import AutoNode, GLeq, LemmaDecl, SourceFile, parse, parse_effect_text
from qpel.randgen import ANGLES, NAMES, raw_effect, raw_term, raw_type
from qpel.rules import DEFAULT_PACKS, EFFECTS, SCHEMAS, RuleMismatch
from qpel.syntax import (
    Ascribe,
    CZ,
    Case,
    CaseEff,
    Context,
    EffForm,
    EffLeq,
    Effect,
    Inl,
    Inr,
    LetPair,
    NewPlus,
    Orth,
    OSum,
    Pair,
    PauliX,
    PauliZ,
    ProjPlus,
    ScalarLit,
    SMul,
    Star,
    Syntax,
    TermEq,
    TQbit,
    TSum,
    TTensor,
    TUnit,
    Typing,
    Var,
    Zero,
    erase_ascriptions,
    free_vars,
    fresh,
    nameless,
    one,
    subst,
    subst_many,
)
from qpel.typecheck import (
    ObligationError,
    QpelTypeError,
    check_effect,
    show_judgement,
    split_zones,
    synth_type,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FILE_PACKS = {"beta_iso.qpel": DEFAULT_PACKS | {"beta-iso"}}
REFUTE_DEPTH = 4

# sha256 of the newline-joined records of `_golden_records`, and their count,
# taken from the untabled search
GOLDEN_SHA256 = "51da7b65c848f24f99c7136dfd25be87246162aea5121a64dc86e244f29ad5f0"
GOLDEN_COUNT = 260


def _parse(name):
    return parse((CORPUS / name).read_text(encoding="utf-8"))


def _corpus_files():
    return sorted(p.name for p in CORPUS.glob("*.qpel"))


def _refute_goals():
    """Converses of the corpus inequality lemmas that some backend judges
    false, in file and declaration order."""
    backends = [make_backend(name) for name in BACKEND_NAMES]
    out = []
    for name in _corpus_files():
        for decl in _parse(name).decls:
            if not (isinstance(decl, LemmaDecl) and isinstance(decl.goal, GLeq)):
                continue
            converse = EffLeq(decl.ctx, decl.goal.high, decl.goal.low)
            ds = assume_checked(converse)
            if any(backend_applicable(b, converse, ds) and not judgement_true(b, converse, ds)
                   for b in backends):
                out.append((decl, converse))
    return out


def _record_searches(monkeypatch):
    """Route every search through a recorder; returns the list it appends
    `repr(derivation)` or `FAIL <goal>` to for each top-level one.  Searches
    started inside another (typing premises' obligations) are not recorded:
    tabling may legitimately run fewer of them."""
    records = []
    search = derivation.auto_search_leq
    active = [0]

    def recording(goal, depth, env):
        active[0] += 1
        try:
            d = search(goal, depth, env)
        except SearchFailed:
            if active[0] == 1:
                records.append(f"FAIL {goal!r}")
            raise
        finally:
            active[0] -= 1
        if active[0] == 0:
            records.append(repr(d))
        return d

    monkeypatch.setattr(derivation, "auto_search_leq", recording)
    return records


def _check_file(name):
    return process_file(_parse(name), path=name, packs=FILE_PACKS.get(name, DEFAULT_PACKS))


def _refute_decl(decl, depth=REFUTE_DEPTH):
    """The converse of lemma decl, to be proved by auto(depth)."""
    return replace(decl, name="refute-" + decl.name, goal=GLeq(decl.goal.high, decl.goal.low),
                   script=AutoNode(depth), requires=())


def _refute_file():
    return SourceFile(tuple(_refute_decl(decl) for decl, _ in _refute_goals()))


def _check_refute_file():
    return process_file(_refute_file(), packs=DEFAULT_PACKS)


def _golden_records(monkeypatch):
    records = _record_searches(monkeypatch)
    for name in _corpus_files():
        _check_file(name)
    _check_refute_file()
    return records


def test_search_results_match_the_untabled_golden(monkeypatch):
    records = _golden_records(monkeypatch)
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert (len(records), digest) == (GOLDEN_COUNT, GOLDEN_SHA256)


def test_search_formats_only_the_failures_it_reports(monkeypatch):
    """A search discards thousands of failed premises; their messages must be
    formatted only when read.  Checking the refutable converses shows 25
    judgements: the 23 reported failures, and 2 obligations of typing
    premises inside the search, which `ObligationError` formats as raised
    (once each: the lemma environment's table answers the repeats)."""
    shown = []

    def counting(j):
        shown.append(j)
        return show_judgement(j)

    monkeypatch.setattr(typecheck, "show_judgement", counting)
    monkeypatch.setattr(derivation, "show_judgement", counting)
    report = _check_refute_file()
    assert [d.status for d in report.decls] == ["proof-error"] * 23
    assert len(shown) == 25


def test_search_tries_only_the_rules_the_goal_heads_admit(monkeypatch):
    """Checking the refutable converses calls `Schema.match` 6,789 times,
    for the type checker's formation rules and the search's inequality rules
    together, with one table for the file's lemma environment.  Tried at
    every node whatever the goal, the 31 search rules took 75,821 calls,
    nearly nine in ten of them misses, and 13,344 with a table per search
    call.  The converses are chosen before counting: the checker's calls
    are counted, not those of the backends that pick the goals."""
    refute = _refute_file()
    calls = []
    for name, schema in list(SCHEMAS.items()):
        def counting(goal, args, synth, match=schema.match):
            calls.append(goal)
            return match(goal, args, synth)

        monkeypatch.setitem(SCHEMAS, name, replace(schema, match=counting))
    report = process_file(refute, packs=DEFAULT_PACKS)
    assert [d.status for d in report.decls] == ["proof-error"] * 23
    assert len(calls) == 6789


def _heads(goal):
    return type(goal.low), type(goal.high)


def test_rule_heads_exclude_only_goals_the_schema_misses(monkeypatch):
    """The search skips a rule at a goal whose (low, high) classes the rule's
    declared heads exclude.  That loses no proof only if the schema misses
    every such goal.  Checked at each goal the search expands while the
    golden's inputs are checked, at seeded random pairs of effects of every
    class, each effect also paired with itself, and at the inequalities of
    the rule-instance corpus, their mutants and the converses of both, which
    instantiate each rule in each of its readings."""
    assert all(SCHEMAS[name].heads for name in SEARCH_RULES if name != "arith")
    goals = _goal_pool(monkeypatch)
    matched = []
    for goal in goals:
        synth = partial(synth_type, goal.ctx)
        for name in SEARCH_RULES:
            schema = SCHEMAS.get(name)
            if schema is None or schema.admits(*_heads(goal)):
                continue
            try:
                schema.match(goal, {}, synth)
            except RuleMismatch:
                continue
            matched.append((name, show_judgement(goal)))
    assert matched == []


def _goal_pool(monkeypatch):
    """Each goal the search expands while the golden's inputs are checked,
    seeded random pairs of effects of every class, each effect also paired
    with itself, and the inequalities of the rule-instance corpus, their
    mutants and the converses of both.  Each search call, nested ones
    included, runs on a fresh table, so the goals expanded are those of a
    table per call, which the instance golden was taken with."""
    goals = set()
    search, search_rules = derivation.auto_search_leq, derivation._search_rules

    def fresh(goal, depth, env):
        table, env.search = env.search, SearchTable()
        try:
            return search(goal, depth, env)
        finally:
            env.search = table

    def recording(goal, depth, env, table):
        goals.add(goal)
        return search_rules(goal, depth, env, table)

    monkeypatch.setattr(derivation, "auto_search_leq", fresh)
    monkeypatch.setattr(derivation, "_search_rules", recording)
    _golden_records(monkeypatch)
    assert len({_heads(goal) for goal in goals}) > 20

    rng = random.Random(10)
    pool = {cls: [] for cls in EFFECTS}
    while min(map(len, pool.values())) < 6:
        e = raw_effect(rng, 2)
        if len(pool[type(e)]) < 6:
            pool[type(e)].append(e)
    effects = [e for es in pool.values() for e in es]
    for lo in effects:
        for hi in effects:
            goals.add(EffLeq(Context(), lo, hi))
    for item in all_items():
        for j in (item.judgement, item.mutant):
            if isinstance(j, EffLeq):
                goals.update((j, EffLeq(j.ctx, j.high, j.low)))
    return goals


# the inequality rules written as patterns, and the (low, high) head classes
# of their conclusions in each reading
PATTERN_HEADS = {
    "zero-leq": ((Zero, Effect),),
    "bot-antitone": ((Orth, Orth),),
    "bot-bot": ((Effect, Orth),),
    "leq-ovee": ((Effect, OSum),),
    "ovee-mono": ((OSum, OSum),),
    "ovee-comm": ((OSum, OSum),),
    "perp-rotate": ((OSum, Orth),),
    "ovee-assoc": ((OSum, OSum),),
    "ovee-0": ((OSum, Effect),),
    "ortho-1": ((Orth, Effect),),
    "ortho-2": ((Orth, OSum),),
    "dist-l": ((SMul, Orth), (SMul, OSum), (OSum, SMul)),
    "dist-r": ((SMul, Orth), (SMul, OSum), (OSum, SMul)),
    "unit-l": ((SMul, Effect), (Effect, SMul)),
    "unit-r": ((SMul, Effect), (Effect, SMul)),
    "assoc": ((SMul, SMul),),
    "comm": ((SMul, SMul),),
    "case-cong": ((CaseEff, CaseEff),),
    "case-ovee": ((CaseEff, OSum), (OSum, CaseEff)),
    "case-bot": ((CaseEff, Orth), (Orth, CaseEff)),
    "case-times": ((CaseEff, SMul), (SMul, CaseEff)),
    # a metavariable on both sides: alpha-equal sides, of one class
    "leq-ref": ((Zero, Zero), (OSum, OSum), (Orth, Orth), (SMul, SMul), (CaseEff, CaseEff),
                (ScalarLit, ScalarLit), (ProjPlus, ProjPlus)),
    "qbit-x-proj": ((ProjPlus, ProjPlus),),
    "qbit-z-proj": ((ProjPlus, ProjPlus),),
    "qbit-xz-zx": ((ProjPlus, ProjPlus),),
}
# the rules above that push an effect operation through `caseE`
CASE_RULES = ("case-cong", "case-ovee", "case-bot", "case-times")
# the fixed-shape rules of every judgement form that became patterns after
# the inequality rules above, the last four of which are among them
FIXED_SHAPE_RULES = (
    "unit", "tensor", "inl", "inr", "ref", "sym", "tensor-eq", "inl-eq", "inr-eq",
    "eff-0", "eff-bot", "eff-ovee", "eff-mult", "leq-ref", "qbit-new", "qbit-x", "qbit-z",
    "qbit-cz", "qbit-proj", "qbit-cz-x", "qbit-cz-z", "qbit-x-proj", "qbit-z-proj",
    "qbit-xx", "qbit-zz", "qbit-xz-zx",
)
FIRST_ORDER_RULES = tuple(name for name in PATTERN_HEADS if name not in CASE_RULES + FIXED_SHAPE_RULES)

# sha256 of the newline-joined records of `_instance_records`, and their
# count, taken from the hand-written matchers these rules had before they
# became patterns
INSTANCE_SHA256 = "3951954693867b573083ecec776c45e497ab6162b2327de1bde0fae0ef69da8a"
INSTANCE_COUNT = 55403
# the same for the case rules, with mismatch messages, over more goals;
# taken again when the pattern engine came to refuse the case-times goals
# whose scalar names a branch binder, which the checker refused at the
# closed premise or at the scrutinee's type before, and when the messages
# came to print syntax rather than Python reprs
CASE_INSTANCE_SHA256 = "5f2177fefb2d321be71ecc470580cd66350c202a3abb701f17cfa765d0aa3860"
CASE_INSTANCE_COUNT = 13980


def test_pattern_rule_heads_are_those_of_their_conclusions():
    assert {name: SCHEMAS[name].heads for name in PATTERN_HEADS} == PATTERN_HEADS
    assert sum(map(len, PATTERN_HEADS.values())) == 40


def _case_eff(angle, tag):
    """A case effect on z whose binders are named after tag: effects of one
    angle and different tags are alpha-variants."""
    x, y = "x" + tag, "y" + tag
    return CaseEff(Var("z"), x, ProjPlus(Var(x), angle), y, ProjPlus(Var(y), angle))


def _alpha_variant_goals():
    """An instance of each reading of each first-order rule, and the
    converses, in which the effects that one metavariable stands for are
    alpha-variants with different binder names."""
    c, d, e = (partial(_case_eff, Fraction(a, 2)) for a in range(3))
    top = one()
    pairs = [
        (OSum(c(""), Zero()), c("'")),
        (c(""), Orth(Orth(c("'")))),
        (c(""), OSum(c("'"), d(""))),
        (OSum(c(""), d("")), OSum(e(""), d("'"))),
        (OSum(c(""), d("")), OSum(d("'"), c("'"))),
        (OSum(c(""), OSum(d(""), e(""))), OSum(OSum(c("'"), d("'")), e("'"))),
        (top, OSum(c(""), Orth(c("'")))),
        (SMul(c(""), e("")), Orth(SMul(d(""), e("'")))),
        (SMul(OSum(c(""), d("")), e("")), OSum(SMul(c("'"), e("'")), SMul(d("'"), e("''")))),
        (SMul(c(""), d("")), Orth(SMul(c("'"), e("")))),
        (SMul(c(""), OSum(d(""), e(""))), OSum(SMul(c("'"), d("'")), SMul(c("''"), e("'")))),
        (SMul(top, c("")), c("'")),
        (SMul(c(""), top), c("'")),
        (SMul(c(""), SMul(d(""), e(""))), SMul(SMul(c("'"), d("'")), e("'"))),
        (SMul(c(""), d("")), SMul(d("'"), c("'"))),
    ]
    g = Context((("z", TSum(TQbit(), TQbit())),))
    return [EffLeq(g, lo, hi) for a, b in pairs for lo, hi in ((a, b), (b, a))]


def _instance_records(names, cases, texts=False):
    """For each rule of names and each (goal, args) case: MISMATCH, with
    texts followed by the mismatch's message, or for each instance in order,
    each premise's zone, kind, the nameless keys of its syntax, its types and
    its ext, then the conclusion zones and fixed entries."""
    records = []
    keys = [_goal_key(goal) + (f" {args!r}" if args else "") for goal, args in cases]
    for name in names:
        for (goal, args), key in zip(cases, keys):
            try:
                instns = SCHEMAS[name].match(goal, args, partial(synth_type, goal.ctx))
            except RuleMismatch as e:
                records.append(f"{name} {key} MISMATCH" + (f" {e}" if texts else ""))
                continue
            shown = [([(p.zone, p.shape[0], [nameless(s) if isinstance(s, Syntax) else s
                                              for s in p.shape[1:]], p.ext)
                       for p in i.premises], i.zones, i.fixed) for i in instns]
            records.append(f"{name} {key} {shown!r}")
    return records


def _goal_key(goal):
    """The goal's context entries, and the nameless key of each syntax field
    after it, or the field itself (a type)."""
    parts = [getattr(goal, f.name) for f in fields(goal)[1:]]
    return repr((goal.ctx.entries, *[nameless(p) if isinstance(p, Syntax) else p for p in parts]))


def test_pattern_rule_instances_match_the_golden(monkeypatch):
    """Each first-order rule gives the instances its hand-written matcher
    gave, reading for reading, with the same premises in the same order and
    zones, at every goal of the head test's pool and at goals whose repeated
    metavariables stand for alpha-variants."""
    goals = sorted(_goal_pool(monkeypatch), key=_goal_key) + _alpha_variant_goals()
    records = _instance_records(FIRST_ORDER_RULES, [(goal, {}) for goal in goals])
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert (len(records), digest) == (INSTANCE_COUNT, INSTANCE_SHA256)


def _case_rule_cases():
    """Goals of the case rules that the head test's pool lacks, each read
    both ways: sides whose binders differ, bodies naming a binder that one
    side binds and the other leaves free, branch scalars that differ or name
    a branch binder, scrutinees that do not synthesise or have no sum type,
    `ty` arguments of a sum and of no sum type, and the case-ovee goal whose
    binder clashes with a context name."""
    base = [
        ("caseE z of inl a -> proj(a, 0) | inr b -> 0", "caseE z of inl c -> proj(c, 0) | inr d -> 0"),
        ("caseE z of inl a -> proj(a, 0) | inr b -> 0", "caseE z of inl x -> proj(a, 0) | inr b -> 0"),
        ("caseE z of inl a -> proj(x, 0) | inr b -> 0", "caseE z of inl x -> proj(x, 0) | inr b -> 0"),
        ("caseE z of inl a -> proj(a, 0) | inr b -> 0", "caseE w of inl a -> proj(a, 0) | inr b -> 0"),
        ("caseE z of inl a -> proj(a, 0) o+ bot(proj(a, 0)) | inr b -> 0 o+ bot(0)",
         "(caseE z of inl c -> proj(c, 0) | inr d -> 0) o+ (caseE z of inl e -> bot(proj(e, 0)) | inr f -> bot(0))"),
        ("caseE z of inl a -> proj(x, 0) o+ 0 | inr b -> 0 o+ 0",
         "(caseE z of inl x -> proj(x, 0) | inr b -> 0) o+ (caseE z of inl a -> 0 | inr b -> 0)"),
        ("caseE z of inl a -> proj(a, 0) o+ 0 | inr b -> 0 o+ 0",
         "(caseE z of inl a -> proj(a, 0) | inr b -> 0) o+ (caseE w of inl a -> 0 | inr b -> 0)"),
        ("caseE z of inl a -> bot(proj(a, 0)) | inr b -> bot(0)", "bot(caseE z of inl c -> proj(c, 0) | inr d -> 0)"),
        ("caseE z of inl a -> bot(proj(x, 0)) | inr b -> bot(0)", "bot(caseE z of inl x -> proj(x, 0) | inr d -> 0)"),
        ("caseE z of inl a -> 1/2 . proj(a, 0) | inr b -> 1/2 . 0",
         "1/2 . (caseE z of inl c -> proj(c, 0) | inr d -> 0)"),
        ("caseE z of inl a -> 1/2 . proj(a, 0) | inr b -> 1/3 . 0",
         "1/2 . (caseE z of inl c -> proj(c, 0) | inr d -> 0)"),
        ("caseE z of inl a -> 1/3 . proj(a, 0) | inr b -> 1/3 . 0",
         "1/2 . (caseE z of inl c -> proj(c, 0) | inr d -> 0)"),
        ("caseE z of inl a -> proj(a, 0) . proj(a, 0) | inr b -> proj(a, 0) . 0",
         "proj(a, 0) . (caseE z of inl a -> proj(a, 0) | inr b -> 0)"),
    ]
    # v is unbound and x is a qubit: the scrutinee's type cannot be read
    sides = base + [(lo.replace("caseE z", f"caseE {m}"), hi.replace("caseE z", f"caseE {m}"))
                    for m in ("v", "x") for lo, hi in base]
    qbit, unit = TQbit(), TUnit()
    g = Context((("z", TSum(qbit, qbit)), ("w", TSum(qbit, qbit)), ("x", qbit), ("a", qbit)))
    cases = []
    for lo, hi in sides:
        for args in ({}, {"ty": TSum(unit, qbit)}, {"ty": unit}):
            cases += [(EffLeq(g, parse_effect_text(lo), parse_effect_text(hi)), args),
                      (EffLeq(g, parse_effect_text(hi), parse_effect_text(lo)), args)]
    # the lemma of `test_cli.CLASHING_BINDER`: case-ovee's premise binds b
    clash = Context((("b", qbit), ("s", TSum(unit, unit))))
    lo = parse_effect_text("(caseE s of inl a -> proj(b, 0) | inr b -> 0) o+ (caseE s of inl a -> 0 | inr b -> 0)")
    hi = parse_effect_text("caseE s of inl a -> proj(b, 0) o+ 0 | inr b -> 0 o+ 0")
    return cases + [(EffLeq(clash, lo, hi), {}), (EffLeq(clash, hi, lo), {})]


def test_case_rule_instances_match_the_golden(monkeypatch):
    """Each case rule gives the instances, or the mismatch message, that its
    hand-written matcher gave: reading for reading, with the same premises,
    zones and ext binder names, and the same message at the same point when
    the scrutinee's type cannot be read."""
    goals = sorted(_goal_pool(monkeypatch), key=_goal_key) + _alpha_variant_goals()
    cases = [(goal, {}) for goal in goals] + _case_rule_cases()
    records = _instance_records(CASE_RULES, cases, texts=True)
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert (len(records), digest) == (CASE_INSTANCE_COUNT, CASE_INSTANCE_SHA256)


# the sha256 and count of the `_instance_records`, with MISMATCH verdicts,
# of the fixed-shape rules, taken from their hand-written matchers
FIXED_SHAPE_SHA256 = "9b4ad90fb66e331c8046e0849102e9957b8f1eaebbe9349e5278b2060c3891c4"
FIXED_SHAPE_COUNT = 362414


def _corpus_match_goals(monkeypatch):
    """Every goal a schema is matched against while the corpus files are
    checked, and the judgements and mutants of the rule-instance corpus with
    their ascriptions erased, as the checker erases them before any rule
    sees them."""
    goals = set()
    with monkeypatch.context() as mp:
        for name, schema in list(SCHEMAS.items()):
            def recording(goal, args, synth, match=schema.match):
                goals.add(goal)
                return match(goal, args, synth)

            mp.setitem(SCHEMAS, name, replace(schema, match=recording))
        for name in _corpus_files():
            _check_file(name)
    for item in all_items():
        goals.update(map(_erased, (item.judgement, item.mutant)))
    return goals


def _erased(j):
    return type(j)(j.ctx, *[erase_ascriptions(p) if isinstance(p, Syntax) else p
                            for p in (getattr(j, f.name) for f in fields(j)[1:])])


def _random_goals(rng, count):
    """`count` seeded random goals of each judgement form: arbitrary trees,
    and near-instances of the fixed-shape rules, whose parts agree or not
    with what the rule relates, their binder names drawn from two so that
    they shadow, and their angles related or not."""
    g = Context(tuple((n, raw_type(rng, 1)) for n in NAMES))
    term = partial(raw_term, rng, 2)
    pick = rng.choice

    def ty():
        return pick([raw_type(rng, 2), TQbit(), TTensor(TQbit(), TQbit()), TTensor(TQbit(), TUnit())])

    def same_or(m):
        return m if rng.random() < 0.7 else term()

    def var():
        return Var(pick("xy"))

    def typing():
        m, n = term(), term()
        return pick([Star(), NewPlus(), Pair(m, n), Inl(m), Inr(m), PauliX(m), PauliZ(m), CZ(m, n), m])

    def equation():
        m, n = pick([term(), var()]), term()
        x, y = pick("xy"), pick("xy")
        # the let's binders, or two names drawn afresh
        a, b = (Var(x), Var(y)) if rng.random() < 0.5 else (var(), var())
        return pick([
            (m, same_or(m)),
            (Pair(m, n), Pair(same_or(m), same_or(n))),
            (Inl(m), pick([Inl(same_or(m)), Inr(m)])),
            (Inr(m), pick([Inr(same_or(m)), Inl(m)])),
            (CZ(PauliX(m), n), LetPair(x, y, CZ(same_or(m), same_or(n)), Pair(PauliX(a), PauliZ(b)))),
            (CZ(PauliZ(m), n), LetPair(x, y, CZ(same_or(m), same_or(n)), Pair(PauliZ(a), b))),
            (CZ(pick([PauliX, PauliZ])(m), n), LetPair(x, y, CZ(m, n), Pair(pick([PauliX, PauliZ])(a), b))),
            (PauliX(PauliX(m)), same_or(m)),
            (PauliZ(PauliZ(m)), same_or(m)),
            (pick([PauliX, PauliZ])(pick([PauliX, PauliZ])(m)), m),
        ])

    def inequality():
        m = term()
        p, q = pick(PROJ_ANGLES), pick(PROJ_ANGLES)
        gate = partial(pick, [PauliX, PauliZ])
        phi = raw_effect(rng, 2)
        return pick([
            (phi, raw_effect(rng, 2)),
            (phi, phi),
            (ProjPlus(gate()(m), p), ProjPlus(same_or(m), pick([q, (-p) % 2, (p - 1) % 2]))),
            (ProjPlus(gate()(gate()(m)), p), ProjPlus(gate()(gate()(same_or(m))), pick([p, q]))),
        ])

    goals = []
    for _ in range(count):
        goals.append(Typing(g, typing(), ty()))
        lhs, rhs = equation()
        goals += [TermEq(g, lhs, rhs, ty()), TermEq(g, rhs, lhs, ty())]
        goals.append(EffForm(g, raw_effect(rng, 2)))
        lo, hi = inequality()
        goals += [EffLeq(g, lo, hi), EffLeq(g, hi, lo)]
    return goals


# projection angles: those of `randgen` and their images under the maps
# qbit-x-proj and qbit-z-proj relate
PROJ_ANGLES = sorted({a for q in ANGLES for a in (q, (-q) % 2, (q - 1) % 2)})


def test_fixed_shape_rule_instances_match_the_golden(monkeypatch):
    """Each fixed-shape rule gives the instances, or the mismatch, that its
    hand-written matcher gave: reading for reading, with the same premises,
    zones and ext, at every goal a schema meets while the corpus is checked,
    at the rule-instance corpus and its mutants, and at 2,000 to 4,000
    random goals of each judgement form."""
    goals = sorted(_corpus_match_goals(monkeypatch), key=_goal_key)
    goals += _random_goals(random.Random(11), 2000)
    records = _instance_records(FIXED_SHAPE_RULES, [(goal, {}) for goal in goals])
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert (len(records), digest) == (FIXED_SHAPE_COUNT, FIXED_SHAPE_SHA256)


# the rules whose premises bind the binders of their conclusion, and the eta
# rules, and the sha256 and count of their `_premise_records`, taken from
# their hand-written matchers
BINDER_RULES = ("let", "case", "eff-case", "eta-tensor", "eta-unit", "eta-plus")
BINDER_SHA256 = "b94118e05893b232ffaee443620c9a7591134cd245b4c1371a0db02c23cfdbc7"
BINDER_COUNT = 137634


def _judgement_key(j):
    """j up to the names in its context, as `test_typecheck_golden` keys it:
    the entries' types and the nameless key of each field over the names."""
    names = tuple(j.ctx.names())
    parts = [getattr(j, f.name) for f in fields(j)[1:]]
    return (type(j).__name__, tuple(repr(t) for _, t in j.ctx),
            *[nameless(p, names) if isinstance(p, Syntax) else repr(p) for p in parts])


def _premise_records(names, cases, typed=("ty",)):
    """For each rule of names and each (goal, args) case: MISMATCH, or for
    each instance in order, the `split_zones` error or each premise's zone,
    that zone's context and the premise judgement over it up to the names
    of its binders, then the conclusion zones and fixed entries.  With every
    type argument of `typed` given the rule gets no synthesis, as in the
    type checker."""
    records = []
    keys = [_goal_key(goal) + (f" {args!r}" if args else "") for goal, args in cases]
    for name in names:
        for (goal, args), key in zip(cases, keys):
            synth = None if all(k in args for k in typed) else partial(synth_type, goal.ctx)
            try:
                instns = SCHEMAS[name].match(goal, args, synth)
            except RuleMismatch:
                records.append(f"{name} {key} MISMATCH")
                continue
            shown = []
            for i in instns:
                try:
                    zones = split_zones(goal.ctx, i)
                except QpelTypeError as e:
                    shown.append(f"SPLIT {e}")
                    continue
                shown.append(([(p.zone, zones[p.zone].entries, _judgement_key(p.to_judgement(zones[p.zone])))
                               for p in i.premises], i.zones, i.fixed))
            records.append(f"{name} {key} {shown!r}")
    return records


def _binder_goals(rng, count):
    """`count` seeded goals of each kind these rules relate: let and case
    typings, caseE formations and both sides of near-instances of the eta
    equations, each with no `ty` argument and with one of a tensor, of a sum
    and of neither.  Their scrutinees are context variables, ascribed or
    not, random terms or an unbound name, their binders reuse the names of
    the context or not, and their bodies use the binders and the context."""
    qbit, unit = TQbit(), TUnit()
    pick = rng.choice
    types = [TSum(qbit, unit), TSum(unit, unit), TTensor(qbit, qbit), TTensor(unit, qbit), qbit, unit]

    def ty():
        return pick(types + [raw_type(rng, 2)])

    def same_or(m, other):
        return m if rng.random() < 0.7 else other

    goals = []
    for _ in range(count):
        g = Context(tuple((n, ty()) for n in rng.sample(NAMES, rng.randrange(1, 5))))
        names = g.names()
        v = pick(names)
        scrut = pick([Var(v), Var(v), Ascribe(Var(v), g.lookup(v)), raw_term(rng, 1), Var("z")])
        # a let's two binders differ (`let x * x` is tested on its own); a
        # case's two may share a name
        x, y = rng.sample(names + ["p", "q"], 2)
        vx, vy = Var(x), Var(y)

        def body(*bound):
            used = [Var(n) for n in bound + (pick(names),)]
            return pick([*used, Pair(pick(used), pick(used)), raw_term(rng, 1), PauliX(pick(used))])

        goals += [
            Typing(g, LetPair(x, y, scrut, body(x, y)), ty()),
            Typing(g, Case(scrut, x, body(x), pick([y, x]), body(y)), ty()),
            EffForm(g, CaseEff(scrut, x, pick([ProjPlus(body(x), Fraction(0)), raw_effect(rng, 1)]), pick([y, x]),
                               pick([Orth(ProjPlus(body(y), Fraction(1))), Zero()]))),
        ]
        m = pick([Var(v), scrut, raw_term(rng, 1)])
        for lhs, rhs, t in [
            (m, same_or(Star(), m), same_or(unit, ty())),
            (m, LetPair(x, y, same_or(m, scrut), pick([Pair(vx, vy), Pair(vy, vx), Pair(vx, vx), body(x, y)])),
             same_or(TTensor(ty(), ty()), ty())),
            (m, Case(same_or(m, scrut), x, pick([Inl(vx), Inl(vy), Inr(vx)]), pick([y, x]),
                     pick([Inr(vy), Inr(vx), Inl(vy)])), same_or(TSum(ty(), ty()), ty())),
        ]:
            goals += [TermEq(g, lhs, rhs, t), TermEq(g, rhs, lhs, t)]
    args = [{}, {"ty": TTensor(qbit, unit)}, {"ty": TSum(unit, qbit)}, {"ty": qbit}]
    return [(goal, a) for goal in goals for a in args]


def test_binder_rule_premises_match_the_golden(monkeypatch):
    """Each rule of `BINDER_RULES` gives the instances, or the mismatch, that
    its hand-written matcher gave, reading for reading, with the same zones
    and premise judgements up to the names of their binders: at every goal
    a schema meets while the corpus is checked, at the rule-instance corpus
    and its mutants, at 500 random goals of each judgement form and at 500
    goals of each kind these rules relate."""
    cases = [(goal, {}) for goal in sorted(_corpus_match_goals(monkeypatch), key=_goal_key)]
    cases += [(goal, {}) for goal in _random_goals(random.Random(11), 500)]
    cases += _binder_goals(random.Random(12), 500)
    records = _premise_records(BINDER_RULES, cases)
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert (len(records), digest) == (BINDER_COUNT, BINDER_SHA256)


# the commuting conversions, and the sha256 and count of their
# `_premise_records`, taken from their hand-written matchers
COMMUTING_RULES = ("let-commute", "let-case", "let-tensor", "case-commute", "case-tensor")
COMMUTING_SHA256 = "03fed27148b9c5932678ad0fa8483cc030c0f28c3ff26c3a4925c65199f0d561"
COMMUTING_COUNT = 39845


class Parts(NamedTuple):
    """The parts of a commuting conversion: scrutinees m, n and n2, the
    bodies r and r2 that move across binders, and the binder names."""
    m: object
    n: object
    n2: object
    r: object
    r2: object
    x: str
    y: str
    x2: str
    y2: str


# each rule's two sides over its parts, and on the right side, the parts
# under each binder that stay under it
COMMUTING_SIDES = {
    "let-commute": (lambda p: LetPair(p.x, p.y, p.m, LetPair(p.x2, p.y2, p.n, p.r)),
                    lambda p: LetPair(p.x2, p.y2, LetPair(p.x, p.y, p.m, p.n), p.r),
                    {"x": "n", "y": "n", "x2": "r", "y2": "r"}),
    "let-case": (lambda p: LetPair(p.x2, p.y2, Case(p.m, p.x, p.n, p.y, p.n2), p.r),
                 lambda p: Case(p.m, p.x, LetPair(p.x2, p.y2, p.n, p.r), p.y, LetPair(p.x2, p.y2, p.n2, p.r)),
                 {"x": "n", "y": "n2", "x2": "r", "y2": "r"}),
    "let-tensor": (lambda p: Pair(LetPair(p.x, p.y, p.m, p.n), p.r),
                   lambda p: LetPair(p.x, p.y, p.m, Pair(p.n, p.r)),
                   {"x": "n", "y": "n"}),
    "case-commute": (lambda p: Case(p.m, p.x, Case(p.n, p.x2, p.r, p.y2, p.r2), p.y,
                                    Case(p.n2, p.x2, p.r, p.y2, p.r2)),
                     lambda p: Case(Case(p.m, p.x, p.n, p.y, p.n2), p.x2, p.r, p.y2, p.r2),
                     {"x": "n", "y": "n2", "x2": "r", "y2": "r2"}),
    "case-tensor": (lambda p: Pair(Case(p.m, p.x, p.n, p.y, p.n2), p.r),
                    lambda p: Case(p.m, p.x, Pair(p.n, p.r), p.y, Pair(p.n2, p.r)),
                    {"x": "n", "y": "n2"}),
}


def _commuting_goals(rng, count):
    """`count` seeded near-instances of each commuting conversion, each as
    written and with its sides swapped, with no type argument, `ty`, `ty2`
    and both, each right or not.  The right side is the left one's
    conversion, with its binders renamed or not, or has one part changed.
    Scrutinees are context variables, ascribed or not, random terms or an
    unbound name, and binders reuse context names or not, but never a name
    free in a body that moves across them: there the rules used to capture."""
    qbit, unit = TQbit(), TUnit()
    pick = rng.choice
    types = [TSum(qbit, unit), TSum(unit, unit), TSum(TTensor(qbit, qbit), qbit), TTensor(qbit, qbit),
             TTensor(unit, qbit), TTensor(TSum(unit, unit), qbit), qbit, unit]
    cases = []
    for rule, (lhs, rhs, stay) in COMMUTING_SIDES.items():
        for _ in range(count):
            g = Context(tuple((n, pick(types)) for n in rng.sample(NAMES, rng.randrange(2, 5))))
            names = g.names()
            pool = names + ["p", "q", "t"]

            def body(*bound):
                used = [Var(n) for n in bound + (pick(names),)]
                return pick([*used, Pair(pick(used), pick(used)), raw_term(rng, 1), PauliX(pick(used)),
                             Ascribe(pick([Inl, Inr])(pick(used)), pick(types[:3]))])

            def scrut(cls, *bound):
                """A term often of a type of class cls: a tensor or a sum."""
                of = [Var(n) for n in names if isinstance(g.lookup(n), cls)] or [body(*bound)]
                used = [Var(n) for n in bound] + of
                made = Pair(pick(used), pick(used)) if cls is TTensor else Ascribe(Inl(pick(used)), types[0])
                return pick([pick(of), made, body(*bound)])

            # a let's two binders differ; a case's two may share a name
            x2, y2 = rng.sample(pool, 2)
            r, r2 = {"let-commute": (body(x2, y2), None), "let-case": (body(x2, y2), None),
                     "case-commute": (body(x2), body(y2))}.get(rule, (body(), None))
            free = free_vars(r) | (free_vars(r2) if r2 else frozenset())
            x, y = rng.sample([n for n in pool if n not in free] + ["k1", "k2"], 2)
            if rule.startswith("case"):
                y = pick([y, x])
            v = pick(names)
            outer, second = {"let-commute": (TTensor, TTensor), "let-case": (TSum, TTensor),
                             "let-tensor": (TTensor, None), "case-commute": (TSum, TSum)}.get(rule, (TSum, None))
            m = pick([scrut(outer), scrut(outer), Ascribe(Var(v), g.lookup(v)), raw_term(rng, 1), Var("z")])
            inner = (x, y) if rule in ("let-commute", "let-tensor") else (x,)
            n, n2 = (scrut(second, *inner), scrut(second, y)) if second else (body(*inner), body(y))
            p = q = Parts(m, n, n2, r, r2, x, y, x2, y2)
            change = rng.random()
            if change < 0.25:
                # the right side's binders renamed, in the parts they stay over
                for b in rng.sample(sorted(stay), rng.randrange(1, len(stay) + 1)):
                    part = getattr(q, stay[b])
                    avoid = free | free_vars(part) | {getattr(q, c) for c in stay}
                    new = pick([n for n in pool if n not in avoid] + [fresh("k", avoid)])
                    q = q._replace(**{b: new, stay[b]: subst(part, getattr(q, b), Var(new))})
            elif change < 0.55:
                field = pick(Parts._fields)
                if field in stay:
                    q = q._replace(**{field: pick(pool)})
                else:
                    q = q._replace(**{field: pick([body(x, y), raw_term(rng, 1), m])})
            ty = pick(types)
            if rule.endswith("tensor") and rng.random() < 0.7:
                ty = TTensor(pick(types), pick(types))
            goal = TermEq(g, lhs(p), rhs(q), ty)
            if rng.random() < 0.2:
                goal = TermEq(g, goal.rhs, goal.lhs, ty)

            def guess(term, extra=()):
                t = synth_type(g, term, extra)
                return t if t is not None and rng.random() < 0.7 else pick(types)

            t1 = guess(m)
            a, b = (t1.left, t1.right) if isinstance(t1, (TTensor, TSum)) else (unit, unit)
            t2 = guess(p.n, ((x, a), (y, b))[:len(inner)])
            cases += [(goal, args) for args in ({}, {"ty": t1}, {"ty2": t2}, {"ty": t1, "ty2": t2})]
    return cases


def test_commuting_conversion_premises_match_the_golden(monkeypatch):
    """Each commuting conversion gives the instances, or the mismatch, that
    its hand-written matcher gave, with the same zones and premise
    judgements up to the names of their binders: at every goal a schema
    meets while the corpus is checked, at the rule-instance corpus and its
    mutants with their scripts' arguments, and at 300 near-instances of
    each rule in four variants of arguments."""
    cases = [(goal, {}) for goal in sorted(_corpus_match_goals(monkeypatch), key=_goal_key)]
    cases += [(_erased(j), item.script.args) for item in all_items() if item.rule in COMMUTING_RULES
              for j in (item.judgement, item.mutant)]
    cases += _commuting_goals(random.Random(13), 300)
    records = _premise_records(COMMUTING_RULES, cases, typed=("ty", "ty2"))
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert (len(records), digest) == (COMMUTING_COUNT, COMMUTING_SHA256)


# the beta conversions, and the sha256 and count of their `_premise_records`,
# taken from their hand-written matchers
BETA_RULES = ("beta-tensor", "beta-plus-1", "beta-plus-2", "beta-plus-1-eff", "beta-plus-2-eff")
BETA_SHA256 = "b5842fc9f9282b9a35d46a6cd2560c05e145aec77b5435026d2f7bd5d50f233e"
BETA_COUNT = 94845


def _beta_goals(rng, count):
    """`count` seeded near-instances of each beta conversion: a let over a
    pair, and a case and a caseE over inl and over inr, whose other side is
    the reduct, the body unreduced or another term, an inequality in both
    directions, each with no `ty` argument and with a tensor, a sum and
    qbit.  The injected or paired terms are context variables, ascribed or
    not, random terms or an unbound name, and the binders reuse the names
    of the context or not."""
    qbit, unit = TQbit(), TUnit()
    pick = rng.choice
    types = [TSum(qbit, unit), TSum(unit, unit), TTensor(qbit, qbit), TTensor(unit, qbit), qbit, unit]
    goals = []
    for _ in range(count):
        g = Context(tuple((n, pick(types)) for n in rng.sample(NAMES, rng.randrange(1, 5))))
        names = g.names()
        v = pick(names)
        m, n = (pick([Var(v), Ascribe(Var(v), g.lookup(v)), Var(pick(names)), raw_term(rng, 1), Var("z")])
                for _ in range(2))

        def body(*bound):
            used = [Var(b) for b in bound + (pick(names),)]
            return pick([*used, Pair(pick(used), pick(used)), raw_term(rng, 1), PauliX(pick(used))])

        def effect(*bound):
            used = [Var(b) for b in bound + (pick(names),)]
            return pick([ProjPlus(pick(used), pick(ANGLES)), Orth(ProjPlus(body(*bound), Fraction(1))),
                         SMul(ProjPlus(pick(used), Fraction(0)), one()), raw_effect(rng, 1), Zero()])

        def other(reduct, body, another):
            return pick([reduct, reduct, body, another])

        # a let's two binders differ; a case's two may share a name
        x, y = rng.sample(names + ["p", "q"], 2)
        y2 = pick([y, x])
        r = body(x, y)
        goals.append(TermEq(g, LetPair(x, y, Pair(m, n), r), other(subst_many(r, {x: m, y: n}), r, body()),
                            pick(types)))
        left, right = body(x), body(y2)
        phi, psi = effect(x), effect(y2)
        for inj, binder, branch, eff in ((Inl, x, left, phi), (Inr, y2, right, psi)):
            goals.append(TermEq(g, Case(inj(m), x, left, y2, right),
                                other(subst(branch, binder, m), branch, body()), pick(types)))
            lhs = CaseEff(inj(m), x, phi, y2, psi)
            rhs = other(subst(eff, binder, m), eff, effect())
            goals += [EffLeq(g, lhs, rhs), EffLeq(g, rhs, lhs)]
    args = [{}, {"ty": TTensor(qbit, unit)}, {"ty": TSum(unit, qbit)}, {"ty": qbit}]
    return [(goal, a) for goal in goals for a in args]


def test_beta_conversion_premises_match_the_golden(monkeypatch):
    """Each beta conversion gives the instances, or the mismatch, that its
    hand-written matcher gave, with the same zones and premise judgements up
    to the names of their binders: at every goal a schema meets while the
    corpus is checked, at the rule-instance corpus and its mutants with
    their scripts' arguments, at 500 random goals of each judgement form and
    at 500 near-instances of each rule in four variants of `ty`."""
    cases = [(goal, {}) for goal in sorted(_corpus_match_goals(monkeypatch), key=_goal_key)]
    cases += [(_erased(j), item.script.args) for item in all_items() if item.rule in BETA_RULES
              for j in (item.judgement, item.mutant)]
    cases += [(goal, {}) for goal in _random_goals(random.Random(11), 500)]
    cases += _beta_goals(random.Random(14), 500)
    records = _premise_records(BETA_RULES, cases)
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert (len(records), digest) == (BETA_COUNT, BETA_SHA256)


def test_search_budget_ends_a_deep_search(monkeypatch):
    """A refutable converse at auto(40) would search for hours.  The node
    budget ends it with a proof error that names the budget, and nothing
    catches the exhaustion to go on searching."""
    expanded_after = []
    exhausted = []
    search, search_rules = derivation._search, derivation._search_rules

    def watching(goal, depth, env, table):
        try:
            return search(goal, depth, env, table)
        except SearchBudgetExhausted:
            exhausted.append(table)
            raise

    def expanding(goal, depth, env, table):
        if exhausted:
            expanded_after.append(goal)
        return search_rules(goal, depth, env, table)

    monkeypatch.setattr(derivation, "_search", watching)
    monkeypatch.setattr(derivation, "_search_rules", expanding)
    (decl,) = [decl for decl, _ in _refute_goals() if decl.name == "zero-leq-1"]
    report = process_file(SourceFile((_refute_decl(decl, 40),)), packs=DEFAULT_PACKS)
    (rep,) = report.decls
    assert (report.exit_code, rep.status) == (EXIT_PROOF, "proof-error")
    assert rep.message == (f"auto: budget exhausted after {SEARCH_BUDGET} nodes "
                           "at depth 40 for x : qbit |- proj(x, 1/2) <= 0")
    assert exhausted and all(t.nodes == SEARCH_BUDGET for t in exhausted)
    assert expanded_after == []
    assert rep.elapsed < 30


def test_nested_searches_charge_the_outer_budget(monkeypatch):
    """The typing premises of the rule instances a search tries start
    obligation searches of their own.  They share the lemma environment's
    table and charge the budget of the search that started them, so
    `leq-ovee-2`'s converse at auto(40), which with a budget per call made
    73,041 expansions in 494 nested searches, expands at most
    `SEARCH_BUDGET` goals in all."""
    nested = []  # the root of the running search, at each nested call
    expanded = Counter()  # root -> goals expanded under it
    search, search_rules = derivation.auto_search_leq, derivation._search_rules

    def entering(goal, depth, env):
        if env.search.root is not None:
            nested.append(env.search.root)
        return search(goal, depth, env)

    def expanding(goal, depth, env, table):
        expanded[table.root] += 1
        return search_rules(goal, depth, env, table)

    monkeypatch.setattr(derivation, "auto_search_leq", entering)
    monkeypatch.setattr(derivation, "_search_rules", expanding)
    ((decl, converse),) = [(d, c) for d, c in _refute_goals() if d.name == "leq-ovee-2"]
    report = process_file(SourceFile((_refute_decl(decl, 40),)), packs=DEFAULT_PACKS)
    (rep,) = report.decls
    assert (report.exit_code, rep.status) == (EXIT_PROOF, "proof-error")
    assert rep.message == (f"auto: budget exhausted after {SEARCH_BUDGET} nodes at depth 40 "
                           "for x : qbit |- bot(proj(x, 1)) o+ bot(bot(proj(x, 1))) "
                           "<= bot(proj(x, 1))")
    root = converse, 40
    assert root in nested
    assert expanded[root] <= SEARCH_BUDGET
    assert rep.elapsed < 10


def test_a_new_lemma_drops_the_table():
    """A failure tabled before a lemma is added must not answer the same goal
    after it: the first auto(1) fails, the second finds `use(cover)`."""
    sf = parse(
        "lemma early (x : qbit) : bot(proj(x, 0)) <= bot(0)\n  by { auto(1) }\n\n"
        "lemma cover (x : qbit) : bot(proj(x, 0)) <= bot(0)\n  by { bot-antitone(zero-leq) }\n\n"
        "lemma late (x : qbit) : bot(proj(x, 0)) <= bot(0)\n  by { auto(1) }\n"
    )
    report = process_file(sf, packs=DEFAULT_PACKS)
    assert [(d.name, d.status) for d in report.decls] == [
        ("early", "proof-error"), ("cover", "ok"), ("late", "ok")]


def _table_entries(table):
    return dict(table.proved), dict(table.failed), dict(table.formed)


def test_only_an_inequality_lemma_drops_the_table():
    """No search cites an equation or a typing, so adding a lemma that proves
    only those keeps the table and what it holds; an inequality lemma, or
    one replacing a lemma of the same name that proved one, drops it."""
    g = Context((("x", TQbit()),))
    p0 = ProjPlus(Var("x"), Fraction(0))
    env = Env()
    goal = EffLeq(g, OSum(p0, Orth(p0)), one())
    with pytest.raises(SearchFailed):
        auto_search_leq(goal, 2, env)
    auto_search_leq(goal, 3, env)
    table = env.search
    entries = _table_entries(table)
    assert all(entries)
    env.add_lemma("eq", [TermEq(Context(), Star(), Star(), TUnit())])
    env.add_lemma("typing", [Typing(g, Var("x"), TQbit()), EffForm(g, p0)])
    assert env.search is table and _table_entries(table) == entries
    env.add_lemma("leq", [EffLeq(g, p0, p0)])
    assert env.search is not table and _table_entries(env.search) == ({}, {}, {})
    table = env.search
    env.add_lemma("leq", [EffForm(g, p0)])
    assert env.search is not table and env.leqs == {}


def test_search_cites_the_least_lemma_equal_up_to_exchange():
    """Of the lemmas whose judgement is the goal up to reordering its
    context, the search cites the least name, which a scan of the lemmas in
    name order finds first; a lemma with the same sides in another context
    is not cited.  An index built from `Env(lemmas=...)` answers alike."""
    xy = Context((("x", TQbit()), ("y", TUnit())))
    yx = Context((("y", TUnit()), ("x", TQbit())))
    x = Context((("x", TQbit()),))
    p0 = ProjPlus(Var("x"), Fraction(0))
    low, high = OSum(p0, p0), Orth(p0)  # false: no rule proves it
    lemmas = {"c": [EffLeq(xy, low, high)], "b": [EffLeq(yx, low, high)],
              "a": [EffLeq(x, low, high)], "0": [TermEq(xy, Star(), Star(), TUnit())]}
    built = Env()
    for name, judgements in lemmas.items():
        built.add_lemma(name, judgements)
    for env in (built, Env(lemmas=dict(lemmas))):
        for ctx in (xy, yx):
            goal = EffLeq(ctx, low, high)
            scanned = [n for n in sorted(env.lemmas) if derivation._use(goal, n, env)]
            d = auto_search_leq(goal, 1, env)
            assert (d.rule, d.args, scanned) == ("use", {"name": "b"}, ["b", "c"])
        assert auto_search_leq(EffLeq(x, low, high), 1, env).args == {"name": "a"}
        with pytest.raises(SearchFailed):
            auto_search_leq(EffLeq(Context((("x", TQbit()), ("z", TUnit()))), low, high), 1, env)


def _corpus_derivations(monkeypatch):
    """Each corpus file's reports, and every derivation the driver's
    `check_judgement` and `check_script` calls return, in call order."""
    out = []
    for name in ("check_judgement", "check_script"):
        def recording(*args, check=getattr(driver, name)):
            d = check(*args)
            out.append(repr(d))
            return d

        monkeypatch.setattr(driver, name, recording)
    for name in _corpus_files():
        report = _check_file(name)
        out.append(repr([(d.name, d.status, d.message) for d in report.decls]))
    return out


def test_corpus_derivations_equal_those_with_the_table_dropped_at_every_lemma(monkeypatch):
    """The table kept across the 147 corpus lemmas that prove no inequality
    changes no derivation and no report."""
    add_lemma = Env.add_lemma
    kept = []

    def counting(env, name, judgements):
        table = env.search
        add_lemma(env, name, judgements)
        kept.append(env.search is table)

    def dropping(env, name, judgements):
        add_lemma(env, name, judgements)
        env.search = SearchTable()

    with monkeypatch.context() as mp:
        mp.setattr(Env, "add_lemma", counting)
        tabled = _corpus_derivations(mp)
    assert (len(kept), sum(kept)) == (245, 147)
    with monkeypatch.context() as mp:
        mp.setattr(Env, "add_lemma", dropping)
        assert _corpus_derivations(mp) == tabled
    assert len(tabled) == 492 + 5  # derivations and file reports


def test_formation_table_answers_failures_like_a_fresh_check(monkeypatch):
    """A tabled formation failure is raised again with the class and message
    a fresh check gives, as a copy, so the stored error holds no frames; a
    budget that runs out is not tabled."""
    g = Context((("x", TQbit()),))
    ill = EffForm(Context((("x", TUnit()),)), ProjPlus(Var("x"), Fraction(0)))
    p1 = ProjPlus(Var("x"), Fraction(1))
    undischargeable = EffForm(g, OSum(p1, p1))
    env = Env()
    for j, cls in ((ill, QpelTypeError), (undischargeable, ObligationError)):
        with pytest.raises(cls) as fresh:
            check_effect(j.ctx, j.eff, Env().resolver())
        for _ in range(2):
            with pytest.raises(cls) as tabled:
                derivation._unscripted(j, env, None)
            assert (type(tabled.value), str(tabled.value)) == (cls, str(fresh.value))
            assert tabled.value is not env.search.formed[j]
        assert isinstance(env.search.formed[j], cls)
        assert env.search.formed[j].__traceback__ is None
        assert env.search.formed[j].__context__ is None

    p0 = ProjPlus(Var("x"), Fraction(0))
    formed = EffForm(g, OSum(p0, Orth(p0)))
    with monkeypatch.context() as mp:
        mp.setattr(derivation, "SEARCH_BUDGET", 0)
        with pytest.raises(SearchBudgetExhausted):
            derivation._unscripted(formed, env, None)
    assert formed not in env.search.formed
    assert derivation._unscripted(formed, env, None).judgement == formed


def test_table_hits_agree_with_a_fresh_search(monkeypatch):
    hits = []  # (goal, depth, packs, env depth, lemmas, repr or None)
    search = derivation._search

    def probing(goal, depth, env, table):
        if depth <= 0 or not ((goal, depth) in table.proved
                              or table.failed.get(goal, 0) >= depth):
            return search(goal, depth, env, table)
        hit = (goal, depth, env.packs, env.depth, dict(env.lemmas))
        try:
            d = search(goal, depth, env, table)
        except SearchFailed:
            hits.append(hit + (None,))
            raise
        hits.append(hit + (repr(d),))
        return d

    with monkeypatch.context() as mp:
        mp.setattr(derivation, "_search", probing)
        for name in _corpus_files():
            _check_file(name)
    assert len(hits) > 1000  # core.qpel and qubit.qpel repeat many subgoals
    assert any(answer is None for *_, answer in hits)
    for goal, depth, packs, env_depth, lemmas, answer in hits:
        env = Env(packs=packs, depth=env_depth, lemmas=lemmas)
        try:
            fresh = repr(auto_search_leq(goal, depth, env))
        except SearchFailed:
            fresh = None
        assert fresh == answer, goal


def _found(goal, depth, env):
    """Whether a search on a fresh table for `env`'s packs and default depth
    proves `goal` at `depth`: a table shared between probes would answer a
    shallower probe from a deeper failure, which is what is being checked."""
    try:
        auto_search_leq(goal, depth, Env(packs=env.packs, depth=env.depth))
    except SearchFailed:
        return False
    return True


def test_search_failure_is_monotone_in_depth():
    """Failure at depth d implies failure at d - 1, which lets one recorded
    failure answer every shallower request for the same goal.  Checked on the
    refutable converses (which fail at every depth) and on the corpus
    inequality lemmas themselves (some of which need depth 2 or 3)."""
    cases = [(converse, Env()) for _, converse in _refute_goals()]
    assert len(cases) == 23
    for name in _corpus_files():
        env = Env(packs=FILE_PACKS.get(name, DEFAULT_PACKS))
        for decl in _parse(name).decls:
            if isinstance(decl, LemmaDecl) and isinstance(decl.goal, GLeq):
                cases.append((EffLeq(decl.ctx, decl.goal.low, decl.goal.high), env))
    depths = range(1, REFUTE_DEPTH + 1)
    profiles = {tuple(_found(goal, d, env) for d in depths) for goal, env in cases}
    for found in profiles:
        assert list(found) == sorted(found), found  # False* True*
    assert len(profiles) > 2  # some goals need more than depth 1


def test_search_keys_goals_by_value_not_by_hash(monkeypatch):
    """With every syntax hash colliding, a table or dedup keyed on hashes
    would merge distinct goals; one keyed on values gives the same answers.
    (Deduplicating transitivity middles by hash loses proofs in core.qpel
    and qubit.qpel this way.)"""

    def outcome():
        out = []
        with monkeypatch.context() as mp:
            records = _record_searches(mp)
            for name in _corpus_files():
                report = _check_file(name)
                out.append([(d.name, d.status, d.message) for d in report.decls])
        return out, records

    plain = outcome()
    monkeypatch.setattr(Syntax, "__hash__", lambda self: 0)
    assert outcome() == plain
