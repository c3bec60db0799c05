"""The tabled search finds exactly what an untabled one finds.

`auto_search_leq` answers repeated subgoals from a table local to the call.
These tests pin down what that must not change: every top-level search
result over the corpus and the refutable corpus converses (a golden digest
taken before tabling), the answer behind every table hit, and the two facts
the table relies on, that failure is monotone in depth and that goals are
keyed by value rather than by hash.
"""
import hashlib
from dataclasses import replace
from pathlib import Path

from qpel import derivation, typecheck
from qpel.backends import BACKEND_NAMES, make_backend
from qpel.derivation import Env, SearchFailed, auto_search_leq
from qpel.driver import process_file
from qpel.interpreter import backend_applicable, judgement_true
from qpel.parser import AutoNode, GLeq, LemmaDecl, SourceFile, parse
from qpel.rules import DEFAULT_PACKS
from qpel.syntax import EffLeq, Syntax
from qpel.typecheck import show_judgement

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
            if any(backend_applicable(b, converse) and not judgement_true(b, converse)
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


def _golden_records(monkeypatch):
    records = _record_searches(monkeypatch)
    for name in _corpus_files():
        _check_file(name)
    decls = tuple(
        replace(decl, name="refute-" + decl.name, goal=GLeq(decl.goal.high, decl.goal.low),
                script=AutoNode(REFUTE_DEPTH), requires=())
        for decl, _ in _refute_goals()
    )
    process_file(SourceFile(decls), packs=DEFAULT_PACKS)
    return records


def test_search_results_match_the_untabled_golden(monkeypatch):
    records = _golden_records(monkeypatch)
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert (len(records), digest) == (GOLDEN_COUNT, GOLDEN_SHA256)


def test_search_formats_only_the_failures_it_reports(monkeypatch):
    """A search discards thousands of failed premises; their messages must be
    formatted only when read.  Checking the refutable converses shows 26
    judgements: the 23 reported failures, and 3 obligations of typing
    premises inside the search, which `ObligationError` formats as raised."""
    shown = []

    def counting(j):
        shown.append(j)
        return show_judgement(j)

    monkeypatch.setattr(typecheck, "show_judgement", counting)
    monkeypatch.setattr(derivation, "show_judgement", counting)
    decls = tuple(
        replace(decl, name="refute-" + decl.name, goal=GLeq(decl.goal.high, decl.goal.low),
                script=AutoNode(REFUTE_DEPTH), requires=())
        for decl, _ in _refute_goals()
    )
    report = process_file(SourceFile(decls), packs=DEFAULT_PACKS)
    assert [d.status for d in report.decls] == ["proof-error"] * 23
    assert len(shown) == 26


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
    try:
        auto_search_leq(goal, depth, env)
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
