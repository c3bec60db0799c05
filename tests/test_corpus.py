"""The rule-instance corpus is read from corpus/*.qpel: pin what the loader
builds from the files, and the split of the lemmas between the four files."""
import hashlib
import re

from qpel.corpus import CORPUS_DIR, CORPUS_FILES, all_items
from qpel.backends import make_backend
from qpel.interpreter import backend_applicable
from qpel.parser import parse
from qpel.rules import ALL_RULE_NAMES, SCHEMAS

# captured from the Python builders the files were once generated from
GOLDEN = "a720c2627426dc2a6a847264965e8274b67ef83a76acdeeb17f00e9cbebaaee0"


def test_loaded_items_match_golden():
    items = all_items()
    text = "\n".join(
        repr((it.name, it.judgement, it.script, it.requires, it.mutant)) for it in items
    )
    assert len(items) == 240
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN


def test_files_partition_the_lemmas_by_backend():
    sb, st = make_backend("set"), make_backend("stochastic")
    seen = set()
    for stem in CORPUS_FILES:
        for decl in parse((CORPUS_DIR / f"{stem}.qpel").read_text(encoding="utf-8")).decls:
            m = re.fullmatch(r"(.+)-([012])", decl.name)
            assert m, decl.name
            rule = m.group(1)
            assert rule in ALL_RULE_NAMES and decl.name not in seen, decl.name
            seen.add(decl.name)
            assert decl.script.rule == rule, decl.name
            (j,) = decl.judgements()
            assert (SCHEMAS[rule].pack == "beta-iso") == (stem == "beta_iso"), decl.name
            if stem == "core":
                assert backend_applicable(sb, j), decl.name
            elif stem == "probabilistic":
                assert not backend_applicable(sb, j) and backend_applicable(st, j), decl.name
            elif stem == "qubit":
                assert not backend_applicable(st, j), decl.name
    assert len(seen) == 3 * len(ALL_RULE_NAMES)
