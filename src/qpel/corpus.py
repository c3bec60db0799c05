"""The rule-instance corpus, loaded from the checkout's `corpus/` directory.

`corpus/{core,probabilistic,qubit,beta_iso}.qpel` hold three lemmas
`<rule>-<k>` (k = 0, 1, 2) per deduction rule, each with a script whose root
node names the rule; the files split them by the backends able to interpret
them.  Each lemma is paired here with a mutated judgement that the same
script must reject.  Checking the files with `--verify all --rules
core,qubit,beta-iso` is the empirical soundness run.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

from .parser import Parser, parse
from .rules import ALL_RULE_NAMES, SCHEMAS
from .syntax import (
    EffForm,
    EffLeq,
    Judgement,
    Measure,
    Orth,
    OSum,
    TermEq,
    TTensor,
    TUnit,
    Typing,
    Zero,
    one,
)

CORPUS_DIR = Path(__file__).resolve().parents[2] / "corpus"
CORPUS_FILES = ("core", "probabilistic", "qubit", "beta_iso")


def sc(text: str):
    """Parse a proof script from surface syntax."""
    p = Parser(text)
    out = p.parse_script()
    p.expect("EOF")
    return out


@dataclass(frozen=True)
class CorpusItem:
    rule: str
    variant: int
    judgement: Judgement
    script: object
    requires: tuple = ()
    mutant: Judgement | None = None

    @property
    def name(self):
        return f"{self.rule}#{self.variant}"


def _default_mutant(j: Judgement) -> Judgement:
    if isinstance(j, TermEq):
        return TermEq(j.ctx, j.lhs, Measure(((one(), j.rhs),)), j.ty)
    if isinstance(j, EffLeq):
        return EffLeq(j.ctx, j.low, OSum(j.high, Zero()))
    if isinstance(j, EffForm):
        return EffForm(j.ctx, Orth(j.eff))
    if isinstance(j, Typing):
        return Typing(j.ctx, j.term, TTensor(j.ty, TUnit()))
    raise TypeError(j)


# rules whose default mutant is still derivable by the same script
_MUTANTS = {
    "eff-0": lambda j: EffForm(j.ctx, OSum(one(), one())),
    "eff-bot": lambda j: EffForm(j.ctx, Zero()),
    "qbit-proj": lambda j: EffForm(j.ctx, Zero()),
    "zero-leq": lambda j: EffLeq(j.ctx, one(), j.high),
    "bot-antitone": lambda j: EffLeq(j.ctx, Zero(), Orth(Zero())),
    "ovee-0": lambda j: EffLeq(j.ctx, OSum(j.high, one()), j.high),
    "ortho-1": lambda j: EffLeq(j.ctx, Orth(j.high), j.high),
    "case-leq": lambda j: EffLeq(j.ctx, j.low, Zero()),
}


@functools.cache
def _load() -> dict:
    items = {}
    for stem in CORPUS_FILES:
        text = (CORPUS_DIR / f"{stem}.qpel").read_text(encoding="utf-8")
        for decl in parse(text).decls:
            rule, _, k = decl.name.rpartition("-")
            (j,) = decl.judgements()
            mutant = _MUTANTS.get(rule, _default_mutant)(j)
            items[rule, int(k)] = CorpusItem(rule, int(k), j, decl.script, decl.requires, mutant)
    return items


def build_item(rule: str, k: int) -> CorpusItem:
    return _load()[rule, k]


def all_items(packs=("core", "qubit", "beta-iso")) -> list[CorpusItem]:
    return [build_item(rule, k) for rule in ALL_RULE_NAMES
            if SCHEMAS[rule].pack in packs for k in range(3)]
