import importlib.util
import json
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from qpel.backends.setb import SetBackend
from qpel.backends.stochastic import StochasticBackend
from qpel.effects import (
    MUTANTS,
    boolean_algebra,
    boolean_monoid,
    boolean_square_monoid,
    chain3_algebra,
    chain3_module_over_boolean,
    check_effect_algebra_laws,
    check_effect_module_laws,
    check_effect_monoid_laws,
    check_homomorphism,
    unit_interval_algebra,
    unit_interval_module,
    unit_interval_monoid,
)


def test_boolean_laws_pass_exhaustively():
    rep = check_effect_algebra_laws(boolean_algebra())
    assert rep.passed, rep.render_text()
    rep2 = check_effect_monoid_laws(boolean_monoid())
    assert rep2.passed, rep2.render_text()


def test_boolean_partial_sum_undefined_at_top():
    alg = boolean_algebra()
    assert alg.ovee(1, 1) is None
    assert alg.ovee(1, 0) == 1


def test_chain3_laws_pass_exhaustively():
    rep = check_effect_algebra_laws(chain3_algebra())
    assert rep.passed, rep.render_text()


def test_unit_interval_examples():
    alg = unit_interval_algebra()
    assert alg.ovee(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert alg.ovee(Fraction(3, 4), Fraction(1, 2)) is None
    assert alg.orth(Fraction(3, 10)) == Fraction(7, 10)
    # forced by x o+ y = 1 iff y = orth(x)
    assert alg.ovee(Fraction(3, 10), Fraction(7, 10)) == Fraction(1)


def test_unit_interval_laws_random():
    rep = check_effect_monoid_laws(unit_interval_monoid())
    assert rep.passed, rep.render_text()


def test_boolean_square_monoid_laws():
    rep = check_effect_monoid_laws(boolean_square_monoid())
    assert rep.passed, rep.render_text()


def test_module_laws():
    rep = check_effect_module_laws(chain3_module_over_boolean())
    assert rep.passed, rep.render_text()
    rep2 = check_effect_module_laws(unit_interval_module())
    assert rep2.passed, rep2.render_text()


def test_mutants_flagged_with_correct_law():
    for law, make in MUTANTS.items():
        rep = check_effect_algebra_laws(make())
        assert not rep.passed
        assert law in rep.failed_laws(), (law, rep.render_text())
        witness = [r for r in rep.results if r.law == law][0]
        assert witness.counterexample is not None


def test_homomorphism_zero_preservation_is_derived():
    # boolean embeds into the rationals; the chain embeds too
    emb = check_homomorphism(
        lambda x: Fraction(x), boolean_algebra(), unit_interval_algebra(), samples=(0, 1)
    )
    assert emb.passed, emb.render_text()
    chain = chain3_algebra()
    emb2 = check_homomorphism(lambda x: x, chain, unit_interval_algebra(),
                              samples=chain.elements)
    assert emb2.passed
    assert any(r.law == "hom-zero" and r.ok for r in emb2.results)


def test_laws_hold_of_the_scalars_the_backends_compute_with():
    """The set and stochastic backends compute with their class's `scalars`,
    so the law harness checks the very operations the verifier runs."""
    for cls, carrier in ((SetBackend, (0, 1)), (StochasticBackend, None)):
        rep = check_effect_monoid_laws(cls.scalars)
        assert rep.passed, rep.render_text()
        assert {"ovee-associative", "orth-unique", "mul-dist-left", "mul-commutative"} <= {
            r.law for r in rep.results
        }
        assert cls.scalars.algebra.elements == carrier
        backend = cls()
        assert backend._ovee is cls.scalars.algebra.ovee
        assert backend._orth is cls.scalars.algebra.orth
        assert backend._mul is cls.scalars.mul


def test_law_report_script_passes_the_instances_and_rejects_the_mutants(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "law_report.py"
    spec = importlib.util.spec_from_file_location("law_report", path)
    law_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(law_report)
    assert law_report.main(["--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    expected = {}
    for rep in reports:
        failed = [law["law"] for law in rep["laws"] if law["status"] == "fail"]
        named = re.search(r"\[expected failure: (\S+)\]$", rep["instance"])
        if named is None:
            assert rep["passed"] and failed == [], rep
        else:
            assert not rep["passed"] and named.group(1) in failed, rep
            expected[named.group(1)] = failed
    assert len(reports) == 10
    assert sorted(expected) == sorted(MUTANTS)


def test_report_serialises():
    rep = check_effect_algebra_laws(boolean_algebra())
    doc = rep.to_json()
    assert doc["passed"] is True and len(doc["laws"]) >= 6
    assert "ovee-commutative" in rep.render_text()


def test_three_element_chain_admits_no_effect_monoid():
    """Exhaustive: no total multiplication on {0, 1/2, 1} satisfies the
    effect monoid laws, so the monad-law suites run over {0,1} and the
    boolean square instead."""
    alg = chain3_algebra()
    elems = list(alg.elements)
    ok_tables = []
    for values in product(elems, repeat=9):
        table = dict(zip(product(elems, elems), values))
        mul = lambda x, y: table[(x, y)]
        # unit laws
        if any(mul(Fraction(1), x) != x or mul(x, Fraction(1)) != x for x in elems):
            continue
        # associativity
        if any(
            mul(x, mul(y, z)) != mul(mul(x, y), z)
            for x in elems for y in elems for z in elems
        ):
            continue
        # directed distributivity both sides
        def dist_ok():
            for x in elems:
                for y in elems:
                    s = alg.ovee(x, y)
                    if s is None:
                        continue
                    for z in elems:
                        t = alg.ovee(mul(x, z), mul(y, z))
                        if t is None or t != mul(s, z):
                            return False
                        t2 = alg.ovee(mul(z, x), mul(z, y))
                        if t2 is None or t2 != mul(z, s):
                            return False
            return True

        if dist_ok():
            ok_tables.append(table)
    assert ok_tables == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interval_sampler_stays_in_range(seed):
    from qpel.effects import interval_sampler

    rng = random.Random(seed)
    for _ in range(200):
        q = interval_sampler(rng)
        assert 0 <= q <= 1
