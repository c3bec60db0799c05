#!/usr/bin/env python3
"""Print the algebra/monoid/module law reports for the shipped instances and
the seeded mutants, as text or JSON (--json).  The boolean and rational
monoids checked are the scalars the set and stochastic backends compute
with."""
from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qpel.backends.setb import SetBackend
from qpel.backends.stochastic import StochasticBackend
from qpel.effects import (
    MUTANTS,
    boolean_algebra,
    boolean_square_monoid,
    chain3_algebra,
    chain3_module_over_boolean,
    check_effect_algebra_laws,
    check_effect_module_laws,
    check_effect_monoid_laws,
    unit_interval_module,
)


def main(argv):
    as_json = "--json" in argv
    reports = [
        check_effect_algebra_laws(boolean_algebra()),
        check_effect_algebra_laws(chain3_algebra()),
        check_effect_monoid_laws(SetBackend.scalars),
        check_effect_monoid_laws(boolean_square_monoid()),
        check_effect_monoid_laws(StochasticBackend.scalars),
        check_effect_module_laws(chain3_module_over_boolean()),
        check_effect_module_laws(unit_interval_module()),
    ]
    for expected_law, make in MUTANTS.items():
        rep = check_effect_algebra_laws(make())
        rep.instance += f"  [expected failure: {expected_law}]"
        reports.append(rep)
    if as_json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.render_text())
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
