"""The stochastic backend: the Kleisli backend over the rational unit
interval, whose morphisms are row-stochastic tables of exact fractions,
predicates fuzzy subsets and states distributions; every comparison is
exact.  The seeded draws below make test data."""
from __future__ import annotations

from fractions import Fraction

from ..effects import unit_interval_monoid
from .points import PointBackend


def _weights(rng, n, top):
    weights = [rng.randint(0, top) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    return weights


class StochasticBackend(PointBackend):
    name = "stochastic"
    scalars = unit_interval_monoid()

    def random_state(self, a, rng):
        weights = _weights(rng, len(a), 6)
        total = sum(weights)
        return {x: Fraction(w, total) for x, w in zip(a, weights) if w}

    def random_pred(self, a, rng):
        return {x: Fraction(rng.randint(0, 8), 8) for x in a}

    def random_mor(self, a, b, rng):
        rows = {}
        for x in a:
            weights = _weights(rng, len(b), 5)
            total = sum(weights)
            rows[x] = {y: Fraction(w, total) for y, w in zip(b, weights)}
        return self._mk(a, b, rows)
