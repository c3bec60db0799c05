"""The stochastic backend: Kleisli arrows of the distribution monad over the
rational unit interval.  Morphisms are row-stochastic tables of exact
fractions, predicates are fuzzy subsets (pointwise maps into [0, 1]), and
states are distributions; every comparison is exact."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..triangle import BackendError, nfold
from .points import STAR, UNIT_OB, PointBackend
from .setb import SetMor, _nested_inj_point

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class StochMor:
    dom: tuple
    cod: tuple
    rows: dict  # x -> {y: weight}, zero entries dropped, rows sum to 1

    def row(self, x):
        return self.rows[x]


def _normal(row: dict) -> dict:
    return {y: w for y, w in row.items() if w != 0}


def _mk(dom, cod, rows) -> StochMor:
    out = {}
    for x in dom:
        row = _normal(rows[x])
        total = sum(row.values(), start=ZERO)
        if total != ONE:
            raise BackendError(f"row at {x!r} sums to {total}, not 1")
        for y in row:
            if y not in cod:
                raise BackendError(f"row lands outside the codomain: {y!r}")
        out[x] = row
    return StochMor(dom, cod, out)


def det(dom, cod, f) -> StochMor:
    """Deterministic arrow from a function on points."""
    return _mk(dom, cod, {x: {f(x): ONE} for x in dom})


class StochasticBackend(PointBackend):
    name = "stochastic"
    _map = staticmethod(det)

    # scalars: exact rationals in [0,1]
    def scalar_of_fraction(self, q):
        return Fraction(q)

    # morphisms
    def compose(self, g, f):
        if f.cod != g.dom:
            raise BackendError("composition domain mismatch")
        rows = {}
        for x in f.dom:
            acc = {}
            for y, w in f.row(x).items():
                for z, v in g.row(y).items():
                    acc[z] = acc.get(z, ZERO) + w * v
            rows[x] = acc
        return _mk(f.dom, g.cod, rows)

    def tensor_mor(self, f, g):
        dom = self.tensor_ob(f.dom, g.dom)
        cod = self.tensor_ob(f.cod, g.cod)
        rows = {}
        for x, y in dom:
            rows[(x, y)] = {
                (u, v): w1 * w2
                for u, w1 in f.row(x).items()
                for v, w2 in g.row(y).items()
            }
        return _mk(dom, cod, rows)

    def from_set(self, f: SetMor) -> StochMor:
        """Embed a set-backend function as a 0/1 stochastic arrow."""
        return det(f.dom, f.cod, lambda x: f.table[x])

    def cotuple(self, f, g):
        if f.cod != g.cod:
            raise BackendError("cotuple codomain mismatch")
        dom = self.sum_ob(f.dom, g.dom)
        rows = {}
        for tag, x in dom:
            rows[(tag, x)] = dict(f.row(x) if tag == "L" else g.row(x))
        return _mk(dom, f.cod, rows)

    def mor_eq(self, f, g):
        return f.dom == g.dom and f.cod == g.cod and f.rows == g.rows

    # predicates: dense maps point -> Fraction
    def pred_zero(self, a):
        return {x: ZERO for x in a}

    def pred_one(self, a):
        return {x: ONE for x in a}

    def pred_ovee(self, p, q):
        if any(p[x] + q[x] > 1 for x in p):
            return None
        return {x: p[x] + q[x] for x in p}

    def pred_orth(self, a, p):
        return {x: 1 - p[x] for x in a}

    def pred_smul(self, r, p):
        return {x: r * w for x, w in p.items()}

    def pred_eq(self, p, q):
        return p == q

    def pred_leq(self, p, q):
        return all(p[x] <= q[x] for x in p)

    def apply_pred(self, f, q):
        return {x: sum((w * q[y] for y, w in f.row(x).items()), start=ZERO) for x in f.dom}

    def pred_pair(self, a, b, p, q):
        out = {("L", x): p[x] for x in a}
        out.update({("R", y): q[y] for y in b})
        return out

    def scalar_of_pred(self, p):
        return p[STAR]

    # states: distributions as dicts, zero entries dropped
    def unit_state(self):
        return {STAR: ONE}

    def apply_state(self, f, s):
        acc = {}
        for x, w in s.items():
            for y, v in f.row(x).items():
                acc[y] = acc.get(y, ZERO) + w * v
        return _normal(acc)

    def validity(self, p, s):
        return sum((w * p[x] for x, w in s.items()), start=ZERO)

    def random_state(self, a, rng):
        weights = [rng.randint(0, 6) for _ in a]
        if sum(weights) == 0:
            weights[rng.randrange(len(weights))] = 1
        total = sum(weights)
        return _normal({x: Fraction(w, total) for x, w in zip(a, weights)})

    def random_pred(self, a, rng):
        return {x: Fraction(rng.randint(0, 8), 8) for x in a}

    def random_mor(self, a, b, rng):
        rows = {}
        for x in a:
            weights = [rng.randint(0, 5) for _ in b]
            if sum(weights) == 0:
                weights[rng.randrange(len(weights))] = 1
            total = sum(weights)
            rows[x] = {y: Fraction(w, total) for y, w in zip(b, weights)}
        return _mk(a, b, rows)

    # measurement
    def meas(self, a, preds):
        total = self.pred_zero(a)
        for p in preds:
            total = self.pred_ovee(total, p)
            if total is None:
                raise BackendError("measurement predicates are not summable")
        if total != self.pred_one(a):
            raise BackendError("measurement predicates do not sum to 1")
        n = len(preds)
        cod = nfold(self, UNIT_OB, n)
        rows = {}
        for x in a:
            rows[x] = {
                _nested_inj_point(i, n, STAR): preds[i][x]
                for i in range(n)
            }
        return _mk(a, cod, rows)
