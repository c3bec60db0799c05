"""The set backend: objects are finite sets, computations are functions,
predicates are subsets, states are elements, and the scalars are {0, 1}."""
from __future__ import annotations

from dataclasses import dataclass

from ..triangle import BackendError, nfold
from .points import STAR, UNIT_OB, PointBackend


@dataclass
class SetMor:
    dom: tuple
    cod: tuple
    table: dict

    def __post_init__(self):
        assert set(self.table) == set(self.dom)


def _fn(dom, cod, f) -> SetMor:
    table = {x: f(x) for x in dom}
    for v in table.values():
        if v not in cod:
            raise BackendError(f"function lands outside its codomain: {v!r}")
    return SetMor(dom, cod, table)


class SetBackend(PointBackend):
    name = "set"
    _map = staticmethod(_fn)

    # scalars: 0/1
    def scalar_of_fraction(self, q):
        if q == 0:
            return 0
        if q == 1:
            return 1
        raise BackendError(f"the boolean scalars cannot represent {q}")

    # morphisms
    def compose(self, g, f):
        if f.cod != g.dom:
            raise BackendError("composition domain mismatch")
        return SetMor(f.dom, g.cod, {x: g.table[f.table[x]] for x in f.dom})

    def tensor_mor(self, f, g):
        dom = self.tensor_ob(f.dom, g.dom)
        cod = self.tensor_ob(f.cod, g.cod)
        return SetMor(dom, cod, {(x, y): (f.table[x], g.table[y]) for x, y in dom})

    def cotuple(self, f, g):
        if f.cod != g.cod:
            raise BackendError("cotuple codomain mismatch")
        dom = self.sum_ob(f.dom, g.dom)
        return SetMor(
            dom,
            f.cod,
            {p: (f.table[p[1]] if p[0] == "L" else g.table[p[1]]) for p in dom},
        )

    def mor_eq(self, f, g):
        return f.dom == g.dom and f.cod == g.cod and f.table == g.table

    # predicates: subsets as frozensets
    def pred_zero(self, a):
        return frozenset()

    def pred_one(self, a):
        return frozenset(a)

    def pred_ovee(self, p, q):
        return None if p & q else p | q

    def pred_orth(self, a, p):
        return frozenset(a) - p

    def pred_smul(self, r, p):
        return p if r else frozenset()

    def pred_eq(self, p, q):
        return p == q

    def pred_leq(self, p, q):
        return p <= q

    def apply_pred(self, f, q):
        return frozenset(x for x in f.dom if f.table[x] in q)

    def pred_pair(self, a, b, p, q):
        return frozenset(("L", x) for x in p) | frozenset(("R", y) for y in q)

    def scalar_of_pred(self, p):
        return 1 if STAR in p else 0

    # states: elements
    def unit_state(self):
        return STAR

    def apply_state(self, f, s):
        return f.table[s]

    def validity(self, p, s):
        return 1 if s in p else 0

    def enum_states(self, a):
        return list(a)

    def random_state(self, a, rng):
        return rng.choice(list(a))

    def enum_preds(self, a):
        out = [frozenset()]
        for x in a:
            out = out + [p | {x} for p in out]
        return out

    def random_pred(self, a, rng):
        return frozenset(x for x in a if rng.random() < 0.5)

    # measurement
    def meas(self, a, preds):
        union = set()
        for p in preds:
            if union & p:
                raise BackendError("measurement predicates overlap")
            union |= p
        if union != set(a):
            raise BackendError("measurement predicates do not cover the object")
        n = len(preds)

        def outcome(x):
            for i, p in enumerate(preds):
                if x in p:
                    return _nested_inj_point(i, n, STAR)
            raise AssertionError

        return _fn(a, nfold(self, UNIT_OB, n), outcome)


def _nested_inj_point(i: int, n: int, p):
    """Point of the left-nested n-fold sum hit by the i-th injection."""
    if n == 1:
        return p
    if i == n - 1:
        return ("R", p)
    return ("L", _nested_inj_point(i, n - 1, p))
