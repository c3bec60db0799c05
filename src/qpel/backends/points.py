"""The Kleisli category of the distribution monad D_M over an effect monoid
M, whose laws `effects.check_effect_monoid_laws` checks.  The set backend is
its instance at M = {0, 1}, the stochastic backend at the rational unit
interval (Jacobs, "New Directions in Categorical Logic, for Classical,
Probabilistic and Quantum Logic", LMCS 2015).

Objects are ordered tuples of points: the unit object holds "*", tensoring
pairs points, and sums tag them with "L"/"R".  A morphism gives each point
a row of M-weights whose partial sum is one, a predicate maps points to M,
and a state is an M-distribution; zero weights are dropped.  Every scalar
operation is the monoid's `ovee`, `mul` or `orth`, and x <= y when
x o+ y^perp is defined.  Over {0, 1} rows and states are point masses.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from ..effects import EffectMonoid
from ..triangle import Backend, BackendError, nfold, tensor_all

STAR = "*"

UNIT_OB = (STAR,)


def show_point(p) -> str:
    if p == STAR:
        return "<>"
    if isinstance(p, tuple) and len(p) == 2 and p[0] == "L":
        return f"inl {show_point(p[1])}"
    if isinstance(p, tuple) and len(p) == 2 and p[0] == "R":
        return f"inr {show_point(p[1])}"
    if isinstance(p, tuple) and len(p) == 2:
        return f"({show_point(p[0])}, {show_point(p[1])})"
    return repr(p)


def _unnest(p, n):
    """The n factor points of the context point ((*, x1), ..., xn)."""
    xs = [None] * n
    for k in range(n - 1, -1, -1):
        p, xs[k] = p
    return xs


def _nest(xs, ks):
    """The context point of the factor points at the indices ks."""
    p = STAR
    for k in ks:
        p = (p, xs[k])
    return p


@dataclass
class PointMor:
    dom: tuple
    cod: tuple
    rows: dict  # x -> {y: weight}, zero weights dropped, each row sums to one


class PointBackend(Backend):
    """Kleisli arrows of D_M for the monoid M in `scalars`.  The monoid's raw
    operations are bound once per backend, for the hot loops.  The helpers
    are private, so that the tracer, which wraps every public method, does
    not count them as methods."""

    scalars: EffectMonoid

    def __init__(self):
        super().__init__()
        alg = self.scalars.algebra
        self._ovee, self._orth, self._mul = alg.ovee, alg.orth, self.scalars.mul
        self._zero, self._one = alg.zero, alg.one

    def _sum(self, weights):
        """The partial sum of the weights, or None where it is undefined."""
        ovee, total = self._ovee, self._zero
        for w in weights:
            total = ovee(total, w)
            if total is None:
                return None
        return total

    def _mk(self, dom, cod, rows) -> PointMor:
        """The morphism with the given rows, each checked to sum to one and
        to land in the codomain."""
        ovee, zero, one = self._ovee, self._zero, self._one
        members = frozenset(cod)
        out = {}
        for x in dom:
            row, total = {}, zero
            for y, w in rows[x].items():
                if w == zero:
                    continue
                if y not in members:
                    raise BackendError(f"row lands outside the codomain: {y!r}")
                total = ovee(total, w)
                if total is None:
                    raise BackendError(f"row at {x!r} has no sum in the {self.scalars.name} scalars")
                row[y] = w
            if total != one:
                raise BackendError(f"row at {x!r} sums to {total}, not 1")
            out[x] = row
        return PointMor(dom, cod, out)

    def _map(self, dom, cod, f) -> PointMor:
        """The deterministic morphism of a function on points: each row is a
        single weight one, which sums to one."""
        one = self._one
        members = frozenset(cod)
        rows = {}
        for x in dom:
            y = f(x)
            if y not in members:
                raise BackendError(f"function lands outside its codomain: {y!r}")
            rows[x] = {y: one}
        return PointMor(dom, cod, rows)

    # scalars
    def scalar_of_fraction(self, q):
        """A rational literal is the scalar equal to it: an element of a finite
        carrier, or the fraction itself in the rational unit interval."""
        elements = self.scalars.algebra.elements
        if elements is None:
            return Fraction(q)
        if q in elements:
            return elements[elements.index(q)]
        raise BackendError(f"the {self.scalars.algebra.name} scalars cannot represent {q}")

    # objects
    def unit_ob(self):
        return UNIT_OB

    def tensor_ob(self, a, b):
        return tuple((x, y) for x in a for y in b)

    def sum_ob(self, a, b):
        return tuple(("L", x) for x in a) + tuple(("R", y) for y in b)

    # morphisms
    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

    def _bind(self, s, f):
        """The M-distribution s pushed forward along f, zero weights kept."""
        ovee, mul, acc = self._ovee, self._mul, {}
        for x, w in s.items():
            for y, v in f.rows[x].items():
                wv = mul(w, v)
                acc[y] = ovee(acc[y], wv) if y in acc else wv
        return acc

    def compose(self, g, f):
        if f.cod != g.dom:
            raise BackendError("composition domain mismatch")
        return self._mk(f.dom, g.cod, {x: self._bind(row, g) for x, row in f.rows.items()})

    def tensor_mor(self, f, g):
        dom = self.tensor_ob(f.dom, g.dom)
        cod = self.tensor_ob(f.cod, g.cod)
        mul = self._mul
        rows = {}
        for x, y in dom:
            rows[(x, y)] = {
                (u, v): mul(w1, w2)
                for u, w1 in f.rows[x].items()
                for v, w2 in g.rows[y].items()
            }
        return self._mk(dom, cod, rows)

    def cotuple(self, f, g):
        if f.cod != g.cod:
            raise BackendError("cotuple codomain mismatch")
        dom = self.sum_ob(f.dom, g.dom)
        rows = {(tag, x): (f.rows[x] if tag == "L" else g.rows[x]) for tag, x in dom}
        return self._mk(dom, f.cod, rows)

    def mor_eq(self, f, g):
        return f.dom == g.dom and f.cod == g.cod and f.rows == g.rows

    # structural morphisms: functions on points
    def identity(self, a):
        return self._map(a, a, lambda x: x)

    def symmetry(self, a, b):
        return self._map(self.tensor_ob(a, b), self.tensor_ob(b, a), lambda p: (p[1], p[0]))

    def assoc(self, a, b, c):
        return self._map(
            self.tensor_ob(self.tensor_ob(a, b), c),
            self.tensor_ob(a, self.tensor_ob(b, c)),
            lambda p: (p[0][0], (p[0][1], p[1])),
        )

    def assoc_inv(self, a, b, c):
        return self._map(
            self.tensor_ob(a, self.tensor_ob(b, c)),
            self.tensor_ob(self.tensor_ob(a, b), c),
            lambda p: ((p[0], p[1][0]), p[1][1]),
        )

    def unit_left(self, a):
        return self._map(self.tensor_ob(UNIT_OB, a), a, lambda p: p[1])

    def unit_left_inv(self, a):
        return self._map(a, self.tensor_ob(UNIT_OB, a), lambda x: (STAR, x))

    def unit_right(self, a):
        return self._map(self.tensor_ob(a, UNIT_OB), a, lambda p: p[0])

    def terminal(self, a):
        return self._map(a, UNIT_OB, lambda x: STAR)

    def inj1(self, a, b):
        return self._map(a, self.sum_ob(a, b), lambda x: ("L", x))

    def inj2(self, a, b):
        return self._map(b, self.sum_ob(a, b), lambda y: ("R", y))

    def dist_right(self, a, b, c):
        return self._map(
            self.tensor_ob(a, self.sum_ob(b, c)),
            self.sum_ob(self.tensor_ob(a, b), self.tensor_ob(a, c)),
            lambda p: (p[1][0], (p[0], p[1][1])),
        )

    # context reshuffles: a context point is the left-nested ((*, x1), ..., xn)
    def drop_mor(self, obs, keep):
        kept = [k for k in range(len(obs)) if k in keep]
        return self._map(tensor_all(self, obs), tensor_all(self, [obs[k] for k in kept]),
                         lambda p: _nest(_unnest(p, len(obs)), kept))

    def split_mor(self, obs, left):
        n = range(len(obs))
        ls, rs = [k for k in n if k in left], [k for k in n if k not in left]
        cod = self.tensor_ob(tensor_all(self, [obs[k] for k in ls]),
                             tensor_all(self, [obs[k] for k in rs]))

        def split(p):
            xs = _unnest(p, len(obs))
            return _nest(xs, ls), _nest(xs, rs)

        return self._map(tensor_all(self, obs), cod, split)

    # predicates: dense maps point -> M
    def pred_zero(self, a):
        return {x: self._zero for x in a}

    def pred_one(self, a):
        return {x: self._one for x in a}

    def pred_ovee(self, p, q):
        ovee = self._ovee
        out = {x: ovee(w, q[x]) for x, w in p.items()}
        return None if None in out.values() else out

    def pred_orth(self, a, p):
        orth = self._orth
        return {x: orth(p[x]) for x in a}

    def pred_smul(self, r, p):
        mul = self._mul
        return {x: mul(r, w) for x, w in p.items()}

    def pred_eq(self, p, q):
        return p == q

    def pred_leq(self, p, q):
        ovee, orth = self._ovee, self._orth
        return all(ovee(w, orth(q[x])) is not None for x, w in p.items())

    def apply_pred(self, f, q):
        mul, total = self._mul, self._sum
        return {x: total(mul(w, q[y]) for y, w in f.rows[x].items()) for x in f.dom}

    def pred_pair(self, a, b, p, q):
        out = {("L", x): p[x] for x in a}
        out.update({("R", y): q[y] for y in b})
        return out

    def scalar_of_pred(self, p):
        return p[STAR]

    # states: M-distributions, zero weights dropped
    def unit_state(self):
        return {STAR: self._one}

    def apply_state(self, f, s):
        zero = self._zero
        return {y: w for y, w in self._bind(s, f).items() if w != zero}

    def validity(self, p, s):
        mul = self._mul
        return self._sum(mul(w, p[x]) for x, w in s.items())

    def _carrier(self):
        elements = self.scalars.algebra.elements
        if elements is None:
            raise BackendError(f"the {self.scalars.algebra.name} scalars are not finite")
        return elements

    def enum_states(self, a):
        """Every M-distribution on the finite set a, over a finite M."""
        zero, one = self._zero, self._one
        return [
            {x: w for x, w in zip(a, weights) if w != zero}
            for weights in product(self._carrier(), repeat=len(a))
            if self._sum(weights) == one
        ]

    def enum_preds(self, a):
        """Every predicate on the finite set a, over a finite M."""
        return [dict(zip(a, weights)) for weights in product(self._carrier(), repeat=len(a))]

    # measurement
    def meas(self, a, preds):
        """Row x weighs the i-th outcome, the point of the left-nested sum
        that the i-th injection hits, by the i-th predicate at x, so the row
        checks are the check that the predicates sum to one."""
        cod = nfold(self, UNIT_OB, len(preds))
        try:
            return self._mk(a, cod, {x: {y: p[x] for y, p in zip(cod, preds)} for x in a})
        except BackendError as exc:
            raise BackendError(f"measurement predicates do not sum to 1: {exc}") from None
