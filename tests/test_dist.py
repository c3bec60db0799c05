"""The monad laws of the distribution monad D_M, on the Kleisli backend's own
composition.

`PointBackend` is the Kleisli category of D_M: the unit is the point-mass
state, `apply_state` is bind, and the multiplication is `apply_state` along
the morphism D(A) -> A whose row at a distribution is that distribution.  A
distribution becomes a point of D(A) as the frozen set of its (point,
weight) pairs.  The laws run at three scalar monoids: the set backend's
{0, 1}, the stochastic backend's rational [0, 1], and the boolean square
{0, 1}^2, the smallest commutative effect monoid with an element strictly
between 0 and 1.
"""
import random
from fractions import Fraction

import pytest

from qpel.backends.points import UNIT_OB, PointBackend
from qpel.backends.setb import SetBackend
from qpel.backends.stochastic import StochasticBackend
from qpel.effects import boolean_square_monoid
from qpel.triangle import BackendError


class BooleanSquareBackend(PointBackend):
    name = "boolean square"
    scalars = boolean_square_monoid()


Q = StochasticBackend()
B = SetBackend()
SQ = BooleanSquareBackend()


def point(d):
    """A distribution as a point of D(A)."""
    return frozenset(d.items())


def kleisli(k, dom, f):
    """The morphism whose row at x is the distribution f(x); the backend
    checks that each row sums to one."""
    rows = {x: f(x) for x in dom}
    cod = tuple(dict.fromkeys(y for row in rows.values() for y in row))
    return k._mk(tuple(dom), cod, rows)


def dist(k, weights):
    """The state with the given weights."""
    return k.state_of_mor(kleisli(k, UNIT_OB, lambda _: dict(weights)))


def unit(k, x):
    """eta(x): the state of the point x."""
    return k.state_of_mor(k._map(UNIT_OB, (x,), lambda _: x))


def dmap(k, f, d):
    """D(f)(d): d along the deterministic morphism of f."""
    dom = tuple(d)
    return k.apply_state(k._map(dom, tuple(dict.fromkeys(map(f, dom))), f), d)


def bind(k, d, f):
    return k.apply_state(kleisli(k, d, f), d)


def mult(k, dd):
    """mu(dd), for a state dd on points of D(A)."""
    return bind(k, dd, dict)


def strength(k, a, phi):
    """t(a, phi): the state of the point a tensored with phi, through the
    backend's tensor."""
    pa = k._map(UNIT_OB, (a,), lambda _: a)
    f = kleisli(k, UNIT_OB, lambda _: phi)
    return k.state_of_mor(k.compose(k.tensor_mor(pa, f), k.unit_left_inv(UNIT_OB)))


def strength_left_first(k, da, db):
    return bind(k, da, lambda a: strength(k, a, db))


def strength_right_first(k, da, db):
    flipped = bind(k, db, lambda b: strength(k, b, da))
    return dmap(k, lambda p: (p[1], p[0]), flipped)


def all_distributions(k, elements):
    """Every distribution on a finite set, as points of D(elements)."""
    return [point(d) for d in k.enum_states(tuple(elements))]


def test_unit_is_point_mass():
    d = unit(Q, "x")
    assert d["x"] == 1
    assert "y" not in d
    assert list(d.items()) == [("x", Fraction(1))]


def test_total_mass_enforced():
    with pytest.raises(BackendError):
        dist(Q, {"a": Fraction(1, 2), "b": Fraction(1, 3)})
    with pytest.raises(BackendError):
        dist(Q, {"a": Fraction(2, 3), "b": Fraction(2, 3)})


def test_map_preserves_unit():
    # naturality at the unit: D(f)(eta(a)) = eta(f(a)), brute force over a
    # three element set
    f = {"a": 1, "b": 1, "c": 2}.get
    for x in "abc":
        assert dmap(Q, f, unit(Q, x)) == unit(Q, f(x))


def test_mult_unit_law():
    phi = dist(Q, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    assert mult(Q, unit(Q, point(phi))) == phi
    assert mult(Q, dmap(Q, lambda x: point(unit(Q, x)), phi)) == phi


def test_mult_hand_example():
    # Phi = 1/2 eta(delta_a) + 1/2 eta(delta_b)  ==>  mu(Phi) = 1/2 a + 1/2 b
    da, db = point(unit(Q, "a")), point(unit(Q, "b"))
    h = Fraction(1, 2)
    big = dist(Q, {da: h, db: h})
    assert mult(Q, big) == dist(Q, {"a": h, "b": h})


def _assoc_holds(k, elements, window=None):
    """mu . mu == mu . D(mu) over depth-3 distributions, with mu . mu also
    taken as one Kleisli composite.

    The third level is enumerated exhaustively when feasible; otherwise over
    every support window of the given size (the laws are support-local, so
    bounded-support exhaustion still covers each combination of weights).
    """
    level1 = all_distributions(k, elements)
    level2 = all_distributions(k, level1)
    if window is None:
        outer = k.enum_states(tuple(level2))
    else:
        outer = []
        for i in range(len(level2)):
            for j in range(i + 1, min(i + 1 + window, len(level2))):
                outer.extend(k.enum_states((level2[i], level2[j])))
    for ddd in outer:
        lhs = mult(k, mult(k, ddd))
        rhs = mult(k, dmap(k, lambda dd: point(mult(k, dict(dd))), ddd))
        outer_mu = kleisli(k, ddd, dict)
        composite = k.compose(kleisli(k, outer_mu.cod, dict), outer_mu)
        if lhs != rhs or k.apply_state(composite, ddd) != lhs:
            return False
    return True


def test_monad_assoc_exhaustive_boolean():
    # over {0,1} the distributions are point masses, carriers up to 4
    assert _assoc_holds(B, list("wxyz"))


def test_monad_assoc_boolean_square():
    assert _assoc_holds(SQ, list("xy"), window=6)
    assert _assoc_holds(SQ, list("xyz"), window=2)


def test_monad_unit_laws_exhaustive_boolean_square():
    for elems in (list("xy"), list("xyzw")):
        for phi in SQ.enum_states(tuple(elems)):
            assert mult(SQ, unit(SQ, point(phi))) == phi
            assert mult(SQ, dmap(SQ, lambda x: point(unit(SQ, x)), phi)) == phi


def test_strength_formula():
    # t(a, phi)(a', b) = phi(b) if a = a' else 0 — the verbatim table
    phi = dist(Q, {"u": Fraction(1, 4), "v": Fraction(3, 4)})
    t = strength(Q, "a", phi)
    assert t[("a", "u")] == Fraction(1, 4)
    assert t[("a", "v")] == Fraction(3, 4)
    assert ("b", "u") not in t
    assert strength(Q, "a", unit(Q, "b")) == unit(Q, ("a", "b"))


def test_strength_marginal():
    phi = dist(Q, {"u": Fraction(1, 3), "v": Fraction(2, 3)})
    t = strength(Q, "a", phi)
    marg = dmap(Q, lambda p: p[1], t)
    assert marg == phi


def test_strength_exhaustive_small():
    for elems in (list("xy"), list("xyzw")):
        for phi in SQ.enum_states(tuple(elems)):
            t = strength(SQ, "c", phi)
            for b, w in phi.items():
                assert t[("c", b)] == w


def test_strength_composites_commute_when_commutative():
    # both composites agree because the scalars commute
    for k, elems in ((SQ, list("xy")), (Q, None)):
        if elems is not None:
            das = k.enum_states(tuple(elems))
            dbs = k.enum_states(("u", "v"))
            pairs = [(a, b) for a in das for b in dbs]
        else:
            rng = random.Random(12)
            pairs = []
            for _ in range(60):
                w = Fraction(rng.randint(0, 4), 4)
                da = dist(Q, {"a": w, "b": 1 - w})
                v = Fraction(rng.randint(0, 8), 8)
                db = dist(Q, {"u": v, "v": 1 - v})
                pairs.append((da, db))
        for da, db in pairs:
            assert strength_left_first(k, da, db) == strength_right_first(k, da, db)


def test_bind_matches_mult_of_map():
    rng = random.Random(13)
    for _ in range(50):
        w = Fraction(rng.randint(0, 6), 6)
        d = dist(Q, {"a": w, "b": 1 - w})
        f = lambda x: unit(Q, (x, x))
        assert bind(Q, d, f) == mult(Q, dmap(Q, lambda x: point(f(x)), d))
