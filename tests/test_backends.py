import inspect
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qpel.backends import make_backend
from qpel.backends.points import PointBackend
from qpel.backends.quantum import QMor, QuantumBackend
from qpel.backends.setb import SetBackend
from qpel.backends.stochastic import StochasticBackend
from qpel.triangle import (
    Backend,
    BackendError,
    check_meas_merge,
    check_meas_natural,
    check_meas_permutation,
    check_meas_zero,
    check_validity_natural,
    cotuple_n,
    dist_n,
    inj_n,
    nfold,
    tensor_all,
)

SB = SetBackend()
ST = StochasticBackend()
QB = QuantumBackend()


class Compositional:
    """The context reshuffles of the triangle definition: composites of the
    assoc, symmetry, unit and terminal maps, one factor at a time, the
    reference the backends' one-step reshuffles are compared against."""

    def drop_mor(self, obs, keep):
        if not obs:
            return self.identity(self.unit_ob())
        front, a = obs[:-1], obs[-1]
        rec = self.drop_mor(front, keep)
        if len(front) in keep:
            return self.tensor_mor(rec, self.identity(a))
        fo = tensor_all(self, front)
        discard = self.compose(
            self.unit_right(fo), self.tensor_mor(self.identity(fo), self.terminal(a))
        )
        return self.compose(rec, discard)

    def split_mor(self, obs, left):
        if not obs:
            return self.unit_left_inv(self.unit_ob())
        front, a = obs[:-1], obs[-1]
        rec = self.split_mor(front, left)
        gl = tensor_all(self, [b for i, b in enumerate(front) if i in left])
        gr = tensor_all(self, [b for i, b in enumerate(front) if i not in left])
        step = self.compose(self.assoc(gl, gr, a), self.tensor_mor(rec, self.identity(a)))
        if len(front) in left:
            fix = self.compose(
                self.assoc_inv(gl, a, gr),
                self.tensor_mor(self.identity(gl), self.symmetry(gr, a)),
            )
            return self.compose(fix, step)
        return step


class CompositionalSet(Compositional, SetBackend):
    pass


class CompositionalStochastic(Compositional, StochasticBackend):
    pass


class CompositionalQuantum(Compositional, QuantumBackend):
    """The quantum backend with the reshuffles and the symmetry of the
    triangle definition."""

    def symmetry(self, a, b):
        # each block conjugates by the permutation matrix that commutes the
        # Kronecker factors
        blocks = {}
        for i, d in enumerate(a):
            for j, e in enumerate(b):
                k = np.zeros((e * d, d * e))
                for x in range(d):
                    for y in range(e):
                        k[y * d + x, x * e + y] = 1.0
                blocks[(i * len(b) + j, j * len(a) + i)] = np.einsum("km,ln->klmn", k, k)
        return QMor(self.tensor_ob(a, b), self.tensor_ob(b, a), blocks)


def _set_obj(n):
    return tuple(f"p{i}" for i in range(n))


def _subset(a, members):
    """The set-backend predicate on a that is the subset `members`."""
    return {x: int(x in members) for x in a}


def test_set_triangle_laws_exhaustive():
    a = _set_obj(3)
    b = _set_obj(2)
    # all functions a -> b, as tables and as deterministic morphisms
    import itertools

    tables = [dict(zip(a, images)) for images in itertools.product(b, repeat=len(a))]
    assert len(tables) == 8
    for table in tables:
        f = SB._map(a, b, table.__getitem__)
        # functoriality of the predicate transformer
        assert SB.apply_pred(SB.identity(b), SB.pred_one(b)) == SB.pred_one(b)
        preds = SB.enum_preds(b)
        assert len(preds) == 4 and all(set(q.values()) <= {0, 1} for q in preds)
        for q in preds:
            pulled = SB.apply_pred(f, q)
            # the subset pulled back is the preimage
            assert pulled == {x: q[table[x]] for x in a}
            # hom conditions
            assert SB.apply_pred(f, SB.pred_orth(b, q)) == SB.pred_orth(a, pulled)
        states = SB.enum_states(a)
        # the states are the points, as point masses
        assert sorted(x for s in states for x in s) == sorted(a)
        assert all(s == {x: 1} for s in states for x in s)
        for s in states:
            for q in preds:
                assert check_validity_natural(SB, f, q, s)


def test_set_meas_axioms():
    a = _set_obj(4)
    preds = [_subset(a, {"p0"}), _subset(a, {"p1", "p2"}), _subset(a, {"p3"})]
    assert check_meas_permutation(SB, a, preds, (2, 3, 1))
    assert check_meas_zero(SB, a, preds)
    assert check_meas_merge(SB, a, preds[0], preds[1], [preds[2]])
    f = SB._map(_set_obj(2), a, {"p0": "p1", "p1": "p3"}.__getitem__)
    assert check_meas_natural(SB, f, preds)


@pytest.mark.parametrize("backend", [SB, ST], ids=["set", "stochastic"])
def test_points_outside_the_codomain_are_refused(backend):
    """Both constructors of a point morphism check that each row lands in the
    codomain, whose members are looked up rather than scanned."""
    a, b = _set_obj(2), _set_obj(3)
    one = backend.scalars.algebra.one
    f = backend._map(a, b, {"p0": "p2", "p1": "p0"}.__getitem__)
    assert f.rows == {"p0": {"p2": one}, "p1": {"p0": one}}
    with pytest.raises(BackendError, match="function lands outside its codomain: 'p3'"):
        backend._map(a, b, {"p0": "p2", "p1": "p3"}.__getitem__)
    with pytest.raises(BackendError, match="row lands outside the codomain: 'q'"):
        backend._mk(a, b, {"p0": {"p1": one}, "p1": {"q": one}})


def test_meas_single_outcome_is_terminal():
    for backend, obj in ((SB, _set_obj(3)), (ST, _set_obj(3)), (QB, (2,))):
        m = backend.meas(obj, [backend.pred_one(obj)])
        assert backend.mor_eq(m, backend.terminal(obj))


def test_stochastic_triangle_laws_random():
    rng = random.Random(21)
    a, b, c = _set_obj(3), _set_obj(2), _set_obj(2)
    for _ in range(25):
        f = ST.random_mor(a, b, rng)
        g = ST.random_mor(b, c, rng)
        q = ST.random_pred(c, rng)
        # contravariant functoriality, exact
        lhs = ST.apply_pred(f, ST.apply_pred(g, q))
        rhs = ST.apply_pred(ST.compose(g, f), q)
        assert lhs == rhs
        # module homomorphism per hom-object
        p1, p2 = ST.random_pred(b, rng), ST.random_pred(b, rng)
        s = ST.pred_ovee(p1, p2)
        if s is not None:
            t = ST.pred_ovee(ST.apply_pred(f, p1), ST.apply_pred(f, p2))
            assert t == ST.apply_pred(f, s)
        assert ST.apply_pred(f, ST.pred_orth(b, p1)) == ST.pred_orth(a, ST.apply_pred(f, p1))
        r = Fraction(rng.randint(0, 4), 4)
        assert ST.apply_pred(f, ST.pred_smul(r, p1)) == ST.pred_smul(r, ST.apply_pred(f, p1))
        # validity naturality
        st = ST.random_state(a, rng)
        assert check_validity_natural(ST, f, ST.random_pred(b, rng), st)


def test_stochastic_meas_axioms_exact():
    rng = random.Random(22)
    a = _set_obj(3)
    p1 = {x: Fraction(1, 4) for x in a}
    p2 = {x: Fraction(rng.randint(0, 2), 4) for x in a}
    p3 = {x: 1 - p1[x] - p2[x] for x in a}
    preds = [p1, p2, p3]
    assert check_meas_permutation(ST, a, preds, (3, 1, 2))
    assert check_meas_zero(ST, a, preds)
    assert check_meas_merge(ST, a, p1, p2, [p3])
    f = ST.random_mor(_set_obj(2), a, rng)
    assert check_meas_natural(ST, f, preds)


def test_boolean_embeds_into_stochastic():
    # the embedding of {0, 1} into [0, 1] is the identity on representations
    a, b = _set_obj(3), _set_obj(3)
    import itertools

    g_table = {y: f"p{i % 2}" for i, y in enumerate(b)}
    g = SB._map(b, _set_obj(2), g_table.__getitem__)
    sg = ST._map(b, _set_obj(2), g_table.__getitem__)
    assert ST.mor_eq(sg, g)
    for images in itertools.islice(itertools.product(b, repeat=len(a)), 10):
        table = dict(zip(a, images))
        f = SB._map(a, b, table.__getitem__)
        sf = ST._map(a, b, table.__getitem__)
        for x in a:
            assert sf.rows[x] == f.rows[x] == {table[x]: Fraction(1)}
        assert ST.mor_eq(sf, f)
        # composition commutes with the embedding
        assert ST.mor_eq(ST.compose(g, f), SB.compose(g, f))
        assert ST.mor_eq(ST.compose(sg, sf), SB.compose(g, f))


def test_quantum_functoriality_and_validity():
    rng = random.Random(24)
    for dims in [((2,), (2,)), ((2, 1), (3,)), ((2,), (2, 2))]:
        a, b = dims
        f = QB.random_channel(a, b, rng)
        g = QB.random_channel(b, (2,), rng)
        assert QB.is_channel(f) and QB.is_channel(g)
        gf = QB.compose(g, f)
        assert QB.is_channel(gf)
        q = QB.random_pred((2,), rng)
        lhs = QB.apply_pred(f, QB.apply_pred(g, q))
        rhs = QB.apply_pred(gf, q)
        assert all(np.linalg.norm((x - y).ravel()) < 1e-9 for x, y in zip(lhs, rhs))
        s = QB.random_state(a, rng)
        assert check_validity_natural(QB, f, QB.random_pred(b, rng), s)


def test_quantum_channels_preserve_states():
    rng = random.Random(25)
    for _ in range(10):
        f = QB.random_channel((2, 2), (3,), rng)
        s = QB.random_state((2, 2), rng)
        out = QB.apply_state(f, s)
        total = sum(np.trace(b).real for b in out)
        assert abs(total - 1) < 1e-9
        for blk in out:
            assert np.linalg.eigvalsh((blk + blk.conj().T) / 2).min() > -1e-9


def test_quantum_meas_axioms_tolerance():
    rng = random.Random(26)
    a = (3,)
    e1 = tuple(0.4 * x for x in QB.random_pred(a, rng))
    e2 = tuple(0.4 * x for x in QB.random_pred(a, rng))
    e3 = QB.pred_orth(a, QB.pred_ovee(e1, e2))
    preds = [e1, e2, e3]
    assert check_meas_permutation(QB, a, preds, (2, 3, 1))
    assert check_meas_zero(QB, a, preds)
    assert check_meas_merge(QB, a, e1, e2, [e3])
    f = QB.random_channel((2,), a, rng)
    assert check_meas_natural(QB, f, preds)


def test_quantum_heisenberg_adjoint_examples():
    # identity channel leaves effects alone
    e = QB.qbit_proj(Fraction(1, 2))
    out = QB.apply_pred(QB.identity((2,)), e)
    assert np.linalg.norm((out[0] - e[0]).ravel()) < 1e-12
    # unitary channel pulls back by conjugation
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    ch = QB.qbit_x()
    pulled = QB.apply_pred(ch, e)
    expected = u.conj().T @ e[0] @ u
    assert np.linalg.norm((pulled[0] - expected).ravel()) < 1e-12
    # duality against random states on a basis of density matrices
    rng = random.Random(27)
    f = QB.random_channel((2,), (2,), rng)
    q = QB.random_pred((2,), rng)
    for _ in range(20):
        rho = QB.random_state((2,), rng)
        lhs = QB.validity(QB.apply_pred(f, q), rho)
        rhs = QB.validity(q, QB.apply_state(f, rho))
        assert abs(lhs - rhs) < 1e-9


def test_meas_pullback_of_point_predicate():
    # pulling the first-outcome indicator back along meas(e, e_perp) gives e
    rng = random.Random(28)
    e = QB.random_pred((2,), rng)
    eperp = QB.pred_orth((2,), e)
    m = QB.meas((2,), [e, eperp])
    point = QB.pred_pair((1,), (1,), QB.pred_one((1,)), QB.pred_zero((1,)))
    pulled = QB.apply_pred(m, point)
    assert np.linalg.norm((pulled[0] - e[0]).ravel()) < 1e-9


def test_measure_channel_on_plus_state():
    plus = QB.state_of_mor(QB.qbit_plus_prep())
    e0 = (np.array([[1, 0], [0, 0]], dtype=complex),)
    e1 = (np.array([[0, 0], [0, 1]], dtype=complex),)
    m = QB.meas((2,), [e0, e1])
    out = QB.apply_state(m, plus)
    assert abs(np.trace(out[0]).real - 0.5) < 1e-12
    assert abs(np.trace(out[1]).real - 0.5) < 1e-12


def test_qubit_primitives():
    plus = QB.state_of_mor(QB.qbit_plus_prep())
    assert abs(np.trace(plus[0]).real - 1) < 1e-12
    assert np.linalg.matrix_rank(plus[0]) == 1
    assert QB.validity(QB.qbit_proj(Fraction(0)), plus) == pytest.approx(1.0)
    # CZ . (X (x) I) = (X (x) Z) . CZ within 1e-9
    cz = QB.qbit_cz()
    lhs = QB.compose(cz, QB.tensor_mor(QB.qbit_x(), QB.identity((2,))))
    rhs = QB.compose(QB.tensor_mor(QB.qbit_x(), QB.qbit_z()), cz)
    assert QB.mor_eq(lhs, rhs)
    # Z |+> lands on the minus state, orthogonal to |+>
    minus = QB.apply_state(QB.qbit_z(), plus)
    assert QB.validity(QB.qbit_proj(Fraction(0)), minus) == pytest.approx(0.0, abs=1e-12)


def test_dist_n_and_injections_roundtrip():
    for backend, obj in ((SB, _set_obj(2)), (ST, _set_obj(2)), (QB, (2,))):
        unit = backend.unit_ob()
        n = 3
        # kappa_i then the big cotuple is the identity on each leg
        legs = [inj_n(backend, obj, i, n) for i in range(n)]
        co = cotuple_n(backend, [backend.identity(obj)] * n)
        for leg in legs:
            assert backend.mor_eq(backend.compose(co, leg), backend.identity(obj))
        d = dist_n(backend, n, obj)
        assert backend.dom(d) == backend.tensor_ob(obj, nfold(backend, unit, n))
        assert backend.cod(d) == nfold(backend, obj, n)


def test_registry():
    assert make_backend("set").name == "set"
    assert make_backend("stochastic").name == "stochastic"
    assert make_backend("quantum").name == "quantum"
    with pytest.raises(ValueError):
        make_backend("nope")


# qubit, unit, I+I, qbit+I and nested types: (qbit*qbit)+I, (I+I)+qbit, I+(I+I)
RESHUFFLE_FACTORS = [(2,), (1,), (1, 1), (2, 1), (4, 1), (1, 1, 2), (1, 1, 1)]


def _random_factors(rng, max_dim=16):
    """A context of up to five factors whose largest block is at most max_dim."""
    while True:
        obs = [rng.choice(RESHUFFLE_FACTORS) for _ in range(rng.randint(1, 5))]
        if np.prod([max(a) for a in obs]) <= max_dim:
            return obs


def _assert_same_map(f, g):
    assert f.dom == g.dom and f.cod == g.cod
    assert QB.mor_eq(f, g)


def test_quantum_reshuffles_equal_the_triangle_definition():
    ref = CompositionalQuantum()
    for a in RESHUFFLE_FACTORS + [(2, 2), (1, 2, 1)]:
        for b in RESHUFFLE_FACTORS + [(2, 2), (1, 2, 1)]:
            f, g = QB.symmetry(a, b), ref.symmetry(a, b)
            assert (f.dom, f.cod) == (g.dom, g.cod) and f.blocks.keys() == g.blocks.keys()
            assert all(np.array_equal(f.blocks[k], g.blocks[k]) for k in g.blocks), (a, b)
    rng = random.Random(41)
    cases = [([], set())]
    for _ in range(60):
        obs = _random_factors(rng)
        n = len(obs)
        cases.append((obs, {i for i in range(n) if rng.random() < 0.5}))
        cases.append((obs, set(range(n))))  # everything left, or keep everything
        cases.append((obs, set()))  # everything right, or keep nothing
    # more unit factors than an ndarray may have axes (64 in NumPy 2)
    for _ in range(3):
        obs = [(1,)] * 70
        for k in rng.sample(range(70), 3):
            obs[k] = rng.choice([(2,), (1, 1), (2, 1)])
        cases.append((obs, {i for i in range(70) if rng.random() < 0.5}))
    for obs, idx in cases:
        _assert_same_map(QB.split_mor(obs, idx), ref.split_mor(obs, idx))
        _assert_same_map(QB.drop_mor(obs, idx), ref.drop_mor(obs, idx))
        assert QB.is_channel(QB.drop_mor(obs, idx))


def _point_objects(b):
    """unit, I+I, (I+I)+I, (I+I)*(I+I) and I+((I+I)*I) as point tuples."""
    unit = b.unit_ob()
    two = b.sum_ob(unit, unit)
    return [unit, two, b.sum_ob(two, unit), b.tensor_ob(two, two),
            b.sum_ob(unit, b.tensor_ob(two, unit))]


@pytest.mark.parametrize("backend, ref", [(SB, CompositionalSet()),
                                          (ST, CompositionalStochastic())],
                         ids=["set", "stochastic"])
def test_point_reshuffles_equal_the_triangle_definition(backend, ref):
    objects = _point_objects(backend)
    rng = random.Random(43)
    cases = [([], set())]
    for _ in range(60):
        while True:
            obs = [rng.choice(objects) for _ in range(rng.randint(1, 5))]
            if np.prod([len(a) for a in obs]) <= 64:
                break
        n = len(obs)
        cases.append((obs, {i for i in range(n) if rng.random() < 0.5}))
        cases.append((obs, set(range(n))))
        cases.append((obs, set()))
    for obs, idx in cases:
        for got, want in ((backend.split_mor(obs, idx), ref.split_mor(obs, idx)),
                          (backend.drop_mor(obs, idx), ref.drop_mor(obs, idx))):
            assert (got.dom, got.cod) == (want.dom, want.cod), (obs, idx)
            assert got.rows == want.rows, (obs, idx)


def _same_map(backend, f, g):
    """f and g are equal to the bit: the same rows, or the same blocks."""
    if (f.dom, f.cod) != (g.dom, g.cod):
        return False
    if backend is QB:
        return f.blocks.keys() == g.blocks.keys() and all(
            np.array_equal(f.blocks[k], g.blocks[k]) for k in f.blocks)
    return f.rows == g.rows


@pytest.mark.parametrize("backend", [SB, ST, QB], ids=["set", "stochastic", "quantum"])
def test_dist_right_inverts_the_canonical_map(backend):
    """Right distributivity is the inverse of [id (x) inj1, id (x) inj2] :
    A (x) B + A (x) C -> A (x) (B+C), exactly: the category is distributive."""
    objects = RESHUFFLE_FACTORS if backend is QB else _point_objects(backend)
    for a in objects:
        for b in objects:
            for c in objects:
                ida = backend.identity(a)
                canonical = backend.cotuple(backend.tensor_mor(ida, backend.inj1(b, c)),
                                            backend.tensor_mor(ida, backend.inj2(b, c)))
                dist = backend.dist_right(a, b, c)
                there = backend.compose(dist, canonical)
                back = backend.compose(canonical, dist)
                assert _same_map(backend, there, backend.identity(backend.dom(canonical))), (a, b, c)
                assert _same_map(backend, back, backend.identity(backend.dom(dist))), (a, b, c)


def test_quantum_compose_is_the_block_contraction():
    rng = random.Random(42)
    objects = [(2,), (1, 2), (2, 1, 3), (4,), (1, 1)]
    for _ in range(20):
        a, b, c = (rng.choice(objects) for _ in range(3))
        f = QB.random_channel(a, b, rng)
        g = QB.random_channel(b, c, rng)
        want = {}
        for (i, j), tf in f.blocks.items():
            for (j2, k), tg in g.blocks.items():
                if j2 == j:
                    want[(i, k)] = want.get((i, k), 0) + np.einsum("klmn,mnij->klij", tg, tf)
        gf = QB.compose(g, f)
        assert (gf.dom, gf.cod) == (a, c) and set(gf.blocks) == set(want)
        for key, t in want.items():
            assert gf.blocks[key].shape == t.shape
            assert np.abs(gf.blocks[key] - t).max() < 1e-12


def test_every_backend_method_is_named_outside_its_definitions():
    """Each public method that `Backend`, `PointBackend` or a backend defines
    is named somewhere in the sources, tests, scripts or benchmark other than
    where it is defined: interface that nothing calls goes."""
    root = Path(__file__).resolve().parent.parent
    text = "\n".join(path.read_text(encoding="utf-8")
                     for part in ("src", "tests", "scripts", "perfbench")
                     for path in sorted((root / part).rglob("*.py")))
    names = {name
             for cls in (Backend, PointBackend, SetBackend, StochasticBackend, QuantumBackend)
             for name, member in vars(cls).items()
             if inspect.isfunction(member) and not name.startswith("_")}
    assert len(names) > 40
    unnamed = sorted(name for name in names if not re.search(rf"(?<!def )\b{name}\b", text))
    assert unnamed == []
