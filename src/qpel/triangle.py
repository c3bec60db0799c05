"""Abstract state-and-effect backend interface and generic helpers.

A backend supplies a symmetric monoidal category with distributive binary
coproducts and terminal tensor unit, scalars embedded from rational literals
and compared, an effect module of predicates over each object with a
contravariant predicate transformer, a set of states with a forward
transformer, measurement morphisms, and the validity pairing between
predicates and states.  Two implementations stand behind it:
`backends.points.PointBackend`, the Kleisli category of the distribution
monad over an effect monoid of scalars, whose instances are the set and
stochastic backends, and `backends.quantum.QuantumBackend`.  Test-data
draws (`random_state`, `random_pred`) are not part of the interface.

Distributivity is declared once, as `dist_right`: the interpreter splits a
scrutinee's factor off last, so it composes no symmetry.

n-ary coproducts are derived here by left nesting, which makes the
zero-extension measurement axiom literal: (n+1)-fold I is (n-fold I) + I and
the embedding is the first injection.
"""
from __future__ import annotations

from abc import ABC, abstractmethod


class BackendError(Exception):
    pass


class Backend(ABC):
    name: str
    has_qbit = False

    def __init__(self):
        # the interpreter's denotations of types and formation judgements,
        # one entry each for as long as this backend lives (see
        # `interpreter.interpret`); what it holds is shared, never written to
        self.memo = {}

    # ---- scalars
    def s_eq(self, a, b):
        return a == b

    def scalar_of_fraction(self, q):
        """Embed a rational probability literal, when the scalars allow it."""
        raise BackendError(f"backend {self.name} has no scalar for {q}")

    # ---- objects
    @abstractmethod
    def unit_ob(self): ...
    @abstractmethod
    def tensor_ob(self, a, b): ...
    @abstractmethod
    def sum_ob(self, a, b): ...
    def qbit_ob(self):
        raise BackendError(f"backend {self.name} has no qubit object")

    # ---- morphisms
    @abstractmethod
    def identity(self, a): ...
    @abstractmethod
    def compose(self, g, f): ...
    @abstractmethod
    def tensor_mor(self, f, g): ...
    @abstractmethod
    def dom(self, f): ...
    @abstractmethod
    def cod(self, f): ...
    @abstractmethod
    def symmetry(self, a, b): ...
    @abstractmethod
    def assoc(self, a, b, c): ...
    @abstractmethod
    def assoc_inv(self, a, b, c): ...
    @abstractmethod
    def unit_left(self, a): ...
    @abstractmethod
    def unit_left_inv(self, a): ...
    @abstractmethod
    def unit_right(self, a): ...
    @abstractmethod
    def terminal(self, a): ...
    @abstractmethod
    def inj1(self, a, b): ...
    @abstractmethod
    def inj2(self, a, b): ...
    @abstractmethod
    def cotuple(self, f, g): ...
    @abstractmethod
    def dist_right(self, a, b, c):
        """A (x) (B+C) -> A (x) B + A (x) C, the inverse of the cotuple of
        id (x) inj1 and id (x) inj2."""
    @abstractmethod
    def mor_eq(self, f, g): ...

    # ---- context reshuffles
    # A context denotes the left-nested tensor of its factors over the unit;
    # these two maps are its structural morphisms, given by the list of factor
    # objects and a set of factor indices.  Each backend builds them in one
    # step; the tests compare them with the composites of the monoidal
    # structure, one factor at a time.
    @abstractmethod
    def drop_mor(self, obs, keep):
        """Discard the factors whose index is not in `keep`."""
    @abstractmethod
    def split_mor(self, obs, left):
        """The iso to the tensor of the factors whose index is in `left` with
        the rest, both in order."""

    # ---- predicates
    @abstractmethod
    def pred_zero(self, a): ...
    @abstractmethod
    def pred_one(self, a): ...
    @abstractmethod
    def pred_ovee(self, p, q): ...
    @abstractmethod
    def pred_orth(self, a, p):
        """Orthosupplement within P(a)."""
    @abstractmethod
    def pred_smul(self, r, p): ...
    @abstractmethod
    def pred_eq(self, p, q): ...
    @abstractmethod
    def pred_leq(self, p, q): ...
    @abstractmethod
    def apply_pred(self, f, q):
        """P(f): pull a predicate on cod(f) back along f."""
    @abstractmethod
    def pred_pair(self, a, b, p, q):
        """P(A) x P(B) -> P(A+B), the coproduct preservation iso."""
    @abstractmethod
    def scalar_of_pred(self, p):
        """P(I) ~ E."""
    def pred_of_scalar(self, a, r):
        return self.pred_smul(r, self.pred_one(a))

    # ---- states
    @abstractmethod
    def unit_state(self): ...
    @abstractmethod
    def apply_state(self, f, s): ...
    @abstractmethod
    def validity(self, p, s): ...
    def state_of_mor(self, f):
        """The state picked out by a morphism from the tensor unit."""
        return self.apply_state(f, self.unit_state())

    # ---- measurement
    @abstractmethod
    def meas(self, a, preds): ...

    # ---- qubit primitives (quantum backend only)
    def qbit_plus_prep(self):
        raise BackendError(f"backend {self.name} has no qubit primitives")

    def qbit_x(self):
        raise BackendError(f"backend {self.name} has no qubit primitives")

    def qbit_z(self):
        raise BackendError(f"backend {self.name} has no qubit primitives")

    def qbit_cz(self):
        raise BackendError(f"backend {self.name} has no qubit primitives")

    def qbit_proj(self, angle):
        raise BackendError(f"backend {self.name} has no qubit primitives")


# ------------------------------------------------------------- n-ary helpers


def tensor_all(backend: Backend, obs):
    """Left-nested tensor of a list of objects over the unit."""
    out = backend.unit_ob()
    for a in obs:
        out = backend.tensor_ob(out, a)
    return out


def nfold(backend: Backend, a, n: int):
    """Left-nested n-fold coproduct of one object."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = a
    for _ in range(n - 1):
        out = backend.sum_ob(out, a)
    return out


def inj_n(backend: Backend, a, i: int, n: int):
    """i-th injection (0-based) into the left-nested n-fold sum of a."""
    if not 0 <= i < n:
        raise ValueError("injection index out of range")
    if n == 1:
        return backend.identity(a)
    left = nfold(backend, a, n - 1)
    if i == n - 1:
        return backend.inj2(left, a)
    return backend.compose(backend.inj1(left, a), inj_n(backend, a, i, n - 1))


def cotuple_n(backend: Backend, fs):
    """[f_1, ..., f_n] out of the left-nested n-fold sum."""
    fs = list(fs)
    out = fs[0]
    for f in fs[1:]:
        out = backend.cotuple(out, f)
    return out


def perm_mor(backend: Backend, a, perm):
    """pi_p on the n-fold sum of a with pi_p . kappa_i = kappa_{p(i)};
    perm is 1-indexed as in permutations of {1..n}."""
    n = len(perm)
    return cotuple_n(
        backend, [inj_n(backend, a, perm[i] - 1, n) for i in range(n)]
    )


def dist_n(backend: Backend, n: int, delta):
    """Delta (x) (n-fold I) -> n-fold Delta."""
    unit = backend.unit_ob()
    if n == 1:
        return backend.unit_right(delta)
    step = backend.dist_right(delta, nfold(backend, unit, n - 1), unit)
    target_left = nfold(backend, delta, n - 1)
    glue = backend.cotuple(
        backend.compose(backend.inj1(target_left, delta), dist_n(backend, n - 1, delta)),
        backend.compose(backend.inj2(target_left, delta), backend.unit_right(delta)),
    )
    return backend.compose(glue, step)


def compose_all(backend: Backend, *morphisms):
    """Right-to-left composite of a pipeline of morphisms."""
    out = morphisms[0]
    for f in morphisms[1:]:
        out = backend.compose(out, f)
    return out


# ------------------------------------------------ measurement axiom checking


def check_meas_permutation(backend, a, preds, perm) -> bool:
    """meas(r_{p(1)}..r_{p(n)}) = pi_p . meas(r_1..r_n)."""
    permuted = [preds[perm[i] - 1] for i in range(len(perm))]
    lhs = backend.meas(a, permuted)
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p - 1] = i + 1
    rhs = backend.compose(perm_mor(backend, backend.unit_ob(), inverse), backend.meas(a, preds))
    return backend.mor_eq(lhs, rhs)


def check_meas_zero(backend, a, preds) -> bool:
    """meas(r_1..r_n, 0) = kappa_1 . meas(r_1..r_n)."""
    n = len(preds)
    lhs = backend.meas(a, list(preds) + [backend.pred_zero(a)])
    unit = backend.unit_ob()
    k1 = backend.inj1(nfold(backend, unit, n), unit)
    rhs = backend.compose(k1, backend.meas(a, preds))
    return backend.mor_eq(lhs, rhs)


def check_meas_merge(backend, a, p, q, rest) -> bool:
    """meas(p o+ q, r_1..r_n) = [k1,k1,k2..k_{n+1}] . meas(p, q, r_1..r_n)."""
    s = backend.pred_ovee(p, q)
    if s is None:
        raise BackendError("p and q are not orthogonal")
    lhs = backend.meas(a, [s] + list(rest))
    n = len(rest)
    unit = backend.unit_ob()
    legs = [inj_n(backend, unit, 0, n + 1), inj_n(backend, unit, 0, n + 1)]
    legs += [inj_n(backend, unit, i + 1, n + 1) for i in range(n)]
    rhs = backend.compose(cotuple_n(backend, legs), backend.meas(a, [p, q] + list(rest)))
    return backend.mor_eq(lhs, rhs)


def check_meas_natural(backend, f, preds) -> bool:
    """meas_B(r) . f = meas_A(P f r) for f : A -> B."""
    lhs = backend.compose(backend.meas(backend.cod(f), preds), f)
    pulled = [backend.apply_pred(f, r) for r in preds]
    rhs = backend.meas(backend.dom(f), pulled)
    return backend.mor_eq(lhs, rhs)


def check_validity_natural(backend, f, q, s) -> bool:
    """validity(P f q, s) = validity(q, S f s): alpha and beta are natural."""
    lhs = backend.validity(backend.apply_pred(f, q), s)
    rhs = backend.validity(q, backend.apply_state(f, s))
    return backend.s_eq(lhs, rhs)
