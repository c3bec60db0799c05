"""The quantum backend: finite direct sums of matrix algebras.

An object is a tuple of block dimensions (d1, ..., dk) standing for the
algebra  Mat(d1) + ... + Mat(dk).  A morphism is a completely positive
trace-preserving map stored blockwise as 4-index tensors T[(i, j)] with

    F(rho)_j[k, l] = sum_i T[(i,j)][k, l, a, b] * rho_i[a, b],

so composition is a matrix product of each pair of blocks reshaped to
(e*e, m*m) and (m*m, d*d), while tensoring and the Heisenberg adjoint are
einsum contractions.  Tensor and coproduct act on block lists (Kronecker /
concatenation), which makes the associator and the unit isos literal
identities on this representation, and right distributivity a relabelling
of identity blocks.  The symmetry is the reshuffle that swaps two factors;
it and the context reshuffles (`split_mor`, `drop_mor`) are built in one
step, each block a permutation of the Kronecker factors' indices followed by
a partial trace, instead of as the generic composites of structural maps
(Wood, Biamonte & Cory, arXiv:1111.6950).
A closed term is evaluated on states instead of maps: `reshuffle_state`
moves a density matrix over a list of factors and `apply_trailing` applies a
channel to the trailing ones, at the cost of the state and the channel, not
of a map on the whole context (local updates as in QuEST, arXiv:1802.08032).
Numeric equality is Frobenius distance within 1e-9.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..triangle import Backend, BackendError, nfold, tensor_all

TOL = 1e-9


@dataclass
class QMor:
    dom: tuple
    cod: tuple
    blocks: dict  # (in_block, out_block) -> ndarray (e, e, d, d)


def _ident_tensor(d: int) -> np.ndarray:
    eye = np.eye(d)
    return np.einsum("ac,bd->abcd", eye, eye)


class QuantumBackend(Backend):
    name = "quantum"
    has_qbit = True

    # scalars: floats in [0,1] up to tolerance
    def s_eq(self, a, b):
        return abs(a - b) <= 1e-9

    def scalar_of_fraction(self, q):
        return float(q)

    # objects
    def unit_ob(self):
        return (1,)

    def tensor_ob(self, a, b):
        return tuple(d * e for d in a for e in b)

    def sum_ob(self, a, b):
        return tuple(a) + tuple(b)

    def qbit_ob(self):
        return (2,)

    # morphisms
    def identity(self, a):
        return QMor(a, a, {(i, i): _ident_tensor(d) for i, d in enumerate(a)})

    def compose(self, g, f):
        if f.cod != g.dom:
            raise BackendError("composition domain mismatch")
        blocks = {}
        for (i, j), tf in f.blocks.items():
            for (j2, k), tg in g.blocks.items():
                if j2 != j:
                    continue
                e, m, d = tg.shape[0], tf.shape[0], tf.shape[2]
                acc = (tg.reshape(e * e, m * m) @ tf.reshape(m * m, d * d)).reshape(e, e, d, d)
                key = (i, k)
                blocks[key] = acc + blocks[key] if key in blocks else acc
        return QMor(f.dom, g.cod, blocks)

    def tensor_mor(self, f, g):
        dom = self.tensor_ob(f.dom, g.dom)
        cod = self.tensor_ob(f.cod, g.cod)
        nb_g_in, nb_g_out = len(g.dom), len(g.cod)
        blocks = {}
        for (i1, j1), t1 in f.blocks.items():
            for (i2, j2), t2 in g.blocks.items():
                e1, d1 = t1.shape[0], t1.shape[2]
                e2, d2 = t2.shape[0], t2.shape[2]
                t = np.einsum("abcd,efgh->aebfcgdh", t1, t2).reshape(
                    e1 * e2, e1 * e2, d1 * d2, d1 * d2
                )
                blocks[(i1 * nb_g_in + i2, j1 * nb_g_out + j2)] = t
        return QMor(dom, cod, blocks)

    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

    def symmetry(self, a, b):
        return self._reshuffle([a, b], [1, 0], [])

    def assoc(self, a, b, c):
        # block dims and flat order coincide; the Kronecker product associates
        obj = self.tensor_ob(self.tensor_ob(a, b), c)
        f = self.identity(obj)
        return QMor(obj, self.tensor_ob(a, self.tensor_ob(b, c)), f.blocks)

    def assoc_inv(self, a, b, c):
        obj = self.tensor_ob(a, self.tensor_ob(b, c))
        f = self.identity(obj)
        return QMor(obj, self.tensor_ob(self.tensor_ob(a, b), c), f.blocks)

    def unit_left(self, a):
        f = self.identity(a)
        return QMor(self.tensor_ob((1,), a), a, f.blocks)

    def unit_left_inv(self, a):
        f = self.identity(a)
        return QMor(a, self.tensor_ob((1,), a), f.blocks)

    def unit_right(self, a):
        f = self.identity(a)
        return QMor(self.tensor_ob(a, (1,)), a, f.blocks)

    def terminal(self, a):
        blocks = {}
        for i, d in enumerate(a):
            t = np.zeros((1, 1, d, d), dtype=complex)
            t[0, 0] = np.eye(d)
            blocks[(i, 0)] = t
        return QMor(a, (1,), blocks)

    def drop_mor(self, obs, keep):
        n = range(len(obs))
        return self._reshuffle(obs, [k for k in n if k in keep], [k for k in n if k not in keep])

    def split_mor(self, obs, left):
        n = range(len(obs))
        return self._reshuffle(obs, [k for k in n if k in left] + [k for k in n if k not in left], [])

    def _reshuffle(self, obs, kept, dropped):
        """The channel from the tensor of the factors `obs` to the tensor of
        the factors at the indices `kept`, in that order, tracing out those
        at `dropped`.  Each block is an index permutation: V sends the
        Kronecker basis of the input block to (kept, dropped) multi-indices,
        and the block is V rho V^T summed over the dropped index."""
        blocks = {}
        for i, j, dims, axes, e in _permutations(obs, kept, dropped):
            d = math.prod(dims)
            v = np.eye(d).reshape(dims + [d])
            v = v.transpose(axes + [len(dims)]).reshape(e, d // e, d)
            blocks[(i, j)] = np.einsum("kja,ljb->klab", v, v)
        return QMor(tensor_all(self, obs), tensor_all(self, [obs[k] for k in kept]), blocks)

    # states over a list of factors: a state on tensor_all(obs), so its
    # blocks run over the factors' block multi-indices in flat order, the
    # first factor's most significant, and adjacent factors merge for free

    def reshuffle_state(self, s, obs, kept):
        """The state on the factors at the indices `kept`, in that order, of
        the state s on the factors `obs`, the others traced out: s pushed
        along `_reshuffle`, at the cost of permuting its entries."""
        # factors I carry neither a block index nor an axis
        live = [k for k, a in enumerate(obs) if a != (1,)]
        kept = [k for k in kept if obs[k] != (1,)]
        if kept == live:
            return s
        pos = {k: n for n, k in enumerate(live)}
        obs, kept = [obs[k] for k in live], [pos[k] for k in kept]
        dropped = [k for k in range(len(obs)) if k not in kept]
        out = [None] * math.prod(len(obs[k]) for k in kept)
        for i, j, dims, axes, e in _permutations(obs, kept, dropped):
            n, rest = len(dims), math.prod(dims) // e
            rho = s[i].reshape(dims + dims).transpose(axes + [n + a for a in axes])
            rho = np.trace(rho.reshape(e, rest, e, rest), axis1=1, axis2=3)
            out[j] = rho if out[j] is None else out[j] + rho
        return tuple(out)

    def apply_trailing(self, f, s, rest):
        """(id (x) f) applied to the state s on rest (x) dom(f): one
        contraction of each block of f with the trailing factor's indices."""
        n = len(f.dom)
        out = [np.zeros((r * e, r * e), dtype=complex) for r in rest for e in f.cod]
        for (i, j), t in f.blocks.items():
            e, d = t.shape[0], t.shape[2]
            t = t.reshape(e * e, d * d)
            for k, r in enumerate(rest):
                rho = s[k * n + i].reshape(r, d, r, d).transpose(1, 3, 0, 2).reshape(d * d, r * r)
                rho = (t @ rho).reshape(e, e, r, r).transpose(2, 0, 3, 1)
                out[k * len(f.cod) + j] += rho.reshape(r * e, r * e)
        return tuple(out)

    def inj1(self, a, b):
        return QMor(a, self.sum_ob(a, b), {(i, i): _ident_tensor(d) for i, d in enumerate(a)})

    def inj2(self, a, b):
        off = len(a)
        return QMor(b, self.sum_ob(a, b), {(i, off + i): _ident_tensor(d) for i, d in enumerate(b)})

    def cotuple(self, f, g):
        if f.cod != g.cod:
            raise BackendError("cotuple codomain mismatch")
        dom = self.sum_ob(f.dom, g.dom)
        off = len(f.dom)
        blocks = dict(f.blocks)
        blocks.update({(off + i, j): t for (i, j), t in g.blocks.items()})
        return QMor(dom, f.cod, blocks)

    def dist_right(self, a, b, c):
        # block (i, k) of A (x) (B+C) is block (i, k) of A (x) B, or block
        # (i, k - |B|) of A (x) C: identity blocks, relabelled
        bc, nb, nc = self.sum_ob(b, c), len(b), len(c)
        blocks = {}
        for i, d in enumerate(a):
            for k, e in enumerate(bc):
                j = i * nb + k if k < nb else len(a) * nb + i * nc + k - nb
                blocks[(i * len(bc) + k, j)] = _ident_tensor(d * e)
        return QMor(self.tensor_ob(a, bc),
                    self.sum_ob(self.tensor_ob(a, b), self.tensor_ob(a, c)), blocks)

    def mor_eq(self, f, g):
        if f.dom != g.dom or f.cod != g.cod:
            return False
        keys = set(f.blocks) | set(g.blocks)
        for k in keys:
            tf = f.blocks.get(k)
            tg = g.blocks.get(k)
            if tf is None:
                tf = np.zeros_like(tg)
            if tg is None:
                tg = np.zeros_like(tf)
            if np.linalg.norm((tf - tg).ravel()) > TOL:
                return False
        return True

    # predicates: tuples of hermitian blocks with 0 <= E <= I
    def pred_zero(self, a):
        return tuple(np.zeros((d, d), dtype=complex) for d in a)

    def pred_one(self, a):
        return tuple(np.eye(d, dtype=complex) for d in a)

    def pred_ovee(self, p, q):
        s = tuple(x + y for x, y in zip(p, q))
        for blk in s:
            if np.linalg.eigvalsh(blk).max() > 1 + 1e-7:
                return None
        return s

    def pred_orth(self, a, p):
        return tuple(np.eye(d) - blk for d, blk in zip(a, p))

    def pred_smul(self, r, p):
        return tuple(float(r) * blk for blk in p)

    def pred_eq(self, p, q):
        return all(np.linalg.norm((x - y).ravel()) <= TOL for x, y in zip(p, q))

    def pred_leq(self, p, q):
        return all(np.linalg.eigvalsh(y - x).min() >= -TOL for x, y in zip(p, q))

    def apply_pred(self, f, q):
        """Heisenberg adjoint: the unique e with Tr(e rho) = Tr(q F(rho))."""
        out = []
        for i, d in enumerate(f.dom):
            acc = np.zeros((d, d), dtype=complex)
            for (i2, j), t in f.blocks.items():
                if i2 == i:
                    acc += np.einsum("banm,ab->mn", t, q[j])
            out.append(acc)
        return tuple(out)

    def pred_pair(self, a, b, p, q):
        return tuple(p) + tuple(q)

    def scalar_of_pred(self, p):
        return float(p[0][0, 0].real)

    # states: tuples of positive blocks with total trace 1
    def unit_state(self):
        return (np.array([[1.0 + 0j]]),)

    def apply_state(self, f, s):
        out = [np.zeros((e, e), dtype=complex) for e in f.cod]
        for (i, j), t in f.blocks.items():
            out[j] += np.einsum("klij,ij->kl", t, s[i])
        return tuple(out)

    def validity(self, p, s):
        return float(sum(np.trace(e @ rho).real for e, rho in zip(p, s)))

    def random_state(self, a, rng):
        weights = [rng.random() for _ in a]
        total = sum(weights)
        out = []
        for d, w in zip(a, weights):
            g = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)] for _ in range(d)])
            rho = g @ g.conj().T
            rho = rho / np.trace(rho).real * (w / total)
            out.append(rho)
        return tuple(out)

    def random_pred(self, a, rng):
        out = []
        for d in a:
            g = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)] for _ in range(d)])
            h = g @ g.conj().T
            top = np.linalg.eigvalsh(h).max()
            scale = rng.random() / max(top, 1e-12)
            out.append(h * scale)
        return tuple(out)

    def random_channel(self, a, b, rng):
        """Random CPTP map built from a Stinespring isometry per input block,
        spread across the output blocks."""
        blocks = {}
        for i, d in enumerate(a):
            env = len(b) + 1
            iso = _random_isometry(d, sum(e * env for e in b), rng)
            offset = 0
            for j, e in enumerate(b):
                v = iso[offset : offset + e * env, :].reshape(e, env, d)
                offset += e * env
                t = np.einsum("kma,lmb->klab", v, v.conj())
                blocks[(i, j)] = t
        return QMor(a, b, blocks)

    # measurement
    def meas(self, a, preds):
        total = self.pred_zero(a)
        total = tuple(sum(p[i] for p in preds) + total[i] for i in range(len(a)))
        for d, blk in zip(a, total):
            if np.linalg.norm((blk - np.eye(d)).ravel()) > 1e-7:
                raise BackendError("measurement effects do not sum to the identity")
        n = len(preds)
        cod = nfold(self, (1,), n)
        blocks = {}
        for i, d in enumerate(a):
            for j in range(n):
                t = np.zeros((1, 1, d, d), dtype=complex)
                t[0, 0] = preds[j][i].T
                blocks[(i, j)] = t
        return QMor(a, cod, blocks)

    # qubit primitives
    def qbit_plus_prep(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        t = rho.reshape(2, 2, 1, 1)
        return QMor((1,), (2,), {(0, 0): t})

    def _unitary_channel(self, u):
        t = np.einsum("ki,lj->klij", u, u.conj())
        return QMor((u.shape[0],), (u.shape[0],), {(0, 0): t})

    def qbit_x(self):
        return self._unitary_channel(np.array([[0, 1], [1, 0]], dtype=complex))

    def qbit_z(self):
        return self._unitary_channel(np.array([[1, 0], [0, -1]], dtype=complex))

    def qbit_cz(self):
        return self._unitary_channel(np.diag([1, 1, 1, -1]).astype(complex))

    def qbit_proj(self, angle: Fraction):
        """Projector onto (|0> + e^{i a}|1>)/sqrt(2) with a = angle * pi."""
        a = math.pi * float(angle)
        ph = cmath.exp(1j * a)
        return (np.array([[0.5, 0.5 * ph.conjugate()], [0.5 * ph, 0.5]], dtype=complex),)

    # channel validation, used by tests
    def choi_blocks(self, f):
        out = {}
        for (i, j), t in f.blocks.items():
            e, d = t.shape[0], t.shape[2]
            out[(i, j)] = np.transpose(t, (2, 0, 3, 1)).reshape(d * e, d * e)
        return out

    def is_channel(self, f, tol=TOL) -> bool:
        for (i, j), c in self.choi_blocks(f).items():
            if np.linalg.eigvalsh((c + c.conj().T) / 2).min() < -1e-7:
                return False
            if np.linalg.norm((c - c.conj().T).ravel()) > 1e-7:
                return False
        for i, d in enumerate(f.dom):
            acc = np.zeros((d, d), dtype=complex)
            for (i2, j), t in f.blocks.items():
                if i2 == i:
                    acc += np.einsum("kkab->ab", t)
            if np.abs(acc - np.eye(d)).max() > 1e-7:
                return False
        return True


def _permutations(obs, kept, dropped):
    """For each block of the tensor of the factors `obs`, in flat order: its
    index i, the index j of the block of the tensor of the factors at `kept`
    it lands in, the dimensions of its indexed factors, the axis order that
    puts the kept factors first (in the order of `kept`) and the dropped ones
    after, and the kept dimension e.  Factors of dimension 1 in a block carry
    no index and get no axis, so a context of any number of `I` entries stays
    within NumPy's limit on axes."""
    # product() runs over the block multi-indices in the flat block order
    for i, b in enumerate(itertools.product(*(range(len(a)) for a in obs))):
        j = 0
        for k in kept:
            j = j * len(obs[k]) + b[k]
        dims = [a[x] for a, x in zip(obs, b)]
        e = math.prod(dims[k] for k in kept)
        indexed = [k for k in range(len(obs)) if dims[k] > 1]
        axis = {k: n for n, k in enumerate(indexed)}
        axes = [axis[k] for k in kept + dropped if k in axis]
        yield i, j, [dims[k] for k in indexed], axes, e


def _random_isometry(d, rows, rng):
    g = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)] for _ in range(rows)]
    )
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q[:, :d] * phases.conj()
