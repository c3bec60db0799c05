"""Point structure shared by the set and stochastic backends.

Objects are ordered tuples of points: the unit object holds "*", tensoring
pairs points, and sums tag them with "L"/"R".  The structural morphisms move
points by a function, so `PointBackend` defines them once over the hook
`_map`, which builds a backend's morphism from such a function.
"""
from __future__ import annotations

from ..triangle import Backend

STAR = "*"

UNIT_OB = (STAR,)


def tensor_points(a, b):
    return tuple((x, y) for x in a for y in b)


def sum_points(a, b):
    return tuple(("L", x) for x in a) + tuple(("R", y) for y in b)


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


class PointBackend(Backend):
    """The objects and structural morphisms of a backend over points.  A
    subclass sets `_map(dom, cod, f)` to build its morphism from a function
    on points; the hook is private, so that the tracer, which wraps every
    public method, does not count it as one."""

    _map = None

    def unit_ob(self):
        return UNIT_OB

    def tensor_ob(self, a, b):
        return tensor_points(a, b)

    def sum_ob(self, a, b):
        return sum_points(a, b)

    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

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

    def unit_right_inv(self, a):
        return self._map(a, self.tensor_ob(a, UNIT_OB), lambda x: (x, STAR))

    def terminal(self, a):
        return self._map(a, UNIT_OB, lambda x: STAR)

    def inj1(self, a, b):
        return self._map(a, self.sum_ob(a, b), lambda x: ("L", x))

    def inj2(self, a, b):
        return self._map(b, self.sum_ob(a, b), lambda y: ("R", y))

    def dist_left(self, a, b, c):
        return self._map(
            self.tensor_ob(self.sum_ob(a, b), c),
            self.sum_ob(self.tensor_ob(a, c), self.tensor_ob(b, c)),
            lambda p: (p[0][0], (p[0][1], p[1])),
        )
