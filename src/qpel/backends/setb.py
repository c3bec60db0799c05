"""The set backend: the Kleisli backend over the boolean scalars {0, 1}, whose
morphisms are functions, predicates subsets and states elements."""
from __future__ import annotations

from ..effects import boolean_monoid
from .points import PointBackend


class SetBackend(PointBackend):
    name = "set"
    scalars = boolean_monoid()
