"""Partial commutative monoids, effect algebras, monoids and modules.

Instances are immutable bundles of pure functions; partiality of the sum is an
explicit None result, never an exception.  The law harness distinguishes the
three comparison modes of partial expressions: plain equality (both sides
defined), Kleene equality (defined together), and directed equality (left
defined implies right defined and equal).  Failed laws are reported as data
with a counterexample, not raised.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product


@dataclass(frozen=True)
class EffectAlgebra:
    name: str
    elements: tuple | None  # None: carrier too big, use the sampler
    zero: object
    ovee: object  # (x, y) -> value | None
    orth: object  # x -> value
    sampler: object = None  # rng -> element

    @property
    def one(self):
        return self.orth(self.zero)

    def samples(self, rng=None, k=200):
        if self.elements is not None:
            return list(self.elements)
        rng = rng or random.Random(0)
        return [self.sampler(rng) for _ in range(k)]


@dataclass(frozen=True)
class EffectMonoid:
    name: str
    algebra: EffectAlgebra
    mul: object
    commutative: bool = True

    @property
    def zero(self):
        return self.algebra.zero

    @property
    def one(self):
        return self.algebra.one

    def samples(self, rng=None, k=200):
        return self.algebra.samples(rng, k)


@dataclass(frozen=True)
class EffectModule:
    name: str
    carrier: EffectAlgebra
    scalars: EffectMonoid
    smul: object  # (r, x) -> value


# ---------------------------------------------------------------- law harness


@dataclass(frozen=True)
class LawResult:
    law: str
    mode: str  # "equation" | "kleene" | "directed" | "iff"
    ok: bool
    counterexample: tuple | None = None

    def to_json(self):
        out = {"law": self.law, "mode": self.mode, "status": "pass" if self.ok else "fail"}
        if self.counterexample is not None:
            out["counterexample"] = [repr(x) for x in self.counterexample]
        return out


@dataclass
class LawReport:
    instance: str
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def failed_laws(self):
        return [r.law for r in self.results if not r.ok]

    def to_json(self):
        return {
            "instance": self.instance,
            "passed": self.passed,
            "laws": [r.to_json() for r in self.results],
        }

    def render_text(self) -> str:
        lines = [f"law report for {self.instance}:"]
        for r in self.results:
            mark = "ok  " if r.ok else "FAIL"
            line = f"  [{mark}] {r.law} ({r.mode})"
            if not r.ok and r.counterexample is not None:
                line += f"  witness: {r.counterexample}"
            lines.append(line)
        return "\n".join(lines)


def _law(report, name, mode, tuples, check):
    """Run `check` over tuples; record the first counterexample."""
    for t in tuples:
        if not check(*t):
            report.results.append(LawResult(name, mode, False, t))
            return
    report.results.append(LawResult(name, mode, True))


N_RANDOM_TUPLES = 12_000


def _tuples(xs, k, exhaustive, seed=7):
    """Argument tuples for a k-ary law: the full product for small finite
    carriers, otherwise >= 10^4 seeded random draws."""
    if exhaustive and len(xs) ** k <= 200_000:
        return list(product(xs, repeat=k))
    rng = random.Random(seed + k)
    return [tuple(rng.choice(xs) for _ in range(k)) for _ in range(N_RANDOM_TUPLES)]


def _kleene_eq(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a == b


def check_effect_algebra_laws(alg: EffectAlgebra, samples=None, rng=None) -> LawReport:
    xs = list(samples) if samples is not None else alg.samples(rng)
    rep = LawReport(alg.name)
    one = alg.one
    exhaustive = alg.elements is not None
    pairs = _tuples(xs, 2, exhaustive)
    triples = _tuples(xs, 3, exhaustive)

    _law(rep, "ovee-commutative", "kleene", pairs,
         lambda x, y: _kleene_eq(alg.ovee(x, y), alg.ovee(y, x)))

    def assoc(x, y, z):
        yz = alg.ovee(y, z)
        xy = alg.ovee(x, y)
        left = None if yz is None else alg.ovee(x, yz)
        right = None if xy is None else alg.ovee(xy, z)
        return _kleene_eq(left, right)

    _law(rep, "ovee-associative", "kleene", triples, assoc)
    _law(rep, "zero-unit", "equation", [(x,) for x in xs],
         lambda x: alg.ovee(x, alg.zero) == x)
    _law(rep, "orth-complement", "equation", [(x,) for x in xs],
         lambda x: alg.ovee(x, alg.orth(x)) == one)
    _law(rep, "orth-unique", "iff", pairs,
         lambda x, y: alg.ovee(x, y) != one or y == alg.orth(x))
    _law(rep, "one-perp", "iff", [(x,) for x in xs],
         lambda x: alg.ovee(x, one) is None or x == alg.zero)

    def cancel(x, y, z):
        a, b = alg.ovee(x, y), alg.ovee(x, z)
        return a is None or b is None or a != b or y == z

    _law(rep, "cancellation", "equation", triples, cancel)
    return rep


def check_effect_monoid_laws(mon: EffectMonoid, samples=None, rng=None) -> LawReport:
    xs = list(samples) if samples is not None else mon.samples(rng)
    rep = check_effect_algebra_laws(mon.algebra, xs)
    rep.instance = mon.name
    alg, mul = mon.algebra, mon.mul
    exhaustive = mon.algebra.elements is not None
    pairs = _tuples(xs, 2, exhaustive)
    triples = _tuples(xs, 3, exhaustive)

    _law(rep, "mul-unit", "equation", [(x,) for x in xs],
         lambda x: mul(mon.one, x) == x and mul(x, mon.one) == x)
    _law(rep, "mul-associative", "equation", triples,
         lambda x, y, z: mul(x, mul(y, z)) == mul(mul(x, y), z))

    def dist_l(x, y, z):
        s = alg.ovee(x, y)
        if s is None:
            return True
        t = alg.ovee(mul(x, z), mul(y, z))
        return t is not None and t == mul(s, z)

    def dist_r(x, y, z):
        s = alg.ovee(y, z)
        if s is None:
            return True
        t = alg.ovee(mul(x, y), mul(x, z))
        return t is not None and t == mul(x, s)

    _law(rep, "mul-dist-left", "directed", triples, dist_l)
    _law(rep, "mul-dist-right", "directed", triples, dist_r)
    _law(rep, "mul-zero", "equation", [(x,) for x in xs],
         lambda x: mul(x, mon.zero) == mon.zero and mul(mon.zero, x) == mon.zero)
    if mon.commutative:
        _law(rep, "mul-commutative", "equation", pairs,
             lambda x, y: mul(x, y) == mul(y, x))
    return rep


def check_effect_module_laws(mod: EffectModule, carrier_samples=None,
                             scalar_samples=None, rng=None) -> LawReport:
    xs = list(carrier_samples) if carrier_samples is not None else mod.carrier.samples(rng)
    rs = list(scalar_samples) if scalar_samples is not None else mod.scalars.samples(rng)
    rep = check_effect_algebra_laws(mod.carrier, xs)
    rep.instance = mod.name
    alg, sc, smul = mod.carrier, mod.scalars, mod.smul

    if mod.carrier.elements is not None and mod.scalars.algebra.elements is not None \
            and len(rs) * len(xs) * max(len(xs), len(rs)) <= 200_000:
        rxx = [(r, x, y) for r in rs for x in xs for y in xs]
        rrx = [(r, s, x) for r in rs for s in rs for x in xs]
    else:
        rng2 = random.Random(11)
        rxx = [(rng2.choice(rs), rng2.choice(xs), rng2.choice(xs)) for _ in range(N_RANDOM_TUPLES)]
        rrx = [(rng2.choice(rs), rng2.choice(rs), rng2.choice(xs)) for _ in range(N_RANDOM_TUPLES)]

    def dist_carrier(r, x, y):
        s = alg.ovee(x, y)
        if s is None:
            return True
        t = alg.ovee(smul(r, x), smul(r, y))
        return t is not None and t == smul(r, s)

    def dist_scalar(r, s, x):
        rs_sum = sc.algebra.ovee(r, s)
        if rs_sum is None:
            return True
        t = alg.ovee(smul(r, x), smul(s, x))
        return t is not None and t == smul(rs_sum, x)

    _law(rep, "smul-dist-carrier", "directed", rxx, dist_carrier)
    _law(rep, "smul-dist-scalar", "directed", rrx, dist_scalar)
    _law(rep, "smul-mul-compat", "equation", rrx,
         lambda r, s, x: smul(sc.mul(r, s), x) == smul(r, smul(s, x)))
    _law(rep, "smul-one", "equation", [(x,) for x in xs],
         lambda x: smul(sc.one, x) == x)
    return rep


def check_homomorphism(phi, dom: EffectAlgebra, cod: EffectAlgebra,
                       samples=None, name="hom") -> LawReport:
    xs = list(samples) if samples is not None else dom.samples()
    rep = LawReport(name)
    pairs = list(product(xs, xs))

    def hom_ovee(x, y):
        s = dom.ovee(x, y)
        if s is None:
            return True
        t = cod.ovee(phi(x), phi(y))
        return t is not None and t == phi(s)

    _law(rep, "hom-ovee", "directed", pairs, hom_ovee)
    _law(rep, "hom-orth", "equation", [(x,) for x in xs],
         lambda x: phi(dom.orth(x)) == cod.orth(phi(x)))
    # consequence of the two, never an input axiom
    _law(rep, "hom-zero", "equation", [(dom.zero,)],
         lambda z: phi(z) == cod.zero)
    return rep


# ------------------------------------------------------------------ instances


def boolean_algebra() -> EffectAlgebra:
    return EffectAlgebra(
        "boolean {0,1}",
        elements=(0, 1),
        zero=0,
        ovee=lambda x, y: None if x and y else x or y,
        orth=lambda x: 1 - x,
    )


def boolean_monoid() -> EffectMonoid:
    return EffectMonoid("boolean {0,1} with and", boolean_algebra(), lambda x, y: x & y)


def chain3_algebra() -> EffectAlgebra:
    """The three-element chain 0 < 1/2 < 1; an effect algebra but provably not
    an effect monoid (see the impossibility test)."""
    h = Fraction(1, 2)
    return EffectAlgebra(
        "chain {0, 1/2, 1}",
        elements=(Fraction(0), h, Fraction(1)),
        zero=Fraction(0),
        ovee=lambda x, y: s if (s := x + y) <= 1 else None,
        orth=lambda x: 1 - x,
    )


def interval_sampler(rng: random.Random) -> Fraction:
    den = rng.choice((1, 2, 3, 4, 5, 7, 8, 12, 16))
    return Fraction(rng.randint(0, den), den)


def unit_interval_algebra() -> EffectAlgebra:
    return EffectAlgebra(
        "rational [0,1]",
        elements=None,
        zero=Fraction(0),
        ovee=lambda x, y: s if (s := x + y) <= 1 else None,
        orth=lambda x: 1 - x,
        sampler=interval_sampler,
    )


def unit_interval_monoid() -> EffectMonoid:
    return EffectMonoid("rational [0,1] with *", unit_interval_algebra(), lambda x, y: x * y)


def boolean_square_monoid() -> EffectMonoid:
    """{0,1} x {0,1} componentwise: the smallest commutative effect monoid
    with an element strictly between 0 and 1."""
    alg = EffectAlgebra(
        "boolean square {0,1}^2",
        elements=((0, 0), (0, 1), (1, 0), (1, 1)),
        zero=(0, 0),
        ovee=lambda x, y: None if (x[0] and y[0]) or (x[1] and y[1]) else (x[0] | y[0], x[1] | y[1]),
        orth=lambda x: (1 - x[0], 1 - x[1]),
    )
    return EffectMonoid("boolean square with and", alg, lambda x, y: (x[0] & y[0], x[1] & y[1]))


def chain3_module_over_boolean() -> EffectModule:
    return EffectModule(
        "chain3 over boolean",
        chain3_algebra(),
        boolean_monoid(),
        smul=lambda r, x: x if r else Fraction(0),
    )


def unit_interval_module() -> EffectModule:
    return EffectModule(
        "rational [0,1] over itself",
        unit_interval_algebra(),
        unit_interval_monoid(),
        smul=lambda r, x: r * x,
    )


# ---------------------------------------------------------------- mutants
# deliberately broken instances; each must be flagged with the named law


def mutant_orth_identity() -> EffectAlgebra:
    """Breaks orth-complement: the orthosupplement is the identity."""
    return EffectAlgebra(
        "mutant: orth = id on boolean",
        elements=(0, 1),
        zero=0,
        ovee=lambda x, y: None if x and y else x or y,
        orth=lambda x: x,
    )


def mutant_total_sum() -> EffectAlgebra:
    """Breaks one-perp: the sum saturates instead of being partial."""
    grid = tuple(Fraction(k, 4) for k in range(5))
    return EffectAlgebra(
        "mutant: saturating sum on quarters",
        elements=grid,
        zero=Fraction(0),
        ovee=lambda x, y: min(x + y, Fraction(1)),
        orth=lambda x: 1 - x,
    )


def mutant_asymmetric_sum() -> EffectAlgebra:
    """Breaks ovee-commutative (Kleene): defined in one order only."""
    h = Fraction(1, 2)

    def ov(x, y):
        if x == h and y == Fraction(1):
            return None  # but 1 o+ 1/2 stays defined below
        if x + y <= 1 or (x == Fraction(1) and y == h):
            return min(x + y, Fraction(1))
        return None

    return EffectAlgebra(
        "mutant: order-dependent sum on chain3",
        elements=(Fraction(0), h, Fraction(1)),
        zero=Fraction(0),
        ovee=ov,
        orth=lambda x: 1 - x,
    )


MUTANTS = {
    "orth-complement": mutant_orth_identity,
    "one-perp": mutant_total_sum,
    "ovee-commutative": mutant_asymmetric_sum,
}
