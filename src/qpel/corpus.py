"""Generated rule-instance corpus.

For every deduction rule this module builds at least three concrete instances:
a judgement, a script whose root node names the rule, any `requires` scripts
needed to typecheck the goal, and a mutated judgement that the same script
must reject.  The corpus doubles as the empirical soundness suite: every
accepted instance is evaluated in each applicable backend.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .parser import (
    Parser,
    ScriptNode,
    parse_effect_text,
    parse_term_text,
)
from .rules import ALL_RULE_NAMES, SCHEMAS
from .syntax import (
    Context,
    EffForm,
    EffLeq,
    Judgement,
    Measure,
    Orth,
    OSum,
    ScalarLit,
    TermEq,
    TQbit,
    TSum,
    TTensor,
    TUnit,
    Typing,
    Zero,
    one,
)

T = parse_term_text
E = parse_effect_text


def ty_of(text: str):
    p = Parser(text)
    out = p.parse_type()
    p.expect("EOF")
    return out


def ctx_of(text: str) -> Context:
    if not text.strip():
        return Context()
    p = Parser("(" + text + ")")
    return p.parse_context()


def sc(text: str):
    """Parse a proof script from surface syntax."""
    p = Parser(text)
    out = p.parse_script()
    p.expect("EOF")
    return out


@dataclass
class CorpusItem:
    rule: str
    variant: int
    judgement: Judgement
    script: object
    requires: tuple = ()
    mutant: Judgement | None = None

    @property
    def name(self):
        return f"{self.rule}#{self.variant}"

    @property
    def pack(self):
        return SCHEMAS[self.rule].pack


def _default_mutant(j: Judgement) -> Judgement:
    if isinstance(j, TermEq):
        return TermEq(j.ctx, j.lhs, Measure(((one(), j.rhs),)), j.ty)
    if isinstance(j, EffLeq):
        return EffLeq(j.ctx, j.low, OSum(j.high, Zero()))
    if isinstance(j, EffForm):
        return EffForm(j.ctx, Orth(j.eff))
    if isinstance(j, Typing):
        return Typing(j.ctx, j.term, TTensor(j.ty, TUnit()))
    raise TypeError(j)


BUILDERS: dict = {}


def builder(rule):
    def deco(fn):
        BUILDERS[rule] = fn
        return fn

    return deco


def item(rule, k, judgement, script, requires=(), mutant=None):
    if isinstance(script, str):
        script = sc(script)
    requires = tuple(sc(r) if isinstance(r, str) else r for r in requires)
    return CorpusItem(
        rule, k, judgement, script, requires,
        mutant if mutant is not None else _default_mutant(judgement),
    )


# a small pool of effects over one qubit variable, indexed by variant
def _phi(k: int, var="x"):
    return [E(f"proj({var}, 0)"), E(f"proj({var}, 1/2)"), E(f"bot(proj({var}, 1))")][k % 3]


def _base_ty(k: int):
    return [ty_of("I"), ty_of("I + I"), ty_of("I * I")][k % 3]


# ---------------------------------------------------------------- structural


@builder("exch")
def _b_exch(k):
    ctxs = [ctx_of("a : I, b : I + I"), ctx_of("a : qbit, b : I"), ctx_of("a : I, b : I, c : I + I")]
    goals = [
        Typing(ctxs[0], T("a"), ty_of("I")),
        Typing(ctxs[1], T("X a"), ty_of("qbit")),
        Typing(ctxs[2], T("b * a"), ty_of("I * I")),
    ]
    scripts = ["exch(var)", "exch(qbit-x)", "exch(tensor)"]
    return item("exch", k, goals[k], scripts[k])


# ------------------------------------------------------------ term formation


@builder("var")
def _b_var(k):
    a = _base_ty(k)
    g = Context((("x", a), ("spare", ty_of("I"))))
    return item("var", k, Typing(g, T("x"), a), "var")


@builder("tensor")
def _b_tensor(k):
    a, b = _base_ty(k), _base_ty(k + 1)
    g = Context((("x", a), ("y", b)))
    return item("tensor", k, Typing(g, T("x * y"), TTensor(a, b)), "tensor")


@builder("let")
def _b_let(k):
    from .syntax import LetPair, Var

    a, b = _base_ty(k), _base_ty(k + 1)
    g = Context((("p", TTensor(a, b)),))
    bodies = [T("y * x"), T("x * y"), T("y * unit")]
    out = [TTensor(b, a), TTensor(a, b), TTensor(b, TUnit())][k]
    term = LetPair("x", "y", Var("p"), bodies[k])
    return item("let", k, Typing(g, term, out), "let")


@builder("unit")
def _b_unit(k):
    g = [Context(), ctx_of("z : I"), ctx_of("z : qbit")][k]
    return item("unit", k, Typing(g, T("unit"), ty_of("I")), "unit")


@builder("inl")
def _b_inl(k):
    a, b = _base_ty(k), _base_ty(k + 1)
    g = Context((("x", a),))
    return item("inl", k, Typing(g, T("inl x"), TSum(a, b)), "inl")


@builder("inr")
def _b_inr(k):
    a, b = _base_ty(k), _base_ty(k + 1)
    g = Context((("x", b),))
    return item("inr", k, Typing(g, T("inr x"), TSum(a, b)), "inr")


@builder("case")
def _b_case(k):
    g = ctx_of("s : I + I")
    terms = [
        (T("case s of inl x -> inr x | inr y -> inl y"), ty_of("I + I")),
        (T("case s of inl x -> x | inr y -> y"), ty_of("I")),
        (T("case s of inl x -> x * unit | inr y -> unit * y"), ty_of("I * I")),
    ]
    m, a = terms[k]
    return item("case", k, Typing(g, m, a), "case")


@builder("measure")
def _b_measure(k):
    if k == 0:
        g = ctx_of("x : qbit")
        m = T("measure { proj(x, 0) -> inl unit | bot(proj(x, 0)) -> inr unit }")
        return item("measure", k, Typing(g, m, ty_of("I + I")), "measure")
    if k == 1:
        m = T("measure { 1/2 -> inl unit | 1/2 -> inr unit }")
        return item("measure", k, Typing(Context(), m, ty_of("I + I")), "measure")
    g = ctx_of("u : I")
    m = T("measure { bot(0) -> u }")
    return item("measure", k, Typing(g, m, ty_of("I")), "measure")


# -------------------------------------------------------------------- equality


@builder("ref")
def _b_ref(k):
    a = _base_ty(k)
    g = Context((("x", a),))
    return item("ref", k, TermEq(g, T("x"), T("x"), a), "ref")


@builder("sym")
def _b_sym(k):
    g = Context((("x", _base_ty(k)),))
    lhs = T("x")
    rhs = Measure(((one(), T("x")),))
    return item("sym", k, TermEq(g, lhs, rhs, _base_ty(k)), "sym(measure-1)")


@builder("trans")
def _b_trans(k):
    a = _base_ty(k)
    g = Context((("x", a),))
    lhs = Measure(((one(), T("x")),))
    return item(
        "trans", k, TermEq(g, lhs, T("x"), a), "trans[via = x](measure-1; ref)"
    )


@builder("tensor-eq")
def _b_tensor_eq(k):
    a = _base_ty(k)
    g = Context((("x", a), ("y", ty_of("I"))))
    lhs = TermEq(g, __pair(Measure(((one(), T("x")),)), T("y")), T("x * y"), TTensor(a, ty_of("I")))
    return item("tensor-eq", k, lhs, "tensor-eq(measure-1; ref)")


def __pair(m, n):
    from .syntax import Pair

    return Pair(m, n)


@builder("let-eq")
def _b_let_eq(k):
    a, b = _base_ty(k), _base_ty(k + 1)
    g = Context((("p", TTensor(a, b)),))
    from .syntax import LetPair, Var

    lhs = LetPair("x", "y", Var("p"), T("y * x"))
    rhs = LetPair("x", "y", Var("p"), Measure(((one(), T("y * x")),)))
    return item(
        "let-eq", k, TermEq(g, lhs, rhs, TTensor(b, a)),
        "let-eq(ref; sym(measure-1))",
    )


@builder("inl-eq")
def _b_inl_eq(k):
    a, b = _base_ty(k), _base_ty(k + 1)
    g = Context((("x", a),))
    lhs = T("inl x")
    from .syntax import Inl

    rhs = Inl(Measure(((one(), T("x")),)))
    return item("inl-eq", k, TermEq(g, lhs, rhs, TSum(a, b)), "inl-eq(sym(measure-1))")


@builder("inr-eq")
def _b_inr_eq(k):
    a, b = _base_ty(k), _base_ty(k + 1)
    g = Context((("x", b),))
    from .syntax import Inr

    rhs = Inr(Measure(((one(), T("x")),)))
    return item("inr-eq", k, TermEq(g, T("inr x"), rhs, TSum(a, b)), "inr-eq(sym(measure-1))")


@builder("case-eq")
def _b_case_eq(k):
    g = ctx_of("s : I + I")
    from .syntax import Case, Var

    lhs = Case(Var("s"), "x", T("x"), "y", T("y"))
    rhs = Case(Var("s"), "x", Measure(((one(), T("x")),)), "y", T("y"))
    return item(
        "case-eq", k, TermEq(g, lhs, rhs, ty_of("I")),
        "case-eq(ref; sym(measure-1); ref)",
    )


@builder("measure-eq")
def _b_measure_eq(k):
    g = ctx_of("x : qbit")
    phi = _phi(k)
    lhs = Measure(((phi, T("inl unit")), (Orth(phi), T("inr unit"))))
    if k < 2:
        rhs = lhs
        return item("measure-eq", k, TermEq(g, lhs, rhs, ty_of("I + I")), "measure-eq")
    # branch effects replaced by their double orthosupplements; the right
    # side's own coverage obligation needs a hand proof
    rhs = Measure(((Orth(Orth(phi)), T("inl unit")), (Orth(phi), T("inr unit"))))
    rhs_obligation = ScriptNode(
        "leq-trans", {"via": OSum(phi, Orth(phi))}, (sc("ortho-2"), sc("ovee-mono")),
    )
    return item(
        "measure-eq", k, TermEq(g, lhs, rhs, ty_of("I + I")),
        "measure-eq(auto; both(bot-bot; ortho-1(ortho-2)); both(leq-ref; leq-ref); ref; ref)",
        requires=(sc("auto"), rhs_obligation),
    )


# ----------------------------------------------------------------------- beta


@builder("beta-tensor")
def _b_beta_tensor(k):
    a, b = _base_ty(k), _base_ty(k + 1)
    g = Context((("m", a), ("n", b)))
    from .syntax import LetPair

    bodies = {0: (T("y * x"), TTensor(b, a), T("n * m")),
              1: (T("x * y"), TTensor(a, b), T("m * n")),
              2: (T("y * unit"), TTensor(b, TUnit()), T("n * unit"))}
    body, out, rhs = bodies[k]
    lhs = LetPair("x", "y", T("m * n"), body)
    return item("beta-tensor", k, TermEq(g, lhs, rhs, out), "beta-tensor")


@builder("beta-plus-1")
def _b_beta_plus_1(k):
    a = _base_ty(k)
    g = Context((("m", a),))
    from .syntax import Ascribe, Case, Inl, Var

    lhs = Case(Ascribe(Inl(Var("m")), TSum(a, a)), "x", T("x * unit"), "y", T("y * unit"))
    rhs = T("m * unit")
    ty = TTensor(a, TUnit())
    script = ScriptNode("beta-plus-1", {"ty": TSum(a, a)}, None)
    return item("beta-plus-1", k, TermEq(g, lhs, rhs, ty), script)


@builder("beta-plus-2")
def _b_beta_plus_2(k):
    a = _base_ty(k)
    g = Context((("m", a),))
    from .syntax import Ascribe, Case, Inr, Var

    lhs = Case(Ascribe(Inr(Var("m")), TSum(a, a)), "x", T("unit * x"), "y", T("unit * y"))
    rhs = T("unit * m")
    ty = TTensor(TUnit(), a)
    script = ScriptNode("beta-plus-2", {"ty": TSum(a, a)}, None)
    return item("beta-plus-2", k, TermEq(g, lhs, rhs, ty), script)


# ------------------------------------------------------------------------ eta


@builder("eta-tensor")
def _b_eta_tensor(k):
    a, b = _base_ty(k), _base_ty(k + 1)
    g = Context((("p", TTensor(a, b)),))
    from .syntax import LetPair, Var

    rhs = LetPair("x", "y", Var("p"), T("x * y"))
    return item("eta-tensor", k, TermEq(g, T("p"), rhs, TTensor(a, b)), "eta-tensor")


@builder("eta-unit")
def _b_eta_unit(k):
    terms = [(Context((("u", TUnit()),)), T("u")),
             (Context(), T("unit * unit")),
             (Context(), Measure(((one(), T("unit")),)))]
    g, m = terms[k]
    if k == 1:
        from .syntax import LetPair

        m = LetPair("x", "y", T("unit * unit"), T("x"))
        m = m  # let x * y = unit * unit in x : I
    return item("eta-unit", k, TermEq(g, m, T("unit"), TUnit()), "eta-unit")


@builder("eta-plus")
def _b_eta_plus(k):
    a, b = _base_ty(k), _base_ty(k + 1)
    g = Context((("s", TSum(a, b)),))
    from .syntax import Case, Inl, Inr, Var

    rhs = Case(Var("s"), "x", Inl(Var("x")), "y", Inr(Var("y")))
    return item("eta-plus", k, TermEq(g, T("s"), rhs, TSum(a, b)), "eta-plus")


# --------------------------------------------------------- commuting conversions


@builder("let-commute")
def _b_let_commute(k):
    a, b = _base_ty(k), _base_ty(k + 1)
    g = Context((("p", TTensor(a, b)),))
    lhs = T("let x * y = p in let t * u = y * x in u * t")
    rhs = T("let t * u = (let x * y = p in y * x) in u * t")
    return item("let-commute", k, TermEq(g, lhs, rhs, TTensor(a, b)), "let-commute")


@builder("let-case")
def _b_let_case(k):
    g = ctx_of("s : I + I, w : I")
    lhs = T("let z * t = (case s of inl x -> x * w | inr y -> y * w) in t * z")
    rhs = T("case s of inl x -> (let z * t = x * w in t * z) | inr y -> (let z * t = y * w in t * z)")
    return item("let-case", k, TermEq(g, lhs, rhs, ty_of("I * I")), "let-case")


@builder("let-tensor")
def _b_let_tensor(k):
    a, b = _base_ty(k), _base_ty(k + 1)
    g = Context((("p", TTensor(a, b)), ("q", TUnit())))
    lhs = T("(let x * y = p in y * x) * q")
    rhs = T("let x * y = p in (y * x) * q")
    return item("let-tensor", k, TermEq(g, lhs, rhs, TTensor(TTensor(b, a), TUnit())), "let-tensor")


@builder("case-commute")
def _b_case_commute(k):
    g = ctx_of("s : I + I")
    lhs = T("case s of inl x -> (case (inl x : I + I) of inl z -> inr z | inr t -> inl t)"
            " | inr y -> (case (inr y : I + I) of inl z -> inr z | inr t -> inl t)")
    rhs = T("case ((case s of inl x -> inl x | inr y -> inr y) : I + I)"
            " of inl z -> inr z | inr t -> inl t")
    script = ScriptNode("case-commute", {"ty": ty_of("I + I"), "ty2": ty_of("I + I")}, None)
    return item("case-commute", k, TermEq(g, lhs, rhs, ty_of("I + I")), script)


@builder("case-tensor")
def _b_case_tensor(k):
    g = ctx_of("s : I + I, q : I")
    lhs = T("(case s of inl a -> a | inr b -> b) * q")
    rhs = T("case s of inl a -> a * q | inr b -> b * q")
    return item("case-tensor", k, TermEq(g, lhs, rhs, ty_of("I * I")), "case-tensor")


# ---------------------------------------------------------------- measurement


@builder("measure-perm")
def _b_measure_perm(k):
    if k < 2:
        g = ctx_of("x : qbit")
        phi = _phi(k)
        lhs = Measure(((phi, T("inl unit")), (Orth(phi), T("inr unit"))))
        rhs = Measure(((Orth(phi), T("inr unit")), (phi, T("inl unit"))))
        return item(
            "measure-perm", k, TermEq(g, lhs, rhs, ty_of("I + I")),
            "measure-perm[perm = [2, 1]]",
        )
    q = Fraction(1, 4)
    e = [ScalarLit(q), ScalarLit(q), ScalarLit(Fraction(1, 2))]
    terms = [T("inl unit"), T("inr unit"), T("inl unit")]
    lhs = Measure(tuple(zip(e, terms)))
    perm = (3, 1, 2)
    rhs = Measure(tuple((e[p - 1], terms[p - 1]) for p in perm))
    return item(
        "measure-perm", k, TermEq(Context(), lhs, rhs, ty_of("I + I")),
        "measure-perm[perm = [3, 1, 2]]",
    )


@builder("measure-0")
def _b_measure_0(k):
    g = ctx_of("x : qbit, u : I")
    phi = _phi(k)
    base = ((phi, T("inl u")), (Orth(phi), T("inr unit")))
    lhs = Measure(base + ((Zero(), T("inl u")),))
    rhs = Measure(base)
    return item("measure-0", k, TermEq(g, lhs, rhs, ty_of("I + I")), "measure-0")


@builder("measure-1")
def _b_measure_1(k):
    a = _base_ty(k)
    g = Context((("x", a),))
    lhs = Measure(((one(), T("x")),))
    return item("measure-1", k, TermEq(g, lhs, T("x"), a), "measure-1")


@builder("measure-plus")
def _b_measure_plus(k):
    if k == 0:
        lhs = T("measure { (1/2 o+ 1/2) -> inl unit }")
        rhs = T("measure { 1/2 -> inl unit | 1/2 -> inl unit }")
        return item(
            "measure-plus", k, TermEq(Context(), lhs, rhs, ty_of("I + I")), "measure-plus"
        )
    if k == 1:
        g = ctx_of("u : I")
        lhs = T("measure { (bot(0) o+ 0) -> inl u }")
        rhs = T("measure { bot(0) -> inl u | 0 -> inl u }")
        return item(
            "measure-plus", k, TermEq(g, lhs, rhs, ty_of("I + I")), "measure-plus"
        )
    lhs = T("measure { (1/4 o+ 1/4) -> inl unit | 1/2 -> inr unit }")
    rhs = T("measure { 1/4 -> inl unit | 1/4 -> inl unit | 1/2 -> inr unit }")
    return item(
        "measure-plus", k, TermEq(Context(), lhs, rhs, ty_of("I + I")), "measure-plus"
    )


# 1 <= 0 o+ bot(0) by commuting through bot(0) o+ 0
_ZERO_FIRST = "leq-trans[via = bot(0) o+ 0](leq-ovee; ovee-comm)"

# 1 <= caseE s (1, 0) o+ caseE s (0, 1): eta-expand 1 at s, push the split
# under the case branches, then distribute the sum out of the case
_MEASURE_CASE_COVER = (
    "leq-trans[via = caseE s of inl a -> bot(0) | inr b -> bot(0)]"
    "(eta-plus-eff; "
    "leq-trans[via = caseE s of inl a -> bot(0) o+ 0 | inr b -> 0 o+ bot(0)]"
    f"(case-mono(leq-ovee; {_ZERO_FIRST}; auto); case-ovee))"
)


@builder("measure-case")
def _b_measure_case(k):
    g = ctx_of("s : I + I, u : I")
    if k == 0:
        e1 = E("caseE s of inl a -> bot(0) | inr b -> 0")
        e2 = E("caseE s of inl a -> 0 | inr b -> bot(0)")
        lhs = Measure(((e1, T("inl u")), (e2, T("inr unit"))))
        rhs = T(
            "case s of inl a -> (measure { bot(0) -> inl u | 0 -> inr unit })"
            " | inr b -> (measure { 0 -> inl u | bot(0) -> inr unit })"
        )
        # requires feed, in encounter order: the left measure's coverage, the
        # right side's two branch measures
        return item(
            "measure-case", k, TermEq(g, lhs, rhs, ty_of("I + I")),
            f"measure-case(auto; {_ZERO_FIRST}; auto; auto; auto)",
            requires=(_MEASURE_CASE_COVER, "auto", _ZERO_FIRST),
        )
    e1 = E("caseE s of inl a -> bot(0) | inr b -> bot(0)")
    e2 = E("caseE s of inl a -> 0 | inr b -> 0")
    n2 = T("inr unit") if k == 1 else T("inl u")
    lhs = Measure(((e1, T("inl u")), (e2, n2)))
    from .syntax import Case, Var

    rhs = Case(
        Var("s"),
        "a",
        Measure(((one(), T("inl u")), (Zero(), n2))),
        "b",
        Measure(((one(), T("inl u")), (Zero(), n2))),
    )
    return item(
        "measure-case", k, TermEq(g, lhs, rhs, ty_of("I + I")), "measure-case"
    )


# ------------------------------------------------------------ effect formation


@builder("eff-0")
def _b_eff_0(k):
    g = [Context(), ctx_of("x : I"), ctx_of("x : qbit")][k]
    return item("eff-0", k, EffForm(g, Zero()), "eff-0",
                mutant=EffForm(g, OSum(one(), one())))


@builder("eff-bot")
def _b_eff_bot(k):
    g = ctx_of("x : qbit")
    return item("eff-bot", k, EffForm(g, Orth(_phi(k))), "eff-bot",
                mutant=EffForm(g, Zero()))


@builder("eff-ovee")
def _b_eff_ovee(k):
    if k == 2:
        g = Context()
        eff = OSum(ScalarLit(Fraction(1, 3)), ScalarLit(Fraction(1, 2)))
    else:
        g = ctx_of("x : qbit")
        eff = OSum(_phi(k), Orth(_phi(k)))
    return item("eff-ovee", k, EffForm(g, eff), "eff-ovee")


@builder("eff-mult")
def _b_eff_mult(k):
    g = ctx_of("x : qbit")
    scalars = [E("1/2"), E("bot(0)"), E("bot(0) . 1/3")]
    from .syntax import SMul

    eff = SMul(scalars[k], _phi(k))
    return item("eff-mult", k, EffForm(g, eff), "eff-mult")


@builder("eff-case")
def _b_eff_case(k):
    g = ctx_of("s : I + I, x : qbit")
    from .syntax import CaseEff, Var

    eff = CaseEff(Var("s"), "a", _phi(k), "b", Zero())
    return item("eff-case", k, EffForm(g, eff), "eff-case")


@builder("qbit-proj")
def _b_qbit_proj(k):
    g = ctx_of("x : qbit")
    effs = [E("proj(x, 0)"), E("proj(x, 1/2)"), E("proj(X x, 3/2)")]
    return item("qbit-proj", k, EffForm(g, effs[k]), "qbit-proj",
                mutant=EffForm(g, Zero()))


# ----------------------------------------------------------------- derivability


@builder("leq-ref")
def _b_leq_ref(k):
    g = ctx_of("x : qbit")
    return item("leq-ref", k, EffLeq(g, _phi(k), _phi(k)), "leq-ref")


@builder("leq-trans")
def _b_leq_trans(k):
    g = ctx_of("x : qbit")
    phi = _phi(k)
    goal = EffLeq(g, Zero(), OSum(phi, Orth(phi)))
    script = ScriptNode(
        "leq-trans", {"via": one()},
        (sc("zero-leq"), sc("ortho-2")),
    )
    return item("leq-trans", k, goal, script)


@builder("zero-leq")
def _b_zero_leq(k):
    g = ctx_of("x : qbit")
    goal = EffLeq(g, Zero(), _phi(k))
    return item("zero-leq", k, goal, "zero-leq",
                mutant=EffLeq(g, one(), _phi(k)))


@builder("bot-antitone")
def _b_bot_antitone(k):
    g = ctx_of("x : qbit")
    phi = _phi(k)
    goal = EffLeq(g, Orth(phi), Orth(Zero()))
    return item("bot-antitone", k, goal, "bot-antitone(zero-leq)",
                mutant=EffLeq(g, Zero(), Orth(Zero())))


@builder("bot-bot")
def _b_bot_bot(k):
    g = ctx_of("x : qbit")
    phi = _phi(k)
    return item("bot-bot", k, EffLeq(g, phi, Orth(Orth(phi))), "bot-bot")


@builder("leq-ovee")
def _b_leq_ovee(k):
    g = ctx_of("x : qbit")
    phi = _phi(k)
    return item("leq-ovee", k, EffLeq(g, phi, OSum(phi, Orth(phi))), "leq-ovee")


@builder("ovee-mono")
def _b_ovee_mono(k):
    g = ctx_of("x : qbit")
    phi = _phi(k)
    goal = EffLeq(g, OSum(Zero(), phi), OSum(Orth(phi), phi))
    return item("ovee-mono", k, goal, "ovee-mono")


@builder("ovee-comm")
def _b_ovee_comm(k):
    g = ctx_of("x : qbit")
    phi = _phi(k)
    goal = EffLeq(g, OSum(phi, Orth(phi)), OSum(Orth(phi), phi))
    return item("ovee-comm", k, goal, "ovee-comm")


@builder("perp-rotate")
def _b_perp_rotate(k):
    g = ctx_of("x : qbit")
    phi = _phi(k)
    goal = EffLeq(g, OSum(phi, Orth(phi)), Orth(Zero()))
    return item("perp-rotate", k, goal, "perp-rotate")


@builder("ovee-assoc")
def _b_ovee_assoc(k):
    if k == 2:
        g = Context()
        a, b, c = ScalarLit(Fraction(1, 4)), ScalarLit(Fraction(1, 4)), ScalarLit(Fraction(1, 2))
    else:
        g = ctx_of("x : qbit")
        a, b, c = Zero(), _phi(k), Orth(_phi(k))
    goal = EffLeq(g, OSum(a, OSum(b, c)), OSum(OSum(a, b), c))
    return item("ovee-assoc", k, goal, "ovee-assoc")


@builder("ovee-0")
def _b_ovee_0(k):
    g = ctx_of("x : qbit")
    phi = _phi(k)
    return item("ovee-0", k, EffLeq(g, OSum(phi, Zero()), phi), "ovee-0",
                mutant=EffLeq(g, OSum(phi, one()), phi))


@builder("ortho-1")
def _b_ortho_1(k):
    g = ctx_of("x : qbit")
    phi = _phi(k)
    goal = EffLeq(g, Orth(Orth(phi)), phi)
    return item("ortho-1", k, goal, "ortho-1(ortho-2)",
                mutant=EffLeq(g, Orth(phi), phi))


@builder("ortho-2")
def _b_ortho_2(k):
    g = ctx_of("x : qbit")
    phi = _phi(k)
    return item("ortho-2", k, EffLeq(g, one(), OSum(phi, Orth(phi))), "ortho-2")


@builder("dist-l")
def _b_dist_l(k):
    g = ctx_of("x : qbit")
    chi = _phi(0)
    a, b = ScalarLit(Fraction(1, 3)), ScalarLit(Fraction(1, 2))
    from .syntax import SMul

    lhs = SMul(OSum(a, b), chi)
    rhs = OSum(SMul(a, chi), SMul(b, chi))
    goals = [
        EffLeq(g, lhs, rhs),
        EffLeq(g, rhs, lhs),
        EffLeq(g, SMul(a, chi), Orth(SMul(b, chi))),
    ]
    return item("dist-l", k, goals[k], "dist-l")


@builder("dist-r")
def _b_dist_r(k):
    g = ctx_of("x : qbit")
    phi = ScalarLit(Fraction(1, 2))
    psi, chi = _phi(0), Orth(_phi(0))
    from .syntax import SMul

    lhs = SMul(phi, OSum(psi, chi))
    rhs = OSum(SMul(phi, psi), SMul(phi, chi))
    goals = [
        EffLeq(g, lhs, rhs),
        EffLeq(g, rhs, lhs),
        EffLeq(g, SMul(phi, psi), Orth(SMul(phi, chi))),
    ]
    return item("dist-r", k, goals[k], "dist-r")


@builder("unit-l")
def _b_unit_l(k):
    g = ctx_of("x : qbit")
    phi = _phi(k)
    from .syntax import SMul

    goal = EffLeq(g, SMul(one(), phi), phi) if k % 2 == 0 else EffLeq(g, phi, SMul(one(), phi))
    return item("unit-l", k, goal, "unit-l")


@builder("unit-r")
def _b_unit_r(k):
    g = [Context(), ctx_of("z : I"), Context()][k]
    phi = [ScalarLit(Fraction(1, 2)), E("bot(0)"), E("1/3 . 1/2")][k]
    from .syntax import SMul

    goal = EffLeq(g, SMul(phi, one()), phi) if k % 2 == 0 else EffLeq(g, phi, SMul(phi, one()))
    return item("unit-r", k, goal, "unit-r")


@builder("assoc")
def _b_assoc(k):
    g = ctx_of("x : qbit")
    a, b = ScalarLit(Fraction(1, 2)), ScalarLit(Fraction(1, 3))
    chi = _phi(k)
    from .syntax import SMul

    lhs = SMul(a, SMul(b, chi))
    rhs = SMul(SMul(a, b), chi)
    goal = EffLeq(g, lhs, rhs) if k % 2 == 0 else EffLeq(g, rhs, lhs)
    return item("assoc", k, goal, "assoc")


@builder("comm")
def _b_comm(k):
    a = [ScalarLit(Fraction(1, 2)), E("bot(0)"), ScalarLit(Fraction(1, 3))][k]
    b = [ScalarLit(Fraction(1, 3)), ScalarLit(Fraction(3, 4)), Zero()][k]
    from .syntax import SMul

    goal = EffLeq(Context(), SMul(a, b), SMul(b, a))
    return item("comm", k, goal, "comm")


@builder("case-cong")
def _b_case_cong(k):
    g = ctx_of("s : I + I, x : qbit")
    from .syntax import CaseEff, Var

    lhs = CaseEff(Var("s"), "a", _phi(k), "b", Zero())
    rhs = CaseEff(Measure(((one(), Var("s")),)), "a", _phi(k), "b", Zero())
    goal = EffLeq(g, lhs, rhs)
    return item("case-cong", k, goal, "case-cong(auto; auto; measure-1)")


@builder("case-mono")
def _b_case_mono(k):
    g = ctx_of("s : I + I, x : qbit")
    from .syntax import CaseEff, Var

    lhs = CaseEff(Var("s"), "a", Zero(), "b", _phi(k))
    rhs = CaseEff(Var("s"), "a", _phi(k), "b", _phi(k))
    return item("case-mono", k, EffLeq(g, lhs, rhs), "case-mono")


@builder("beta-plus-1-eff")
def _b_beta_plus_1_eff(k):
    g = ctx_of("m : I, x : qbit")
    from .syntax import Ascribe, CaseEff, Inl, Var

    phi = _phi(k)
    lhs = CaseEff(Ascribe(Inl(Var("m")), ty_of("I + I")), "a", phi, "b", Zero())
    goal = EffLeq(g, lhs, phi) if k % 2 == 0 else EffLeq(g, phi, lhs)
    script = ScriptNode("beta-plus-1-eff", {"ty": ty_of("I + I")}, None)
    return item("beta-plus-1-eff", k, goal, script)


@builder("beta-plus-2-eff")
def _b_beta_plus_2_eff(k):
    g = ctx_of("m : I, x : qbit")
    from .syntax import Ascribe, CaseEff, Inr, Var

    phi = _phi(k)
    lhs = CaseEff(Ascribe(Inr(Var("m")), ty_of("I + I")), "a", Zero(), "b", phi)
    goal = EffLeq(g, lhs, phi) if k % 2 == 0 else EffLeq(g, phi, lhs)
    script = ScriptNode("beta-plus-2-eff", {"ty": ty_of("I + I")}, None)
    return item("beta-plus-2-eff", k, goal, script)


@builder("eta-plus-eff")
def _b_eta_plus_eff(k):
    g = ctx_of("z : I + I")
    from .syntax import CaseEff, Var

    phi = [one(), Zero(), E("1/2")][k]
    rhs = CaseEff(Var("z"), "a", phi, "b", phi)
    goal = EffLeq(g, phi, rhs) if k % 2 == 0 else EffLeq(g, rhs, phi)
    return item("eta-plus-eff", k, goal, "eta-plus-eff")


@builder("case-ovee")
def _b_case_ovee(k):
    g = ctx_of("s : I + I, x : qbit")
    from .syntax import CaseEff, Var

    phi = _phi(k)
    lhs = CaseEff(Var("s"), "a", OSum(phi, Orth(phi)), "b", OSum(Zero(), one()))
    rhs = OSum(
        CaseEff(Var("s"), "a", phi, "b", Zero()),
        CaseEff(Var("s"), "a", Orth(phi), "b", one()),
    )
    goal = EffLeq(g, lhs, rhs) if k % 2 == 0 else EffLeq(g, rhs, lhs)
    return item("case-ovee", k, goal, "case-ovee")


@builder("case-bot")
def _b_case_bot(k):
    g = ctx_of("s : I + I, x : qbit")
    from .syntax import CaseEff, Var

    phi = _phi(k)
    lhs = CaseEff(Var("s"), "a", Orth(phi), "b", Orth(Zero()))
    rhs = Orth(CaseEff(Var("s"), "a", phi, "b", Zero()))
    goal = EffLeq(g, lhs, rhs) if k % 2 == 0 else EffLeq(g, rhs, lhs)
    return item("case-bot", k, goal, "case-bot")


@builder("case-leq")
def _b_case_leq(k):
    g = ctx_of("s : I + I, x : qbit")
    from .syntax import CaseEff, Var

    phi = _phi(k)
    lhs = CaseEff(Var("s"), "a", Zero(), "b", phi)
    goal = EffLeq(g, lhs, OSum(phi, Zero())) if k == 0 else EffLeq(g, lhs, phi)
    return item("case-leq", k, goal, "case-leq",
                mutant=EffLeq(g, lhs, Zero()))


@builder("case-times")
def _b_case_times(k):
    g = ctx_of("s : I + I, x : qbit")
    from .syntax import CaseEff, SMul, Var

    chi = ScalarLit(Fraction(1, 2))
    phi = _phi(k)
    lhs = CaseEff(Var("s"), "a", SMul(chi, phi), "b", SMul(chi, Zero()))
    rhs = SMul(chi, CaseEff(Var("s"), "a", phi, "b", Zero()))
    goal = EffLeq(g, lhs, rhs) if k % 2 == 0 else EffLeq(g, rhs, lhs)
    return item("case-times", k, goal, "case-times")


# ----------------------------------------------------------------- qubit pack


@builder("qbit-new")
def _b_qbit_new(k):
    g = [Context(), ctx_of("z : I"), ctx_of("z : qbit")][k]
    return item("qbit-new", k, Typing(g, T("plus"), TQbit()), "qbit-new")


@builder("qbit-x")
def _b_qbit_x(k):
    g = ctx_of("x : qbit")
    terms = [T("X x"), T("X X x"), T("X Z x")]
    scripts = ["qbit-x", "qbit-x(qbit-x)", "qbit-x(qbit-z)"]
    return item("qbit-x", k, Typing(g, terms[k], TQbit()), scripts[k])


@builder("qbit-z")
def _b_qbit_z(k):
    g = ctx_of("x : qbit")
    terms = [T("Z x"), T("Z Z x"), T("Z X x")]
    scripts = ["qbit-z", "qbit-z(qbit-z)", "qbit-z(qbit-x)"]
    return item("qbit-z", k, Typing(g, terms[k], TQbit()), scripts[k])


@builder("qbit-cz")
def _b_qbit_cz(k):
    g = ctx_of("x : qbit, y : qbit")
    terms = [T("E x y"), T("E (X x) y"), T("E x (Z y)")]
    return item("qbit-cz", k, Typing(g, terms[k], ty_of("qbit * qbit")), "qbit-cz")


@builder("qbit-cz-x")
def _b_qbit_cz_x(k):
    g = ctx_of("x : qbit, y : qbit")
    ms = [T("x"), T("X x"), T("Z x")]
    m = ms[k]
    from .syntax import CZ, LetPair, Pair, PauliX, PauliZ, Var

    lhs = CZ(PauliX(m), Var("y"))
    rhs = LetPair("a", "b", CZ(m, Var("y")), Pair(PauliX(Var("a")), PauliZ(Var("b"))))
    return item("qbit-cz-x", k, TermEq(g, lhs, rhs, ty_of("qbit * qbit")), "qbit-cz-x")


@builder("qbit-cz-z")
def _b_qbit_cz_z(k):
    g = ctx_of("x : qbit, y : qbit")
    ms = [T("x"), T("X x"), T("Z x")]
    m = ms[k]
    from .syntax import CZ, LetPair, Pair, PauliZ, Var

    lhs = CZ(PauliZ(m), Var("y"))
    rhs = LetPair("a", "b", CZ(m, Var("y")), Pair(PauliZ(Var("a")), Var("b")))
    return item("qbit-cz-z", k, TermEq(g, lhs, rhs, ty_of("qbit * qbit")), "qbit-cz-z")


@builder("qbit-x-proj")
def _b_qbit_x_proj(k):
    g = ctx_of("x : qbit")
    angles = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(3, 2)), (Fraction(5, 4), Fraction(3, 4))]
    a, na = angles[k]
    from .syntax import PauliX, ProjPlus, Var

    lhs = ProjPlus(PauliX(Var("x")), a)
    rhs = ProjPlus(Var("x"), na)
    goal = EffLeq(g, lhs, rhs) if k % 2 == 0 else EffLeq(g, rhs, lhs)
    return item("qbit-x-proj", k, goal, "qbit-x-proj")


@builder("qbit-z-proj")
def _b_qbit_z_proj(k):
    g = ctx_of("x : qbit")
    angles = [(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(3, 2)), (Fraction(7, 4), Fraction(3, 4))]
    a, na = angles[k]
    from .syntax import PauliZ, ProjPlus, Var

    lhs = ProjPlus(PauliZ(Var("x")), a)
    rhs = ProjPlus(Var("x"), na)
    goal = EffLeq(g, lhs, rhs) if k % 2 == 0 else EffLeq(g, rhs, lhs)
    return item("qbit-z-proj", k, goal, "qbit-z-proj")


@builder("qbit-xx")
def _b_qbit_xx(k):
    g = ctx_of("x : qbit")
    ms = [T("x"), T("Z x"), T("X x")]
    from .syntax import PauliX

    lhs = PauliX(PauliX(ms[k]))
    return item("qbit-xx", k, TermEq(g, lhs, ms[k], TQbit()), "qbit-xx")


@builder("qbit-zz")
def _b_qbit_zz(k):
    g = ctx_of("x : qbit")
    ms = [T("x"), T("X x"), T("Z x")]
    from .syntax import PauliZ

    lhs = PauliZ(PauliZ(ms[k]))
    return item("qbit-zz", k, TermEq(g, lhs, ms[k], TQbit()), "qbit-zz")


@builder("qbit-xz-zx")
def _b_qbit_xz_zx(k):
    g = ctx_of("x : qbit")
    angles = [Fraction(0), Fraction(1, 2), Fraction(3, 2)]
    from .syntax import PauliX, PauliZ, ProjPlus, Var

    lhs = ProjPlus(PauliX(PauliZ(Var("x"))), angles[k])
    rhs = ProjPlus(PauliZ(PauliX(Var("x"))), angles[k])
    goal = EffLeq(g, lhs, rhs) if k % 2 == 0 else EffLeq(g, rhs, lhs)
    return item("qbit-xz-zx", k, goal, "qbit-xz-zx")


# -------------------------------------------------------------- beta-iso pack


@builder("beta-iso")
def _b_beta_iso(k):
    # both measurement arms return the same qubit, so the orthogonality of
    # the two scalar products on the right is within the derivable fragment
    g = ctx_of("m : qbit")
    from .syntax import ProjPlus, SMul, Var

    phis = [ScalarLit(Fraction(1, 2)), ScalarLit(Fraction(1, 3)), ScalarLit(Fraction(3, 4))]
    phi = phis[k]
    angle = [Fraction(0), Fraction(1, 2), Fraction(1)][k]
    psi = ProjPlus(Var("h"), angle)
    redex = Measure(((phi, Var("m")), (Orth(phi), Var("m"))))
    lhs = ProjPlus(redex, angle)
    rhs = OSum(
        SMul(phi, ProjPlus(Var("m"), angle)),
        SMul(Orth(phi), ProjPlus(Var("m"), angle)),
    )
    goal = EffLeq(g, lhs, rhs) if k % 2 == 0 else EffLeq(g, rhs, lhs)
    script = ScriptNode("beta-iso", {"x": "h", "body": psi, "ty": TQbit()}, None)
    return item("beta-iso", k, goal, script)


# -------------------------------------------------------------------- summary


def build_item(rule: str, k: int) -> CorpusItem:
    return BUILDERS[rule](k)


def all_items(packs=("core", "qubit", "beta-iso")) -> list[CorpusItem]:
    out = []
    for rule in ALL_RULE_NAMES:
        if SCHEMAS[rule].pack not in packs:
            continue
        for k in range(3):
            out.append(build_item(rule, k))
    return out


assert set(BUILDERS) == set(ALL_RULE_NAMES), sorted(set(ALL_RULE_NAMES) - set(BUILDERS))
