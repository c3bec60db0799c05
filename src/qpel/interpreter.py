"""Interpretation of checked judgements in a triangle backend: the soundness
proof read as code.

The paper proves soundness by giving every formation rule an interpretation
in an arbitrary state-and-effect triangle.  `interpret` has one case per
rule, mapping the denotations of the premises to the rule's construction,
and folds a type checker derivation with them.  A context denotes the
left-nested tensor of its entry types over the unit object, a typing
judgement a computation from the context object to the type object, and an
effect judgement a predicate on the context object.  Nothing is decided
twice: the scrutinee type of let, case and caseE is the derivation's `ty`
argument, each zone is the context of its premise without the variables
the premise binds, and whether a backend can interpret a judgement is read
off the same derivations and asked of the backend (`backend_applicable`).

Each backend folds each judgement once.  `interpret` keeps every denotation
it computes in the backend's `memo`, keyed by the derivation's conclusion,
and `interp_type` keeps every object keyed by its type.  Judgement equality
is alpha-equivalence on binders, so judgements that differ only in binder
names share one entry.  A memo lives as long as its backend, and the driver
makes its backends per file.  Nothing configures the memo: it has no switch
and no size bound.

The memo is sound because equal judgements have equal denotations.  The
checker is syntax-directed, so a judgement fixes its derivation but for the
scrutinee types that erased ascriptions chose: `case (inl unit : I + I) of
...` and `case (inl unit : I + (I + I)) of ...` conclude one judgement and
read different sum types.  Such derivations are instances of one derivation
with a type variable for each choice, which occurs in neither the context
nor the conclusion's type.  Every rule's construction is natural in the
types of its premises along total maps, and every object has a state, so
there is a total map between any two choices; naturality along it makes the
two denotations equal (in the quantum backend, up to the rounding its
`mor_eq` tolerates).  The fold reads only context positions, types and
formation premises: binder names and inequality premises never reach a
denotation.  A shared denotation is never written to: a backend operation
may put its operands' blocks, rows or predicates into its result, but it
writes only into what it allocated.

`evaluate` gives the state a closed term denotes.  In the quantum backend it
is a second fold over the derivation whose carrier is a state over the live
context factors, not a map on the whole context; it splits each context as
the map fold does, the scrutinee's zone last.  Its states depend on the
state it is given and are not kept; the measurement predicates it reads come
from `interpret`, so a measurement whose branches are `proj(a, q)` and
`bot(proj(a, q))` builds the projector once.

`interp_term`, `interp_effect` and `judgement_true` take the derivations the
type checker built.  Given a bare judgement instead, they derive it first
(`assume_checked`), admitting its inequality obligations unproved: the fold
reads no inequality premise, so the judgement is assumed checked.

Truth of an equation is denotational equality; truth of an inequality is the
order of the predicate module.  Both are delegated to the backend, which owns
its notion of equality (exact or within tolerance).
"""
from __future__ import annotations

from .backends.quantum import QuantumBackend
from .rules import SCHEMAS
from .syntax import EffForm, EffLeq, Judgement, TermEq, TQbit, TSum, TTensor, TUnit, Typing
from .triangle import Backend, BackendError, compose_all, cotuple_n, dist_n, tensor_all
from .typecheck import (
    Derivation,
    Resolver,
    check_judgement,
    split_context,  # not called here; perfbench/tracer.py rebinds it by name
    synth_type,  # not called here; perfbench/tracer.py rebinds it by name
)


class InterpError(Exception):
    pass


def interp_type(backend: Backend, ty):
    ob = backend.memo.get(ty)
    if ob is None:
        ob = backend.memo[ty] = _object(backend, ty)
    return ob


def _object(backend: Backend, ty):
    match ty:
        case TUnit():
            return backend.unit_ob()
        case TTensor(left=a, right=b):
            return backend.tensor_ob(interp_type(backend, a), interp_type(backend, b))
        case TSum(left=a, right=b):
            return backend.sum_ob(interp_type(backend, a), interp_type(backend, b))
        case TQbit():
            return backend.qbit_ob()
    raise InterpError(f"not a type: {ty!r}")


# A context is given as a Context or as its tuple of (name, type) entries.


def ctx_ob(backend: Backend, g):
    return tensor_all(backend, _factors(backend, g))


def _factors(backend: Backend, g):
    return [interp_type(backend, ty) for _, ty in g]


def _positions(g, names):
    names = set(names)
    return {i for i, (name, _) in enumerate(g) if name in names}


def drop_mor(backend: Backend, g, keep):
    """Discard the context entries outside `keep`."""
    return backend.drop_mor(_factors(backend, g), _positions(g, keep))


def split_mor(backend: Backend, g, left_names):
    """The structural iso from the context object to the tensor of its
    restriction to `left_names` with the rest (both in context order)."""
    return backend.split_mor(_factors(backend, g), _positions(g, left_names))


# ----------------------------------------------------------------- the fold


def _zone(d: Derivation, binders=0):
    """The context entries of premise d without the `binders` variables the
    premise binds, which come last."""
    entries = d.judgement.ctx.entries
    return entries[: len(entries) - binders]


def interpret(backend: Backend, d: Derivation):
    """The denotation of the conclusion of a formation derivation: a
    computation for a typing, a predicate for an effect formation.  Folded
    once per judgement in each backend (see the module docstring), and
    shared after that."""
    den = backend.memo.get(d.judgement)
    if den is None:
        den = backend.memo[d.judgement] = _fold(backend, d)
    return den


def _fold(backend: Backend, d: Derivation):
    """One case per formation rule, mapping the denotations of the premises
    to the rule's construction.  A premise's binders end its context, so let,
    case, measure and caseE split the goal's context as (zone of the body or
    arms, zone of the scrutinee) and reach the body's or the arms' context
    by `assoc_inv` or right distributivity, composing no symmetry."""
    j, ps = d.judgement, d.children

    def rec(p):
        return interpret(backend, p)

    def split(first, binders=0):
        # the iso from the context object to the zone of premise `first`,
        # which binds `binders` variables, tensored with the rest
        return split_mor(backend, j.ctx, [name for name, _ in _zone(first, binders)])

    def summands(ty):
        return interp_type(backend, ty.left), interp_type(backend, ty.right)

    match d.rule:
        case "var":
            keep = drop_mor(backend, j.ctx, {j.term.name})
            return backend.compose(backend.unit_left(interp_type(backend, j.ty)), keep)
        case "unit":
            return backend.terminal(ctx_ob(backend, j.ctx))
        case "tensor":
            l, r = ps
            return backend.compose(backend.tensor_mor(rec(l), rec(r)), split(l))
        case "let":
            p, n = ps
            a, b = summands(d.args["ty"])
            dn = ctx_ob(backend, _zone(n, 2))
            return compose_all(
                backend,
                rec(n),
                backend.assoc_inv(dn, a, b),
                backend.tensor_mor(backend.identity(dn), rec(p)),
                split(n, 2),
            )
        case "inl":
            return backend.compose(backend.inj1(*summands(j.ty)), rec(ps[0]))
        case "inr":
            return backend.compose(backend.inj2(*summands(j.ty)), rec(ps[0]))
        case "case":
            s, l, r = ps
            a, b = summands(d.args["ty"])
            dd = ctx_ob(backend, _zone(l, 1))
            return compose_all(
                backend,
                backend.cotuple(rec(l), rec(r)),
                backend.dist_right(dd, a, b),
                backend.tensor_mor(backend.identity(dd), rec(s)),
                split(l, 1),
            )
        case "measure":
            # ps[0] proves that the branch effects, the formations, cover
            # the top effect; the arms follow
            arms, first = ps[1:], d.formations[0]
            meas = backend.meas(ctx_ob(backend, _zone(first)), [rec(f) for f in d.formations])
            dd = ctx_ob(backend, _zone(arms[0]))
            return compose_all(
                backend,
                cotuple_n(backend, [rec(arm) for arm in arms]),
                dist_n(backend, len(arms), dd),
                backend.tensor_mor(backend.identity(dd), meas),
                split(arms[0]),
            )
        case "qbit-new":
            discard = backend.terminal(ctx_ob(backend, j.ctx))
            return backend.compose(backend.qbit_plus_prep(), discard)
        case "qbit-x":
            return backend.compose(backend.qbit_x(), rec(ps[0]))
        case "qbit-z":
            return backend.compose(backend.qbit_z(), rec(ps[0]))
        case "qbit-cz":
            l, r = ps
            pair = backend.tensor_mor(rec(l), rec(r))
            return compose_all(backend, backend.qbit_cz(), pair, split(l))
        case "eff-0":
            return backend.pred_zero(ctx_ob(backend, j.ctx))
        case "lit":
            scalar = backend.scalar_of_fraction(j.eff.value)
            return backend.pred_of_scalar(ctx_ob(backend, j.ctx), scalar)
        case "eff-bot":
            return backend.pred_orth(ctx_ob(backend, j.ctx), rec(ps[0]))
        case "eff-ovee":
            # ps[0] proves the summands, the formations, orthogonal
            s = backend.pred_ovee(*(rec(f) for f in d.formations))
            if s is None:
                raise InterpError(
                    "the denotations of an accepted effect sum are not summable;"
                    " this would contradict soundness"
                )
            return s
        case "eff-mult":
            scalar, body = ps
            return backend.pred_smul(backend.scalar_of_pred(rec(scalar)), rec(body))
        case "eff-case":
            l, r, m = ps
            ta, tb = summands(d.args["ty"])
            gbo = ctx_ob(backend, _zone(l, 1))
            h = compose_all(
                backend,
                backend.dist_right(gbo, ta, tb),
                backend.tensor_mor(backend.identity(gbo), rec(m)),
                split(l, 1),
            )
            paired = backend.pred_pair(
                backend.tensor_ob(gbo, ta), backend.tensor_ob(gbo, tb), rec(l), rec(r)
            )
            return backend.apply_pred(h, paired)
        case "qbit-proj":
            return backend.apply_pred(rec(ps[0]), backend.qbit_proj(j.eff.angle))
    raise InterpError(f"{d.rule} is not a formation rule")


# ------------------------------------------------ closed terms, state-forward


def evaluate(backend: Backend, d: Derivation):
    """The state denoted by a closed term, given its derivation of |- M : A.

    In the quantum backend it is the second fold below, whose carrier is a
    state, so no map on a whole context is built; in the others it is the
    state of the map `interpret` gives."""
    if not isinstance(backend, QuantumBackend):
        return backend.state_of_mor(interpret(backend, d))
    return _forward(backend, d, backend.unit_state(), backend.unit_ob())


def _forward(backend: QuantumBackend, d: Derivation, s, rest):
    """(id (x) f)(s), a state on rest (x) A, where f interprets the typing
    derivation d of G |- M : A and s is a state on the spectator factor
    `rest` followed by the factors of G.  One case per term formation rule:
    a premise runs on the trailing factors, its zone, and the other entries
    join the spectators, so a scrutinee's value lands where the binders of
    the body or the arms end their context, as in `_fold`; a dropped
    variable is traced out; case and measure run each arm on the blocks of
    its summand or outcome, and add up the results."""
    j, ps = d.judgement, d.children
    g = j.ctx.entries
    obs = [rest] + _factors(backend, g)

    def rec(p, s, rest):
        return _forward(backend, p, s, rest)

    def trail(p):
        # s with rest first, the entries outside the zone of premise p next
        # and the zone last; and the object of those other entries
        zone = {name for name, _ in _zone(p)}
        others = [i for i, (name, _) in enumerate(g, 1) if name not in zone]
        inside = [i for i, (name, _) in enumerate(g, 1) if name in zone]
        moved = backend.reshuffle_state(s, obs, [0] + others + inside)
        return moved, tensor_all(backend, [obs[i] for i in others])

    def pair(l, r):
        # l first, with r's zone among the spectators, then r after l's value
        s_l, gr = trail(l)
        a = interp_type(backend, l.judgement.ty)
        s_a = rec(l, s_l, backend.tensor_ob(rest, gr))
        return rec(r, backend.reshuffle_state(s_a, [rest, gr, a], [0, 2, 1]),
                   backend.tensor_ob(rest, a))

    def arms(s, sizes):
        # s on rest (x) zone (x) (a sum of summands with `sizes` blocks) cut
        # into the summands' blocks: the sum's block index is the least
        # significant in flat order
        n, start, out = sum(sizes), 0, []
        for size in sizes:
            out.append(tuple(b for u in range(start, len(s), n) for b in s[u : u + size]))
            start += size
        return out

    def total(states):
        return tuple(sum(blocks) for blocks in zip(*states))

    def summands(ty):
        return interp_type(backend, ty.left), interp_type(backend, ty.right)

    match d.rule:
        case "var":
            names = [name for name, _ in g]
            return backend.reshuffle_state(s, obs, [0, names.index(j.term.name) + 1])
        case "unit":
            return backend.reshuffle_state(s, obs, [0])
        case "tensor":
            return pair(*ps)
        case "let":
            p, n = ps
            s, dn = trail(p)
            # the body's context is the zone dn, then the pair's two binders
            return rec(n, rec(p, s, backend.tensor_ob(rest, dn)), rest)
        case "inl":
            return backend.apply_trailing(backend.inj1(*summands(j.ty)), rec(ps[0], s, rest), rest)
        case "inr":
            return backend.apply_trailing(backend.inj2(*summands(j.ty)), rec(ps[0], s, rest), rest)
        case "case":
            sc, l, r = ps
            s, dd = trail(sc)
            a, b = summands(d.args["ty"])
            # each arm's context is the zone dd, then its binder
            left, right = arms(rec(sc, s, backend.tensor_ob(rest, dd)), (len(a), len(b)))
            return total([rec(l, left, rest), rec(r, right, rest)])
        case "measure":
            # the branch effects, the formations, are predicates on the zone
            # of the first; the arms share the other entries
            first = d.formations[0]
            s, dd = trail(first)
            meas = backend.meas(ctx_ob(backend, _zone(first)),
                                [interpret(backend, f) for f in d.formations])
            s = backend.apply_trailing(meas, s, backend.tensor_ob(rest, dd))
            outcomes = arms(s, [1] * len(d.formations))
            return total([rec(arm, o, rest) for arm, o in zip(ps[1:], outcomes)])
        case "qbit-new":
            s = backend.reshuffle_state(s, obs, [0])
            return backend.apply_trailing(backend.qbit_plus_prep(), s, rest)
        case "qbit-x":
            return backend.apply_trailing(backend.qbit_x(), rec(ps[0], s, rest), rest)
        case "qbit-z":
            return backend.apply_trailing(backend.qbit_z(), rec(ps[0], s, rest), rest)
        case "qbit-cz":
            return backend.apply_trailing(backend.qbit_cz(), pair(*ps), rest)
    raise InterpError(f"{d.rule} is not a term formation rule")


# ----------------------------------------------------------------- judgements


class _Admitted(Resolver):
    """Admits every inequality obligation unproved."""

    def resolve(self, goal: EffLeq) -> Derivation:
        return Derivation("admitted", goal)


def assume_checked(j: Judgement) -> tuple:
    """The derivations of the components of a judgement that is assumed
    checked: derived by the type checker with every inequality obligation
    admitted, which the fold never reads."""
    return check_judgement(j, _Admitted())[1]


def interp_term(backend: Backend, g, m, ty, derivation=None):
    """The computation denoted by g |- m : ty, read off its derivation, which
    is derived first when not given."""
    if derivation is None:
        (derivation,) = assume_checked(Typing(g, m, ty))
    return interpret(backend, derivation)


def interp_effect(backend: Backend, g, e, derivation=None):
    """The predicate on the context object denoted by g |- e eff, read off
    its derivation, which is derived first when not given."""
    if derivation is None:
        (derivation,) = assume_checked(EffForm(g, e))
    return interpret(backend, derivation)


def judgement_true(backend: Backend, j: Judgement, derivations=None) -> bool:
    """Truth per the denotational semantics.  `derivations` are those of j's
    components, as `check_judgement` returns them; they are derived first
    when not given."""
    if derivations is None:
        derivations = assume_checked(j)
    dens = [interpret(backend, d) for d in derivations]
    if isinstance(j, TermEq):
        return backend.mor_eq(*dens)
    if isinstance(j, EffLeq):
        return backend.pred_leq(*dens)
    return True


def weakest_precondition(backend: Backend, f, q):
    """Greatest precondition of a predicate along a computation, i.e. the
    Heisenberg adjoint; exposed on the quantum backend."""
    if not backend.has_qbit:
        raise BackendError("weakest preconditions are exposed on the quantum backend")
    return backend.apply_pred(f, q)


# --------------------------------------------------------------- applicability


def backend_applicable(backend: Backend, j: Judgement, derivations=None) -> bool:
    """Whether the backend has every object and scalar that the fold of j
    reads: its derivations are those of j's components, derived first when
    not given, so a bare judgement that does not typecheck raises, as in
    `judgement_true`.

    Every type of a typing or formation in the derivations is built from the
    types of j's context and type, the scrutinee types and the qubit of the
    qubit rules, since an ascription elsewhere must equal its expected type.
    So the backend is asked for the atoms of those types, the qubit object
    at each qubit rule and the scalar of each literal, and no compound
    object is built.  The proofs of inequality obligations are not read."""
    if derivations is None:
        derivations = assume_checked(j)
    types = [ty for _, ty in j.ctx]
    if isinstance(j, (Typing, TermEq)):
        types.append(j.ty)
    nodes = list(derivations)
    try:
        while nodes:
            d = nodes.pop()
            if not isinstance(d.judgement, (Typing, EffForm)):
                continue
            if d.rule == "lit":
                backend.scalar_of_fraction(d.judgement.eff.value)
            elif SCHEMAS[d.rule].pack == "qubit":
                backend.qbit_ob()
            if "ty" in d.args:
                types.append(d.args["ty"])
            nodes += d.children + d.formations
        while types:
            ty = types.pop()
            if isinstance(ty, (TTensor, TSum)):
                types += ty.left, ty.right
            else:
                interp_type(backend, ty)
    except BackendError:
        return False
    return True
