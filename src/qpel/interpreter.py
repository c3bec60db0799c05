"""Interpretation of checked judgements in a triangle backend.

A context denotes the left-nested tensor of its entry types over the unit
object, a typing judgement denotes a computation from the context object to
the type object, and an effect judgement denotes a predicate on the context
object.  Context bookkeeping (which variables feed which subterm) follows the
same deterministic splitting policy as the type checker, so every accepted
judgement interprets without further information.

Truth of an equation is denotational equality; truth of an inequality is the
order of the predicate module.  Both are delegated to the backend, which owns
its notion of equality (exact or within tolerance).
"""
from __future__ import annotations

from .syntax import (
    Ascribe,
    Case,
    CaseEff,
    Context,
    CZ,
    EffForm,
    EffLeq,
    Inl,
    Inr,
    Judgement,
    LetPair,
    Measure,
    NewPlus,
    Orth,
    OSum,
    Pair,
    PauliX,
    PauliZ,
    ProjPlus,
    ScalarLit,
    SMul,
    Star,
    TermEq,
    TQbit,
    TSum,
    TTensor,
    TUnit,
    Typing,
    Var,
    Zero,
    free_vars,
)
from .triangle import Backend, BackendError, compose_all, cotuple_n, dist_n, tensor_all
from .rules import freshen_binder
from .typecheck import split_context, synth_type


class InterpError(Exception):
    pass


def interp_type(backend: Backend, ty):
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


def ctx_ob(backend: Backend, g: Context):
    return tensor_all(backend, _factors(backend, g))


def _factors(backend: Backend, g: Context):
    return [interp_type(backend, ty) for _, ty in g]


def _positions(g: Context, names):
    names = set(names)
    return {i for i, name in enumerate(g.names()) if name in names}


def drop_mor(backend: Backend, g: Context, keep):
    """Discard the context entries outside `keep`."""
    return backend.drop_mor(_factors(backend, g), _positions(g, keep))


def split_mor(backend: Backend, g: Context, left_names):
    """The structural iso from the context object to the tensor of its
    restriction to `left_names` with the rest (both in context order)."""
    return backend.split_mor(_factors(backend, g), _positions(g, left_names))


def interp_term(backend: Backend, g: Context, m, ty):
    """The computation denoted by g |- m : ty (assumed checked)."""
    match m:
        case Ascribe(term=t):
            return interp_term(backend, g, t, ty)

        case Var(name=x):
            a = interp_type(backend, ty)
            keep = drop_mor(backend, g, {x})
            return backend.compose(backend.unit_left(a), keep)

        case Star():
            return backend.terminal(ctx_ob(backend, g))

        case Pair(left=l, right=r):
            if not isinstance(ty, TTensor):
                raise InterpError("pair at non-tensor type")
            gl, gr = split_context(g, [free_vars(l), free_vars(r)])
            fl = interp_term(backend, gl, l, ty.left)
            fr = interp_term(backend, gr, r, ty.right)
            return backend.compose(backend.tensor_mor(fl, fr), split_mor(backend, g, gl.names()))

        case LetPair(x=x, y=y, pair=p, body=n):
            tp = synth_type(g, p)
            if not isinstance(tp, TTensor):
                raise InterpError("let scrutinee lacks a tensor type")
            x, n = freshen_binder(x, n, g.names())
            y, n = freshen_binder(y, n, set(g.names()) | {x})
            gp, gn = split_context(g, [free_vars(p), free_vars(n) - {x, y}])
            fp = interp_term(backend, gp, p, tp)
            a = interp_type(backend, tp.left)
            b = interp_type(backend, tp.right)
            dn = ctx_ob(backend, gn)
            body_ctx = gn.extend(x, tp.left).extend(y, tp.right)
            fn = interp_term(backend, body_ctx, n, ty)
            ab = backend.tensor_ob(a, b)
            return compose_all(
                backend,
                fn,
                backend.assoc_inv(dn, a, b),
                backend.symmetry(ab, dn),
                backend.tensor_mor(fp, backend.identity(dn)),
                split_mor(backend, g, gp.names()),
            )

        case Inl(arg=a):
            if not isinstance(ty, TSum):
                raise InterpError("inl at non-sum type")
            f = interp_term(backend, g, a, ty.left)
            return backend.compose(
                backend.inj1(interp_type(backend, ty.left), interp_type(backend, ty.right)), f
            )

        case Inr(arg=a):
            if not isinstance(ty, TSum):
                raise InterpError("inr at non-sum type")
            f = interp_term(backend, g, a, ty.right)
            return backend.compose(
                backend.inj2(interp_type(backend, ty.left), interp_type(backend, ty.right)), f
            )

        case Case(scrut=s, x=x, left=n, y=y, right=p):
            ts = synth_type(g, s)
            if not isinstance(ts, TSum):
                raise InterpError("case scrutinee lacks a sum type")
            x, n = freshen_binder(x, n, g.names())
            y, p = freshen_binder(y, p, set(g.names()) | {x})
            branch_need = (free_vars(n) - {x}) | (free_vars(p) - {y})
            gs, gb = split_context(g, [free_vars(s), branch_need])
            fs = interp_term(backend, gs, s, ts)
            a = interp_type(backend, ts.left)
            b = interp_type(backend, ts.right)
            d = ctx_ob(backend, gb)
            fn = interp_term(backend, gb.extend(x, ts.left), n, ty)
            fp = interp_term(backend, gb.extend(y, ts.right), p, ty)
            branch1 = backend.compose(fn, backend.symmetry(a, d))
            branch2 = backend.compose(fp, backend.symmetry(b, d))
            return compose_all(
                backend,
                backend.cotuple(branch1, branch2),
                backend.dist_left(a, b, d),
                backend.tensor_mor(fs, backend.identity(d)),
                split_mor(backend, g, gs.names()),
            )

        case Measure(branches=bs):
            eff_need = frozenset().union(*(free_vars(phi) for phi, _ in bs))
            term_need = frozenset().union(*(free_vars(t) for _, t in bs))
            ge, gt = split_context(g, [eff_need, term_need])
            preds = [interp_effect(backend, ge, phi) for phi, _ in bs]
            meas = backend.meas(ctx_ob(backend, ge), preds)
            d = ctx_ob(backend, gt)
            arms = [interp_term(backend, gt, t, ty) for _, t in bs]
            n = len(bs)
            return compose_all(
                backend,
                cotuple_n(backend, arms),
                dist_n(backend, n, d),
                backend.tensor_mor(meas, backend.identity(d)),
                split_mor(backend, g, ge.names()),
            )

        case NewPlus():
            return backend.compose(backend.qbit_plus_prep(), backend.terminal(ctx_ob(backend, g)))

        case PauliX(arg=a):
            return backend.compose(backend.qbit_x(), interp_term(backend, g, a, TQbit()))

        case PauliZ(arg=a):
            return backend.compose(backend.qbit_z(), interp_term(backend, g, a, TQbit()))

        case CZ(left=l, right=r):
            gl, gr = split_context(g, [free_vars(l), free_vars(r)])
            fl = interp_term(backend, gl, l, TQbit())
            fr = interp_term(backend, gr, r, TQbit())
            return compose_all(
                backend,
                backend.qbit_cz(),
                backend.tensor_mor(fl, fr),
                split_mor(backend, g, gl.names()),
            )

    raise InterpError(f"not a term: {m!r}")


def interp_effect(backend: Backend, g: Context, e):
    """The predicate on the context object denoted by g |- e eff."""
    obj = ctx_ob(backend, g)
    match e:
        case Zero():
            return backend.pred_zero(obj)

        case ScalarLit(value=v):
            return backend.pred_of_scalar(obj, backend.scalar_of_fraction(v))

        case Orth(arg=a):
            return backend.pred_orth(obj, interp_effect(backend, g, a))

        case OSum(left=a, right=b):
            s = backend.pred_ovee(
                interp_effect(backend, g, a), interp_effect(backend, g, b)
            )
            if s is None:
                raise InterpError(
                    "the denotations of an accepted effect sum are not summable;"
                    " this would contradict soundness"
                )
            return s

        case SMul(scalar=a, body=b):
            r = backend.scalar_of_pred(interp_effect(backend, Context(), a))
            return backend.pred_smul(r, interp_effect(backend, g, b))

        case CaseEff(scrut=m, x=x, left=a, y=y, right=b):
            ts = synth_type(g, m)
            if not isinstance(ts, TSum):
                raise InterpError("caseE scrutinee lacks a sum type")
            x, a = freshen_binder(x, a, g.names())
            y, b = freshen_binder(y, b, set(g.names()) | {x})
            branch_need = (free_vars(a) - {x}) | (free_vars(b) - {y})
            gb, gm = split_context(g, [branch_need, free_vars(m)])
            fm = interp_term(backend, gm, m, ts)
            ta = interp_type(backend, ts.left)
            tb = interp_type(backend, ts.right)
            gbo = ctx_ob(backend, gb)
            h = compose_all(
                backend,
                backend.dist_right(gbo, ta, tb),
                backend.tensor_mor(backend.identity(gbo), fm),
                split_mor(backend, g, gb.names()),
            )
            pa = interp_effect(backend, gb.extend(x, ts.left), a)
            pb = interp_effect(backend, gb.extend(y, ts.right), b)
            paired = backend.pred_pair(
                backend.tensor_ob(gbo, ta), backend.tensor_ob(gbo, tb), pa, pb
            )
            return backend.apply_pred(h, paired)

        case ProjPlus(term=m, angle=q):
            fm = interp_term(backend, g, m, TQbit())
            return backend.apply_pred(fm, backend.qbit_proj(q))

    raise InterpError(f"not an effect: {e!r}")


# ----------------------------------------------------------------- judgements


def judgement_true(backend: Backend, j: Judgement) -> bool:
    """Truth per the denotational semantics (assumes the judgement checked)."""
    if isinstance(j, TermEq):
        return backend.mor_eq(
            interp_term(backend, j.ctx, j.lhs, j.ty),
            interp_term(backend, j.ctx, j.rhs, j.ty),
        )
    if isinstance(j, EffLeq):
        return backend.pred_leq(
            interp_effect(backend, j.ctx, j.low),
            interp_effect(backend, j.ctx, j.high),
        )
    if isinstance(j, Typing):
        interp_term(backend, j.ctx, j.term, j.ty)
        return True
    if isinstance(j, EffForm):
        interp_effect(backend, j.ctx, j.eff)
        return True
    raise TypeError(j)


def weakest_precondition(backend: Backend, f, q):
    """Greatest precondition of a predicate along a computation, i.e. the
    Heisenberg adjoint; exposed on the quantum backend."""
    if not backend.has_qbit:
        raise BackendError("weakest preconditions are exposed on the quantum backend")
    return backend.apply_pred(f, q)


# --------------------------------------------------------------- applicability


def _features(node, acc):
    from .syntax import Syntax

    match node:
        case ScalarLit(value=v):
            if v not in (0, 1):
                acc.add("literal")
        case NewPlus() | PauliX() | PauliZ() | CZ() | ProjPlus():
            acc.add("qbit")
    for f in getattr(node, "__dataclass_fields__", {}):
        v = getattr(node, f)
        if isinstance(v, Syntax):
            _features(v, acc)
        elif isinstance(v, tuple):
            for item in v:
                if isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, Syntax):
                            _features(sub, acc)
                elif isinstance(item, Syntax):
                    _features(item, acc)
    return acc


def _type_has_qbit(ty):
    match ty:
        case TQbit():
            return True
        case TTensor(left=a, right=b) | TSum(left=a, right=b):
            return _type_has_qbit(a) or _type_has_qbit(b)
    return False


def judgement_features(j: Judgement) -> frozenset:
    acc = set()
    for _, ty in j.ctx:
        if _type_has_qbit(ty):
            acc.add("qbit")
    if isinstance(j, Typing):
        parts = [j.term]
        tys = [j.ty]
    elif isinstance(j, TermEq):
        parts = [j.lhs, j.rhs]
        tys = [j.ty]
    elif isinstance(j, EffForm):
        parts = [j.eff]
        tys = []
    else:
        parts = [j.low, j.high]
        tys = []
    for p in parts:
        _features(p, acc)
    for t in tys:
        if _type_has_qbit(t):
            acc.add("qbit")
    return frozenset(acc)


def backend_applicable(backend: Backend, j: Judgement) -> bool:
    feats = judgement_features(j)
    if "qbit" in feats and not backend.has_qbit:
        return False
    if "literal" in feats and backend.name == "set":
        return False
    return True
