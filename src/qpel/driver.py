"""File processing pipeline: parse, typecheck, check lemma derivations, and
optionally verify everything denotationally in selected backends.

Exit codes: 0 success, 2 parse failure, 3 typing failure, 4 proof failure,
5 semantic mismatch.  When several declarations fail, the earliest pipeline
stage wins.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .backends import make_backend
from .backends.points import show_point
from .derivation import DerivationError, Env, SearchBudgetExhausted, check_script
from .interpreter import (
    backend_applicable,
    evaluate,
    interp_effect,
    interp_term,
    interp_type,
    judgement_true,
    weakest_precondition,
)
from .parser import (
    AutoNode,
    BothNode,
    CheckDecl,
    EffectDecl,
    ElabError,
    GEquiv,
    LemmaDecl,
    QpelSyntaxError,
    SourceFile,
    TermDecl,
    TypeDecl,
    parse,
)
from .printer import print_type, rational
from .syntax import Ascribe, EffForm, TermEq, Typing, subst
from .typecheck import (
    ObligationError,
    QpelTypeError,
    check_effect,
    check_judgement,
    check_term,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TYPE = 3
EXIT_PROOF = 4
EXIT_SEMANTIC = 5

_STATUS_EXIT = {"type-error": EXIT_TYPE, "proof-error": EXIT_PROOF, "semantic-mismatch": EXIT_SEMANTIC}


def _first_failure(codes) -> int:
    """The least nonzero exit code, the earliest stage that failed; else 0."""
    return min((code for code in codes if code != EXIT_OK), default=EXIT_OK)


@dataclass
class DeclReport:
    name: str
    kind: str
    status: str  # ok | type-error | proof-error | semantic-mismatch
    stage: str  # parsed | typechecked | lemma-checked | backend-verified | evaluated
    message: str = ""
    backends: dict = field(default_factory=dict)  # backend -> true/false/skipped
    elapsed: float = 0.0

    @property
    def ok(self):
        return self.status == "ok"


@dataclass
class FileReport:
    path: str
    decls: list = field(default_factory=list)
    parse_error: str | None = None

    @property
    def exit_code(self) -> int:
        if self.parse_error is not None:
            return EXIT_PARSE
        return _first_failure(_STATUS_EXIT.get(d.status, EXIT_OK) for d in self.decls)

    def to_json(self, timing=False):
        out = {"path": self.path, "exit": self.exit_code}
        if self.parse_error is not None:
            out["parse_error"] = self.parse_error
            return out
        decls = []
        for d in self.decls:
            entry = {"name": d.name, "kind": d.kind, "status": d.status, "stage": d.stage}
            if d.message:
                entry["message"] = d.message
            if d.backends:
                entry["backends"] = d.backends
            if timing:
                entry["elapsed"] = round(d.elapsed, 6)
            decls.append(entry)
        out["decls"] = decls
        return out

    def render_text(self, timing=False) -> str:
        lines = [f"== {self.path}"]
        if self.parse_error is not None:
            lines.append(f"  parse error: {self.parse_error}")
            return "\n".join(lines)
        for d in self.decls:
            mark = "ok  " if d.ok else "FAIL"
            line = f"  [{mark}] {d.kind} {d.name}: {d.stage}"
            if d.backends:
                line += " (" + ", ".join(f"{b}={v}" for b, v in sorted(d.backends.items())) + ")"
            if d.message:
                line += f" -- {d.message}"
            if timing:
                line += f" [{d.elapsed:.3f}s]"
            lines.append(line)
        return "\n".join(lines)


def render_state(backend_name: str, state) -> str:
    if backend_name == "set":
        (point,) = state  # a {0, 1}-distribution is a point mass
        return show_point(point)
    if backend_name == "stochastic":
        items = sorted(state.items(), key=lambda kv: repr(kv[0]))
        return ", ".join(f"{show_point(p)} : {rational(w)}" for p, w in items)
    return render_pred(state)


def render_pred(state) -> str:
    """Density-matrix blocks, a quantum state or predicate, to six
    significant digits."""
    parts = []
    for i, blk in enumerate(state):
        rows = []
        for row in np.asarray(blk):
            rows.append("[" + ", ".join(f"{v.real:.6g}{v.imag:+.6g}j" if abs(v.imag) > 1e-9 else f"{v.real:.6g}" for v in row) + "]")
        parts.append(f"block {i}: [" + ", ".join(rows) + "]")
    return "; ".join(parts)


def _verify_lemma(checked, backends, report: DeclReport):
    """Verify each (judgement, component derivations) pair in each backend."""
    for backend in backends:
        backend_name = backend.name
        applicable = all(backend_applicable(backend, j, ds) for j, ds in checked)
        if not applicable:
            report.backends[backend_name] = "skipped"
            continue
        ok = all(judgement_true(backend, j, ds) for j, ds in checked)
        report.backends[backend_name] = "true" if ok else "false"
        if not ok:
            report.status = "semantic-mismatch"
            report.message = "judgement is false in the %s backend" % backend_name
    if report.status == "ok" and backends:
        report.stage = "backend-verified"


def process_file(sf: SourceFile, *, path="<input>", packs=None, depth=6,
                 verify=()) -> FileReport:
    env = Env(packs=packs or Env().packs, depth=depth)
    backends = [make_backend(name) for name in verify]
    report = FileReport(path)
    # name -> the derivation of a closed term declaration, which `check`
    # evaluates, or why `check` cannot evaluate the declaration
    terms = {}

    for decl in sf.decls:
        t0 = time.monotonic()
        if isinstance(decl, TypeDecl):
            rep = DeclReport(decl.name, "type", "ok", "parsed")
        elif isinstance(decl, (TermDecl, EffectDecl)):
            is_term = isinstance(decl, TermDecl)
            rep = DeclReport(decl.name, "term" if is_term else "effect", "ok", "parsed")
            try:
                resolver = env.resolver(decl.requires)
                if is_term:
                    d = check_term(decl.ctx, decl.term, decl.ty, resolver)
                else:
                    check_effect(decl.ctx, decl.eff, resolver)
                rep.stage = "typechecked"
            except QpelTypeError as exc:
                rep.status, rep.message = "type-error", str(exc)
            except SearchBudgetExhausted as exc:
                rep.status, rep.message = "proof-error", str(exc)
            if not is_term:
                terms[decl.name] = "check expects a term declaration"
            elif not rep.ok:
                terms[decl.name] = f"check names the failed term {decl.name!r}: {rep.message}"
            else:
                terms[decl.name] = "check expects a closed term" if len(decl.ctx) else d
        elif isinstance(decl, LemmaDecl):
            rep = _process_lemma(decl, env, backends)
        elif isinstance(decl, CheckDecl):
            rep = _process_check(decl, terms, backends)
        else:
            raise TypeError(decl)
        rep.elapsed = time.monotonic() - t0
        report.decls.append(rep)
    return report


def _process_lemma(decl: LemmaDecl, env: Env, backends) -> DeclReport:
    rep = DeclReport(decl.name, "lemma", "ok", "parsed")
    goals = decl.judgements()
    script = decl.script

    checked = []
    try:
        resolver = env.resolver(decl.requires)
        for j in goals:
            checked.append(check_judgement(j, resolver))
    except QpelTypeError as exc:
        rep.status, rep.message = "type-error", str(exc)
        return rep
    except SearchBudgetExhausted as exc:
        rep.status, rep.message = "proof-error", str(exc)
        return rep
    rep.stage = "typechecked"

    scripts = [script] * len(checked)
    if isinstance(decl.goal, GEquiv) and isinstance(script, BothNode):
        scripts = [script.fwd, script.bwd]

    try:
        for (j, _), s in zip(checked, scripts):
            if s is None:
                if isinstance(j, TermEq):
                    raise DerivationError(
                        "a term equality lemma needs a `by { ... }` script"
                    )
                s = AutoNode()
            if isinstance(s, AutoNode) and isinstance(j, (Typing, EffForm)):
                # its proof is the typecheck's, built with the `requires` scripts
                continue
            check_script(j, s, env)
    except (DerivationError, ObligationError, SearchBudgetExhausted) as exc:
        rep.status, rep.message = "proof-error", str(exc)
        return rep
    except QpelTypeError as exc:
        rep.status, rep.message = "type-error", str(exc)
        return rep
    rep.stage = "lemma-checked"
    env.add_lemma(decl.name, [j for j, _ in checked])

    _verify_lemma(checked, backends, rep)
    return rep


def _process_check(decl: CheckDecl, terms, backends) -> DeclReport:
    rep = DeclReport(decl.name, "check", "ok", "parsed")
    if decl.name not in terms:
        rep.status, rep.message = "type-error", f"check names unknown declaration {decl.name!r}"
        return rep
    derivation = terms[decl.name]
    if isinstance(derivation, str):
        rep.status, rep.message = "type-error", derivation
        return rep
    for backend in backends:
        if not backend_applicable(backend, derivation.judgement, (derivation,)):
            rep.backends[backend.name] = "skipped"
            continue
        rep.backends[backend.name] = render_state(backend.name, evaluate(backend, derivation))
    if backends and rep.status == "ok":
        rep.stage = "evaluated"
    return rep


# ----------------------------------------------------------------- eval / wp


def eval_decl(sf: SourceFile, name: str, backend_name: str, *, depth=6):
    """Evaluate a closed term declaration to a backend state.  A declaration
    that is open, missing, ill-typed or uses syntax the backend cannot
    interpret raises QpelTypeError."""
    env = Env(depth=depth)
    backend = make_backend(backend_name)
    for decl in sf.decls:
        if isinstance(decl, TermDecl) and decl.name == name:
            if len(decl.ctx):
                raise QpelTypeError(f"declaration {name} is not closed")
            d = check_term(decl.ctx, decl.term, decl.ty, env.resolver(decl.requires))
            if not backend_applicable(backend, d.judgement, (d,)):
                raise QpelTypeError(f"the {backend_name} backend cannot interpret {name}")
            return evaluate(backend, d), decl.ty
    raise QpelTypeError(f"no term declaration named {name!r}")


def wp_decls(sf: SourceFile, term_name: str, effect_name: str, *, depth=6,
             cross_check=False):
    """Weakest precondition of a declared effect along a declared term.

    The term is Gamma |- M : A, the effect is (x : A) |- phi; returns the
    predicate on the interpretation of Gamma, and optionally the largest
    absolute deviation from interpreting the substituted effect directly.
    """
    env = Env(depth=depth)
    backend = make_backend("quantum")
    term_decl = effect_decl = None
    for decl in sf.decls:
        if isinstance(decl, TermDecl) and decl.name == term_name:
            term_decl = decl
        if isinstance(decl, EffectDecl) and decl.name == effect_name:
            effect_decl = decl
    if term_decl is None:
        raise QpelTypeError(f"no term declaration named {term_name!r}")
    if effect_decl is None:
        raise QpelTypeError(f"no effect declaration named {effect_name!r}")
    if len(effect_decl.ctx) != 1:
        raise QpelTypeError("the effect declaration must have a single context variable")
    (var_name, var_ty), = effect_decl.ctx.entries
    if var_ty != term_decl.ty:
        raise QpelTypeError(f"shape mismatch: the term produces {print_type(term_decl.ty)} but the effect"
                            f" context expects {print_type(var_ty)}")

    body, eff = term_decl.term, effect_decl.eff
    dt = check_term(term_decl.ctx, body, term_decl.ty, env.resolver(term_decl.requires))
    de = check_effect(effect_decl.ctx, eff, env.resolver(effect_decl.requires))

    f = interp_term(backend, term_decl.ctx, body, term_decl.ty, dt)
    # P((x : A)) sits at I (x) A; strip the unit factor to get P(A)
    a_ob = interp_type(backend, term_decl.ty)
    p_ctx = interp_effect(backend, effect_decl.ctx, eff, de)
    p_a = backend.apply_pred(backend.unit_left_inv(a_ob), p_ctx)
    wp = weakest_precondition(backend, f, p_a)

    deviation = None
    if cross_check:
        # the ascription keeps the type of a substituted scrutinee known;
        # the substituted effect is a bare judgement, derived first
        substituted = subst(eff, var_name, Ascribe(body, term_decl.ty))
        direct = interp_effect(backend, term_decl.ctx, substituted)
        deviation = max(
            float(np.abs(np.asarray(x) - np.asarray(y)).max()) if np.asarray(x).size else 0.0
            for x, y in zip(wp, direct)
        )
    return wp, deviation


def read_source(path) -> str:
    """The text of a source file; one that is not UTF-8 raises an OSError
    naming it, as one that cannot be read does."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def run_paths(paths, *, packs=None, depth=6, verify=(), fmt="text", timing=False):
    """Process files in order; returns (rendered report, exit code)."""
    reports = []
    for p in paths:
        sidecar = str(p) + ".proofs.json"
        try:
            sf = parse(read_source(p), sidecar if os.path.exists(sidecar) else None)
        except (OSError, QpelSyntaxError, ElabError) as exc:
            rep = FileReport(str(p))
            rep.parse_error = str(exc)
            reports.append(rep)
            continue
        reports.append(
            process_file(sf, path=str(p), packs=packs, depth=depth, verify=verify)
        )
    exit_code = _first_failure(rep.exit_code for rep in reports)
    if fmt == "json":
        rendered = json.dumps([r.to_json(timing=timing) for r in reports], indent=2)
    else:
        rendered = "\n".join(r.render_text(timing=timing) for r in reports)
    return rendered, exit_code
