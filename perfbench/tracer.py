"""Spans and counters for the traced pass, installed from outside the program.

`install` rebinds, in a fresh process, the names through which each layer is
called: the names the caller looks up, not the defining module's, because
`qpel.driver` imports `check_term`, `judgement_true` and the rest directly.
Each call through a rebound name is a span.  A span's self time is its
duration minus the time its child spans cover, so recursive search and nested
obligations are counted once.  The wrappers' own bookkeeping is the `trace`
span, so the self times under the root span (`run_paths`, named `driver`)
add up to the traced wall time.
"""
from __future__ import annotations

import dataclasses
import inspect
import time
from collections import Counter, defaultdict

# Span names, one per layer or part of a layer, and `trace` for the wrappers
# themselves.  Their self times partition the traced wall time.
SPANS = (
    "driver",
    "trace",
    "parser",
    "typecheck",
    "derivation.check_script",
    "derivation.search",
    "syntax.nameless",
    "rules.match",
    "interpreter.verify.set",
    "interpreter.verify.stochastic",
    "interpreter.verify.quantum",
    "interpreter.eval",
    "backends.set",
    "backends.stochastic",
    "backends.quantum.compose",
    "backends.quantum.tensor_mor",
    "backends.quantum.structural",
    "backends.quantum.other",
)

# identity, associator, unit and symmetry isomorphisms and distributivity
QUANTUM_STRUCTURAL = frozenset({
    "identity", "assoc", "assoc_inv", "unit_left", "unit_left_inv",
    "unit_right", "unit_right_inv", "symmetry", "dist_left", "dist_left_inv",
    "dist_right",
})


class Tracer:
    """Per-span self time and named counters for one process."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.search_goals = []  # (goal, depth) per search node
        self.max_block_dim = 0
        # the bottom frame absorbs the duration of top-level spans
        self._stack = [[0.0]]

    def wrap(self, fn, span, counter=None, done=None):
        """Return fn wrapped as a span; `span` is a name or a function of the
        call's arguments giving one.  `done(args, result, ok)` runs after the
        span has closed, on the `trace` span's time."""
        self_s, counts, stack, clock = self.self_s, self.counts, self._stack, time.perf_counter
        span_of = span if callable(span) else None

        def wrapper(*args, **kwargs):
            t_in = clock()
            if counter:
                counts[counter] += 1
            frame = [0.0]
            stack.append(frame)
            result, ok = None, False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                self_s[span_of(args) if span_of else span] += t1 - t0 - frame[0]
                if done:
                    done(args, result, ok)
                t_out = clock()
                stack[-1][0] += t_out - t_in
                self_s["trace"] += t_out - t_in - (t1 - t0)
            return result

        return wrapper

    def count(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer):
    """Rebind the layer boundaries of the imported qpel package; returns the
    unwrapped `nameless`, for computing search keys without counting them."""
    from qpel import derivation, driver, interpreter, parser, rules, syntax
    from qpel.backends.quantum import QuantumBackend
    from qpel.backends.setb import SetBackend
    from qpel.backends.stochastic import StochasticBackend

    counts = tracer.counts

    def patch(owner, attr, span, counter=None, done=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), span, counter, done))

    def tokens(args, result, ok):
        if ok:
            counts["parser.tokens"] += len(result)

    def search_node(args, result, ok):
        tracer.search_goals.append((args[0], args[1]))
        if ok:
            counts["derivation.search.successes"] += 1

    def match(args, result, ok):
        if ok and result:
            counts["rules.match.hits"] += 1

    def compose(args, result, ok):
        _, g, f = args
        madds = 0
        for (_, j), tf in f.blocks.items():
            for (j2, _), tg in g.blocks.items():
                if j2 == j:
                    madds += tg.size * tf.shape[2] * tf.shape[3]
        counts["backends.quantum.compose.madds"] += madds
        tracer.max_block_dim = max(tracer.max_block_dim, *f.dom, *f.cod, *g.cod)

    def verify(args):
        return "interpreter.verify." + args[0].name

    patch(driver, "run_paths", "driver")
    patch(driver, "parse", "parser")
    patch(parser, "tokenize", "parser", done=tokens)
    for owner, names in (
        (driver, ("check_term", "check_effect", "check_judgement")),
        (derivation, ("check_term", "check_effect", "synth_type", "split_context")),
        (interpreter, ("synth_type", "split_context")),
    ):
        for name in names:
            patch(owner, name, "typecheck", "typecheck.calls")
    patch(derivation.QueueResolver, "resolve", "typecheck", "typecheck.obligations")
    for owner in (driver, derivation):
        patch(owner, "check_script", "derivation.check_script", "derivation.check_script.calls")
    patch(derivation, "auto_search_leq", "derivation.search", "derivation.search.entries")
    patch(derivation, "_search", "derivation.search", "derivation.search.nodes", search_node)
    nameless = syntax.nameless
    patch(syntax, "nameless", "syntax.nameless", "syntax.nameless.calls")
    for name, schema in list(rules.SCHEMAS.items()):
        rules.SCHEMAS[name] = dataclasses.replace(
            schema, match=tracer.wrap(schema.match, "rules.match", "rules.match.calls", match)
        )
    patch(driver, "backend_applicable", verify)
    patch(driver, "judgement_true", verify, "interpreter.verify.judgements")
    patch(driver, "interp_term", "interpreter.eval")
    driver.make_backend = tracer.count(driver.make_backend, "backends.make_backend.calls")

    for cls, layer in ((SetBackend, "backends.set"), (StochasticBackend, "backends.stochastic")):
        for name, _ in inspect.getmembers(cls, inspect.isfunction):
            if not name.startswith("_"):
                patch(cls, name, layer)
    for name, _ in inspect.getmembers(QuantumBackend, inspect.isfunction):
        if name.startswith("_"):
            continue
        if name == "compose":
            patch(QuantumBackend, name, "backends.quantum.compose",
                  "backends.quantum.compose.calls", compose)
        elif name == "tensor_mor":
            patch(QuantumBackend, name, "backends.quantum.tensor_mor")
        elif name in QUANTUM_STRUCTURAL:
            patch(QuantumBackend, name, "backends.quantum.structural",
                  "backends.quantum.structural.calls")
        else:
            patch(QuantumBackend, name, "backends.quantum.other")
    return nameless


def summary(tracer: Tracer, nameless) -> dict:
    """Raw span self times and counters, with the distinct search keys
    counted after the timed work."""
    counts = dict(tracer.counts)
    keys = {
        (goal.ctx, nameless(goal.low), nameless(goal.high), depth)
        for goal, depth in tracer.search_goals
    }
    counts["derivation.search.distinct"] = len(keys)
    counts["backends.quantum.max_block_dim"] = tracer.max_block_dim
    return {"self_s": {name: tracer.self_s.get(name, 0.0) for name in SPANS}, "counts": counts}
