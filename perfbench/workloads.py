"""Seeded workload generators and their known answers.

Each generator returns a `Workload`: the `run_paths` jobs that make one pass
and, in report order, what every declaration must come out as.  The seed
picks only what cannot change a verdict or the amount of work by more than a
few percent: file and declaration order, measurement angles, chain inputs,
and which chain gets which length.  The program sees only the `.qpel` text.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"
DEFAULT_PACKS = ("core", "qubit")


@dataclass
class Job:
    paths: list
    packs: tuple = DEFAULT_PACKS
    verify: tuple = ()


@dataclass
class Expect:
    path: str
    name: str
    kind: str
    status: str
    backends: dict | None = None  # exact report entry, when known
    state: list | None = None  # density-matrix blocks, compared within TOL


@dataclass
class Workload:
    jobs: list
    expect: list


def _load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


# ------------------------------------------------------------------ corpus


def corpus(seed: int, workdir: Path) -> Workload:
    """The committed corpus, `--verify all`; beta_iso.qpel with its pack.

    Every file gets its own lemma environment, so file order cannot change a
    verdict; the seed shuffles it.  The known answer is every declaration
    `ok`, with the per-backend results recorded in expected.json."""
    expected = _load_expected()["corpus"]
    main = sorted(p for p in expected if not p.endswith("beta_iso.qpel"))
    random.Random(seed).shuffle(main)
    jobs = [
        Job(main, verify=("set", "stochastic", "quantum")),
        Job(["corpus/beta_iso.qpel"], packs=DEFAULT_PACKS + ("beta-iso",),
            verify=("set", "stochastic", "quantum")),
    ]
    expect = [
        Expect(path, name, kind, "ok", backends)
        for job in jobs
        for path in job.paths
        for name, kind, backends in expected[path]
    ]
    return Workload(jobs, expect)


# ------------------------------------------------------------------ refute


def refute_goals():
    """Converses of the corpus inequality lemmas that some backend judges
    false: (source lemma, lemma declaration without a script).

    A false judgement has no sound derivation, so the only right verdict for
    each is `proof-error`, and search must exhaust its whole tree to reach it.
    """
    # qpel is imported where it is used: run.py puts the checkout's src/ on
    # the path first
    from qpel.backends import BACKEND_NAMES, make_backend
    from qpel.interpreter import backend_applicable, judgement_true
    from qpel.parser import GLeq, LemmaDecl, parse
    from qpel.syntax import EffLeq

    backends = [make_backend(name) for name in BACKEND_NAMES]
    goals = []
    for path in sorted((ROOT / "corpus").glob("*.qpel")):
        for decl in parse(path.read_text(encoding="utf-8")).decls:
            if not (isinstance(decl, LemmaDecl) and isinstance(decl.goal, GLeq)):
                continue
            converse = EffLeq(decl.ctx, decl.goal.high, decl.goal.low)
            if any(backend_applicable(b, converse) and not judgement_true(b, converse)
                   for b in backends):
                goals.append((decl.name, replace(
                    decl, name="refute-" + decl.name,
                    goal=GLeq(decl.goal.high, decl.goal.low), script=None, requires=())))
    return goals


def refute(seed: int, workdir: Path, depth: int = 4) -> Workload:
    """Each refutable converse as a lemma `by { auto(depth) }`, in seeded
    order; failed lemmas never enter the lemma environment, so order cannot
    change a verdict."""
    from qpel.parser import AutoNode, print_decl

    goals = refute_goals()
    sources = [name for name, _ in goals]
    if sources != _load_expected()["refute_sources"]:
        raise RuntimeError(f"refutable corpus converses changed: {sources}")
    random.Random(seed).shuffle(goals)
    path = workdir / "refute.qpel"
    path.write_text("\n\n".join(
        print_decl(replace(decl, script=AutoNode(depth))) for _, decl in goals
    ) + "\n", encoding="utf-8")
    rel = _rel(path)
    return Workload([Job([rel])], [Expect(rel, decl.name, "lemma", "proof-error")
                                   for _, decl in goals])


# -------------------------------------------------------------------- mbqc

CLUSTER_SIZES = (2, 3, 4)
# steps of each family's chains; a step nests two lets, and nesting some 240
# steps deep exhausts the parser's recursion (ROADMAP item 5)
CHAIN_LENGTHS = (24, 30, 36, 42)
ANGLE_DENOMS = (2, 3, 4, 5, 6, 8)


def _cluster_decl(n: int) -> str:
    """Linear cluster state with every `plus` bound first, so that the
    context is 2^n-dimensional while the `E` commands run."""
    lines = [f"term cluster{n} () : {' * '.join(['qbit'] * n)} ="]
    lines += [f"  let q{i} = plus in" for i in range(n)]
    cur = [f"q{i}" for i in range(n)]
    for i in range(n - 1):
        left, right = f"e{i}l", f"e{i}r"
        lines.append(f"  let {left} * {right} = E {cur[i]} {cur[i + 1]} in")
        cur[i], cur[i + 1] = left, right
    lines.append("  " + " * ".join(cur))
    return "\n".join(lines)


def _chain_decl(name: str, inp: str, angles) -> str:
    """One teleportation step per angle q: entangle with a fresh ancilla,
    measure against proj(., q), correct with X on the other outcome."""
    lines = [f"term {name} () : qbit =", f"  let q0 = {inp} in"]
    for i, q in enumerate(angles, 1):
        a, b = f"a{i}", f"b{i}"
        lines.append(f"  let {a} * {b} = E q{i - 1} plus in")
        lines.append(f"  let q{i} = measure {{ proj({a}, {q}) -> {b}"
                     f" | bot(proj({a}, {q})) -> X {b} }} in")
    lines.append(f"  q{len(angles)}")
    return "\n".join(lines)


def mbqc(seed: int, workdir: Path, clusters=CLUSTER_SIZES,
         chain_lengths=CHAIN_LENGTHS) -> Workload:
    """Closed measurement-calculus patterns checked in the quantum backend:
    linear cluster states, Hadamard chains and J(alpha) chains with seeded
    rational alpha, each compared with its closed-form state.

    The seed deals the chain lengths, twice `chain_lengths`, out to the two
    families, so the work of a pass and the spread of declaration times do
    not depend on it."""
    rng = random.Random(seed)
    lengths = list(chain_lengths) * 2
    rng.shuffle(lengths)
    items = []  # (name, declaration text, expected pure state)
    for n in clusters:
        items.append((f"cluster{n}", _cluster_decl(n), oracle.cluster_state(n)))
    for i, k in enumerate(lengths[:len(chain_lengths)]):
        inp, vec = rng.choice((("plus", oracle.PLUS), ("Z plus", oracle.MINUS)))
        name = f"hchain{i}"
        items.append((name, _chain_decl(name, inp, ["0"] * k), oracle.chain_state(vec, [0] * k)))
    for i, k in enumerate(lengths[len(chain_lengths):]):
        angles = []
        for _ in range(k):
            den = rng.choice(ANGLE_DENOMS)
            angles.append(Fraction(rng.randrange(1, 2 * den), den))
        name = f"jchain{i}"
        items.append((name, _chain_decl(name, "plus", [str(q) for q in angles]),
                      oracle.chain_state(oracle.PLUS, angles)))
    rng.shuffle(items)

    path = workdir / "mbqc.qpel"
    path.write_text("".join(f"{text}\ncheck {name}\n\n" for name, text, _ in items),
                    encoding="utf-8")
    rel = _rel(path)
    expect = []
    for name, _, psi in items:
        expect.append(Expect(rel, name, "term", "ok"))
        expect.append(Expect(rel, name, "check", "ok", state=[oracle.density(psi)]))
    return Workload([Job([rel], verify=("quantum",))], expect)


WORKLOADS = {"corpus": corpus, "refute": refute, "mbqc": mbqc}


# ------------------------------------------------------------------ checking

TOL = 1e-9  # Frobenius distance per block, as the quantum backend's equality
RENDER_TOL = 1e-5  # the report prints six significant digits


def _rendered_blocks(text: str):
    blocks = []
    for part in text.split("; "):
        rows = part.split(": ", 1)[1][2:-2].split("], [")
        blocks.append(np.array([[complex(x) for x in row.split(", ")] for row in rows]))
    return blocks


def check_pass(work: Workload, result: dict) -> list:
    """Mismatches of one pass against the known answers, one per failed
    declaration; a crashed job fails every declaration it should have
    reported."""
    got, crashed = {}, {}
    for job, out in zip(work.jobs, result["jobs"]):
        if "error" in out:
            crashed.update(dict.fromkeys(job.paths, out["error"].strip().splitlines()[-1]))
            continue
        states = iter(out["states"])
        for rep in out["report"]:
            for d in rep.get("decls", ()):
                if d["kind"] == "check" and d.get("backends", {}).get("quantum", "skipped") != "skipped":
                    d = dict(d, state=next(states, None))
                got.setdefault((rep["path"], d["name"], d["kind"]), d)

    failures = []
    for e in work.expect:
        d = got.get((e.path, e.name, e.kind))
        why = None
        if e.path in crashed:
            why = "the checker raised " + crashed[e.path]
        elif d is None:
            why = "missing from the report"
        elif d["status"] != e.status:
            why = f"{d['status']}: {d.get('message', '')}"
        elif e.backends is not None and d.get("backends", {}) != e.backends:
            why = f"backends {d.get('backends')} != {e.backends}"
        elif e.state is not None:
            why = _state_mismatch(d, e.state)
        if why:
            failures.append(f"{e.path}:{e.name}: {why}")
    return failures


def _state_mismatch(d: dict, want) -> str | None:
    blocks = d.get("state")
    if blocks is None or len(blocks) != len(want):
        return "no state captured"
    for blk, w in zip(blocks, want):
        got = np.array(blk["re"]) + 1j * np.array(blk["im"])
        if got.shape != w.shape or np.linalg.norm(got - w) > TOL:
            return "state differs from the closed form"
    shown = _rendered_blocks(d["backends"]["quantum"])
    if any(s.shape != w.shape or np.abs(s - w).max() > RENDER_TOL for s, w in zip(shown, want)):
        return "printed state differs from the closed form"
    return None
