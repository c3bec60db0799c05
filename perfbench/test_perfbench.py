"""Checks of the benchmark itself, at small sizes: traced counters repeat
exactly, tracing changes no verdict, the spans account for the traced wall
time, and the closed-form answers agree with a direct simulation."""
from __future__ import annotations

import math
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import workloads

sys.path.insert(0, str(run.SRC))  # the refute generator imports qpel


@pytest.fixture
def workdir():
    path = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def verdicts(result):
    return [(d["name"], d["kind"], d["status"], d.get("stage"), d.get("backends"))
            for d in run.reported_decls(result)]


@pytest.mark.parametrize("make, counters", [
    (lambda seed, wd: workloads.refute(seed, wd, depth=3),
     ("derivation.search.nodes", "derivation.search.distinct", "syntax.nameless.calls")),
    (lambda seed, wd: workloads.mbqc(seed, wd, clusters=(2, 3), chain_lengths=(3, 5)),
     ("derivation.search.nodes", "syntax.nameless.calls", "backends.quantum.compose.madds")),
], ids=["refute", "mbqc"])
def test_traced_runs_repeat_and_keep_verdicts(make, counters, workdir):
    work = make(7, workdir)
    traced = run.write_spec(workdir, work, True)
    _, first = run.spawn(traced)
    _, second = run.spawn(traced)
    _, plain = run.spawn(run.write_spec(workdir, work, False))

    counts = first["trace"]["counts"]
    assert counts == second["trace"]["counts"]
    assert all(counts[name] > 0 for name in counters)
    assert verdicts(first) == verdicts(second) == verdicts(plain)
    for result in (first, second, plain):
        assert workloads.check_pass(work, result) == []

    # spans partition the traced wall time measured around run_paths
    spans = sum(first["trace"]["self_s"].values())
    assert spans == pytest.approx(run.pass_wall(first), rel=0.01)


def test_mbqc_oracle_rejects_a_wrong_state(workdir):
    work = workloads.mbqc(3, workdir, clusters=(2,), chain_lengths=(2,))
    _, result = run.spawn(run.write_spec(workdir, work, False))
    assert workloads.check_pass(work, result) == []
    check = next(e for e in work.expect if e.state is not None)
    check.state = [-s for s in check.state]
    [failure] = workloads.check_pass(work, result)
    assert check.name in failure


def cz(n, i, j):
    diag = [(-1.0 if (idx >> (n - 1 - i)) & (idx >> (n - 1 - j)) & 1 else 1.0)
            for idx in range(2**n)]
    return np.diag(diag)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cluster_state_is_cz_chain_on_plus(n):
    psi = oracle.PLUS
    for _ in range(n - 1):
        psi = np.kron(psi, oracle.PLUS)
    for i in range(n - 1):
        psi = cz(n, i, i + 1) @ psi
    assert np.allclose(oracle.cluster_state(n), psi, atol=1e-12)


@pytest.mark.parametrize("q", ["0", "1/3", "5/4", "7/8"])
@pytest.mark.parametrize("outcome", [0, 1])
def test_teleportation_step_is_j_gate(q, outcome):
    """Simulate one step: CZ with a |+> ancilla, project the input qubit on
    |+_(q pi)> or its orthogonal, correct the ancilla with X on the latter."""
    psi = np.array([0.6, 0.8j])
    joint = cz(2, 0, 1) @ np.kron(psi, oracle.PLUS)
    theta = math.pi * float(Fraction(q))
    basis = np.array([1.0, np.exp(1j * theta)]) / math.sqrt(2)
    if outcome:
        basis = np.array([1.0, -np.exp(1j * theta)]) / math.sqrt(2)
    out = np.kron(basis.conj(), np.eye(2)) @ joint
    if outcome:
        out = np.array([[0, 1], [1, 0]]) @ out
    out = out / np.linalg.norm(out)
    want = oracle.chain_state(psi, [q])
    assert abs(abs(np.vdot(out, want)) - 1) < 1e-12
