"""The qpel benchmark.

    python3 perfbench/run.py --workload corpus|refute|mbqc --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The workload is generated from the seed
(see workloads.py), then passes run one after another, each in a fresh
`python3 perfbench/passproc.py` process, until S seconds have gone by and at
least MIN_PASSES have run.  Every declaration of every pass is checked
against its known answer.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics; with `--trace 1`, untraced and traced passes alternate
and the metrics are the per-layer spans and counters of the traced ones
(see tracer.py).  The command exits 1 when any declaration comes out wrong,
and 2 when there is no qpel source to run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 5
SETUP_SAMPLES = 11
PASS_TIMEOUT_S = 120
# tail percentiles to choose from; the highest with at least ten samples
# beyond it in MIN_PASSES passes is used, so every run of a workload uses the
# same one
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)

NPROC = len(os.sched_getaffinity(0))
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    # numpy's OpenBLAS would otherwise size its pool to the host, not the
    # CPUs this process may use
    OPENBLAS_NUM_THREADS=str(NPROC),
    OMP_NUM_THREADS=str(NPROC),
    # string hashing decides set orders inside the checker; fixing it makes
    # the traced counters repeat exactly
    PYTHONHASHSEED="0",
)


def spawn(spec_path: Path | None = None):
    """Run passproc.py; returns (seconds until it reported ready, its result)."""
    cmd = [sys.executable, str(HERE / "passproc.py")]
    if spec_path is not None:
        cmd.append(str(spec_path))
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                          text=True) as proc:
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return setup, (json.loads(out.splitlines()[-1]) if spec_path is not None else None)


def tail_percentile(planned: int) -> float:
    """Highest listed percentile with at least ten of `planned` samples beyond
    its nearest-rank position."""
    return max(p for p in PERCENTILES if planned - math.ceil(p / 100 * planned) >= 10)


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def pass_wall(result) -> float:
    return sum(job["wall_s"] for job in result["jobs"])


def reported_decls(result) -> list:
    return [d for job in result["jobs"] for rep in job.get("report", ())
            for d in rep.get("decls", ())]


def end_to_end(work, passes, setups, failed, attempted):
    """Returns the metrics, the tail percentile used and its sample count."""
    elapsed = [d["elapsed"] for _, r in passes for d in reported_decls(r)]
    p = tail_percentile(len(work.expect) * MIN_PASSES)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "decls_per_s": (statistics.median(len(reported_decls(r)) / pass_wall(r)
                                          for _, r in passes), "1/s"),
        "decl_p50_ms": (1000 * statistics.median(elapsed), "ms"),
        "decl_tail_ms": (1000 * nearest_rank(elapsed, p), "ms"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024 for _, r in passes), "MB"),
        # the complement of fail_ratio, which is 0 when all is well
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, p, len(elapsed)


COUNTERS = (
    "parser.tokens", "typecheck.calls", "typecheck.obligations",
    "derivation.check_script.calls", "derivation.search.entries", "derivation.search.nodes",
    "syntax.nameless.calls", "rules.match.calls", "interpreter.verify.judgements",
    "backends.make_backend.calls", "backends.quantum.compose.calls",
    "backends.quantum.compose.madds", "backends.quantum.structural.calls",
    "backends.quantum.max_block_dim",
)
RATIOS = {  # name: (useful outcomes, attempts)
    "derivation.search.success_ratio": ("derivation.search.successes", "derivation.search.nodes"),
    "derivation.search.distinct_ratio": ("derivation.search.distinct", "derivation.search.nodes"),
    "rules.match.hit_ratio": ("rules.match.hits", "rules.match.calls"),
}


def per_layer(traced, untraced):
    """Median over traced passes of each layer's figures."""
    rows = []
    for _, r in traced:
        s, c = r["trace"]["self_s"], r["trace"]["counts"]
        row = {f"{name}.busy_s": (s[name], "s") for name in s}
        row["trace.wall_s"] = (sum(s.values()), "s")
        row.update({name: (c.get(name, 0), "count") for name in COUNTERS})
        row.update({name: (c.get(num, 0) / c[den] if c.get(den) else 0.0, "ratio")
                    for name, (num, den) in RATIOS.items()})
        row["parser.tokens_per_s"] = (c.get("parser.tokens", 0) / s["parser"]
                                      if s["parser"] else 0.0, "1/s")
        rows.append(row)
    metrics = {name: (statistics.median(row[name][0] for row in rows), unit)
               for name, (_, unit) in rows[0].items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(pass_wall(r) for _, r in traced)
        / statistics.median(pass_wall(r) for _, r in untraced), "ratio")
    return metrics


def write_spec(workdir: Path, work, trace: bool) -> Path:
    path = workdir / f"spec-{int(trace)}.json"
    path.write_text(json.dumps({"jobs": [asdict(j) for j in work.jobs], "trace": trace}),
                    encoding="utf-8")
    return path


def run_passes(work, workdir: Path, seconds: float, trace: bool):
    """Returns the untraced passes, the traced ones and the set-up times."""
    plain = write_spec(workdir, work, False)
    spawn()  # the first start compiles bytecode; users pay that once
    deadline = time.perf_counter() + seconds
    passes, traced = [], []
    if trace:
        traced_spec = write_spec(workdir, work, True)
        while not traced or time.perf_counter() < deadline:
            passes.append(spawn(plain))
            traced.append(spawn(traced_spec))
        return passes, traced, []
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(spawn(plain))
    setups = [s for s, _ in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn()[0])
    return passes, traced, setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("corpus", "refute", "mbqc"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qpel" / "driver.py").is_file():
        print(f"perfbench: no qpel source under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({k: CHILD_ENV[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
        passes, traced, setups = run_passes(work, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for _, r in passes + traced for f in workloads.check_pass(work, r)]
    attempted = len(work.expect) * len(passes + traced)
    print(f"perfbench: workload={args.workload} seed={args.seed} nproc={NPROC}"
          f" python={platform.python_version()} numpy={np.__version__}"
          f" OPENBLAS_NUM_THREADS={CHILD_ENV['OPENBLAS_NUM_THREADS']}"
          f" OMP_NUM_THREADS={CHILD_ENV['OMP_NUM_THREADS']}")
    print(f"perfbench: passes: {len(passes)} untraced, {len(traced)} traced;"
          f" {len(work.expect)} declarations a pass")
    for failure in sorted(set(failures))[:20]:
        print("perfbench: FAIL", failure)
    print(f"  fail_ratio {len(failures) / attempted:g} ratio ({len(failures)}/{attempted})")
    if not all(reported_decls(r) for _, r in passes + traced):
        print("perfbench: a pass reported no declarations; nothing to measure")
        return 1

    if args.trace:
        metrics = per_layer(traced, passes)
    else:
        metrics, p, samples = end_to_end(work, passes, setups, len(failures), attempted)
        print(f"perfbench: decl_tail_ms is p{p:g} of {samples} declaration times")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
