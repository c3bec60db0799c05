"""One pass of a workload, in a fresh process.

    python3 perfbench/passproc.py [SPEC.json]

Imports qpel and numpy, prints `ready`, and then, given a spec, runs each of
its jobs through `qpel.driver.run_paths` (the path `qpel check` takes) and
prints one JSON line: the parsed `--format json --timing` reports, the wall
time of each job, the peak resident memory, the full-precision states the
driver rendered, and with `"trace": true` the per-layer spans and counters.
Without a spec it exits after `ready`, which times set-up alone.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import numpy as np

import qpel.driver as driver


def main(spec_path: str) -> dict:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    tracer = nameless = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        nameless = tracing.install(tracer)

    states = []  # the quantum states the driver renders, in report order
    render_state = driver.render_state

    def capture(backend_name, state):
        if backend_name == "quantum":
            states.append([{"re": np.real(b).tolist(), "im": np.imag(b).tolist()} for b in state])
        return render_state(backend_name, state)

    driver.render_state = capture

    jobs = []
    for job in spec["jobs"]:
        states.clear()
        t0 = time.perf_counter()
        try:
            rendered, _ = driver.run_paths(job["paths"], packs=frozenset(job["packs"]),
                                           verify=tuple(job["verify"]), fmt="json", timing=True)
        except Exception:  # a crash of the checker is a result to report
            jobs.append({"error": traceback.format_exc(limit=8),
                         "wall_s": time.perf_counter() - t0})
            continue
        jobs.append({"report": rendered, "states": list(states),
                     "wall_s": time.perf_counter() - t0})

    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for job in jobs:
        if "report" in job:
            job["report"] = json.loads(job["report"])
    out = {"jobs": jobs, "maxrss_kb": maxrss_kb}
    if tracer is not None:
        out["trace"] = tracing.summary(tracer, nameless)
    return out


if __name__ == "__main__":
    print("ready", flush=True)
    if len(sys.argv) > 1:
        print(json.dumps(main(sys.argv[1])), flush=True)
