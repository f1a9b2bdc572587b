"""One pass of one workload in a fresh interpreter; prints one JSON line.

Usage: python3 bench/worker.py WORKLOAD SEED TRACE [SPANS_PATH]

run.py starts one worker per pass, one at a time. A fresh process per pass
means nothing cached during one pass can speed up the next, just as each
CLI call starts cold, and ru_maxrss is the peak of a process that ran this
workload alone. Table and distance-data loading happen before the timed
region; setup_s measures them separately.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import checks
import reference
import workloads
from knotsum import distances, table
from tracing import ROOT, Tracer


def run_pass(queries, traced: bool = False, spans_path: Path | None = None) -> dict:
    """Send every query once, closed loop, then check the outputs.

    Each query is timed on its own, with a reference burst (see
    reference.py) between consecutive queries to track the CPU speed.
    """
    table.load_table()
    distances.load_distance_data()
    tracer = Tracer() if traced else None
    send = tracer.root(workloads.run_query) if tracer else workloads.run_query
    clock = time.perf_counter
    results, raw = [], []
    bursts = [reference.burst()]
    if tracer:
        tracer.install()
    try:
        for query in queries:
            start = clock()
            results.append(send(query))
            seconds = clock() - start
            raw.append(seconds)
            bursts.append(reference.burst_after(seconds))
    finally:
        if tracer:
            tracer.restore()
    scaled = reference.rescaled(raw, bursts)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = [workloads.serialize(q, r) for q, r in zip(queries, results)]
    reasons = checks.check_outputs(queries, outputs)
    failures = [f"{q.key}: {why}" for q, why in zip(queries, reasons) if why]
    run_raw_s, run_s = sum(raw), sum(scaled)
    out = {
        "queries": len(queries),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": checks.digest(queries, outputs),
        "run_raw_s": run_raw_s,
        "run_s": run_s,
        "latency_ms": [s * 1e3 for s in scaled],
        "rss_mb": rss_mb,
    }
    if tracer:
        scale = run_s / run_raw_s
        layers = tracer.layer_metrics(scale)
        layers["bench.self_s"] = tracer.stats[ROOT].self_s * scale
        layers["trace.run_s"] = run_s
        out["layers"] = layers
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return out


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spans_path = Path(argv[3]) if len(argv) > 3 else None
    queries = workloads.build(workload, seed)
    print(json.dumps(run_pass(queries, trace, spans_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
