"""knotsum benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload profile-long --seed 0 --seconds 33 --trace 0

Run it from the root of a source checkout; it imports knotsum from src/.
Workloads (their reasons are in BENCHMARK.json, inputs in workloads.py):
profile-long, crosscheck-wide, search.

One client sends queries one after another (closed loop, no threads). Each
pass runs every query of the workload once in a fresh worker process
(worker.py); passes repeat, one at a time, until the next would end after
--seconds (at least one pass). Figures are medians over passes.

--trace 0 reports, on every workload:
  setup_s          median of cold `python -m knotsum dm-bounds 3_1 3_1 5_1
                   --format structured` runs: interpreter start, imports,
                   table load and validation, distance-data validation.
  run_s            sum of the query latencies; each query's latency is its
                   median over the passes.
  latency_p50_ms   median of those query latencies.
  latency_p90_ms   their 90th percentile (inclusive method: of 11 queries,
                   the second slowest).
  peak_rss_mb      ru_maxrss of a worker, read right after its timed pass.
error_rate (failed / attempted queries) is carried by the result's
"attempted" and "failed" fields and printed above it; it is not a metric
because it is 0 whenever the program is right.

--trace 1 runs untraced and traced passes in pairs on the same inputs and
reports, from the traced pass with the median run_s, the per-layer
metrics declared in BENCHMARK.json: calls and self time of each function
in tracing.TRACED, bench.self_s (the measured self time of the wrapper
around each query: time in queries outside every traced function),
trace.run_s, and trace.overhead_ratio (traced over untraced
run_s, medians). The spans of that pass are written to
.bench_out/spans-<workload>.json.

Every time is rescaled to a fixed CPU speed by reference.py, because the
hosts this runs on are shared and their speed swings by up to 2.3x; the
raw wall times are printed beside the rescaled ones.

Every output is checked (checks.py). The result is correct only when no
query failed, every pass produced the same digest, the digest matches its
pinned value where one is pinned, and every cold CLI run printed [4, 6].
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 15
HARD_LIMIT_S = 165.0
SETUP_COMMAND = ("-m", "knotsum", "dm-bounds", "3_1", "3_1", "5_1", "--format", "structured")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts, so the same work, in every pass
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {HARD_LIMIT_S:.0f} s")
    return left


def measure_setup(deadline: float) -> tuple[list[float], list[float], bool]:
    """Cold CLI runs: (rescaled seconds, raw seconds, every output right).

    One extra run first writes bytecode caches and is not counted.
    """
    raw, bursts, right = [], [], True
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_COMMAND], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=_remaining(deadline))
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"setup command failed: {proc.stderr.strip()}")
        out = json.loads(proc.stdout)
        right = right and [out["lower"], out["upper"]] == [4, 6]
        bursts.append(reference.burst(0.01))
        if i:
            raw.append(seconds)
    return reference.rescaled(raw, bursts), raw, right


def run_worker(workload: str, seed: int, traced: bool, spans: Path | None,
               deadline: float) -> dict:
    args = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), "1" if traced else "0"]
    if spans is not None:
        args.append(str(spans))
    proc = subprocess.run(args, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               deadline: float) -> tuple[list[dict], list[dict]]:
    """(untraced passes, traced passes); with trace, one of each per round."""
    plain, traced = [], []
    start = time.monotonic()
    longest = 0.0
    while not plain or time.monotonic() - start + longest <= seconds:
        round_start = time.monotonic()
        plain.append(run_worker(workload, seed, False, None, deadline))
        if trace:
            spans = OUT / f"spans-{workload}-pass{len(traced)}.json"
            traced.append(run_worker(workload, seed, True, spans, deadline))
        longest = max(longest, time.monotonic() - round_start)
    return plain, traced


def _metrics(values: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    """The result's metrics, in BENCHMARK.json order; refuses any mismatch."""
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {sorted(names - set(values))},"
                         f" extra {sorted(set(values) - names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    """Every pass sends the same queries in the same order, so each query's
    latency is its median over the passes; a slow spell during one pass
    then shifts few of them."""
    latency_ms = [statistics.median(q) for q in zip(*(p["latency_ms"] for p in passes))]
    return {
        "setup_s": statistics.median(setup),
        "run_s": sum(latency_ms) / 1e3,
        "latency_p50_ms": statistics.median(latency_ms),
        "latency_p90_ms": statistics.quantiles(latency_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def _median_pass(passes: list[dict]) -> int:
    order = sorted(range(len(passes)), key=lambda i: passes[i]["run_s"])
    return order[(len(order) - 1) // 2]


def per_layer(plain: list[dict], traced: list[dict], workload: str) -> dict[str, float]:
    chosen = _median_pass(traced)
    layers = dict(traced[chosen]["layers"])
    layers["trace.overhead_ratio"] = (statistics.median(p["run_s"] for p in traced)
                                      / statistics.median(p["run_s"] for p in plain))
    for i in range(len(traced)):
        path = OUT / f"spans-{workload}-pass{i}.json"
        if i == chosen:
            path.replace(OUT / f"spans-{workload}.json")
        else:
            path.unlink(missing_ok=True)
    return layers


def _print_end_to_end(values: dict, passes: list[dict], setup_raw: list[float]) -> None:
    n = passes[0]["queries"]
    beyond = n - 1 - int(0.9 * (n - 1))
    raw_run = statistics.median(p["run_raw_s"] for p in passes)
    print(f"  setup_s          {values['setup_s']:.4f} s    median of {len(setup_raw)} cold CLI runs"
          f" (raw wall {statistics.median(setup_raw):.4f} s)")
    per_pass = ", ".join(f"{p['run_s']:.3f}" for p in passes)
    print(f"  run_s            {values['run_s']:.4f} s    (raw wall {raw_run:.4f} s; passes {per_pass} s)")
    print(f"  latency_p50_ms   {values['latency_p50_ms']:.3f} ms   {n} queries per pass")
    print(f"  latency_p90_ms   {values['latency_p90_ms']:.3f} ms   {beyond} of {n} samples beyond p90")
    print(f"  peak_rss_mb      {values['peak_rss_mb']:.1f} MB")


def _print_layers(layers: dict[str, float]) -> None:
    run_s = layers["trace.run_s"]
    accounted = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    print(f"  {'metric':<48} {'value':>14}  share of trace.run_s")
    for name, value in sorted(layers.items()):
        share = f"{value / run_s:6.1%}" if name.endswith(".self_s") and run_s else ""
        print(f"  {name:<48} {value:>14.6g}  {share}")
    gap = run_s - accounted
    print(f"  self times plus bench.self_s: {accounted:.6f} s of trace.run_s {run_s:.6f} s;"
          f" gap {gap:.6f} s ({gap / run_s:.3%}), the clock reads around each query")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "knotsum" / "__init__.py").is_file():
        print(f"error: no knotsum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    from checks import pinned_digest

    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        setup, setup_raw, setup_right = ([], [], True) if args.trace else measure_setup(deadline)
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
        passes = plain + traced
        if args.trace:
            metrics = _metrics(per_layer(plain, traced, args.workload), spec["per_layer"])
        else:
            values = end_to_end(plain, setup)
            metrics = _metrics(values, spec["end_to_end"])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["queries"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    pinned = pinned_digest(args.workload, args.seed)
    digest_right = len(digests) == 1 and pinned in (None, *digests)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    if args.trace:
        _print_layers({k: v["value"] for k, v in metrics.items()})
    else:
        _print_end_to_end(values, plain, setup_raw)
        if not setup_right:
            print("  setup command printed the wrong d_M interval (expected [4, 6])")
    print(f"  error_rate       {failed / attempted:.4g}  ({failed} of {attempted} queries failed)")
    for reason in sorted({r for p in passes for r in p["failures"]})[:10]:
        print(f"    {reason}")
    print(f"  digest           {' '.join(sorted(digests))}  "
          f"({'not pinned for this seed' if pinned is None else 'pinned: ' + ('match' if digest_right else 'MISMATCH')})")
    correct = failed == 0 and digest_right and setup_right
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
