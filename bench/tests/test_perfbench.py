"""Tests of the benchmark itself: python -m pytest bench/tests

Workloads run here at a tiny size, so the whole file takes seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from knotsum import laurent, plumbing  # noqa: E402
from knotsum.surgery import TripleBudget  # noqa: E402
from tracing import TRACED, _knotsum_modules  # noqa: E402
from worker import run_pass  # noqa: E402

TINY = {
    "profile-long": lambda: workloads.profile_long(3, count=6, max_letters=10),
    "crosscheck-wide": lambda: workloads.crosscheck_wide(3, count=3, min_strands=5, max_strands=7),
    "search": lambda: workloads.search(
        3, triples=((("unknot", "3_1", "3_1"), 16),), rewrites=(("S[2,2]", "4_1", 300),),
        triple_budget=TripleBudget(max_total_letters=4)),
}


def _outputs(queries):
    return [workloads.serialize(q, workloads.run_query(q)) for q in queries]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(name):
    queries = TINY[name]()
    result = run_pass(queries)
    assert result["queries"] == len(queries)
    assert result["failed"] == 0, result["failures"]
    assert len(result["latency_ms"]) == len(queries)


def test_same_seed_gives_same_inputs():
    assert workloads.profile_long(5, count=9) == workloads.profile_long(5, count=9)
    assert workloads.profile_long(5, count=9) != workloads.profile_long(6, count=9)
    keys = [q.key for q in workloads.profile_long(5, count=30)]
    assert len(set(keys)) == len(keys)


def _bump_first_coefficient(serialized: str) -> str:
    exp, coeff = serialized.split(",")[0].split(":")
    rest = serialized.split(",")[1:]
    return ",".join([f"{exp}:{int(coeff) + 1}", *rest])


@pytest.mark.parametrize("name, field", [("profile-long", "profile"), ("crosscheck-wide", "surface")])
def test_changed_alexander_coefficient_is_counted(name, field):
    queries = TINY[name]()
    outputs = _outputs(queries)
    assert checks.check_outputs(queries, outputs) == [None] * len(queries)
    bad = copy.deepcopy(outputs)
    if field == "profile":
        bad[0]["profile"]["alexander"] = _bump_first_coefficient(bad[0]["profile"]["alexander"])
    else:
        bad[0]["surface"] = _bump_first_coefficient(bad[0]["surface"])
    reasons = checks.check_outputs(queries, bad)
    assert reasons[0] is not None
    assert reasons[1:] == [None] * (len(queries) - 1)


def test_dropped_witness_is_counted():
    queries = TINY["search"]()
    outputs = _outputs(queries)
    i = next(i for i, q in enumerate(queries) if q.kind == "triples")
    outputs[i] = outputs[i][1:]
    reasons = checks.check_outputs(queries, outputs)
    assert [j for j, r in enumerate(reasons) if r] == [i]


def test_reached_rewrite_target_is_counted():
    queries = TINY["search"]()
    outputs = _outputs(queries)
    i = next(i for i, q in enumerate(queries) if q.kind == "rewrite")
    outputs[i] = {"end": "S[2,2]", "steps": []}
    assert checks.check_outputs(queries, outputs)[i] is not None


def _bindings():
    seen = {}
    for module in _knotsum_modules():
        seen.update({(module.__name__, k): v for k, v in vars(module).items()})
    for cls in (laurent.LaurentPolynomial, plumbing.PlumbingWord):
        seen.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return seen


def test_traced_pass_restores_every_function(tmp_path):
    before = _bindings()
    result = run_pass(TINY["search"](), traced=True, spans_path=tmp_path / "spans.json")
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert result["layers"]["plumbing.PlumbingWord.built"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert {row[1] for row in spans} >= {"surgery.search_triples", "bench.query"}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_and_self_times_add_up(name):
    first = run_pass(TINY[name](), traced=True)["layers"]
    second = run_pass(TINY[name](), traced=True)["layers"]
    exact = [k for k in first if not k.endswith("_s") and ".ms_p50." not in k]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    for layers in (first, second):
        self_times = [v for k, v in layers.items() if k.endswith(".self_s")]
        assert min(self_times) >= 0
        # Each self time is measured; only the clock reads around each query's
        # wrapper lie outside them, so the gap is small and never negative.
        gap = layers["trace.run_s"] - sum(self_times)
        assert -1e-12 <= gap <= 0.01 * layers["trace.run_s"]


def test_declared_metrics_match_emitted_and_mapped():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    emitted = set(run_pass(TINY["profile-long"](), traced=True)["layers"]) | {"trace.overhead_ratio"}
    assert emitted == declared
    layer_map = json.loads((ROOT / "bench" / "layer_map.json").read_text())["layers"]
    mapped = [m for row in layer_map for m in row["metrics"]]
    assert sorted(mapped) == sorted(declared)
    workload_names = {w["name"] for w in spec["workloads"]}
    assert all(set(row["on"]) <= workload_names for row in layer_map)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert all(set(row["moves"]) <= end_to_end for row in layer_map)
    assert {name for name, *_ in TRACED} == {m.rsplit(".", 1)[0] for m in declared
                                             if m.endswith(".self_s")} - {"bench"}


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
