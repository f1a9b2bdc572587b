"""Per-layer tracing from outside the package.

`Tracer.install` wraps the public functions listed in TRACED and rebinds
each wrapper everywhere the original is visible: in every loaded
`knotsum.*` module namespace that holds it (so `profiles.alexander_of_braid`
is wrapped as well as `seifert.alexander_of_braid`), and on the class for
methods. `Tracer.restore` puts every original object back.

A SPAN function records (id, name, parent id, start, end) in memory. A
LEAF function is called too often for one span per call (a 16-strand
Burau check makes about 2.2k Laurent multiplies), so its calls are
aggregated as (count, seconds) under the enclosing span. Self time is a
span's duration minus the time its child spans and leaf calls cover.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from knotsum.surgery import TripleWitness

SPAN = "span"
LEAF = "leaf"
ROOT = "bench.query"

TRACED = (
    ("laurent.mul", "knotsum.laurent", "LaurentPolynomial.__mul__", LEAF),
    ("laurent.divide_exact", "knotsum.laurent", "LaurentPolynomial.divide_exact", LEAF),
    ("linalg.pencil_determinant", "knotsum.linalg", "pencil_determinant", SPAN),
    ("linalg.bareiss_determinant", "knotsum.linalg", "bareiss_determinant", SPAN),
    ("linalg.symmetric_signature", "knotsum.linalg", "symmetric_signature", SPAN),
    ("linalg.laurent_matrix_determinant", "knotsum.linalg", "laurent_matrix_determinant", SPAN),
    ("braid.closure_data", "knotsum.braid", "closure_data", SPAN),
    ("braid.murasugi_concat", "knotsum.braid", "murasugi_concat", SPAN),
    ("braid.split_braid", "knotsum.braid", "split_braid", SPAN),
    ("seifert.seifert_matrix_of_braid", "knotsum.seifert", "seifert_matrix_of_braid", SPAN),
    ("seifert.alexander_of_braid", "knotsum.seifert", "alexander_of_braid", SPAN),
    ("burau.reduced_burau", "knotsum.burau", "reduced_burau", SPAN),
    ("burau.alexander_via_burau", "knotsum.burau", "alexander_via_burau", SPAN),
    ("profiles.profile_of_braid", "knotsum.profiles", "profile_of_braid", SPAN),
    ("profiles.profile_of_seifert_matrix", "knotsum.profiles", "profile_of_seifert_matrix", SPAN),
    ("table.match_profile", "knotsum.table", "match_profile", SPAN),
    ("surgery.search_triples", "knotsum.surgery", "search_triples", SPAN),
    ("surgery.verify_triple", "knotsum.surgery", "verify_triple", SPAN),
    ("plumbing.rewrite_search", "knotsum.plumbing", "rewrite_search", SPAN),
    ("plumbing.boundary_profile", "knotsum.plumbing", "boundary_profile", SPAN),
    ("plumbing.PlumbingWord", "knotsum.plumbing", "PlumbingWord.__post_init__", LEAF),
    ("distances.dm_interval", "knotsum.distances", "dm_interval", SPAN),
)
"""(metric prefix, module, attribute path, kind) for every traced function."""

PROFILE_LENGTH_BUCKETS = ((1, 8), (9, 16), (17, 24), (25, 32))
BURAU_STRAND_BUCKETS = ((10, 12), (13, 15), (16, 18))


class _Stat:
    __slots__ = ("calls", "self_s", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.samples: list = []


def _observe_matrix(args, result, seconds):
    return result.size


def _observe_profile(args, result, seconds):
    word = args[0]
    return (word.strands, word.letters), seconds


def _observe_verify(args, result, seconds):
    return isinstance(result, TripleWitness)


def _observe_burau(args, result, seconds):
    return args[0].strands, seconds


_OBSERVERS = {
    "seifert.seifert_matrix_of_braid": _observe_matrix,
    "profiles.profile_of_braid": _observe_profile,
    "surgery.verify_triple": _observe_verify,
    "burau.alexander_via_burau": _observe_burau,
}


def _knotsum_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "knotsum" or name.startswith("knotsum."))]


class Tracer:
    """Spans and per-function statistics for one pass; install, run, restore."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple] = []  # (id, name, parent id, start, end, leaves)
        self._stack: list[list] = [[-1, 0.0, None]]  # [span id, child seconds, leaves]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        observe = _OBSERVERS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            frame = [span_id, 0.0, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                stat.calls += 1
                stat.self_s += duration - frame[1]
                spans.append((span_id, name, parent[0], start, end, frame[2]))
            if observe is not None:
                stat.samples.append(observe(args, result, duration))
            return result

        return wrapper

    def _leaf(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                frame = stack[-1]
                frame[1] += duration
                stat.calls += 1
                stat.self_s += duration
                if frame[2] is None:
                    frame[2] = {}
                agg = frame[2].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += duration

        return wrapper

    def root(self, fn):
        """Wrap the benchmark's own query call; its self time is bench.self_s."""
        return self._span(ROOT, fn)

    # installation -----------------------------------------------------------

    def _rebind(self, owner, original, wrapper) -> None:
        for attr, value in list(vars(owner).items()):
            if value is original:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = _knotsum_modules()
        for name, module_name, path, kind in TRACED:
            owner = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = (self._leaf if kind == LEAF else self._span)(name, original)
            if isinstance(owner, type):
                self._rebind(owner, original, wrapper)
            else:
                for module in modules:
                    self._rebind(module, original, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # results ----------------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()

    def layer_metrics(self, scale: float) -> dict[str, float]:
        """Per-pass figures; times are multiplied by scale (see reference.py)."""
        out: dict[str, float] = {}
        for name, *_ in TRACED:
            stat = self._stat(name)
            if name == "plumbing.PlumbingWord":
                out[f"{name}.built"] = stat.calls
            else:
                out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s * scale

        dims = self._stat("seifert.seifert_matrix_of_braid").samples
        out["seifert.seifert_matrix_of_braid.dim_p50"] = statistics.median(dims) if dims else 0
        profile_calls = self._stat("profiles.profile_of_braid").calls
        out["seifert.seifert_matrix_of_braid.per_profile"] = (
            self._stat("seifert.seifert_matrix_of_braid").calls / profile_calls
            if profile_calls else 0)
        profiled = self._stat("profiles.profile_of_braid").samples
        out["profiles.profile_of_braid.distinct_ratio"] = (
            len({key for key, _ in profiled}) / len(profiled) if profiled else 0)
        verdicts = self._stat("surgery.verify_triple").samples
        out["surgery.verify_triple.witness_ratio"] = (
            sum(verdicts) / len(verdicts) if verdicts else 0)

        for lo, hi in PROFILE_LENGTH_BUCKETS:
            times = [s for (_, letters), s in profiled if lo <= len(letters) <= hi]
            out[f"profiles.profile_of_braid.ms_p50.len-{lo:02d}-{hi:02d}"] = (
                statistics.median(times) * 1e3 * scale if times else 0)
        burau_calls = self._stat("burau.alexander_via_burau").samples
        for lo, hi in BURAU_STRAND_BUCKETS:
            times = [s for strands, s in burau_calls if lo <= strands <= hi]
            out[f"burau.alexander_via_burau.ms_p50.strands-{lo}-{hi}"] = (
                statistics.median(times) * 1e3 * scale if times else 0)
        return out

    def write_spans(self, path: Path) -> None:
        """Spans in start order, times in microseconds from the first span."""
        spans = sorted(self.spans, key=lambda s: s[3])
        origin = spans[0][3] if spans else 0.0
        rows = [
            [span_id, name, parent, round((start - origin) * 1e6, 3),
             round((end - origin) * 1e6, 3), leaves or {}]
            for span_id, name, parent, start, end, leaves in spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"columns": ["id", "name", "parent", "start_us", "end_us", "leaves"],
             "spans": rows}, separators=(",", ":")))
