"""Command-line front end. Thin adapters only: every subcommand parses its
arguments, calls one library entry point, and prints the result either as
human-readable text or as versioned JSON (--format structured).

Exit codes: 0 success, 1 verification failure (including search not-found,
with the budget printed), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .braid import (
    BraidWord,
    ShuffleError,
    closure_data,
    default_shuffle,
    format_braid,
    murasugi_concat,
    parse_braid,
    split_braid,
)
from .distances import (
    dm_interval,
    gon_merge,
    load_distance_data,
    plan_triple_sum,
)
from .plumbing import (
    PlumbingWord,
    SearchBudget,
    boundary_profile,
    normalize,
    rewrite_search,
)
from .profiles import identify, profile_of_braid
from .surgery import (
    CERT_INCONSISTENT,
    TripleBudget,
    TripleFailure,
    apply_crossing_changes,
    search_triples,
    unknot_certificate,
    unknotting_crossing_set,
    verify_triple,
)
from .table import TableError, lookup

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    if args.format == "structured":
        print(json.dumps({"version": SCHEMA_VERSION, **payload}, indent=2))
    else:
        for line in lines:
            print(line)


def _parse_braid_arg(text: str, strands: int | None = None) -> BraidWord:
    return parse_braid(text.replace(",", " "), strands)


def _braid_payload(word: BraidWord) -> dict:
    data = closure_data(word)
    return {
        "word": format_braid(word),
        "strands": word.strands,
        "letters": len(word.letters),
        "permutation_cycles": [list(c) for c in data.cycles()],
        "components": data.components,
        "writhe": data.writhe,
    }


def _profile_report(profile) -> tuple[dict, list[str]]:
    """Payload fields and human lines for a profile and its identification."""
    # links stay unidentified; the table holds knots only
    names = identify(profile) if profile.is_knot else None
    if names is None:
        identified = "(links are not matched against the table)"
    else:
        identified = ", ".join(names) or "no table match"
    fields = {"profile": profile.serialize(), "identified": names}
    lines = [
        f"alexander: {profile.alexander.pretty()}",
        f"signature: {profile.signature}",
        f"determinant: {profile.determinant}",
        f"genus bound: {profile.canonical_genus_bound}",
        f"components: {profile.components}",
        f"identified: {identified}",
    ]
    return fields, lines


def _exhausted(args: argparse.Namespace, what: str, budget, **fields) -> int:
    """Report a search that ran out of budget, printing the budget."""
    _emit(
        args,
        {"found": False, "budget": budget.describe(), **fields},
        [f"{what} within budget: {budget.describe()}"],
    )
    return EXIT_VERIFICATION


def _cmd_invariants(args: argparse.Namespace) -> int:
    text = args.word.strip()
    if text.startswith("S["):
        word = PlumbingWord.parse(text)
        profile = boundary_profile(word)
        payload: dict = {
            "kind": "plumbing",
            "word": word.format(),
            "size": word.size,
            "minimal_genus": word.is_minimal_genus,
        }
        lines = [
            f"plumbing: {word.format()}  ({word.size} twist regions)",
            f"minimal genus word: {'yes' if word.is_minimal_genus else 'no'}",
        ]
    else:
        word = _parse_braid_arg(text, args.strands)
        profile = profile_of_braid(word)
        payload = {"kind": "braid", **_braid_payload(word)}
        cycles = " ".join(
            "(" + " ".join(str(v) for v in c) + ")"
            for c in payload["permutation_cycles"]
        )
        lines = [
            f"braid: {payload['word']}  ({word.strands} strands, "
            f"{len(word.letters)} letters)",
            f"closure: {payload['components']} component(s), "
            f"writhe {payload['writhe']}",
            f"permutation cycles: {cycles}",
        ]
    fields, profile_lines = _profile_report(profile)
    _emit(args, {**payload, **fields}, lines + profile_lines)
    return EXIT_OK


def _cmd_split(args: argparse.Namespace) -> int:
    word = _parse_braid_arg(args.word, args.strands)
    outer, inner = split_braid(word, args.at)
    payload = {
        "word": format_braid(word),
        "strands": word.strands,
        "at": args.at,
        "outer": {"word": format_braid(outer), "strands": outer.strands},
        "inner": {"word": format_braid(inner), "strands": inner.strands},
    }
    lines = [
        f"outer: {format_braid(outer) or '(empty)'}  ({outer.strands} strands)",
        f"inner: {format_braid(inner) or '(empty)'}  ({inner.strands} strands)",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _parse_shuffle(text: str) -> tuple[int, ...]:
    cleaned = text.replace(",", " ").replace(" ", "")
    try:
        bits = tuple(int(ch) for ch in cleaned)
    except ValueError as exc:
        raise ShuffleError(f"shuffle must be a 0/1 string, got {text!r}") from exc
    return bits


def _cmd_concat(args: argparse.Namespace) -> int:
    w1 = _parse_braid_arg(args.word1)
    w2 = _parse_braid_arg(args.word2)
    shuffle = (
        _parse_shuffle(args.shuffle)
        if args.shuffle is not None
        else default_shuffle(len(w1.letters), len(w2.letters))
    )
    composite = murasugi_concat(w1, w2, shuffle)
    payload = {
        "word": format_braid(composite.word),
        "strands": composite.word.strands,
        "split_index": composite.split_index,
        "gon_size": composite.gon_size,
        "shuffle": list(shuffle),
    }
    lines = [
        f"composite: {format_braid(composite.word)}  "
        f"({composite.word.strands} strands)",
        f"split index: {composite.split_index}",
        f"gon size: {composite.gon_size}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_unknot_set(args: argparse.Namespace) -> int:
    word = _parse_braid_arg(args.word, args.strands)
    positions = unknotting_crossing_set(word, basepoint=args.basepoint)
    changed = apply_crossing_changes(word, positions)
    certificate = unknot_certificate(changed.word, from_walk=True)
    ordered = sorted(positions)
    payload = {
        "word": format_braid(word),
        "strands": word.strands,
        "basepoint": args.basepoint,
        "positions": ordered,
        "count": len(ordered),
        "flipped_word": format_braid(changed.word),
        "annuli": [annulus.serialize() for annulus in changed.records],
        "certificate": certificate,
    }
    lines = [
        f"word: {format_braid(word)}  ({word.strands} strands, "
        f"{len(word.letters)} letters)",
        f"positions to flip (0-based): "
        f"{' '.join(str(p) for p in ordered) or '(none)'}",
        f"count: {len(ordered)}",
        f"flipped word: {format_braid(changed.word) or '(empty)'}",
        f"certificate: {certificate}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if certificate != CERT_INCONSISTENT else EXIT_VERIFICATION


def _format_interval(lower: int, upper: int | None) -> str:
    return f"[{lower}, {'unknown' if upper is None else upper}]"


def _cmd_dm_bounds(args: argparse.Namespace) -> int:
    data = load_distance_data(args.data)
    interval = dm_interval(args.k1, args.k2, args.k3, data)
    payload = {
        "knots": [args.k1, args.k2, args.k3],
        **interval.serialize(),
    }
    lines = [
        f"d_M({args.k1}, {args.k2}; {args.k3}) in "
        f"{_format_interval(interval.lower, interval.upper)}",
        f"connected sum status: {interval.connected_sum_status}",
        "derivation:",
    ]
    for entry in interval.derivation:
        if entry.value is None:
            lines.append(f"  {entry.name}: {entry.inputs}")
        else:
            lines.append(f"  {entry.name} = {entry.value}  ({entry.inputs})")
    _emit(args, payload, lines)
    return EXIT_OK


def _trace_lines(trace) -> list[str]:
    lines = [f"start: {trace.start.format()}"]
    for step in trace.steps:
        extra = f" params {list(step.params)}" if step.params else ""
        lines.append(f"  rule {step.rule} at {step.position}{extra}")
    lines.append(f"end: {trace.end.format()}")
    return lines


def _trace_payload(trace) -> dict:
    return {
        "start": trace.start.format(),
        "end": trace.end.format(),
        "steps": [
            {"rule": s.rule, "position": s.position, "params": list(s.params)}
            for s in trace.steps
        ],
    }


def _cmd_plumbing_normalize(args: argparse.Namespace) -> int:
    word = PlumbingWord.parse(args.word)
    trace = normalize(word)
    preserved = trace.check_profiles()
    payload = {**_trace_payload(trace), "boundary_preserved": preserved}
    lines = _trace_lines(trace)
    lines.append(f"boundary preserved: {'yes' if preserved else 'no'}")
    _emit(args, payload, lines)
    return EXIT_OK if preserved else EXIT_VERIFICATION


def _cmd_plumbing_boundary(args: argparse.Namespace) -> int:
    word = PlumbingWord.parse(args.word)
    fields, profile_lines = _profile_report(boundary_profile(word))
    _emit(
        args,
        {"word": word.format(), **fields},
        [f"plumbing: {word.format()}"] + profile_lines,
    )
    return EXIT_OK


def _cmd_plumbing_search(args: argparse.Namespace) -> int:
    word = PlumbingWord.parse(args.word)
    target = lookup(args.target).profile
    budget = SearchBudget(
        max_length=args.max_length,
        max_twist=args.max_twist,
        max_states=args.max_states,
    )
    trace = rewrite_search(word, target, budget)
    if trace is None:
        return _exhausted(args, "not found", budget)
    payload = {"found": True, **_trace_payload(trace)}
    lines = [f"target: {args.target}"] + _trace_lines(trace)
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_verify_triple(args: argparse.Namespace) -> int:
    word = _parse_braid_arg(args.word, args.strands)
    expected = tuple(name.strip() for name in args.expect.split(","))
    if len(expected) != 3:
        raise ValueError(f"--expect needs three comma-separated names, got {args.expect!r}")
    result = verify_triple(word, args.at, expected)  # type: ignore[arg-type]
    if isinstance(result, TripleFailure):
        payload = {"ok": False, "failure": result.serialize()}
        lines = [f"verification failed at {result.stage}: {result.detail}"]
        _emit(args, payload, lines)
        return EXIT_VERIFICATION
    payload = {"ok": True, "witness": result.serialize()}
    lines = [
        f"witness: word {format_braid(result.composite.word) or '(empty)'}, "
        f"k {result.composite.split_index}, gon {result.gon_size}",
        f"names: {', '.join(result.names)}",
    ]
    if result.degenerate:
        lines.append("degenerate: empty word, no sum structure")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_search_triples(args: argparse.Namespace) -> int:
    budget = TripleBudget(
        max_total_letters=args.max_letters,
        max_strands=args.max_strands,
        max_shuffles=args.max_shuffles,
    )
    witnesses = search_triples((args.k1, args.k2, args.k3), budget, limit=args.limit)
    if not witnesses:
        return _exhausted(args, "no witnesses", budget, witnesses=[])
    payload = {
        "found": True,
        "count": len(witnesses),
        "witnesses": [w.serialize() for w in witnesses],
    }
    lines = [f"found {len(witnesses)} witness(es)"]
    for w in witnesses:
        lines.append(
            f"  word: {format_braid(w.composite.word)}  "
            f"k: {w.composite.split_index}  gon: {w.gon_size}"
        )
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_gon_merge(args: argparse.Namespace) -> int:
    total = gon_merge(args.sizes, knot_boundary=args.knot)
    payload = {
        "sizes": list(args.sizes),
        "knot_boundary": args.knot,
        "total": total,
    }
    _emit(args, payload, [str(total)])
    return EXIT_OK


def _cmd_plan_triple(args: argparse.Namespace) -> int:
    data = load_distance_data(args.data)
    plan = plan_triple_sum(args.k1, args.k2, args.k3, data)
    payload = {"plan": plan.serialize()}
    lines = [
        f"send {plan.to_k3} to {args.k3} ({plan.p} twist annuli), "
        f"send {plan.to_unknot} to the unknot ({plan.q} twist annuli)",
        f"intermediate gons: {plan.intermediate_gons[0]}, "
        f"{plan.intermediate_gons[1]}",
        f"final gon: {plan.final_gon}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("human", "structured"),
        default="human",
        help="output style; structured is versioned JSON",
    )

    parser = argparse.ArgumentParser(
        prog="knotsum",
        description="Murasugi sums of braid closures and linear plumbings: "
        "invariants, rewrites, and certified d_M bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "invariants", parents=[common],
        help="profile of a braid closure or plumbing boundary",
    )
    p.add_argument("word", help='braid letters like "1 1 1", or "S[2,4]"')
    p.add_argument("--strands", type=int, default=None)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("split", parents=[common], help="cut a braid word at strand k+1")
    p.add_argument("word")
    p.add_argument("--at", type=int, required=True, metavar="k")
    p.add_argument("--strands", type=int, default=None)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser(
        "concat", parents=[common],
        help="Murasugi-compose two braid words (first is the inner word)",
    )
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--shuffle", default=None, help='0/1 pattern like "0101"')
    p.set_defaults(func=_cmd_concat)

    p = sub.add_parser(
        "unknot-set", parents=[common],
        help="walk-selected crossing changes that unknot a braid closure",
    )
    p.add_argument("word")
    p.add_argument("--basepoint", type=int, default=1)
    p.add_argument("--strands", type=int, default=None)
    p.set_defaults(func=_cmd_unknot_set)

    p = sub.add_parser(
        "dm-bounds", parents=[common],
        help="certified interval for d_M(K1, K2; K3)",
    )
    p.add_argument("k1")
    p.add_argument("k2")
    p.add_argument("k3")
    p.add_argument("--data", default=None, help="alternate distance data file")
    p.set_defaults(func=_cmd_dm_bounds)

    plumbing = sub.add_parser("plumbing", help="linear plumbing rewrites")
    psub = plumbing.add_subparsers(dest="plumbing_command", required=True)

    p = psub.add_parser(
        "normalize", parents=[common],
        help="strip trailing stabilizations and interior zeros",
    )
    p.add_argument("word", help='like "S[2,2,-2,0,2,2]"')
    p.set_defaults(func=_cmd_plumbing_normalize)

    p = psub.add_parser(
        "boundary", parents=[common], help="boundary profile + identification",
    )
    p.add_argument("word")
    p.set_defaults(func=_cmd_plumbing_boundary)

    p = psub.add_parser(
        "search", parents=[common],
        help="rewrite toward a minimal-genus word with the given boundary",
    )
    p.add_argument("word")
    p.add_argument("target", help="table knot name")
    p.add_argument("--max-length", type=int, default=SearchBudget.max_length)
    p.add_argument("--max-twist", type=int, default=SearchBudget.max_twist)
    p.add_argument("--max-states", type=int, default=SearchBudget.max_states)
    p.set_defaults(func=_cmd_plumbing_search)

    p = sub.add_parser(
        "verify-triple", parents=[common],
        help="check that a braid word splits into a named Murasugi triple",
    )
    p.add_argument("word")
    p.add_argument("--at", type=int, required=True, metavar="k")
    p.add_argument("--expect", required=True, metavar="K1,K2,K3")
    p.add_argument("--strands", type=int, default=None)
    p.set_defaults(func=_cmd_verify_triple)

    p = sub.add_parser(
        "search-triples", parents=[common],
        help="enumerate braid witnesses for a Murasugi-sum triple",
    )
    p.add_argument("k1")
    p.add_argument("k2")
    p.add_argument("k3")
    p.add_argument("--max-letters", type=int, default=TripleBudget.max_total_letters)
    p.add_argument("--max-strands", type=int, default=TripleBudget.max_strands)
    p.add_argument("--max-shuffles", type=int, default=TripleBudget.max_shuffles)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_search_triples)

    p = sub.add_parser(
        "gon-merge", parents=[common],
        help="total gon size after merging summing polygons",
    )
    p.add_argument("sizes", type=int, nargs="+")
    p.add_argument("--knot", action="store_true", help="merge along a knot boundary")
    p.set_defaults(func=_cmd_gon_merge)

    p = sub.add_parser(
        "plan-triple", parents=[common],
        help="twist-annulus plan realizing K3 as a sum of K1 and K2",
    )
    p.add_argument("k1")
    p.add_argument("k2")
    p.add_argument("k3")
    p.add_argument("--data", default=None)
    p.set_defaults(func=_cmd_plan_triple)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except KeyError as exc:
        reason = exc.args[0] if exc.args else exc
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_USAGE
    except (TableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
