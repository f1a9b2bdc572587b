"""Command-line front end. Thin adapters only: every subcommand parses its
arguments, calls one library entry point, and returns a Report; main prints
it either as human-readable text or as versioned JSON (--format structured).
Each handler imports the library modules it calls, so a command loads only
its own: `split` never loads the table, and `dm-bounds` neither the plumbing
calculus nor the surgery layer.

Exit codes: 0 success, 1 verification failure (including search not-found,
with the budget printed), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import NamedTuple, Sequence

from .braid import (
    BraidWord,
    ShuffleError,
    default_shuffle,
    format_braid,
    murasugi_concat,
    parse_braid,
    split_braid,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


class Report(NamedTuple):
    """What a subcommand found: the structured payload, the human lines, the exit code."""

    payload: dict
    lines: list[str]
    code: int = EXIT_OK


def _parse_braid_arg(text: str, strands: int | None = None) -> BraidWord:
    return parse_braid(text.replace(",", " "), strands)


def _profile_report(profile) -> tuple[dict, list[str]]:
    """Payload fields and human lines for a profile and its identification."""
    from .profiles import identify

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


def _given(**options) -> dict:
    """The budget options given on the command line; the budget's own
    defaults fill in the rest."""
    return {name: value for name, value in options.items() if value is not None}


def _exhausted(what: str, budget, **fields) -> Report:
    """Report a search that ran out of budget, naming the budget."""
    return Report(
        {"found": False, "budget": budget.describe(), **fields},
        [f"{what} within budget: {budget.describe()}"],
        EXIT_VERIFICATION,
    )


def _cmd_invariants(args: argparse.Namespace) -> Report:
    text = args.word.strip()
    if text.startswith("S["):
        if args.strands is not None:
            raise ValueError("--strands applies to braid words only")
        from .plumbing import PlumbingWord, boundary_profile

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
        from .profiles import BraidInvariants

        word = _parse_braid_arg(text, args.strands)
        invariants = BraidInvariants(word)
        profile = invariants.profile(word)
        data = invariants.closure
        payload = {
            "kind": "braid",
            "word": format_braid(word),
            "strands": word.strands,
            "letters": len(word.letters),
            "permutation_cycles": [list(c) for c in data.cycles()],
            "components": data.components,
            "writhe": word.writhe,
        }
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
    return Report({**payload, **fields}, lines + profile_lines)


def _cmd_split(args: argparse.Namespace) -> Report:
    word = _parse_braid_arg(args.word, args.strands)
    outer, inner = split_braid(word, args.at)
    payload = {
        "word": format_braid(word),
        "strands": word.strands,
        "at": args.at,
        "outer": {"word": format_braid(outer), "strands": outer.strands},
        "inner": {"word": format_braid(inner), "strands": inner.strands},
    }
    return Report(payload, [
        f"outer: {format_braid(outer) or '(empty)'}  ({outer.strands} strands)",
        f"inner: {format_braid(inner) or '(empty)'}  ({inner.strands} strands)",
    ])


def _parse_shuffle(text: str) -> tuple[int, ...]:
    cleaned = text.replace(",", " ").replace(" ", "")
    try:
        return tuple(int(ch) for ch in cleaned)
    except ValueError as exc:
        raise ShuffleError(f"shuffle must be a 0/1 string, got {text!r}") from exc


def _cmd_concat(args: argparse.Namespace) -> Report:
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
    return Report(payload, [
        f"composite: {format_braid(composite.word)}  "
        f"({composite.word.strands} strands)",
        f"split index: {composite.split_index}",
        f"gon size: {composite.gon_size}",
    ])


def _cmd_unknot_set(args: argparse.Namespace) -> Report:
    from .surgery import (
        CERT_INCONSISTENT,
        apply_crossing_changes,
        unknot_certificate,
        unknotting_crossing_set,
    )

    word = _parse_braid_arg(args.word, args.strands)
    positions = unknotting_crossing_set(word, basepoint=args.basepoint)
    changed = apply_crossing_changes(word, positions)
    certificate = unknot_certificate(changed.word, args.basepoint)
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
    code = EXIT_OK if certificate != CERT_INCONSISTENT else EXIT_VERIFICATION
    return Report(payload, lines, code)


def _cmd_dm_bounds(args: argparse.Namespace) -> Report:
    from .distances import dm_interval, load_distance_data

    data = load_distance_data(args.data)
    interval = dm_interval(args.k1, args.k2, args.k3, data)
    payload = {
        "knots": [args.k1, args.k2, args.k3],
        **interval.serialize(),
    }
    lines = [
        f"d_M({args.k1}, {args.k2}; {args.k3}) in "
        f"[{payload['lower']}, {payload['upper']}]",
        f"connected sum status: {interval.connected_sum_status}",
        "derivation:",
    ]
    for entry in interval.derivation:
        if entry.value is None:
            lines.append(f"  {entry.name}: {entry.inputs}")
        else:
            lines.append(f"  {entry.name} = {entry.value}  ({entry.inputs})")
    return Report(payload, lines)


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
        "steps": [step._asdict() for step in trace.steps],
    }


def _cmd_plumbing_normalize(args: argparse.Namespace) -> Report:
    from .plumbing import PlumbingWord, normalize

    trace = normalize(PlumbingWord.parse(args.word))
    preserved = trace.check_profiles()
    return Report(
        {**_trace_payload(trace), "boundary_preserved": preserved},
        _trace_lines(trace) + [f"boundary preserved: {'yes' if preserved else 'no'}"],
        EXIT_OK if preserved else EXIT_VERIFICATION,
    )


def _cmd_plumbing_boundary(args: argparse.Namespace) -> Report:
    from .plumbing import PlumbingWord, boundary_profile

    word = PlumbingWord.parse(args.word)
    fields, profile_lines = _profile_report(boundary_profile(word))
    return Report(
        {"word": word.format(), **fields}, [f"plumbing: {word.format()}"] + profile_lines
    )


def _cmd_plumbing_search(args: argparse.Namespace) -> Report:
    from .plumbing import PlumbingWord, SearchBudget, rewrite_search
    from .table import lookup

    word = PlumbingWord.parse(args.word)
    target = lookup(args.target).profile
    budget = SearchBudget(**_given(max_length=args.max_length, max_twist=args.max_twist,
                                   max_states=args.max_states))
    trace = rewrite_search(word, target, budget)
    if trace is None:
        return _exhausted("not found", budget)
    return Report(
        {"found": True, **_trace_payload(trace)},
        [f"target: {args.target}"] + _trace_lines(trace),
    )


def _cmd_verify_triple(args: argparse.Namespace) -> Report:
    from .surgery import TripleFailure, verify_triple

    word = _parse_braid_arg(args.word, args.strands)
    expected = tuple(name.strip() for name in args.expect.split(","))
    if len(expected) != 3:
        raise ValueError(f"--expect needs three comma-separated names, got {args.expect!r}")
    result = verify_triple(word, args.at, expected)  # type: ignore[arg-type]
    if isinstance(result, TripleFailure):
        return Report(
            {"ok": False, "failure": result.serialize()},
            [f"verification failed at {result.stage}: {result.detail}"],
            EXIT_VERIFICATION,
        )
    lines = [
        f"witness: word {format_braid(result.composite.word)}, "
        f"k {result.composite.split_index}, gon {result.gon_size}",
        f"names: {', '.join(result.names)}",
    ]
    return Report({"ok": True, "witness": result.serialize()}, lines)


def _cmd_search_triples(args: argparse.Namespace) -> Report:
    from .surgery import TripleBudget, search_triples

    budget = TripleBudget(**_given(
        max_total_letters=args.max_letters,
        max_strands=args.max_strands,
        max_shuffles=args.max_shuffles,
    ))
    witnesses = search_triples((args.k1, args.k2, args.k3), budget, limit=args.limit)
    if not witnesses:
        return _exhausted("no witnesses", budget, witnesses=[])
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
    return Report(payload, lines)


def _cmd_gon_merge(args: argparse.Namespace) -> Report:
    from .distances import gon_merge

    total = gon_merge(args.sizes, knot_boundary=args.knot)
    payload = {
        "sizes": list(args.sizes),
        "knot_boundary": args.knot,
        "total": total,
    }
    return Report(payload, [str(total)])


def _cmd_plan_triple(args: argparse.Namespace) -> Report:
    from .distances import load_distance_data, plan_triple_sum

    data = load_distance_data(args.data)
    plan = plan_triple_sum(args.k1, args.k2, args.k3, data)
    return Report({"plan": plan.serialize()}, [
        f"send {plan.to_k3} to {args.k3} ({plan.p} twist annuli), "
        f"send {plan.to_unknot} to the unknot ({plan.q} twist annuli)",
        f"intermediate gons: {plan.intermediate_gons[0]}, "
        f"{plan.intermediate_gons[1]}",
        f"final gon: {plan.final_gon}",
    ])


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One add_argument call, kept as data."""
    return flags, options


WORD = _arg("word")
STRANDS = _arg("--strands", type=int, default=None)
AT = _arg("--at", type=int, required=True, metavar="k")
KNOTS = (_arg("k1"), _arg("k2"), _arg("k3"))

# name -> (handler, help, arguments in order); a dict in place of the
# handler is a group, whose entries are its subcommands
COMMANDS: dict = {
    "invariants": (_cmd_invariants, "profile of a braid closure or plumbing boundary", (
        _arg("word", help='braid letters like "1 1 1", or "S[2,4]"'), STRANDS,
    )),
    "split": (_cmd_split, "cut a braid word at strand k+1", (WORD, AT, STRANDS)),
    "concat": (
        _cmd_concat, "Murasugi-compose two braid words (first is the inner word)",
        (_arg("word1"), _arg("word2"), _arg("--shuffle", default=None,
                                            help='0/1 pattern like "0101"')),
    ),
    "unknot-set": (
        _cmd_unknot_set, "walk-selected crossing changes that unknot a braid closure",
        (WORD, _arg("--basepoint", type=int, default=1), STRANDS),
    ),
    "dm-bounds": (_cmd_dm_bounds, "certified interval for d_M(K1, K2; K3)", (
        *KNOTS, _arg("--data", default=None, help="alternate distance data file"),
    )),
    "plumbing": ({
        "normalize": (
            _cmd_plumbing_normalize, "strip trailing stabilizations and interior zeros",
            (_arg("word", help='like "S[2,2,-2,0,2,2]"'),),
        ),
        "boundary": (_cmd_plumbing_boundary, "boundary profile + identification", (WORD,)),
        "search": (
            _cmd_plumbing_search,
            "rewrite toward a minimal-genus word with the given boundary",
            (WORD, _arg("target", help="table knot name"),
             _arg("--max-length", type=int), _arg("--max-twist", type=int),
             _arg("--max-states", type=int)),
        ),
    }, "linear plumbing rewrites", ()),
    "verify-triple": (
        _cmd_verify_triple, "check that a braid word splits into a named Murasugi triple",
        (WORD, AT, _arg("--expect", required=True, metavar="K1,K2,K3"), STRANDS),
    ),
    "search-triples": (
        _cmd_search_triples, "enumerate braid witnesses for a Murasugi-sum triple",
        (*KNOTS,
         _arg("--max-letters", type=int), _arg("--max-strands", type=int),
         _arg("--max-shuffles", type=int), _arg("--limit", type=int, default=None)),
    ),
    "gon-merge": (_cmd_gon_merge, "total gon size after merging summing polygons", (
        _arg("sizes", type=int, nargs="+"),
        _arg("--knot", action="store_true", help="merge along a knot boundary"),
    )),
    "plan-triple": (
        _cmd_plan_triple, "twist-annulus plan realizing K3 as a sum of K1 and K2",
        (*KNOTS, _arg("--data", default=None)),
    ),
}


def _add_commands(sub, commands: dict, common: argparse.ArgumentParser) -> None:
    for name, (handler, help_text, arguments) in commands.items():
        if isinstance(handler, dict):
            group = sub.add_parser(name, help=help_text)
            inner = group.add_subparsers(dest=f"{name}_command", required=True)
            _add_commands(inner, handler, common)
            continue
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)


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
    _add_commands(parser.add_subparsers(dest="subcommand", required=True), COMMANDS, common)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        report = args.func(args)
    except KeyError as exc:
        reason = exc.args[0] if exc.args else exc
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        # TableError is a ValueError; Overflow: strands >= 2^63; MemoryError: too many
        # strands to list
        reason = "input too large to hold in memory" if isinstance(exc, MemoryError) else exc
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "structured":
        import json

        print(json.dumps({"version": SCHEMA_VERSION, **report.payload}, indent=2))
    else:
        for line in report.lines:
            print(line)
    return report.code


if __name__ == "__main__":
    raise SystemExit(main())
