import json

import pytest

from knotsum import surgery
from knotsum.braid import BraidWord, murasugi_concat, parse_braid, split_braid
from knotsum.cli import COMMANDS, main
from knotsum.distances import dm_interval
from knotsum.plumbing import PlumbingWord, normalize
from knotsum.surgery import unknotting_crossing_set


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out), err


def test_invariants_braid_human(capsys):
    code, out, _ = run(capsys, "invariants", "1 1 1")
    assert code == 0
    assert "identified: 3_1" in out
    assert "signature: -2" in out


def test_invariants_structured_is_versioned_and_round_trips(capsys):
    code, payload, _ = run_json(capsys, "invariants", "1 -2 1 -2")
    assert code == 0
    assert payload["version"] == 1
    assert payload["kind"] == "braid"
    word = parse_braid(payload["word"], payload["strands"])
    assert word == BraidWord(3, (1, -2, 1, -2))
    assert payload["identified"] == ["4_1"]
    assert payload["profile"]["determinant"] == 5


def test_invariants_accepts_comma_separated_letters(capsys):
    code, payload, _ = run_json(capsys, "invariants", "1,1,1")
    assert code == 0
    assert payload["word"] == "1 1 1"


def test_invariants_plumbing(capsys):
    code, payload, _ = run_json(capsys, "invariants", "S[2,4]")
    assert code == 0
    assert payload["kind"] == "plumbing"
    assert PlumbingWord.parse(payload["word"]) == PlumbingWord((2, 4))
    assert payload["identified"] == ["5_2"]


def test_invariants_link_is_not_identified(capsys):
    code, payload, _ = run_json(capsys, "invariants", "1 1")
    assert code == 0
    assert payload["identified"] is None


def test_split_matches_library(capsys):
    code, payload, _ = run_json(capsys, "split", "1 2", "--at", "1")
    assert code == 0
    outer, inner = split_braid(BraidWord(3, (1, 2)), 1)
    assert parse_braid(payload["outer"]["word"], payload["outer"]["strands"]) == outer
    assert parse_braid(payload["inner"]["word"], payload["inner"]["strands"]) == inner


def test_concat_matches_library(capsys):
    code, payload, _ = run_json(capsys, "concat", "1 1", "-1", "--shuffle", "100")
    assert code == 0
    comp = murasugi_concat(BraidWord(2, (1, 1)), BraidWord(2, (-1,)), (1, 0, 0))
    assert parse_braid(payload["word"], payload["strands"]) == comp.word
    assert payload["gon_size"] == comp.gon_size
    assert payload["split_index"] == comp.split_index


def test_unknot_set_matches_library(capsys):
    code, payload, _ = run_json(capsys, "unknot-set", "1 1 1")
    assert code == 0
    expected = unknotting_crossing_set(BraidWord(2, (1, 1, 1)))
    assert payload["positions"] == sorted(expected)
    assert payload["certificate"] == "certified_descending"
    assert len(payload["annuli"]) == len(expected)


def test_unknot_set_exits_1_on_a_forged_walk(capsys, monkeypatch):
    # an empty flip set leaves the trefoil, whose invariants are not the unknot's;
    # the handler imports the walk from the surgery module when it runs
    monkeypatch.setattr(surgery, "unknotting_crossing_set", lambda word, basepoint: frozenset())
    code, out, _ = run(capsys, "unknot-set", "1 1 1")
    assert code == 1
    assert "certificate: inconsistent" in out


def test_dm_bounds_matches_library(capsys):
    code, out, _ = run(capsys, "dm-bounds", "3_1", "3_1", "3_1")
    assert code == 0
    assert "[4, 4]" in out
    assert "derivation:" in out
    code, payload, _ = run_json(capsys, "dm-bounds", "3_1", "3_1", "5_1")
    iv = dm_interval("3_1", "3_1", "5_1")
    assert (payload["lower"], payload["upper"]) == (iv.lower, iv.upper)
    assert payload["connected_sum_status"] == iv.connected_sum_status
    assert len(payload["derivation"]) == len(iv.derivation)


def test_plumbing_normalize_matches_library(capsys):
    code, payload, _ = run_json(capsys, "plumbing", "normalize", "S[2,2,-2,0,2,2]")
    assert code == 0
    trace = normalize(PlumbingWord((2, 2, -2, 0, 2, 2)))
    assert PlumbingWord.parse(payload["end"]) == trace.end
    assert len(payload["steps"]) == len(trace.steps)
    assert payload["boundary_preserved"] is True


def test_plumbing_boundary(capsys):
    code, out, _ = run(capsys, "plumbing", "boundary", "S[2,4]")
    assert code == 0
    assert "identified: 5_2" in out


def test_plumbing_search_found_and_not_found(capsys):
    code, payload, _ = run_json(
        capsys, "plumbing", "search", "S[2,2,-2,0,2,2]", "5_2"
    )
    assert code == 0
    assert payload["found"] is True
    assert PlumbingWord.parse(payload["end"]) == PlumbingWord((2, 4))

    code, out, _ = run(capsys, "plumbing", "search", "S[2,-2]", "3_1", "--max-states", "100")
    assert code == 1
    assert "not found" in out
    assert "100" in out  # the budget is printed


def test_verify_triple_cli(capsys):
    code, payload, _ = run_json(
        capsys, "verify-triple", "1 2", "--at", "1",
        "--expect", "unknot,unknot,unknot",
    )
    assert code == 0
    assert payload["ok"] is True
    assert payload["witness"]["gon"] == 4

    code, payload, _ = run_json(
        capsys, "verify-triple", "1 1 2 2", "--at", "1",
        "--expect", "unknot,unknot,unknot",
    )
    assert code == 1
    assert payload["ok"] is False
    assert "components" in payload["failure"]["detail"]

    # an empty word does not get past an out-of-range split index
    code, payload, _ = run_json(
        capsys, "verify-triple", "", "--at", "-3",
        "--expect", "unknot,unknot,unknot",
    )
    assert code == 1
    assert payload["failure"]["stage"] == "split"

    # an empty word on 3 strands splits into unlinks, which are not unknots
    code, payload, _ = run_json(
        capsys, "verify-triple", "", "--strands", "3", "--at", "1",
        "--expect", "unknot,unknot,unknot",
    )
    assert code == 1
    assert payload["failure"] == {
        "stage": "outer split", "detail": "closure has 2 components",
    }


def test_search_triples_cli(capsys):
    code, payload, _ = run_json(
        capsys, "search-triples", "unknot", "unknot", "unknot",
        "--max-letters", "2", "--limit", "2",
    )
    assert code == 0
    assert payload["found"] is True and payload["count"] == 2

    code, out, _ = run(
        capsys, "search-triples", "unknot", "unknot", "3_1", "--max-letters", "2"
    )
    assert code == 1
    assert "no witnesses" in out and "letters <= 2" in out


def test_gon_merge_cli(capsys):
    code, out, _ = run(capsys, "gon-merge", "4", "4", "--knot")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "gon-merge", "4", "4")
    assert code == 0 and out.strip() == "8"


def test_plan_triple_cli(capsys):
    code, payload, _ = run_json(capsys, "plan-triple", "3_1", "3_1", "4_1")
    assert code == 0
    assert payload["plan"]["final_gon"] == 6


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "invariants", "1 x")[0] == 2
    assert run(capsys, "dm-bounds", "3_1", "3_1", "9_99")[0] == 2
    assert run(capsys, "plumbing", "boundary", "S[3]")[0] == 2
    assert run(capsys, "gon-merge", "3", "--knot")[0] == 2
    assert run(capsys, "gon-merge", "0", "0", "--knot")[0] == 2
    assert run(capsys, "gon-merge", "4", "-2")[0] == 2
    for limit in ("0", "-1"):
        code, out, err = run(
            capsys, "search-triples", "unknot", "unknot", "3_1", "--limit", limit
        )
        assert (code, out) == (2, "") and "limit" in err
    for args in (
        ("search-triples", "unknot", "unknot", "3_1", "--max-shuffles", "-1"),
        ("search-triples", "unknot", "unknot", "3_1", "--max-letters", "-1"),
        ("plumbing", "search", "S[0,2]", "unknot", "--max-states", "-5"),
    ):
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "") and "budget" in err
    assert run(capsys, "verify-triple", "1 2", "--at", "1", "--expect", "a,b")[0] == 2
    code, _, err = run(capsys, "invariants", "1 1 1", "--bogus")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_a_letter_too_large_for_a_strand_count_is_a_usage_error(capsys):
    # 2^63 and above fail before anything is allocated for the strands
    for letter in (str(2**63), "99999999999999999999"):
        for args in (
            ("invariants", letter),
            ("unknot-set", letter),
            ("verify-triple", f"1 {letter}", "--at", "1", "--expect", "unknot,unknot,unknot"),
        ):
            code, out, err = run(capsys, *args)
            assert (code, out) == (2, "") and err.startswith("error: "), args
            assert err.count("\n") == 1, args


def test_too_many_strands_to_hold_is_a_usage_error(capsys):
    # the strand list is refused at once, before anything is allocated:
    # 10^15 entries pass the address space, and 2^62 overflow its byte size
    for strands in (str(10**15), str(2**62)):
        for args in (
            ("invariants", "1 1 1"),
            ("unknot-set", "1 1 1"),
            ("verify-triple", "1 2", "--at", "1", "--expect", "unknot,unknot,unknot"),
        ):
            code, out, err = run(capsys, *args, "--strands", strands)
            assert (code, out) == (2, ""), args
            assert err == "error: input too large to hold in memory\n", args


def test_error_messages_name_the_problem(capsys):
    _, _, err = run(capsys, "dm-bounds", "3_1", "3_1", "9_99")
    assert "9_99" in err
    _, _, err = run(capsys, "concat", "1", "1", "--shuffle", "21")
    assert "shuffle" in err.lower()
    # a 1-strand summand has no strand to share
    for words in (("1 1 1", ""), ("", "1 1 1")):
        code, _, err = run(capsys, "concat", *words)
        assert code == 2 and "1 strand" in err
    # a braid's letters are checked zero first, then range, then strand count
    for args, message in [
        (("1 0 1",), "braid letter 0 is not allowed"),
        (("5 0", "--strands", "2"), "braid letter 0 is not allowed"),
        (("3", "--strands", "2"), "letter 3 exceeds the declared strand count 2"),
        (("1", "--strands", "0"), "letter 1 exceeds the declared strand count 0"),
        (("", "--strands", "0"), "strand count must be at least 1"),
        (("x 0",), "bad braid letter 'x'"),
    ]:
        assert run(capsys, "invariants", *args) == (2, "", f"error: {message}\n")


def test_invariants_refuses_strands_for_a_plumbing_word(capsys):
    # a plumbing word has no strands; the flag used to be ignored silently
    for word in ("S[2,2]", "S[]"):
        for fmt in ("human", "structured"):
            assert run(capsys, "invariants", word, "--strands", "5", "--format", fmt) == (
                2, "", "error: --strands applies to braid words only\n"
            )


def test_data_file_override(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("pair 3_1 5_1 d_bt 1 tighter\n")
    code, payload, _ = run_json(
        capsys, "dm-bounds", "3_1", "3_1", "5_1", "--data", str(data)
    )
    assert code == 0
    assert payload["upper"] == 6
    bad = tmp_path / "bad.txt"
    bad.write_text("knot 3_1 7 -\n")
    assert run(capsys, "dm-bounds", "3_1", "3_1", "5_1", "--data", str(bad))[0] == 2


def test_data_file_refuses_a_nakanishi_index_above_u(tmp_path, capsys):
    # e <= u always; such a record used to reach the bounds and cross them
    data = tmp_path / "d.txt"
    data.write_text("knot 3_1#3_1 2 10\nknot 5_1 2 0\n")
    code, out, err = run(capsys, "dm-bounds", "3_1", "3_1", "5_1", "--data", str(data))
    assert (code, out) == (2, "")
    assert err == "error: line 1: Nakanishi index 10 > u = 2\n"


def test_concat_refuses_a_non_digit_shuffle(capsys):
    code, out, err = run(capsys, "concat", "1 1", "1", "--shuffle", "1x0")
    assert (code, out) == (2, "")
    assert err == "error: shuffle must be a 0/1 string, got '1x0'\n"


def _help_paths(commands=COMMANDS, prefix=()):
    # every parser the command table builds, groups included
    for name, (handler, _, _) in commands.items():
        yield (*prefix, name)
        if isinstance(handler, dict):
            yield from _help_paths(handler, (*prefix, name))


@pytest.mark.parametrize("path", [(), *_help_paths()],
                         ids=lambda path: "-".join(("knotsum", *path)))
def test_help_exits_zero(capsys, path):
    code, out, _ = run(capsys, *path, "--help")
    assert code == 0
    assert out.startswith(f"usage: {' '.join(('knotsum', *path))} [-h]")
