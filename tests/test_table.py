from collections import Counter

import pytest

from corpus import random_knot_words
from knotsum import profiles, seifert
from knotsum import table as table_module
from knotsum.braid import BraidWord
from knotsum.profiles import UNKNOT_PROFILE_KEY, profile_of_braid
from knotsum.surgery import apply_crossing_changes
from knotsum.table import (
    TableError,
    _parse_row,
    _validate,
    load_table,
    lookup,
    match_profile,
    records,
)


def test_table_loads_and_validates():
    table = load_table()
    assert len(table) == 16


def _replaced(record, **changes):
    # a copy of a record with some fields changed
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


def _link_entry(t):
    # a two-component closure, with its own profile cached
    word = BraidWord(2, (1, 1))
    return _replaced(t["3_1"], word=word, profile=profile_of_braid(word))


@pytest.mark.parametrize("entries, refusal", [
    (lambda t: [t["3_1"], t["3_1"]], "duplicate name"),
    (lambda t: [_replaced(t["4_1"], profile=_replaced(
        t["4_1"].profile, canonical_genus_bound=2))], "cached profile disagrees"),
    (lambda t: [_link_entry(t)], "closure is not a knot"),
    (lambda t: [t["3_1"], _replaced(t["3_1"], name="3_1b")],
     "fingerprint collides with 3_1"),
    (lambda t: [_replaced(t["3_1"], unknotting_number=0)], "below signature bound"),
    (lambda t: [_replaced(t["4_1"], unknotting_number=0)],
     "u=0 but profile is nontrivial"),
    (lambda t: [_replaced(t["7_4"], unknotting_number=1)],
     "u=1 but no single letter flip"),
], ids=["duplicate", "profile", "link", "fingerprint", "signature", "u0", "u1"])
def test_validation_refuses_each_bad_entry(entries, refusal):
    table = load_table()
    assert _validate([table["unknot"], table["5_2"]])  # good entries pass
    with pytest.raises(TableError, match=refusal):
        _validate(entries(table))


def test_empty_table_file_is_refused(monkeypatch):
    monkeypatch.setattr(table_module, "shipped_text", lambda name: "# no rows\n")
    table_module._load.cache_clear()
    try:
        with pytest.raises(TableError, match="table file holds no entries"):
            load_table()
    finally:
        table_module._load.cache_clear()


def test_rows_parse_and_malformed_rows_name_their_line():
    row = "3_1 3 2 1,1,1 1 tabulated -2 3 1 -1:1,0:-1,1:1"
    ((lineno, parts),) = records(f"# header\n\n  {row}  \n")
    assert lineno == 3
    assert _parse_row(parts, lineno) == lookup("3_1")
    with pytest.raises(TableError, match="line 3: expected 10 fields, got 11"):
        _parse_row(parts + ["-"], 3)
    with pytest.raises(TableError, match="line 4: "):
        _parse_row(["3_1", "three"] + parts[2:], 4)


def test_validation_builds_each_seifert_matrix_once(monkeypatch):
    # the entry words and every flip of a u = 1 word; a flip with
    # determinant 1 goes on to its profile off the same matrix
    entries = list(load_table().values())  # loading validates once, uncounted
    build = seifert.seifert_matrix_of_braid
    seen = Counter()

    def counting(word):
        seen[word] += 1
        return build(word)

    # every module that binds the builder, so no route escapes the count
    for module in (seifert, profiles, table_module):
        if hasattr(module, "seifert_matrix_of_braid"):
            monkeypatch.setattr(module, "seifert_matrix_of_braid", counting)
    _validate(entries)
    assert {entry.word for entry in entries} < set(seen)
    assert max(seen.values()) == 1


def test_expected_names_present():
    names = set(load_table())
    for name in ("unknot", "3_1", "4_1", "5_1", "5_2", "6_1", "7_7", "9_1"):
        assert name in names


def test_lookup():
    entry = lookup("3_1")
    assert entry.crossings == 3
    assert entry.word == BraidWord(2, (1, 1, 1))
    assert entry.unknotting_number == 1
    assert entry.profile.signature == -2
    with pytest.raises(KeyError):
        lookup("9_99")


def test_stored_profiles_match_recomputation():
    for name in ("unknot", "4_1", "6_2", "7_5"):
        entry = lookup(name)
        assert profile_of_braid(entry.word) == entry.profile


def test_fingerprints_are_unique():
    table = load_table()
    keys = {entry.profile.fingerprint() for entry in table.values()}
    assert len(keys) == len(table)


def test_unknotting_number_respects_signature_bound():
    for entry in load_table().values():
        assert entry.unknotting_number >= abs(entry.profile.signature) // 2


def test_single_crossing_change_witnesses_for_u1_knots():
    # every u = 1 entry admits a one-flip unknotting somewhere in its word
    u1_names = []
    for entry in load_table().values():
        if entry.unknotting_number != 1:
            continue
        u1_names.append(entry.name)
        flips = (
            apply_crossing_changes(entry.word, [pos]).word
            for pos in range(len(entry.word.letters))
        )
        assert any(
            profile_of_braid(w).fingerprint() == UNKNOT_PROFILE_KEY for w in flips
        ), entry.name
    assert len(u1_names) == 9


def test_u2_words_have_no_single_flip_witness():
    for name in ("5_1", "7_4"):
        entry = lookup(name)
        for pos in range(len(entry.word.letters)):
            flipped = apply_crossing_changes(entry.word, [pos]).word
            assert profile_of_braid(flipped).fingerprint() != UNKNOT_PROFILE_KEY


def test_match_profile_is_chirality_blind():
    word = lookup("3_1").word
    p = profile_of_braid(BraidWord(word.strands, tuple(-v for v in word.letters)))  # mirror
    assert match_profile(p) == ["3_1"]
    assert match_profile(lookup("7_1").profile) == ["7_1"]
    assert match_profile(profile_of_braid(BraidWord(2, (1,)))) == ["unknot"]


def test_match_profile_misses_cleanly():
    # granny knot invariants match nothing in a prime table
    from knotsum.braid import murasugi_concat

    granny = murasugi_concat(BraidWord(2, (1, 1, 1)), BraidWord(2, (1, 1, 1)))
    assert match_profile(profile_of_braid(granny.word)) == []


def _scan(profile):
    # the linear scan that match_profile's index replaced, kept as reference
    det = profile.determinant
    sig = abs(profile.signature)
    alex = profile.alexander.normalized()
    alex_mirror = alex.mirror().normalized()
    return [
        entry.name for entry in load_table().values()
        if entry.profile.determinant == det
        and abs(entry.profile.signature) == sig
        and entry.profile.alexander in (alex, alex_mirror)
    ]


def test_match_profile_index_agrees_with_a_linear_scan():
    profiles = []
    for entry in load_table().values():
        p = entry.profile
        profiles.append(p)
        # the mirror's signature, and an Alexander polynomial off by a unit
        for unit in (p.alexander.shift(3), -p.alexander.shift(-2)):
            profiles.append(_replaced(p, alexander=unit, signature=-p.signature))
    table_hits = len(profiles)
    profiles += [profile_of_braid(w) for w in random_knot_words(4104, 300)]
    hits = 0
    for p in profiles:
        expected = _scan(p)
        assert match_profile(p) == expected, p
        hits += bool(expected)
    # every table variant is found, and the random words hit and miss
    assert table_hits < hits < len(profiles)
