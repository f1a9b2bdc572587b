import math

import pytest

from knotsum import surgery
from knotsum.braid import BraidWord
from knotsum.profiles import is_unknot_consistent, profile_of_braid
from knotsum.surgery import (
    CERT_CONSISTENT,
    CERT_DESCENDING,
    CERT_INCONSISTENT,
    SIDE_NEGATIVE,
    SIDE_POSITIVE,
    TripleBudget,
    TripleFailure,
    TripleWitness,
    TwistAnnulus,
    apply_crossing_changes,
    search_triples,
    unknot_certificate,
    unknotting_crossing_set,
    verify_triple,
)

from corpus import random_knot_words


def test_twist_annulus_validation():
    a = TwistAnnulus(full_twists=1, side=SIDE_POSITIVE)
    assert a.gon_contribution == 4
    assert a.serialize()["side"] == SIDE_POSITIVE
    with pytest.raises(ValueError):
        TwistAnnulus(full_twists=0, side=SIDE_POSITIVE)
    with pytest.raises(ValueError):
        TwistAnnulus(full_twists=1, side="sideways")


def test_walk_set_examples():
    assert unknotting_crossing_set(BraidWord(2, (1, 1, 1))) == frozenset({1})
    assert unknotting_crossing_set(BraidWord(2, (1,))) == frozenset()
    assert unknotting_crossing_set(BraidWord(3, (1, -2, 1, -2))) == frozenset({1})


def test_walk_set_rejects_bad_input():
    with pytest.raises(ValueError):
        unknotting_crossing_set(BraidWord(2, (1, 1)))  # 2-component closure
    with pytest.raises(ValueError):
        unknotting_crossing_set(BraidWord(2, (1,)), basepoint=3)


def test_flipping_the_walk_set_unknots():
    for word in random_knot_words(140, 50):
        positions = unknotting_crossing_set(word)
        flipped = apply_crossing_changes(word, positions).word
        assert is_unknot_consistent(profile_of_braid(flipped)), word


def test_walk_set_size_is_at_most_half_the_letters():
    for word in random_knot_words(141, 50):
        positions = unknotting_crossing_set(word)
        assert len(positions) <= math.ceil(len(word.letters) / 2), word


def test_every_basepoint_gives_an_unknotting_set():
    word = BraidWord(3, (1, 1, 1, -2, 1, -2))
    for basepoint in range(1, word.strands + 1):
        positions = unknotting_crossing_set(word, basepoint=basepoint)
        flipped = apply_crossing_changes(word, positions).word
        assert is_unknot_consistent(profile_of_braid(flipped))


def test_apply_crossing_changes():
    word = BraidWord(2, (1, -1, 1))
    result = apply_crossing_changes(word, [0, 1])
    assert result.word.letters == (-1, 1, 1)
    sides = [r.side for r in result.records]
    assert sides == [SIDE_NEGATIVE, SIDE_POSITIVE]
    twists = [r.full_twists for r in result.records]
    assert twists == [-1, 1]
    # flipping again restores the word
    assert apply_crossing_changes(result.word, [0, 1]).word == word
    with pytest.raises(IndexError):
        apply_crossing_changes(word, [7])


def test_certificates():
    assert unknot_certificate(BraidWord(2, (1, 1, 1)), from_walk=True) == CERT_DESCENDING
    assert unknot_certificate(BraidWord(2, (1,))) == CERT_CONSISTENT
    assert unknot_certificate(BraidWord(2, (1, 1, 1))) == CERT_INCONSISTENT


def test_verify_triple_success():
    result = verify_triple(BraidWord(3, (1, 2)), 1, ("unknot", "unknot", "unknot"))
    assert isinstance(result, TripleWitness)
    assert result.gon_size == 4
    assert result.names == ("unknot", "unknot", "unknot")
    assert not result.degenerate
    assert result.outer_word == BraidWord(2, (1,))
    assert result.inner_word == BraidWord(2, (1,))
    d = result.serialize()
    assert d["gon"] == 4 and d["k"] == 1


def test_verify_triple_named_composite():
    # trefoil summand stacked with a trivial strand-2 braid
    word = BraidWord(3, (1, 1, 1, 2))
    result = verify_triple(word, 1, ("unknot", "3_1", "3_1"))
    assert isinstance(result, TripleWitness)
    assert result.gon_size == 2 * (3 + 1)


def test_verify_triple_failures():
    bad_names = verify_triple(BraidWord(3, (1, 2)), 1, ("unknot", "unknot", "9_99"))
    assert isinstance(bad_names, TripleFailure) and bad_names.stage == "names"

    two_components = verify_triple(BraidWord(3, (1, 1, 2, 2)), 1, ("unknot",) * 3)
    assert isinstance(two_components, TripleFailure)
    assert two_components.stage in ("outer split", "inner split")
    assert "2 components" in two_components.detail

    wrong_knot = verify_triple(BraidWord(3, (1, 2)), 1, ("unknot", "3_1", "unknot"))
    assert isinstance(wrong_knot, TripleFailure) and wrong_knot.stage == "inner split"

    bad_split = verify_triple(BraidWord(2, (1,)), 1, ("unknot",) * 3)
    assert isinstance(bad_split, TripleFailure) and bad_split.stage == "split"

    composite_off = verify_triple(
        BraidWord(3, (1, 1, 1, 2)), 1, ("unknot", "3_1", "5_2")
    )
    assert isinstance(composite_off, TripleFailure) and composite_off.stage == "composite"

    assert "stage" in bad_names.serialize()


def test_verify_triple_degenerate_word():
    result = verify_triple(BraidWord(1, ()), 0, ("unknot", "unknot", "unknot"))
    assert isinstance(result, TripleWitness)
    assert result.degenerate
    assert result.gon_size == 0
    rejected = verify_triple(BraidWord(1, ()), 0, ("unknot", "unknot", "3_1"))
    assert isinstance(rejected, TripleFailure) and rejected.stage == "degenerate"


def test_search_triples_trivial_target():
    witnesses = search_triples(
        ("unknot", "unknot", "unknot"),
        TripleBudget(max_total_letters=2, max_strands=3, max_shuffles=8),
    )
    assert witnesses
    words = {w.composite.word.letters for w in witnesses}
    assert (-2, -1) in words or (-1, -2) in words
    for w in witnesses:
        assert w.gon_size == 4
        check = verify_triple(w.composite.word, w.composite.split_index, w.names)
        assert isinstance(check, TripleWitness)


def test_search_triples_is_deterministic_and_ordered():
    budget = TripleBudget(max_total_letters=2, max_strands=3, max_shuffles=8)
    first = search_triples(("unknot", "unknot", "unknot"), budget)
    second = search_triples(("unknot", "unknot", "unknot"), budget)
    assert [w.composite.word for w in first] == [w.composite.word for w in second]
    keys = [
        (len(w.composite.word.letters), w.composite.word.letters, w.composite.split_index)
        for w in first
    ]
    assert keys == sorted(keys)


def test_search_triples_limit_and_misses():
    budget = TripleBudget(max_total_letters=2, max_strands=3, max_shuffles=8)
    limited = search_triples(("unknot", "unknot", "unknot"), budget, limit=2)
    assert len(limited) == 2
    # too tight a budget: empty result, no error
    assert search_triples(
        ("unknot", "unknot", "3_1"),
        TripleBudget(max_total_letters=2, max_strands=3, max_shuffles=4),
    ) == []
    with pytest.raises(KeyError):
        search_triples(("unknot", "unknot", "9_99"))
    for limit in (0, -1):
        with pytest.raises(ValueError, match="limit"):
            search_triples(("unknot", "unknot", "unknot"), budget, limit=limit)


def test_search_triples_builds_each_pool_once(monkeypatch):
    calls = []
    build = surgery._pool_matching

    def counting(name, strands, max_letters):
        calls.append((name, strands))
        return build(name, strands, max_letters)

    monkeypatch.setattr(surgery, "_pool_matching", counting)
    budget = TripleBudget(max_total_letters=2, max_strands=4, max_shuffles=8)
    assert search_triples(("unknot", "unknot", "unknot"), budget)
    assert sorted(calls) == [("unknot", 2), ("unknot", 3)]


def test_search_triples_finds_trefoil_composites():
    witnesses = search_triples(("unknot", "unknot", "3_1"))
    assert witnesses
    sample = witnesses[0]
    assert sample.names == ("unknot", "unknot", "3_1")
    check = verify_triple(
        sample.composite.word, sample.composite.split_index, sample.names
    )
    assert isinstance(check, TripleWitness)
