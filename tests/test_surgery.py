import itertools
import math
import random
from collections import Counter
from dataclasses import fields

import pytest

from knotsum import profiles, seifert, surgery
from knotsum.braid import (
    BraidWord,
    closure_data,
    cyclic_conjugates,
    cyclic_reduction,
    murasugi_concat,
    split_braid,
)
from knotsum.profiles import UNKNOT_PROFILE_KEY, canonical_genus_bound, profile_of_braid
from knotsum.table import load_table, match_profile
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

from corpus import random_braid_words, random_knot_words


def test_twist_annulus_validation():
    a = TwistAnnulus(full_twists=1)
    assert a.gon_contribution == 4
    assert a.serialize()["side"] == SIDE_POSITIVE
    # the side is the sign of the twist
    for twists, side in ((1, SIDE_POSITIVE), (2, SIDE_POSITIVE),
                         (-1, SIDE_NEGATIVE), (-2, SIDE_NEGATIVE)):
        assert TwistAnnulus(full_twists=twists).side == side
    with pytest.raises(ValueError):
        TwistAnnulus(full_twists=0)


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
        assert profile_of_braid(flipped).fingerprint() == UNKNOT_PROFILE_KEY, word


def test_walk_set_size_is_at_most_half_the_letters():
    for word in random_knot_words(141, 50):
        positions = unknotting_crossing_set(word)
        assert len(positions) <= math.ceil(len(word.letters) / 2), word


def test_every_basepoint_gives_an_unknotting_set():
    # the flipped word is certified from the basepoint whose walk chose the flips
    words = [BraidWord(3, (1, 1, 1, -2, 1, -2))] + [e.word for e in load_table().values()]
    for word in words + random_knot_words(143, 200):
        for basepoint in range(1, word.strands + 1):
            positions = unknotting_crossing_set(word, basepoint=basepoint)
            flipped = apply_crossing_changes(word, positions).word
            assert profile_of_braid(flipped).fingerprint() == UNKNOT_PROFILE_KEY
            assert unknot_certificate(flipped, basepoint) == CERT_DESCENDING, (word, basepoint)


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
    assert unknot_certificate(BraidWord(2, (1,)), basepoint=1) == CERT_DESCENDING
    # a word is certified only when its invariants agree
    assert unknot_certificate(BraidWord(2, (1, 1, 1)), basepoint=1) == CERT_INCONSISTENT
    assert unknot_certificate(BraidWord(2, (1,))) == CERT_CONSISTENT
    assert unknot_certificate(BraidWord(2, (1, 1, 1))) == CERT_INCONSISTENT
    # an unknot whose walk from strand 1 meets letters 2 and 3 first from
    # below: the diagram is not monotone, so the invariants alone speak
    word = BraidWord(3, (1, 2, -1, 2))
    assert unknotting_crossing_set(word, basepoint=1) == frozenset({2, 3})
    assert unknot_certificate(word, basepoint=1) == CERT_CONSISTENT


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


def test_degenerate_and_gon_contribution_are_class_constants():
    assert "degenerate" not in {field.name for field in fields(TripleWitness)}
    assert "gon_contribution" not in {field.name for field in fields(TwistAnnulus)}
    witness = verify_triple(BraidWord(3, (1, 2)), 1, ("unknot",) * 3)
    with pytest.raises(TypeError):
        TripleWitness(
            witness.composite, witness.outer_word, witness.inner_word,
            witness.names, witness.profiles, degenerate=False,
        )
    assert witness.serialize()["degenerate"] is False
    assert TwistAnnulus(full_twists=-1).serialize()["gon_contribution"] == 4


def test_verify_triple_needs_exactly_three_names():
    # with two names the composite went unchecked, and with four, zip
    # dropped the fourth from the check but not from the witness
    word = BraidWord(3, (1, 1, 1, 2))
    for names in (("unknot", "3_1"), ("unknot", "3_1", "3_1", "5_2")):
        assert verify_triple(word, 1, names) == TripleFailure(
            "names", f"expected 3 knot names, got {len(names)}"
        )
    assert isinstance(verify_triple(word, 1, ("unknot", "3_1", "3_1")), TripleWitness)


def test_verify_triple_degenerate_word():
    # an empty word that splits is on at least 3 strands, so its closure
    # and both splits are unlinks: it witnesses no triple of knots
    for strands in (3, 4, 5):
        for k in range(1, strands - 1):
            result = verify_triple(BraidWord(strands, ()), k, ("unknot",) * 3)
            assert result == TripleFailure(
                "outer split", f"closure has {strands - k} components"
            )
    # the split index is checked first
    for word, k in ((BraidWord(3, ()), -3), (BraidWord(1, ()), 0)):
        bad_split = verify_triple(word, k, ("unknot", "unknot", "unknot"))
        assert isinstance(bad_split, TripleFailure) and bad_split.stage == "split"


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
    for field in ("max_total_letters", "max_strands", "max_shuffles"):
        with pytest.raises(ValueError, match=field):
            TripleBudget(**{field: -1})


def test_search_triples_builds_each_pool_once(monkeypatch):
    calls = []
    build = surgery._pool

    def counting(name, strands, length, memo):
        calls.append((name, strands, length))
        return build(name, strands, length, memo)

    monkeypatch.setattr(surgery, "_pool", counting)
    budget = TripleBudget(max_total_letters=2, max_strands=4, max_shuffles=8)
    assert search_triples(("unknot", "unknot", "unknot"), budget)
    assert len(calls) == len(set(calls))
    # 2 letters fill no composite on more than 3 strands: no 3-strand part
    assert sorted({(name, strands) for name, strands, _ in calls}) == [("unknot", 2)]


def test_search_triples_takes_its_strand_range_from_its_letters(monkeypatch):
    # a knot word on s strands has s - 1 letters or more, so 3 letters fill no
    # composite past 4 strands and no part past 3, however many strands are allowed
    calls = []
    build = surgery._pool

    def counting(name, strands, length, memo):
        calls.append(strands)
        return build(name, strands, length, memo)

    monkeypatch.setattr(surgery, "_pool", counting)
    target = ("unknot", "unknot", "unknot")
    wide = search_triples(target, TripleBudget(max_total_letters=3, max_strands=40))
    assert calls and max(calls) == 3
    narrow = search_triples(target, TripleBudget(max_total_letters=3, max_strands=4))
    assert wide and wide == narrow


def test_pool_rejects_on_signature(monkeypatch):
    # 5-letter knot words on 2 strands close to 5_1 (determinant 5, as 4_1's),
    # 3_1 or the unknot; the 5_1 class fails only on |signature|
    pencils = []
    pencil = seifert.pencil_determinant
    monkeypatch.setattr(seifert, "pencil_determinant", lambda v: pencils.append(v) or pencil(v))
    memo = surgery.ClassMemo()
    assert surgery._pool("4_1", 2, 5, memo) == []
    records = set(memo._words.values())
    forms = [vars(record.matrix) for record in records if "matrix" in vars(record)]
    assert any(abs(form["_symmetric_form"][1]) == 5 for form in forms)
    # every miss came before the Alexander polynomial: no pencil was evaluated
    assert pencils == []
    pool = surgery._pool("5_1", 2, 5, memo)
    assert [word for word, _ in pool] == [BraidWord(2, (-1,) * 5), BraidWord(2, (1,) * 5)]
    # each word comes with the class record it matched
    assert all(record is memo.of(word.strands, word.letters) for word, record in pool)


def conjugacy_key(strands, letters):
    """(strands, least rotation or flip of the cyclic reduction): one key per
    conjugacy-class orbit, the word ClassMemo keeps for it."""
    return strands, min(cyclic_conjugates(strands, cyclic_reduction(letters)))


def test_search_triples_profiles_each_word_once(monkeypatch):
    # once per conjugacy class, in fact: the Seifert matrix is the whole
    # exact cost, and each class builds it for its representative alone
    seen = Counter()
    matrix = profiles.seifert_matrix_of_braid

    def counting(word):
        assert conjugacy_key(word.strands, word.letters) == (word.strands, word.letters)
        seen[word] += 1
        return matrix(word)

    monkeypatch.setattr(profiles, "seifert_matrix_of_braid", counting)
    # the (3_1, 2) and (unknot, 2) pools draw on the same candidate words
    assert search_triples(("unknot", "3_1", "3_1"), TripleBudget(max_total_letters=4))
    assert seen
    assert max(seen.values()) == 1


def test_search_witnesses_equal_verify_triple():
    # the search builds each witness from its own checks; a fresh
    # verify_triple of the same word gives the same words, split and profiles
    witnesses = [
        w
        for target in (
            ("unknot", "unknot", "3_1"),
            ("unknot", "3_1", "3_1"),
            ("unknot", "unknot", "4_1"),
            ("3_1", "3_1", "5_1"),
        )
        for w in search_triples(target)
    ]
    assert len(witnesses) == 376
    for w in witnesses:
        assert verify_triple(w.composite.word, w.composite.split_index, w.names) == w


@pytest.mark.parametrize(
    "target, count, first, last",
    [
        (("unknot", "unknot", "3_1"), 24, (-2, -2, -1, -1, 2, 1), (2, 2, 1, 1, -2, -1)),
        (("unknot", "3_1", "3_1"), 304, (-2, -1, -1, -1), (2, 2, 1, 1, 1, -2)),
        (("unknot", "unknot", "4_1"), 24, (-2, -2, -1, 2, 1, 1), (2, 2, 1, -2, -1, -1)),
        (("3_1", "3_1", "5_1"), 24, (-2, -2, -1, -2, -1, -1), (2, 2, 1, 2, 1, 1)),
    ],
)
def test_search_triples_pinned_witnesses(target, count, first, last):
    witnesses = search_triples(target)
    assert len(witnesses) == count
    ends = [witnesses[0].composite, witnesses[-1].composite]
    assert [(c.word.strands, c.word.letters, c.split_index) for c in ends] == [
        (3, first, 1),
        (3, last, 1),
    ]


def test_search_triples_finds_trefoil_composites():
    witnesses = search_triples(("unknot", "unknot", "3_1"))
    assert witnesses
    sample = witnesses[0]
    assert sample.names == ("unknot", "unknot", "3_1")
    check = verify_triple(
        sample.composite.word, sample.composite.split_index, sample.names
    )
    assert isinstance(check, TripleWitness)


def _variants(word: BraidWord, rng: random.Random) -> list[BraidWord]:
    """Conjugates of the word: rotations, inserted cancelling pairs,
    conjugation by each letter, and the half-twist flip."""
    n, letters = word.strands, word.letters
    alphabet = [s * i for i in range(1, n) for s in (-1, 1)]
    out = [BraidWord(n, letters[i:] + letters[:i]) for i in range(1, len(letters))]
    for _ in range(3):
        i, v = rng.randint(0, len(letters)), rng.choice(alphabet)
        out.append(BraidWord(n, letters[:i] + (v, -v) + letters[i:]))
    out += [BraidWord(n, (v,) + letters + (-v,)) for v in alphabet]
    out.append(BraidWord(n, tuple(n - v if v > 0 else -n - v for v in letters)))
    return out


def test_class_memo_is_exact_on_conjugates():
    rng = random.Random(7)
    genus_moved = 0
    for word in random_knot_words(142, 30, max_strands=6, max_letters=16):
        expected = profile_of_braid(word)
        memo = surgery.ClassMemo()
        key = conjugacy_key(word.strands, word.letters)
        for variant in [word] + _variants(word, rng):
            assert conjugacy_key(variant.strands, variant.letters) == key, variant
            profile = profile_of_braid(variant)
            assert profile.link_key() == expected.link_key(), variant
            # one class entry serves every variant; the genus bound is the word's own
            assert memo.of(variant.strands, variant.letters).profile(variant) == profile
            assert profile.canonical_genus_bound == canonical_genus_bound(variant, 1)
            genus_moved += profile.canonical_genus_bound != expected.canonical_genus_bound
    assert genus_moved


def test_class_memo_looks_words_up_by_strands_and_cyclic_reduction():
    # knot and link words on 2-8 strands; every variant's cyclic reduction is
    # a rotation of the word's, or of its flip, so one memo hands back one record
    rng = random.Random(25)
    words = random_knot_words(251, 25, max_strands=8, max_letters=24)
    words += random_braid_words(252, 25, max_strands=8, max_letters=24)
    assert {closure_data(w).components == 1 for w in words} == {True, False}
    memo = surgery.ClassMemo()
    for word in words:
        key = conjugacy_key(word.strands, word.letters)
        record = memo.of(word.strands, word.letters)
        assert record.word == BraidWord(*key)
        for variant in [word] + _variants(word, rng):
            n, letters = variant.strands, variant.letters
            assert conjugacy_key(n, cyclic_reduction(letters)) == conjugacy_key(n, letters) == key
            assert memo.of(n, letters) is record, variant
    # the same letters close to the unknot on 3 strands, to a 2-component link on 4
    three, four = memo.of(3, (1, 2)), memo.of(4, (1, 2))
    assert (three.components, four.components) == (1, 2)
    assert memo.of(3, (2, 1)) is three and memo.of(4, (2, 1)) is four


def test_search_keys_each_class_once_and_asks_each_verdict_once(monkeypatch):
    looked_up, keyed, asked = Counter(), Counter(), Counter()
    of, orbit = surgery.ClassMemo.of, surgery.cyclic_conjugates
    matches = profiles.BraidInvariants.matches

    def counting_of(self, strands, letters):
        looked_up[strands, cyclic_reduction(letters)] += 1
        return of(self, strands, letters)

    def counting_orbit(strands, cyclic):
        keyed[strands, cyclic_reduction(cyclic)] += 1
        return orbit(strands, cyclic)

    def counting_matches(self, fingerprint):
        asked[self, fingerprint] += 1
        return matches(self, fingerprint)

    monkeypatch.setattr(surgery.ClassMemo, "of", counting_of)
    monkeypatch.setattr(surgery, "cyclic_conjugates", counting_orbit)
    monkeypatch.setattr(profiles.BraidInvariants, "matches", counting_matches)
    assert len(search_triples(("unknot", "unknot", "3_1"))) == 24
    # 1,346 lookups reduce to 134 cyclic words in 20 classes; each class's
    # orbit is built once, and each class is asked about one key once
    assert set(keyed) <= set(looked_up)
    assert max(keyed.values()) == max(asked.values()) == 1
    assert (sum(looked_up.values()), len(looked_up), len(keyed), len(asked)) == (1346, 134, 20, 20)


def test_knot_letters_are_exactly_the_knot_words():
    for strands in range(1, 5):
        alphabet = [s * i for i in range(1, strands) for s in (-1, 1)]
        for length in range(6):
            expected = {
                letters
                for letters in itertools.product(alphabet, repeat=length)
                if closure_data(BraidWord(strands, letters)).components == 1
            }
            produced = list(surgery._knot_letters(strands, length))
            assert len(produced) == len(set(produced))
            # one strand closes to the unknot but has no letters to search
            assert set(produced) == (expected if strands > 1 else set())


def _reference_search(target, budget):
    """search_triples with no memo and no pruning: every word is profiled."""

    pools = {}

    def pool(name, strands):
        if (name, strands) in pools:
            return pools[name, strands]
        alphabet = [s * i for i in range(1, strands) for s in (-1, 1)]
        words = []
        for length in range(budget.max_total_letters + 1):
            for letters in itertools.product(alphabet, repeat=length):
                w = BraidWord(strands, letters)
                profile = profile_of_braid(w)
                if profile.is_knot and name in match_profile(profile):
                    words.append(w)
        pools[name, strands] = words
        return words

    found = []
    for s1 in range(2, budget.max_strands + 1):
        for s2 in range(2, budget.max_strands + 2 - s1):
            for w1 in pool(target[1], s1):
                for w2 in pool(target[0], s2):
                    total = len(w1.letters) + len(w2.letters)
                    if total > budget.max_total_letters:
                        continue
                    patterns = itertools.islice(
                        itertools.combinations(range(total), len(w2.letters)),
                        budget.max_shuffles,
                    )
                    for positions in patterns:
                        shuffle = [int(p in positions) for p in range(total)]
                        composite = murasugi_concat(w1, w2, shuffle)
                        outer, inner = split_braid(composite.word, composite.split_index)
                        profiles = tuple(
                            profile_of_braid(w) for w in (outer, inner, composite.word)
                        )
                        if all(
                            p.is_knot and name in match_profile(p)
                            for p, name in zip(profiles, target)
                        ):
                            found.append(
                                TripleWitness(composite, outer, inner, target, profiles)
                            )
    found.sort(key=lambda w: (len(w.composite.word.letters), w.composite.word.letters,
                              w.composite.split_index))
    return found


@pytest.mark.parametrize(
    "target, budget",
    [
        (("unknot", "unknot", "unknot"), TripleBudget(4, 4, 8)),
        (("unknot", "3_1", "3_1"), TripleBudget(5, 3, 32)),
        (("unknot", "unknot", "3_1"), TripleBudget(6, 3, 5)),
        (("3_1", "unknot", "3_1"), TripleBudget(5, 4, 8)),
        (("unknot", "unknot", "4_1"), TripleBudget(6, 3, 32)),
    ],
)
def test_search_triples_matches_memo_free_reference(target, budget):
    expected = _reference_search(target, budget)
    assert expected
    assert search_triples(target, budget) == expected


def test_search_triples_limit_is_a_prefix(monkeypatch):
    target, budget = ("unknot", "3_1", "3_1"), TripleBudget()
    full = search_triples(target, budget)
    shortest = sum(len(w.composite.word.letters) == 4 for w in full)
    assert 0 < shortest < len(full)
    for n in (1, shortest, shortest + 1, len(full) - 1, len(full), len(full) + 1, 1000):
        assert search_triples(target, budget, limit=n) == full[:n]

    # a limit met by the shortest tier builds no pool for longer words
    lengths = []
    build = surgery._pool

    def counting(name, strands, length, memo):
        lengths.append(length)
        return build(name, strands, length, memo)

    monkeypatch.setattr(surgery, "_pool", counting)
    assert search_triples(target, budget, limit=shortest) == full[:shortest]
    assert max(lengths) == 4 < budget.max_total_letters
