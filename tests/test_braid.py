import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotsum.braid import (
    BraidSyntaxError,
    BraidWord,
    ShuffleError,
    SplitIndexError,
    closure_data,
    cyclic_reduction,
    default_shuffle,
    format_braid,
    murasugi_concat,
    parse_braid,
    restrict,
    shifted,
    split_braid,
)

from corpus import random_braid_words


def test_word_validation():
    for strands, letters, message in [
        (0, (), "strand count must be at least 1"),
        (2, (0,), "braid letter 0 is not allowed"),
        (2, (2,), "letter 2 exceeds the declared strand count 2"),
        # any zero first, then the range, then the strand count
        (2, (5, 0), "braid letter 0 is not allowed"),
        (0, (1,), "letter 1 exceeds the declared strand count 0"),
    ]:
        with pytest.raises(BraidSyntaxError) as err:
            BraidWord(strands, letters)
        assert str(err.value) == message
    assert BraidWord(1, ()).strands == 1
    assert len(BraidWord(3, (1, -2))) == 2


def test_writhe_and_index_count():
    w = BraidWord(3, (1, -2, 1, -2))
    assert w.writhe == 0
    assert w.index_count(1) == 2
    assert w.index_count(2) == 2
    assert w.index_count(3) == 0


def test_parse_and_format():
    w = parse_braid("1 -2 1 -2")
    assert w == BraidWord(3, (1, -2, 1, -2))
    assert format_braid(w) == "1 -2 1 -2"
    assert parse_braid(format_braid(w), w.strands) == w
    assert parse_braid("") == BraidWord(1, ())
    assert parse_braid("", 4).strands == 4
    assert parse_braid("1", 5).strands == 5
    assert str(BraidWord(3, (1, -2))) == "1 -2"
    with pytest.raises(BraidSyntaxError):
        parse_braid("1 x")
    with pytest.raises(BraidSyntaxError):
        parse_braid("3", 2)


def test_closure_data_examples():
    data = closure_data(BraidWord(2, (1, 1, 1)))
    assert data.components == 1
    assert data.permutation == (2, 1)
    assert data.cycles() == ((1, 2),)

    trivial = closure_data(BraidWord(3, ()))
    assert trivial.components == 3
    assert trivial.cycles() == ((1,), (2,), (3,))

    assert closure_data(BraidWord(3, (1, 2))).components == 1
    assert closure_data(BraidWord(2, (1, 1))).components == 2


def test_permutation_tracks_strand_images():
    # sigma_1 sends top position 1 to bottom position 2 and vice versa
    assert closure_data(BraidWord(2, (1,))).permutation == (2, 1)
    # top 1 crosses both letters and lands at bottom 3
    assert closure_data(BraidWord(3, (1, 2))).permutation == (3, 1, 2)


def test_cyclic_reduction():
    # adjacent inverse pairs go until none remain
    assert cyclic_reduction((1, -1)) == ()
    assert cyclic_reduction((1, 2, -2, -1)) == ()
    assert cyclic_reduction((1, -2, 2, 1)) == (1, 1)
    w = BraidWord(3, (1, 2, 1))
    assert BraidWord(w.strands, cyclic_reduction(w.letters)) == w
    # then x ... x^-1 pairs come off the two ends, down to one letter
    assert cyclic_reduction((2, 1, 1, -2)) == (1, 1)
    assert cyclic_reduction((-1, 2, -2, 2, 1, 2, 1)) == (2, 1, 2)
    assert cyclic_reduction((2, 1, -2)) == (1,)


def test_concat_basic():
    w1 = BraidWord(2, (1,))
    w2 = BraidWord(2, (1,))
    comp = murasugi_concat(w1, w2)
    assert comp.word == BraidWord(3, (1, 2))
    assert comp.split_index == 1
    assert comp.gon_size == 4


def test_concat_shuffle_patterns():
    w1 = BraidWord(2, (1, 1))
    w2 = BraidWord(2, (-1,))
    comp = murasugi_concat(w1, w2, (1, 0, 0))
    assert comp.word.letters == (-2, 1, 1)
    with pytest.raises(ShuffleError):
        murasugi_concat(w1, w2, (1, 1, 0))
    with pytest.raises(ShuffleError):
        murasugi_concat(w1, w2, (1, 0))
    with pytest.raises(ShuffleError):
        murasugi_concat(w1, w2, (2, 0, 0))


def test_every_accepted_concat_splits_back_at_its_split_index():
    # a 1-strand summand shares no strand, so its composite has no split
    words = [BraidWord(1, ()), BraidWord(2, ()), BraidWord(2, (1, 1, 1)),
             BraidWord(3, ()), BraidWord(3, (1, -2))]
    for w1, w2 in itertools.product(words, repeat=2):
        try:
            comp = murasugi_concat(w1, w2)
        except ValueError:
            assert 1 in (w1.strands, w2.strands), (w1, w2)
            continue
        assert split_braid(comp.word, comp.split_index) == (w2, w1)


def test_gon_size_counts_shared_circle_letters():
    # only letters on the shared strand's two indices contribute
    w1 = BraidWord(3, (1, 2, 2))
    w2 = BraidWord(2, (1,))
    comp = murasugi_concat(w1, w2)
    # k = 2: two index-2 letters from w1, one index-3 letter from shifted w2
    assert comp.word.letters == (1, 2, 2, 3)
    assert comp.gon_size == 2 * (2 + 1)


def test_split_examples():
    outer, inner = split_braid(BraidWord(3, (1, 2)), 1)
    assert outer == BraidWord(2, (1,))
    assert inner == BraidWord(2, (1,))
    with pytest.raises(SplitIndexError):
        split_braid(BraidWord(2, (1,)), 1)
    with pytest.raises(SplitIndexError):
        split_braid(BraidWord(3, (1,)), 0)


@pytest.mark.parametrize("strands", [1, 2])
def test_split_needs_three_strands(strands):
    message = (
        f"a word on {strands} strands has no split position; "
        "splitting needs at least 3 strands"
    )
    for k in (-3, 0, 1):
        with pytest.raises(SplitIndexError) as excinfo:
            split_braid(BraidWord(strands, ()), k)
        assert str(excinfo.value) == message


def test_split_keeps_letter_order_and_signs():
    word = BraidWord(4, (1, -3, 1, 3, -2))
    outer, inner = split_braid(word, 2)
    assert inner == BraidWord(3, (1, 1, -2))
    assert outer == BraidWord(2, (-1, 1))


def test_restrict_and_shifted_cases():
    word = BraidWord(6, (1, -3, 5, 2, -2, -4, 3))
    for (lo, hi), expected in [
        ((0, 6), word),  # the whole range is the word itself
        ((0, 1), BraidWord(1, ())),  # no generator strictly inside
        ((2, 3), BraidWord(1, ())),
        # signs kept; letters on the bounding generators lo and hi dropped
        ((1, 4), BraidWord(3, (-2, 1, -1, 2))),
        ((2, 6), BraidWord(4, (-1, 3, -2, 1))),
        ((0, 3), BraidWord(3, (1, 2, -2))),
    ]:
        assert restrict(word, lo, hi) == expected, (lo, hi)
    assert restrict(BraidWord(5, (1, 4, -1)), 1, 4) == BraidWord(3, ())
    assert shifted((1, -2, 3), 2) == (3, -4, 5)
    assert shifted((), 5) == ()
    for w in random_braid_words(30, 20):
        # restricting a shifted word back to its range gives the word
        assert restrict(BraidWord(w.strands + 3, shifted(w.letters, 3)), 3, w.strands + 3) == w


def test_default_shuffle():
    assert default_shuffle(2, 3) == (0, 0, 1, 1, 1)
    assert default_shuffle(0, 0) == ()


def _random_shuffle(rng, n1, n2):
    bits = [0] * n1 + [1] * n2
    rng.shuffle(bits)
    return tuple(bits)


def test_round_trip_seeded_corpus():
    rng = random.Random(424242)
    pool = random_braid_words(99, 60, max_strands=4, max_letters=6)
    for w1, w2 in zip(pool[::2], pool[1::2]):
        shuffle = _random_shuffle(rng, len(w1.letters), len(w2.letters))
        comp = murasugi_concat(w1, w2, shuffle)
        outer, inner = split_braid(comp.word, comp.split_index)
        assert inner == w1
        assert outer == w2


small_words = st.integers(2, 4).flatmap(
    lambda s: st.tuples(
        st.just(s),
        st.lists(
            st.integers(1, s - 1).flatmap(
                lambda i: st.sampled_from([i, -i])
            ),
            max_size=6,
        ),
    )
).map(lambda t: BraidWord(t[0], tuple(t[1])))


@given(small_words, small_words, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_concat_split_round_trip(w1, w2, rng):
    shuffle = _random_shuffle(rng, len(w1.letters), len(w2.letters))
    comp = murasugi_concat(w1, w2, shuffle)
    assert comp.word.strands == w1.strands + w2.strands - 1
    outer, inner = split_braid(comp.word, comp.split_index)
    assert (outer, inner) == (w2, w1)
    k = comp.split_index
    assert comp.gon_size == 2 * (
        comp.word.index_count(k) + comp.word.index_count(k + 1)
    )


@given(small_words)
@settings(max_examples=60)
def test_cyclic_reduction_preserves_closure_components(w):
    reduced = BraidWord(w.strands, cyclic_reduction(w.letters))
    assert closure_data(reduced).components == closure_data(w).components
