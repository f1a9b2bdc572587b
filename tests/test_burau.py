import pytest

from knotsum.braid import BraidWord
from knotsum.burau import alexander_via_burau, reduced_burau, reduced_burau_letter
from knotsum.laurent import ONE, ZERO, LaurentPolynomial
from knotsum.seifert import alexander_of_braid

from corpus import random_braid_words, random_knot_words


def test_letter_matrix_two_strands():
    m = reduced_burau_letter(1, 1, 2)
    assert m == [[LaurentPolynomial.monomial(1, -1)]]
    minv = reduced_burau_letter(1, -1, 2)
    assert minv == [[LaurentPolynomial.monomial(-1, -1)]]
    with pytest.raises(ValueError):
        reduced_burau_letter(2, 1, 2)


def test_letter_inverse_pairs_cancel():
    for strands in (2, 3, 4):
        for index in range(1, strands):
            w = BraidWord(strands, (index, -index))
            assert reduced_burau(w) == reduced_burau(BraidWord(strands, ()))


def test_reduced_burau_of_empty_word_is_identity():
    m = reduced_burau(BraidWord(4, ()))
    for i in range(3):
        for j in range(3):
            assert m[i][j] == (ONE if i == j else ZERO)


def test_alexander_known_knots():
    trefoil = alexander_via_burau(BraidWord(2, (1, 1, 1)))
    assert trefoil == LaurentPolynomial.from_dict({-1: 1, 0: -1, 1: 1})
    figure8 = alexander_via_burau(BraidWord(3, (1, -2, 1, -2)))
    assert figure8 == LaurentPolynomial.from_dict({-1: 1, 0: -3, 1: 1})
    cinquefoil = alexander_via_burau(BraidWord(2, (1, 1, 1, 1, 1)))
    assert cinquefoil == LaurentPolynomial.from_dict(
        {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}
    )


def test_alexander_on_trivial_closures():
    assert alexander_via_burau(BraidWord(1, ())) == ONE
    assert alexander_via_burau(BraidWord(2, (1,))) == ONE
    # unused generator: split closure, zero polynomial
    assert alexander_via_burau(BraidWord(3, (1, 1, 1))) == ZERO
    assert alexander_via_burau(BraidWord(2, ())) == ZERO


def test_alexander_is_mirror_and_conjugation_invariant():
    words = random_knot_words(7031, 20, max_strands=4, max_letters=8)
    for w in words:
        delta = alexander_via_burau(w)
        mirrored = alexander_via_burau(BraidWord(w.strands, tuple(-v for v in w.letters)))
        assert mirrored == delta.mirror().normalized()
        rotated = BraidWord(w.strands, w.letters[1:] + w.letters[:1])
        assert alexander_via_burau(rotated) == delta


def test_alexander_at_one_is_unit_for_knots():
    for w in random_knot_words(555, 25):
        assert abs(alexander_via_burau(w).at_one()) == 1


def test_dual_routes_agree_on_seeded_wide_words():
    # links and split closures included; up to 8 strands and 22 letters,
    # beyond the 5-strand, 12-letter acceptance corpus
    words = random_braid_words(20261018, 400, max_strands=8, max_letters=22)
    mismatches = [w for w in words if alexander_of_braid(w) != alexander_via_burau(w)]
    assert not mismatches, mismatches[:3]
