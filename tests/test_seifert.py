import pytest

from knotsum.braid import BraidWord
from knotsum.burau import alexander_via_burau
from knotsum.laurent import ZERO, LaurentPolynomial
from knotsum.linalg import bareiss_determinant
from knotsum.seifert import (
    SeifertMatrix,
    _basis_loops,
    alexander_of_braid,
    canonical_surface_is_connected,
    seifert_matrix_of_braid,
    seifert_matrix_of_plumbing,
)

from corpus import random_braid_words, random_knot_words


def test_matrix_validation_and_views():
    with pytest.raises(ValueError):
        SeifertMatrix.from_lists([[1, 2]])
    m = SeifertMatrix.from_lists([[-1, 1], [0, -1]])
    assert m.size == 2
    assert tuple(zip(*m.rows)) == ((-1, 0), (1, -1))
    assert m.symmetrized() == ((-2, 1), (1, -2))


def test_trefoil_matrix_is_the_frozen_fixture():
    m = seifert_matrix_of_braid(BraidWord(2, (1, 1, 1)))
    assert m.rows == ((-1, 1), (0, -1))
    assert m.signature() == -2
    assert m.determinant_invariant() == 3
    # det(V - V^T) is +-1 exactly when the boundary is a knot
    assert bareiss_determinant([[a - b for a, b in zip(row, col)]
                                for row, col in zip(m.rows, zip(*m.rows))]) == 1
    assert m.alexander() == LaurentPolynomial.from_dict({-1: 1, 0: -1, 1: 1})


def test_mirror_trefoil_flips_signature():
    m = seifert_matrix_of_braid(BraidWord(2, (-1, -1, -1)))
    assert m.rows == ((1, 0), (-1, 1))
    assert m.signature() == 2
    assert m.alexander() == LaurentPolynomial.from_dict({-1: 1, 0: -1, 1: 1})


def test_figure_eight_matrix():
    m = seifert_matrix_of_braid(BraidWord(3, (1, -2, 1, -2)))
    assert m.rows == ((-1, 1), (0, 1))
    assert m.signature() == 0
    assert m.determinant_invariant() == 5
    assert m.alexander() == LaurentPolynomial.from_dict({-1: 1, 0: -3, 1: 1})


def test_interleave_direction_sets_the_sign():
    # right column's loop starts first: entry -1 in the (left, right) slot
    m = seifert_matrix_of_braid(BraidWord(3, (2, 1, 2, 1)))
    assert m.rows[0][1] == -1
    assert m.rows[1][0] == 0
    n = seifert_matrix_of_braid(BraidWord(3, (1, 2, 1, 2)))
    assert n.rows[0][1] == 1
    assert n.rows[1][0] == 0


def test_nested_and_far_pairs_do_not_interact():
    # index-1 loop spans positions 0..3, index-2 loop 1..2: nested, no entry
    m = seifert_matrix_of_braid(BraidWord(3, (1, 2, 2, 1)))
    assert m.rows[0][1] == 0 and m.rows[1][0] == 0
    # far columns never interact
    far = seifert_matrix_of_braid(BraidWord(4, (1, 3, 1, 3)))
    assert far.rows[0][1] == 0 and far.rows[1][0] == 0


def test_plumbing_matrix_examples():
    assert seifert_matrix_of_plumbing([2, 2]).rows == ((-1, 1), (0, -1))
    assert seifert_matrix_of_plumbing([]).rows == ()
    assert seifert_matrix_of_plumbing([2, -4]).rows == ((-1, 1), (0, 2))
    with pytest.raises(ValueError):
        seifert_matrix_of_plumbing([1, 2])


def test_plumbing_chain_matches_torus_braid_surface():
    chain = seifert_matrix_of_plumbing([2, 2, 2, 2])
    braid = seifert_matrix_of_braid(BraidWord(2, (1,) * 5))
    assert chain == braid


def test_split_closures_have_zero_alexander():
    assert not canonical_surface_is_connected(BraidWord(3, (1, 1, 1)))
    assert alexander_of_braid(BraidWord(3, (1, 1, 1))) == ZERO
    assert canonical_surface_is_connected(BraidWord(2, (1,)))
    assert alexander_of_braid(BraidWord(2, ())) == ZERO


def test_dual_route_agreement_on_random_words():
    for w in random_knot_words(9241, 40) + random_braid_words(8120, 40):
        assert alexander_of_braid(w) == alexander_via_burau(w), w


def test_basis_loops_are_sorted_by_index_then_position():
    # seifert_matrix_of_braid fills only the (lower index, higher index) slot
    for w in random_knot_words(9241, 40) + random_braid_words(8120, 40):
        keys = [(loop.index, loop.first) for loop in _basis_loops(w)]
        assert keys == sorted(keys), w


def test_alexander_invariant_under_word_rotation():
    for w in random_knot_words(6160, 15, max_strands=4, max_letters=9):
        delta = alexander_of_braid(w)
        for cut in range(1, len(w.letters)):
            rotated = BraidWord(w.strands, w.letters[cut:] + w.letters[:cut])
            assert alexander_of_braid(rotated) == delta


def test_alexander_invariant_under_braid_relations():
    # far commutation and the Reidemeister III relation leave the closure alone
    a = BraidWord(4, (1, 3, 2, 1, 3))
    b = BraidWord(4, (3, 1, 2, 1, 3))
    assert alexander_of_braid(a) == alexander_of_braid(b)
    c = BraidWord(3, (1, 2, 1, 1, 2))
    d = BraidWord(3, (2, 1, 2, 1, 2))
    assert alexander_of_braid(c) == alexander_of_braid(d)
    assert seifert_matrix_of_braid(c).signature() == seifert_matrix_of_braid(d).signature()
