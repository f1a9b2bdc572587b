import random

import pytest

from knotsum.braid import BraidWord, murasugi_concat
from knotsum.burau import alexander_via_burau
from knotsum.laurent import ZERO, LaurentPolynomial
from knotsum.linalg import bareiss_determinant
from knotsum.seifert import (
    SeifertMatrix,
    _basis_loops,
    alexander_of_braid,
    seifert_matrix_of_braid,
    seifert_matrix_of_plumbing,
)
from knotsum.surgery import TripleBudget, search_triples

from corpus import random_braid_words, random_knot_words


def test_matrix_validation_and_views():
    with pytest.raises(ValueError):
        SeifertMatrix(((1, 2),))
    m = SeifertMatrix(((-1, 1), (0, -1)))
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
    # index 2 is unused: the trefoil's surface and a disk, joined by a tube
    assert seifert_matrix_of_braid(BraidWord(3, (1, 1, 1))).rows == (
        (-1, 1, 0), (0, -1, 0), (0, 0, 0))
    assert alexander_of_braid(BraidWord(3, (1, 1, 1))) == ZERO
    assert seifert_matrix_of_braid(BraidWord(2, (1,))).rows == ()
    assert alexander_of_braid(BraidWord(2, ())) == ZERO


def test_dual_route_agreement_on_random_words():
    for w in random_knot_words(9241, 40) + random_braid_words(8120, 40):
        assert alexander_of_braid(w) == alexander_via_burau(w), w


def test_basis_loops_are_sorted_by_index_then_position():
    # seifert_matrix_of_braid fills only the (lower index, higher index) slot
    for w in random_knot_words(9241, 40) + random_braid_words(8120, 40):
        keys = [loop[:2] for loop in _basis_loops(w)]  # (index, first position)
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


def _pieces(word):
    """The braid words of a split closure's pieces, each re-indexed on its own strands."""
    used = {abs(v) for v in word.letters}
    pieces, start = [], 1
    for cut in [i for i in range(1, word.strands) if i not in used] + [word.strands]:
        letters = tuple(v - (start - 1) if v > 0 else v + (start - 1)
                        for v in word.letters if start <= abs(v) < cut)
        pieces.append(BraidWord(cut - start + 1, letters))
        start = cut + 1
    return pieces


def test_split_surfaces_are_tubed_together():
    rng = random.Random(2112)
    for _ in range(200):
        strands = rng.randint(2, 8)
        dropped = set(rng.sample(range(1, strands), rng.randint(1, strands - 1)))
        alphabet = [s * i for i in range(1, strands) if i not in dropped for s in (1, -1)]
        letters = rng.choices(alphabet, k=rng.randint(0, 24)) if alphabet else []
        w = BraidWord(strands, tuple(letters))
        unused = set(range(1, strands)).difference(map(abs, w.letters))
        m = seifert_matrix_of_braid(w)
        loops = len(_basis_loops(w))
        assert m.size == loops + 1, w  # one tube's meridian stands for them all
        assert not any(map(any, m.rows[loops:])) and not any(any(row[loops:]) for row in m.rows), w
        assert alexander_of_braid(w) == ZERO == alexander_via_burau(w), w
        assert m.determinant_invariant() == 0, w
        pieces = _pieces(w)
        assert len(pieces) == len(unused) + 1
        assert m.signature() == sum(seifert_matrix_of_braid(p).signature() for p in pieces), w


def _connected_word(rng, strands, letters, homogeneous):
    """A word on all strands - 1 generators; homogeneous words give each generator one sign."""
    signs = {i: rng.choice((1, -1)) for i in range(1, strands)}
    indices = list(range(1, strands))
    indices += rng.choices(indices, k=max(0, letters - len(indices)))
    rng.shuffle(indices)
    return BraidWord(strands, tuple(
        i * (signs[i] if homogeneous else rng.choice((1, -1))) for i in indices))


def test_murasugi_sum_is_block_triangular_and_fixes_the_alexander_extremes():
    # Loops are sorted by index, so the inner word's come first and only the
    # (index k, index k + 1) slot couples the two sides. Then
    # det(V - t*V^T) has t^0 and t^(a+b) coefficients +-det V(inner)*det V(outer).
    rng = random.Random(4001)
    sums = []
    for _ in range(300):
        s1 = rng.randint(2, 6)
        s2 = rng.randint(2, 12 - s1)
        homogeneous = rng.random() < 0.5
        w1 = _connected_word(rng, s1, rng.randint(s1 - 1, 20), homogeneous)
        w2 = _connected_word(rng, s2, rng.randint(s2 - 1, 20), homogeneous)
        shuffle = [0] * len(w1.letters) + [1] * len(w2.letters)
        rng.shuffle(shuffle)
        sums.append((w1, w2, murasugi_concat(w1, w2, shuffle).word))
    # the triple search's own witnesses: all 960 of the 7-letter search, and
    # the 376 of four triples at the default budget, 40 of them with d != 0
    witnesses = search_triples(("unknot", "unknot", "3_1"), TripleBudget(7, 4))
    assert len(witnesses) == 960
    for names in (("unknot", "unknot", "3_1"), ("unknot", "3_1", "3_1"),
                  ("unknot", "unknot", "4_1"), ("3_1", "3_1", "5_1")):
        witnesses += search_triples(names, TripleBudget())
    assert len(witnesses) == 960 + 376
    sums += [(w.inner_word, w.outer_word, w.composite.word) for w in witnesses]
    nonzero = 0
    for w1, w2, composite in sums:
        inner, outer = seifert_matrix_of_braid(w1), seifert_matrix_of_braid(w2)
        a, b = inner.size, outer.size
        v = seifert_matrix_of_braid(composite).rows
        assert tuple(row[:a] for row in v[:a]) == inner.rows, composite
        assert tuple(row[a:] for row in v[a:]) == outer.rows, composite
        assert not any(any(row[:a]) for row in v[a:]), composite
        d = bareiss_determinant(inner.rows) * bareiss_determinant(outer.rows)
        delta = alexander_via_burau(composite)
        span = len(delta.coeffs) - 1
        if d:
            nonzero += 1
            assert span == a + b, composite
            assert abs(delta.coeffs[0]) == abs(delta.coeffs[-1]) == abs(d), composite
        else:
            assert span <= a + b - 2, composite
    assert nonzero == 145 + 40  # random sums, then witnesses
