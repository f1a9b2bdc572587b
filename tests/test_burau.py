import random

import pytest

from knotsum.braid import BraidWord, closure_data, shifted
from knotsum.burau import alexander_via_burau, reduced_burau
from knotsum.laurent import ONE, ZERO, LaurentPolynomial
from knotsum.linalg import balanced_digits, laurent_matrix_determinant
from knotsum.seifert import alexander_of_braid

from corpus import random_braid_words, random_knot_words

T = LaurentPolynomial.from_coeffs(1, (1,))  # t


def _product(word):
    # the packed product (B, lo, columns) decoded into its matrix of polynomials
    bits, lo, columns = reduced_burau(word)
    return [[LaurentPolynomial.from_coeffs(low, balanced_digits(x, bits))
             for low, x in zip(lo, row)] for row in zip(*columns)]


def test_letter_matrix_two_strands():
    m = _product(BraidWord(2, (1,)))
    assert m == [[LaurentPolynomial.from_coeffs(1, (-1,))]]
    minv = _product(BraidWord(2, (-1,)))
    assert minv == [[LaurentPolynomial.from_coeffs(-1, (-1,))]]
    with pytest.raises(ValueError):
        reduced_burau(BraidWord(2, (2,)))


def test_letter_inverse_pairs_cancel():
    for strands in (2, 3, 4):
        for index in range(1, strands):
            w = BraidWord(strands, (index, -index))
            assert _product(w) == _product(BraidWord(strands, ()))


def test_reduced_burau_of_empty_word_is_identity():
    m = _product(BraidWord(4, ()))
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


def _letter_matrix(v, strands):
    # reference: the reduced Burau matrix of letter v, the identity but in
    # column i = |v| - 1, which holds (t, -t, 1) for v > 0 and
    # (1, -1/t, 1/t) for v < 0 in rows i - 1, i, i + 1
    size = strands - 1
    m = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    i = abs(v) - 1
    tinv = LaurentPolynomial.from_coeffs(-1, (1,))
    column = (T, -T, ONE) if v > 0 else (ONE, -tinv, tinv)
    for k, entry in zip((i - 1, i, i + 1), column):
        if 0 <= k < size:
            m[k][i] = entry
    return m


def _dense_product(word):
    # reference: the full left-to-right product of the letters' matrices
    size = word.strands - 1
    product = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    for v in word.letters:
        letter = _letter_matrix(v, word.strands)
        product = [
            [sum((row[k] * letter[k][j] for k in range(size)
                  if row[k] and letter[k][j]), ZERO)
             for j in range(size)]
            for row in product
        ]
    return product


def test_column_updates_equal_the_dense_product():
    rng = random.Random(5150)
    for strands in range(2, 19):
        alphabet = [s * i for i in range(1, strands) for s in (1, -1)]
        for length in (rng.randint(1, 8), rng.randint(9, 16)):
            word = BraidWord(strands, tuple(rng.choice(alphabet) for _ in range(length)))
            assert _product(word) == _dense_product(word), word


@pytest.mark.parametrize("k, width", [(10, 11), (20, 24), (40, 52)])
def test_packed_product_is_exact_on_wide_coefficients(k, width):
    # (s1 s2^-1)^k has coefficients of `width` bits; the packed product
    # must decode every one of them exactly, and so must its packed B - I,
    # as the closure is a knot for k not divisible by 3
    word = BraidWord(3, (1, -2) * k)
    product = _product(word)
    assert product == _dense_product(word)
    assert max(abs(c).bit_length() for row in product for p in row for c in p.coeffs) == width
    assert alexander_via_burau(word) == alexander_of_braid(word)


def test_reduced_burau_on_one_strand_is_empty():
    assert _product(BraidWord(1, ())) == []


def _wide_knot_word(rng, strands):
    # every generator once, in any order and with any signs, closes to a
    # knot; inserted squares of generators leave the permutation alone
    letters = [rng.choice((1, -1)) * i for i in range(1, strands)]
    rng.shuffle(letters)
    for _ in range(rng.randint(0, 6)):
        i = rng.randint(1, strands - 1)
        at = rng.randint(0, len(letters))
        letters[at:at] = [rng.choice((1, -1)) * i, rng.choice((1, -1)) * i]
    return BraidWord(strands, tuple(letters))


def test_dual_routes_agree_on_seeded_knots_past_eight_strands():
    rng = random.Random(1014)
    words = [_wide_knot_word(rng, rng.randint(10, 14)) for _ in range(150)]
    assert all(closure_data(w).components == 1 for w in words)
    mismatches = [w for w in words if alexander_of_braid(w) != alexander_via_burau(w)]
    assert not mismatches, mismatches[:3]


def test_dual_routes_agree_on_long_seeded_knot_words():
    # 60-100 letters on up to 6 strands: Seifert matrices of 55-99 rows,
    # far past the corpus of <= 12 letters
    rng = random.Random(6096)
    words = []
    while len(words) < 10:
        strands = rng.randint(2, 6)
        alphabet = [s * i for i in range(1, strands) for s in (1, -1)]
        word = BraidWord(strands, tuple(rng.choice(alphabet) for _ in range(rng.randint(60, 100))))
        if closure_data(word).components == 1:
            words.append(word)
    mismatches = [w for w in words if alexander_of_braid(w) != alexander_via_burau(w)]
    assert not mismatches, mismatches[:3]


def _long_knot_word(rng, strands, length):
    # random letters, then letters that each join two components of the
    # closure until it is a knot
    alphabet = [s * i for i in range(1, strands) for s in (1, -1)]
    word = BraidWord(strands, tuple(rng.choice(alphabet) for _ in range(length)))
    while (components := closure_data(word).components) > 1:
        longer = (BraidWord(strands, word.letters + (v,)) for v in rng.sample(alphabet, len(alphabet)))
        word = next(w for w in longer if closure_data(w).components < components)
    return word


def test_dual_routes_agree_on_knot_words_past_twenty_strands():
    # 100-120 letters on 20-24 strands: Burau determinants of 19-23 rows,
    # where a column-subset expansion holds up to 2^(n-1) minors
    rng = random.Random(2024)
    words = [_long_knot_word(rng, rng.randint(20, 24), rng.randint(100, 114)) for _ in range(3)]
    assert all(100 <= len(w.letters) <= 120 for w in words)
    mismatches = [w for w in words if alexander_of_braid(w) != alexander_via_burau(w)]
    assert not mismatches, mismatches[:3]


def test_burau_route_builds_a_few_polynomials_per_word(monkeypatch):
    # B - I goes to the determinant as packed ints, never as (n-1)^2
    # polynomials, so a word builds the same few polynomials on any strands
    built = []
    init = LaurentPolynomial.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    rng = random.Random(1018)
    words = [_wide_knot_word(rng, strands) for strands in range(10, 19)]
    monkeypatch.setattr(LaurentPolynomial, "__init__", counting)
    counts = []
    for w in words:
        built.clear()
        alexander_via_burau(w)
        counts.append(len(built))
    assert max(counts) <= 5, counts


def _word_using_each_generator(rng, strands, extra):
    # every generator at least twice, with random signs, then `extra` random
    # letters, shuffled: no generator is unused and none is used once
    alphabet = [s * i for i in range(1, strands) for s in (1, -1)]
    letters = [rng.choice((1, -1)) * i for i in range(1, strands) for _ in range(2)]
    letters += [rng.choice(alphabet) for _ in range(extra)]
    rng.shuffle(letters)
    return BraidWord(strands, tuple(letters))


def test_connected_sum_multiplies_the_summands_polynomials():
    # a word below strand k and a word above it, joined by one lone letter
    # on generator k, close to the connected sum of their closures
    rng = random.Random(2112)
    components = set()
    for _ in range(40):
        lower = _word_using_each_generator(rng, rng.randint(2, 6), rng.randint(0, 4))
        upper = _word_using_each_generator(rng, rng.randint(2, 6), rng.randint(0, 4))
        k = lower.strands
        # the two words' letters commute, so they may interleave, each in its order
        sides = [0] * len(lower.letters) + [1] * len(upper.letters)
        rng.shuffle(sides)
        pending = [list(lower.letters[::-1]), list(shifted(upper.letters[::-1], k))]
        letters = [pending[side].pop() for side in sides]
        letters.insert(rng.randint(0, len(letters)), rng.choice((1, -1)) * k)
        composite = BraidWord(k + upper.strands, tuple(letters))
        components.add(closure_data(composite).components)
        delta = alexander_via_burau(composite)
        assert delta == (alexander_via_burau(lower) * alexander_via_burau(upper)).normalized()
        assert delta == alexander_of_braid(composite), composite
    assert 1 in components and len(components) > 1  # knots and links both


def _refuse(*args):
    raise AssertionError("not expected to run")


def test_an_unused_generator_returns_zero_before_any_product(monkeypatch):
    monkeypatch.setattr("knotsum.burau.reduced_burau", _refuse)
    assert alexander_via_burau(BraidWord(5000, (1, 2500, -4999))) == ZERO
    assert alexander_via_burau(BraidWord(4, (1, 1, 3, 3, 3))) == ZERO
    assert alexander_via_burau(BraidWord(3, (2, -2, 2))) == ZERO


@pytest.mark.parametrize("strands", [2, 3, 7, 40])
def test_each_generator_once_is_the_unknot_without_a_determinant(monkeypatch, strands):
    monkeypatch.setattr("knotsum.burau.kronecker_determinant", _refuse)
    rng = random.Random(strands)
    for _ in range(4):
        letters = [rng.choice((1, -1)) * i for i in range(1, strands)]
        assert alexander_via_burau(BraidWord(strands, tuple(letters))) == ONE
        rng.shuffle(letters)
        assert alexander_via_burau(BraidWord(strands, tuple(letters))) == ONE


def test_dual_routes_agree_on_wide_words_with_lone_letters():
    # 6-24 strands and up to 64 letters, past the 5-strand, 12-letter corpus:
    # lone letters on random generators cut each word into summands of any
    # size; every other generator is used three times, or now and then not at all
    rng = random.Random(27)
    checked = 0
    while checked < 40:
        strands = rng.randint(6, 24)
        lone = set(rng.sample(range(1, strands), rng.randint(1, 4)))
        kept = [i for i in range(1, strands) if i not in lone]
        if rng.random() < 0.15:  # an unused generator: a split closure
            kept.remove(rng.choice(kept))
        letters = [rng.choice((1, -1)) * i for i in kept for _ in range(3)]
        rng.shuffle(letters)
        for i in lone:
            letters.insert(rng.randint(0, len(letters)), rng.choice((1, -1)) * i)
        if len(letters) > 64:
            continue
        word = BraidWord(strands, tuple(letters))
        assert alexander_via_burau(word) == alexander_of_braid(word), word
        checked += 1


def _unreduced_burau(word):
    # dense product of the unreduced Burau matrices, sigma_i acting on the
    # 0-based positions i - 1, i as [[1 - t, t], [1, 0]] and its inverse as
    # [[0, 1], [1/t, 1 - 1/t]]; right multiplication rewrites two columns
    n = word.strands
    one_minus_t, t_inv = ONE - T, LaurentPolynomial.from_coeffs(-1, (1,))
    m = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for v in word.letters:
        i = abs(v) - 1
        for row in m:
            a, b = row[i], row[i + 1]
            if v > 0:
                row[i], row[i + 1] = a * one_minus_t + b, a * T
            else:
                row[i], row[i + 1] = b * t_inv, a + b * (ONE - t_inv)
    return m


def test_burau_route_matches_the_unreduced_burau_minor():
    # a third oracle: Delta is det(I - psi(beta)) with the last row and
    # column deleted, no division; knots, links and split closures alike
    for word in random_braid_words(28, 600, max_strands=9, max_letters=24):
        product = _unreduced_burau(word)
        minor = [[(ONE if r == c else ZERO) - product[r][c] for c in range(word.strands - 1)]
                 for r in range(word.strands - 1)]
        assert laurent_matrix_determinant(minor).normalized() == alexander_via_burau(word), word
