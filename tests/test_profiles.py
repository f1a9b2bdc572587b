import random
import time
from math import gcd

import pytest

from knotsum import linalg, profiles, seifert
from knotsum.braid import BraidWord, murasugi_concat
from knotsum.burau import alexander_via_burau
from knotsum.laurent import ZERO, LaurentPolynomial
from knotsum.plumbing import PlumbingWord, boundary_profile
from knotsum.profiles import (
    UNKNOT_PROFILE_KEY,
    BraidInvariants,
    InvariantProfile,
    identify,
    profile_of_braid,
    profile_of_seifert_matrix,
)
from knotsum.seifert import alexander_of_braid, seifert_matrix_of_plumbing
from knotsum.table import lookup

from corpus import random_braid_words, random_knot_words

TREFOIL_DELTA = LaurentPolynomial.from_dict({-1: 1, 0: -1, 1: 1})


def test_profile_validation():
    with pytest.raises(ValueError):
        InvariantProfile(
            alexander=TREFOIL_DELTA,
            signature=-2,
            determinant=5,  # |delta(-1)| is 3
            canonical_genus_bound=1,
            components=1,
        )
    with pytest.raises(ValueError):
        InvariantProfile(
            alexander=TREFOIL_DELTA,
            signature=-1,  # knot signatures are even
            determinant=3,
            canonical_genus_bound=1,
            components=1,
        )


def test_profile_of_trefoil_braid():
    p = profile_of_braid(BraidWord(2, (1, 1, 1)))
    assert p.alexander == TREFOIL_DELTA
    assert p.signature == -2
    assert p.determinant == 3
    assert p.canonical_genus_bound == 1
    assert p.components == 1
    assert p.is_knot


def test_trivial_braid_profile_is_the_unknot_key():
    p = profile_of_braid(BraidWord(1, ()))
    assert p.fingerprint() == UNKNOT_PROFILE_KEY
    assert profile_of_braid(BraidWord(2, (1,))).fingerprint() == UNKNOT_PROFILE_KEY
    assert profile_of_braid(BraidWord(2, (1, 1, 1))).fingerprint() != UNKNOT_PROFILE_KEY


def test_fingerprint_is_chirality_blind_link_key_is_not():
    w = BraidWord(2, (1, 1, 1))
    p = profile_of_braid(w)
    q = profile_of_braid(BraidWord(w.strands, tuple(-v for v in w.letters)))  # the mirror
    assert p.fingerprint() == q.fingerprint()
    assert p.link_key() != q.link_key()


def test_matches_stops_at_the_first_miss():
    figure_eight = lookup("4_1").profile.fingerprint()
    # 5_1 shares the determinant 5 with 4_1; |signature| 4 against 0 ends it
    cinquefoil = BraidInvariants(BraidWord(2, (1,) * 5))
    assert not cinquefoil.matches(figure_eight)
    assert "_symmetric_form" in vars(cinquefoil.matrix) and "alexander" not in vars(cinquefoil)
    # determinant 3 against 5: the pencil is never evaluated (the signature
    # comes from the elimination that gave the determinant, so it is known)
    trefoil = BraidInvariants(BraidWord(2, (1, 1, 1)))
    assert not trefoil.matches(figure_eight)
    assert "alexander" not in vars(trefoil)
    assert trefoil.matches(lookup("3_1").profile.fingerprint())
    assert BraidInvariants(BraidWord(2, (-1, -1, -1))).matches(lookup("3_1").profile.fingerprint())
    # a link misses on components before its Seifert matrix is built
    hopf = BraidInvariants(BraidWord(2, (1, 1)))
    assert not hopf.matches(UNKNOT_PROFILE_KEY)
    assert "matrix" not in vars(hopf)


def test_split_closure_profile():
    p = profile_of_braid(BraidWord(3, (1, 1, 1)))
    assert not p.alexander
    assert p.components == 2
    assert not p.is_knot
    # the record's determinant is the profile's |alexander(-1)| = 0 too
    assert BraidInvariants(BraidWord(3, (1, 1, 1))).matrix.determinant_invariant() == 0
    assert BraidInvariants(BraidWord(3, ())).matrix.determinant_invariant() == 0


def test_split_closure_on_many_strands_stays_small():
    # 19,998 unused generators share one tube row: a dense row per tube would
    # make the matrix 20,001 x 20,001
    word = BraidWord(20_000, (1, 1, 1))
    start = time.perf_counter()
    p = profile_of_braid(word)
    assert time.perf_counter() - start < 1
    assert (p.alexander, p.signature, p.determinant, p.components) == (ZERO, -2, 0, 19_999)
    assert BraidInvariants(word).matrix.size == 3


def test_every_record_matches_its_own_fingerprint():
    # links included: split closures (some generator unused) among them
    rng = random.Random(5)
    for _ in range(3000):
        strands = rng.randint(2, 6)
        alphabet = [s * i for i in range(1, strands) for s in (-1, 1)]
        word = BraidWord(strands, tuple(rng.choices(alphabet, k=rng.randint(0, 12))))
        record = BraidInvariants(word)
        assert record.matches(record.profile(word).fingerprint()), word


def test_genus_bound_examples():
    assert profile_of_braid(BraidWord(2, (1, 1, 1))).canonical_genus_bound == 1
    assert profile_of_braid(BraidWord(2, (1,) * 7)).canonical_genus_bound == 3
    # free reduction happens before counting: sigma sigma^-1 adds nothing
    w = BraidWord(2, (1, -1, 1))
    assert profile_of_braid(w).canonical_genus_bound == 0


def test_profile_of_seifert_matrix_plumbing():
    p = profile_of_seifert_matrix(seifert_matrix_of_plumbing([2, 2]))
    assert p.alexander == TREFOIL_DELTA
    assert p.signature == -2
    assert p.components == 1
    hopf = profile_of_seifert_matrix(seifert_matrix_of_plumbing([2]))
    assert hopf.components == 2
    assert not hopf.is_knot


def test_profile_dispatch():
    braid_route = profile_of_braid(BraidWord(2, (1, 1, 1)))
    plumbing_route = boundary_profile(PlumbingWord((2, 2)))
    assert braid_route.fingerprint() == plumbing_route.fingerprint()


def test_profile_of_braid_builds_one_seifert_matrix(monkeypatch):
    build = seifert.seifert_matrix_of_braid
    calls = []

    def counting(word):
        calls.append(word)
        return build(word)

    # the surface route may reach the builder through either module
    for module in (seifert, profiles):
        monkeypatch.setattr(module, "seifert_matrix_of_braid", counting)
    words = random_knot_words(seed=11, count=20)
    for w in words:
        profile_of_braid(w)
    assert calls == list(words)


def test_each_seifert_form_is_eliminated_once(monkeypatch):
    eliminate, pencil, burau = linalg._eliminate, seifert.pencil_determinant, alexander_via_burau
    runs, pencils, buraus = [], [], []

    def counting(matrix, symmetric):
        runs.append((tuple(map(tuple, matrix)), symmetric))
        return eliminate(matrix, symmetric)

    def counting_pencil(v):
        pencils.append(v)
        return pencil(v)

    def counting_burau(word):
        buraus.append(word)
        return burau(word)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    monkeypatch.setattr(seifert, "pencil_determinant", counting_pencil)
    monkeypatch.setattr(profiles, "alexander_via_burau", counting_burau)
    # knots, links and split closures (unused generators) alike, on both routes
    words = [w for w in random_braid_words(21, 200, max_strands=7, max_letters=20)
             if seifert.seifert_matrix_of_braid(w).size]
    routed = [profiles._takes_burau_route(w) for w in words]
    assert 20 < sum(routed) < len(words) - 20
    for word, by_burau in zip(words, routed):
        key = profile_of_braid(word).fingerprint()
        alexander, signature, determinant, components = key
        record = BraidInvariants(word)
        runs.clear()
        pencils.clear()
        buraus.clear()
        # a miss at components or |signature|, then a full match, then the profile
        wrong_signature = (alexander, signature + 2, determinant, components)
        for probe in (UNKNOT_PROFILE_KEY, wrong_signature, key):
            record.matches(probe)
        assert record.profile(word).fingerprint() == key
        form = record.matrix.symmetrized()
        assert [symmetric for matrix, symmetric in runs if matrix == form] == [True], word
        # Delta once, by the route the rule names, and no pencil on a Burau-routed record
        assert buraus == ([word] if by_burau else []), word
        assert pencils == ([] if by_burau else [record.matrix.rows]), word
        assert record.matrix.alexander() == alexander


def test_delta_is_computed_once_per_closure_record(monkeypatch):
    # a match, then profiles for two genus bounds: the record's cached Delta
    # serves all three; the SeifertMatrix evaluates its pencil on every call
    pencil, burau = seifert.pencil_determinant, alexander_via_burau
    pencils, buraus = [], []
    monkeypatch.setattr(seifert, "pencil_determinant", lambda v: pencils.append(v) or pencil(v))
    monkeypatch.setattr(profiles, "alexander_via_burau", lambda w: buraus.append(w) or burau(w))
    for word, by_burau in ((BraidWord(3, (1, -2, 1, -2)), False),
                           (BraidWord(3, (1, -2) * 7), True)):
        assert profiles._takes_burau_route(word) == by_burau
        # conjugating by a letter adds two letters that free reduction keeps: genus bound + 1
        conjugate = BraidWord(word.strands, (1, *word.letters, -1))
        key = profile_of_braid(word).fingerprint()
        record = BraidInvariants(word)
        pencils.clear()
        buraus.clear()
        assert record.matches(key)
        genus = record.profile(word).canonical_genus_bound
        assert record.profile(conjugate).canonical_genus_bound == genus + 1
        assert (len(pencils), len(buraus)) == ((0, 1) if by_burau else (1, 0)), word


def test_connected_sums_of_trefoils_match_the_closed_form():
    # sigma_1^3 sigma_2 sigma_3^3 ... sigma_(2k-1)^3 on 2k strands is the sum of
    # k trefoils, each joined by a lone letter: Delta = (t - 1 + 1/t)^k,
    # det = 3^k and |sigma| = 2k
    expected = LaurentPolynomial.constant(1)
    for k in range(1, 25):
        expected = expected * TREFOIL_DELTA
        letters = [v for i in range(1, 2 * k, 2) for v in (i, i, i, i + 1)][:-1]
        word = BraidWord(2 * k, tuple(letters))
        assert alexander_via_burau(word) == alexander_of_braid(word) == expected.normalized(), k
        profile = profile_of_braid(word)
        assert (profile.determinant, abs(profile.signature)) == (3**k, 2 * k)
        assert profile.alexander == expected.normalized()


def _t_power_minus_one(power):
    """Coefficients of t^power - 1, lowest first."""
    return [-1] + [0] * (power - 1) + [1]


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _over(a, b):
    """Exact quotient a / b of coefficient lists, b with leading coefficient 1."""
    a, quotient = list(a), [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(quotient))):
        quotient[k] = c = a[k + len(b) - 1]
        for j, y in enumerate(b):
            a[k + j] -= c * y
    assert not any(a)
    return quotient


def test_torus_knot_profiles_match_the_closed_form():
    # T(p, q) = (sigma_1 ... sigma_(p-1))^q, Delta = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1));
    # long words on few strands, so both sides of the route rule. T(20, 9)
    # takes Burau, and nine columns of its product start above t^0, so
    # B - I must move them down before it subtracts I
    routes = set()
    shapes = [(p, q) for p in range(2, 6) for q in range(2, 42) if gcd(p, q) == 1]
    for p, q in shapes + [(20, 9)]:
        word = BraidWord(p, tuple(range(1, p)) * q)
        routes.add(profiles._takes_burau_route(word))
        top = _times(_t_power_minus_one(p * q), _t_power_minus_one(1))
        delta = _over(_over(top, _t_power_minus_one(p)), _t_power_minus_one(q))
        expected = LaurentPolynomial.from_coeffs(0, delta).normalized()
        assert profile_of_braid(word).alexander == expected, (p, q)
    assert routes == {False, True}


def _shaped_word(rng, strands, letters, drop):
    """A random word of this shape; with drop, generator index `drop` never appears."""
    alphabet = [s * i for i in range(1, strands) if i != drop for s in (1, -1)]
    return BraidWord(strands, tuple(rng.choices(alphabet, k=letters)))


def test_profiles_agree_with_both_routes_on_both_sides_of_the_rule():
    # knots, links and split words at the last pencil shape and the first Burau ones
    rng = random.Random(2323)
    sides = {False: 0, True: 0}
    for strands in range(2, 9):
        first = next(n for n in range(200) if profiles._takes_burau_route(BraidWord(strands, (1,) * n)))
        for letters in (first - 2, first - 1, first, first + 1):
            for drop in (None, None, None, rng.randint(1, strands - 1) if strands > 2 else None):
                word = _shaped_word(rng, strands, letters, drop)
                sides[profiles._takes_burau_route(word)] += 1
                delta = profile_of_braid(word).alexander
                assert delta == alexander_of_braid(word) == alexander_via_burau(word), word
    assert min(sides.values()) >= 50


def test_long_words_on_five_to_twenty_strands_take_burau():
    rng = random.Random(128256)
    shapes = [(5, 256), (6, 128), (9, 200), (13, 160), (16, 140), (20, 160)]
    for strands, letters in shapes:
        word = _shaped_word(rng, strands, letters, None)
        assert profiles._takes_burau_route(word), word
        p = profile_of_braid(word)
        assert p.alexander == alexander_via_burau(word), word
        assert p.determinant == abs(p.alexander.at_minus_one()), word
    # the surface route only where its pencil is cheap
    for strands, letters in ((5, 128), (6, 127)):
        word = _shaped_word(rng, strands, letters, None)
        assert profile_of_braid(word).alexander == alexander_of_braid(word), word


def test_identify():
    assert identify(profile_of_braid(BraidWord(2, (1,) * 7))) == ["7_1"]
    assert identify(profile_of_braid(BraidWord(2, (-1, -1, -1)))) == ["3_1"]
    assert identify(profile_of_braid(BraidWord(2, (1,)))) == ["unknot"]
    with pytest.raises(ValueError):
        identify(profile_of_braid(BraidWord(3, (1, 1, 1))))


def test_serialize_shape():
    d = profile_of_braid(BraidWord(2, (1, 1, 1))).serialize()
    assert d["alexander"] == "-1:1,0:-1,1:1"
    assert d["signature"] == -2
    assert d["determinant"] == 3
    assert d["canonical_genus_bound"] == 1
    assert d["components"] == 1


def test_markov_stabilization_preserves_profile():
    for word in random_knot_words(311, 25, max_strands=4, max_letters=8):
        base = profile_of_braid(word)
        for sign in (1, -1):
            bigger = BraidWord(
                word.strands + 1, word.letters + (sign * word.strands,)
            )
            assert profile_of_braid(bigger) == base


def test_connected_sum_multiplies_alexander_and_adds_signature():
    trefoil = BraidWord(2, (1, 1, 1))
    fig8 = BraidWord(3, (1, -2, 1, -2))
    pairs = [(trefoil, trefoil), (trefoil, fig8), (fig8, fig8)]
    for w1, w2 in pairs:
        p1, p2 = profile_of_braid(w1), profile_of_braid(w2)
        composite = murasugi_concat(w1, w2)
        p = profile_of_braid(composite.word)
        assert p.alexander == (p1.alexander * p2.alexander).normalized()
        assert p.signature == p1.signature + p2.signature
        assert p.determinant == p1.determinant * p2.determinant
