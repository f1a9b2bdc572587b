import random

import pytest

from knotsum import linalg, profiles, seifert
from knotsum.braid import BraidWord, murasugi_concat
from knotsum.laurent import LaurentPolynomial
from knotsum.plumbing import PlumbingWord, boundary_profile
from knotsum.profiles import (
    UNKNOT_PROFILE_KEY,
    BraidInvariants,
    InvariantProfile,
    identify,
    profile_of_braid,
    profile_of_seifert_matrix,
)
from knotsum.seifert import seifert_matrix_of_plumbing
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
    caches = vars(cinquefoil.matrix)
    assert "_symmetric_form" in caches and "_alexander" not in caches
    # determinant 3 against 5: the pencil is never evaluated (the signature
    # comes from the elimination that gave the determinant, so it is known)
    trefoil = BraidInvariants(BraidWord(2, (1, 1, 1)))
    assert not trefoil.matches(figure_eight)
    assert "_alexander" not in vars(trefoil.matrix)
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
    eliminate, pencil = linalg._eliminate, seifert.pencil_determinant
    runs, pencils = [], []

    def counting(matrix, symmetric):
        runs.append((tuple(map(tuple, matrix)), symmetric))
        return eliminate(matrix, symmetric)

    def counting_pencil(a, b):
        pencils.append(a)
        return pencil(a, b)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    monkeypatch.setattr(seifert, "pencil_determinant", counting_pencil)
    # knots, links and split closures (unused generators) alike
    words = [w for w in random_braid_words(21, 200, max_strands=7, max_letters=20)
             if seifert.seifert_matrix_of_braid(w).size]
    for word in words:
        key = profile_of_braid(word).fingerprint()
        alexander, signature, determinant, components = key
        record = BraidInvariants(word)
        runs.clear()
        pencils.clear()
        # a miss at components or |signature|, then a full match, then the
        # profile and the matrix's own Alexander polynomial
        wrong_signature = (alexander, signature + 2, determinant, components)
        for probe in (UNKNOT_PROFILE_KEY, wrong_signature, key):
            record.matches(probe)
        assert record.profile(word).fingerprint() == key
        assert record.matrix.alexander() == alexander
        form = record.matrix.symmetrized()
        assert [symmetric for matrix, symmetric in runs if matrix == form] == [True], word
        assert pencils == [record.matrix.rows], word


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
