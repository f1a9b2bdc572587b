import pytest

from knotsum import profiles, seifert
from knotsum.braid import BraidWord, mirror_braid, murasugi_concat
from knotsum.laurent import LaurentPolynomial
from knotsum.plumbing import PlumbingWord, boundary_profile
from knotsum.profiles import (
    UNKNOT_PROFILE_KEY,
    InvariantProfile,
    identify,
    is_unknot_consistent,
    profile_of_braid,
    profile_of_seifert_matrix,
)
from knotsum.seifert import seifert_matrix_of_plumbing

from corpus import random_knot_words

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
    assert is_unknot_consistent(p)
    assert is_unknot_consistent(profile_of_braid(BraidWord(2, (1,))))
    assert not is_unknot_consistent(profile_of_braid(BraidWord(2, (1, 1, 1))))


def test_fingerprint_is_chirality_blind_link_key_is_not():
    w = BraidWord(2, (1, 1, 1))
    p = profile_of_braid(w)
    q = profile_of_braid(mirror_braid(w))
    assert p.fingerprint() == q.fingerprint()
    assert p.link_key() != q.link_key()


def test_split_closure_profile():
    p = profile_of_braid(BraidWord(3, (1, 1, 1)))
    assert p.alexander.is_zero()
    assert p.components == 2
    assert not p.is_knot


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
