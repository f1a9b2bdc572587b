import random

import pytest

from knotsum import plumbing
from knotsum.plumbing import (
    RULE_MERGE,
    RULE_SPLIT,
    RULE_STABILIZE,
    RULE_SUM,
    RULE_UNSTABILIZE,
    PlumbingError,
    PlumbingWord,
    RewriteStep,
    RewriteTrace,
    SearchBudget,
    TwoBridgeFraction,
    apply_rule2,
    apply_rule3,
    apply_rule3_inverse,
    apply_step,
    boundary_profile,
    normalize,
    rewrite_search,
    star4,
    two_bridge_fraction,
)
from knotsum.table import lookup

from corpus import random_plumbing_word


def test_word_validation_and_text_form():
    with pytest.raises(PlumbingError):
        PlumbingWord((1,))
    with pytest.raises(PlumbingError):
        PlumbingWord((True,))
    assert PlumbingWord.parse("S[2,2,-2,0]").twists == (2, 2, -2, 0)
    assert PlumbingWord.parse("S[]") == PlumbingWord()
    assert PlumbingWord((2, -4)).format() == "S[2,-4]"
    assert PlumbingWord.parse(PlumbingWord((0, 2)).format()) == PlumbingWord((0, 2))
    with pytest.raises(PlumbingError):
        PlumbingWord.parse("2,2")
    with pytest.raises(PlumbingError):
        PlumbingWord.parse("S[2,a]")
    assert not PlumbingWord((2, 0)).is_minimal_genus
    assert PlumbingWord((2, -4)).is_minimal_genus


def test_star4_concatenates():
    left = PlumbingWord.parse("S[2,2]")
    right = PlumbingWord.parse("S[2,2]")
    assert star4(left, right) == PlumbingWord.parse("S[2,2,2,2]")
    assert star4(PlumbingWord(), left) == left


def test_rule2_both_directions():
    w = PlumbingWord((2, 2))
    up = apply_rule2(w, -4)
    assert up == PlumbingWord((2, 2, -4, 0))
    assert apply_rule2(up, -4, forward=False) == w
    with pytest.raises(PlumbingError):
        apply_rule2(up, 2, forward=False)  # removed value must match
    with pytest.raises(PlumbingError):
        apply_rule2(w, 2, forward=False)  # no trailing zero
    with pytest.raises(PlumbingError):
        apply_rule2(w, 3)


def test_rule3_merges_across_an_interior_zero():
    w = PlumbingWord((2, 0, 4))
    assert apply_rule3(w, 1) == PlumbingWord((6,))
    longer = PlumbingWord((2, 2, -2, 0, 2, 2))
    assert apply_rule3(longer, 3) == PlumbingWord((2, 2, 0, 2))
    with pytest.raises(PlumbingError):
        apply_rule3(PlumbingWord((0, 2)), 0)  # not interior
    with pytest.raises(PlumbingError):
        apply_rule3(PlumbingWord((2, 4, 2)), 1)  # not a zero


def test_rule3_inverse_splits():
    w = PlumbingWord((6,))
    assert apply_rule3_inverse(w, 0, 2) == PlumbingWord((2, 0, 4))
    assert apply_rule3(apply_rule3_inverse(w, 0, -2), 1) == w
    with pytest.raises(PlumbingError):
        apply_rule3_inverse(w, 1, 2)
    with pytest.raises(PlumbingError):
        apply_rule3_inverse(w, 0, 3)


def test_apply_step_dispatch():
    w = PlumbingWord((2,))
    assert apply_step(w, RewriteStep(RULE_STABILIZE, 1, (4,))) == PlumbingWord((2, 4, 0))
    assert apply_step(
        PlumbingWord((2, 4, 0)), RewriteStep(RULE_UNSTABILIZE, 1, (4,))
    ) == w
    assert apply_step(PlumbingWord((2, 0, 4)), RewriteStep(RULE_MERGE, 1)) == PlumbingWord((6,))
    assert apply_step(PlumbingWord((6,)), RewriteStep(RULE_SPLIT, 0, (2,))) == PlumbingWord((2, 0, 4))
    assert apply_step(w, RewriteStep(RULE_SUM, 1, (2, 2))) == PlumbingWord((2, 2, 2))
    with pytest.raises(PlumbingError):
        apply_step(w, RewriteStep(RULE_SUM, 0, (2,)))  # must attach at the end
    with pytest.raises(PlumbingError):
        apply_step(w, RewriteStep("9", 0))


def test_normalize_examples():
    trace = normalize(PlumbingWord((2, 2, -2, 0, 2, 2)))
    assert trace.end == PlumbingWord((2, 4))
    assert [s.rule for s in trace.steps] == [RULE_MERGE, RULE_MERGE]
    assert trace.check_profiles()

    trace = normalize(PlumbingWord((2, 0, 0, 2)))
    assert trace.end == PlumbingWord((2, 2))
    assert len(trace.steps) == 1

    assert normalize(PlumbingWord((0, 2))).end == PlumbingWord((0, 2))
    assert normalize(PlumbingWord((0, 0))).end == PlumbingWord()
    assert normalize(PlumbingWord((2, 4, 0))).end == PlumbingWord((2,))


def test_trace_replay_checks_the_recorded_end():
    trace = normalize(PlumbingWord((2, 0, 2)))
    words = trace.replay()
    assert words[0] == PlumbingWord((2, 0, 2))
    assert words[-1] == PlumbingWord((4,))
    bad = RewriteTrace(start=trace.start, end=PlumbingWord((8,)), steps=trace.steps)
    with pytest.raises(PlumbingError):
        bad.replay()


def test_trace_with_sum_step_skips_profile_check_on_it():
    start = PlumbingWord((2, 2))
    step = RewriteStep(RULE_SUM, 2, (2, 2))
    trace = RewriteTrace(start=start, end=PlumbingWord((2, 2, 2, 2)), steps=(step,))
    assert trace.replay()[-1] == trace.end
    assert trace.check_profiles()  # the sum step is exempt by design


def test_boundary_profiles():
    assert boundary_profile(PlumbingWord((2, 2))).fingerprint() == lookup(
        "3_1"
    ).profile.fingerprint()
    assert boundary_profile(PlumbingWord((2, -2))).fingerprint() == lookup(
        "4_1"
    ).profile.fingerprint()
    assert boundary_profile(PlumbingWord()).fingerprint() == lookup(
        "unknot"
    ).profile.fingerprint()
    hopf = boundary_profile(PlumbingWord((2,)))
    assert hopf.components == 2


def test_twist_knot_chain_boundaries():
    for twists, name in [
        ((2, 2, 2, 2), "5_1"),
        ((2, 4), "5_2"),
        ((2, -4), "6_1"),
        ((2, 6), "7_2"),
        ((4, 4), "7_4"),
    ]:
        got = boundary_profile(PlumbingWord(twists)).fingerprint()
        assert got == lookup(name).profile.fingerprint(), name


def test_rewrite_search_finds_the_example_chains():
    target = lookup("5_2").profile
    trace = rewrite_search(PlumbingWord((2, 2, -2, 0, 2, 2)), target)
    assert trace is not None
    assert trace.end == PlumbingWord((2, 4))
    assert trace.check_profiles()

    target = lookup("3_1").profile
    trace = rewrite_search(PlumbingWord((2, 0, 0, 2)), target)
    assert trace is not None
    assert trace.end == PlumbingWord((2, 2))

    # already minimal: empty trace
    trace = rewrite_search(PlumbingWord((2, 2)), target)
    assert trace is not None
    assert trace.steps == ()

    # 4_1 via an unstabilization chain
    trace = rewrite_search(PlumbingWord((2, -2, 0, 0)), lookup("4_1").profile)
    assert trace is not None
    assert trace.end == PlumbingWord((2, -2))


def test_rewrite_search_respects_budget():
    target = lookup("4_1").profile
    small = SearchBudget(max_length=4, max_twist=4, max_states=1)
    assert rewrite_search(PlumbingWord((2, -2, 0, 0)), target, small) is None
    assert "states" in small.describe()
    for field in ("max_length", "max_twist", "max_states"):
        with pytest.raises(ValueError, match=field):
            SearchBudget(**{field: -1})


def test_rewrite_search_cannot_change_the_boundary():
    # rules preserve the boundary, so a different target is unreachable
    target = lookup("3_1").profile
    budget = SearchBudget(max_length=6, max_twist=4, max_states=4000)
    assert rewrite_search(PlumbingWord((2, -2)), target, budget) is None


def test_rewrite_search_answers_an_unreachable_target_at_once(monkeypatch):
    def expand(twists, budget):
        raise AssertionError(f"expanded {twists}")

    monkeypatch.setattr(plumbing, "_neighbors", expand)
    # 5_2 differs from the boundary of S[2,2] (the trefoil)
    assert rewrite_search(PlumbingWord((2, 2)), lookup("5_2").profile) is None


def test_rewrite_search_builds_no_word_per_state(monkeypatch):
    built = []
    check = PlumbingWord.__post_init__

    def counting(self):
        built.append(self.twists)
        check(self)

    start = PlumbingWord((0, 2))
    monkeypatch.setattr(PlumbingWord, "__post_init__", counting)
    # the leading zero never becomes interior, so no minimal-genus word is reached
    budget = SearchBudget(max_states=2000)
    assert rewrite_search(start, lookup("unknot").profile, budget) is None
    assert built == []


def test_rewrite_search_explores_only_even_twists(monkeypatch):
    seen = []
    expand = plumbing._neighbors

    def recording(twists, budget):
        for step, nxt in expand(twists, budget):
            seen.append(nxt)
            yield step, nxt

    monkeypatch.setattr(plumbing, "_neighbors", recording)
    # an odd twist bound admits only the even twists below it
    budget = SearchBudget(max_length=5, max_twist=3, max_states=500)
    assert rewrite_search(PlumbingWord((0, 2)), lookup("unknot").profile, budget) is None
    assert seen and all(v % 2 == 0 and abs(v) <= 2 for t in seen for v in t)


def test_two_bridge_fractions_match_determinants():
    for twists, det in [
        ((2, 2), 3),
        ((2, 4), 7),
        ((2, 2, 2, 2), 5),
        ((2, -2), 5),
        ((2, 6), 11),
        ((4, 4), 15),
    ]:
        frac = two_bridge_fraction(PlumbingWord(twists))
        assert frac.p == det
        assert frac.is_knot
        assert frac.components == 1
        assert boundary_profile(PlumbingWord(twists)).determinant == det


def test_two_bridge_links_and_unlinks():
    hopf = two_bridge_fraction(PlumbingWord((2,)))
    assert hopf.p == 2 and not hopf.is_knot and hopf.components == 2
    unlink = two_bridge_fraction(PlumbingWord((0,)))
    assert unlink.p == 0
    disk = two_bridge_fraction(PlumbingWord())
    assert (disk.p, disk.q) == (1, 0)


def test_schubert_equivalence():
    assert TwoBridgeFraction(11, 2).equivalent_to(TwoBridgeFraction(11, 9))
    assert TwoBridgeFraction(11, 2).equivalent_to(TwoBridgeFraction(11, 6))
    assert not TwoBridgeFraction(11, 2).equivalent_to(TwoBridgeFraction(11, 3))
    assert not TwoBridgeFraction(11, 2).equivalent_to(TwoBridgeFraction(7, 2))
    # the 7_2 plumbing lands in the class of b(11, 2)
    frac = two_bridge_fraction(PlumbingWord((2, 6)))
    assert frac.equivalent_to(TwoBridgeFraction(11, 2))


def test_random_rule_applications_preserve_the_boundary():
    rng = random.Random(160817)
    checked = 0
    while checked < 120:
        word = random_plumbing_word(rng, max_size=6, max_twist=6)
        moves = []
        if word.size >= 1:
            moves.append(RewriteStep(RULE_STABILIZE, word.size, (rng.choice([-4, -2, 2, 4]),)))
            moves.append(RewriteStep(RULE_SPLIT, rng.randrange(word.size), (rng.choice([-2, 0, 2]),)))
        if word.size >= 2 and word.twists[-1] == 0:
            moves.append(RewriteStep(RULE_UNSTABILIZE, word.size - 2, (word.twists[-2],)))
        zeros = [i for i in range(1, word.size - 1) if word.twists[i] == 0]
        if zeros:
            moves.append(RewriteStep(RULE_MERGE, rng.choice(zeros)))
        if not moves:
            continue
        step = rng.choice(moves)
        after = apply_step(word, step)
        assert (
            boundary_profile(word).link_key()
            == boundary_profile(after).link_key()
        ), (word, step)
        checked += 1
