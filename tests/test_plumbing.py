import random
from collections import Counter, deque

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
    _column,
    _minimal_word,
    apply_step,
    boundary_profile,
    normalize,
    rewrite_search,
    star4,
)
from knotsum.table import load_table, lookup, match_profile

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
    with pytest.raises(PlumbingError, match="bad twist list"):
        PlumbingWord.parse("S[2,a]")
    # parse keeps the constructor's own refusal
    with pytest.raises(PlumbingError, match="twist 3 is odd"):
        PlumbingWord.parse("S[2,3]")
    assert not PlumbingWord((2, 0)).is_minimal_genus
    assert PlumbingWord((2, -4)).is_minimal_genus


def test_star4_concatenates():
    left = PlumbingWord.parse("S[2,2]")
    right = PlumbingWord.parse("S[2,2]")
    assert star4(left, right) == PlumbingWord.parse("S[2,2,2,2]")
    assert star4(PlumbingWord(), left) == left


def test_rule2_both_directions():
    w = PlumbingWord((2, 2))
    up = apply_step(w, RewriteStep(RULE_STABILIZE, 2, (-4,)))
    assert up == PlumbingWord((2, 2, -4, 0))
    assert apply_step(up, RewriteStep(RULE_UNSTABILIZE, 2, (-4,))) == w
    with pytest.raises(PlumbingError):
        apply_step(up, RewriteStep(RULE_UNSTABILIZE, 2, (2,)))  # removed value must match
    with pytest.raises(PlumbingError):
        apply_step(w, RewriteStep(RULE_UNSTABILIZE, 0, (2,)))  # no trailing zero
    with pytest.raises(PlumbingError):
        apply_step(w, RewriteStep(RULE_STABILIZE, 2, (3,)))


def test_rule3_merges_across_an_interior_zero():
    w = PlumbingWord((2, 0, 4))
    assert apply_step(w, RewriteStep(RULE_MERGE, 1)) == PlumbingWord((6,))
    longer = PlumbingWord((2, 2, -2, 0, 2, 2))
    assert apply_step(longer, RewriteStep(RULE_MERGE, 3)) == PlumbingWord((2, 2, 0, 2))
    with pytest.raises(PlumbingError):
        apply_step(PlumbingWord((0, 2)), RewriteStep(RULE_MERGE, 0))  # not interior
    with pytest.raises(PlumbingError):
        apply_step(PlumbingWord((2, 4, 2)), RewriteStep(RULE_MERGE, 1))  # not a zero


def test_rule3_inverse_splits():
    w = PlumbingWord((6,))
    assert apply_step(w, RewriteStep(RULE_SPLIT, 0, (2,))) == PlumbingWord((2, 0, 4))
    split = apply_step(w, RewriteStep(RULE_SPLIT, 0, (-2,)))
    assert apply_step(split, RewriteStep(RULE_MERGE, 1)) == w
    with pytest.raises(PlumbingError):
        apply_step(w, RewriteStep(RULE_SPLIT, 1, (2,)))
    with pytest.raises(PlumbingError):
        apply_step(w, RewriteStep(RULE_SPLIT, 0, (3,)))


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


def test_apply_step_checks_every_field_of_a_step():
    # S[2,0,4,6,0] takes rules 1 and 2 at 5, rule 2 inverse at 3 with
    # params (6,), rule 3 at 1 and rule 3 inverse at 0..4 with one param;
    # a position one off either way, a missing or an extra param fails, and
    # so do a param that is no int, params in a list, params that are not
    # iterable (an int, None) and a float position; the message names the
    # params as given
    word = PlumbingWord((2, 0, 4, 6, 0))
    bad = [
        RewriteStep(RULE_SUM, 4, (2,)), RewriteStep(RULE_SUM, 6, (2,)),
        RewriteStep(RULE_STABILIZE, 4, (4,)), RewriteStep(RULE_STABILIZE, 6, (4,)),
        RewriteStep(RULE_STABILIZE, 5), RewriteStep(RULE_STABILIZE, 5, (4, 2)),
        RewriteStep(RULE_UNSTABILIZE, 2, (6,)), RewriteStep(RULE_UNSTABILIZE, 4, (6,)),
        RewriteStep(RULE_UNSTABILIZE, 3), RewriteStep(RULE_UNSTABILIZE, 3, (6, 0)),
        RewriteStep(RULE_MERGE, 0), RewriteStep(RULE_MERGE, 2), RewriteStep(RULE_MERGE, 1, (0,)),
        RewriteStep(RULE_SPLIT, -1, (2,)), RewriteStep(RULE_SPLIT, 5, (2,)),
        RewriteStep(RULE_SPLIT, 2), RewriteStep(RULE_SPLIT, 2, (2, 2)),
        RewriteStep("9", 0),
        RewriteStep(RULE_SPLIT, 0, ("a",)), RewriteStep(RULE_SUM, 5, [2]),
        RewriteStep(RULE_SUM, 1, 2), RewriteStep(RULE_SUM, 5, None),
        RewriteStep(RULE_MERGE, 1.0),
    ]
    for step in bad:
        with pytest.raises(PlumbingError) as caught:
            apply_step(word, step)
        message = str(caught.value)
        assert f"rule {step.rule} " in message and f"position {step.position}," in message
        params = list(step.params) if type(step.params) in (tuple, list) else step.params
        assert message.endswith(f"params {params}")
    for step, twists in [
        (RewriteStep(RULE_SUM, 5, (2,)), (2, 0, 4, 6, 0, 2)),
        (RewriteStep(RULE_STABILIZE, 5, (4,)), (2, 0, 4, 6, 0, 4, 0)),
        (RewriteStep(RULE_UNSTABILIZE, 3, (6,)), (2, 0, 4)),
        (RewriteStep(RULE_MERGE, 1), (6, 6, 0)),
        (RewriteStep(RULE_SPLIT, 0, (2,)), (2, 0, 0, 0, 4, 6, 0)),
        (RewriteStep(RULE_SPLIT, 4, (2,)), (2, 0, 4, 6, 2, 0, -2)),
    ]:
        assert apply_step(word, step).twists == twists, step
    # a rule-2 step recorded at the wrong position no longer replays
    misplaced = RewriteTrace(
        PlumbingWord((2,)), PlumbingWord((2, 4, 0)), (RewriteStep(RULE_STABILIZE, 0, (4,)),)
    )
    with pytest.raises(PlumbingError):
        misplaced.replay()
    with pytest.raises(PlumbingError):
        misplaced.check_profiles()


def test_generated_moves_equal_the_checked_step():
    # words of up to 14 entries, twists in +-10 with zeros drawn often:
    # past the corpus of <= 6 entries and |twist| <= 6
    rng = random.Random(2029)
    evens = list(range(-10, 11, 2)) + [0] * 4
    moves = Counter()
    for _ in range(600):
        word = PlumbingWord(tuple(rng.choice(evens) for _ in range(rng.randint(0, 14))))
        budget = SearchBudget(max_length=16, max_twist=rng.choice((2, 6, 10)))
        p, q = _column(word.twists)
        generated = list(plumbing._shrinks(word.twists))
        generated += plumbing._neighbors(word.twists, budget)
        for step, twists in generated:
            assert apply_step(word, step).twists == twists, (word, step)
            assert _column(twists) in {(p, q), (-p, -q)}, (word, step)
        moves.update(step.rule for step, _ in generated)
    assert min(moves[rule] for rule in (RULE_UNSTABILIZE, RULE_MERGE)) > 50, moves
    assert sum(moves.values()) > 20_000, moves


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

    # a trailing (c, 0) pair goes before an interior zero, here and in the search
    start = PlumbingWord((2, 0, 2, 0))
    trace = normalize(start)
    assert trace.steps == (RewriteStep(RULE_UNSTABILIZE, 2, (2,)),
                           RewriteStep(RULE_UNSTABILIZE, 0, (2,)))
    assert rewrite_search(start, lookup("unknot").profile).steps == trace.steps


def test_check_profiles_builds_each_boundary_once(monkeypatch):
    seen = []
    build = plumbing.boundary_profile

    def counting(word):
        seen.append(word)
        return build(word)

    monkeypatch.setattr(plumbing, "boundary_profile", counting)
    trace = normalize(PlumbingWord((2, 2, -2, 0, 2, 0, 2, 2)))
    assert len(trace.steps) == 2  # the middle word ends one step, starts the next
    assert trace.check_profiles()
    assert seen == trace.replay()


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
    # the column (-1, -2) of S[0,2] belongs to no minimal-genus word
    assert rewrite_search(PlumbingWord((0, 2)), lookup("unknot").profile) is None


def test_rewrite_search_builds_no_word_per_state(monkeypatch):
    built = []
    check = PlumbingWord.__post_init__

    def counting(self):
        built.append(self.twists)
        check(self)

    start = PlumbingWord((2, 2, 0, 2))
    monkeypatch.setattr(PlumbingWord, "__post_init__", counting)
    # the goal S[2,4] needs a twist of 4, so the search expands states in vain
    budget = SearchBudget(max_twist=2, max_states=2000)
    assert rewrite_search(start, lookup("5_2").profile, budget) is None
    assert built == []


def test_rewrite_search_explores_only_even_twists(monkeypatch):
    seen = []
    expand = plumbing._neighbors

    def recording(twists, budget):
        for step, nxt in expand(twists, budget):
            seen.append(nxt)
            yield step, nxt

    monkeypatch.setattr(plumbing, "_neighbors", recording)
    # an odd twist bound admits only the even twists below it, so the goal
    # S[2,4] stays out of reach
    budget = SearchBudget(max_length=6, max_twist=3, max_states=500)
    assert rewrite_search(PlumbingWord((2, 2, 0, 2)), lookup("5_2").profile, budget) is None
    assert seen and all(v % 2 == 0 and abs(v) <= 2 for t in seen for v in t)


def test_two_bridge_fractions_match_determinants():
    # |p| of the continued-fraction column p/q is the boundary determinant
    for twists, det in [
        ((2, 2), 3),
        ((2, 4), 7),
        ((2, 2, 2, 2), 5),
        ((2, -2), 5),
        ((2, 6), 11),
        ((4, 4), 15),
    ]:
        p, _ = _column(twists)
        boundary = boundary_profile(PlumbingWord(twists))
        assert abs(p) == det == boundary.determinant
        assert p % 2 == 1 and boundary.components == 1


def test_two_bridge_links_and_unlinks():
    assert abs(_column((2,))[0]) == 2 and boundary_profile(PlumbingWord((2,))).components == 2
    assert _column((0,))[0] == 0 and boundary_profile(PlumbingWord((0,))).components == 2
    assert _column(()) == (1, 0)
    assert boundary_profile(PlumbingWord()).components == 1


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
        # the column is kept up to sign as exact integers, not just mod p
        p, q = _column(word.twists)
        assert _column(after.twists) in {(p, q), (-p, -q)}, (word, step)
        checked += 1


def test_minimal_word_inverts_the_column():
    evens = [v for v in range(-8, 9, 2) if v]
    words = [()]
    frontier = [()]
    for _ in range(4):
        frontier = [w + (a,) for w in frontier for a in evens]
        words += frontier
    assert len(words) == 4681
    for word in words:
        p, q = _column(word)
        assert _minimal_word(p, q) == word
        assert _minimal_word(-p, -q) == word
    assert _minimal_word(1, 2) is None  # |q| >= |p|: S[0,2] up to sign
    assert _minimal_word(3, 1) is None  # both odd: no even entry fits
    assert _minimal_word(4, 2) is None  # no word has a column with a common factor


def test_normalize_ends_at_the_minimal_word_of_the_column():
    # normalize only shrinks, by 2 a step; when the column has a minimal
    # word, normalize ends there, so rewrite_search finds that word at
    # depth (n - m) / 2 once normalize's merges fit max_twist
    rng = random.Random(100_000)
    budget = SearchBudget()
    searched = 0
    for _ in range(20_000):
        size = rng.randint(0, 10)
        start = PlumbingWord(tuple(rng.choice(range(-8, 9, 2)) for _ in range(size)))
        trace = normalize(start)
        goal = _minimal_word(*_column(start.twists))
        if goal is None:
            assert not trace.end.is_minimal_genus, start
            continue
        assert trace.end.twists == goal, start
        words = trace.replay()
        fits = all(
            abs(word.twists[step.position - 1] + word.twists[step.position + 1]) <= budget.max_twist
            for step, word in zip(trace.steps, words) if step.rule == RULE_MERGE
        )
        if trace.steps and fits and searched < 200:
            found = rewrite_search(start, boundary_profile(start), budget)
            assert found.steps == trace.steps, start
            assert 2 * len(found.steps) == start.size - len(goal)
            searched += 1
    assert searched == 200


def _reference_search(start, target, budget):
    """Rewrite search without the column: the first minimal-genus word
    whose boundary fingerprint matches the target ends it."""
    goal = target.fingerprint()
    if boundary_profile(start).fingerprint() != goal:
        return None
    if start.is_minimal_genus:
        return RewriteTrace(start=start, end=start, steps=())
    parents = {start.twists: None}
    queue = deque([start.twists])
    while queue:
        current = queue.popleft()
        for step, nxt in plumbing._neighbors(current, budget):
            if nxt in parents:
                continue
            if len(parents) >= budget.max_states:
                return None
            parents[nxt] = (current, step)
            end = PlumbingWord(nxt)
            if end.is_minimal_genus and boundary_profile(end).fingerprint() == goal:
                steps = []
                node = nxt
                while parents[node] is not None:
                    node, via = parents[node]
                    steps.append(via)
                return RewriteTrace(start=start, end=end, steps=tuple(reversed(steps)))
            queue.append(nxt)
    return None


def test_rewrite_search_agrees_with_profiling_every_candidate():
    rng = random.Random(8)
    names = tuple(load_table())
    budget = SearchBudget(max_length=7, max_twist=6, max_states=3000)
    found = 0
    for _ in range(300):
        size = rng.randint(1, 5)
        start = PlumbingWord(tuple(rng.choice((-4, -2, 0, 2, 4)) for _ in range(size)))
        own = match_profile(boundary_profile(start))
        target = lookup(own[0] if own else rng.choice(names)).profile
        expected = _reference_search(start, target, budget)
        got = rewrite_search(start, target, budget)
        if expected is None:
            assert got is None, start
            continue
        assert got is not None, start
        assert (got.end, got.steps) == (expected.end, expected.steps), start
        found += bool(got.steps)
    assert found >= 20
