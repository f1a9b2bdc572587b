"""End-to-end acceptance suite, one test per advertised guarantee.

Every test prints a single "criterion N: PASS/FAIL" line and pins its
expected values exactly; all compared quantities are integers or exact
polynomials, so there are no tolerances to tune.
"""

import json
import random

import pytest

import corpus
from knotsum.braid import murasugi_concat, split_braid
from knotsum.burau import alexander_via_burau
from knotsum.cli import main
from knotsum.distances import (
    dm_interval,
    gon_merge,
    plan_triple_sum,
)
from knotsum.laurent import ONE
from knotsum.plumbing import (
    RULE_MERGE,
    RULE_SPLIT,
    RULE_STABILIZE,
    RULE_UNSTABILIZE,
    PlumbingWord,
    RewriteStep,
    apply_step,
    boundary_profile,
    normalize,
    star4,
)
from knotsum.profiles import UNKNOT_PROFILE_KEY, identify, profile_of_braid
from knotsum.seifert import alexander_of_braid, seifert_matrix_of_braid
from knotsum.surgery import (
    apply_crossing_changes,
    search_triples,
    unknotting_crossing_set,
)
from knotsum.table import load_table

CORPUS_SEED = 20260817


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def knot_corpus():
    """All table representatives plus 200 seeded random knot closures."""
    table_words = [entry.word for entry in load_table().values()]
    return table_words + corpus.random_knot_words(CORPUS_SEED, 200)


# --- criterion 1: the five pinned distance intervals -----------------------

INTERVALS = {
    ("3_1", "3_1", "3_1"): (4, 4),
    ("3_1", "3_1", "unknot"): (6, 6),
    ("3_1", "3_1", "4_1"): (6, 6),
    ("3_1", "3_1", "5_1"): (4, 6),
    ("3_1", "3_1", "5_2"): (4, 6),
}


def test_criterion_1_distance_interval_table(capsys):
    got = {}
    for (k1, k2, k3), expected in INTERVALS.items():
        code = main(["dm-bounds", k1, k2, k3, "--format", "structured"])
        payload = json.loads(capsys.readouterr().out)
        got[(k1, k2, k3)] = (code, payload["lower"], payload["upper"])
    ok = all(got[key] == (0, *INTERVALS[key]) for key in INTERVALS)
    with capsys.disabled():
        report(1, ok, "five dm-bounds intervals, zero tolerance")
    assert ok, got


# --- criterion 2: plumbing calculus replay ----------------------------------


def test_criterion_2_plumbing_chain_replay():
    checks = {}

    fused = star4(PlumbingWord((2, 2)), PlumbingWord((2, 2)))
    checks["fuse word"] = fused == PlumbingWord((2, 2, 2, 2))
    checks["fuse boundary"] = identify(boundary_profile(fused)) == ["5_1"]

    mixed = star4(PlumbingWord((2, 2, -2, 0)), PlumbingWord((2, 2)))
    checks["mixed word"] = mixed == PlumbingWord((2, 2, -2, 0, 2, 2))
    trace = normalize(mixed)
    checks["mixed rewrite"] = trace.end == PlumbingWord((2, 4))
    checks["mixed profiles"] = trace.check_profiles()
    checks["mixed boundary"] = identify(boundary_profile(trace.end)) == ["5_2"]

    chain_a = normalize(PlumbingWord((2, 0, 0, 2)))
    checks["chain a end"] = chain_a.end == PlumbingWord((2, 2))
    checks["chain a profiles"] = chain_a.check_profiles()
    checks["chain a boundary"] = identify(boundary_profile(chain_a.end)) == ["3_1"]

    # one merge, not normalize: the full normalizer would go on to strip
    # the trailing (2, 0) pair, and the chain under test stops at S[2,0]
    chain_b_start = PlumbingWord((2, -2, 0, 2))
    chain_b_end = apply_step(chain_b_start, RewriteStep(RULE_MERGE, 2))
    checks["chain b end"] = chain_b_end == PlumbingWord((2, 0))
    checks["chain b profiles"] = (
        boundary_profile(chain_b_start).link_key()
        == boundary_profile(chain_b_end).link_key()
    )
    checks["chain b boundary"] = (
        boundary_profile(chain_b_end).fingerprint() == UNKNOT_PROFILE_KEY
    )

    ok = all(checks.values())
    report(2, ok, "fusion and rewrite chains land on the exact words")
    assert ok, {k: v for k, v in checks.items() if not v}


# --- criterion 3: the 9_1 obstruction ---------------------------------------


def test_criterion_3_nine_one_obstruction():
    interval = dm_interval("3_1", "3_1", "9_1")
    ok = interval.lower >= 6
    report(3, ok, f"lower bound for (3_1, 3_1; 9_1) is {interval.lower}, needs >= 6")
    assert ok, [entry._asdict() for entry in interval.derivation]


# --- criterion 4: gon merge arithmetic --------------------------------------


def test_criterion_4_gon_merge_arithmetic():
    merged = gon_merge([4, 4], knot_boundary=True)
    plan = plan_triple_sum("3_1", "3_1", "4_1")
    upper = dm_interval("3_1", "3_1", "4_1").upper
    ok = (
        merged == 6
        and (plan.p, plan.q) == (1, 1)
        and plan.final_gon == 6
        and upper == 2 * (plan.p + plan.q + 1)
    )
    report(4, ok, "two 4-gons merge to 6 and the planned sum meets 2(p+q+1)")
    assert ok, (merged, plan.p, plan.q, plan.final_gon, upper)


# --- criterion 5: walk-selected flips trivialize everything -----------------


def test_criterion_5_walk_flips_trivialize(knot_corpus):
    failures = []
    for word in knot_corpus:
        positions = unknotting_crossing_set(word)
        flipped = apply_crossing_changes(word, positions).word
        p = profile_of_braid(flipped)
        if not (p.alexander == ONE and p.signature == 0 and p.determinant == 1):
            failures.append(word)
    ok = not failures
    report(5, ok, f"{len(knot_corpus)} corpus words, {len(failures)} bad flips")
    assert ok, failures[:5]


# --- criterion 6: dual-route invariant agreement ----------------------------


def test_criterion_6_dual_route_oracles(knot_corpus):
    failures = []
    for word in knot_corpus:
        via_seifert = alexander_of_braid(word).normalized()
        via_burau = alexander_via_burau(word).normalized()
        if via_seifert != via_burau:
            failures.append((word, "alexander routes disagree"))
            continue
        if abs(via_seifert.at_one()) != 1:
            failures.append((word, "alexander at 1 is not a unit"))
        det = seifert_matrix_of_braid(word).determinant_invariant()
        if det != abs(via_seifert.at_minus_one()):
            failures.append((word, "determinant routes disagree"))
    ok = not failures
    report(6, ok, f"{len(knot_corpus)} corpus words, {len(failures)} mismatches")
    assert ok, failures[:5]


# --- criterion 7: split inverts concat ---------------------------------------


def test_criterion_7_split_inverts_concat():
    rng = random.Random(CORPUS_SEED + 7)
    failures = []
    for _ in range(500):
        w1 = corpus.random_braid_word(rng, max_strands=4, max_letters=6)
        w2 = corpus.random_braid_word(rng, max_strands=4, max_letters=6)
        total = len(w1.letters) + len(w2.letters)
        shuffle = [0] * total
        for pos in rng.sample(range(total), len(w2.letters)):
            shuffle[pos] = 1
        comp = murasugi_concat(w1, w2, shuffle)
        expected_gon = 2 * (w1.index_count(w1.strands - 1) + w2.index_count(1))
        if split_braid(comp.word, comp.split_index) != (w2, w1):
            failures.append((w1, w2, shuffle, "split missed the factors"))
        elif comp.gon_size != expected_gon:
            failures.append((w1, w2, shuffle, "gon size off"))
    ok = not failures
    report(7, ok, f"500 shuffled concatenations, {len(failures)} failures")
    assert ok, failures[:3]


# --- criterion 8: witness search for (unknot, unknot; 3_1) -------------------


def test_criterion_8_witness_search():
    witnesses = search_triples(("unknot", "unknot", "3_1"))
    bad = []
    for w in witnesses:
        lower = dm_interval(*w.names).lower
        if w.gon_size < lower:
            bad.append((w.names, w.gon_size, lower))
    ok = bool(witnesses) and not bad
    report(8, ok, f"{len(witnesses)} witnesses, all gons above their lower bounds")
    assert ok, (len(witnesses), bad)


# --- criterion 9: rewrites never move the boundary ---------------------------


def _random_move_pairs(word, rng):
    """Legal (apply, invert) closures for one random move of each kind."""
    moves = []
    a = rng.choice((-4, -2, 0, 2, 4))
    moves.append((
        lambda w, a=a: apply_step(w, RewriteStep(RULE_STABILIZE, w.size, (a,))),
        lambda w, a=a: apply_step(w, RewriteStep(RULE_UNSTABILIZE, w.size - 2, (a,))),
    ))
    if word.size >= 2 and word.twists[-1] == 0:
        c = word.twists[-2]
        moves.append((
            lambda w, c=c: apply_step(w, RewriteStep(RULE_UNSTABILIZE, w.size - 2, (c,))),
            lambda w, c=c: apply_step(w, RewriteStep(RULE_STABILIZE, w.size, (c,))),
        ))
    zeros = [j for j in range(1, word.size - 1) if word.twists[j] == 0]
    if zeros:
        j = rng.choice(zeros)
        x = word.twists[j - 1]
        moves.append((
            lambda w, j=j: apply_step(w, RewriteStep(RULE_MERGE, j)),
            lambda w, j=j, x=x: apply_step(w, RewriteStep(RULE_SPLIT, j - 1, (x,))),
        ))
    if word.size >= 1:
        pos = rng.randrange(word.size)
        x = rng.choice((-4, -2, 0, 2, 4))
        moves.append((
            lambda w, pos=pos, x=x: apply_step(w, RewriteStep(RULE_SPLIT, pos, (x,))),
            lambda w, pos=pos: apply_step(w, RewriteStep(RULE_MERGE, pos + 1)),
        ))
    return moves


def test_criterion_9_rewrites_preserve_boundary():
    rng = random.Random(CORPUS_SEED + 9)
    applications = 0
    failures = []
    while applications < 1000:
        word = corpus.random_plumbing_word(rng, max_size=6, max_twist=6)
        apply_move, invert_move = rng.choice(_random_move_pairs(word, rng))
        after = apply_move(word)
        applications += 1
        before_key = boundary_profile(word).link_key()
        if boundary_profile(after).link_key() != before_key:
            failures.append((word, after, "boundary moved"))
        back = invert_move(after)
        applications += 1
        if back != word:
            failures.append((word, after, "inversion missed the start"))
    ok = not failures
    report(9, ok, f"{applications} rule applications, {len(failures)} violations")
    assert ok, failures[:3]
