"""Linear plumbings of twisted annuli and their rewrite calculus.

A word S[a1,...,an] stands for n unknotted annuli plumbed in a row, the
i-th carrying ai half-twists (all ai even).  Three moves act on words:

  rule 1   S[a...] *4 S[b...] = S[a...,b...]      (4-gon plumbing sum)
  rule 2   S[a...] = S[a..., c, 0]                 (boundary unchanged)
  rule 3   S[..., x, 0, y, ...] = S[..., x+y, ...] (boundary unchanged)

Rules 2 and 3 run both ways and never change the boundary link; rule 1
genuinely sums two surfaces. `apply_step` is the one checked step, for
replaying recorded traces; `_shrinks` and `_neighbors` generate the moves
on bare twists for normalization and the search. The surface is minimal
genus exactly when no entry is zero, so searches accept only that form.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Iterator, NamedTuple

from .profiles import InvariantProfile, profile_of_seifert_matrix
from .record import Record
from .seifert import seifert_matrix_of_plumbing

RULE_SUM = "1"
RULE_STABILIZE = "2"
RULE_MERGE = "3"
RULE_UNSTABILIZE = "2^-1"
RULE_SPLIT = "3^-1"


class PlumbingError(ValueError):
    """Malformed word or rule applied where its precondition fails."""


class PlumbingWord(Record):
    """Ordered even twist counts; the empty word is a disk."""

    __slots__ = _fields = ("twists",)

    def __init__(self, twists: tuple[int, ...] = ()) -> None:
        set_twists, set_values = self._setters
        set_twists(self, twists)
        set_values(self, (twists,))
        # a method of its own: bench/tracing.py and tests/test_plumbing.py count built
        # words by this name
        self.__post_init__()

    def __post_init__(self) -> None:
        for value in self.twists:
            if not isinstance(value, int) or isinstance(value, bool):
                raise PlumbingError(f"twist {value!r} is not an integer")
            if value % 2:
                raise PlumbingError(f"twist {value} is odd")

    @classmethod
    def parse(cls, text: str) -> PlumbingWord:
        """Read the literal "S[2,2,-2,0]" form; "S[]" is the empty word."""
        body = text.strip()
        if not body.startswith("S[") or not body.endswith("]"):
            raise PlumbingError(f"expected S[...], got {text!r}")
        inner = body[2:-1].strip()
        if not inner:
            return cls()
        try:
            twists = tuple(int(part) for part in inner.split(","))
        except ValueError as exc:
            raise PlumbingError(f"bad twist list in {text!r}") from exc
        return cls(twists)

    def format(self) -> str:
        return "S[" + ",".join(str(v) for v in self.twists) + "]"

    def __str__(self) -> str:
        return self.format()

    @property
    def size(self) -> int:
        return len(self.twists)

    @property
    def is_minimal_genus(self) -> bool:
        """Zero-twist annuli are compressible; none present means minimal."""
        return 0 not in self.twists


def star4(left: PlumbingWord, right: PlumbingWord) -> PlumbingWord:
    """Plumb two linear plumbings end to end (a 4-gon Murasugi sum).

    Unlike rules 2 and 3 this changes the boundary link.
    """
    return PlumbingWord(left.twists + right.twists)


def _merged(twists: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Rule 3 on bare twists: drop the zero at j, adding its neighbours."""
    return twists[: j - 1] + (twists[j - 1] + twists[j + 1],) + twists[j + 2 :]


def _split(twists: tuple[int, ...], j: int, x: int) -> tuple[int, ...]:
    """Rule 3 inverse on bare twists: entry c at j becomes (x, 0, c - x)."""
    return twists[:j] + (x, 0, twists[j] - x) + twists[j + 1 :]


class RewriteStep(NamedTuple):
    rule: str
    position: int
    params: tuple[int, ...] = ()


def apply_step(word: PlumbingWord, step: RewriteStep) -> PlumbingWord:
    """The one checked step: a recorded step applies only where its rule,
    position and params all fit the word. Rules 1 and 2 attach at n, rule
    2 inverse strips the trailing (a, 0) at n - 2 (params (a,)), rule 3
    merges at an interior zero (no params), and rule 3 inverse splits an
    entry 0 <= j < n at its one param. PlumbingWord refuses odd twists;
    a position or param that is no int, or params not in a tuple, fit none."""
    twists, n = word.twists, word.size
    rule, j, params = step
    if type(j) is int and type(params) is tuple and all(type(x) is int for x in params):
        if rule == RULE_SUM and j == n:
            return star4(word, PlumbingWord(params))
        if rule == RULE_STABILIZE and j == n and len(params) == 1:
            return PlumbingWord(twists + (params[0], 0))
        if rule == RULE_UNSTABILIZE and j == n - 2 >= 0 and twists[j:] == (*params, 0):
            return PlumbingWord(twists[:j])
        if rule == RULE_MERGE and 1 <= j <= n - 2 and twists[j] == 0 and not params:
            return PlumbingWord(_merged(twists, j))
        if rule == RULE_SPLIT and 0 <= j < n and len(params) == 1:
            return PlumbingWord(_split(twists, j, params[0]))
    shown = list(params) if type(params) in (tuple, list) else params
    raise PlumbingError(f"rule {rule} does not fit {word} at position {j}, params {shown}")


class RewriteTrace(NamedTuple):
    """A replayable rule sequence from start to end.

    Steps from rules 2/3 and their inverses preserve the boundary's
    invariant profile; a sum step (rule 1) changes it by design.
    """

    start: PlumbingWord
    end: PlumbingWord
    steps: tuple[RewriteStep, ...]

    def replay(self) -> list[PlumbingWord]:
        """Every word along the trace, start and end included."""
        words = [self.start]
        for step in self.steps:
            words.append(apply_step(words[-1], step))
        if words[-1] != self.end:
            raise PlumbingError(
                f"trace replay ends at {words[-1]}, recorded end is {self.end}"
            )
        return words

    def check_profiles(self) -> bool:
        """True when every non-sum step kept the boundary invariants intact.

        Compared through link_key: the surface genus may drop along the
        way, the boundary link may not change.
        """
        words = self.replay()
        key = functools.cache(lambda word: boundary_profile(word).link_key())
        return all(
            key(before) == key(after)
            for step, before, after in zip(self.steps, words, words[1:])
            if step.rule != RULE_SUM
        )


def boundary_profile(word: PlumbingWord) -> InvariantProfile:
    """Invariant profile of the plumbing's boundary link."""
    return profile_of_seifert_matrix(seifert_matrix_of_plumbing(word.twists))


def _shrinks(twists: tuple[int, ...]) -> Iterator[tuple[RewriteStep, tuple[int, ...]]]:
    """The moves that shorten bare twists by 2, keeping the boundary: removing a
    trailing (c, 0) pair first, then merging at each interior zero from the left."""
    n = len(twists)
    if n >= 2 and twists[-1] == 0:
        yield RewriteStep(RULE_UNSTABILIZE, n - 2, (twists[-2],)), twists[:-2]
    for j in range(1, n - 1):
        if twists[j] == 0:
            yield RewriteStep(RULE_MERGE, j), _merged(twists, j)


def normalize(word: PlumbingWord) -> RewriteTrace:
    """Take the first of `_shrinks` until none is left (no trailing (c, 0)
    pair, no interior zero), recording each step.

    Leading or lone zeros stay put: rule 3 needs both neighbours, and no
    rule removes them directly.
    """
    steps: list[RewriteStep] = []
    twists = word.twists
    while (move := next(_shrinks(twists), None)) is not None:
        step, twists = move
        steps.append(step)
    return RewriteTrace(start=word, end=PlumbingWord(twists), steps=tuple(steps))


class SearchBudget(Record):
    __slots__ = _fields = ("max_length", "max_twist", "max_states")

    def __init__(self, max_length: int = 10, max_twist: int = 8,
                 max_states: int = 1_000_000) -> None:
        values = (max_length, max_twist, max_states)
        for name, value in zip(self._fields, values):
            if value < 0:
                raise ValueError(f"budget {name} must be >= 0, got {value}")
        set_max_length, set_max_twist, set_max_states, set_values = self._setters
        set_max_length(self, max_length)
        set_max_twist(self, max_twist)
        set_max_states(self, max_states)
        set_values(self, values)

    def describe(self) -> str:
        return (f"length <= {self.max_length}, |twist| <= {self.max_twist}, "
                f"states <= {self.max_states}")


def _neighbors(twists: tuple[int, ...],
               budget: SearchBudget) -> Iterator[tuple[RewriteStep, tuple[int, ...]]]:
    """Every move from a word within the budget: `_shrinks` first, a merge
    only when its sum fits max_twist, then rule 2 and rule 3 inverse."""
    for step, nxt in _shrinks(twists):
        if step.rule != RULE_MERGE or abs(nxt[step.position - 1]) <= budget.max_twist:
            yield step, nxt
    n = len(twists)
    if n + 2 <= budget.max_length:
        # a plumbing carries even twists only: the even v with |v| <= max_twist
        evens = range(-(budget.max_twist // 2) * 2, budget.max_twist + 1, 2)
        for a in evens:
            yield RewriteStep(RULE_STABILIZE, n, (a,)), twists + (a, 0)
        for j in range(n):
            c = twists[j]
            for x in evens:
                if abs(c - x) <= budget.max_twist:
                    yield RewriteStep(RULE_SPLIT, j, (x,)), _split(twists, j, x)


def rewrite_search(start: PlumbingWord,
                   target: InvariantProfile,
                   budget: SearchBudget | None = None) -> RewriteTrace | None:
    """Breadth-first search through rules 2/3 for a minimal-genus word
    whose boundary matches the target profile (chirality-blind).

    The rules fix the start's column, and the column fixes the one
    minimal-genus word the start can reach (`_minimal_word`); the BFS
    walks to it only to record the trace. None is exact when that word
    does not exist (S[0,2]) or the start's boundary misses the target;
    otherwise it means the budget ran out before the word was reached
    (S[2,2,0,2] reaches S[2,4], but not under max_twist 2). Each move
    changes the length by 2 and normalize ends at that word, so the BFS
    finds it at depth (n - m)/2, from length n to m, whenever each merge
    on normalize's trace fits max_twist; then only max_states can run out.
    """
    budget = budget or SearchBudget()
    goal = _minimal_word(*_column(start.twists))
    if goal is None or boundary_profile(start).fingerprint() != target.fingerprint():
        return None

    # every visited tuple maps to (its predecessor, the step from there)
    parents: dict[tuple[int, ...], tuple[tuple[int, ...], RewriteStep] | None] = {
        start.twists: None
    }
    queue: deque[tuple[int, ...]] = deque([start.twists])
    while goal not in parents:
        if not queue:
            return None
        current = queue.popleft()
        for step, nxt in _neighbors(current, budget):
            if nxt in parents:
                continue
            if len(parents) >= budget.max_states:
                return None
            parents[nxt] = (current, step)
            if nxt == goal:
                break
            queue.append(nxt)
    steps: list[RewriteStep] = []
    node = goal
    while parents[node] is not None:
        node, via = parents[node]
        steps.append(via)
    return RewriteTrace(start=start, end=PlumbingWord(goal), steps=tuple(reversed(steps)))


def _column(twists: tuple[int, ...]) -> tuple[int, int]:
    """First column (p, q) of M(a1)...M(an), M(a) = [[-a, -1], [1, 0]];
    rules 2 and 3 change it only by sign."""
    x, y = 1, 0
    for a in reversed(twists):
        x, y = -a * x - y, x
    return x, y


def _minimal_word(p: int, q: int) -> tuple[int, ...] | None:
    """The zero-free even word with column +-(p, q), or None: its first
    entry is the even a with |p + a*q| < |q|, and the rest has column
    (q, -(p + a*q)) (uniqueness of even continued fractions)."""
    word: list[int] = []
    while q:
        a = 2 * ((q - p) // (2 * q))
        if abs(q) >= abs(p) or abs(p + a * q) >= abs(q):
            return None
        word.append(a)
        p, q = q, -(p + a * q)
    return tuple(word) if abs(p) == 1 else None
