"""Reference table of knots through 7 crossings, and the reader of the data files.

Each entry pairs a braid-word representative with literature unknotting
numbers and a cached invariant profile.  The table ships as a plain-text
file; loading recomputes every cached value and refuses to start on any
mismatch, so the data file cannot drift from the code that interprets it.
`records` and `shipped_text` read every file in knotsum/data, this table
and the distance data alike.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import Iterator, Mapping, NamedTuple

from .braid import BraidWord
from .laurent import LaurentPolynomial
from .profiles import (
    BraidInvariants,
    InvariantProfile,
    UNKNOT_PROFILE_KEY,
    profile_of_braid,
)


class TableError(ValueError):
    """Raised when the shipped table fails load-time validation."""


class KnotTableEntry(NamedTuple):
    """One reference knot: braid representative plus curated data.

    unknotting_number is literature data (see source column in the data
    file); the loader cross-checks it internally where it can.  Nakanishi
    indices live in the distance data only.
    """

    name: str
    crossings: int
    word: BraidWord
    unknotting_number: int
    unknotting_source: str
    profile: InvariantProfile


def records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, whitespace-separated fields) of each line that is not blank or a # comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split()


def shipped_text(name: str) -> str:
    """Text of a data file shipped in the knotsum.data package."""
    return resources.files("knotsum.data").joinpath(name).read_text()


def _parse_row(parts: list[str], lineno: int) -> KnotTableEntry:
    if len(parts) != 10:
        raise TableError(f"line {lineno}: expected 10 fields, got {len(parts)}")
    name, crossings, strands, word, u, usource, sigma, det, genus, alex = parts
    try:
        letters = tuple(int(v) for v in word.split(","))
        braid = BraidWord(int(strands), letters)
        cached = InvariantProfile(
            alexander=LaurentPolynomial.parse(alex),
            signature=int(sigma),
            determinant=int(det),
            canonical_genus_bound=int(genus),
            components=1,
        )
        return KnotTableEntry(
            name=name,
            crossings=int(crossings),
            word=braid,
            unknotting_number=int(u),
            unknotting_source=usource,
            profile=cached,
        )
    except (ValueError, TypeError) as exc:
        raise TableError(f"line {lineno}: {exc}") from exc


def _single_flip_unknots(word: BraidWord) -> bool:
    for i in range(len(word.letters)):
        letters = list(word.letters)
        letters[i] = -letters[i]
        if BraidInvariants(BraidWord(word.strands, tuple(letters))).matches(UNKNOT_PROFILE_KEY):
            return True
    return False


def _validate(entries: list[KnotTableEntry]) -> dict[tuple, str]:
    """Check every entry; return the fingerprint -> name index."""
    seen: dict[tuple, str] = {}
    names: set[str] = set()
    for entry in entries:
        if entry.name in names:
            raise TableError(f"{entry.name}: duplicate name")
        names.add(entry.name)

        recomputed = profile_of_braid(entry.word)
        if recomputed != entry.profile:
            raise TableError(
                f"{entry.name}: cached profile disagrees with recomputation "
                f"(cached {entry.profile.serialize()}, got {recomputed.serialize()})"
            )
        if not recomputed.is_knot:
            raise TableError(f"{entry.name}: closure is not a knot")

        key = entry.profile.fingerprint()
        if key in seen:
            raise TableError(
                f"{entry.name}: fingerprint collides with {seen[key]}"
            )
        seen[key] = entry.name

        # u >= |sigma|/2 always; u = 1 rows must expose a one-flip unknotting.
        if 2 * entry.unknotting_number < abs(entry.profile.signature):
            raise TableError(
                f"{entry.name}: u={entry.unknotting_number} below signature bound"
            )
        if entry.unknotting_number == 0:
            if key != UNKNOT_PROFILE_KEY:
                raise TableError(f"{entry.name}: u=0 but profile is nontrivial")
        elif entry.unknotting_number == 1:
            if not _single_flip_unknots(entry.word):
                raise TableError(
                    f"{entry.name}: u=1 but no single letter flip trivializes"
                )
    return seen


@functools.lru_cache(maxsize=1)
def _load() -> tuple[Mapping[str, KnotTableEntry], Mapping[tuple, str]]:
    entries = [_parse_row(parts, lineno) for lineno, parts in records(shipped_text("knots.txt"))]
    if not entries:
        raise TableError("table file holds no entries")
    return {e.name: e for e in entries}, _validate(entries)


def load_table() -> Mapping[str, KnotTableEntry]:
    """All entries keyed by name, validated once per process."""
    return _load()[0]


def lookup(name: str) -> KnotTableEntry:
    """Entry for a table knot; unknown names raise KeyError."""
    table = load_table()
    if name not in table:
        raise KeyError(f"unknown knot name: {name}")
    return table[name]


def match_profile(profile: InvariantProfile) -> list[str]:
    """Table names whose invariants match, ignoring chirality.

    One lookup of profile.fingerprint() in the index that load-time
    validation builds, so the Alexander polynomial matches up to units and
    the t -> 1/t flip. A link's polynomial vanishes at t = 1 and no knot's
    does, so a link profile matches no name. Table fingerprints are
    unique, so at most one name comes back; none is a valid answer.
    """
    name = _load()[1].get(profile.fingerprint())
    return [name] if name else []
