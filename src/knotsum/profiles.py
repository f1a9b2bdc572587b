"""Invariant profiles: the (Alexander, signature, determinant, genus) fingerprint.

A profile is the unit of comparison everywhere else: boundary
identification for plumbings, connected-sum certification for distance
bounds, and witness checking for the triple search all reduce to
comparing profiles. The signature and determinant always come from the
Seifert matrix. A braid's Alexander polynomial comes from whichever route
is cheaper for the word's shape: the reduced Burau route for long words on
few strands, the Seifert pencil det(V - t*V^T) otherwise. A plumbing has no
braid, so its profile always takes the pencil. On a Burau-routed word every
profile still checks |Delta(-1)| against the surface's det(V + V^T), two
independent routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .braid import BraidWord, _free_reduced, closure_data
from .burau import alexander_via_burau
from .laurent import LaurentPolynomial
from .seifert import SeifertMatrix, seifert_matrix_of_braid


@dataclass(frozen=True)
class InvariantProfile:
    alexander: LaurentPolynomial
    signature: int
    determinant: int
    canonical_genus_bound: int
    components: int

    def __post_init__(self) -> None:
        if self.determinant != abs(self.alexander.at_minus_one()):
            raise ValueError("determinant must equal |alexander(-1)|")
        if self.components == 1 and self.signature % 2 != 0:
            raise ValueError("knot signatures are even under this convention")

    @property
    def is_knot(self) -> bool:
        return self.components == 1

    def fingerprint(self) -> tuple[LaurentPolynomial, int, int, int]:
        """The identification key: (normalized Alexander polynomial,
        |signature|, determinant, components).

        Chirality-blind: mirroring flips the signature sign, and the
        normalized polynomial is fixed under t -> 1/t up to units.
        """
        return (
            self.alexander.normalized(), abs(self.signature), self.determinant, self.components
        )

    def link_key(self) -> tuple[LaurentPolynomial, int, int, int]:
        """Boundary-link invariants only; drops the surface genus bound.

        Two Seifert surfaces of one link can have different genus, so
        moves that keep the boundary fixed are checked against this key.
        """
        return (self.alexander, self.signature, self.determinant, self.components)

    def serialize(self) -> dict[str, object]:
        return {
            "alexander": self.alexander.serialize(),
            "alexander_pretty": self.alexander.pretty(),
            "signature": self.signature,
            "determinant": self.determinant,
            "canonical_genus_bound": self.canonical_genus_bound,
            "components": self.components,
        }


def canonical_genus_bound(word: BraidWord, components: int) -> int:
    """Total genus of the canonical surface of the free-reduced word.

    From 2g = 2s - euler_char - boundary_components with s the number of
    surface pieces. For a knot this is the usual (letters - strands + 1) / 2.
    It depends on the word, not only on its conjugacy class: only free
    reduction is applied, since stripping an x ... x^-1 pair from the ends
    of the word can change it.
    """
    reduced = _free_reduced(word.letters)
    pieces = word.strands - len({abs(v) for v in reduced})
    genus2 = 2 * pieces - (word.strands - len(reduced)) - components
    return max(0, genus2) // 2


def _takes_burau_route(word: BraidWord) -> bool:
    """Whether the closure's Alexander polynomial is cheaper by Burau than by the pencil.

    The pencil det(V - t*V^T) has about one row per letter, and its integers
    widen with the word, so its cost grows about 34x per doubling of the
    word. Burau's cost grows with the strands of the largest summand left
    once the word is cut at the generators it uses once: a product and a
    determinant on about (summand strands - 1)^2 entries. The rule still
    reads the raw shape, as the fits below were timed on uncut words: on 2-40
    strands and up to 256 letters, Burau wins from about 6 * (strands - 1)
    letters on few strands, and from more as the strands grow; the quadratic
    term keeps the rule on the pencil's side of that curve (12 letters on 3
    strands, 152 on 20, none of up to 256 letters on 32 or more).
    """
    return 8 * len(word.letters) >= (word.strands - 1) * (word.strands + 44)


class BraidInvariants:
    """One braid closure: its components, its lazy Seifert matrix, which caches the
    signature and determinant, its Alexander polynomial, by the route the word's
    shape picks, and its per-word profiles. Every invariant but the genus bound is
    fixed on a conjugacy class, so one record serves the whole class.
    """

    def __init__(self, word: BraidWord) -> None:
        self.word = word
        self.closure = closure_data(word)
        self.components = self.closure.components
        self._profiles: dict[int, InvariantProfile] = {}  # by genus bound

    @cached_property
    def matrix(self) -> SeifertMatrix:
        return seifert_matrix_of_braid(self.word)

    @cached_property
    def alexander(self) -> LaurentPolynomial:
        """Normalized Alexander polynomial, computed once, by Burau or by the pencil."""
        if _takes_burau_route(self.word):
            return alexander_via_burau(self.word)
        return self.matrix.alexander()

    def matches(self, key: tuple[LaurentPolynomial, int, int, int]) -> bool:
        """Whether the closure has this fingerprint() key.

        Checks components, then the matrix's determinant and |signature|, then
        the Alexander polynomial, stopping at the first miss: a link builds no
        matrix, and a miss before the Alexander polynomial computes none.
        """
        alexander, signature, determinant, components = key
        return (
            self.components == components
            and self.matrix.determinant_invariant() == determinant
            and abs(self.matrix.signature()) == signature
            and self.alexander == alexander
        )

    def profile(self, word: BraidWord) -> InvariantProfile:
        """Profile of a word of this record's class. Only the genus bound is read
        off the word itself, so one profile is built per genus bound and shared by
        every word that has it."""
        genus_bound = canonical_genus_bound(word, self.components)
        profile = self._profiles.get(genus_bound)
        if profile is None:
            profile = self._profiles[genus_bound] = _profile(
                self.matrix, self.alexander, genus_bound, self.components
            )
        return profile


def _profile(matrix: SeifertMatrix, alexander: LaurentPolynomial, genus_bound: int,
             components: int) -> InvariantProfile:
    """The profile of a form with this Alexander polynomial; InvariantProfile checks
    det(V + V^T) against it at -1."""
    return InvariantProfile(
        alexander=alexander,
        signature=matrix.signature(),
        determinant=matrix.determinant_invariant(),
        canonical_genus_bound=genus_bound,
        components=components,
    )


def profile_of_braid(word: BraidWord) -> InvariantProfile:
    """Profile of the braid closure, with the word's canonical genus bound."""
    return BraidInvariants(word).profile(word)


def profile_of_seifert_matrix(matrix: SeifertMatrix) -> InvariantProfile:
    """Profile read off a connected-surface Seifert matrix.

    The component count is the parity of det(V + V^T) = det(V - V^T) mod 2,
    the intersection form's determinant: +-1 for a knot, 0 for a link (a
    linear plumbing bounds at most 2 components). The genus bound takes
    the matrix size as the plumbing length.
    """
    components = 1 if matrix.determinant_invariant() % 2 == 1 else 2
    return _profile(
        matrix, matrix.alexander(), max(0, matrix.size - components + 1) // 2, components
    )


def identify(p: InvariantProfile) -> list[str]:
    """Table names matching the profile, chirality-blind. Knots only."""
    if not p.is_knot:
        raise ValueError("identify accepts knot profiles only")
    from .table import match_profile

    return match_profile(p)


# The unknot's fingerprint(): necessary conditions only, no unknot detection claim.
UNKNOT_PROFILE_KEY = (LaurentPolynomial.constant(1), 0, 1, 1)
