"""Invariant profiles: the (Alexander, signature, determinant, genus) fingerprint.

A profile is the unit of comparison everywhere else: boundary
identification for plumbings, connected-sum certification for distance
bounds, and witness checking for the triple search all reduce to
comparing profiles. Profiles are computed through the Seifert-matrix
route; the Burau route stays an independent oracle for the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, closure_data, free_reduce
from .laurent import LaurentPolynomial
from .seifert import SeifertMatrix, alexander_of_surface, seifert_matrix_of_braid


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
        """Chirality-blind key: mirroring flips the signature sign only."""
        return (self.alexander, abs(self.signature), self.determinant, self.components)

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


def profile_of_braid(word: BraidWord) -> InvariantProfile:
    """Profile of the braid closure.

    The genus bound is the total genus of the canonical surface of the
    free-reduced word, from 2g = 2s - euler_char - boundary_components
    with s the number of surface pieces. For a knot this is the usual
    (letters - strands + 1) / 2.
    """
    matrix = seifert_matrix_of_braid(word)
    alexander = alexander_of_surface(word, matrix)
    # free reduction keeps the permutation, so the component count carries over
    components = closure_data(word).components
    reduced = free_reduce(word)
    pieces = reduced.strands - len({abs(v) for v in reduced.letters})
    genus2 = 2 * pieces - (reduced.strands - len(reduced.letters)) - components
    return InvariantProfile(
        alexander=alexander,
        signature=matrix.signature(),
        determinant=abs(alexander.at_minus_one()),
        canonical_genus_bound=max(0, genus2) // 2,
        components=components,
    )


def profile_of_seifert_matrix(matrix: SeifertMatrix) -> InvariantProfile:
    """Profile read off a connected-surface Seifert matrix.

    Component count comes from the intersection form: it is unimodular
    exactly for knots, and a linear plumbing bounds a 2-component link
    otherwise. The genus bound takes the matrix size as the plumbing
    length.
    """
    alexander = matrix.alexander()
    determinant = abs(alexander.at_minus_one())
    components = 1 if determinant % 2 == 1 else 2
    return InvariantProfile(
        alexander=alexander,
        signature=matrix.signature(),
        determinant=determinant,
        canonical_genus_bound=max(0, matrix.size - components + 1) // 2,
        components=components,
    )


def identify(p: InvariantProfile) -> list[str]:
    """Table names matching the profile, chirality-blind. Knots only."""
    if not p.is_knot:
        raise ValueError("identify accepts knot profiles only")
    from .table import match_profile

    return match_profile(p)


UNKNOT_PROFILE_KEY = (LaurentPolynomial.constant(1), 0, 1, 1)


def is_unknot_consistent(p: InvariantProfile) -> bool:
    """Necessary conditions only; no unknot detection claim."""
    return p.fingerprint() == UNKNOT_PROFILE_KEY
