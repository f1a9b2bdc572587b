"""Certified two-sided bounds for the minimal Murasugi-sum size d_M.

d_M(K1, K2; K3) is the smallest even m such that K3 bounds an m-gon
Murasugi sum of Seifert surfaces for K1 and K2. Nothing here computes it
outright; instead, invariants push the value up from below (signature,
connected-sum distinctness, curated band-surgery data) and explicit
constructions press down from above (band-twist chains through curated
distances or unknotting numbers). Every emitted number carries its
derivation.

Curated distances live in a plain-text data file; the shipped defaults
record only facts witnessed elsewhere in the toolkit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .profiles import InvariantProfile
from .surgery import SIDE_NEGATIVE, SIDE_POSITIVE, TwistAnnulus
from .table import load_table

KIND_BAND_TWIST = "d_bt"
KIND_GORDIAN = "d_G"
KIND_COHERENT_BAND = "d_cb"
_KINDS = (KIND_BAND_TWIST, KIND_GORDIAN, KIND_COHERENT_BAND)

STATUS_EQUAL = "certified_equal"
STATUS_DISTINCT = "certified_distinct"
STATUS_UNDETERMINED = "undetermined"

_DATA_PACKAGE = "knotsum.data"
_DATA_FILE = "distances.txt"


class DistanceDataError(ValueError):
    """Malformed or inconsistent distance data."""


@dataclass(frozen=True)
class KnotRecord:
    name: str
    u: int
    e: int | None


def composite_name(a: str, b: str) -> str:
    """Canonical name for the connected sum: summands sorted, joined by #."""
    return "#".join(sorted((a, b)))


@dataclass(frozen=True)
class DistanceData:
    """Immutable snapshot of per-knot and per-pair curated values."""

    knots: Mapping[str, KnotRecord]
    pairs: Mapping[tuple[str, str], Mapping[str, tuple[int, str]]]

    def u_of(self, name: str) -> int | None:
        rec = self.knots.get(name)
        return rec.u if rec else None

    def e_of(self, name: str) -> int | None:
        rec = self.knots.get(name)
        return rec.e if rec else None

    def pair_value(self, a: str, b: str, kind: str) -> tuple[int, str] | None:
        return self.pairs.get(tuple(sorted((a, b))), {}).get(kind)


def _parse(text: str) -> DistanceData:
    """Parse and validate the records of one data file."""
    knots: dict[str, KnotRecord] = {}
    pairs: dict[tuple[str, str], dict[str, tuple[int, str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "knot":
            if len(parts) != 4:
                raise DistanceDataError(f"line {lineno}: knot record needs 3 fields")
            name, u_text, e_text = parts[1], parts[2], parts[3]
            if name in knots:
                raise DistanceDataError(f"line {lineno}: duplicate knot {name}")
            try:
                u = int(u_text)
                e = None if e_text == "-" else int(e_text)
            except ValueError as exc:
                raise DistanceDataError(f"line {lineno}: {exc}") from exc
            if u < 0 or (e is not None and e < 0):
                raise DistanceDataError(f"line {lineno}: negative value")
            knots[name] = KnotRecord(name, u, e)
        elif parts[0] == "pair":
            if len(parts) < 6:
                raise DistanceDataError(f"line {lineno}: pair record needs 5+ fields")
            a, b, kind, value_text = parts[1], parts[2], parts[3], parts[4]
            source = " ".join(parts[5:])
            if a == b:
                raise DistanceDataError(f"line {lineno}: pair of a knot with itself")
            if kind not in _KINDS:
                raise DistanceDataError(f"line {lineno}: unknown kind {kind}")
            try:
                value = int(value_text)
            except ValueError as exc:
                raise DistanceDataError(f"line {lineno}: {exc}") from exc
            if value < 0:
                raise DistanceDataError(f"line {lineno}: negative distance")
            if kind == KIND_COHERENT_BAND and value % 2:
                raise DistanceDataError(
                    f"line {lineno}: {KIND_COHERENT_BAND} between knots must be even"
                )
            key = tuple(sorted((a, b)))
            bucket = pairs.setdefault(key, {})
            if kind in bucket:
                raise DistanceDataError(f"line {lineno}: duplicate {kind} for {key}")
            bucket[kind] = (value, source)
        else:
            raise DistanceDataError(f"line {lineno}: unknown record {parts[0]!r}")
    _validate(knots, pairs)
    return DistanceData(knots=knots, pairs=pairs)


def _validate(knots: dict[str, KnotRecord], pairs: dict) -> None:
    table = load_table()
    for name, rec in knots.items():
        if name in table and rec.u != table[name].unknotting_number:
            raise DistanceDataError(
                f"{name}: file says u={rec.u}, table says "
                f"u={table[name].unknotting_number}"
            )
    for name in table:
        knots.setdefault(
            name, KnotRecord(name, table[name].unknotting_number, None)
        )
    for (a, b), bucket in pairs.items():
        for endpoint in (a, b):
            base_names = endpoint.split("#")
            for piece in base_names:
                if piece not in knots:
                    raise DistanceDataError(
                        f"pair ({a}, {b}) references unknown knot {piece}"
                    )
        bt = bucket.get(KIND_BAND_TWIST)
        dg = bucket.get(KIND_GORDIAN)
        if bt and dg and bt[0] > dg[0]:
            raise DistanceDataError(
                f"pair ({a}, {b}): d_bt={bt[0]} exceeds d_G={dg[0]}"
            )
        ua, ub = knots.get(a), knots.get(b)
        if ua and ub and "#" not in a and "#" not in b:
            cap = ua.u + ub.u
            for kind in (KIND_BAND_TWIST, KIND_GORDIAN):
                got = bucket.get(kind)
                if got and got[0] > cap:
                    raise DistanceDataError(
                        f"pair ({a}, {b}): {kind}={got[0]} exceeds u+u'={cap}"
                    )


def load_distance_data(path: str | Path | None = None) -> DistanceData:
    """Parse and validate a data file; default is the shipped snapshot."""
    if path is None:
        return _load_default()
    return _parse(Path(path).read_text())


@functools.lru_cache(maxsize=1)
def _load_default() -> DistanceData:
    return _parse(resources.files(_DATA_PACKAGE).joinpath(_DATA_FILE).read_text())


class DerivationEntry(NamedTuple):
    """One bound or note: its name, value (None for notes), and inputs."""

    name: str
    value: int | None
    inputs: str

    def serialize(self) -> dict[str, object]:
        return {"name": self.name, "value": self.value, "inputs": self.inputs}


@dataclass(frozen=True)
class _Resolved:
    name: str | None
    profile: InvariantProfile


def _resolve(knot: str | InvariantProfile) -> _Resolved:
    if isinstance(knot, str):
        table = load_table()
        if knot not in table:
            raise KeyError(f"unknown knot name: {knot}")
        return _Resolved(name=knot, profile=table[knot].profile)
    if isinstance(knot, InvariantProfile):
        return _Resolved(name=None, profile=knot)
    raise TypeError(f"expected knot name or profile, got {type(knot).__name__}")


def _sum_status(r1: _Resolved, r2: _Resolved, r3: _Resolved) -> tuple[str, str]:
    if r1.name and r2.name and r3.name:
        if r1.name == "unknot" and r3.name == r2.name:
            return STATUS_EQUAL, f"{r3.name} = unknot # {r2.name}"
        if r2.name == "unknot" and r3.name == r1.name:
            return STATUS_EQUAL, f"{r3.name} = {r1.name} # unknot"
    p1, p2, p3 = r1.profile, r2.profile, r3.profile
    if p3.signature != p1.signature + p2.signature:
        return STATUS_DISTINCT, "signature is not additive for this triple"
    if p3.determinant != p1.determinant * p2.determinant:
        return STATUS_DISTINCT, "determinant is not multiplicative for this triple"
    product = (p1.alexander * p2.alexander).normalized()
    if p3.alexander.normalized() != product:
        return STATUS_DISTINCT, "alexander polynomial is not multiplicative"
    return (
        STATUS_UNDETERMINED,
        "all invariant checks match; equality of K3 and K1 # K2 is beyond invariants",
    )


def connected_sum_status(
    k1: str | InvariantProfile,
    k2: str | InvariantProfile,
    k3: str | InvariantProfile,
) -> tuple[str, str]:
    """(status, note) for whether K3 can be the connected sum K1 # K2."""
    return _sum_status(_resolve(k1), _resolve(k2), _resolve(k3))


def _lower(r1: _Resolved, r2: _Resolved, r3: _Resolved,
           data: DistanceData) -> tuple[int, str, tuple[DerivationEntry, ...]]:
    s1, s2, s3 = (r.profile.signature for r in (r1, r2, r3))
    derivation: list[DerivationEntry] = []
    sig = abs(s1 + s2 - s3) + 2
    if sig % 2:
        sig += 1
    derivation.append(DerivationEntry(
        "signature_bound", sig, f"|({s1}) + ({s2}) - ({s3})| + 2, evened up"
    ))
    candidates = [sig]

    status, note = _sum_status(r1, r2, r3)
    derivation.append(DerivationEntry("connected_sum_status", None, f"{status}: {note}"))
    if status == STATUS_DISTINCT:
        candidates.append(4)
        derivation.append(DerivationEntry(
            "distinctness_bound", 4,
            "K3 is not K1 # K2, so one coherent band is not enough: d_cb >= 2",
        ))

    if r1.name and r2.name and r3.name:
        comp = composite_name(r1.name, r2.name)
        curated = data.pair_value(comp, r3.name, KIND_COHERENT_BAND)
        if curated:
            value, source = curated
            candidates.append(value + 2)
            derivation.append(DerivationEntry(
                "curated_band_surgery_bound", value + 2,
                f"d_cb({comp}, {r3.name}) = {value} [{source}]",
            ))
        e3 = data.e_of(r3.name)
        e_comp = data.e_of(comp)
        if e_comp is not None and e3 is not None:
            value = abs(e_comp - e3) + 2
            candidates.append(value)
            derivation.append(DerivationEntry(
                "nakanishi_bound", value,
                f"|e({comp}) - e({r3.name})| + 2 = |{e_comp} - {e3}| + 2",
            ))
        elif e3 is not None:
            e1, e2 = data.e_of(r1.name), data.e_of(r2.name)
            if e1 is not None and e2 is not None and max(e1, e2) > e3:
                value = max(e1, e2) - e3 + 2
                candidates.append(value)
                derivation.append(DerivationEntry(
                    "nakanishi_summand_bound", value,
                    f"e({comp}) >= max({e1}, {e2}) conservatively; minus e={e3}, plus 2",
                ))

    derivation.append(DerivationEntry(
        "split_link_bound", None,
        "d_cb(K1 u K2, K3) + 1 is dominated by the connected-sum bound; not computed",
    ))
    return max(candidates), status, tuple(derivation)


def _band_twist_estimate(data: DistanceData, a: str, b: str) -> tuple[int, str] | None:
    if a == b:
        return 0, "identical knots"
    curated = data.pair_value(a, b, KIND_BAND_TWIST)
    if curated:
        return curated[0], f"curated d_bt [{curated[1]}]"
    gordian = data.pair_value(a, b, KIND_GORDIAN)
    if gordian:
        return gordian[0], f"d_G [{gordian[1]}]; each crossing change is one band twist"
    ua, ub = data.u_of(a), data.u_of(b)
    if ua is not None and ub is not None:
        return ua + ub, f"u({a}) + u({b}) = {ua} + {ub}, unknotting both"
    return None


def _score_roles(data: DistanceData, k1: str, k2: str, k3: str):
    """Yield (twisted, trivialized, p, q, gon) for both role assignments.

    p band twists send the twisted knot to K3 and q send the other to the
    unknot; gon is 2(p + q + 1), or None when an estimate is missing.
    """
    for twisted, trivialized in ((k1, k2), (k2, k1)):
        p = _band_twist_estimate(data, twisted, k3)
        q = _band_twist_estimate(data, trivialized, "unknot")
        gon = None if p is None or q is None else 2 * (p[0] + q[0] + 1)
        yield twisted, trivialized, p, q, gon


def _upper(r1: _Resolved, r2: _Resolved, r3: _Resolved, status: str,
           data: DistanceData) -> tuple[int | None, tuple[DerivationEntry, ...]]:
    derivation: list[DerivationEntry] = []
    candidates: list[int] = []
    if status == STATUS_EQUAL:
        candidates.append(2)
        derivation.append(DerivationEntry(
            "connected_sum_exact", 2, "K3 = K1 # K2, a 2-gon Murasugi sum"
        ))
    named = r1.name and r2.name and r3.name
    roles = _score_roles(data, r1.name, r2.name, r3.name) if named else (None, None)
    for label, role in zip(("K1 to K3, K2 to unknot", "K2 to K3, K1 to unknot"), roles):
        if role is None or role[4] is None:
            reason = "needs table names" if role is None else "no distance estimate"
            derivation.append(DerivationEntry("band_twist_bound", None, f"{label}: {reason}"))
            continue
        _, _, p, q, gon = role
        candidates.append(gon)
        derivation.append(DerivationEntry(
            "band_twist_bound", gon,
            f"2(p + q + 1) with p={p[0]} ({p[1]}), q={q[0]} ({q[1]}); {label}",
        ))
    us = [data.u_of(r.name) if r.name else None for r in (r1, r2, r3)]
    if all(u is not None for u in us):
        # a sum is at least a 2-gon, even when every u vanishes
        coarse = max(2, 4 * sum(us))
        candidates.append(coarse)
        derivation.append(DerivationEntry(
            "coarse_unknotting_bound", coarse,
            f"4(u1 + u2 + u3) = 4({us[0]} + {us[1]} + {us[2]}), floor 2",
        ))
    return (min(candidates) if candidates else None), tuple(derivation)


def dm_lower_bounds(
    k1: str | InvariantProfile,
    k2: str | InvariantProfile,
    k3: str | InvariantProfile,
    data: DistanceData | None = None,
) -> tuple[int, tuple[DerivationEntry, ...]]:
    """Largest certified lower bound for d_M(K1, K2; K3), with its audit."""
    data = data or load_distance_data()
    lower, _, derivation = _lower(_resolve(k1), _resolve(k2), _resolve(k3), data)
    return lower, derivation


def dm_upper_bound(
    k1: str | InvariantProfile,
    k2: str | InvariantProfile,
    k3: str | InvariantProfile,
    data: DistanceData | None = None,
) -> tuple[int | None, tuple[DerivationEntry, ...]]:
    """Smallest constructive upper bound, or None when data is missing."""
    data = data or load_distance_data()
    r1, r2, r3 = _resolve(k1), _resolve(k2), _resolve(k3)
    status, _ = _sum_status(r1, r2, r3)
    return _upper(r1, r2, r3, status, data)


@dataclass(frozen=True)
class DMInterval:
    lower: int
    upper: int | None
    derivation: tuple[DerivationEntry, ...]
    connected_sum_status: str

    def __post_init__(self) -> None:
        if self.lower < 2 or self.lower % 2:
            raise ValueError(f"lower bound {self.lower} must be even and >= 2")
        if self.upper is not None:
            if self.upper % 2:
                raise ValueError(f"upper bound {self.upper} must be even")
            if self.lower > self.upper:
                raise ValueError(
                    f"bounds crossed: lower {self.lower} > upper {self.upper}"
                )
        if self.lower == 2 and self.connected_sum_status == STATUS_DISTINCT:
            raise ValueError("lower bound 2 contradicts certified distinctness")

    def serialize(self) -> dict[str, object]:
        return {
            "lower": self.lower,
            "upper": "unknown" if self.upper is None else self.upper,
            "connected_sum_status": self.connected_sum_status,
            "derivation": [entry.serialize() for entry in self.derivation],
        }


def dm_interval(
    k1: str | InvariantProfile,
    k2: str | InvariantProfile,
    k3: str | InvariantProfile,
    data: DistanceData | None = None,
) -> DMInterval:
    """Two-sided certified interval for d_M(K1, K2; K3)."""
    data = data or load_distance_data()
    r1, r2, r3 = _resolve(k1), _resolve(k2), _resolve(k3)
    lower, status, lower_derivation = _lower(r1, r2, r3, data)
    upper, upper_derivation = _upper(r1, r2, r3, status, data)
    return DMInterval(
        lower=lower,
        upper=upper,
        derivation=lower_derivation + upper_derivation,
        connected_sum_status=status,
    )


def gon_merge(sizes: Sequence[int], knot_boundary: bool) -> int:
    """Total gon size after merging summing polygons along one boundary.

    n polygons of even sizes e_i >= 2 merge to sum(e_i); a knot boundary lets
    consecutive polygons share edges, dropping 2 per junction.
    """
    if not sizes:
        raise ValueError("need at least one polygon")
    for e in sizes:
        if e % 2:
            raise ValueError(f"gon size {e} is odd")
        if e < 2:
            raise ValueError(f"gon size {e} is below 2")
    total = sum(sizes)
    if knot_boundary:
        total -= 2 * (len(sizes) - 1)
    return total


@dataclass(frozen=True)
class GonPlan:
    """Symbolic plan realizing K3 as a Murasugi sum of K1 and K2.

    p annuli turn the surface of the knot sent to K3; q annuli undo the
    other knot to the unknot. The two batches merge into (2p+2)- and
    (2q+2)-gons, then one boundary connected sum gives the final gon.
    """

    names: tuple[str, str, str]
    to_k3: str
    to_unknot: str
    p: int
    q: int
    positive_annuli: tuple[TwistAnnulus, ...]
    negative_annuli: tuple[TwistAnnulus, ...]
    intermediate_gons: tuple[int, int]
    final_gon: int

    def serialize(self) -> dict[str, object]:
        return {
            "names": list(self.names),
            "to_k3": self.to_k3,
            "to_unknot": self.to_unknot,
            "p": self.p,
            "q": self.q,
            "intermediate_gons": list(self.intermediate_gons),
            "final_gon": self.final_gon,
        }


def _batch_gon(count: int) -> int:
    # merging count 4-gons along a knot boundary gives 2*count + 2
    if count == 0:
        return 2
    return gon_merge([4] * count, knot_boundary=True)


def plan_triple_sum(
    k1: str, k2: str, k3: str, data: DistanceData | None = None
) -> GonPlan:
    """Pick the cheaper role assignment and lay out the twist annuli.

    The final gon is 2(p + q + 1), matching the band-twist upper bound for
    the same estimates. Raises when no estimate resolves.
    """
    data = data or load_distance_data()
    for name in (k1, k2, k3):
        _resolve(name)
    options = [role for role in _score_roles(data, k1, k2, k3) if role[4] is not None]
    if not options:
        raise DistanceDataError(
            f"no band-twist estimates available for ({k1}, {k2}; {k3})"
        )
    twisted, trivialized, (p, _), (q, _), _ = min(options, key=lambda role: role[4])
    g1, g2 = _batch_gon(p), _batch_gon(q)
    final = gon_merge([g1, g2], knot_boundary=True)
    return GonPlan(
        names=(k1, k2, k3),
        to_k3=twisted,
        to_unknot=trivialized,
        p=p,
        q=q,
        positive_annuli=tuple(
            TwistAnnulus(full_twists=1, side=SIDE_POSITIVE) for _ in range(p)
        ),
        negative_annuli=tuple(
            TwistAnnulus(full_twists=-1, side=SIDE_NEGATIVE) for _ in range(q)
        ),
        intermediate_gons=(g1, g2),
        final_gon=final,
    )
