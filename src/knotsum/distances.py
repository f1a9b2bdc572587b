"""Certified two-sided bounds for the minimal Murasugi-sum size d_M.

d_M(K1, K2; K3) is the smallest even m such that K3 bounds an m-gon
Murasugi sum of Seifert surfaces for K1 and K2. Nothing here computes it
outright; instead, invariants push the value up from below (signature,
connected-sum distinctness, curated band-surgery data) and explicit
constructions press down from above (band-twist chains through curated
distances or unknotting numbers). Both bounds are read off one ordered
derivation that prints every emitted number with its inputs; each
band-twist bound is the final gon of a GonPlan.

Curated distances live in a plain-text data file; the shipped defaults
record only facts witnessed elsewhere in the toolkit. The table and the
profile layer are imported when first read, so gon_merge, which only adds
integers, loads neither.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

from .record import Record

KIND_BAND_TWIST = "d_bt"
KIND_GORDIAN = "d_G"
KIND_COHERENT_BAND = "d_cb"
_KINDS = (KIND_BAND_TWIST, KIND_GORDIAN, KIND_COHERENT_BAND)

STATUS_EQUAL = "certified_equal"
STATUS_DISTINCT = "certified_distinct"
STATUS_UNDETERMINED = "undetermined"


class DistanceDataError(ValueError):
    """Malformed or inconsistent distance data."""


@functools.cache
def _table():
    """The table module, imported on first use: gon_merge loads no table."""
    from . import table

    return table


class KnotRecord(NamedTuple):
    name: str
    u: int
    e: int | None


def composite_name(a: str, b: str) -> str:
    """Canonical name for the connected sum: summands sorted, joined by #."""
    return "#".join(sorted((a, b)))


class DistanceData(NamedTuple):
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
    for lineno, parts in _table().records(text):
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
            if e is not None and e > u:
                raise DistanceDataError(f"line {lineno}: Nakanishi index {e} > u = {u}")
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
    table = _table().load_table()
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
    return _parse(_table().shipped_text("distances.txt"))


class DerivationEntry(NamedTuple):
    """One bound or note: its name, value (None for notes), and inputs."""

    name: str
    value: int | None
    inputs: str


def _resolve(knot: str | InvariantProfile) -> tuple[str | None, InvariantProfile]:
    if isinstance(knot, str):
        return knot, _table().lookup(knot).profile
    from .profiles import InvariantProfile

    if isinstance(knot, InvariantProfile):
        return None, knot
    raise TypeError(f"expected knot name or profile, got {type(knot).__name__}")


def _sum_status(names: tuple[str, str, str] | None,
                profiles: Sequence[InvariantProfile]) -> tuple[str, str]:
    if names:
        n1, n2, n3 = names
        if n1 == "unknot" and n3 == n2:
            return STATUS_EQUAL, f"{n3} = unknot # {n2}"
        if n2 == "unknot" and n3 == n1:
            return STATUS_EQUAL, f"{n3} = {n1} # unknot"
    p1, p2, p3 = profiles
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
    """Yield (p estimate, q estimate, plan) for both role assignments; the
    plan is None when either estimate is missing.
    """
    for twisted, trivialized in ((k1, k2), (k2, k1)):
        p = _band_twist_estimate(data, twisted, k3)
        q = _band_twist_estimate(data, trivialized, "unknot")
        plan = None if p is None or q is None else GonPlan(
            (k1, k2, k3), twisted, trivialized, p[0], q[0]
        )
        yield p, q, plan


# the entries that press d_M down; every other valued entry pushes it up
_UPPER_BOUNDS = ("connected_sum_exact", "band_twist_bound", "coarse_unknotting_bound")


def _derivation(names: tuple[str, str, str] | None, profiles: Sequence[InvariantProfile],
                status: str, note: str, data: DistanceData) -> Iterator[DerivationEntry]:
    """Yield every bound and note in print order: lower bounds, then upper."""
    s1, s2, s3 = (profile.signature for profile in profiles)
    sig = abs(s1 + s2 - s3) + 2
    yield DerivationEntry(
        "signature_bound", sig + sig % 2, f"|({s1}) + ({s2}) - ({s3})| + 2, evened up"
    )
    yield DerivationEntry("connected_sum_status", None, f"{status}: {note}")
    if status == STATUS_DISTINCT:
        yield DerivationEntry(
            "distinctness_bound", 4,
            "K3 is not K1 # K2, so one coherent band is not enough: d_cb >= 2",
        )
    if names:
        k1, k2, k3 = names
        comp = composite_name(k1, k2)
        curated = data.pair_value(comp, k3, KIND_COHERENT_BAND)
        if curated:
            value, source = curated
            yield DerivationEntry(
                "curated_band_surgery_bound", value + 2,
                f"d_cb({comp}, {k3}) = {value} [{source}]",
            )
        e3, e_comp = data.e_of(k3), data.e_of(comp)
        if e_comp is not None and e3 is not None:
            value = abs(e_comp - e3) + 2
            yield DerivationEntry(
                "nakanishi_bound", value + value % 2,
                f"|e({comp}) - e({k3})| + 2 = |{e_comp} - {e3}| + 2, evened up",
            )
        elif e3 is not None:
            e1, e2 = data.e_of(k1), data.e_of(k2)
            if e1 is not None and e2 is not None and max(e1, e2) > e3:
                value = max(e1, e2) - e3 + 2
                yield DerivationEntry(
                    "nakanishi_summand_bound", value + value % 2,
                    f"e({comp}) >= max({e1}, {e2}) conservatively; minus e={e3}, plus 2, "
                    "evened up",
                )
    yield DerivationEntry(
        "split_link_bound", None,
        "d_cb(K1 u K2, K3) + 1 is dominated by the connected-sum bound; not computed",
    )
    if status == STATUS_EQUAL:
        yield DerivationEntry("connected_sum_exact", 2, "K3 = K1 # K2, a 2-gon Murasugi sum")
    roles = _score_roles(data, *names) if names else (None, None)
    for label, role in zip(("K1 to K3, K2 to unknot", "K2 to K3, K1 to unknot"), roles):
        if role is None or role[2] is None:
            reason = "needs table names" if role is None else "no distance estimate"
            yield DerivationEntry("band_twist_bound", None, f"{label}: {reason}")
            continue
        (p, p_source), (q, q_source), plan = role
        yield DerivationEntry(
            "band_twist_bound", plan.final_gon,
            f"2(p + q + 1) with p={p} ({p_source}), q={q} ({q_source}); {label}",
        )
    if names:
        us = [data.u_of(name) for name in names]
        if None not in us:
            # a sum is at least a 2-gon, even when every u vanishes
            yield DerivationEntry(
                "coarse_unknotting_bound", max(2, 4 * sum(us)),
                f"4(u1 + u2 + u3) = 4({us[0]} + {us[1]} + {us[2]}), floor 2",
            )


class DMInterval(Record):
    __slots__ = _fields = ("lower", "upper", "derivation", "connected_sum_status")

    def __init__(self, lower: int, upper: int | None, derivation: tuple[DerivationEntry, ...],
                 connected_sum_status: str) -> None:
        if lower < 2 or lower % 2:
            raise ValueError(f"lower bound {lower} must be even and >= 2")
        if upper is not None:
            if upper % 2:
                raise ValueError(f"upper bound {upper} must be even")
            if lower > upper:
                raise ValueError(f"bounds crossed: lower {lower} > upper {upper}")
        if lower == 2 and connected_sum_status == STATUS_DISTINCT:
            raise ValueError("lower bound 2 contradicts certified distinctness")
        set_lower, set_upper, set_derivation, set_connected_sum_status, set_values = self._setters
        set_lower(self, lower)
        set_upper(self, upper)
        set_derivation(self, derivation)
        set_connected_sum_status(self, connected_sum_status)
        set_values(self, (lower, upper, derivation, connected_sum_status))

    def serialize(self) -> dict[str, object]:
        return {
            "lower": self.lower,
            "upper": "unknown" if self.upper is None else self.upper,
            "connected_sum_status": self.connected_sum_status,
            "derivation": [entry._asdict() for entry in self.derivation],
        }


def dm_interval(
    k1: str | InvariantProfile,
    k2: str | InvariantProfile,
    k3: str | InvariantProfile,
    data: DistanceData | None = None,
) -> DMInterval:
    """Two-sided certified interval for d_M(K1, K2; K3): the one entry point
    for the bounds, the connected-sum status and their derivation.

    lower is the largest valued entry of the derivation that is not an upper
    bound, and upper the smallest upper-bound entry; upper is None when every
    upper bound needs table names or data that is missing.
    """
    data = data or load_distance_data()
    names, profiles = zip(*map(_resolve, (k1, k2, k3)))
    named = names if all(names) else None
    status, note = _sum_status(named, profiles)
    derivation = tuple(_derivation(named, profiles, status, note, data))
    bounds = [entry for entry in derivation if entry.value is not None]
    return DMInterval(
        lower=max(e.value for e in bounds if e.name not in _UPPER_BOUNDS),
        upper=min((e.value for e in bounds if e.name in _UPPER_BOUNDS), default=None),
        derivation=derivation,
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


class GonPlan(NamedTuple):
    """Symbolic plan realizing K3 as a Murasugi sum of K1 and K2.

    p annuli of one positive full twist each turn the surface of the knot
    sent to K3; q of one negative full twist undo the other knot to the
    unknot, so p and q fix the annuli. Each batch of 4-gons merges along the
    knot boundary (a 2-gon when the batch is empty), and one boundary
    connected sum of the two gives the final gon, 2(p + q + 1).
    """

    names: tuple[str, str, str]
    to_k3: str
    to_unknot: str
    p: int
    q: int

    @property
    def intermediate_gons(self) -> tuple[int, int]:
        return tuple(gon_merge([4] * n or [2], knot_boundary=True) for n in (self.p, self.q))

    @property
    def final_gon(self) -> int:
        return gon_merge(self.intermediate_gons, knot_boundary=True)

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


def plan_triple_sum(
    k1: str, k2: str, k3: str, data: DistanceData | None = None
) -> GonPlan:
    """The cheaper of the two plans behind dm_interval's band_twist_bound
    entries, the first on a tie. Raises when no estimate resolves.
    """
    data = data or load_distance_data()
    for name in (k1, k2, k3):
        _table().lookup(name)
    plans = [plan for _, _, plan in _score_roles(data, k1, k2, k3) if plan is not None]
    if not plans:
        raise DistanceDataError(f"no band-twist estimates available for ({k1}, {k2}; {k3})")
    return min(plans, key=lambda plan: plan.final_gon)
