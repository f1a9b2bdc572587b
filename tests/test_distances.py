import itertools

import pytest

from knotsum.braid import BraidWord
from knotsum.distances import (
    STATUS_DISTINCT,
    STATUS_EQUAL,
    STATUS_UNDETERMINED,
    DistanceDataError,
    DMInterval,
    composite_name,
    connected_sum_status,
    dm_interval,
    dm_lower_bounds,
    dm_upper_bound,
    gon_merge,
    load_distance_data,
    plan_triple_sum,
)
from knotsum.profiles import profile_of_braid
from knotsum.surgery import SIDE_NEGATIVE, SIDE_POSITIVE
from knotsum.table import table_names


def test_default_data_loads():
    data = load_distance_data()
    assert data.u_of("3_1") == 1
    assert data.u_of("unknot") == 0
    assert data.u_of("no_such") is None
    assert data.pair_value("4_1", "3_1", "d_bt") == data.pair_value(
        "3_1", "4_1", "d_bt"
    )
    assert data.pair_value("3_1", "4_1", "d_bt")[0] == 1


def _write(tmp_path, text):
    path = tmp_path / "distances.txt"
    path.write_text(text)
    return path


def test_loader_rejects_u_conflicts_with_the_table(tmp_path):
    path = _write(tmp_path, "knot 3_1 2 -\n")
    with pytest.raises(DistanceDataError):
        load_distance_data(path)


def test_loader_rejects_odd_coherent_band_distance(tmp_path):
    path = _write(tmp_path, "pair 3_1 4_1 d_cb 1 src\n")
    with pytest.raises(DistanceDataError):
        load_distance_data(path)


def test_loader_rejects_bt_above_gordian(tmp_path):
    path = _write(
        tmp_path, "pair 3_1 4_1 d_bt 3 src\npair 3_1 4_1 d_G 1 src\n"
    )
    with pytest.raises(DistanceDataError):
        load_distance_data(path)


def test_loader_rejects_distances_above_unknotting_sum(tmp_path):
    path = _write(tmp_path, "pair 3_1 4_1 d_G 5 src\n")
    with pytest.raises(DistanceDataError):
        load_distance_data(path)


def test_loader_rejects_malformed_records(tmp_path):
    for text in (
        "knot 3_1 1\n",
        "pair 3_1 3_1 d_bt 1 src\n",
        "pair 3_1 4_1 d_x 1 src\n",
        "pair 3_1 9_99 d_bt 1 src\n",
        "pair 3_1 4_1 d_bt 1 src\npair 4_1 3_1 d_bt 1 src\n",
        "wat 1 2 3\n",
        "knot 3_1 -1 -\n",
    ):
        with pytest.raises(DistanceDataError):
            load_distance_data(_write(tmp_path, text))


def test_loader_accepts_composite_knot_records(tmp_path):
    path = _write(
        tmp_path,
        "knot 3_1#3_1 2 1\npair 3_1#3_1 4_1 d_cb 2 banded-diagram\n",
    )
    data = load_distance_data(path)
    assert data.e_of("3_1#3_1") == 1
    assert data.pair_value("3_1#3_1", "4_1", "d_cb") == (2, "banded-diagram")


def test_composite_name_is_order_free():
    assert composite_name("4_1", "3_1") == "3_1#4_1"
    assert composite_name("3_1", "3_1") == "3_1#3_1"


def test_connected_sum_status():
    assert connected_sum_status("unknot", "3_1", "3_1")[0] == STATUS_EQUAL
    assert connected_sum_status("3_1", "unknot", "3_1")[0] == STATUS_EQUAL
    assert connected_sum_status("3_1", "3_1", "3_1")[0] == STATUS_DISTINCT
    granny = profile_of_braid(BraidWord(3, (1, 1, 1, 2, 2, 2)))
    p31 = profile_of_braid(BraidWord(2, (1, 1, 1)))
    assert connected_sum_status(p31, p31, granny)[0] == STATUS_UNDETERMINED
    with pytest.raises(KeyError):
        connected_sum_status("3_1", "3_1", "9_99")


def test_trefoil_pair_intervals():
    expected = {
        ("3_1", "3_1", "3_1"): (4, 4),
        ("3_1", "3_1", "unknot"): (6, 6),
        ("3_1", "3_1", "4_1"): (6, 6),
        ("3_1", "3_1", "5_1"): (4, 6),
        ("3_1", "3_1", "5_2"): (4, 6),
    }
    for (k1, k2, k3), (lo, hi) in expected.items():
        iv = dm_interval(k1, k2, k3)
        assert (iv.lower, iv.upper) == (lo, hi), (k1, k2, k3)


def test_signature_obstruction_example():
    lower, derivation = dm_lower_bounds("3_1", "3_1", "9_1")
    assert lower >= 6
    names = [entry.name for entry in derivation]
    assert "signature_bound" in names
    assert "split_link_bound" in names


def test_unknot_identity_forces_two():
    iv = dm_interval("unknot", "3_1", "3_1")
    assert (iv.lower, iv.upper) == (2, 2)
    assert iv.connected_sum_status == STATUS_EQUAL


def test_interval_is_symmetric_in_the_summands():
    for k1, k2, k3 in [("3_1", "4_1", "5_2"), ("5_1", "3_1", "7_1")]:
        a = dm_interval(k1, k2, k3)
        b = dm_interval(k2, k1, k3)
        assert (a.lower, a.upper) == (b.lower, b.upper)


def test_bounds_never_cross_on_table_triples():
    names = [n for n in table_names() if n != "9_1"]
    sample = list(itertools.product(names[:6], names[:6], names[:8]))[::7]
    for k1, k2, k3 in sample:
        iv = dm_interval(k1, k2, k3)
        assert iv.lower >= 2
        assert iv.lower % 2 == 0
        if iv.upper is not None:
            assert iv.upper % 2 == 0
            assert iv.lower <= iv.upper


def test_profile_inputs_give_lower_bound_only():
    p31 = profile_of_braid(BraidWord(2, (1, 1, 1)))
    lower, _ = dm_lower_bounds(p31, p31, p31)
    assert lower == 4
    upper, derivation = dm_upper_bound(p31, p31, p31)
    assert upper is None
    assert any("needs table names" in e.inputs for e in derivation)


def test_curated_pairs_tighten_the_upper_bound(tmp_path):
    # u-fallback alone: bt(3_1, 4_1) <= u+u' = 2, so 2(2+1+1) = 8;
    # the curated d_bt(3_1, 4_1) = 1 brings the bound down to 6
    iv = dm_interval("3_1", "3_1", "4_1")
    assert iv.upper == 6
    path = tmp_path / "empty.txt"
    path.write_text("")
    bare = load_distance_data(path)
    iv_bare = dm_interval("3_1", "3_1", "4_1", bare)
    assert iv_bare.upper == 8
    assert iv_bare.lower == 6


def test_dm_interval_invariants_enforced():
    with pytest.raises(ValueError):
        DMInterval(lower=3, upper=None, derivation=(), connected_sum_status=STATUS_UNDETERMINED)
    with pytest.raises(ValueError):
        DMInterval(lower=4, upper=5, derivation=(), connected_sum_status=STATUS_UNDETERMINED)
    with pytest.raises(ValueError):
        DMInterval(lower=6, upper=4, derivation=(), connected_sum_status=STATUS_UNDETERMINED)
    with pytest.raises(ValueError):
        DMInterval(lower=2, upper=2, derivation=(), connected_sum_status=STATUS_DISTINCT)
    with pytest.raises(ValueError):
        DMInterval(lower=0, upper=2, derivation=(), connected_sum_status=STATUS_UNDETERMINED)


def test_interval_serialization():
    iv = dm_interval("3_1", "3_1", "3_1")
    d = iv.serialize()
    assert d["lower"] == 4 and d["upper"] == 4
    assert d["connected_sum_status"] == STATUS_DISTINCT
    assert all({"name", "value", "inputs"} <= set(e) for e in d["derivation"])
    p31 = profile_of_braid(BraidWord(2, (1, 1, 1)))
    assert dm_interval(p31, p31, p31).serialize()["upper"] == "unknown"


def test_gon_merge():
    assert gon_merge([4, 4], knot_boundary=True) == 6
    assert gon_merge([4, 4], knot_boundary=False) == 8
    assert gon_merge([4], knot_boundary=True) == 4
    assert gon_merge([4, 4, 4], knot_boundary=True) == 8
    assert gon_merge([2, 2], knot_boundary=True) == 2
    with pytest.raises(ValueError):
        gon_merge([], knot_boundary=True)
    with pytest.raises(ValueError):
        gon_merge([4, 3], knot_boundary=False)
    for sizes in ([0, 0], [4, -2], [-2]):
        for knot_boundary in (True, False):
            with pytest.raises(ValueError, match="below 2"):
                gon_merge(sizes, knot_boundary=knot_boundary)


def test_plan_matches_the_upper_bound_formula():
    plan = plan_triple_sum("3_1", "3_1", "4_1")
    assert plan.final_gon == 2 * (plan.p + plan.q + 1)
    assert plan.final_gon == dm_interval("3_1", "3_1", "4_1").upper
    assert len(plan.positive_annuli) == plan.p
    assert len(plan.negative_annuli) == plan.q
    assert all(a.side == SIDE_POSITIVE for a in plan.positive_annuli)
    assert all(a.side == SIDE_NEGATIVE for a in plan.negative_annuli)
    assert plan.intermediate_gons == (2 * plan.p + 2, 2 * plan.q + 2)


def test_plan_handles_zero_twist_batches():
    plan = plan_triple_sum("3_1", "3_1", "3_1")
    assert {plan.p, plan.q} == {0, 1}
    assert plan.final_gon == 4
    assert 2 in plan.intermediate_gons


def test_plan_requires_table_names():
    with pytest.raises(KeyError):
        plan_triple_sum("3_1", "3_1", "9_99")


def test_plan_serialization():
    d = plan_triple_sum("3_1", "3_1", "5_2").serialize()
    assert d["final_gon"] == 6
    assert d["names"] == ["3_1", "3_1", "5_2"]
