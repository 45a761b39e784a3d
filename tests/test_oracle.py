from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from sbc.automorphisms import sylow_aut_subgroup, sylow_p_subgroups_gl2
from sbc.group_core import M1Elt, m1_code
from sbc.oracle import (
    AmbientScan,
    _sylow_ambient_indices,
    bucket_by_theta,
    enumerate_regular_subgroups,
)
from sbc.subgroups import GroupType, is_regular, isomorphism_type
from sbc.tables import aut_table


# -- element-by-element reference walk ---------------------------------------
#
# The layer walk as it was before conjugation was decomposed: every candidate
# is visited in code order, centralizers and normalizers come from products
# over the whole ambient, and membership from a binary search.


def _member_mask(sorted_row, values):
    idx = np.searchsorted(sorted_row, values)
    idx[idx >= len(sorted_row)] = len(sorted_row) - 1
    return sorted_row[idx] == values


def reference_order_p2(scan, layer1):
    pows = scan.power_tables()
    everyone = np.arange(scan.size, dtype=np.int64)
    seen = {}
    for row in layer1:
        s = int(row[0]) if row[0] != scan.id_code else int(row[1])
        commute = scan.mul(everyone, np.int64(s)) == scan.mul(np.int64(s), everyone)
        covered = np.zeros(scan.size, dtype=bool)
        covered[row] = True
        for x in everyone[commute]:
            if covered[x]:
                continue
            members = np.concatenate([scan.mul(row, pows[k][x]) for k in range(scan.p)])
            members.sort()
            covered[members] = True
            seen.setdefault(members.tobytes(), (members, s, int(x)))
    return list(seen.values())


def reference_order_p3(scan, layer2):
    pows = scan.power_tables()
    everyone = np.arange(scan.size, dtype=np.int64)
    inv_all = scan.inv(everyone)
    seen = {}
    for row, s, x in layer2:
        conj_s = scan.mul(scan.mul(everyone, np.int64(s)), inv_all)
        conj_x = scan.mul(scan.mul(everyone, np.int64(x)), inv_all)
        normalizer = everyone[_member_mask(row, conj_s) & _member_mask(row, conj_x)]
        covered = np.zeros(scan.size, dtype=bool)
        covered[row] = True
        for y in normalizer:
            if covered[y]:
                continue
            members = np.concatenate([scan.mul(row, pows[k][y]) for k in range(scan.p)])
            members.sort()
            covered[members] = True
            seen.setdefault(members.tobytes(), (members, (s, x, int(y))))
    return list(seen.values())


def _built_p3_identity(scan, layer3):
    """Each order-p**3 group is built once from each maximal subgroup."""
    p = scan.p
    return sum(
        p * p + p + 1 if scan.is_abelian(gens) else p + 1 for _, gens in layer3
    )


@pytest.fixture(scope="module")
def small_ambient():
    # M1 x| <alpha> for one order-p automorphism alpha of a Sylow: p**4
    # elements, small enough for the element-by-element reference walk.
    p = 5
    aut = aut_table(p)
    sylow = sylow_aut_subgroup(p, sylow_p_subgroups_gl2(p)[0])
    alpha = next(a for a in sylow if a.b1 and a.A != sylow[0].A)
    g = aut.index_of(alpha)
    cyclic = [aut.identity]
    while True:
        nxt = int(aut.compose_idx(np.int64(cyclic[-1]), np.int64(g)))
        if nxt == aut.identity:
            break
        cyclic.append(nxt)
    assert len(cyclic) == p
    return AmbientScan(p, np.array(cyclic, dtype=np.int64))


@pytest.fixture(scope="module")
def sylow_scan():
    """Sylow ambient 0 with its three layers."""
    scan = AmbientScan(5, np.array(_sylow_ambient_indices(5)[0], dtype=np.int64))
    layer1 = scan.order_p_subgroups()
    layer2 = scan.order_p2_subgroups(layer1)
    layer3 = scan.order_p3_subgroups(layer2)
    return scan, layer1, layer2, layer3


def test_conj_all_matches_full_products(sylow_scan):
    scan = sylow_scan[0]
    everyone = np.arange(scan.size, dtype=np.int64)
    inv_all = scan.inv(everyone)
    rng = np.random.default_rng(5)
    for g in rng.choice(scan.size, 40, replace=False):
        want = scan.mul(scan.mul(everyone, np.int64(g)), inv_all)
        got = scan.conj_all(int(g))
        assert np.array_equal(got.ravel(), want)
        bs = np.sort(rng.choice(scan.AL, 17, replace=False))
        assert np.array_equal(scan.conj_all(int(g), bs), got[:, bs])


def test_layers_match_reference_walk(small_ambient):
    scan = small_ambient
    assert scan.size == 5**4
    layer1 = scan.order_p_subgroups()
    layer2 = scan.order_p2_subgroups(layer1)
    want2 = reference_order_p2(scan, layer1)
    assert len(layer2) == len(want2)
    for (row, s, x), (want_row, want_s, want_x) in zip(layer2, want2):
        assert np.array_equal(row, want_row)
        assert (s, x) == (want_s, want_x)
    layer3 = scan.order_p3_subgroups(layer2)
    want3 = reference_order_p3(scan, want2)
    assert len(layer3) == len(want3)
    for (row, gens), (want_row, want_gens) in zip(layer3, want3):
        assert np.array_equal(row, want_row)
        assert gens == want_gens


def test_small_ambient_builds_each_subgroup_once_per_maximal(small_ambient):
    scan = small_ambient
    p = scan.p
    layer2 = scan.order_p2_subgroups(scan.order_p_subgroups())
    layer3 = scan.order_p3_subgroups(layer2)
    assert scan.built_p2 == (p + 1) * len(layer2)
    assert scan.built_p3 == _built_p3_identity(scan, layer3)


def test_sylow_ambient_builds_each_subgroup_once_per_maximal(sylow_scan):
    scan, layer1, layer2, layer3 = sylow_scan
    p = scan.p
    assert (len(layer1), len(layer2), len(layer3)) == (3906, 8431, 2931)
    assert scan.built_p2 == (p + 1) * len(layer2) == 50586
    abelian = sum(1 for _, gens in layer3 if scan.is_abelian(gens))
    assert (abelian, len(layer3) - abelian) == (431, 2500)
    assert scan.built_p3 == _built_p3_identity(scan, layer3) == 28361


def test_budget_gate_refuses_large_prime():
    with pytest.raises(ValueError):
        enumerate_regular_subgroups(7)
    with pytest.raises(ValueError):
        enumerate_regular_subgroups(11, budget=7)


def test_m1_ambient_recovers_known_subgroup_lattice():
    # Scanning with the trivial automorphism group is a scan of M1 itself,
    # whose lattice is known: 31 of order 5, 6 of order 25, 1 of order 125.
    p = 5
    aut = aut_table(p)
    scan = AmbientScan(p, np.array([aut.identity], dtype=np.int64))
    layer1 = scan.order_p_subgroups()
    layer2 = scan.order_p2_subgroups(layer1)
    layer3 = scan.order_p3_subgroups(layer2)
    assert len(layer1) == 31
    assert len(layer2) == 6
    assert len(layer3) == 1
    full_row, _ = layer3[0]
    assert len(full_row) == 125
    # M1 x {1} acts on itself by left translation: regular, trivial theta.
    assert scan.is_regular(full_row)
    assert scan.theta_order(full_row) == 1


def test_total_counts(oracle_p5):
    assert len(oracle_p5.records) == 6625
    by_type = oracle_p5.count_by_type()
    assert by_type == {
        GroupType.HeisenbergM1.value: 5900,
        GroupType.ElemAbelian_p3.value: 725,
    }


def test_theta_buckets(oracle_p5):
    buckets = bucket_by_theta(oracle_p5)
    assert {k: len(v) for k, v in buckets.items()} == {1: 1, 5: 744, 25: 2880, 125: 3000}


def test_type_by_theta_matches_closed_forms(oracle_p5):
    p = 5
    split = oracle_p5.count_by_type_and_theta()
    assert split[GroupType.HeisenbergM1.value] == {1: 1, 5: 594, 25: 2305, 125: 3000}
    # Abelian regular subgroups occur only at theta of order p and p**2,
    # in counts (p + 1) * p**2 and (p**2 - 2) * p**2.
    assert split[GroupType.ElemAbelian_p3.value] == {
        5: (p + 1) * p**2,
        25: (p**2 - 2) * p**2,
    }


def test_per_ambient_counts_are_uniform(oracle_p5):
    p = 5
    assert len(oracle_p5.per_ambient_regular) == p + 1
    assert set(oracle_p5.per_ambient_regular) == {1625}
    assert set(oracle_p5.per_ambient_order_p) == {(p**6 - 1) // (p - 1)}
    assert len(set(oracle_p5.per_ambient_order_p2)) == 1
    assert oracle_p5.per_ambient_built_p2 == tuple(
        (p + 1) * n for n in oracle_p5.per_ambient_order_p2
    )
    assert set(oracle_p5.per_ambient_built_p3) == {28361}


def test_result_is_immutable(oracle_p5):
    with pytest.raises(dataclasses.FrozenInstanceError):
        oracle_p5.records = ()
    assert isinstance(oracle_p5.records, tuple)
    assert isinstance(oracle_p5.per_ambient_regular, tuple)


def test_record_keys_are_distinct(oracle_p5):
    assert len(oracle_p5.keys()) == len(oracle_p5.records)


def test_trivial_theta_record_is_m1_times_identity(oracle_p5):
    p = 5
    aut = aut_table(p)
    N = aut.N
    the_one = [r for r in oracle_p5.records if r.theta_order == 1]
    assert len(the_one) == 1
    expected = sorted(
        m1_code(M1Elt(p, a, b, c)) * N + aut.identity
        for a in range(p)
        for b in range(p)
        for c in range(p)
    )
    assert list(the_one[0].codes) == expected
    assert the_one[0].group_type is GroupType.HeisenbergM1


def test_sampled_records_materialize_correctly(oracle_p5):
    # For a spread of records, rebuild the scalar subgroup and re-derive
    # regularity, type, and theta order from scratch.
    picks = oracle_p5.records[::500]
    assert len(picks) >= 13
    for rec in picks:
        sg = rec.to_subgroup()
        assert len(sg.elements) == 125
        assert is_regular(sg)
        assert isomorphism_type(sg) is rec.group_type
        assert len({e.alpha for e in sg.elements}) == rec.theta_order
