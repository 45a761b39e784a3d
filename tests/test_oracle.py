from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np
import pytest

from sbc.automorphisms import sylow_aut_subgroup, sylow_p_subgroups_gl2
from sbc.classify import closed_form_count_report, orbits_match
from sbc.group_core import M1Elt, m1_code, m1_subgroup_inventory
from sbc import oracle
from sbc.oracle import AmbientScan, enumerate_regular_subgroups
from sbc.subgroups import GroupType, is_regular, isomorphism_type
from sbc.tables import aut_table, distinct_rows, hol_codec


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
    pows = scan.POW
    everyone = np.arange(scan.size, dtype=np.int64)
    seen = {}
    for row, _ in layer1:
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
            seen.setdefault(members.tobytes(), (members, (s, int(x))))
    return list(seen.values())


def reference_order_p3(scan, layer2):
    pows = scan.POW
    everyone = np.arange(scan.size, dtype=np.int64)
    inv_all = scan.POW[-1]  # the ambient has exponent p
    seen = {}
    for row, (s, x) in layer2:
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


def _theta_order(scan, row):
    """The number of distinct automorphism parts in one local row."""
    return int(np.count_nonzero(np.bincount(row % scan.AL)))


def _is_abelian(scan, gens):
    """Do the generators, local codes, commute pairwise?"""
    g = np.array(gens, dtype=np.int64)
    return bool(np.array_equal(scan.mul(g[:, None], g[None, :]), scan.mul(g[None, :], g[:, None])))


def _built_p3_identity(scan, layer3):
    """Each order-p**3 group is built once from each maximal subgroup."""
    p = scan.p
    return sum(
        p * p + p + 1 if _is_abelian(scan, gens) else p + 1 for _, gens in layer3
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
def sylow_scan(sylow_ambients):
    """Sylow ambient 0 of the scalar route with its three layers."""
    scan = AmbientScan(5, sylow_ambients(5)[0])
    layer1 = scan.order_p_subgroups()
    layer2 = scan.order_p2_subgroups(layer1)
    layer3 = scan.order_p3_subgroups(layer2)
    return scan, layer1, layer2, layer3


@pytest.fixture(scope="module")
def m1_scan():
    """M1 x {1}: with one automorphism a local code is an M1 code."""
    return AmbientScan(5, np.array([aut_table(5).identity], dtype=np.int64))


def _walk(scan, row, normalizer):
    """(leaders, sorted member rows) of the extensions <row, y>, y in the
    row's ascending normalizer, in ascending leader order: the slow walk
    that `AmbientScan._leaders` replaces.

    Each step takes the least normalizer element not yet covered by the row
    or an earlier extension, builds the p cosets of the row it generates
    and marks them covered.
    """
    left = np.ones(len(normalizer), dtype=bool)
    left[np.searchsorted(normalizer, row)] = False
    leaders, members = [], []
    at = int(left.argmax())
    while left[at]:
        ext = scan.mul(row, scan.POW[:, normalizer[at], None]).ravel()
        ext.sort()
        left[np.searchsorted(normalizer, ext)] = False
        leaders.append(normalizer[at])
        members.append(ext)
        at += int(left[at:].argmax())
    shape = (len(leaders), scan.p * len(row))
    return np.array(leaders, dtype=np.int64), np.array(members, dtype=np.int64).reshape(shape)


def _rows_and_gens(parents):
    rows = np.array([row for row, _ in parents])
    return rows, np.array([gens for _, gens in parents], dtype=np.int64)


def _built_extensions(scan, parents):
    """(rows, gens, owner, y, cosets, swept, walked) for the layer step from
    parents: every built (parent, extension) pair as the parent index
    owner[k] and an element y[k] with extension <rows[owner[k]], y[k]>,
    and cosets[k] the p - 1 cosets of that parent outside it, (R y^j,
    j = 1..p-1) side by side, built in full from y."""
    rows, gens = _rows_and_gens(parents)
    owner, y0, g, swept, walked = scan._class_extensions(rows, gens)
    y = scan.conj(g[owner], y0)
    powers = scan.POW[1:, y].T[:, :, None]  # (pairs, p - 1, 1)
    cosets = scan.mul(rows[owner][:, None, :], powers).reshape(len(owner), -1)
    return rows, gens, owner, y, cosets, swept, walked


def _check_class_extensions(scan, parents):
    """The extensions and leaders the layer step gives every parent equal
    that parent's own walk, the walk splits the parent's own direct
    normalizer, and each class representative's leaders equal its walk's.
    Returns (class count, extensions walked)."""
    rows, gens, owner, y, cosets, swept, walked = _built_extensions(scan, parents)
    rep, g = scan._classes(scan._lines(gens))
    for i, r in enumerate(rep):
        assert np.array_equal(np.sort(scan.conj(g[i], rows[r])), rows[i])
    assert np.all(np.diff(owner) >= 0)
    leaders = scan._coset_leaders(rows[owner], y)[0]
    members = np.concatenate([rows[owner], cosets], axis=1)
    members.sort(axis=1)
    ends = np.searchsorted(owner, np.arange(len(parents) + 1))
    orders = 0
    for i, (row, gens_i) in enumerate(parents):
        normalizer = scan._normalizer(row, gens_i)
        want_leaders, want_members = _walk(scan, row, normalizer)
        if rep[i] == i:
            assert np.array_equal(scan._leaders(row, gens_i, normalizer), want_leaders)
        mine = slice(ends[i], ends[i + 1])
        by_leader = np.argsort(leaders[mine])
        assert np.array_equal(leaders[mine][by_leader], want_leaders)
        assert np.array_equal(members[mine][by_leader], want_members)
        # the extensions meet pairwise in the row and cover the normalizer
        assert len(normalizer) == len(row) * (1 + (scan.p - 1) * len(want_leaders))
        assert np.array_equal(np.union1d(row, want_members), normalizer)
        orders += len(normalizer)
    # orbit-stabilizer: the class of R has |G| / |N(R)| members
    classes = len(np.unique(rep))
    assert classes == swept
    assert orders == classes * scan.size
    return classes, walked


def _check_canonical_parents(scan, parents):
    """The children the layer step keeps are exactly the first occurrences,
    by (parent index, leader), among all the children it builds, each kept
    once.  Returns the number of distinct children."""
    rows, gens, owner, y, cosets, _, _ = _built_extensions(scan, parents)
    leaders = scan._coset_leaders(rows[owner], y)[0]
    keep = scan._canonical(gens[owner], leaders)
    first, kept = {}, []
    for k, (i, leader) in enumerate(zip(owner.tolist(), leaders.tolist())):
        key = np.sort(np.concatenate([rows[i], cosets[k]])).tobytes()
        if key not in first or (i, leader) < first[key]:
            first[key] = (i, leader)
        if keep[k]:
            kept.append((i, leader))
    assert sorted(kept) == sorted(first.values())
    return len(first)


def _check_coset_leaders(scan, parents):
    """Every line of E = <R, y> outside R meets the coset R y in exactly
    one element, so the least LEAST over R y, the leader the layer step
    reads, is min(E - R) of the fully built E.  Returns the pairs checked."""
    rows, _, owner, y, cosets, _, _ = _built_extensions(scan, parents)
    leaders, coset = scan._coset_leaders(rows[owner], y)
    assert np.array_equal(coset, cosets[:, : rows.shape[1]])
    assert np.array_equal(leaders, cosets.min(axis=1))
    return len(owner)


def _generated_order(scan, gens):
    inside = np.zeros(scan.size, dtype=bool)
    inside[scan.id_code] = True
    frontier = np.array([scan.id_code])
    while frontier.size:
        products = scan.mul(frontier[:, None], gens[None, :]).ravel()
        frontier = np.unique(products[~inside[products]])
        inside[frontier] = True
    return int(inside.sum())


def test_generators_generate_the_ambient(sylow_scan, small_ambient, m1_scan):
    for scan, exponent in ((sylow_scan[0], 6), (small_ambient, 4), (m1_scan, 3)):
        assert scan.size == scan.p**exponent
        gens = scan.generators
        assert 1 <= len(gens) <= exponent  # greedy: each one multiplies the order by p or more
        assert _generated_order(scan, gens) == scan.size


def _trivial(scan):
    """The trivial group as the parent of layer 1."""
    return [(np.array([scan.id_code], dtype=np.int64), ())]


def test_class_extensions_match_own_walks_sylow(sylow_scan):
    scan, layer1, layer2, _ = sylow_scan
    assert _check_class_extensions(scan, _trivial(scan)) == (1, len(layer1))
    got = _check_class_extensions(scan, layer1)
    assert got == (scan.swept_p2, scan.walked_p2) == (66, 2946)
    got = _check_class_extensions(scan, layer2)
    assert got == (scan.swept_p3, scan.walked_p3) == (195, 2845)
    # 66 + 195 direct sweeps and 2946 + 2845 walked extensions, where one
    # walk per parent took 3906 + 8431 sweeps and 50586 + 28361 extensions
    assert (len(layer1), len(layer2)) == (3906, 8431)


@pytest.mark.parametrize("which", ["small_ambient", "m1_scan"])
def test_class_extensions_match_own_walks(which, request):
    scan = request.getfixturevalue(which)
    layer1 = scan.order_p_subgroups()
    layer2 = scan.order_p2_subgroups(layer1)
    scan.order_p3_subgroups(layer2)
    assert _check_class_extensions(scan, _trivial(scan)) == (1, len(layer1))
    got = _check_class_extensions(scan, layer1)
    assert got == (scan.swept_p2, scan.walked_p2)
    assert _check_class_extensions(scan, layer2) == (scan.swept_p3, scan.walked_p3)


@pytest.mark.parametrize("which", ["sylow_scan", "small_ambient", "m1_scan"])
def test_each_child_is_kept_from_its_first_parent_only(which, request):
    scan = request.getfixturevalue(which)
    if which == "sylow_scan":
        scan, layer1, layer2, layer3 = scan
    else:
        layer1 = scan.order_p_subgroups()
        layer2 = scan.order_p2_subgroups(layer1)
        layer3 = scan.order_p3_subgroups(layer2)
    assert _check_canonical_parents(scan, _trivial(scan)) == len(layer1)
    assert _check_canonical_parents(scan, layer1) == len(layer2)
    assert _check_canonical_parents(scan, layer2) == len(layer3)


@pytest.mark.parametrize("which", ["sylow_scan", "small_ambient"])
def test_coset_minimum_of_line_minima_is_the_leader(which, request):
    # each step is checked before the next layer is built from it
    scan = request.getfixturevalue(which)
    if which == "sylow_scan":
        scan = scan[0]
    layer1 = scan.order_p_subgroups()
    assert _check_coset_leaders(scan, _trivial(scan)) == len(layer1)
    layer2 = scan.order_p2_subgroups(layer1)
    assert _check_coset_leaders(scan, layer1) == scan.built_p2
    scan.order_p3_subgroups(layer2)
    assert _check_coset_leaders(scan, layer2) == scan.built_p3


@pytest.mark.parametrize("which", ["sylow_scan", "small_ambient", "m1_scan"])
def test_layer1_lists_lines_by_least_member(which, request):
    # LEAST[z] is the least non-identity member of the line holding z, which
    # is also the line's generator and its place in layer 1
    scan = request.getfixturevalue(which)
    if which == "sylow_scan":
        scan = scan[0]
    layer1 = scan.order_p_subgroups()
    rows = np.array([row for row, _ in layer1])
    members = rows[rows != scan.id_code].reshape(len(rows), scan.p - 1)
    assert np.array_equal(np.sort(members, axis=None), np.delete(np.arange(scan.size), scan.id_code))
    least = members.min(axis=1)
    assert np.all(np.diff(least) > 0)
    assert [gens for _, gens in layer1] == [(s,) for s in least.tolist()]
    assert np.array_equal(scan.LEAST[members], np.broadcast_to(least[:, None], members.shape))


def _layers_digest(layer1, layer2, layer3):
    """SHA-256 of the layer-1 rows, then of each layer-2 and layer-3 row with
    its generator tuple, all as int64 bytes: pins the layers, their order
    and their generators."""
    h = hashlib.sha256()
    for row, _ in layer1:
        h.update(row.astype(np.int64).tobytes())
    for row, gens in layer2 + layer3:
        h.update(row.astype(np.int64).tobytes())
        h.update(np.array(gens, dtype=np.int64).tobytes())
    return h.hexdigest()


def test_sylow_layers_digest(sylow_scan):
    # Sylow ambient 0 at p=5
    digest = _layers_digest(*sylow_scan[1:])
    assert digest == "feab381e73000ec5fc3f47b9b24f2b5d42de1567b18d49cf37147013ffa0832b"


def test_class_walk_refuses_a_layer_not_closed_under_conjugation(sylow_scan):
    scan = sylow_scan[0]
    for parents in sylow_scan[1:3]:  # keyed by a line, then by two lines
        lines = scan._lines(_rows_and_gens(parents)[1])
        rep, _ = scan._classes(lines)
        # drop one member of a class with more than one: its conjugates miss it
        counts = np.bincount(rep)
        victim = np.flatnonzero((rep != np.arange(len(rep))) & (counts[rep] > 1))[0]
        with pytest.raises(AssertionError, match="not closed under conjugation"):
            scan._classes(np.delete(lines, victim, axis=0))


def _reference_class_reps(scan, lines):
    """rep[i], the first parent of the conjugacy class of parent i, by the
    breadth-first walk along the generators that the label pass of
    `AmbientScan._classes` replaced: each class is walked from its first
    parent, one (parent, generator) step at a time."""
    keys = scan._line_keys(lines)
    steps = [np.searchsorted(keys, scan._line_keys(conj[lines])).tolist() for conj in scan._conj_by_generators]
    rep = [-1] * len(lines)
    for i in range(len(lines)):
        if rep[i] >= 0:
            continue
        rep[i] = i
        queue = [i]
        for u in queue:  # the queue grows while it is read
            for step in steps:
                v = step[u]
                if rep[v] < 0:
                    rep[v] = i
                    queue.append(v)
    return np.array(rep, dtype=np.int64)


@pytest.mark.parametrize("which", ["sylow_scan", "small_ambient", "m1_scan"])
def test_label_pass_matches_breadth_first_walk(which, request):
    # _check_class_extensions checks every conjugator g; this pins rep
    scan = request.getfixturevalue(which)
    if which == "sylow_scan":
        scan, layer1, layer2, _ = scan
    else:
        layer1 = scan.order_p_subgroups()
        layer2 = scan.order_p2_subgroups(layer1)
    for parents in (_trivial(scan), layer1, layer2):
        lines = scan._lines(_rows_and_gens(parents)[1])
        assert np.array_equal(scan._classes(lines)[0], _reference_class_reps(scan, lines))


@pytest.mark.parametrize(
    "name",
    ["aut_global", "LOC_APPLY", "LOC_COMP", "AUT_CONJ", "MUL_BY", "INV_IMAGE", "MUL_FLAT",
     "POW", "LEAST", "generators", "_conj_by_generators"],
)
def test_scan_tables_are_read_only(m1_scan, name):
    table = getattr(m1_scan, name)
    with pytest.raises(ValueError, match="read-only"):
        table.flat[0] = table.flat[0]


def test_conj_all_matches_full_products(sylow_scan):
    scan = sylow_scan[0]
    everyone = np.arange(scan.size, dtype=np.int64)
    inv_all = scan.POW[-1]  # the ambient has exponent p
    rng = np.random.default_rng(5)
    for g in rng.choice(scan.size, 40, replace=False):
        want = scan.mul(scan.mul(everyone, np.int64(g)), inv_all)
        got = scan.conj_all(int(g))
        assert np.array_equal(got.ravel(), want)
        bs = np.sort(rng.choice(scan.AL, 17, replace=False))
        assert np.array_equal(scan.conj_all(int(g), bs), got[:, bs])
        assert np.array_equal(scan.conj_all(int(g), bs, scan.p**2), got[: scan.p**2, bs])


def test_normalizer_of_order_p_group_is_centralizer(sylow_scan):
    # N(<s>)/C(s) embeds in Aut(C_p), of order p - 1, and is a p-group, so
    # the normalizer test that builds layer 2 keeps exactly the centralizer,
    # both in the automorphism prefilter and in the ambient.
    scan, layer1 = sylow_scan[:2]
    for row, (s,) in layer1:
        a = s % scan.AL
        bs = np.flatnonzero(np.isin(scan.AUT_CONJ[:, a], row % scan.AL))
        assert np.array_equal(bs, np.flatnonzero(scan.AUT_CONJ[:, a] == a))
        conj = scan.conj_all(s, bs)
        assert np.array_equal(np.isin(conj, row), conj == s)


def _full_normalizer(scan, row, gens):
    """The normalizer of row = <gens> by the full sweep: every y of the
    ambient, p**3 M1 parts times all of A, through the unbounded conj_all."""
    in_row = np.zeros(scan.size, dtype=bool)
    in_row[row] = True
    normal = np.ones(scan.size, dtype=bool)
    for g in gens:
        normal &= in_row[scan.conj_all(int(g)).ravel()]
    return np.flatnonzero(normal)


@pytest.mark.parametrize("which", ["sylow_scan", "small_ambient", "m1_scan"])
def test_centre_reduced_normalizer_matches_full_sweep(which, request):
    # (r^k, 1) is central in an exponent-p ambient, so _normalizer sweeps the
    # M1 parts s^b t^c only and spreads the result over r^0..r^(p-1)
    scan = request.getfixturevalue(which)
    if which == "sylow_scan":
        scan, layer1, layer2, _ = scan
    else:
        layer1 = scan.order_p_subgroups()
        layer2 = scan.order_p2_subgroups(layer1)
    for parents in (_trivial(scan), layer1, layer2):
        rows, gens = _rows_and_gens(parents)
        rep = scan._classes(scan._lines(gens))[0]
        for r in np.flatnonzero(rep == np.arange(len(rep))):
            assert np.array_equal(scan._normalizer(rows[r], gens[r]), _full_normalizer(scan, rows[r], gens[r]))


def test_normalizer_sweep_work_counts(sylow_ambients, monkeypatch):
    # p=5 Sylow ambient 0: the normalizer sweeps conjugate 965,000 entries,
    # p**2 M1 parts per prefiltered b and generator; the p**3 sweep took
    # 4,825,000.  The class and leader counts stay as they were.
    entries = []
    conj_all = AmbientScan.conj_all

    def counted(self, *args):
        out = conj_all(self, *args)
        entries.append(out.size)
        return out

    monkeypatch.setattr(AmbientScan, "conj_all", counted)
    scan = AmbientScan(5, sylow_ambients(5)[0])
    scan.order_p3_subgroups(scan.order_p2_subgroups(scan.order_p_subgroups()))
    assert sum(entries) == 965_000
    assert (scan.swept_p2, scan.swept_p3) == (66, 195)
    assert (scan.walked_p2, scan.walked_p3) == (2946, 2845)


def test_layers_match_reference_walk(small_ambient):
    scan = small_ambient
    assert scan.size == 5**4
    layer1 = scan.order_p_subgroups()
    layer2 = scan.order_p2_subgroups(layer1)
    want2 = reference_order_p2(scan, layer1)
    assert len(layer2) == len(want2)
    for (row, gens), (want_row, want_gens) in zip(layer2, want2):
        assert np.array_equal(row, want_row)
        assert gens == want_gens
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
    abelian = sum(1 for _, gens in layer3 if _is_abelian(scan, gens))
    assert (abelian, len(layer3) - abelian) == (431, 2500)
    assert scan.built_p3 == _built_p3_identity(scan, layer3) == 28361


def test_sylow_ambient_p7_counts_within_budget(sylow_ambients):
    # One of the eight p=7 ambients, start to finish, its layers pinned by
    # SHA-256 as on p=5 Sylow ambient 0.  About 1 s on a 2-vCPU VM whose
    # speed drifts up to 2x; the budget allows for that.
    p = 7
    t0 = time.perf_counter()
    scan = AmbientScan(p, sylow_ambients(p)[0])
    layer1 = scan.order_p_subgroups()
    layer2 = scan.order_p2_subgroups(layer1)
    layer3 = scan.order_p3_subgroups(layer2)
    regular = sum(1 for row, _ in layer3 if scan.is_regular(row))
    elapsed = time.perf_counter() - t0
    assert (len(layer1), len(layer2), len(layer3), regular) == (19608, 41609, 10739, 6517)
    assert (scan.built_p2, scan.built_p3) == (332872, 141527)
    assert scan.built_p2 == (p + 1) * len(layer2)
    assert (scan.swept_p2, scan.swept_p3) == (120, 371)
    assert (scan.walked_p2, scan.walked_p3) == (9976, 8897)
    assert elapsed < 40.0, f"p=7 ambient scan took {elapsed:.1f}s"
    digest = _layers_digest(layer1, layer2, layer3)
    assert digest == "f46684e7dfe6700db928f4020c0ddd32162c9a6ba1a4a6f6a372bbc9b3a75d43"


def test_scan_refuses_an_automorphism_set_not_closed(sylow_ambients):
    members = sylow_ambients(5)[0]
    outside = np.setdiff1d(np.arange(aut_table(5).N), members)[0]
    with pytest.raises(ValueError, match="not closed"):
        AmbientScan(5, np.append(members, outside))


@pytest.mark.parametrize("change", ["drop", "repeat", "replace"])
def test_scan_checks_its_conjugators(change, monkeypatch):
    # the merged union has one block per conjugator: p distinct ones or none
    betas = oracle._ambient_conjugators(5)
    wrong = {
        "drop": betas[:-1],
        "repeat": np.append(betas, betas[0]),
        "replace": np.append(betas[:-1], betas[0]),
    }[change]
    monkeypatch.setattr(oracle, "_ambient_conjugators", lambda p: wrong)
    with pytest.raises(AssertionError, match="expected p = 5 ambient conjugators, got"):
        oracle._scan.__wrapped__(5)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_closed_form_ambients_are_the_sylow_ambients(p, sylow_ambients):
    # A_0 and its p conjugates beta A_0 beta^-1 against the scalar route's
    # p + 1 Sylow subgroups, compared as sets of member arrays
    aut = aut_table(p)
    a0 = oracle._standard_ambient(p)
    assert np.array_equal(a0, np.sort(a0)) and len(a0) == p**3
    betas = oracle._ambient_conjugators(p)
    assert len(betas) == p
    closed = [a0] + [np.sort(aut.compose_idx(aut.compose_idx(b, a0), aut.INV[b])) for b in betas.tolist()]
    assert sorted(a.tobytes() for a in closed) == sorted(a.tobytes() for a in sylow_ambients(p))


def test_scan_needs_no_scalar_sylow_enumeration(monkeypatch, oracle_p5):
    def refuse(p):
        raise AssertionError("the scan enumerated the GL2 Sylows")

    monkeypatch.setattr("sbc.automorphisms.sylow_p_subgroups_gl2", refuse)
    result = oracle._scan.__wrapped__(5)
    assert np.array_equal(result.codes, oracle_p5.codes)
    assert np.array_equal(result.theta, oracle_p5.theta)
    assert np.array_equal(result.types, oracle_p5.types)


def test_budget_gate_refuses_large_prime():
    with pytest.raises(ValueError):
        enumerate_regular_subgroups(7)
    with pytest.raises(ValueError):
        enumerate_regular_subgroups(11, budget=7)


def test_m1_ambient_recovers_known_subgroup_lattice(m1_scan):
    # Scanning with the trivial automorphism group is a scan of M1 itself,
    # whose lattice is known: 31 of order 5, 6 of order 25, 1 of order 125.
    p, scan = 5, m1_scan
    layer1 = scan.order_p_subgroups()
    layer2 = scan.order_p2_subgroups(layer1)
    layer3 = scan.order_p3_subgroups(layer2)
    assert len(layer1) == 31
    assert len(layer2) == 6
    assert len(layer3) == 1
    # member for member: with one automorphism a local code is an M1 code
    order_p, order_p2 = m1_subgroup_inventory(p)

    def code_rows(subgroups):
        return sorted(sorted(m1_code(x) for x in sub) for sub in subgroups)

    assert sorted(row.tolist() for row, _ in layer1) == code_rows(order_p)
    assert sorted(row.tolist() for row, _ in layer2) == code_rows(order_p2)
    full_row, _ = layer3[0]
    assert len(full_row) == 125
    # M1 x {1} acts on itself by left translation: regular, trivial theta.
    assert scan.is_regular(full_row)
    assert _theta_order(scan, full_row) == 1


def test_total_counts(oracle_p5):
    assert oracle_p5.codes.shape == (6625, 125)
    by_type = oracle_p5.count_by_type()
    assert by_type == {
        GroupType.HeisenbergM1.value: 5900,
        GroupType.ElemAbelian_p3.value: 725,
    }


def test_theta_buckets(oracle_p5):
    thetas, counts = np.unique(oracle_p5.theta, return_counts=True)
    assert dict(zip(thetas.tolist(), counts.tolist())) == {1: 1, 5: 744, 25: 2880, 125: 3000}


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


def test_six_ambient_scans_give_the_conjugated_union(oracle_p5, sylow_ambients):
    # The slow route: scan every p=5 Sylow ambient directly and merge their
    # regular rows, where the oracle scans ambient 0 only and conjugates its
    # rows onto the other five.  The union, theta and types must agree.
    p = 5
    blocks, theta, types = [], [], []
    for members in sylow_ambients(p):
        scan = AmbientScan(p, members)
        layer1 = scan.order_p_subgroups()
        layer2 = scan.order_p2_subgroups(layer1)
        layer3 = scan.order_p3_subgroups(layer2)
        regular = [(row, gens) for row, gens in layer3 if scan.is_regular(row)]
        assert (len(layer1), len(layer2), len(layer3), len(regular)) == (3906, 8431, 2931, 1625)
        assert len(layer1) == (p**6 - 1) // (p - 1)
        assert scan.built_p2 == (p + 1) * len(layer2)
        assert scan.built_p3 == _built_p3_identity(scan, layer3) == 28361
        blocks.append(scan.to_global([row for row, _ in regular]))
        theta += [_theta_order(scan, row) for row, _ in regular]
        types += [
            (GroupType.ElemAbelian_p3 if _is_abelian(scan, gens) else GroupType.HeisenbergM1).value
            for _, gens in regular
        ]
    codes, first = distinct_rows(np.concatenate(blocks))
    assert np.array_equal(codes, oracle_p5.codes)
    assert np.array_equal(np.array(theta)[first], oracle_p5.theta)
    assert np.array_equal(np.array(types)[first], oracle_p5.types)
    assert oracle_p5.per_ambient_regular == (1625,) * (p + 1)


def test_oracle_p7_matches_closed_forms_and_orbits_within_budget():
    # The oracle-equivalence check of `verify --prime 7 --oracle-budget 7`,
    # about 2.4 s alone (about 1.1 s of it the oracle) on a 2-vCPU VM whose
    # speed drifts up to 2x; the budget allows for that.
    p = 7
    t0 = time.perf_counter()
    result = enumerate_regular_subgroups(p, budget=p)
    report = closed_form_count_report(p)
    split = result.count_by_type_and_theta()
    assert split[GroupType.HeisenbergM1.value] == report.regular_by_structure["HeisenbergM1"]
    assert split[GroupType.ElemAbelian_p3.value] == report.regular_by_structure["ElemAbelian_p3"]
    assert len(result.codes) == report.total_regular == 35329
    assert result.per_ambient_regular == (6517,) * (p + 1)
    assert orbits_match(p, result.codes)
    elapsed = time.perf_counter() - t0
    assert elapsed < 40.0, f"p=7 oracle check took {elapsed:.1f}s"


def test_result_is_immutable(oracle_p5):
    with pytest.raises(dataclasses.FrozenInstanceError):
        oracle_p5.codes = oracle_p5.codes[:1]
    # the memoized result is shared, so its arrays refuse writes too
    for arr in (oracle_p5.codes, oracle_p5.theta, oracle_p5.types):
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    assert isinstance(oracle_p5.per_ambient_regular, tuple)


def test_record_keys_are_distinct(oracle_p5):
    codes = oracle_p5.codes
    assert codes.dtype == np.int64
    assert len(oracle_p5.theta) == len(oracle_p5.types) == len(codes)
    # each row is a sorted code set; consecutive rows strictly increase in
    # lexicographic order, so the rows are distinct
    assert np.all(np.diff(codes, axis=1) > 0)
    differs = codes[1:] != codes[:-1]
    assert differs.any(axis=1).all()
    first = differs.argmax(axis=1)
    rows = np.arange(len(first))
    assert np.all(codes[1:][rows, first] > codes[:-1][rows, first])


def test_trivial_theta_record_is_m1_times_identity(oracle_p5):
    p = 5
    aut = aut_table(p)
    N = aut.N
    (the_one,) = np.flatnonzero(oracle_p5.theta == 1)
    expected = sorted(
        m1_code(M1Elt(p, a, b, c)) * N + aut.identity
        for a in range(p)
        for b in range(p)
        for c in range(p)
    )
    assert oracle_p5.codes[the_one].tolist() == expected
    assert oracle_p5.types[the_one] == GroupType.HeisenbergM1.value


def test_sampled_records_materialize_correctly(oracle_p5):
    # For a spread of records, rebuild the scalar subgroup and re-derive
    # regularity, type, and theta order from scratch.
    codec = hol_codec(5)
    picks = range(0, len(oracle_p5.codes), 500)
    assert len(picks) >= 13
    for i in picks:
        sg = codec.materialize(oracle_p5.codes[i])
        assert len(sg.elements) == 125
        assert is_regular(sg)
        assert isomorphism_type(sg).value == oracle_p5.types[i]
        assert len({e.alpha for e in sg.elements}) == oracle_p5.theta[i]
