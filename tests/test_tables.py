"""Agreement between the vectorized table layer and the scalar object model."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from sbc.automorphisms import (
    aut_compose,
    aut_inverse,
    enumerate_aut,
    aut_apply,
)
from sbc.families import all_representatives
from sbc.group_core import m1_code, m1_elements, m1_from_code, m1_inv, m1_mul
from sbc.holomorph import HolElt, conj_by_aut, hol_inv, hol_mul
from sbc.oracle import _standard_ambient
from sbc.subgroups import generate
from sbc.tables import (
    aut_generators,
    aut_subgroup,
    aut_table,
    class_labels,
    distinct_rows,
    hol_codec,
    m1_table,
    regular_row_mask,
    row_conjugator,
    row_lookup,
)

P = 5
RNG = random.Random(7)


def test_m1_table_matches_scalar() -> None:
    t = m1_table(P)
    els = m1_elements(P)
    for _ in range(300):
        x, y = RNG.choice(els), RNG.choice(els)
        assert t.MUL[m1_code(x), m1_code(y)] == m1_code(m1_mul(x, y))
        assert t.INV[m1_code(x)] == m1_code(m1_inv(x))


def test_distinct_rows_matches_lexicographic_unique() -> None:
    rng = np.random.default_rng(3)
    # few values, so equal prefixes are common and later columns decide
    pool = np.sort(rng.integers(0, 4, size=(60, 5)), axis=1)
    # repeats within each block (pool[5:15]) and across blocks (pool[30:40], pool[:8])
    rows = np.vstack([pool[:40], pool[5:15], pool[30:], pool[:8]])
    out, first = distinct_rows(rows)
    want, want_first = np.unique(rows, axis=0, return_index=True)
    assert len(want) < len(rows)
    assert np.array_equal(out, want) and out.dtype == rows.dtype
    assert np.array_equal(rows[first], out)
    assert np.array_equal(first, want_first)
    assert not out.flags.writeable
    with pytest.raises(ValueError):
        out[0, 0] = 1


def test_distinct_rows_across_compare_blocks() -> None:
    # rows 2^13 wide are compared 8 at a time, and rows that differ only in
    # their last column straddle the block boundaries
    rng = np.random.default_rng(5)
    pool = np.repeat(rng.integers(0, 3, size=(1, 1 << 13)), 30, axis=0)
    pool[:, -1] = rng.integers(0, 12, size=30)
    rows = pool[rng.permutation(30)]
    out, first = distinct_rows(rows)
    want, want_first = np.unique(rows, axis=0, return_index=True)
    assert len(want) < len(rows)
    assert np.array_equal(out, want) and np.array_equal(first, want_first)


def test_row_lookup_finds_rows_and_misses() -> None:
    rng = np.random.default_rng(4)
    rows = distinct_rows(rng.integers(0, 3, size=(40, 4)))[0][::-1]  # not in lexicographic order
    find = row_lookup(rows)
    missing = np.array([[3, 0, 0, 0], [-1, 2, 2, 2]])
    probes = np.concatenate([rows[[7, 0, 7]], missing, rows[-1:]])
    at, found = find(probes)
    assert found.tolist() == [True, True, True, False, False, True]
    assert at[found].tolist() == [7, 0, 7, len(rows) - 1]
    # an empty set finds nothing, and an empty block of probes finds nothing
    at, found = row_lookup(rows[:0])(probes)
    assert at.shape == found.shape == (len(probes),) and not found.any()
    assert find(probes[:0])[1].shape == (0,)


def test_regular_row_mask_marks_regular_rows_only() -> None:
    N = hol_codec(P).N
    rows = np.stack([rep.codes for rep in all_representatives(P)[:4]])
    assert regular_row_mask(P, rows, N).tolist() == [True] * 4
    bad = rows.copy()
    bad[1] = bad[1, ::-1]  # n-part p^3 - 1 - j at position j
    assert regular_row_mask(P, bad, N).tolist() == [True, False, True, True]
    assert bool(regular_row_mask(P, rows[0], N)) and not regular_row_mask(P, bad[1], N)
    assert regular_row_mask(P, rows[:, 1:], N).tolist() == [False] * 4  # p^3 - 1 codes
    # local codes of an ambient of width |A|: a row reads the same at any width
    assert regular_row_mask(P, rows // N * 25 + 3, 25).tolist() == [True] * 4


def test_aut_table_enumeration_matches_scalar() -> None:
    t = aut_table(P)
    auts = enumerate_aut(P)
    assert t.N == len(auts) == 12000
    for i, alpha in enumerate(auts):
        assert t.aut_at(i) == alpha
        assert t.index_of(alpha) == i
    assert t.aut_at(t.identity).is_identity()


@pytest.mark.parametrize("p", [5, 7])
def test_aut_index_inverts_coords(p: int) -> None:
    t = aut_table(p)
    idx = np.arange(t.N)
    coords = t.coords(idx)
    assert np.array_equal(t.index(*coords), idx)
    # arguments are reduced mod p
    assert np.array_equal(t.index(*(c + 3 * p for c in coords)), idx)
    assert np.array_equal(t.index(*(c - p for c in coords)), idx)
    # the inner part times GL2 in packed order
    t1, t2, *mat = coords
    assert np.array_equal(idx // t.n_gl, t1 * p + t2)
    key = ((mat[0] * p + mat[1]) * p + mat[2]) * p + mat[3]
    assert np.all(np.diff(key.reshape(p * p, -1), axis=1) > 0)


def test_aut_index_singular_matrix_is_minus_one() -> None:
    t = aut_table(P)
    assert t.index(1, 2, 0, 0, 0, 0) == -1
    assert t.index(0, 0, 1, 2, 2, 4) == -1  # det 1*4 - 2*2 = 0
    assert t.index(3, 4, 2, 1, 4, 2) == -1  # det 4 - 4 = 0
    a = np.arange(P)
    got = t.index(a[:, None], 0, 1, a[None, :], 0, 0)  # a4 = 0: det 0
    assert got.shape == (P, P) and np.all(got == -1)
    assert t.index(0, 0, 1, 0, 0, 1) == t.identity


def test_aut_table_compose_and_inverse_match_scalar() -> None:
    t = aut_table(P)
    auts = enumerate_aut(P)
    ii = np.array([RNG.randrange(t.N) for _ in range(400)])
    jj = np.array([RNG.randrange(t.N) for _ in range(400)])
    out = t.compose_idx(ii, jj)
    for i, j, k in zip(ii.tolist(), jj.tolist(), out.tolist()):
        assert auts[k] == aut_compose(auts[i], auts[j])
    inv = t.INV[ii]
    for i, k in zip(ii.tolist(), inv.tolist()):
        assert auts[k] == aut_inverse(auts[i])


def test_aut_inverse_across_build_chunks_matches_scalar() -> None:
    # at p = 7 the inverses are built in two chunks of at most 2**16
    t = aut_table(7)
    assert 1 << 16 < t.N < 2 << 16
    for i in range((1 << 16) - 300, (1 << 16) + 300):
        assert t.aut_at(int(t.INV[i])) == aut_inverse(t.aut_at(i))
    assert np.array_equal(t.INV[t.INV], np.arange(t.N))


def test_cached_tables_are_read_only() -> None:
    aut, m1 = aut_table(P), m1_table(P)
    # writing the same value back leaves the cache intact if the write succeeds
    with pytest.raises(ValueError):
        aut.INV[0] = aut.INV[0]
    with pytest.raises(ValueError):
        m1.MUL[0, 0] = m1.MUL[0, 0]
    for table in (*aut.GL, aut.RANK, aut.INV, aut._inv_mod, m1.codes, m1.MUL, m1.INV):
        assert not table.flags.writeable


def test_aut_table_apply_matches_scalar() -> None:
    t = aut_table(P)
    auts = enumerate_aut(P)
    for _ in range(200):
        i = RNG.randrange(t.N)
        n = RNG.randrange(P**3)
        got = int(t.apply_codes(np.int64(i), np.int64(n)))
        assert got == m1_code(aut_apply(auts[i], m1_from_code(P, n)))


def test_apply_codes_broadcasts() -> None:
    t = aut_table(P)
    out = t.apply_codes(np.arange(50)[:, None], np.arange(P**3)[None, :])
    assert out.shape == (50, P**3)
    # Each automorphism is a bijection of the code space.
    for row in out:
        assert len(np.unique(row)) == P**3


def test_one_element_image_matches_scalar() -> None:
    codec = hol_codec(P)
    auts = enumerate_aut(P)
    g = HolElt(RNG.choice(m1_elements(P)), auts[RNG.randrange(codec.N)])
    image = codec.one_element_image(codec.encode(g))
    for i in RNG.sample(range(codec.N), 50):
        assert codec.decode(image[i]) == conj_by_aut(auts[i], g)


@pytest.mark.parametrize("ambient", range(P + 1))
def test_aut_subgroup_matches_the_global_tables(ambient: int, sylow_ambients) -> None:
    aut = aut_table(P)
    members = sylow_ambients(P)[ambient]
    APPLY, COMP, INV = aut_subgroup(P, members)
    assert np.array_equal(APPLY, aut.apply_codes(members[:, None], np.arange(P**3)[None, :]))
    assert np.array_equal(members[COMP], aut.compose_idx(members[:, None], members[None, :]))
    assert np.array_equal(members[INV], aut.INV[members])
    # one automorphism outside the Sylow: p^3 + 1 members are no subgroup
    outside = np.setdiff1d(np.arange(aut.N), members)[ambient]
    with pytest.raises(ValueError, match="not closed"):
        aut_subgroup(P, np.union1d(members, [outside]))


@pytest.mark.parametrize("p", [5, 7])
def test_aut_subgroup_composition_matches_compose_idx(p: int, sylow_ambients) -> None:
    # COMP is read off the members' images of the generators 1 and p; the
    # reference composes the members in triangular form.  Every Sylow ambient
    # and every theta(G) of a representative.
    aut = aut_table(p)
    thetas = {tuple(np.unique(rep.codes % aut.N)) for rep in all_representatives(p)}
    subgroups = list(sylow_ambients(p)) + [np.array(t) for t in thetas]
    assert len(subgroups) > p + 1
    for members in subgroups:
        APPLY, COMP, INV = aut_subgroup(p, members)
        assert np.array_equal(APPLY, aut.apply_codes(members[:, None], np.arange(p**3)[None, :]))
        assert np.array_equal(members[COMP], aut.compose_idx(members[:, None], members[None, :]))
        assert np.array_equal(members[INV], aut.INV[members])


def test_hol_codec_round_trip_and_ops() -> None:
    codec = hol_codec(P)
    auts = enumerate_aut(P)
    els = m1_elements(P)
    for _ in range(100):
        g = HolElt(RNG.choice(els), RNG.choice(auts))
        h = HolElt(RNG.choice(els), RNG.choice(auts))
        cg, ch = codec.encode(g), codec.encode(h)
        assert codec.decode(cg) == g
        assert codec.decode(codec.mul_codes(np.int64(cg), np.int64(ch))) == hol_mul(g, h)
        assert codec.decode(codec.inv_codes(np.int64(cg))) == hol_inv(g)


def test_conj_matrix_matches_scalar_conjugation() -> None:
    from sbc.automorphisms import alpha3, aut_identity
    from sbc.group_core import rho, sigma, tau

    codec = hol_codec(P)
    auts = enumerate_aut(P)
    e = aut_identity(P)
    sub = generate([HolElt(rho(P), e), HolElt(tau(P), e), HolElt(sigma(P), alpha3(P))])
    codes = codec.subgroup_codes(sub)
    rows = codec.conj_matrix(codes, np.array([0, 17, 4242]))
    for r, aidx in zip(rows, (0, 17, 4242)):
        expected = sorted(codec.encode(conj_by_aut(auts[aidx], g)) for g in sub.elements)
        assert r.tolist() == expected


def test_stabilizer_and_orbit_small_case() -> None:
    from sbc.automorphisms import alpha3, aut_identity
    from sbc.group_core import rho, sigma, tau

    codec = hol_codec(P)
    e = aut_identity(P)
    # <r, t, s alpha3>: printed stabilizer is all diagonal-matrix
    # automorphisms, order (p-1)^2 p^2 = 400, so the orbit has 30 members.
    sub = generate([HolElt(rho(P), e), HolElt(tau(P), e), HolElt(sigma(P), alpha3(P))])
    codes = codec.subgroup_codes(sub)
    stab = codec.stabilizer(codes, [codec.encode(g) for g in sub.generators])
    assert len(stab) == 400
    _, _, _, a2, a3, _ = aut_table(P).coords(stab)
    assert np.all(a2 == 0) and np.all(a3 == 0)
    orb = codec.orbit(codes)
    assert orb.shape == (12000 // 400, len(codes))
    assert any(np.array_equal(row, codes) for row in orb)


def test_transporter_between_conjugates() -> None:
    from sbc.automorphisms import alpha1, alpha3, aut_from_matrix, aut_identity, GL2Mat
    from sbc.group_core import rho, sigma, tau

    codec = hol_codec(P)
    e = aut_identity(P)
    a = generate([HolElt(rho(P), e), HolElt(tau(P), e), HolElt(sigma(P), alpha1(P))])
    b_alpha = aut_from_matrix(GL2Mat(P, 1, 0, 0, 3))
    from sbc.subgroups import conjugate_subgroup

    b = conjugate_subgroup(b_alpha, a)
    ca, cb = codec.subgroup_codes(a), codec.subgroup_codes(b)
    ga = [codec.encode(g) for g in a.generators]
    gb = [codec.encode(g) for g in b.generators]
    assert codec.transporter_exists(ca, ga, cb)
    assert codec.transporter_exists(cb, gb, ca)
    # <r, t, s alpha1> is never conjugate to <r, t, s alpha3> (different
    # printed stabilizer orders).
    c = generate([HolElt(rho(P), e), HolElt(tau(P), e), HolElt(sigma(P), alpha3(P))])
    assert not codec.transporter_exists(ca, ga, codec.subgroup_codes(c))


def test_carriers_do_not_depend_on_row_order() -> None:
    # stabilizers, and transporters to a conjugate and to another
    # representative, probing the generators' rows in every order
    codec = hol_codec(P)
    reps = all_representatives(P)
    for a, b in zip(reps[::6], reps[3::6]):
        images = codec.conj_images(a.gen_codes)
        conjugate = np.sort(codec.conj_images(a.codes, np.array([4242]))[:, 0])
        assert len(codec._carriers(images, conjugate)), a.rep_id
        for target in (a.codes, b.codes, conjugate):
            want = codec._carriers(images, target)
            for order in itertools.permutations(range(len(images))):
                assert np.array_equal(codec._carriers(images[list(order)], target), want), a.rep_id


def test_stabilizer_and_transporter_refuse_no_generators() -> None:
    codec = hol_codec(P)
    rep = all_representatives(P)[3]
    none = np.array([], dtype=np.int64)
    with pytest.raises(ValueError, match="no generator codes"):
        codec.stabilizer(rep.codes, none)
    with pytest.raises(ValueError, match="no generator codes"):
        codec.stabilizer(rep.codes, rep.gen_codes, images=[])
    with pytest.raises(ValueError, match="no generator codes"):
        codec.transporter_exists(rep.codes, none, rep.codes)


def _composition_route(p: int, rows: np.ndarray, z: int) -> np.ndarray:
    """The sorted conjugates of code rows by z through conj_matrix, the
    per-automorphism compositions, one row at a time."""
    codec = hol_codec(p)
    return np.array([codec.conj_matrix(row, np.array([z]))[0] for row in rows])


def test_row_conjugator_matches_conj_matrix(oracle_p5) -> None:
    # every p=5 oracle row by every Aut(M1) generator and two more
    # automorphisms, and a sample of p=7 rows (the representatives)
    codec = hol_codec(P)
    rows = oracle_p5.codes
    for z in aut_generators(P).tolist() + [4242, codec.N - 1]:
        got = row_conjugator(P, z, np.arange(codec.N))(rows % codec.N)
        moved = codec.conj_images(rows.ravel(), np.array([z]))[:, 0].reshape(rows.shape)
        assert np.array_equal(got, np.sort(moved, axis=1)), z
        assert np.array_equal(got[::500], _composition_route(P, rows[::500], z)), z
    codec7 = hol_codec(7)
    rows7 = np.array([rep.codes for rep in all_representatives(7)])
    for z in aut_generators(7).tolist() + [12345]:
        got = row_conjugator(7, z, np.arange(codec7.N))(rows7 % codec7.N)
        assert np.array_equal(got, _composition_route(7, rows7, z)), z


def test_row_conjugator_on_local_positions() -> None:
    # the oracle's merge gives positions in an ambient's members: here
    # every representative, all inside the standard Sylow ambient
    members = _standard_ambient(P)
    codec = hol_codec(P)
    rows = np.array([rep.codes for rep in all_representatives(P)])
    assert len(rows) == 59 and np.isin(rows % codec.N, members).all()
    pos = np.searchsorted(members, rows % codec.N)
    got = row_conjugator(P, 4242, members)(pos)
    assert np.array_equal(got, _composition_route(P, rows, 4242))


@pytest.mark.parametrize("p", [5, 7])
def test_aut_generators_generate_aut_m1(p) -> None:
    aut = aut_table(p)
    gens = aut_generators(p)
    assert gens.tolist() == [0, 1, p] and not gens.flags.writeable
    # breadth-first closure under composition on the right
    inside = np.zeros(aut.N, dtype=bool)
    inside[aut.identity] = True
    frontier = np.array([aut.identity])
    while frontier.size:
        products = aut.compose_idx(frontier[:, None], gens[None, :]).ravel()
        frontier = np.unique(products[~inside[products]])
        inside[frontier] = True
    assert inside.all()


def test_class_labels_are_least_indices_of_orbits() -> None:
    # two permutations of range(8): (0 3)(5 6) and (1 3 7); classes
    # {0, 1, 3, 7}, {2}, {4}, {5, 6}
    steps = [np.array([3, 1, 2, 0, 4, 6, 5, 7]), np.array([0, 3, 2, 7, 4, 5, 6, 1])]
    moves = []  # each label handed on goes along a step, to v = steps[k][u]
    rep = class_labels(8, steps, lambda k, u, v: moves.append((np.array_equal(steps[k][u], v), len(u))))
    assert rep.tolist() == [0, 0, 2, 0, 4, 5, 5, 0]
    assert all(ok for ok, _ in moves) and sum(n for _, n in moves) >= 4
    assert class_labels(3, []).tolist() == [0, 1, 2]
