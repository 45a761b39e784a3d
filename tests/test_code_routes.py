"""The code-array routes against the full-element references.

Representatives carry sorted holomorph codes and generator codes; stabilizers
and transporters sweep generator conjugates only.  Each fast route is pinned
here to the scalar model or to the dense conj_matrix / orbit sweep.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import sbc.classify as classify
import sbc.tables as tables
from sbc.automorphisms import alpha1, aut_identity
from sbc.classify import (
    classification_records,
    orbit_union_keys,
    orbits_match,
    stabilizer_indices,
    verify_pairwise_nonconjugate,
)
from sbc.families import Representative, all_representatives, trivial_subgroup
from sbc.group_core import M1Elt
from sbc.holomorph import HolElt
from sbc.oracle import enumerate_regular_subgroups
from sbc.skewbrace import (
    annihilator_indices,
    brace_from_codes,
    brace_from_subgroup,
    is_involutive,
    socle_and_annihilator_masks,
    socle_indices,
    verify_braid,
    verify_nondegenerate,
    ybe_tables,
)
from sbc.subgroups import generate
from sbc.tables import HolCodec, hol_codec

P = 5
RNG = random.Random(2026)


@pytest.fixture(scope="module")
def reps():
    return all_representatives(P)


def test_representatives_are_cached_read_only_codes(reps) -> None:
    assert isinstance(reps, tuple)
    assert all_representatives(P) is reps
    for rep in reps:
        assert rep.codes.dtype == np.int64 and rep.codes.shape == (P**3,)
        assert rep.gen_codes.dtype == np.int64 and rep.gen_codes.shape == (3,)
        assert np.all(np.diff(rep.codes) > 0)
        assert np.isin(rep.gen_codes, rep.codes).all()
        for arr in (rep.codes, rep.gen_codes):
            with pytest.raises(ValueError):
                arr[0] = 0


@pytest.mark.parametrize("p", [5, 7])
def test_representative_rows_are_indexed_by_n_part(p) -> None:
    codec = hol_codec(p)
    for rep in all_representatives(p):
        assert np.array_equal(rep.codes // codec.N, np.arange(p**3)), rep.rep_id
        assert rep.codes[0] == codec.identity, rep.rep_id
        assert codec.is_regular_row(rep.codes), rep.rep_id


def test_oracle_rows_are_indexed_by_n_part(oracle_p5) -> None:
    codec = hol_codec(P)
    codes = oracle_p5.codes
    assert np.array_equal(codes // codec.N, np.broadcast_to(np.arange(P**3), codes.shape))
    assert np.all(codes[:, 0] == codec.identity)


def test_sweeps_reject_a_non_regular_target(reps) -> None:
    codec = hol_codec(P)
    # <rho, sigma, alpha1> has order 125 but only 25 distinct n-parts
    sub = generate([
        HolElt(M1Elt(P, 1, 0, 0), aut_identity(P)),
        HolElt(M1Elt(P, 0, 1, 0), aut_identity(P)),
        HolElt(M1Elt(P, 0, 0, 0), alpha1(P)),
    ])
    codes = codec.subgroup_codes(sub)
    assert len(codes) == P**3 and not codec.is_regular_row(codes)
    with pytest.raises(ValueError):
        codec.stabilizer(codes, [codec.encode(g) for g in sub.generators])
    with pytest.raises(ValueError):
        codec.transporter_exists(reps[0].codes, reps[0].gen_codes, codes)


def test_codes_match_the_scalar_subgroup(reps) -> None:
    codec = hol_codec(P)
    assert reps[0].subgroup == trivial_subgroup(P)
    for rep in reps:
        sub = rep.subgroup
        assert np.array_equal(rep.codes, codec.subgroup_codes(sub)), rep.rep_id
        gens = [codec.decode(c) for c in rep.gen_codes]
        assert generate(gens) == sub, rep.rep_id


def _composed_rows(codec, codes):
    """conj_images(codes, every automorphism) by the composition route, a
    few codes at a time: each composition holds some 20 (codes, N) arrays."""
    every = np.arange(codec.N)
    step = max(1, (1 << 18) // codec.N)
    return np.concatenate(
        [codec.conj_images(codes[i : i + step], every) for i in range(0, len(codes), step)]
    )


def _reference_parts(codec, codes):
    """(n_rows, n_at, a_rows, a_at) with n_rows[n_at] + a_rows[a_at] equal to
    _composed_rows(codec, codes).  The composition route conjugates the M1
    part and the automorphism part independently, (n, a) -> (alpha(n),
    alpha a alpha^-1): one reference row per distinct part, M1 part 0 being
    fixed by every automorphism."""
    identity = codec.aut.identity
    nparts, aparts = np.divmod(codes, codec.N)
    ns, n_at = np.unique(nparts, return_inverse=True)
    auts, a_at = np.unique(aparts, return_inverse=True)
    n_rows = _composed_rows(codec, ns * codec.N + identity) - identity
    return n_rows, n_at, _composed_rows(codec, auts), a_at


def test_generator_stabilizer_matches_full_conjugation(reps) -> None:
    """The generator sweep against every element conjugated by every
    automorphism: alpha is in the stabilizer when the sorted conjugate
    of the subgroup is the subgroup."""
    codec = hol_codec(P)
    k = P**3
    n_rows, n_at, a_rows, a_at = _reference_parts(codec, np.concatenate([r.codes for r in reps]))
    for i, rep in enumerate(reps):
        at = slice(i * k, (i + 1) * k)
        images = n_rows[n_at[at]] + a_rows[a_at[at]]  # (element, automorphism)
        full = np.flatnonzero((np.sort(images, axis=0) == rep.codes[:, None]).all(axis=0))
        assert np.array_equal(codec.stabilizer(rep.codes, rep.gen_codes), full), rep.rep_id


@pytest.mark.parametrize("p, elements", [(5, True), (7, False)])
def test_decomposed_sweep_matches_composition_route(p, elements) -> None:
    """The full sweep, one composition per matrix part plus affine inner
    offsets, gives the composition route's rows: at p = 5 for every element
    of every representative, at p = 7 for every generator."""
    codec = hol_codec(p)
    identity = codec.aut.identity
    codes = np.unique(
        np.concatenate([r.codes if elements else r.gen_codes for r in all_representatives(p)])
    )
    aparts = codes % codec.N
    assert (aparts == identity).any() and (aparts != identity).any()
    n_rows, n_at, a_rows, a_at = _reference_parts(codec, codes)
    step = (1 << 20) // codec.N
    for lo in range(0, len(codes), step):
        at = slice(lo, lo + step)
        assert np.array_equal(codec.conj_images(codes[at]), n_rows[n_at[at]] + a_rows[a_at[at]])
    # and with no split, for two codes of each kind
    pick = np.concatenate([codes[aparts == identity][:2], codes[aparts != identity][:2]])
    assert np.array_equal(codec.conj_images(pick), _composed_rows(codec, pick))


def test_sweep_matches_composition_route_on_any_codes() -> None:
    """Sweeps of codes outside every representative, whose automorphism
    parts move the inner part's first coordinate with t1 (on the
    representatives' parts it moves with t2 only), give the composition
    route's rows."""
    codec = hol_codec(P)
    codes = np.array(RNG.sample(range(P**3 * codec.N), 12), dtype=np.int64)
    assert np.array_equal(codec.conj_images(codes), _composed_rows(codec, codes))


def test_generator_factors_match_composition_route_p11_sample() -> None:
    """At p = 11 the walks' factors hold the 23 automorphism parts of the
    representatives' generators, and sweeps from them give the composition
    route's rows on two generator codes of each part (one where the part has
    only one), compared on a fixed random sample of 2^16 automorphisms."""
    p = 11
    try:
        codec = hol_codec(p)
        gens = np.unique(np.concatenate([r.gen_codes for r in all_representatives(p)]))
        factors = classify._generator_factors(p)
        assert np.array_equal(factors[0], np.unique(gens % codec.N, return_counts=True)[0])
        assert len(factors[0]) == 23
        cols = np.sort(np.random.default_rng(11).choice(codec.N, size=1 << 16, replace=False))
        for part in factors[0]:
            pick = gens[gens % codec.N == part][:2]
            rows = np.stack(codec._conj_sweep(pick, factors))
            assert np.array_equal(rows[:, cols], codec.conj_images(pick, cols)), int(part)
    finally:  # the p = 11 tables and factors are some 30 MB
        classify._generator_factors.cache_clear()
        for cache in (tables.hol_codec, tables.aut_table, tables.m1_table):
            cache.cache_clear()


def test_transporter_matches_orbit_membership(reps) -> None:
    codec = hol_codec(P)
    for rep in RNG.sample(reps, 6):
        orbit = {tuple(row) for row in codec.orbit(rep.codes).tolist()}
        alpha = np.array([RNG.randrange(codec.N)])
        moved = codec.conj_matrix(rep.codes, alpha)[0]
        moved_gens = codec.conj_images(rep.gen_codes, alpha)[:, 0]
        assert tuple(moved.tolist()) in orbit
        assert codec.transporter_exists(rep.codes, rep.gen_codes, moved)
        assert codec.transporter_exists(moved, moved_gens, rep.codes)
    # distinct representatives with equal invariants: never in each other's orbit
    by_key: dict[tuple, list] = {}
    recs = {rec.rep_id: rec for rec in classification_records(P)}
    for rep in reps:
        rec = recs[rep.rep_id]
        by_key.setdefault((rec.theta_order, rec.structure, rec.autbr_order), []).append(rep)
    bucket = max(by_key.values(), key=len)
    a = bucket[0]
    orbit = {tuple(row) for row in codec.orbit(a.codes).tolist()}
    for b in bucket[1:]:
        assert tuple(b.codes.tolist()) not in orbit
        assert not codec.transporter_exists(a.codes, a.gen_codes, b.codes)
    # a smaller set is never a conjugate
    assert not codec.transporter_exists(a.codes[:-1], a.gen_codes, b.codes)


@pytest.mark.parametrize("p", [5, 7])
def test_generator_row_walk_matches_fresh_sweeps(p) -> None:
    """Shared rows are the rows a fresh sweep gives, and the stabilizers
    from them are the stabilizers."""
    codec = hol_codec(p)
    reps = all_representatives(p)
    walked = []
    for rep, rows in classify._generator_rows(p, reps):
        walked.append(rep)
        assert np.array_equal(np.stack(rows), codec.conj_images(rep.gen_codes)), rep.rep_id
        stab = codec.stabilizer(rep.codes, rep.gen_codes, images=rows)
        assert np.array_equal(stab, stabilizer_indices(rep)), rep.rep_id
    assert walked == list(reps)


@pytest.fixture
def fresh_records():
    """classification_records with empty caches of records and sweep
    factors, emptied again after."""
    classification_records.cache_clear()
    classify._generator_factors.cache_clear()
    yield classification_records
    classification_records.cache_clear()
    classify._generator_factors.cache_clear()


def test_walks_sweep_each_shared_generator_once(fresh_records, monkeypatch) -> None:
    # 42 distinct generator codes among the 59 representatives; a walk sweeps
    # a code again only when neither its block of 5 representatives at p = 5
    # nor the last representative before the block had it.  Their automorphism
    # parts take 11 values, and both walks read one build of their factors.
    swept, stabilizers, factored, walked, blocks = [], [], [], [], []
    sweep, stabilizer, build = HolCodec._conj_sweep, HolCodec.stabilizer, HolCodec.sweep_factors
    walk = classify._generator_rows

    def recording_walk(p, reps):
        for rep, rows in walk(p, reps):
            walked.append(rep)
            yield rep, rows

    def counting_sweep(self, codes, factors):
        swept.append(len(codes))
        blocks.append((len(walked), codes.tolist()))  # the block starts after the reps walked
        return sweep(self, codes, factors)

    def counting_factors(self, aparts):
        built = build(self, aparts)
        factored.append(len(built[0]))
        return built

    def counting_stabilizer(self, codes, *args, **kwargs):
        stabilizers.append(codes)
        return stabilizer(self, codes, *args, **kwargs)

    def check_blocks():
        # each call sweeps codes of at most five consecutive representatives
        for start, codes in blocks:
            assert start % 5 == 0
            assert set(codes) <= {c for rep in walked[start : start + 5] for c in rep.gen_codes.tolist()}
        for log in (walked, blocks, swept):
            log.clear()

    monkeypatch.setattr(classify, "_generator_rows", recording_walk)
    monkeypatch.setattr(HolCodec, "_conj_sweep", counting_sweep)
    monkeypatch.setattr(HolCodec, "stabilizer", counting_stabilizer)
    monkeypatch.setattr(HolCodec, "sweep_factors", counting_factors)
    assert max(1, classify._SWEEP_BLOCK // hol_codec(P).N) == 5
    assert len(fresh_records(P)) == 59
    assert (sum(swept), len(swept), len(stabilizers)) == (67, 12, 59)
    check_blocks()
    assert verify_pairwise_nonconjugate(P) == 182
    assert (sum(swept), len(swept), len(stabilizers)) == (48, 9, 59)
    check_blocks()
    assert factored == [11]


@pytest.mark.parametrize("p", [5, 7])
def test_walk_rows_own_their_memory(p) -> None:
    """Every walked row is an array of its own, or a view of one holding
    that row alone, so a carried row keeps no other row alive."""
    N = hol_codec(p).N
    for rep, rows in classify._generator_rows(p, all_representatives(p)):
        for row in rows:
            assert row.shape == (N,) and (row.base is None or row.base.size == N), rep.rep_id


def test_nonconjugacy_walk_skips_bucket_leaders(fresh_records, monkeypatch) -> None:
    # a bucket's first member has no earlier member to probe, so its
    # generators are not swept for it; every later member is walked once
    walked = []
    walk = classify._generator_rows

    def recording_walk(p, reps):
        walked.extend(rep.rep_id for rep in reps)
        return walk(p, reps)

    monkeypatch.setattr(classify, "_generator_rows", recording_walk)
    records = fresh_records(P)
    walked.clear()
    assert verify_pairwise_nonconjugate(P) == 182
    seen, later = set(), []
    for rec in records:
        bucket = (rec.theta_order, rec.structure, rec.autbr_order)
        if bucket in seen:
            later.append(rec.rep_id)
        seen.add(bucket)
    assert walked == later and len(later) == len(records) - len(seen)


def test_nonconjugacy_check_finds_a_conjugate_in_its_bucket(
    reps, fresh_records, monkeypatch
) -> None:
    codec = hol_codec(P)
    a = reps[12]
    alpha = np.setdiff1d(np.arange(codec.N), stabilizer_indices(a))[:1]
    moved = Representative(
        "conjugate", P, a.theta_order, a.group_type, a.autbr_order,
        codec.conj_matrix(a.codes, alpha)[0], codec.conj_images(a.gen_codes, alpha)[:, 0],
    )
    assert not np.array_equal(moved.codes, a.codes)
    monkeypatch.setattr(classify, "all_representatives", lambda p: reps + (moved,))
    records = fresh_records(P)
    assert records[-1].autbr_order == records[12].autbr_order
    with pytest.raises(AssertionError, match="representatives are conjugate"):
        verify_pairwise_nonconjugate(P)


def test_code_brace_matches_scalar_brace(reps) -> None:
    for rep in reps[::7]:
        fast = brace_from_codes(P, rep.codes)
        slow = brace_from_subgroup(rep.subgroup)
        assert np.array_equal(fast.codes, slow.codes)
        assert np.array_equal(fast.MUL, slow.MUL) and np.array_equal(fast.ADD, slow.ADD)


def test_precomputed_tables_give_the_same_answers(reps) -> None:
    for rep in (reps[0], reps[12], reps[-1]):
        brace = brace_from_codes(P, rep.codes)
        socle = socle_indices(brace)
        assert np.array_equal(
            annihilator_indices(brace, socle=socle), annihilator_indices(brace)
        )
        tables = ybe_tables(brace)
        assert verify_nondegenerate(brace, tables=tables) == verify_nondegenerate(brace)
        assert is_involutive(brace, tables=tables) == is_involutive(brace)
        assert verify_braid(brace, tables=tables) == verify_braid(brace)


def _row_masks(p: int, reps) -> tuple[np.ndarray, np.ndarray]:
    rows = np.stack([rep.codes for rep in reps])
    return socle_and_annihilator_masks(p, rows, np.stack([rep.gen_codes for rep in reps]))


@pytest.mark.parametrize("p", [5, 7])
def test_row_socles_match_the_brace_route(p) -> None:
    reps = all_representatives(p)
    socle, ann = _row_masks(p, reps)
    for i, rep in enumerate(reps):
        brace = brace_from_codes(p, rep.codes)
        want = socle_indices(brace)
        assert np.array_equal(np.flatnonzero(socle[i]), want), rep.rep_id
        assert np.array_equal(np.flatnonzero(ann[i]), annihilator_indices(brace, socle=want)), rep.rep_id
    records = classification_records(p)
    assert [rec.socle_order for rec in records] == socle.sum(axis=1).tolist()
    assert [rec.ann_order for rec in records] == ann.sum(axis=1).tolist()


def test_row_annihilator_keeps_the_socle_columns_every_generator_fixes(reps) -> None:
    # every theta(G) is a p-group, so its matrix parts have determinant 1
    # and fix the centre (a, 0, 0) -> (det a, 0, 0): on the representatives
    # the annihilator is the socle.  The fixed-point rule itself is checked
    # with listed automorphisms of determinant 1 and 2 on the row of
    # M1 x {id}, whose socle is the whole centre.
    codec = hol_codec(P)
    trivial = [rep for rep in reps if rep.theta_order == 1]
    assert len(trivial) == 1
    row = trivial[0].codes[None, :]
    centre = np.arange(P) * P * P
    socle, ann = _row_masks(P, reps)
    assert np.array_equal(socle, ann)
    for (t1, t2, a1, a2, a3, a4), kept in [((1, 0, 1, 0, 0, 1), centre), ((0, 0, 2, 0, 0, 1), [0])]:
        moved = [int(codec.aut.index(t1, t2, a1, a2, a3, a4))]
        socle, ann = socle_and_annihilator_masks(P, row, [moved])
        assert np.flatnonzero(socle[0]).tolist() == centre.tolist()
        assert np.flatnonzero(ann[0]).tolist() == list(kept)


def test_row_socles_check_their_input_and_both_kernel_routes(reps, monkeypatch) -> None:
    rows = np.stack([rep.codes for rep in reps[:3]])
    gens = np.stack([rep.gen_codes for rep in reps[:3]])
    with pytest.raises(ValueError):
        socle_and_annihilator_masks(P, rows[:, ::-1], gens)
    aut = hol_codec(P).aut
    monkeypatch.setattr(aut, "apply_codes", lambda idx, n: np.zeros(np.broadcast(idx, n).shape, dtype=np.int64))
    with pytest.raises(AssertionError, match="ker lambda routes disagree"):
        socle_and_annihilator_masks(P, rows, gens)


def test_coset_orbit_matches_full_orbit(reps) -> None:
    codec = hol_codec(P)
    for rep in (reps[0], reps[12], reps[30], reps[-1]):
        rows = codec.conj_matrix(rep.codes, classify._coset_transversal(rep))
        full = codec.orbit(rep.codes)
        # one conjugate per stabilizer coset, no two alike
        assert len(np.unique(rows, axis=0)) == len(rows) == len(full), rep.rep_id
        assert np.array_equal(np.unique(rows, axis=0), full), rep.rep_id


def test_orbit_union_rejects_overlapping_orbits(reps, monkeypatch) -> None:
    union = orbit_union_keys(P)
    # one row per subgroup of every orbit: the sum of the orbit sizes
    assert union.shape == (6625, P**3)
    assert union.dtype == np.int64 and not union.flags.writeable
    # a representative listed twice makes two orbits coincide
    monkeypatch.setattr(classify, "all_representatives", lambda p: reps + reps[7:8])
    with pytest.raises(AssertionError, match="orbits overlap"):
        orbit_union_keys(P)


def test_orbit_lookup_matches_orbit_union(reps, monkeypatch) -> None:
    union = orbit_union_keys(P)
    assert orbits_match(P, union)
    swapped = union.copy()
    swapped[0] = np.arange(P**3)  # a row that is no orbit member
    assert not orbits_match(P, swapped)  # one orbit row is not found
    assert not orbits_match(P, union[1:])  # one orbit row is missing
    assert not orbits_match(P, np.concatenate([swapped[:1], union]))  # one row is in no orbit
    assert not orbits_match(P, union[:0])  # no rows at all
    # a representative listed twice makes two orbits coincide: every row is
    # found, but the orbit sizes add up to more than the rows
    monkeypatch.setattr(classify, "all_representatives", lambda p: reps + reps[7:8])
    assert not orbits_match(P, union)


def _argmax_transversal(rep: Representative) -> np.ndarray:
    """The coset transversal by one argmax over all of Aut(M1) per coset."""
    codec = hol_codec(rep.p)
    stab = stabilizer_indices(rep)
    transversal, uncovered = [], np.ones(codec.N, dtype=bool)
    while uncovered.any():
        transversal.append(int(np.argmax(uncovered)))
        uncovered[codec.aut.compose_idx(transversal[-1], stab)] = False
    return np.array(transversal)


def test_coset_transversal_resumes_where_the_last_coset_began(reps) -> None:
    for rep in (reps[0], reps[12], reps[30], reps[-1]):
        assert np.array_equal(classify._coset_transversal(rep), _argmax_transversal(rep)), rep.rep_id


def test_orbits_match_needs_every_aut_generator(oracle_p5, monkeypatch) -> None:
    gens = classify.aut_generators(P)
    assert gens.tolist() == [0, 1, P] and orbits_match(P, oracle_p5.codes)
    got = []
    for k in range(len(gens)):
        monkeypatch.setattr(classify, "aut_generators", lambda p: np.delete(gens, k))
        got.append(orbits_match(P, oracle_p5.codes))
    # 1 and p alone generate Aut(M1) (greedy took 0 first), but without 1
    # or p the others generate a proper subgroup (orders 240 and 32),
    # whose orbits split some representative orbit
    assert got == [True, False, False]


def test_orbits_match_refuses_a_non_regular_row(oracle_p5) -> None:
    codes = oracle_p5.codes.copy()
    codes[-1, -1] = codes[-1, -2] + 1  # sorted, n-part p^3 - 2 twice
    assert not orbits_match(P, codes)
    assert classify._orbit_classes(P, codes) is None


def test_orbits_match_refuses_a_repeated_row(oracle_p5) -> None:
    codes = oracle_p5.codes
    assert not orbits_match(P, np.concatenate([codes, codes[:1]]))
    assert not orbits_match(P, np.concatenate([codes[:1], codes]))


@pytest.mark.parametrize("p", [5, 7])
def test_class_sizes_are_the_record_orbit_sizes(p) -> None:
    # independent of the stabilizer sweep: the classes of the oracle rows
    # under the Aut(M1) generators against each record's |Aut(M1)| / |Stab|
    rows = enumerate_regular_subgroups(p, budget=p).codes
    label, at = classify._orbit_classes(p, rows)
    sizes = np.bincount(label)[label[at]]
    assert len(np.unique(label)) == len(at) == len(classification_records(p))
    assert sizes.tolist() == [rec.orbit_size for rec in classification_records(p)]
