from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import sbc.oracle as oracle
import sbc.skewbrace as skewbrace
from sbc.families import all_representatives, trivial_subgroup
from sbc.group_core import M1Elt, m1_code, m1_mul
from sbc.holomorph import HolElt
from sbc.skewbrace import (
    _additive_centre,
    _braid_holds,
    _first_axiom_failure,
    _first_failing_triple,
    annihilator_indices,
    brace_from_codes,
    brace_from_subgroup,
    is_involutive,
    lambda_matches_automorphism_action,
    socle_indices,
    verify_brace_axiom,
    verify_braid,
    verify_ideal,
    verify_nondegenerate,
    ybe_tables,
)
from sbc.subgroups import GroupType, generate
from sbc.automorphisms import alpha1, aut_identity
from sbc.tables import hol_codec, m1_table, row_conjugator, standard_ambient

P = 5


def theta_order(brace) -> int:
    """|theta(G)|: the distinct automorphism parts of the brace's codes."""
    return len(np.unique(brace.codes % hol_codec(brace.p).N))


@pytest.fixture(scope="module")
def rep_braces():
    return [(rep, brace_from_subgroup(rep.subgroup)) for rep in all_representatives(P)]


def test_trivial_brace_has_equal_laws():
    br = brace_from_subgroup(trivial_subgroup(P))
    assert np.array_equal(br.MUL, br.ADD)
    assert theta_order(br) == 1
    # local indices are the M1 codes of the n-parts, and both laws are M1's
    x = M1Elt(P, 2, 3, 1)
    y = M1Elt(P, 4, 0, 2)
    assert br.MUL[m1_code(x), m1_code(y)] == m1_code(m1_mul(x, y))


def test_carrier_must_be_regular():
    # <rho, sigma, alpha1> has order 125 but only 25 distinct n-parts.
    gens = [
        HolElt(M1Elt(P, 1, 0, 0), aut_identity(P)),
        HolElt(M1Elt(P, 0, 1, 0), aut_identity(P)),
        HolElt(M1Elt(P, 0, 0, 0), alpha1(P)),
    ]
    sub = generate(gens)
    assert len(sub.elements) == 125
    with pytest.raises(ValueError):
        brace_from_subgroup(sub)


def test_carrier_must_have_cube_size():
    codec = hol_codec(P)
    with pytest.raises(ValueError):
        brace_from_codes(P, np.arange(10, dtype=np.int64) * codec.N)


@pytest.mark.parametrize("row", [1, 60, 124, "part-at-identity", "parts-swapped"])
def test_regular_but_open_carrier_is_rejected(row):
    # each change keeps the n-parts distinct, so only the closure checks can
    # reject the carrier
    codec = hol_codec(P)
    nparts, parts = np.divmod(all_representatives(P)[12].codes, codec.N)
    theta = set(parts.tolist())
    if row == "part-at-identity":
        # entry 0 becomes (0, beta) with beta != id in theta(G)
        parts[0] = parts[np.flatnonzero(parts != codec.aut.identity)[0]]
        assert set(parts.tolist()) == theta
    elif row == "parts-swapped":
        # two entries trade their distinct parts, so theta(G) stays closed
        i = 1
        j = np.flatnonzero(parts != parts[i])[-1]
        parts[[i, j]] = parts[[j, i]]
        assert set(parts.tolist()) == theta
    else:
        # the largest automorphism index, outside theta(G)
        parts[row] = codec.N - 1
    codes = nparts * codec.N + parts
    assert codec.is_regular_row(codes)
    with pytest.raises(ValueError, match="not closed"):
        brace_from_codes(P, codes)


def _assert_composition_route(br, label):
    """br's tables against the reference, which composes all p^6 pairs of
    holomorph codes."""
    codec = hol_codec(br.p)
    prod = codec.mul_codes(br.codes[:, None], br.codes[None, :])
    MUL = prod // codec.N
    assert np.array_equal(br.codes[MUL], prod), label
    assert np.array_equal(br.MUL, MUL), label
    assert np.array_equal(br.INV_MUL, codec.inv_codes(br.codes) // codec.N), label
    assert np.array_equal(br.ACTION, br.ADD[br.INV_ADD[:, None], MUL]), label


@pytest.mark.parametrize("p", [5, 7])
def test_theta_tables_match_the_composition_route(p):
    for rep in all_representatives(p):
        _assert_composition_route(brace_from_codes(p, rep.codes), rep.rep_id)


def _refuse(p, members):
    raise AssertionError("aut_subgroup ran for a row inside A_0")


@pytest.mark.parametrize("p", [5, 7, 11])
def test_every_representative_is_built_from_the_ambient_tables(p, monkeypatch):
    # every automorphism part lies in A_0, so no theta(G) table is built
    codec = hol_codec(p)
    reps = all_representatives(p)
    assert np.isin(np.array([rep.codes for rep in reps]) % codec.N, standard_ambient(p)).all()
    monkeypatch.setattr(skewbrace, "aut_subgroup", _refuse)
    for rep in reps:
        assert brace_from_codes(p, rep.codes).order == p**3, rep.rep_id


@pytest.mark.parametrize("p", [5, 7])
def test_ambient_route_matches_the_theta_route(p, monkeypatch):
    # an ambient that holds no part sends every row to the aut_subgroup route
    calls = []
    real = skewbrace.aut_subgroup
    ambient = [brace_from_codes(p, rep.codes) for rep in all_representatives(p)]
    monkeypatch.setattr(skewbrace, "ambient_tables", lambda p: (np.array([-1]), None, None, None))
    monkeypatch.setattr(skewbrace, "aut_subgroup", lambda p, members: calls.append(p) or real(p, members))
    for rep, br in zip(all_representatives(p), ambient):
        theta = brace_from_codes(p, rep.codes)
        for field in ("MUL", "INV_MUL", "ACTION"):
            assert np.array_equal(getattr(br, field), getattr(theta, field)), (rep.rep_id, field)
    assert len(calls) == len(ambient)


@pytest.mark.parametrize("p", [5, 7])
def test_row_outside_the_ambient_takes_the_theta_route(p, monkeypatch):
    # conjugating by beta_1 moves every part outside Inn(M1) out of A_0
    # (they meet in Inn(M1)), and the conjugate of a regular subgroup is one
    codec, members = hol_codec(p), standard_ambient(p)
    conjugate = row_conjugator(p, int(oracle._ambient_conjugators(p)[0]), members)
    calls = []
    real = skewbrace.aut_subgroup
    monkeypatch.setattr(skewbrace, "aut_subgroup", lambda p, members: calls.append(p) or real(p, members))
    moved = 0
    for rep in all_representatives(p):
        row = conjugate(np.searchsorted(members, rep.codes % codec.N)[None, :])[0]
        outer = bool((rep.codes % codec.aut.n_gl != codec.aut.identity).any())  # a matrix part is not I
        assert bool(np.isin(row % codec.N, members).all()) != outer, rep.rep_id
        if outer:
            moved += 1
            assert codec.is_regular_row(row), rep.rep_id
            _assert_composition_route(brace_from_codes(p, row), rep.rep_id)
            assert len(calls) == moved, rep.rep_id
    assert moved > 0


def test_axiom_holds_for_every_representative(rep_braces):
    for rep, br in rep_braces:
        assert verify_brace_axiom(br) is None, rep.rep_id


def _first_axiom_failure_scalar(MUL, ADD, INV_ADD):
    """Scalar lexicographic scan for the first triple breaking
    a (*) (b (+) c) == (a (*) b) (+) (-a) (+) (a (*) c)."""
    MUL, ADD, INV_ADD = MUL.tolist(), ADD.tolist(), INV_ADD.tolist()
    k = len(MUL)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if MUL[a][ADD[b][c]] != ADD[ADD[MUL[a][b]][INV_ADD[a]]][MUL[a][c]]:
                    return (a, b, c)
    return None


def test_axiom_reports_first_failing_triple(rep_braces):
    first_of_kind = {}
    for rep, br in rep_braces:
        first_of_kind.setdefault((rep.group_type, rep.theta_order), (rep, br))
    picked = list(first_of_kind.values())
    assert {rep.theta_order for rep, _ in picked} == {1, P, P**2, P**3}
    assert {rep.group_type for rep, _ in picked} == {GroupType.HeisenbergM1, GroupType.ElemAbelian_p3}
    for n, (rep, br) in enumerate(picked):
        # a swap inside row a of MUL breaks lambda_a and no other lambda
        a, x, y = n % 3 + 1, 7 + n, 90 - 3 * n
        MUL = br.MUL.copy()
        MUL[a, [x, y]] = MUL[a, [y, x]]
        broken = dataclasses.replace(br, MUL=MUL)
        want = _first_axiom_failure_scalar(MUL, br.ADD, br.INV_ADD)
        assert want is not None and want[0] == a, rep.rep_id
        assert verify_brace_axiom(broken) == want, rep.rep_id


def test_generator_check_agrees_with_full_sweep(rep_braces):
    rng = np.random.default_rng(20261018)
    aut = hol_codec(P).aut
    k = P**3
    cols = np.arange(k)
    for trial in range(40):
        rep, br = rep_braces[int(rng.integers(len(rep_braces)))]
        MUL = br.MUL.copy()
        a, b = (int(v) for v in rng.integers(k, size=2))
        kind = trial % 4
        if kind == 0:
            # row a rewritten as a (+) phi(b) for a random automorphism phi:
            # MUL need not be a group law any more, yet every lambda is additive
            phi = rng.integers(aut.N)
            MUL[a] = br.ADD[a, aut.apply_codes(phi, cols)]
        elif kind == 1:
            # one entry moved: lambda_a is no longer additive
            MUL[a, b] = (MUL[a, b] + rng.integers(1, k)) % k
        else:
            # lambda_a times the central (1, 0, 0) on the columns whose b (or
            # c) coordinate is 1: still additive along the generator (0, 0, 1)
            # (or (0, 1, 0)), so only the other generator can catch it
            coord = (cols // P) % P if kind == 2 else cols % P
            MUL[a, coord == 1] = br.ADD[MUL[a, coord == 1], P * P]
        broken = dataclasses.replace(br, MUL=MUL)
        full = _first_axiom_failure(broken)
        assert (full is None) == (kind == 0), (rep.rep_id, trial)
        assert verify_brace_axiom(broken) == full, (rep.rep_id, trial)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_axiom_generators_generate_m1(p):
    # the axiom check runs on c in {1, p}, the codes of (0, 0, 1) and (0, 1, 0)
    MUL = m1_table(p).MUL
    reached = np.zeros(p**3, dtype=bool)
    frontier = np.array([0])
    while len(frontier):
        reached[frontier] = True
        step = np.unique(MUL[frontier[:, None], np.array([1, p])[None, :]])
        frontier = step[~reached[step]]
    assert reached.all()


def test_lambda_agrees_with_stored_automorphisms(rep_braces):
    for rep, br in rep_braces:
        assert lambda_matches_automorphism_action(br), rep.rep_id


def test_lambda_check_reads_the_product_table():
    # lambda is computed from MUL when checked, so one changed product shows
    br = brace_from_codes(P, all_representatives(P)[5].codes)
    assert lambda_matches_automorphism_action(br)
    br.MUL[2, 3] = br.MUL[2, 4]
    assert not lambda_matches_automorphism_action(br)


def test_additive_group_is_always_heisenberg(rep_braces):
    for rep, br in rep_braces:
        assert not br.add_abelian(), rep.rep_id
        assert theta_order(br) == rep.theta_order, rep.rep_id


def test_multiplicative_abelianness_matches_type(rep_braces):
    for rep, br in rep_braces:
        assert br.mul_abelian() == (rep.group_type is GroupType.ElemAbelian_p3), rep.rep_id


@pytest.mark.parametrize("p", [5, 7])
def test_centres_match_the_transposed_comparison(p):
    # the additive centre is read off the generators 1 and p of M1, O(p^3);
    # the reference compares the whole table with its transpose
    for rep in all_representatives(p):
        br = brace_from_codes(p, rep.codes)
        assert np.array_equal(_additive_centre(br.ADD, p), np.all(br.ADD == br.ADD.T, axis=1)), rep.rep_id
        assert br.add_abelian() is bool(np.array_equal(br.ADD, br.ADD.T)) is False, rep.rep_id
        assert np.array_equal(br.mul_central, np.all(br.MUL == br.MUL.T, axis=1)), rep.rep_id
        assert br.mul_abelian() is bool(np.array_equal(br.MUL, br.MUL.T)), rep.rep_id
    assert np.flatnonzero(_additive_centre(m1_table(p).MUL, p)).tolist() == [a * p * p for a in range(p)]


def test_socle_and_annihilator_orders(rep_braces):
    # order p for theta of order 1, p, p**2; trivial for theta of order p**3
    for rep, br in rep_braces:
        soc = socle_indices(br)
        ann = annihilator_indices(br)
        expected = 1 if rep.theta_order == P**3 else P
        assert len(soc) == expected, rep.rep_id
        assert len(ann) == expected, rep.rep_id


def test_socle_elements_are_central_rho_powers(rep_braces):
    codec = hol_codec(P)
    for rep, br in rep_braces:
        soc = socle_indices(br)
        for i in soc:
            g = codec.decode(int(br.codes[i]))
            assert g.alpha.is_identity()
            assert g.n.b == 0 and g.n.c == 0


def test_socle_and_annihilator_are_ideals(rep_braces):
    for rep, br in rep_braces:
        assert verify_ideal(br, socle_indices(br)), rep.rep_id
        assert verify_ideal(br, annihilator_indices(br)), rep.rep_id


def test_full_carrier_is_ideal_and_point_is_not(rep_braces):
    _, br = rep_braces[0]
    assert verify_ideal(br, np.arange(br.order))
    nonid = 1  # index 0 is the identity
    assert not verify_ideal(br, np.array([nonid]))


def test_braid_relation_every_triple(rep_braces):
    # the shared sweep, called directly, is the reference for verify_braid,
    # which decides these tables by the skew-brace theorem without a sweep
    for rep, br in rep_braces:
        assert _first_failing_triple(br.order, _braid_holds(*ybe_tables(br))) is None, rep.rep_id
        assert verify_braid(br) is None, rep.rep_id


@pytest.mark.parametrize("p", [5, 7])
def test_braid_is_decided_without_a_sweep(p, monkeypatch):
    swept = []
    monkeypatch.setattr(skewbrace, "_first_failing_triple", lambda k, holds: swept.append(k))
    reps = all_representatives(p)
    assert len(reps) == {5: 59, 7: 109}[p]
    for rep in reps:
        assert verify_braid(brace_from_codes(p, rep.codes)) is None, rep.rep_id
    assert swept == []


def test_solutions_nondegenerate_not_involutive(rep_braces):
    # involutivity would force an abelian additive group
    for rep, br in rep_braces:
        assert verify_nondegenerate(br), rep.rep_id
        assert not is_involutive(br), rep.rep_id


def test_trivial_brace_solution_is_conjugation():
    br = brace_from_subgroup(trivial_subgroup(P))
    R1, R2 = ybe_tables(br)
    k = br.order
    assert np.array_equal(R1, np.broadcast_to(np.arange(k), (k, k)))
    # with lambda trivial, R2[i, j] = j^-1 i j in the subgroup law
    i = np.arange(k)[:, None]
    j = np.arange(k)[None, :]
    conj = br.MUL[br.MUL[br.INV_MUL[j], i], j]
    assert np.array_equal(R2, conj)


def _first_braid_failure(R1, R2):
    """Scalar lexicographic scan for the first triple breaking the braid
    relation, straight from the two tables."""
    R1, R2 = R1.tolist(), R2.tolist()
    k = len(R1)

    def r12(a, b, c):
        return R1[a][b], R2[a][b], c

    def r23(a, b, c):
        return a, R1[b][c], R2[b][c]

    for a in range(k):
        for b in range(k):
            for c in range(k):
                if r12(*r23(*r12(a, b, c))) != r23(*r12(*r23(a, b, c))):
                    return (a, b, c)
    return None


@pytest.mark.parametrize("corrupt", ["r1-row", "r2-column"])
def test_braid_reports_first_failing_triple(rep_braces, corrupt):
    _, br = rep_braces[-1]
    R1, R2 = (T.copy() for T in ybe_tables(br))
    # a swap inside one row of R1 (or one column of R2) keeps the solution
    # non-degenerate, so only the braid check can see it
    if corrupt == "r1-row":
        R1[3, [7, 40]] = R1[3, [40, 7]]
    else:
        R2[[9, 51], 2] = R2[[51, 9], 2]
    assert verify_nondegenerate(br, tables=(R1, R2))
    want = _first_braid_failure(R1, R2)
    assert want is not None
    assert verify_braid(br, tables=(R1, R2)) == want


def _consistent_pair(br, R1):
    """R1 with R2 = R1^-1 (*) a (*) b, so R1 (*) R2 == a (*) b holds."""
    a, b = np.indices(R1.shape)
    return R1, br.MUL[br.MUL[br.INV_MUL[R1], a], b]


@pytest.mark.parametrize("corrupt", ["r1-not-lambda", "mul-replaced", "r1-negative", "r2-negative"])
def test_braid_corruptions_name_the_scalar_triple(rep_braces, corrupt):
    # each corruption passes every condition of the decision but one, so
    # only that condition sends the tables to the sweep
    for rep, br in rep_braces[::19]:
        k = br.order
        R1, R2 = ybe_tables(br)
        if corrupt == "r1-not-lambda":
            R1 = R1.copy()
            R1[3, [7, 40]] = R1[3, [40, 7]]
            R1, R2 = _consistent_pair(br, R1)
        elif corrupt == "mul-replaced":
            # a row swap keeps every row of MUL a permutation; the tables are
            # then r of the replaced laws, which are no brace
            MUL = br.MUL.copy()
            MUL[2, [11, 60]] = MUL[2, [60, 11]]
            R1 = br.ADD[br.INV_ADD[:, None], MUL]
            R2 = np.argsort(MUL, axis=1)[R1, MUL]
            br = dataclasses.replace(br, MUL=MUL)
            assert np.array_equal(MUL[R1, R2], MUL)
        elif corrupt == "r1-negative":
            R1 = R1.copy()
            R1[6, 2] -= k  # wraps to the true entry in every numpy gather
        else:
            R2 = R2.copy()
            R2[4, 9] -= k
        want = _first_braid_failure(R1, R2)
        assert want is not None, rep.rep_id
        assert verify_braid(br, tables=(R1, R2)) == want, rep.rep_id


def test_braid_entry_past_the_table_raises_like_the_scalar(rep_braces):
    _, br = rep_braces[-1]
    R1, R2 = ybe_tables(br)
    R2 = R2.copy()
    R2[4, 9] += br.order
    with pytest.raises(IndexError):
        _first_braid_failure(R1, R2)
    with pytest.raises(IndexError):
        verify_braid(br, tables=(R1, R2))


def test_braid_of_other_laws_is_swept_and_holds(rep_braces, monkeypatch):
    # the codes of one brace with every law of another: ybe_tables give the
    # other brace's r, which is braided, but not this row's r, so the sweep decides
    (_, br), (_, other) = rep_braces[0], rep_braces[-1]
    laws = {f: getattr(other, f) for f in ("MUL", "INV_MUL", "ACTION")}
    swept = []
    real = skewbrace._first_failing_triple
    monkeypatch.setattr(skewbrace, "_first_failing_triple", lambda k, holds: swept.append(k) or real(k, holds))
    assert verify_braid(dataclasses.replace(br, **laws)) is None
    assert swept == [br.order]


def test_braid_relation_on_sampled_triples_from_the_brace_laws(rep_braces):
    # r(a, b) = (lambda_a(b), lambda_a(b)^-1 (*) a (*) b) evaluated from the
    # brace laws alone, independent of ybe_tables and the pair-code sweep
    rng = np.random.default_rng(20261018)
    for rep, br in rep_braces[::7]:
        MUL, ADD = br.MUL.tolist(), br.ADD.tolist()
        INV_MUL, INV_ADD = br.INV_MUL.tolist(), br.INV_ADD.tolist()

        def r(a, b):
            lam = ADD[INV_ADD[a]][MUL[a][b]]
            return lam, MUL[MUL[INV_MUL[lam]][a]][b]

        def r12(a, b, c):
            return (*r(a, b), c)

        def r23(a, b, c):
            return (a, *r(b, c))

        for a, b, c in rng.integers(0, br.order, size=(2000, 3)).tolist():
            lhs = r12(*r23(*r12(a, b, c)))
            assert lhs == r23(*r12(*r23(a, b, c))), (rep.rep_id, a, b, c)
