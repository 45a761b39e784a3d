"""Acceptance gates: one test per criterion, `pytest -v` gives the scorecard.

The timed criteria clear every cache first so the measured run builds its
tables, families, and orbit data from nothing.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np

import sbc.classify as classify
import sbc.families as families
import sbc.tables as tables
from sbc.automorphisms import (
    aut_apply,
    aut_apply_closed,
    aut_apply_split,
    aut_compose,
    aut_compose_triangular,
    gamma_split,
    sylow_aut_from_coords,
)
from sbc.classify import (
    AB_TAG,
    MUL_TAG,
    classification_records,
    closed_form_count_report,
    count_report,
    expected_stabilizer_order,
    orbit_union_keys,
    verify_pairwise_nonconjugate,
)
from sbc.cli import main
from sbc.group_core import M1Elt, half_mod, m1_elements, m1_mul
from sbc.holomorph import (
    HolElt,
    conj_by_aut,
    conj_by_aut_closed,
    hol_identity,
    hol_mul,
    hol_pow_closed,
)
from sbc.skewbrace import (
    brace_from_subgroup,
    verify_brace_axiom,
    verify_braid,
    verify_nondegenerate,
)


def _clear_caches() -> None:
    classify.classification_records.cache_clear()
    families.all_representatives.cache_clear()
    tables.m1_table.cache_clear()
    tables.aut_table.cache_clear()
    tables.hol_codec.cache_clear()


def test_criterion_1_classify_counts_p5_in_10s(tmp_path):
    _clear_caches()
    out = tmp_path / "records.json"
    t0 = time.perf_counter()
    code = main(["classify", "--prime", "5", "--format", "json", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 59
    assert payload["counts"]["class_counts"] == {MUL_TAG: 48, AB_TAG: 11}
    p = 5
    assert 48 == 2 * p**2 - p + 3
    assert 11 == 2 * p + 1
    assert payload["identities_hold"] is True
    assert elapsed < 10.0, f"classify took {elapsed:.2f}s"


def test_criterion_2_classify_counts_p7_in_5min():
    _clear_caches()
    p = 7
    t0 = time.perf_counter()
    records = classification_records(p)
    by_structure = Counter(rec.structure for rec in records)
    pairs = verify_pairwise_nonconjugate(p)
    elapsed = time.perf_counter() - t0
    assert by_structure == {MUL_TAG: 94, AB_TAG: 15}
    assert 94 == 2 * p**2 - p + 3
    assert 15 == 2 * p + 1
    assert pairs == 927
    report = count_report(p)
    assert report == closed_form_count_report(p)
    assert report.hgs_totals == {MUL_TAG: 32634, AB_TAG: 921690}
    assert elapsed < 300.0, f"p=7 pipeline took {elapsed:.2f}s"


def test_criterion_3_hgs_counts_p5():
    p = 5
    report = count_report(p)  # assembled by orbit-stabilizer summation
    assert report.regular_by_structure[MUL_TAG] == {1: 1, 5: 594, 25: 2305, 125: 3000}
    assert report.hgs_by_structure[MUL_TAG] == {1: 1, 5: 594, 25: 2305, 125: 3000}
    assert report.hgs_by_structure[AB_TAG] == {5: 18600, 25: 71300}
    assert report.hgs_totals == {MUL_TAG: 5900, AB_TAG: 89900}
    assert 594 == (p**3 - p**2 - 1) * (p + 1)
    assert 2305 == (p**4 - p**3 - 2 * p**2 + 2 * p + 1) * p
    assert 3000 == (p**2 - 1) * p**3
    assert 5900 == (2 * p**3 - 3 * p + 1) * p**2
    assert 89900 == (p**3 - 1) * (p**2 + p - 1) * p**2
    assert report == closed_form_count_report(p)


def test_criterion_4_oracle_equivalence_p5(oracle_p5_scan):
    oracle_p5, scan_seconds = oracle_p5_scan
    counts = oracle_p5.count_by_type()
    assert counts == {MUL_TAG: 5900, AB_TAG: 725}
    assert len(oracle_p5.records) == 5900 + 725  # nothing of any other type
    assert orbit_union_keys(5) == oracle_p5.keys()
    assert scan_seconds < 1800.0, f"scan took {scan_seconds:.0f}s"


def test_criterion_5_stabilizer_shapes_p5():
    p = 5
    records = classification_records(p)
    for rec in records:
        want = expected_stabilizer_order(rec.rep_id, p)
        assert rec.autbr_order == want, f"{rec.rep_id}: {rec.autbr_order} != {want}"
    trichotomy = Counter(
        rec.autbr_order for rec in records if rec.rep_id.startswith("r=p2/I/u3=")
    )
    assert trichotomy == {
        (p - 1) * p**3: 4,  # discriminant zero
        (p - 1) ** 2 * p**2: 6,  # nonzero square
        (p**2 - 1) * p**2: 10,  # non-square
    }


def test_criterion_6_structural_invariants_p5():
    p = 5
    reps = families.all_representatives(p)
    assert p**9 == 1_953_125  # triples swept per brace by the axiom check
    socle_by_id = {rec.rep_id: rec.socle_order for rec in classification_records(p)}
    ann_by_id = {rec.rep_id: rec.ann_order for rec in classification_records(p)}
    for rep in reps:
        brace = brace_from_subgroup(rep.subgroup)
        assert verify_brace_axiom(brace) is None, rep.rep_id
        assert verify_braid(brace) is None, rep.rep_id
        assert verify_nondegenerate(brace), rep.rep_id
        want = 1 if rep.theta_order == p**3 else p
        assert socle_by_id[rep.rep_id] == want, rep.rep_id
        assert ann_by_id[rep.rep_id] == want, rep.rep_id


def test_criterion_7_formula_crosschecks_p5():
    p = 5
    h = half_mod(p)
    aut = tables.aut_table(p)
    m1 = tables.m1_table(p)
    codec = tables.hol_codec(p)
    N = aut.N
    cube = p**3

    # closed powers against iterated products: every Sylow-form element,
    # every exponent in [0, p]
    els = m1_elements(p)
    for n1 in range(p):
        for n2 in range(p):
            for n3 in range(p):
                alpha = sylow_aut_from_coords(p, n1, n2, n3)
                for v in els:
                    g = HolElt(v, alpha)
                    acc = hol_identity(p)
                    for r in range(p + 1):
                        assert hol_pow_closed(g, r) == acc, (n1, n2, n3, v, r)
                        acc = hol_mul(acc, g)

    # Sylow-coordinate action formula against the definitional application
    for n1 in range(p):
        for n2 in range(p):
            for n3 in range(p):
                alpha = sylow_aut_from_coords(p, n1, n2, n3)
                for v in els:
                    lead = n1 * v.b + h * n2 * v.b * (v.b - 1) + n3 * v.c
                    tail = M1Elt(p, 0, 0, n2 * v.b)
                    want = m1_mul(m1_mul(M1Elt(p, lead, 0, 0), v), tail)
                    assert aut_apply(alpha, v) == want, (n1, n2, n3, v)

    # definitional application table: extend each automorphism from its
    # generator images with nothing but the multiplication table
    POW = np.zeros((cube, p), dtype=np.int64)
    for e in range(1, p):
        POW[:, e] = m1.MUL[POW[:, e - 1], np.arange(cube)]
    codes = np.arange(cube, dtype=np.int64)
    va, vb, vc = codes // (p * p), (codes // p) % p, codes % p
    SIG = ((aut.T1 * p + aut.A1) * p + aut.A3).astype(np.int64)
    TAU = ((aut.T2 * p + aut.A2) * p + aut.A4).astype(np.int64)
    RHO = (aut.DET * p * p).astype(np.int64)
    APPLY_DEF = m1.MUL[
        m1.MUL[POW[RHO[:, None], va[None, :]], POW[SIG[:, None], vb[None, :]]],
        POW[TAU[:, None], vc[None, :]],
    ].astype(np.int64)

    # one-formula application: all 12000 x 125
    allauts = np.arange(N, dtype=np.int64)
    assert np.array_equal(aut.apply_codes(allauts[:, None], codes[None, :]), APPLY_DEF)

    # split-form application: all 12000 x 125, split taken by the library
    splits = [gamma_split(aut.aut_at(i)) for i in range(N)]
    R1 = np.array([s[0] for s in splits], dtype=np.int64)
    R3 = np.array([s[1] for s in splits], dtype=np.int64)
    B1, B2, B3, B4 = (x.astype(np.int64) for x in (aut.A1, aut.A2, aut.A3, aut.A4))
    DET = aut.DET.astype(np.int64)
    nb = B1[:, None] * vb[None, :] + B2[:, None] * vc[None, :]
    nc = B3[:, None] * vb[None, :] + B4[:, None] * vc[None, :]
    na = (
        DET[:, None] * va[None, :]
        + h * (B3 * B1)[:, None] * vb[None, :] ** 2
        + h * (B4 * B2)[:, None] * vc[None, :] ** 2
        + (B2 * B3)[:, None] * (vb * vc)[None, :]
        + R1[:, None] * nb
        + R3[:, None] * nc
    )
    assert np.array_equal(((na % p) * p + nb % p) * p + nc % p, APPLY_DEF)

    # conjugation with inner-only automorphism part (n2 = 0): closed residue
    # coordinates against the holomorph triple product, all 12000 x 3125
    grid = np.arange(p, dtype=np.int64)
    n1g, n3g = (x.ravel() for x in np.meshgrid(grid, grid, indexing="ij"))
    syl0 = aut.INDEX[aut.pack(n1g, n3g, 1, 0, 0, 1)]
    gcodes0 = (codes[:, None] * N + syl0[None, :]).ravel()
    AUT0 = aut.INDEX[
        aut.pack(
            (n1g[None, :] * B4[:, None] - n3g[None, :] * B3[:, None]) % p,
            (n3g[None, :] * B1[:, None] - n1g[None, :] * B2[:, None]) % p,
            1, 0, 0, 1,
        )
    ]
    assert np.all(AUT0 >= 0)

    def conj_sweep(rows: np.ndarray, gcodes: np.ndarray, closed_n: np.ndarray,
                   closed_aut: np.ndarray, step: int) -> None:
        # closed_n: (len(rows), p^3) image codes; closed_aut: (len(rows), coords)
        for lo in range(0, len(rows), step):
            a = rows[lo : lo + step]
            sl = slice(lo, lo + len(a))
            closed = (
                closed_n[sl][:, :, None] * N + closed_aut[sl][:, None, :]
            ).reshape(len(a), -1)
            generic = codec.mul_codes(
                codec.mul_codes(a[:, None], gcodes[None, :]),
                aut.INV[a][:, None],
            )
            assert np.array_equal(generic, closed), f"rows {lo}..{lo + len(a)}"

    assert len(gcodes0) == 3125
    conj_sweep(allauts, gcodes0, APPLY_DEF, AUT0, step=600)

    # conjugation with unipotent part (n2 != 0): lower-triangular matrix
    # block only, all 2000 x 12500
    lower = np.flatnonzero(aut.A2 == 0).astype(np.int64)
    assert len(lower) == (p - 1) ** 2 * p * p**2  # r1, r3 free; b1, b4 units; b3 free
    n1f, n2f, n3f = (
        x.ravel() for x in np.meshgrid(grid, grid[1:], grid, indexing="ij")
    )
    sylf = aut.INDEX[aut.pack(n1f, n3f, 1, 0, n2f, 1)]
    gcodesf = (codes[:, None] * N + sylf[None, :]).ravel()
    inv_tab = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    b1i = inv_tab[B1[lower]]
    e1 = (
        n1f[None, :] * B4[lower][:, None]
        - n3f[None, :] * B3[lower][:, None]
        + (R3[lower] * b1i * B4[lower])[:, None] * n2f[None, :]
        + (h * B4[lower] * (b1i - 1))[:, None] * n2f[None, :]
    ) % p
    e2 = ((b1i * B4[lower])[:, None] * n2f[None, :]) % p
    e3 = (B1[lower][:, None] * n3f[None, :]) % p
    AUTF = aut.INDEX[aut.pack(e1, e3, 1, 0, e2, 1)]
    assert np.all(AUTF >= 0)
    assert len(gcodesf) == 12500
    conj_sweep(lower, gcodesf, APPLY_DEF[lower], AUTF, step=250)

    # composition bracket formula against pointwise composition on all
    # 12000^2 pairs; agreement on the two generator images settles the
    # whole maps since both sides are homomorphisms
    for lo in range(0, N, 600):
        a = allauts[lo : lo + 600]
        comp = aut.compose_idx(a[:, None], allauts[None, :])
        assert np.array_equal(SIG[comp], APPLY_DEF[a[:, None], SIG[None, :]])
        assert np.array_equal(TAU[comp], APPLY_DEF[a[:, None], TAU[None, :]])

    # scalar routes evaluate the same residue formulas the sweeps verified
    rng = np.random.default_rng(20260814)
    pick = rng.integers(0, N, size=400)
    for i, j in zip(pick[:200], pick[200:]):
        x, y = aut.aut_at(int(i)), aut.aut_at(int(j))
        assert aut_compose_triangular(x, y) == aut_compose(x, y)
        v = M1Elt(p, int(i) % p, int(j) % p, (int(i) + int(j)) % p)
        assert aut_apply_closed(x, v) == aut_apply(x, v)
        assert aut_apply_split(p, *gamma_split(x), v) == aut_apply(x, v)
        g0 = HolElt(v, sylow_aut_from_coords(p, int(j) % p, 0, int(i) % p))
        assert conj_by_aut_closed(x, g0) == conj_by_aut(x, g0)
    for i in lower[rng.integers(0, len(lower), size=200)]:
        x = aut.aut_at(int(i))
        g = HolElt(
            M1Elt(p, int(i) % p, (int(i) // p) % p, 1),
            sylow_aut_from_coords(p, int(i) % p, 1 + int(i) % (p - 1), int(i) % p),
        )
        assert conj_by_aut_closed(x, g) == conj_by_aut(x, g)
