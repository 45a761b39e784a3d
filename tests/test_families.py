"""Families and representatives: counts, closure, regularity, types."""

from __future__ import annotations

import random

import pytest

from sbc.families import (
    all_representatives,
    families_theta_p,
    families_theta_p2,
    families_theta_p3,
    smallest_nonresidue,
    trivial_subgroup,
)
from sbc.holomorph import hol_identity, hol_mul, theta_image
from sbc.subgroups import GroupType, generate, is_regular, isomorphism_type

P = 5
RNG = random.Random(1234)


# The full families are uncached and take seconds each: build once per module.
@pytest.fixture(scope="module")
def fam_p():
    return families_theta_p(P)


@pytest.fixture(scope="module")
def fam_p2():
    return families_theta_p2(P)


@pytest.fixture(scope="module")
def fam_p3():
    return families_theta_p3(P)


def _reps(theta: int):
    return [r for r in all_representatives(P) if r.theta_order == theta]


def test_smallest_nonresidue() -> None:
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(11) == 2
    assert smallest_nonresidue(13) == 2


def test_trivial_subgroup() -> None:
    sub = trivial_subgroup(P)
    assert sub.order == P**3
    assert is_regular(sub)
    assert isomorphism_type(sub) is GroupType.HeisenbergM1
    assert len(theta_image(sub.elements)) == 1


def test_theta_p_family_count_and_regularity(fam_p) -> None:
    family, reps = fam_p, _reps(P)
    assert len(family) == P**3 - 1 == 124
    assert len(set(family)) == len(family)
    assert len(reps) == 2 * P == 10
    for sub in family:
        assert sub.order == P**3
        assert is_regular(sub)
        assert len(theta_image(sub.elements)) == P


def test_theta_p_family_types_split(fam_p) -> None:
    family = fam_p
    abelian = sum(1 for sub in family if isomorphism_type(sub) is GroupType.ElemAbelian_p3)
    heis = sum(1 for sub in family if isomorphism_type(sub) is GroupType.HeisenbergM1)
    assert abelian == P * P == 25
    assert heis == P**3 - P**2 - 1 == 99
    assert abelian + heis == len(family)


def test_theta_p2_family_count_and_regularity(fam_p2) -> None:
    family, reps = fam_p2, _reps(P * P)
    case1 = (P * P - 1) * (P * P - P)
    case2 = P * P * (P - 1) ** 2
    assert len(family) == case1 + case2 == 480 + 400
    assert len(set(family)) == len(family)
    assert len(reps) == (P - 1) * (2 * P + 1) == 44
    for sub in RNG.sample(family, 60):
        assert sub.order == P**3
        assert is_regular(sub)
        assert len(theta_image(sub.elements)) == P * P


def test_theta_p2_family_abelian_counts(fam_p2) -> None:
    # The family members are abelian exactly on the printed parameter loci:
    # Case I when v2 = u3 + det, Case II when y2 = a x3 - x3 y2.  Count both
    # ways and compare.
    family = fam_p2
    abelian = sum(1 for sub in family if isomorphism_type(sub) is GroupType.ElemAbelian_p3)
    count1 = 0
    for u2 in range(P):
        for u3 in range(P):
            for v2 in range(P):
                for v3 in range(P):
                    det = (u2 * v3 - v2 * u3) % P
                    if det != 0 and v2 == (u3 + det) % P:
                        count1 += 1
    count2 = 0
    for x3 in range(1, P):
        for y2 in range(1, P):
            for y3 in range(P):
                for a in range(P):
                    if y2 % P == (a * x3 - x3 * y2) % P:
                        count2 += 1
    assert abelian == count1 + count2


def test_theta_p3_family_count_and_regularity(fam_p3) -> None:
    family, reps = fam_p3, _reps(P**3)
    assert len(family) == (P - 1) * P**3 == 500
    assert len(set(family)) == len(family)
    assert len(reps) == 4
    for sub in RNG.sample(family, 40):
        assert sub.order == P**3
        assert is_regular(sub)
        assert len(theta_image(sub.elements)) == P**3
        assert isomorphism_type(sub) is GroupType.HeisenbergM1


def test_representatives_count_and_ids() -> None:
    reps = all_representatives(P)
    assert len(reps) == 59
    ids = [r.rep_id for r in reps]
    assert len(set(ids)) == 59
    assert ids[0] == "r=1/trivial"
    assert "r=p3/t3=1/s=delta" in ids
    assert "r=p2/II/x3=2/a=0" in ids
    # theta ascending.
    thetas = [r.theta_order for r in reps]
    assert thetas == sorted(thetas)
    assert thetas.count(1) == 1
    assert thetas.count(P) == 10
    assert thetas.count(P * P) == 44
    assert thetas.count(P**3) == 4


def test_representative_types_match_declared() -> None:
    reps = all_representatives(P)
    for rec in reps:
        assert rec.subgroup.order == P**3
        assert is_regular(rec.subgroup)
        assert isomorphism_type(rec.subgroup) is rec.group_type
        assert len(theta_image(rec.subgroup.elements)) == rec.theta_order


def _exponent_all_elements(sub) -> int:
    """Reference exponent: every element is multiplied up to its order."""
    e = hol_identity(sub.p)
    exponent = 1
    for g in sub.elements:
        acc, order = g, 1
        while acc != e:
            acc = hol_mul(acc, g)
            order += 1
        exponent = max(exponent, order)
    return exponent


TYPE_EXPONENT = {
    GroupType.ElemAbelian_p3: P,
    GroupType.HeisenbergM1: P,
    GroupType.Cp2xCp: P * P,
    GroupType.ExtraspecialM2: P * P,
    GroupType.CyclicP3: P**3,
}


def test_isomorphism_type_exponent_matches_all_elements(fam_p2) -> None:
    # isomorphism_type reads the exponent off the generators only.
    subs = [r.subgroup for r in all_representatives(P)]
    subs += random.Random(59).sample(fam_p2, 40)
    for sub in subs:
        assert TYPE_EXPONENT[isomorphism_type(sub)] == _exponent_all_elements(sub)


def test_representative_type_totals() -> None:
    reps = all_representatives(P)
    heis = [r for r in reps if r.group_type is GroupType.HeisenbergM1]
    abel = [r for r in reps if r.group_type is GroupType.ElemAbelian_p3]
    assert len(heis) == 2 * P * P - P + 3 == 48
    assert len(abel) == 2 * P + 1 == 11


def test_spans_agree_with_generic_closure(fam_p, fam_p2, fam_p3) -> None:
    # The fast coset spans must produce the same subgroups as BFS closure.
    reps = all_representatives(P)
    for rec in reps:
        assert generate(rec.subgroup.generators) == rec.subgroup
    for fam in (fam_p, fam_p2, fam_p3):
        for sub in RNG.sample(fam, 10):
            assert generate(sub.generators) == sub


def test_representatives_appear_in_their_families(fam_p, fam_p2, fam_p3) -> None:
    reps_p = _reps(P)
    assert {r.subgroup for r in reps_p}.issubset(set(fam_p))
    reps_p3 = _reps(P**3)
    assert {r.subgroup for r in reps_p3}.issubset(set(fam_p3))
    # The theta = p^2 reps are mostly in the family; the u3/u4 sweep uses the
    # reduced generator (s alpha1), which is a Case I member with u2 = 1,
    # u3 = 0, and the u5 line and Case II sweep are family members verbatim.
    reps_p2 = _reps(P * P)
    assert {r.subgroup for r in reps_p2}.issubset(set(fam_p2))
