"""Automorphism group: both composition routes, the section, Sylows, named maps."""

from __future__ import annotations

import random

import pytest

from sbc.automorphisms import (
    AutM1Elt,
    GL2Mat,
    alpha1,
    alpha2,
    alpha3,
    aut_apply,
    aut_compose,
    aut_compose_triangular,
    aut_from_matrix,
    aut_identity,
    aut_inverse,
    aut_order_total,
    aut_pow,
    enumerate_aut,
    gl2_order,
    mat_identity,
    mat_inv,
    mat_mul,
    sylow_aut_coords,
    sylow_aut_from_coords,
    sylow_aut_subgroup,
    sylow_p_subgroups_gl2,
)
from sbc.group_core import M1Elt, m1_elements, m1_inv, m1_mul, rho, sigma, tau

P = 5
RNG = random.Random(20260814)


def random_aut(p: int = P) -> AutM1Elt:
    while True:
        vals = [RNG.randrange(p) for _ in range(6)]
        if (vals[2] * vals[5] - vals[3] * vals[4]) % p != 0:
            return AutM1Elt(p, vals[0], vals[1], GL2Mat(p, *vals[2:]))


def test_gl2_rejects_singular() -> None:
    with pytest.raises(ValueError):
        GL2Mat(P, 1, 2, 2, 4)
    with pytest.raises(ValueError):
        GL2Mat(P, 0, 0, 0, 0)


def test_mat_inverse() -> None:
    for _ in range(50):
        A = random_aut().A
        assert mat_mul(A, mat_inv(A)) == mat_identity(P)
        assert mat_mul(mat_inv(A), A) == mat_identity(P)


def test_named_generator_images() -> None:
    r, s, t = rho(P), sigma(P), tau(P)
    a1, a2, a3 = alpha1(P), alpha2(P), alpha3(P)
    assert aut_apply(a1, s) == m1_mul(r, s)
    assert aut_apply(a1, t) == t
    assert aut_apply(a2, s) == m1_mul(s, t)
    assert aut_apply(a2, t) == t
    assert aut_apply(a3, s) == s
    assert aut_apply(a3, t) == m1_mul(r, t)
    # All three fix r (their matrices have det 1).
    for a in (a1, a2, a3):
        assert aut_apply(a, r) == r


def test_alpha1_alpha3_are_inner() -> None:
    # alpha1 is conjugation by t, alpha3 is conjugation by s^{-1}.
    t, s = tau(P), sigma(P)
    for x in m1_elements(P):
        assert aut_apply(alpha1(P), x) == m1_mul(m1_mul(t, x), m1_inv(t))
        assert aut_apply(alpha3(P), x) == m1_mul(m1_mul(m1_inv(s), x), s)


def test_apply_is_bijective() -> None:
    els = m1_elements(P)
    for _ in range(10):
        a = random_aut()
        assert len({aut_apply(a, x) for x in els}) == len(els)


def test_compose_routes_agree_sampled() -> None:
    for _ in range(300):
        x, y = random_aut(), random_aut()
        assert aut_compose_triangular(x, y) == aut_compose(x, y)


def test_compose_means_apply_right_first() -> None:
    for _ in range(30):
        x, y = random_aut(), random_aut()
        c = aut_compose(x, y)
        for v in (sigma(P), tau(P), M1Elt(P, 1, 2, 3)):
            assert aut_apply(c, v) == aut_apply(x, aut_apply(y, v))


def test_inverse_and_identity() -> None:
    e = aut_identity(P)
    for _ in range(100):
        x = random_aut()
        assert aut_compose(x, aut_inverse(x)) == e
        assert aut_compose(aut_inverse(x), x) == e
        assert aut_compose(x, e) == x
        assert aut_compose(e, x) == x


def test_inverse_matches_preimage_scan() -> None:
    # Oracle: invert by scanning for the preimages of s and t.
    els = m1_elements(P)
    for _ in range(5):
        x = random_aut()
        s_pre = [v for v in els if aut_apply(x, v) == sigma(P)]
        t_pre = [v for v in els if aut_apply(x, v) == tau(P)]
        assert len(s_pre) == 1 and len(t_pre) == 1
        y = aut_inverse(x)
        assert y.sigma_image == s_pre[0]
        assert y.tau_image == t_pre[0]


def test_generator_relations() -> None:
    # alpha1 and alpha3 commute with each other and alpha1 with alpha2;
    # alpha3 alpha2 = alpha1 alpha2 alpha3.
    a1, a2, a3 = alpha1(P), alpha2(P), alpha3(P)
    assert aut_compose(a2, a1) == aut_compose(a1, a2)
    assert aut_compose(a3, a1) == aut_compose(a1, a3)
    assert aut_compose(a3, a2) == aut_compose(aut_compose(a1, a2), a3)
    # Each has order p.
    for a in (a1, a2, a3):
        assert aut_pow(a, P) == aut_identity(P)
        assert aut_pow(a, P - 1) != aut_identity(P)


def test_section_is_a_homomorphism() -> None:
    for _ in range(100):
        A, B = random_aut().A, random_aut().A
        assert aut_compose(aut_from_matrix(A), aut_from_matrix(B)) == aut_from_matrix(
            mat_mul(A, B)
        )
    assert aut_from_matrix(mat_identity(P)) == aut_identity(P)


def test_section_conjugation_law() -> None:
    # section(A) alpha1 section(A)^{-1} = alpha1^{a4} alpha3^{-a2}, and
    # section(A) alpha3 section(A)^{-1} = alpha1^{-a3} alpha3^{a1}.
    for _ in range(60):
        A = random_aut().A
        s = aut_from_matrix(A)
        lhs1 = aut_compose(aut_compose(s, alpha1(P)), aut_inverse(s))
        rhs1 = aut_compose(aut_pow(alpha1(P), A.a4), aut_pow(alpha3(P), -A.a2))
        assert lhs1 == rhs1
        lhs3 = aut_compose(aut_compose(s, alpha3(P)), aut_inverse(s))
        rhs3 = aut_compose(aut_pow(alpha1(P), -A.a3), aut_pow(alpha3(P), A.a1))
        assert lhs3 == rhs3


def test_enumerate_counts() -> None:
    auts = enumerate_aut(P)
    assert len(auts) == aut_order_total(P) == 12000
    assert gl2_order(P) == 480
    assert aut_order_total(7) == 98784


def test_enumerate_budget() -> None:
    with pytest.raises(ValueError):
        enumerate_aut(17)
    with pytest.raises(ValueError):
        enumerate_aut(4)


def test_kernel_of_projection_is_alpha1_alpha3() -> None:
    kernel = [a for a in enumerate_aut(P) if a.A == mat_identity(P)]
    assert len(kernel) == P * P
    expected = {
        aut_compose(aut_pow(alpha1(P), i), aut_pow(alpha3(P), j))
        for i in range(P)
        for j in range(P)
    }
    assert set(kernel) == expected


def test_sylow_subgroups_of_gl2() -> None:
    sylows = sylow_p_subgroups_gl2(P)
    assert len(sylows) == P + 1
    lower = [GL2Mat(P, 1, 0, n, 1) for n in range(P)]
    assert sorted(lower) in sylows
    for mats in sylows:
        assert len(mats) == P
        members = set(mats)
        for A in mats:
            assert A.det == 1 and A.trace == 2
            assert mat_inv(A) in members
            for B in mats:
                assert mat_mul(A, B) in members
    # Pairwise intersections are trivial.
    for i, a in enumerate(sylows):
        for b in sylows[i + 1 :]:
            assert set(a) & set(b) == {mat_identity(P)}


def test_sylow_aut_subgroup_above_lower_unipotents() -> None:
    lower = sorted(GL2Mat(P, 1, 0, n, 1) for n in range(P))
    syl = sylow_aut_subgroup(P, lower)
    assert len(syl) == P**3
    members = set(syl)
    for x in syl:
        assert aut_inverse(x) in members
    # It is exactly the alpha1/alpha2/alpha3 normal forms.
    expected = {
        sylow_aut_from_coords(P, n1, n2, n3)
        for n1 in range(P)
        for n2 in range(P)
        for n3 in range(P)
    }
    assert members == expected


def test_sylow_coords_round_trip() -> None:
    a1, a2, a3 = alpha1(P), alpha2(P), alpha3(P)
    for n1 in range(P):
        for n2 in range(P):
            for n3 in range(P):
                x = aut_compose(
                    aut_compose(aut_pow(a1, n1), aut_pow(a2, n2)), aut_pow(a3, n3)
                )
                assert sylow_aut_coords(x) == (n1, n2, n3)
                assert sylow_aut_from_coords(P, n1, n2, n3) == x
    assert sylow_aut_coords(aut_from_matrix(GL2Mat(P, 0, 1, 1, 0))) is None


def test_sylow_normal_form_power_rule() -> None:
    # (alpha1^n1 alpha2^n2 alpha3^n3)^j has coords
    # (j n1 + n2 n3 j(j-1)/2, j n2, j n3).
    for n1, n2, n3 in [(1, 2, 3), (0, 4, 1), (2, 0, 3), (4, 4, 4)]:
        x = sylow_aut_from_coords(P, n1, n2, n3)
        for j in range(2 * P):
            expected = sylow_aut_from_coords(
                P, j * n1 + n2 * n3 * (j * (j - 1) // 2), j * n2, j * n3
            )
            assert aut_pow(x, j) == expected
