"""Holomorph arithmetic and the closed-form agreements.

The exhaustive p = 5 agreements of the closed power and of the Sylow action
formula are in test_acceptance.py::test_criterion_7_formula_crosschecks_p5.
"""

from __future__ import annotations

import random

import pytest

from sbc.automorphisms import (
    GL2Mat,
    alpha2,
    alpha3,
    aut_apply,
    aut_compose,
    aut_identity,
    aut_inverse,
    sylow_aut_from_coords,
)
from sbc.group_core import (
    M1Elt,
    m1_elements,
    m1_from_code,
    m1_identity,
    m1_mul,
    sigma,
)
from sbc.holomorph import (
    HolElt,
    conj_by_aut,
    hol_act,
    hol_identity,
    hol_inv,
    hol_mul,
    hol_pow,
    hol_pow_closed,
    theta,
    theta_image,
)

P = 5
RNG = random.Random(99)


def random_hol(p: int = P) -> HolElt:
    while True:
        vals = [RNG.randrange(p) for _ in range(9)]
        if (vals[5] * vals[8] - vals[6] * vals[7]) % p != 0:
            from sbc.automorphisms import AutM1Elt

            return HolElt(
                M1Elt(p, *vals[:3]),
                AutM1Elt(p, vals[3], vals[4], GL2Mat(p, *vals[5:])),
            )


def sylow_hol(p: int, v: M1Elt, n1: int, n2: int, n3: int) -> HolElt:
    return HolElt(v, sylow_aut_from_coords(p, n1, n2, n3))


def test_identity_and_inverse() -> None:
    e = hol_identity(P)
    for _ in range(100):
        g = random_hol()
        assert hol_mul(g, e) == g
        assert hol_mul(e, g) == g
        assert hol_mul(g, hol_inv(g)) == e
        assert hol_mul(hol_inv(g), g) == e


def test_associativity_sampled() -> None:
    for _ in range(200):
        a, b, c = random_hol(), random_hol(), random_hol()
        assert hol_mul(hol_mul(a, b), c) == hol_mul(a, hol_mul(b, c))


def test_action_is_by_group_elements() -> None:
    # (g h) . x = g . (h . x), and the identity acts trivially.
    els = m1_elements(P)
    for _ in range(50):
        g, h = random_hol(), random_hol()
        x = RNG.choice(els)
        assert hol_act(hol_mul(g, h), x) == hol_act(g, hol_act(h, x))
    for x in els:
        assert hol_act(hol_identity(P), x) == x


def test_action_on_identity_reads_off_n() -> None:
    for _ in range(30):
        g = random_hol()
        assert hol_act(g, m1_identity(P)) == g.n


def test_theta_is_a_homomorphism() -> None:
    for _ in range(50):
        g, h = random_hol(), random_hol()
        assert theta(hol_mul(g, h)) == aut_compose(theta(g), theta(h))
    assert theta_image([hol_identity(P)]) == frozenset({aut_identity(P)})


def test_m1_and_aut_embed() -> None:
    # (n, 1)(m, 1) = (nm, 1) and (1, a)(1, b) = (1, ab).
    for _ in range(30):
        n, m = random_hol().n, random_hol().n
        assert hol_mul(HolElt(n, aut_identity(P)), HolElt(m, aut_identity(P))) == HolElt(
            m1_mul(n, m), aut_identity(P)
        )
        a, b = random_hol().alpha, random_hol().alpha
        e = m1_identity(P)
        assert hol_mul(HolElt(e, a), HolElt(e, b)) == HolElt(e, aut_compose(a, b))


def test_semidirect_conjugation_matches_action() -> None:
    # (1, alpha)(n, 1)(1, alpha)^{-1} = (alpha(n), 1).
    e = m1_identity(P)
    for _ in range(50):
        g = random_hol()
        alpha, n = g.alpha, g.n
        lhs = hol_mul(
            hol_mul(HolElt(e, alpha), HolElt(n, aut_identity(P))),
            hol_inv(HolElt(e, alpha)),
        )
        assert lhs == HolElt(aut_apply(alpha, n), aut_identity(P))


def test_pow_closed_rejects_non_sylow() -> None:
    g = HolElt(sigma(P), aut_compose(alpha2(P), alpha3(P)))
    assert hol_pow_closed(g, 2) == hol_mul(g, g)  # alpha2 alpha3 stays lower unipotent
    bad = HolElt(sigma(P), aut_inverse(alpha2(P)))
    assert hol_pow_closed(bad, 2) == hol_mul(bad, bad)  # negative coords reduce mod p
    from sbc.automorphisms import aut_from_matrix

    with pytest.raises(ValueError):
        hol_pow_closed(HolElt(sigma(P), aut_from_matrix(GL2Mat(P, 0, 1, 1, 0))), 2)
    with pytest.raises(ValueError):
        hol_pow_closed(random_sylow_elt(), -1)


def random_sylow_elt() -> HolElt:
    return sylow_hol(
        P,
        M1Elt(P, RNG.randrange(P), RNG.randrange(P), RNG.randrange(P)),
        RNG.randrange(P),
        RNG.randrange(P),
        RNG.randrange(P),
    )


def test_every_sylow_element_has_order_dividing_p() -> None:
    e = hol_identity(P)
    for v_code in range(P**3):
        v = m1_from_code(P, v_code)
        for n2 in range(P):
            g = sylow_hol(P, v, 1, n2, 3)
            assert hol_pow_closed(g, P) == e


def test_conj_by_aut_is_generic_conjugation() -> None:
    e = m1_identity(P)
    for _ in range(50):
        g = random_hol()
        alpha = random_hol().alpha
        expected = hol_mul(hol_mul(HolElt(e, alpha), g), hol_inv(HolElt(e, alpha)))
        assert conj_by_aut(alpha, g) == expected


def test_hol_pow_generic_matches_closed_on_sylow() -> None:
    for _ in range(60):
        g = random_sylow_elt()
        r = RNG.randrange(0, P + 1)
        assert hol_pow(g, r) == hol_pow_closed(g, r)
    g = random_hol()
    assert hol_pow(g, -3) == hol_inv(hol_pow(g, 3))
