"""Heisenberg group arithmetic: identities, frozen values, and the inventory."""

from __future__ import annotations

import itertools

import pytest

from sbc.group_core import (
    M1Elt,
    half_mod,
    inv_mod,
    m1_code,
    m1_elements,
    m1_from_code,
    m1_identity,
    m1_inv,
    m1_mul,
    m1_pow,
    m1_subgroup_inventory,
    rho,
    sigma,
    tau,
    validate_prime,
)

P = 5


def test_validate_prime_accepts_5_7_11() -> None:
    for p in (5, 7, 11, 13):
        assert validate_prime(p) == p


def test_validate_prime_rejects_small_and_composite() -> None:
    for bad in (0, 1, 2, 3, 4, 6, 9, 15, -5):
        with pytest.raises(ValueError):
            validate_prime(bad)
    with pytest.raises(ValueError):
        validate_prime(5.0)  # type: ignore[arg-type]


def test_validate_prime_rejects_codes_past_int64() -> None:
    # p^9 braid triple codes are 8.60e18 < 2^63 at p = 127, 1.13e19 at 131
    assert validate_prime(127) == 127
    with pytest.raises(ValueError, match="int64"):
        validate_prime(131)


def test_inv_mod_and_half() -> None:
    for p in (5, 7, 11):
        for x in range(1, p):
            assert (x * inv_mod(x, p)) % p == 1
        assert (2 * half_mod(p)) % p == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)


def test_elements_reduced_mod_p() -> None:
    x = M1Elt(P, 7, -1, 12)
    assert (x.a, x.b, x.c) == (2, 4, 2)


def test_defining_relations() -> None:
    r, s, t = rho(P), sigma(P), tau(P)
    e = m1_identity(P)
    assert m1_pow(r, P) == e
    assert m1_pow(s, P) == e
    assert m1_pow(t, P) == e
    # r commutes with everything, and t s = r s t.
    assert m1_mul(s, r) == m1_mul(r, s)
    assert m1_mul(t, r) == m1_mul(r, t)
    assert m1_mul(t, s) == m1_mul(m1_mul(r, s), t)
    assert m1_mul(t, s) == M1Elt(P, 1, 1, 1)


def test_frozen_products() -> None:
    st = m1_mul(sigma(P), tau(P))
    assert st == M1Elt(P, 0, 1, 1)
    # (s t)(s t) picks up one r from moving the second s past the first t.
    assert m1_mul(st, st) == M1Elt(P, 1, 2, 2)
    assert m1_pow(st, 2) == M1Elt(P, 1, 2, 2)


def test_inverse_matches_brute_force_search() -> None:
    # Oracle: scan all p**3 elements for the two-sided inverse, then freeze.
    st = M1Elt(P, 0, 1, 1)
    e = m1_identity(P)
    found = [y for y in m1_elements(P) if m1_mul(st, y) == e and m1_mul(y, st) == e]
    assert found == [m1_inv(st)]
    assert m1_inv(st) == M1Elt(P, 1, P - 1, P - 1)


def test_inverse_all_elements() -> None:
    e = m1_identity(P)
    for x in m1_elements(P):
        assert m1_mul(x, m1_inv(x)) == e
        assert m1_mul(m1_inv(x), x) == e


def test_mixed_primes_rejected() -> None:
    with pytest.raises(ValueError):
        m1_mul(sigma(5), tau(7))


def test_associativity_exhaustive() -> None:
    # Via the full multiplication table so the triple loop stays in C.
    import numpy as np

    els = m1_elements(P)
    n = len(els)
    table = np.empty((n, n), dtype=np.int16)
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            table[i, j] = m1_code(m1_mul(x, y))
    left = table[table, :]  # left[i, j, k] = (x_i x_j) x_k
    right = table[:, table]  # right[i, j, k] = x_i (x_j x_k)
    assert np.array_equal(left, right)


def test_pow_matches_folded_multiplication() -> None:
    for x in m1_elements(P):
        acc = m1_identity(P)
        for n in range(2 * P + 1):
            assert m1_pow(x, n) == acc
            acc = m1_mul(acc, x)
    x = M1Elt(P, 2, 3, 4)
    assert m1_pow(x, -1) == m1_inv(x)
    assert m1_pow(x, -7) == m1_inv(m1_pow(x, 7))


def test_exponent_is_p_and_orders() -> None:
    e = m1_identity(P)
    for x in m1_elements(P):
        assert m1_pow(x, P) == e


def test_subgroup_inventory_counts() -> None:
    order_p, order_p2 = m1_subgroup_inventory(P)
    assert len(order_p) == P * P + P + 1 == 31
    assert len(order_p2) == P + 1 == 6
    assert len(set(order_p)) == len(order_p)
    assert len(set(order_p2)) == len(order_p2)


def test_subgroup_inventory_closure_and_type() -> None:
    order_p, order_p2 = m1_subgroup_inventory(P)
    for sub in order_p:
        assert len(sub) == P
        for x, y in itertools.product(sub, repeat=2):
            assert m1_mul(x, y) in sub
    for sub in order_p2:
        assert len(sub) == P * P
        for x, y in itertools.product(sub, repeat=2):
            assert m1_mul(x, y) in sub
            assert m1_mul(x, y) == m1_mul(y, x)
        # Elementary abelian: exponent p.
        assert all(m1_pow(x, P).is_identity() for x in sub)


def test_inventory_is_complete_against_scan() -> None:
    # Independent route: every subgroup of order p is a cyclic span, every
    # subgroup of order p**2 is a span of two commuting non-proportional
    # elements.  Collect both ways and compare.
    els = m1_elements(P)
    seen_p = {frozenset(m1_pow(g, n) for n in range(P)) for g in els if not g.is_identity()}
    order_p, order_p2 = m1_subgroup_inventory(P)
    assert seen_p == set(order_p)
    seen_p2 = set()
    for g in els:
        if g.is_identity():
            continue
        for h in els:
            if h in {m1_pow(g, n) for n in range(P)} or m1_mul(g, h) != m1_mul(h, g):
                continue
            span = frozenset(
                m1_mul(m1_pow(g, i), m1_pow(h, j)) for i in range(P) for j in range(P)
            )
            if len(span) == P * P:
                seen_p2.add(span)
    assert seen_p2 == set(order_p2)


def test_code_round_trip() -> None:
    for x in m1_elements(P):
        assert m1_from_code(P, m1_code(x)) == x
    assert sorted(m1_code(x) for x in m1_elements(P)) == list(range(P**3))
