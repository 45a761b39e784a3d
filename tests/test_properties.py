"""Randomized algebraic invariants, complementing the exhaustive sweeps."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from sbc.automorphisms import AutM1Elt, GL2Mat, aut_apply, aut_compose, aut_inverse
from sbc.families import all_representatives
from sbc.group_core import M1Elt, m1_identity, m1_inv, m1_mul, m1_pow
from sbc.holomorph import HolElt, hol_act, hol_inv, hol_mul
from sbc.skewbrace import brace_from_subgroup

P = 5

coord = st.integers(min_value=0, max_value=P - 1)
elts = st.builds(lambda a, b, c: M1Elt(P, a, b, c), coord, coord, coord)
mats = st.builds(
    lambda a1, a2, a3, a4: (a1, a2, a3, a4), coord, coord, coord, coord
).filter(lambda m: (m[0] * m[3] - m[1] * m[2]) % P != 0)
auts = st.builds(
    lambda b1, b2, m: AutM1Elt(P, b1, b2, GL2Mat(P, *m)), coord, coord, mats
)
hols = st.builds(HolElt, elts, auts)


@lru_cache(maxsize=1)
def _brace():
    (rep,) = [r for r in all_representatives(P) if r.rep_id == "r=p3/t3=1/s=delta"]
    return brace_from_subgroup(rep.subgroup)


@given(x=elts, y=elts, z=elts)
def test_m1_associative(x, y, z):
    assert m1_mul(m1_mul(x, y), z) == m1_mul(x, m1_mul(y, z))


@given(x=elts)
def test_m1_inverse_roundtrip(x):
    assert m1_mul(x, m1_inv(x)) == m1_identity(P)
    assert m1_inv(m1_inv(x)) == x


@given(x=elts, n=st.integers(min_value=0, max_value=3 * P))
def test_m1_power_matches_iteration(x, n):
    acc = m1_identity(P)
    for _ in range(n):
        acc = m1_mul(acc, x)
    assert m1_pow(x, n) == acc


@given(alpha=auts, x=elts, y=elts)
def test_aut_apply_is_homomorphism(alpha, x, y):
    assert aut_apply(alpha, m1_mul(x, y)) == m1_mul(aut_apply(alpha, x), aut_apply(alpha, y))


@given(alpha=auts, beta=auts, x=elts)
def test_compose_acts_pointwise(alpha, beta, x):
    assert aut_apply(aut_compose(alpha, beta), x) == aut_apply(alpha, aut_apply(beta, x))


@given(alpha=auts, x=elts)
def test_aut_inverse_cancels(alpha, x):
    assert aut_apply(aut_inverse(alpha), aut_apply(alpha, x)) == x


@given(g=hols, k=hols, x=elts)
def test_hol_action_is_compatible(g, k, x):
    assert hol_act(hol_mul(g, k), x) == hol_act(g, hol_act(k, x))


@given(g=hols)
def test_hol_inverse_roundtrip(g):
    assert hol_mul(g, hol_inv(g)).is_identity()


@settings(max_examples=60, deadline=None)
@given(a=st.integers(min_value=0, max_value=P**3 - 1), b=st.integers(min_value=0, max_value=P**3 - 1))
def test_lambda_is_multiplicative_on_brace(a, b):
    br = _brace()
    assert np.array_equal(br.ACTION[br.MUL[a, b]], br.ACTION[a][br.ACTION[b]])
