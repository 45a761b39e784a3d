"""The holomorph Hol(M1) = M1 x| Aut(M1) and its closed power formula.

Elements are pairs (n, alpha) with product (n, alpha)(m, beta) =
(n alpha(m), alpha . beta), acting on M1 by (n, alpha) . x = n alpha(x).
The power of a Sylow-normal-form element is an exact residue formula; the
test suite checks it against iterated multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .automorphisms import (
    AutM1Elt,
    aut_apply,
    aut_compose,
    aut_identity,
    aut_inverse,
    sylow_aut_coords,
    sylow_aut_from_coords,
)
from .group_core import (
    M1Elt,
    half_mod,
    m1_identity,
    m1_inv,
    m1_mul,
    m1_pow,
)

__all__ = [
    "HolElt",
    "conj_by_aut",
    "hol_act",
    "hol_identity",
    "hol_inv",
    "hol_mul",
    "hol_pow",
    "hol_pow_closed",
    "theta",
    "theta_image",
]


@dataclass(frozen=True, order=True)
class HolElt:
    """(n, alpha) with n in M1 and alpha an automorphism."""

    n: M1Elt
    alpha: AutM1Elt

    def __post_init__(self) -> None:
        if self.n.p != self.alpha.p:
            raise ValueError(f"mixed primes {self.n.p} and {self.alpha.p}")

    @property
    def p(self) -> int:
        return self.n.p

    def is_identity(self) -> bool:
        return self.n.is_identity() and self.alpha.is_identity()


def hol_identity(p: int) -> HolElt:
    return HolElt(m1_identity(p), aut_identity(p))


def _same_prime(x: HolElt, y) -> int:
    if x.p != y.p:
        raise ValueError(f"mixed primes {x.p} and {y.p}")
    return x.p


def hol_mul(x: HolElt, y: HolElt) -> HolElt:
    _same_prime(x, y)
    return HolElt(m1_mul(x.n, aut_apply(x.alpha, y.n)), aut_compose(x.alpha, y.alpha))


def hol_inv(x: HolElt) -> HolElt:
    ai = aut_inverse(x.alpha)
    return HolElt(aut_apply(ai, m1_inv(x.n)), ai)


def hol_act(g: HolElt, x: M1Elt) -> M1Elt:
    """The affine action on M1: (n, alpha) . x = n alpha(x)."""
    if g.p != x.p:
        raise ValueError(f"mixed primes {g.p} and {x.p}")
    return m1_mul(g.n, aut_apply(g.alpha, x))


def theta(g: HolElt) -> AutM1Elt:
    """Projection onto the automorphism component."""
    return g.alpha


def theta_image(elements: Iterable[HolElt]) -> frozenset[AutM1Elt]:
    """The set of automorphism components; a subgroup when the input is one."""
    return frozenset(g.alpha for g in elements)


def hol_pow(x: HolElt, n: int) -> HolElt:
    if n < 0:
        return hol_pow(hol_inv(x), -n)
    out = hol_identity(x.p)
    for _ in range(n):
        out = hol_mul(out, x)
    return out


def hol_pow_closed(g: HolElt, r: int) -> HolElt:
    """g^r for g = (v, alpha1^n1 alpha2^n2 alpha3^n3), via the summation formula.

    Only elements whose automorphism part lies in the standard Sylow normal
    form are accepted; anything else raises ValueError.  r may be any
    non-negative integer.
    """
    coords = sylow_aut_coords(g.alpha)
    if coords is None:
        raise ValueError("automorphism part is not in Sylow normal form")
    if r < 0:
        raise ValueError("negative exponent; invert first")
    n1, n2, n3 = coords
    p = g.p
    h = half_mod(p)
    v = g.n
    v2, v3 = v.b, v.c
    l1 = 0
    for j in range(1, r):
        l1 += (
            n1 * v2 * j
            + h * n2 * n3 * v2 * j * (j - 1)
            + h * n2 * v2 * (v2 - 1) * j
            + n3 * v3 * j
        )
    l1 += h * n2 * v2 * v2 * sum(j * (j + 1) for j in range(1, r - 1))
    l2 = r * (r - 1) // 2
    n_part = m1_mul(
        m1_mul(M1Elt(p, l1, 0, 0), m1_pow(v, r)), M1Elt(p, 0, 0, l2 * n2 * v2)
    )
    a_part = sylow_aut_from_coords(
        p, r * n1 + n2 * n3 * (r * (r - 1) // 2), r * n2, r * n3
    )
    return HolElt(n_part, a_part)


def conj_by_aut(alpha: AutM1Elt, g: HolElt) -> HolElt:
    """(1, alpha)(n, beta)(1, alpha)^{-1} = (alpha(n), alpha beta alpha^{-1})."""
    if alpha.p != g.p:
        raise ValueError(f"mixed primes {alpha.p} and {g.p}")
    return HolElt(
        aut_apply(alpha, g.n),
        aut_compose(aut_compose(alpha, g.alpha), aut_inverse(alpha)),
    )
