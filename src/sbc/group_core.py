"""Exact arithmetic in the Heisenberg group of order p**3 and exponent p.

Elements are kept in the normal form r^a s^b t^c with three residues mod p.
The generator r is central and the single nontrivial relation is t s = r s t,
so multiplication only ever creates extra powers of r.  Throughout, p is a
prime larger than 3 so that 2 and 3 are invertible mod p.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "GroupType",
    "M1Elt",
    "aut_order_total",
    "gl2_order",
    "half_mod",
    "inv_mod",
    "is_prime",
    "m1_code",
    "m1_elements",
    "m1_from_code",
    "m1_identity",
    "m1_inv",
    "m1_mul",
    "m1_pow",
    "m1_subgroup_inventory",
    "rho",
    "sigma",
    "tau",
    "validate_prime",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class GroupType(enum.Enum):
    """Isomorphism types of groups of order p**3."""

    ElemAbelian_p3 = "ElemAbelian_p3"
    CyclicP3 = "CyclicP3"
    Cp2xCp = "Cp2xCp"
    HeisenbergM1 = "HeisenbergM1"
    ExtraspecialM2 = "ExtraspecialM2"


def gl2_order(p: int) -> int:
    return (p * p - 1) * (p * p - p)


def aut_order_total(p: int) -> int:
    """(p**2)(GL2 order) = (p**2 - 1)(p - 1) p**3."""
    return p * p * gl2_order(p)


def validate_prime(p: int) -> int:
    """Reject anything that is not a prime greater than 3.  A p whose codes
    pass int64 is rejected before any trial division: holomorph codes run up
    to p^3 |Aut(M1)| and braid triple codes up to p^9, so p <= 127."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"p must be an int, got {p!r}")
    if max(p**3 * aut_order_total(p), p**9) >= 2**63:
        raise ValueError(f"p={p} is too large: its holomorph and braid triple codes overflow int64")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p <= 3:
        raise ValueError(f"p must be larger than 3, got {p}")
    return p


def inv_mod(x: int, p: int) -> int:
    """Multiplicative inverse mod p.  Raises on 0."""
    x %= p
    if x == 0:
        raise ZeroDivisionError("0 has no inverse mod p")
    return pow(x, p - 2, p)


@lru_cache(maxsize=None)
def half_mod(p: int) -> int:
    """The residue 1/2 mod p (p odd)."""
    return (p + 1) // 2


@dataclass(frozen=True, order=True)
class M1Elt:
    """r^a s^b t^c in normal form.  Ordering is lexicographic on (p, a, b, c)."""

    p: int
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        p = self.p
        object.__setattr__(self, "a", self.a % p)
        object.__setattr__(self, "b", self.b % p)
        object.__setattr__(self, "c", self.c % p)

    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0


def _same_prime(x: M1Elt, y: M1Elt) -> int:
    if x.p != y.p:
        raise ValueError(f"mixed primes {x.p} and {y.p}")
    return x.p


def m1_identity(p: int) -> M1Elt:
    return M1Elt(p, 0, 0, 0)


def rho(p: int) -> M1Elt:
    return M1Elt(p, 1, 0, 0)


def sigma(p: int) -> M1Elt:
    return M1Elt(p, 0, 1, 0)


def tau(p: int) -> M1Elt:
    return M1Elt(p, 0, 0, 1)


def m1_mul(x: M1Elt, y: M1Elt) -> M1Elt:
    """Normal-form product: moving y's s-block past x's t-block costs r's."""
    p = _same_prime(x, y)
    return M1Elt(p, x.a + y.a + x.c * y.b, x.b + y.b, x.c + y.c)


def m1_inv(x: M1Elt) -> M1Elt:
    return M1Elt(x.p, -x.a + x.b * x.c, -x.b, -x.c)


def m1_pow(x: M1Elt, n: int) -> M1Elt:
    """x^n for any integer n, via the closed form with the n(n-1)/2 correction."""
    # n*(n-1) is a product of consecutive integers, so the exact // 2 is safe
    # for negative n as well.
    return M1Elt(x.p, n * x.a + x.b * x.c * (n * (n - 1) // 2), n * x.b, n * x.c)


def m1_code(x: M1Elt) -> int:
    """Dense integer code (a*p + b)*p + c, used by the table layer."""
    return (x.a * x.p + x.b) * x.p + x.c


def m1_from_code(p: int, code: int) -> M1Elt:
    ab, c = divmod(code, p)
    a, b = divmod(ab, p)
    return M1Elt(p, a, b, c)


def m1_elements(p: int) -> list[M1Elt]:
    """All p**3 elements in code order."""
    return [m1_from_code(p, i) for i in range(p**3)]


def _cyclic_span(g: M1Elt) -> frozenset[M1Elt]:
    return frozenset(m1_pow(g, n) for n in range(g.p))


def _pair_span(g: M1Elt, h: M1Elt) -> frozenset[M1Elt]:
    # Only used for commuting pairs, so the two-exponent sweep is the closure.
    return frozenset(m1_mul(m1_pow(g, i), m1_pow(h, j)) for i in range(g.p) for j in range(g.p))


def m1_subgroup_inventory(p: int) -> tuple[list[frozenset[M1Elt]], list[frozenset[M1Elt]]]:
    """All subgroups of order p and of order p**2, as element sets.

    Order p:    <r>, <r^a s> (a = 0..p-1), <r^b s^c t> (b, c = 0..p-1),
                which is p**2 + p + 1 subgroups.
    Order p**2: <r, t> and <r, s t^d> (d = 0..p-1), all abelian of type
                C_p x C_p, which is p + 1 subgroups.
    """
    validate_prime(p)
    r, s, t = rho(p), sigma(p), tau(p)
    order_p = [_cyclic_span(r)]
    order_p.extend(_cyclic_span(m1_mul(m1_pow(r, a), s)) for a in range(p))
    order_p.extend(
        _cyclic_span(m1_mul(m1_mul(m1_pow(r, b), m1_pow(s, c)), t))
        for b in range(p)
        for c in range(p)
    )
    order_p2 = [_pair_span(r, t)]
    order_p2.extend(_pair_span(r, m1_mul(s, m1_pow(t, d))) for d in range(p))
    return order_p, order_p2
