"""The automorphism group of the Heisenberg group of order p**3.

An automorphism alpha is pinned down by where it sends s and t:

    alpha(s) = r^b1 s^a1 t^a3,    alpha(t) = r^b2 s^a2 t^a4,

with A = (a1 a2; a3 a4) invertible mod p, and then alpha(r) = r^det(A) is
forced because r = [t, s].  We store (b1, b2, A) and speak of the triangular
form [det A, b1, b2; 0, A].  The projection onto A is a split surjection onto
GL2(F_p) whose kernel is the inner automorphism group, an elementary abelian
group of rank 2 generated by alpha1 (s -> r s) and alpha3 (t -> r t).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .group_core import (
    M1Elt,
    aut_order_total,
    gl2_order,
    half_mod,
    inv_mod,
    m1_mul,
    m1_pow,
    validate_prime,
)

__all__ = [
    "AutM1Elt",
    "GL2Mat",
    "alpha1",
    "alpha2",
    "alpha3",
    "aut_apply",
    "aut_compose",
    "aut_compose_triangular",
    "aut_from_matrix",
    "aut_identity",
    "aut_inverse",
    "aut_order_total",
    "aut_pow",
    "enumerate_aut",
    "gl2_order",
    "mat_identity",
    "mat_inv",
    "mat_mul",
    "sylow_aut_coords",
    "sylow_aut_from_coords",
    "sylow_aut_subgroup",
    "sylow_p_subgroups_gl2",
]


@dataclass(frozen=True, order=True)
class GL2Mat:
    """(a1 a2; a3 a4) over F_p, required invertible."""

    p: int
    a1: int
    a2: int
    a3: int
    a4: int

    def __post_init__(self) -> None:
        p = self.p
        for name in ("a1", "a2", "a3", "a4"):
            object.__setattr__(self, name, getattr(self, name) % p)
        if self.det == 0:
            raise ValueError(f"singular matrix mod {p}: {self}")

    @property
    def det(self) -> int:
        return (self.a1 * self.a4 - self.a2 * self.a3) % self.p

    @property
    def trace(self) -> int:
        return (self.a1 + self.a4) % self.p


def mat_identity(p: int) -> GL2Mat:
    return GL2Mat(p, 1, 0, 0, 1)


def mat_mul(x: GL2Mat, y: GL2Mat) -> GL2Mat:
    if x.p != y.p:
        raise ValueError(f"mixed primes {x.p} and {y.p}")
    p = x.p
    return GL2Mat(
        p,
        x.a1 * y.a1 + x.a2 * y.a3,
        x.a1 * y.a2 + x.a2 * y.a4,
        x.a3 * y.a1 + x.a4 * y.a3,
        x.a3 * y.a2 + x.a4 * y.a4,
    )


def mat_inv(x: GL2Mat) -> GL2Mat:
    d = inv_mod(x.det, x.p)
    return GL2Mat(x.p, d * x.a4, -d * x.a2, -d * x.a3, d * x.a1)


def mat_pow(x: GL2Mat, n: int) -> GL2Mat:
    if n < 0:
        return mat_pow(mat_inv(x), -n)
    out = mat_identity(x.p)
    for _ in range(n):
        out = mat_mul(out, x)
    return out


@dataclass(frozen=True, order=True)
class AutM1Elt:
    """Automorphism in triangular form: s -> r^b1 s^a1 t^a3, t -> r^b2 s^a2 t^a4."""

    p: int
    b1: int
    b2: int
    A: GL2Mat

    def __post_init__(self) -> None:
        p = self.p
        if self.A.p != p:
            raise ValueError(f"mixed primes {p} and {self.A.p}")
        object.__setattr__(self, "b1", self.b1 % p)
        object.__setattr__(self, "b2", self.b2 % p)

    @property
    def det(self) -> int:
        return self.A.det

    @property
    def sigma_image(self) -> M1Elt:
        return M1Elt(self.p, self.b1, self.A.a1, self.A.a3)

    @property
    def tau_image(self) -> M1Elt:
        return M1Elt(self.p, self.b2, self.A.a2, self.A.a4)

    @property
    def rho_image(self) -> M1Elt:
        return M1Elt(self.p, self.det, 0, 0)

    def is_identity(self) -> bool:
        return (
            self.b1 == 0
            and self.b2 == 0
            and (self.A.a1, self.A.a2, self.A.a3, self.A.a4) == (1, 0, 0, 1)
        )


def aut_identity(p: int) -> AutM1Elt:
    return AutM1Elt(p, 0, 0, mat_identity(p))


def alpha1(p: int) -> AutM1Elt:
    """s -> r s, t -> t.  Conjugation by t."""
    return AutM1Elt(p, 1, 0, mat_identity(p))


def alpha2(p: int) -> AutM1Elt:
    """s -> s t, t -> t."""
    return AutM1Elt(p, 0, 0, GL2Mat(p, 1, 0, 1, 1))


def alpha3(p: int) -> AutM1Elt:
    """t -> r t, s -> s.  Conjugation by s inverse."""
    return AutM1Elt(p, 0, 1, mat_identity(p))


def _same_prime(x: AutM1Elt, y: AutM1Elt) -> int:
    if x.p != y.p:
        raise ValueError(f"mixed primes {x.p} and {y.p}")
    return x.p


def aut_apply(alpha: AutM1Elt, x: M1Elt) -> M1Elt:
    """alpha(x), evaluated definitionally as alpha(r)^a alpha(s)^b alpha(t)^c."""
    if alpha.p != x.p:
        raise ValueError(f"mixed primes {alpha.p} and {x.p}")
    out = m1_pow(alpha.rho_image, x.a)
    out = m1_mul(out, m1_pow(alpha.sigma_image, x.b))
    return m1_mul(out, m1_pow(alpha.tau_image, x.c))


def aut_compose(x: AutM1Elt, y: AutM1Elt) -> AutM1Elt:
    """x . y, acting as z -> x(y(z)).  Recomputed from the images of s and t."""
    p = _same_prime(x, y)
    s_img = aut_apply(x, y.sigma_image)
    t_img = aut_apply(x, y.tau_image)
    return AutM1Elt(p, s_img.a, t_img.a, GL2Mat(p, s_img.b, t_img.b, s_img.c, t_img.c))


def aut_compose_triangular(x: AutM1Elt, y: AutM1Elt) -> AutM1Elt:
    """x . y via triangular-form block multiplication with correction terms.

    The b-row of the product is not plain matrix arithmetic: collapsing
    x(y(s)) and x(y(t)) into normal form adds the two correction residues
    c1, c2 below.  Must agree with aut_compose everywhere.
    """
    p = _same_prime(x, y)
    h = half_mod(p)
    xa, ya = x.A, y.A
    c1 = (
        h * xa.a1 * xa.a3 * ya.a1 * (ya.a1 - 1)
        + h * xa.a2 * xa.a4 * ya.a3 * (ya.a3 - 1)
        + xa.a3 * ya.a1 * xa.a2 * ya.a3
    )
    c2 = (
        h * xa.a1 * xa.a3 * ya.a2 * (ya.a2 - 1)
        + h * xa.a2 * xa.a4 * ya.a4 * (ya.a4 - 1)
        + xa.a3 * ya.a2 * xa.a2 * ya.a4
    )
    b1 = x.det * y.b1 + x.b1 * ya.a1 + x.b2 * ya.a3 + c1
    b2 = x.det * y.b2 + x.b1 * ya.a2 + x.b2 * ya.a4 + c2
    return AutM1Elt(p, b1, b2, mat_mul(xa, ya))


def aut_inverse(x: AutM1Elt) -> AutM1Elt:
    """The inverse automorphism, solved from compose(x, inverse) = identity."""
    p = x.p
    h = half_mod(p)
    B = mat_inv(x.A)
    xa = x.A
    d = inv_mod(x.det, p)
    c1 = (
        h * xa.a1 * xa.a3 * B.a1 * (B.a1 - 1)
        + h * xa.a2 * xa.a4 * B.a3 * (B.a3 - 1)
        + xa.a3 * B.a1 * xa.a2 * B.a3
    )
    c2 = (
        h * xa.a1 * xa.a3 * B.a2 * (B.a2 - 1)
        + h * xa.a2 * xa.a4 * B.a4 * (B.a4 - 1)
        + xa.a3 * B.a2 * xa.a2 * B.a4
    )
    b1 = -d * (x.b1 * B.a1 + x.b2 * B.a3 + c1)
    b2 = -d * (x.b1 * B.a2 + x.b2 * B.a4 + c2)
    return AutM1Elt(p, b1, b2, B)


def aut_pow(x: AutM1Elt, n: int) -> AutM1Elt:
    if n < 0:
        return aut_pow(aut_inverse(x), -n)
    out = aut_identity(x.p)
    for _ in range(n):
        out = aut_compose(out, x)
    return out


def aut_from_matrix(A: GL2Mat) -> AutM1Elt:
    """The canonical section of the GL2 projection: A -> [det A, ac/2, bd/2; 0, A]."""
    h = half_mod(A.p)
    return AutM1Elt(A.p, h * A.a1 * A.a3, h * A.a2 * A.a4, A)


def enumerate_aut(p: int, budget: int = 13) -> list[AutM1Elt]:
    """All automorphisms, in packed-key order.  Refuses p beyond the budget."""
    validate_prime(p)
    if p > budget:
        raise ValueError(f"enumeration budget is p <= {budget}, got {p}")
    out = []
    for b1, b2, a1, a2, a3, a4 in product(range(p), repeat=6):
        if (a1 * a4 - a2 * a3) % p == 0:
            continue
        out.append(AutM1Elt(p, b1, b2, GL2Mat(p, a1, a2, a3, a4)))
    return out


def sylow_p_subgroups_gl2(p: int) -> list[list[GL2Mat]]:
    """The p + 1 Sylow p-subgroups of GL2(F_p), each as a sorted element list.

    Order-p elements of GL2(F_p) are exactly the non-identity unipotents
    (trace 2, det 1), and each Sylow is cyclic of order p, so the Sylows are
    the distinct unipotent lines.
    """
    validate_prime(p)
    ident = mat_identity(p)
    seen: dict[frozenset[GL2Mat], list[GL2Mat]] = {}
    for a1, a2, a3, a4 in product(range(p), repeat=4):
        if (a1 * a4 - a2 * a3) % p != 1 or (a1 + a4) % p != 2:
            continue
        A = GL2Mat(p, a1, a2, a3, a4)
        if A == ident:
            continue
        members = frozenset(mat_pow(A, n) for n in range(p))
        seen.setdefault(members, sorted(members))
    subs = sorted(seen.values())
    if len(subs) != p + 1:
        raise AssertionError(f"expected {p + 1} Sylow subgroups, found {len(subs)}")
    return subs


def sylow_aut_subgroup(p: int, sylow_mats: list[GL2Mat]) -> list[AutM1Elt]:
    """The order-p**3 Sylow subgroup of Aut sitting above one GL2 Sylow."""
    out = [
        AutM1Elt(p, b1, b2, A)
        for b1 in range(p)
        for b2 in range(p)
        for A in sylow_mats
    ]
    return sorted(out)


def sylow_aut_coords(x: AutM1Elt) -> tuple[int, int, int] | None:
    """(n1, n2, n3) with x = alpha1^n1 alpha2^n2 alpha3^n3, if x lies in the
    Sylow subgroup above the lower-unipotent GL2 Sylow; None otherwise."""
    A = x.A
    if A.a1 != 1 or A.a2 != 0 or A.a4 != 1:
        return None
    return x.b1, A.a3, x.b2


def sylow_aut_from_coords(p: int, n1: int, n2: int, n3: int) -> AutM1Elt:
    return AutM1Elt(p, n1, n3, GL2Mat(p, 1, 0, n2, 1))
