"""Parametrized families of regular subgroups and their orbit representatives.

Every family lives inside the fixed ambient M1 x| (standard Sylow), the
one above the lower unipotent matrices, which is also the ambient the
oracle scans: the subgroups are given by generator recipes, integer
6-tuples (a, b, c, n1, n2, n3) for (r^a s^b t^c, alpha1^n1 alpha2^n2
alpha3^n3).  The theta = 1 case is the trivial pairing, theta = p pairs
with <r, t>, theta = p^2 pairs <r> with a rank-two image, and theta = p^3
meets the base group trivially.

Representatives are built straight in code form: every recipe is encoded
in one vectorized call through `AutTable.index`, and each representative
is the sorted array of its p^3 holomorph codes plus its three generator
codes.  The module builds no scalar object itself; the scalar SubgroupHol
is decoded from the codes only on demand (`HolCodec.materialize`).  The
full families are built only by the tests.

Representative ids are stable strings, e.g. "r=p2/II/x3=2/a=0" or
"r=p3/t3=1/s=delta" (delta is the smallest quadratic non-residue).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator

import numpy as np

from .group_core import GroupType, aut_order_total, inv_mod, validate_prime
from .tables import aut_table, hol_codec

__all__ = [
    "Representative",
    "all_representatives",
    "families_theta_p",
    "families_theta_p2",
    "families_theta_p3",
    "representative",
    "smallest_nonresidue",
    "trivial_subgroup",
]


@dataclass(frozen=True, eq=False)
class Representative:
    """One orbit representative: stable id, theta size, type, the closed-form
    order of its brace's automorphism group (its stabilizer in Aut(M1)), and
    the subgroup as read-only code arrays (sorted element codes, three
    generator codes)."""

    rep_id: str
    p: int
    theta_order: int
    group_type: GroupType
    autbr_order: int
    codes: np.ndarray
    gen_codes: np.ndarray

    @property
    def subgroup(self):
        """The scalar SubgroupHol, built on each access (reference and tests only)."""
        codec = hol_codec(self.p)
        return codec.materialize(self.codes, [codec.decode(c) for c in self.gen_codes])


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod p."""
    squares = {(x * x) % p for x in range(1, p)}
    for d in range(2, p):
        if d not in squares:
            return d
    raise AssertionError("unreachable for p > 2")


# A generator (a, b, c, n1, n2, n3) is (r^a s^b t^c, alpha1^n1 alpha2^n2
# alpha3^n3); R, S, T are the base generators with trivial automorphism part.
R, S, T = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)


def _codes(p: int, gens) -> np.ndarray:
    """Holomorph codes of an array of generator 6-tuples (last axis),
    reduced mod p; alpha1^n1 alpha2^n2 alpha3^n3 is the automorphism with
    inner part (n1, n3) and matrix part (1 0; n2 1)."""
    a, b, c, n1, n2, n3 = np.moveaxis(np.asarray(gens, dtype=np.int64) % p, -1, 0)
    aut = aut_table(p)
    return ((a * p + b) * p + c) * aut.N + aut.index(n1, n3, 1, 0, n2, 1)


def _spans(p: int, gen_codes: np.ndarray) -> np.ndarray:
    """Row r: the sorted codes of {g1^i g2^j g3^k} for (g1, g2, g3) row r of
    the (n, 3) generator codes, each of which must be p^3 distinct elements.

    All spans at once: the powers take p - 1 products on the (n, 3) block,
    the (n, p, p) block of g2^j g3^k one more, and the spans one per power
    of g1, so each product's temporaries are (n, p, p) blocks.
    """
    codec = hol_codec(p)
    pows = np.empty((p, *gen_codes.shape), dtype=np.int64)  # pows[k] = g^k
    pows[0] = codec.identity
    for k in range(1, p):
        pows[k] = codec.mul_codes(pows[k - 1], gen_codes)
    g1, g2, g3 = pows.transpose(2, 1, 0)  # (3, n, p): generator, row, power
    q = codec.mul_codes(g2[:, :, None], g3[:, None, :])
    spans = np.empty((len(gen_codes), p, p, p), dtype=np.int64)
    for i in range(p):
        spans[:, i] = codec.mul_codes(g1[:, i, None, None], q)
    spans = spans.reshape(len(gen_codes), p**3)
    spans.sort(axis=1)
    if np.any(spans[:, 1:] == spans[:, :-1]):
        raise AssertionError("span is not a transversal")
    return spans


def _subgroups(p: int, recipes) -> list:
    """The scalar SubgroupHol of each generator recipe (reference and tests
    only), from the same codes and spans as the representatives."""
    codec = hol_codec(p)
    gen_codes = _codes(p, recipes)
    return [
        codec.materialize(span, [codec.decode(c) for c in gens])
        for span, gens in zip(_spans(p, gen_codes), gen_codes)
    ]


def trivial_subgroup(p: int):
    """The base group embedded with trivial automorphism part."""
    validate_prime(p)
    return _subgroups(p, [(R, S, T)])[0]


# -- generator recipes ---------------------------------------------------------
# Pairing with <r, t> is the span <(r, 1), (t, 1), g>: (r, 1) is central, so
# its powers times <(t, 1), g> give every (h, 1) g^k with h in <r, t>.


def _gens_theta_p(a1: int, a2: int, a3: int) -> tuple:
    return R, T, (0, 1, 0, a1, a2, a3)


def _gens_theta_p2(x: tuple, y: tuple, j: int, k: int) -> tuple:
    """x and y are the (a, b, c) of the base parts."""
    return R, (*x, 1, 0, 0), (*y, 0, j, k)


def _gens_theta_p3(u1: int, v1: int, w1: int, w3: int) -> tuple:
    return (u1, 0, -2, 1, 0, 0), (v1, 0, 1 - u1, 0, 1, 0), (w1, 2, w3, 0, 0, 1)


def families_theta_p(p: int) -> list:
    """Pairings with <r, t>: third generator s alpha1^a1 alpha2^a2 alpha3^a3.

    The full family has p^3 - 1 members ((a1, a2, a3) != 0), abelian exactly
    when a3 = 1.
    """
    validate_prime(p)
    nonzero = list(product(range(p), repeat=3))[1:]  # (0, 0, 0) comes first
    return _subgroups(p, [_gens_theta_p(a1, a2, a3) for a1, a2, a3 in nonzero])


def families_theta_p2(p: int) -> list:
    """Pairings with <r>; the theta image has rank two.

    Case I:  <r, (s^u2 t^u3) alpha1, (s^v2 t^v3) alpha3> for every invertible
             (u2 v2; u3 v3); abelian exactly when v2 = u3 + det.
    Case II: <r, t^x3 alpha1, (s^y2 t^y3) alpha2 alpha3^a> with x3, y2 != 0;
             abelian exactly when y2 = a x3 - x3 y2.
    """
    validate_prime(p)
    case1 = [
        _gens_theta_p2((0, u2, u3), (0, v2, v3), 0, 1)
        for u2, u3, v2, v3 in product(range(p), repeat=4)
        if (u2 * v3 - v2 * u3) % p
    ]
    units = range(1, p)
    case2 = [
        _gens_theta_p2((0, 0, x3), (0, y2, y3), 1, a)
        for x3, y2, y3, a in product(units, units, range(p), range(p))
    ]
    return _subgroups(p, case1 + case2)


def families_theta_p3(p: int) -> list:
    """Pairings meeting the base group trivially (theta injective).

    Family: <r^u1 t^{-2} alpha1, r^v1 t^{1-u1} alpha2, r^w1 s^2 t^w3 alpha3>
    with v1 + u1(1-u1)/2 != 0, giving (p-1) p^3 members in this ambient.
    """
    validate_prime(p)
    half = (p + 1) // 2
    return _subgroups(p, [
        _gens_theta_p3(u1, v1, w1, w3)
        for u1, v1, w1, w3 in product(range(p), repeat=4)
        if (v1 + half * u1 * (1 - u1)) % p
    ])


def _recipes(p: int) -> Iterator[tuple[str, int, GroupType, int, tuple]]:
    """(id, theta order, type, closed-form |Aut(B)|, generators) of every
    representative.

    theta = p:   s alpha1, s alpha2, s alpha3^c and s alpha2 alpha3^c for
                 c = 1..p-1 (c = 1 gives the two abelian ones).
    theta = p^2: the u3/u4 sweep (Case I rank-one reduction, s alpha1), the
                 antidiagonal u5 line (fixed by every reduction), and the
                 Case II x3/a sweep.  On the u3/u4 sweep |Aut(B)| is p^2
                 times p (p - 1), (p - 1)^2 or p^2 - 1 as the discriminant
                 u3^2 - 4 u4 is zero, a nonzero square or a non-square.
    theta = p^3: t3 in {0, 1} and r-exponent s in {1, delta} of the second
                 generator, the family at u1 = w1 = 0.
    """
    heis, abel = GroupType.HeisenbergM1, GroupType.ElemAbelian_p3
    total = aut_order_total(p)
    yield "r=1/trivial", 1, heis, total, (R, S, T)

    yield "r=p/a1", p, heis, (p - 1) * p**3, _gens_theta_p(1, 0, 0)
    yield "r=p/a2", p, heis, (p - 1) * p**2, _gens_theta_p(0, 1, 0)
    for c in range(1, p):
        gtype = abel if c == 1 else heis
        yield f"r=p/a3/c={c}", p, gtype, (p - 1) ** 2 * p**2, _gens_theta_p(0, 0, c)
        yield f"r=p/a2a3/c={c}", p, gtype, (p - 1) * p**2, _gens_theta_p(0, 1, c)

    by_legendre = {0: (p - 1) * p**3, 1: (p - 1) ** 2 * p**2, p - 1: (p**2 - 1) * p**2}
    for u3 in range(p):
        for u4 in range(1, p):
            gens = _gens_theta_p2((0, 1, 0), (0, u3, u4), 0, 1)
            legendre = pow(u3 * u3 - 4 * u4, (p - 1) // 2, p)
            gtype = abel if u3 == u4 else heis
            yield f"r=p2/I/u3={u3}/u4={u4}", p * p, gtype, by_legendre[legendre], gens
    for u5 in range(1, p):
        gens = _gens_theta_p2((0, 0, -u5), (0, u5, 0), 0, 1)
        yield f"r=p2/I/u5={u5}", p * p, abel if u5 == 2 else heis, total, gens
    for x3 in range(1, p):
        for a in range(p):
            gens = _gens_theta_p2((0, 0, x3), (0, 1, 0), 1, a)
            abelian = a == ((1 + x3) * inv_mod(x3, p)) % p
            yield f"r=p2/II/x3={x3}/a={a}", p * p, abel if abelian else heis, (p - 1) * p**2, gens

    delta = smallest_nonresidue(p)
    for t3 in (0, 1):
        for s_name, s_val in (("1", 1), ("delta", delta)):
            gens = _gens_theta_p3(0, s_val, 0, t3)
            yield f"r=p3/t3={t3}/s={s_name}", p**3, heis, 2 * p if t3 else 2 * (p - 1) * p, gens


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=4)
def all_representatives(p: int) -> tuple[Representative, ...]:
    """The full representative list, theta ascending, ids sorted within theta.

    Every generator is encoded in one call and every span built in one
    batch; each representative's arrays are read-only rows of the two blocks.
    """
    validate_prime(p)
    recipes = list(_recipes(p))
    gen_codes = _frozen(_codes(p, [gens for *_, gens in recipes]))
    spans = _frozen(_spans(p, gen_codes))
    reps = [
        Representative(rep_id, p, theta, gtype, autbr, spans[i], gen_codes[i])
        for i, (rep_id, theta, gtype, autbr, _) in enumerate(recipes)
    ]
    reps.sort(key=lambda rec: (rec.theta_order, rec.rep_id))
    return tuple(reps)


def representative(p: int, rep_id: str) -> Representative:
    """The representative with id rep_id; ValueError if there is none at p."""
    for rep in all_representatives(p):
        if rep.rep_id == rep_id:
            return rep
    raise ValueError(f"no representative with id {rep_id!r} at p={p}")
