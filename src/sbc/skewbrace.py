"""Skew brace structure carried by a regular subgroup of the holomorph.

A regular subgroup G of Hol(M1) is in bijection with M1 through g -> g . 1
(the n-part), and its sorted code row has n-part i at position i (see
`tables`).  So the local index 0..p**3-1 of an element is the M1 code of its
n-part, and the identity is index 0.  On these indices G carries two group
laws:

    a (*) b = ab in G       (the subgroup law: "multiplicative")
    a (+) b = ab in M1      (the M1 law: "additive")

and the pair is a skew left brace: a (*) (b (+) c) equals
(a (*) b) (+) (-a) (+) (a (*) c).  The additive tables are the shared M1
tables themselves.  Everything here is table-driven, so the axiom, the braid
relation, and the socle/annihilator screens are exhaustive sweeps.  The
braid sweep runs over triple codes (a k + b) k + c, on which r12 and r23
are single gathers through r written as a permutation of pair codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subgroups import SubgroupHol
from .tables import hol_codec

__all__ = [
    "SkewBrace",
    "annihilator_indices",
    "brace_from_codes",
    "brace_from_subgroup",
    "is_involutive",
    "lambda_matches_automorphism_action",
    "socle_indices",
    "verify_brace_axiom",
    "verify_braid",
    "verify_ideal",
    "verify_nondegenerate",
    "ybe_tables",
]


@dataclass
class SkewBrace:
    p: int
    codes: np.ndarray      # the regular row: codes[i] is the element with n-part i
    MUL: np.ndarray        # subgroup law on local indices
    ADD: np.ndarray        # M1 law on local indices: the read-only M1Table.MUL
    INV_MUL: np.ndarray
    INV_ADD: np.ndarray    # the read-only M1Table.INV
    LAM: np.ndarray        # LAM[a, b] = (-a) (+) (a (*) b)

    @property
    def order(self) -> int:
        return len(self.codes)

    def mul_abelian(self) -> bool:
        return bool(np.array_equal(self.MUL, self.MUL.T))

    def add_abelian(self) -> bool:
        return bool(np.array_equal(self.ADD, self.ADD.T))


def brace_from_codes(p: int, codes: np.ndarray) -> SkewBrace:
    codec = hol_codec(p)
    codes = codec.regular_row(codes)
    # every product has some n-part i; it lies in the carrier iff it is codes[i]
    prod = codec.mul_codes(codes[:, None], codes[None, :])
    MUL = prod // codec.N
    if not np.array_equal(codes[MUL], prod):
        raise ValueError("carrier is not closed under the holomorph product")
    inv_codes = codec.inv_codes(codes)
    INV_MUL = inv_codes // codec.N
    if not np.array_equal(codes[INV_MUL], inv_codes):
        raise ValueError("carrier is not closed under inverses")
    if codes[0] != codec.identity:
        raise ValueError("carrier misses the identity")

    ADD, INV_ADD = codec.m1.MUL, codec.m1.INV
    LAM = ADD[INV_ADD[:, None], MUL]
    return SkewBrace(p=p, codes=codes, MUL=MUL, ADD=ADD, INV_MUL=INV_MUL, INV_ADD=INV_ADD, LAM=LAM)


def brace_from_subgroup(sub: SubgroupHol) -> SkewBrace:
    codec = hol_codec(sub.p)
    return brace_from_codes(sub.p, codec.subgroup_codes(sub))


def _slabs(k: int) -> int:
    # keep (slab, k, k) work arrays around a few million entries
    return max(1, (1 << 22) // (k * k))


def verify_brace_axiom(brace: SkewBrace) -> tuple[int, int, int] | None:
    """Check a (*) (b (+) c) == (a (*) b) (+) (-a) (+) (a (*) c) on every triple.

    Returns None on success, else the first failing (a, b, c).
    """
    MUL, ADD, INV_ADD = brace.MUL, brace.ADD, brace.INV_ADD
    k = brace.order
    step = _slabs(k)
    for lo in range(0, k, step):
        sl = np.arange(lo, min(lo + step, k))
        lhs = MUL[sl[:, None, None], ADD[None, :, :]]
        head = ADD[MUL[sl], INV_ADD[sl, None]]
        rhs = ADD[head[:, :, None], MUL[sl][:, None, :]]
        if not np.array_equal(lhs, rhs):
            a, b, c = np.argwhere(lhs != rhs)[0]
            return (int(sl[a]), int(b), int(c))
    return None


def lambda_matches_automorphism_action(brace: SkewBrace) -> bool:
    """The brace-defined lambda must be the stored automorphism acting on the
    n-parts, which are the local indices."""
    codec = hol_codec(brace.p)
    aparts = brace.codes % codec.N
    direct = codec.aut.apply_codes(aparts[:, None], np.arange(brace.order)[None, :])
    return bool(np.array_equal(brace.LAM, direct))


def socle_indices(brace: SkewBrace) -> np.ndarray:
    """{a : lambda_a = id} intersected with the additive center.

    Computed twice: once from the LAM table, once from the raw definition
    (a (*) b == a (+) b for every b).  The two must agree.
    """
    k = brace.order
    ker_lam = np.all(brace.LAM == np.arange(k)[None, :], axis=1)
    add_central = np.all(brace.ADD == brace.ADD.T, axis=1)
    route_a = ker_lam & add_central
    route_b = np.all(brace.MUL == brace.ADD, axis=1) & add_central
    if not np.array_equal(route_a, route_b):
        raise AssertionError("socle routes disagree")
    return np.flatnonzero(route_a)


def annihilator_indices(brace: SkewBrace, *, socle: np.ndarray | None = None) -> np.ndarray:
    """Socle elements central in the circle group; socle may carry a
    precomputed socle_indices(brace)."""
    if socle is None:
        socle = socle_indices(brace)
    mul_central = np.all(brace.MUL == brace.MUL.T, axis=1)
    soc = np.zeros(brace.order, dtype=bool)
    soc[socle] = True
    return np.flatnonzero(soc & mul_central)


def verify_ideal(brace: SkewBrace, indices: np.ndarray) -> bool:
    """Additive subgroup, lambda-stable, and normal in the circle group."""
    member = np.zeros(brace.order, dtype=bool)
    member[indices] = True
    if not member[0]:  # the identity
        return False
    idx = np.flatnonzero(member)
    if not member[brace.ADD[idx[:, None], idx[None, :]]].all():
        return False
    if not member[brace.LAM[:, idx]].all():
        return False
    everyone = np.arange(brace.order)
    conj = brace.MUL[brace.MUL[everyone[:, None], idx[None, :]], brace.INV_MUL[everyone, None]]
    return bool(member[conj].all())


# -- Yang-Baxter -----------------------------------------------------------


def ybe_tables(brace: SkewBrace) -> tuple[np.ndarray, np.ndarray]:
    """r(a, b) = (lambda_a(b), lambda_a(b)^-1 (*) a (*) b) as two index tables."""
    R1 = brace.LAM
    R2 = brace.MUL[brace.MUL[brace.INV_MUL[R1], np.arange(brace.order)[:, None]], np.arange(brace.order)[None, :]]
    return R1, R2


def _pair_codes(R1: np.ndarray, R2: np.ndarray) -> np.ndarray:
    """r as a permutation of pair codes: P[a k + b] = R1[a, b] k + R2[a, b].

    int64, because the triple codes P[.] k + c pass 2^31 from p = 11."""
    k = len(R1)
    return (R1.astype(np.int64) * k + R2).ravel()


# triple codes per chunk of the braid sweep; each int64 work array of a
# chunk is 32 KB, which measured fastest at p = 5
_BRAID_CHUNK = 1 << 12


def verify_braid(
    brace: SkewBrace, *, tables: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[int, int, int] | None:
    """r12 r23 r12 == r23 r12 r23 on every triple; None when it holds, else
    the lexicographically first failing (a, b, c).

    tables may carry a precomputed ybe_tables(brace), here and in the other
    YBE checks.  Triples are the int64 codes t = (a k + b) k + c swept in
    order, and r12, r23 act on them through the pair permutation P:
    r12(t) = P[t // k] k + t % k and r23(t) = (t // k^2) k^2 + P[t % k^2].
    """
    P = _pair_codes(*(ybe_tables(brace) if tables is None else tables))
    k = brace.order
    kk = k * k

    def r12(t):
        pair, c = np.divmod(t, k)
        return P[pair] * k + c

    def r23(t):
        a, pair = np.divmod(t, kk)
        return a * kk + P[pair]

    for lo in range(0, k * kk, _BRAID_CHUNK):
        t = np.arange(lo, min(lo + _BRAID_CHUNK, k * kk), dtype=np.int64)
        bad = np.flatnonzero(r12(r23(r12(t))) != r23(r12(r23(t))))
        if len(bad):
            a, pair = divmod(int(t[bad[0]]), kk)
            return (a, *divmod(pair, k))
    return None


def verify_nondegenerate(
    brace: SkewBrace, *, tables: tuple[np.ndarray, np.ndarray] | None = None
) -> bool:
    """Every lambda_a and every rho_b must be a bijection of the carrier."""
    R1, R2 = ybe_tables(brace) if tables is None else tables
    k = brace.order
    ident = np.arange(k)
    rows_ok = bool(np.array_equal(np.sort(R1, axis=1), np.broadcast_to(ident, R1.shape)))
    cols_ok = bool(np.array_equal(np.sort(R2, axis=0), np.broadcast_to(ident[:, None], R2.shape)))
    return rows_ok and cols_ok


def is_involutive(
    brace: SkewBrace, *, tables: tuple[np.ndarray, np.ndarray] | None = None
) -> bool:
    """r(r(a, b)) == (a, b) for every pair."""
    P = _pair_codes(*(ybe_tables(brace) if tables is None else tables))
    return bool(np.array_equal(P[P], np.arange(len(P))))
