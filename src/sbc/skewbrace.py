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
tables themselves.  Everything here is table-driven.  A brace check that
fails names the lexicographically first failing triple, found by one sweep
over the triple codes (a k + b) k + c (`_first_failing_triple`).

Three exact arguments keep a brace at O(p^6) work instead of O(p^9):

  * The product table goes through the automorphism parts.  a (*) b =
    a . alpha_a(b) in M1 needs a table of the parts applied to the p^3
    codes and one of their compositions, not p^6 holomorph products.
    Every family representative's parts lie in Sylow ambient 0, A_0
    (`tables.standard_ambient`, p^3 members), whose tables
    `tables.ambient_tables` builds once per prime, read-only: an
    element's part is found by its position in A_0, one search.  A row
    with a part outside A_0 takes the reference route, tables of theta(G)
    itself from `tables.aut_subgroup` (|theta(G)| x p^3 applications and
    |theta(G)|^2 compositions), which the A_0 route is tested against.
  * The axiom is checked on two generators.  It says that every
    lambda_a(b) = (-a) (+) (a (*) b) is an endomorphism of (G, (+)).  A map f
    of a finite group is one iff f(x + s) = f(x) + f(s) for every x and
    every s in a generating set: the s for which this holds are closed
    under +, so they form a subgroup.  M1 is generated by the codes 1 and p,
    that is (0, 0, 1) and (0, 1, 0), so 2 p^6 identities decide it.
  * The braid relation is a theorem: if (B, (+)) and (B, (*)) are groups
    and the axiom holds, r(a, b) = (lambda_a(b), lambda_a(b)^-1 (*) a (*) b)
    is a braided non-degenerate solution (Guarnieri-Vendramin, Math. Comp.
    86, 2017, Thm 3.1).  `brace_from_codes` raises unless the row is regular
    and closed, so (G, (*)) is a group, and its a (*) b = a . alpha_a(b) with
    alpha_a in Aut(M1) makes lambda_a = alpha_a additive.  So two p^6 table
    equalities say whether given tables are this r (`verify_braid`).

On either route the row is checked only for closure under the product:
(i, alpha)(j, beta) lies in the row iff the row's element with n-part
i alpha(j) has part alpha beta, and both sides are positions among the
members of one group of automorphisms, so one p^6 equality decides it.
The row's p^3 elements are distinct, and a finite closed subset of a
group is a subgroup, so the identity and the inverses need no check (nor
does theta(G), the image of a subgroup).

The socle and the annihilator need no brace at all (the row route,
`socle_and_annihilator_masks`).  Soc(B) = ker lambda meet Z(B, (+))
(Guarnieri-Vendramin, Math. Comp. 86, 2017), and lambda_a = alpha_a, the
automorphism part of a, so a is in the socle iff alpha_a = id and the
n-part a is central in M1, that is commutes with the generators 1 and p.
Ann(B) is the socle meet the centre of (G, (*)).  For a in the socle,
a (*) b = a b = b a and b (*) a = b alpha_b(a), so a commutes with b iff
alpha_b(a) = a; b -> alpha_b is a homomorphism of (G, (*)), so the b that
fix a form a subgroup, and a is in the annihilator iff every generator of
G fixes it.  An automorphism sends a central (x, 0, 0) to (det x, 0, 0),
and theta(G), an image of a group of order p^3, is a p-group, so each
determinant has order dividing both a power of p and p - 1, and is 1: here
the two sets agree, and the generator test checks that rather than
assuming it.  The table route (`socle_indices`, `annihilator_indices`)
reads both off a built brace and is the row route's test reference.  It
too reads the additive centre off the generators 1 and p, O(p^3), and the
centre of (G, (*)) off one MUL == MUL.T pass per brace, which
`SkewBrace.mul_abelian` shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tables import ambient_tables, aut_subgroup, hol_codec, regular_row_mask

__all__ = [
    "SkewBrace",
    "annihilator_indices",
    "brace_from_codes",
    "brace_from_subgroup",
    "is_involutive",
    "lambda_matches_automorphism_action",
    "socle_and_annihilator_masks",
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
    ACTION: np.ndarray     # lambda: ACTION[a, b] = alpha_a(b), alpha_a the automorphism part of a

    @property
    def order(self) -> int:
        return len(self.codes)

    @cached_property
    def mul_central(self) -> np.ndarray:
        """Which local indices are central in (G, (*)): one MUL == MUL.T
        pass per brace, read by `annihilator_indices` and `mul_abelian`."""
        return np.all(self.MUL == self.MUL.T, axis=1)

    def mul_abelian(self) -> bool:
        return bool(self.mul_central.all())

    def add_abelian(self) -> bool:
        return bool(_additive_centre(self.ADD, self.p).all())


def _additive_centre(ADD: np.ndarray, p: int) -> np.ndarray:
    """Which codes are central in M1, ADD its table: those that commute
    with its generators 1 and p, O(p^3) reads."""
    return (ADD[:, 1] == ADD[1]) & (ADD[:, p] == ADD[p])


def brace_from_codes(p: int, codes: np.ndarray) -> SkewBrace:
    codec = hol_codec(p)
    codes = codec.regular_row(codes)
    # (i, alpha)(j, beta) = (i alpha(j), alpha beta), alpha and beta local
    # indices pos among the members of A_0, or of theta(G) when a part lies
    # outside A_0 (module docstring).  The product's n-part is read by
    # np.take on flat int64 row * k + column codes, faster than a 2-D fancy
    # gather.
    parts = codes % codec.N
    members, APPLY, COMP, INV = ambient_tables(p)
    pos = np.searchsorted(members, parts)
    if not np.array_equal(members.take(pos, mode="clip"), parts):
        members, pos = np.unique(parts, return_inverse=True)
        APPLY, COMP, INV = aut_subgroup(p, members)
    k = len(codes)
    ACTION = APPLY[pos]
    MUL = np.take(codec.m1.MUL, ACTION + np.arange(k)[:, None] * k)
    # a product with n-part i lies in the carrier iff its part is codes[i]'s;
    # the positions are compared in the tables' dtype
    if not np.array_equal(pos.astype(COMP.dtype).take(MUL), COMP[pos][:, pos]):
        raise ValueError("carrier is not closed under the holomorph product")

    ADD, INV_ADD = codec.m1.MUL, codec.m1.INV
    INV_MUL = APPLY[INV[pos], INV_ADD]  # (i, alpha)^-1 = (alpha^-1(i^-1), alpha^-1)
    return SkewBrace(p=p, codes=codes, MUL=MUL, ADD=ADD, INV_MUL=INV_MUL, INV_ADD=INV_ADD, ACTION=ACTION)


def brace_from_subgroup(sub) -> SkewBrace:
    """The brace of a scalar SubgroupHol (reference route)."""
    codec = hol_codec(sub.p)
    return brace_from_codes(sub.p, codec.subgroup_codes(sub))


def verify_brace_axiom(brace: SkewBrace) -> tuple[int, int, int] | None:
    """Check a (*) (b (+) c) == (a (*) b) (+) (-a) (+) (a (*) c) on every triple.

    Returns None on success, else the lexicographically first failing
    (a, b, c).  The identity says lambda_a(b (+) c) = lambda_a(b) (+)
    lambda_a(c), so it holds for every c once it holds for c in a generating
    set of (G, (+)) (see the module docstring): the check runs on all (a, b)
    and c in {1, p}, 2 p^6 identities, whatever MUL is.  Only when that
    finds a failure does the full p^9 sweep run, to name the first one.
    """
    MUL, ADD, INV_ADD, k = brace.MUL, brace.ADD, brace.INV_ADD, brace.order
    # row-dependent reads by np.take on flat row * k + column codes, as in
    # brace_from_codes
    head = np.take(ADD, MUL * k + INV_ADD[:, None])  # (a (*) b) (+) (-a)
    head *= k
    for s in (1, brace.p):  # the M1 codes of (0, 0, 1) and (0, 1, 0)
        lhs = MUL[:, ADD[:, s]]  # a (*) (b (+) s): a permutation of the columns
        if not np.array_equal(lhs, np.take(ADD, head + MUL[:, s, None])):
            return _first_axiom_failure(brace)
    return None


def _first_axiom_failure(brace: SkewBrace) -> tuple[int, int, int] | None:
    """The first failing (a, b, c) of the axiom over all k^3 triples, or None."""
    MUL, ADD, INV_ADD = brace.MUL, brace.ADD, brace.INV_ADD
    return _first_failing_triple(
        brace.order, lambda a, b, c: MUL[a, ADD[b, c]] == ADD[ADD[MUL[a, b], INV_ADD[a]], MUL[a, c]])


# triple codes per chunk of a sweep: each int64 work array is 512 KB
_CHUNK = 1 << 16


def _first_failing_triple(k: int, holds) -> tuple[int, int, int] | None:
    """The first (a, b, c) in range(k)^3, in the order of the int64 codes
    (a k + b) k + c, where holds(a, b, c) on index arrays is False, or None."""
    for lo in range(0, k**3, _CHUNK):
        a, b, c = np.unravel_index(np.arange(lo, min(lo + _CHUNK, k**3), dtype=np.int64), (k, k, k))
        bad = np.flatnonzero(~holds(a, b, c))
        if len(bad):
            return (int(a[bad[0]]), int(b[bad[0]]), int(c[bad[0]]))
    return None


def lambda_matches_automorphism_action(brace: SkewBrace) -> bool:
    """The brace-defined lambda_a(b) = (-a) (+) (a (*) b), computed from MUL,
    ADD and INV_ADD, must be the automorphism part of a acting on the
    n-parts, which are the local indices: ACTION, the theta(G) action rows
    the brace was built from.  ACTION is pinned to the composition route by
    `tests/test_skewbrace.py::test_theta_tables_match_the_composition_route`.
    """
    # flat row * k + column codes, as in brace_from_codes
    lam = np.take(brace.ADD, brace.INV_ADD[:, None] * brace.order + brace.MUL)
    return bool(np.array_equal(lam, brace.ACTION))


def socle_indices(brace: SkewBrace) -> np.ndarray:
    """{a : lambda_a = id} intersected with the additive center.

    Computed twice: once from the lambda table ACTION, once from the raw
    definition (a (*) b == a (+) b for every b).  The two must agree.
    """
    k = brace.order
    ker_lam = np.all(brace.ACTION == np.arange(k)[None, :], axis=1)
    add_central = _additive_centre(brace.ADD, brace.p)
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
    soc = np.zeros(brace.order, dtype=bool)
    soc[socle] = True
    return np.flatnonzero(soc & brace.mul_central)


def socle_and_annihilator_masks(
    p: int, rows: np.ndarray, gen_codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(socle, ann), boolean (r, p^3) masks: socle[i, a] when local index a
    is in the socle of the brace of the regular row rows[i], ann[i, a] when
    it is in its annihilator; gen_codes[i] generate that row's subgroup.

    No brace is built (see the module docstring): the socle is the columns
    with automorphism part the identity and a central n-part, the
    annihilator the socle columns fixed by the automorphism part of every
    generator.  ker lambda is found twice, as the identity index and as the
    automorphisms fixing the codes 1 and p, which generate M1; AssertionError
    if the two disagree, ValueError unless every row is a regular row.
    """
    codec = hol_codec(p)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or not regular_row_mask(p, rows, codec.N).all():
        raise ValueError("not regular rows: row i needs n-part j at position j")
    aut, MUL = codec.aut, codec.m1.MUL
    parts, at = np.unique(rows % codec.N, return_inverse=True)
    identity = parts == aut.identity
    if not np.array_equal(identity, (aut.apply_codes(parts, 1) == 1) & (aut.apply_codes(parts, p) == p)):
        raise AssertionError("ker lambda routes disagree")
    centre = np.flatnonzero(_additive_centre(MUL, p))
    socle = np.zeros(rows.shape, dtype=bool)
    socle[:, centre] = identity[at.reshape(rows.shape)[:, centre]]
    gens = np.asarray(gen_codes, dtype=np.int64) % codec.N  # (r, generators)
    fixed = np.all(aut.apply_codes(gens[:, :, None], centre) == centre, axis=1)  # (r, |centre|)
    ann = socle.copy()
    ann[:, centre] &= fixed
    return socle, ann


def verify_ideal(brace: SkewBrace, indices: np.ndarray) -> bool:
    """Additive subgroup, lambda-stable, and normal in the circle group."""
    member = np.zeros(brace.order, dtype=bool)
    member[indices] = True
    if not member[0]:  # the identity
        return False
    idx = np.flatnonzero(member)
    if not member[brace.ADD[idx[:, None], idx[None, :]]].all():
        return False
    if not member[brace.ACTION[:, idx]].all():
        return False
    everyone = np.arange(brace.order)
    conj = brace.MUL[brace.MUL[everyone[:, None], idx[None, :]], brace.INV_MUL[everyone, None]]
    return bool(member[conj].all())


# -- Yang-Baxter -----------------------------------------------------------


def ybe_tables(brace: SkewBrace) -> tuple[np.ndarray, np.ndarray]:
    """r(a, b) = (lambda_a(b), lambda_a(b)^-1 (*) a (*) b) as two index tables."""
    R1 = brace.ACTION  # lambda_a = alpha_a
    R2 = brace.MUL[brace.MUL[brace.INV_MUL[R1], np.arange(brace.order)[:, None]], np.arange(brace.order)[None, :]]
    return R1, R2


def verify_braid(
    brace: SkewBrace, *, tables: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[int, int, int] | None:
    """r12 r23 r12 == r23 r12 r23 on every triple; None when it holds, else
    the lexicographically first failing (a, b, c).

    tables may carry a precomputed ybe_tables(brace), here and in the other
    YBE checks.  The r of a skew brace (two groups and the axiom) is braided
    by Guarnieri-Vendramin Thm 3.1, and brace_from_codes(p, brace.codes) is
    a skew brace: it raises unless the row is regular and closed, and
    alpha_a in Aut(M1) makes each lambda_a additive (module docstring).  So
    no triple is swept when (R1, R2) is the r of that rebuild, whatever
    brace.MUL holds: both (k, k) with entries in range(k), R1 the lambda of
    the rebuilt MUL and the M1 tables, and R1 (*) R2 == a (*) b, that is
    R2 = R1^-1 (*) a (*) b.  In every other case the k^3 sweep decides.
    """
    R1, R2 = ybe_tables(brace) if tables is None else tables
    k = brace.order
    try:
        ref = brace_from_codes(brace.p, brace.codes)
    except ValueError:  # not a regular closed row: the theorem does not apply
        ref = None
    if ref is not None and all(np.shape(T) == (k, k) and ((0 <= T) & (T < k)).all() for T in (R1, R2)):
        lam = np.take(ref.ADD, ref.INV_ADD[:, None] * k + ref.MUL)  # flat codes, as in brace_from_codes
        if np.array_equal(R1, lam) and np.array_equal(ref.MUL[R1, R2], ref.MUL):
            return None
    return _first_failing_triple(k, _braid_holds(R1, R2))


def _braid_holds(R1: np.ndarray, R2: np.ndarray):
    """r12 r23 r12 == r23 r12 r23 for r = (R1, R2), on index arrays a, b, c."""
    def holds(a, b, c):
        x, y = R1[a, b], R2[a, b]  # r12 r23 r12 sends (a, b, c) to (x, y, z)
        y, z = R1[y, c], R2[y, c]
        x, y = R1[x, y], R2[x, y]
        b, c = R1[b, c], R2[b, c]  # r23 r12 r23 sends it to (a, b, c)
        a, b = R1[a, b], R2[a, b]
        b, c = R1[b, c], R2[b, c]
        return (x == a) & (y == b) & (z == c)
    return holds


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
    R1, R2 = ybe_tables(brace) if tables is None else tables
    return bool(np.array_equal(np.stack((R1[R1, R2], R2[R1, R2])), np.indices(R1.shape)))
