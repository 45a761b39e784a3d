"""Vectorized integer-table layer over the scalar object model.

Everything here is an optimization: elements become dense integer codes and
the group operations become numpy array formulas.  The formulas are the same
residue expressions as the scalar routes in group_core / automorphisms /
holomorph, and the test suite pins the two layers together (samples plus the
exhaustive agreements the acceptance checks demand).

Codes:
  M1 element   (a, b, c)            ->  (a p + b) p + c                in [0, p^3)
  automorphism (b1, b2, A)          ->  (b1 p + b2) |GL2| + rank(A)    in [0, N)
  holomorph    (n, alpha)           ->  m1code(n) * N + index(alpha)   in [0, p^3 N)

A subgroup is the sorted array of its codes.  A regular subgroup G meets
each n-part exactly once (g -> g . 1 is a bijection onto M1), and codes with
n-part j lie in [j N, (j + 1) N), so G's sorted row has n-part j at position
j: codes // N == arange(p^3).  The n-part indexes the row, and membership in
it is one gather.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .automorphisms import AutM1Elt, GL2Mat
from .group_core import aut_order_total, half_mod, validate_prime
from .holomorph import HolElt
from .subgroups import SubgroupHol, subgroup_from_cosets

__all__ = [
    "AutTable", "M1Table", "HolCodec", "ambient_tables", "aut_generators", "aut_subgroup", "aut_table",
    "class_labels", "distinct_rows", "greedy_generators", "hol_codec", "m1_table", "regular_row_mask",
    "row_conjugator", "row_lookup", "standard_ambient",
]

# Entries per step of the inverse build and the sweep-factor build, so their
# int64 temporaries stay at 512 kB each whatever the prime (|Aut(M1)| =
# 1,597,200 at p = 11).
_BUILD_CHUNK = 1 << 16


@lru_cache(maxsize=4)
def m1_table(p: int) -> "M1Table":
    return M1Table(p)


@lru_cache(maxsize=4)
def aut_table(p: int) -> "AutTable":
    return AutTable(p)


@lru_cache(maxsize=4)
def hol_codec(p: int) -> "HolCodec":
    return HolCodec(p)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row as one opaque scalar, its big-endian int64 bytes: equal keys
    are equal rows, and non-negative rows sort by key lexicographically."""
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel()


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The set of subgroups in a filled (n, m) array of sorted code rows: its
    distinct rows, read-only and in lexicographic order, and the index in rows
    of each one's first occurrence.  One stable sort of the row keys; a key
    unlike the one before is new (blocks of 2^16 entries, so one copy)."""
    keys = _row_keys(rows)
    order = np.argsort(keys, kind="stable")
    new = np.arange(len(rows)) == 0
    step = max(1, (1 << 16) // rows.shape[1])
    for start in range(1, len(rows), step):
        block = keys[order[start - 1 : start + step]]
        new[start : start + step] = block[1:] != block[:-1]
    del keys
    out = rows[order[new]]
    out.flags.writeable = False
    return out, order[new]


def regular_row_mask(p: int, rows: np.ndarray, width: int) -> np.ndarray:
    """Which rows (along the last axis) are regular rows: p^3 codes with
    n-part code // width equal to j at position j (module docstring).  width
    is N for holomorph codes and |A| for the local codes of M1 x| A."""
    rows, positions = np.asarray(rows), m1_table(p).codes
    if rows.shape[-1:] != positions.shape:
        return np.zeros(rows.shape[:-1], dtype=bool)
    return (rows // width == positions).all(-1)


def row_lookup(rows: np.ndarray):
    """Lookup in a set of distinct rows, sorted once for many probes: the
    returned function maps a block of probe rows, of the set's width, to
    (at, found), found[i] when probe i is the row rows[at[i]] of the set,
    the first one if rows repeats it."""
    keys = _row_keys(rows)
    order = np.argsort(keys, kind="stable")

    def find(probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        probe = _row_keys(probes)
        if not len(keys):
            return np.zeros(len(probe), dtype=np.int64), np.zeros(len(probe), dtype=bool)
        at = order[np.minimum(np.searchsorted(keys, probe, sorter=order), len(keys) - 1)]
        return at, keys[at] == probe

    return find


def row_conjugator(p: int, z: int, members: np.ndarray):
    """The map from parts, row i holding a regular R_i's automorphism parts
    in row order as positions in members (ascending global indices), to the
    sorted global rows of the (1, z) R_i (1, z)^-1.  As (1, z) (n, a)
    (1, z)^-1 = (z(n), z a z^-1), column z(j) gets z(j) N + z
    members[parts[i, j]] z^-1: two gathers, and the row stays sorted."""
    aut = aut_table(p)
    nmap = aut.apply_codes(z, np.arange(p**3))
    amap = aut.compose_idx(aut.compose_idx(z, members), aut.INV[z])

    def conjugate(parts: np.ndarray) -> np.ndarray:
        out = np.empty(parts.shape, dtype=np.int64)
        out[:, nmap] = amap[parts] + nmap * aut.N
        return out

    return conjugate


def greedy_generators(size: int, identity: int, mul) -> np.ndarray:
    """A small generating set of a group on the codes range(size), mul its
    broadcast product: the least code outside the subgroup generated so far,
    until there is none.  The subgroup's mask grows by right products with
    the generators, from each round's newly reached codes."""
    gens: list[int] = []
    inside = np.arange(size) == identity
    while not inside.all():
        gens.append(int(np.argmin(inside)))
        frontier = np.flatnonzero(inside)
        while frontier.size:
            reached = np.zeros(size, dtype=bool)
            reached[mul(frontier[:, None], np.array(gens)[None, :])] = True
            frontier = np.flatnonzero(reached & ~inside)
            inside |= reached
    out = np.array(gens, dtype=np.int64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=4)
def aut_generators(p: int) -> np.ndarray:
    """The greedy generating set of Aut(M1): indices 0, 1 and p at p = 5, 7."""
    aut = aut_table(p)
    return greedy_generators(aut.N, aut.identity, aut.compose_idx)


def class_labels(n: int, steps: list[np.ndarray], moved=lambda k, u, v: None) -> np.ndarray:
    """rep[i], the least index in the class of i, for the classes of range(n)
    under the group generated by the permutations steps[k].  From rep[i] =
    i, in rounds over k, every u with rep[u] < rep[v], v = steps[k][u],
    hands its label on (moved(k, u, v) lets a caller carry a conjugator
    along).  Labels only fall, so the pass ends, with rep[u] >= rep[v] for
    all u, k: rep never rises around a cycle of a step, so it is constant
    on classes, and the least index of a class keeps its own label."""
    rep, changed = np.arange(n), n
    while changed:
        changed = 0
        for k, step in enumerate(steps):
            u = np.flatnonzero(rep < rep[step])
            rep[step[u]] = rep[u]
            moved(k, u, step[u])
            changed += u.size
    return rep


def aut_subgroup(p: int, members: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables of the subgroup of Aut(M1) with the ascending global indices
    members, on local indices i (positions in members): APPLY[i, n] =
    members[i](n), COMP[i, j] = the i of members[i] members[j], INV[i] = the
    i of members[i]^-1.  ValueError unless the members are closed under
    composition; a finite closed subset of a group is a subgroup.

    An automorphism is fixed by its images of the codes 1 and p, which
    generate M1, so COMP is read off APPLY: members[i] members[j] sends
    1 to APPLY[i, APPLY[j, 1]] and p to APPLY[i, APPLY[j, p]], and is the
    member with that key pair, found by a search in the sorted member keys.
    """
    aut, n = aut_table(p), p**3
    APPLY = aut.apply_codes(members[:, None], np.arange(n)[None, :])
    keys = APPLY[:, 1] * n + APPLY[:, p]
    order = np.argsort(keys)
    comp = APPLY.take(APPLY[:, 1], axis=1)
    comp *= n
    comp += APPLY.take(APPLY[:, p], axis=1)
    at = np.searchsorted(keys, comp, sorter=order)
    COMP = order.take(at, out=at, mode="clip")  # a miss past the end reads the last key
    if not np.array_equal(keys.take(COMP), comp):
        raise ValueError("automorphism subset is not closed under composition")
    return APPLY, COMP, np.searchsorted(members, aut.INV[members])


def standard_ambient(p: int) -> np.ndarray:
    """Ascending Aut(M1) indices of A_0 = Inn(M1) x| U, U the lower
    unipotent matrices (1 0; x 1): Sylow ambient 0, the Sylow subgroup that
    holds every family representative's automorphism parts."""
    t1, t2, x = np.indices((p, p, p), dtype=np.int64).reshape(3, -1)
    return aut_table(p).index(t1, t2, 1, 0, x, 1)


@lru_cache(maxsize=4)
def ambient_tables(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(members, APPLY, COMP, INV): standard_ambient(p) and its aut_subgroup
    tables, built once per prime and read-only.  Every entry is a local
    index or an M1 code below p^3, so the tables are int16 while
    p^3 <= 32767 and int32 above: a quarter or half of int64's bytes.  The
    dtype is signed, so an entry a caller shifts below 0 in its own copy
    stays negative, as in an int64 table."""
    members = standard_ambient(p)
    dtype = np.int16 if p**3 <= np.iinfo(np.int16).max else np.int32
    tables = [T.astype(dtype) for T in aut_subgroup(p, members)]
    for table in (members, *tables):  # shared by the cache
        table.flags.writeable = False
    return (members, *tables)


class M1Table:
    """The base group's codes 0..p^3 - 1 and dense multiplication and inverse
    tables."""

    def __init__(self, p: int) -> None:
        validate_prime(p)
        self.p = p
        self.codes = codes = np.arange(p**3, dtype=np.int64)
        a, b, c = self._split(codes)
        xa, ya = a[:, None], a[None, :]
        xb, yb = b[:, None], b[None, :]
        xc, yc = c[:, None], c[None, :]
        self.MUL = self._join(xa + ya + xc * yb, xb + yb, xc + yc).astype(np.int32)
        self.INV = self._join(-a + b * c, -b, -c).astype(np.int32)
        for table in (self.codes, self.MUL, self.INV):  # shared by the cache
            table.flags.writeable = False

    def _split(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = self.p
        return codes // (p * p), (codes // p) % p, codes % p

    def _join(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        p = self.p
        return ((a % p) * p + b % p) * p + c % p


class AutTable:
    """The full automorphism group as arithmetic on enumeration indices.

    Aut(M1) is the inner part (t1, t2) in F_p^2 times the matrix part A in
    GL2(F_p), and the enumeration (packed-key order over (t1, t2, a1..a4),
    singular A skipped) lists it as

        index = (t1 p + t2) |GL2| + rank(A)

    with rank(A) the position of A among the invertible matrices in packed
    (a1, a2, a3, a4) order.  Only the |GL2| matrices and the p^4 rank table
    are stored; coordinates and indices are computed.
    """

    def __init__(self, p: int) -> None:
        validate_prime(p)
        self.p = p
        self.h = half_mod(p)
        a1, a2, a3, a4 = np.indices((p, p, p, p), dtype=np.int64).reshape(4, -1)
        invertible = (a1 * a4 - a2 * a3) % p != 0
        self.GL = tuple(a[invertible] for a in (a1, a2, a3, a4))
        self.n_gl = len(self.GL[0])
        self.RANK = np.full(p**4, -1, dtype=np.int64)
        self.RANK[invertible] = np.arange(self.n_gl, dtype=np.int64)
        self.N = p * p * self.n_gl
        if self.N != aut_order_total(p):
            raise AssertionError("automorphism count mismatch")
        self._inv_mod = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
        self.identity = int(self.index(0, 0, 1, 0, 0, 1))
        self.INV = self._build_inverses()
        for table in (*self.GL, self.RANK, self.INV, self._inv_mod):  # shared by the cache
            table.flags.writeable = False

    # -- index arithmetic ------------------------------------------------

    def _code(self, t1, t2, a1, a2, a3, a4) -> np.ndarray:
        # coordinates already reduced mod p, matrix part invertible
        p = self.p
        return (t1 * p + t2) * self.n_gl + self.RANK[((a1 * p + a2) * p + a3) * p + a4]

    def index(self, t1, t2, a1, a2, a3, a4) -> np.ndarray:
        """Enumeration index of the coordinates, reduced mod p and broadcast;
        -1 where the matrix part is singular."""
        p = self.p
        t1, t2, a1, a2, a3, a4 = (
            np.asarray(v, dtype=np.int64) % p for v in (t1, t2, a1, a2, a3, a4)
        )
        singular = (a1 * a4 - a2 * a3) % p == 0
        return np.where(singular, -1, self._code(t1, t2, a1, a2, a3, a4))

    def coords(self, idx: np.ndarray) -> tuple[np.ndarray, ...]:
        """(t1, t2, a1, a2, a3, a4) of an index or an index array."""
        inner, rank = divmod(idx, self.n_gl)
        t1, t2 = divmod(inner, self.p)
        a1, a2, a3, a4 = self.GL
        return t1, t2, a1[rank], a2[rank], a3[rank], a4[rank]

    def index_of(self, alpha: AutM1Elt) -> int:
        A = alpha.A  # AutM1Elt holds reduced coordinates and an invertible A
        return int(self._code(alpha.b1, alpha.b2, A.a1, A.a2, A.a3, A.a4))

    def aut_at(self, idx: int) -> AutM1Elt:
        t1, t2, a1, a2, a3, a4 = (int(v) for v in self.coords(idx))
        return AutM1Elt(self.p, t1, t2, GL2Mat(self.p, a1, a2, a3, a4))

    # -- group operations --------------------------------------------------

    def compose_coords(self, x: tuple[np.ndarray, ...], y: tuple[np.ndarray, ...]):
        """Triangular-form product with the two correction residues."""
        p, h = self.p, self.h
        t1x, t2x, a1x, a2x, a3x, a4x = x
        t1y, t2y, a1y, a2y, a3y, a4y = y
        detx = (a1x * a4x - a2x * a3x) % p
        c1 = h * a1x * a3x * a1y * (a1y - 1) + h * a2x * a4x * a3y * (a3y - 1) + a3x * a1y * a2x * a3y
        c2 = h * a1x * a3x * a2y * (a2y - 1) + h * a2x * a4x * a4y * (a4y - 1) + a3x * a2y * a2x * a4y
        t1 = (detx * t1y + t1x * a1y + t2x * a3y + c1) % p
        t2 = (detx * t2y + t1x * a2y + t2x * a4y + c2) % p
        a1 = (a1x * a1y + a2x * a3y) % p
        a2 = (a1x * a2y + a2x * a4y) % p
        a3 = (a3x * a1y + a4x * a3y) % p
        a4 = (a3x * a2y + a4x * a4y) % p
        return t1, t2, a1, a2, a3, a4

    def compose_idx(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return self._code(*self.compose_coords(self.coords(i), self.coords(j)))

    def _build_inverses(self) -> np.ndarray:
        """(t, A)^-1 = (-det(A)^-1 t', A^-1), t' the inner part of the
        product (t, A)(0, A^-1); built and self-checked in chunks."""
        p = self.p
        inv = np.empty(self.N, dtype=np.int64)
        for start in range(0, self.N, _BUILD_CHUNK):
            stop = min(start + _BUILD_CHUNK, self.N)
            idx = np.arange(start, stop)
            x = self.coords(idx)
            a1, a2, a3, a4 = x[2:]
            d = self._inv_mod[(a1 * a4 - a2 * a3) % p]
            ainv = ((d * a4) % p, (-d * a2) % p, (-d * a3) % p, (d * a1) % p)
            t1, t2 = self.compose_coords(x, (0, 0, *ainv))[:2]
            inv[start:stop] = self._code((-d * t1) % p, (-d * t2) % p, *ainv)
            if not np.all(self.compose_idx(idx, inv[start:stop]) == self.identity):
                raise AssertionError("vectorized inverse failed self-check")
        return inv

    def apply_codes(self, idx: np.ndarray, ncode: np.ndarray) -> np.ndarray:
        """alpha(x) in code space; broadcasts idx against ncode."""
        p, h = self.p, self.h
        idx = np.asarray(idx)
        ncode = np.asarray(ncode)
        a = ncode // (p * p)
        b = (ncode // p) % p
        c = ncode % p
        t1, t2, a1, a2, a3, a4 = self.coords(idx)
        det = (a1 * a4 - a2 * a3) % p
        # the code-only factors are formed at the width of ncode before they
        # meet the coefficients, so each term takes one broadcast product
        bb, cc, bc = b * (b - 1), c * (c - 1), b * c
        na = det * a + t1 * b + (h * a1 * a3) * bb + t2 * c + (h * a2 * a4) * cc + (a2 * a3) * bc
        nb = a1 * b + a2 * c
        nc = a3 * b + a4 * c
        return ((na % p) * p + nb % p) * p + nc % p


class HolCodec:
    """Holomorph elements as single integers, plus subgroup-level sweeps.

    A subgroup is a sorted code array plus a few generator codes.  Conjugation
    by (1, alpha) is an automorphism of the holomorph, so it carries a
    subgroup S onto the subgroup generated by the images of S's generators;
    when those images lie in a target T with |T| = |S|, the image is T.
    Stabilizers and transporters therefore sweep |Aut(M1)| x (generator
    count) conjugates, and memory stays O(|Aut(M1)| + p^3).  Their targets
    are regular rows, so a conjugate x lies in T exactly when T[x // N] == x.
    The sweep over all of Aut(M1) splits in two (_conj_sweep): a factor per
    automorphism part beta, which conjugates beta by the |GL2| matrix parts
    and depends on nothing else (sweep_factors), and a per-code remainder
    from the M1 part, one key add and one N-wide gather.  The split is exact
    because the conjugate's automorphism part depends on beta alone and the
    gather key is a sum of an M1-part term and a beta term; factors built
    once serve every code with that part.
    """

    def __init__(self, p: int) -> None:
        self.p = p
        self.m1 = m1_table(p)
        self.aut = aut_table(p)
        self.N = self.aut.N
        self.identity = 0 * self.N + self.aut.identity
        self._sweep_parts = self._code_free_sweep_parts()

    # -- element codecs ----------------------------------------------------

    def encode(self, g: HolElt) -> int:
        from .group_core import m1_code

        return m1_code(g.n) * self.N + self.aut.index_of(g.alpha)

    def decode(self, code: int) -> HolElt:
        from .group_core import m1_from_code

        ncode, aidx = divmod(int(code), self.N)
        return HolElt(m1_from_code(self.p, ncode), self.aut.aut_at(aidx))

    def is_regular_row(self, codes: np.ndarray) -> bool:
        """Is codes the sorted code row of a regular subgroup: p^3 codes with
        n-part j at position j?  For a subgroup this is regularity itself."""
        return np.ndim(codes) == 1 and bool(regular_row_mask(self.p, codes, self.N))

    def regular_row(self, codes: np.ndarray) -> np.ndarray:
        """codes sorted as an int64 row; ValueError unless is_regular_row."""
        row = np.sort(np.asarray(codes, dtype=np.int64))
        if not self.is_regular_row(row):
            raise ValueError("not a regular subgroup: needs p**3 distinct n-parts")
        return row

    def subgroup_codes(self, sub: SubgroupHol) -> np.ndarray:
        return np.array(sorted(self.encode(g) for g in sub.elements), dtype=np.int64)

    def materialize(self, codes: np.ndarray, generators: list[HolElt] | None = None) -> SubgroupHol:
        els = [self.decode(c) for c in codes]
        gens = generators if generators is not None else els[:]
        return subgroup_from_cosets(gens, els)

    # -- vectorized group law ----------------------------------------------

    def mul_codes(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        n1, i1 = np.divmod(np.asarray(c1), self.N)
        n2, i2 = np.divmod(np.asarray(c2), self.N)
        n = self.m1.MUL[n1, self.aut.apply_codes(i1, n2)].astype(np.int64)
        return n * self.N + self.aut.compose_idx(i1, i2)

    def inv_codes(self, c: np.ndarray) -> np.ndarray:
        n, i = np.divmod(np.asarray(c), self.N)
        ii = self.aut.INV[i]
        return self.aut.apply_codes(ii, self.m1.INV[n]) * self.N + ii

    # -- conjugation sweeps --------------------------------------------------

    def conj_images(self, codes: np.ndarray, aut_rows: np.ndarray | None = None) -> np.ndarray:
        """Row i = listed code i conjugated by each automorphism in aut_rows.

        Shape (len(codes), len(aut_rows)), column j for automorphism
        aut_rows[j].  Without aut_rows the columns are all N automorphisms
        in index order, (t1 p + t2) |GL2| + rank(A), and come from the
        decomposed sweep below, with the factors of the codes' own
        automorphism parts; with aut_rows each column is two compositions,
        the reference the sweep is tested against.
        """
        if aut_rows is None:
            codes = np.asarray(codes)
            rows = self._conj_sweep(codes, self.sweep_factors(codes % self.N))
            # np.array, not np.stack: no codes give a (0, N) array
            return np.array(rows, dtype=np.int64).reshape(len(codes), self.N)
        nparts, aparts = np.divmod(np.asarray(codes), self.N)
        new_n = self.aut.apply_codes(aut_rows[None, :], nparts[:, None])
        # conjugation fixes the identity automorphism: only the other
        # automorphism parts need the two compositions
        new_a = np.full(new_n.shape, self.aut.identity, dtype=np.int64)
        moving = np.flatnonzero(aparts != self.aut.identity)
        new_a[moving] = self.aut.compose_idx(
            self.aut.compose_idx(aut_rows[None, :], aparts[moving][:, None]),
            self.aut.INV[aut_rows][None, :],
        )
        return new_n * self.N + new_a

    def _code_free_sweep_parts(self) -> tuple:
        """The parts of the sweep that no listed code or automorphism part
        changes, built once per codec and read-only: the matrix parts, their
        inverses and those inverses' matrix coordinates, the inner-part
        column t, and lut, where lut[key] holds a conjugate's terms from its
        M1 part's a coordinate and its inner part (8 p^3 entries)."""
        aut, p, g, N = self.aut, self.p, self.aut.n_gl, self.N
        mats = np.arange(g)
        mats_inv = aut.INV[mats]
        inv_coords = aut.coords(mats_inv)[2:]
        t = np.arange(p).reshape(p, 1)
        xs = np.arange(2 * p) % p
        lut = (xs[:, None, None] * (p * p * N) + (xs[:, None] * p + xs) * g).reshape(-1)
        for part in (mats, mats_inv, *inv_coords, t, lut):
            part.flags.writeable = False
        return mats, mats_inv, inv_coords, t, lut

    def sweep_factors(self, aparts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(parts, rank, x, y): the automorphism-part factor of _conj_sweep
        for each distinct automorphism index in aparts.

        parts is sorted and distinct; row i of the other three belongs to
        beta = parts[i].  With (u, B) the conjugate of beta by (0, A),
        rank[i, A] = rank(B), and x[i, t1, A], y[i, t2, A] are the key terms
        of the inner part u + t M, M = A^-1 (B - det(B) I), from t1 and from
        t2.  All read-only, in the least unsigned dtype that holds them
        (uint8 keys and uint16 ranks at p = 11); built a few parts at a time,
        so no (parts, p, |GL2|) int64 temporary is held.
        """
        aut, p, g = self.aut, self.p, self.aut.n_gl
        mats, mats_inv, (ai1, ai2, ai3, ai4), t, _ = self._sweep_parts
        # the sort path of np.unique: its plain form imports numpy.ma on first use
        parts = np.unique(np.ravel(aparts), return_inverse=True)[0]
        rank = np.empty((len(parts), g), dtype=np.min_scalar_type(g - 1))
        x = np.empty((len(parts), p, g), dtype=np.min_scalar_type(2 * p * p))
        y = np.empty_like(x)
        step = max(1, _BUILD_CHUNK // (p * g))
        for lo in range(0, len(parts), step):
            at = slice(lo, lo + step)
            gamma = aut.compose_idx(aut.compose_idx(mats, parts[at, None]), mats_inv)  # (c, A)
            rank[at] = gamma % g
            u1, u2, b1, b2, b3, b4 = (v[:, None, :] for v in aut.coords(gamma))  # (c, 1, A)
            d = (b1 * b4 - b2 * b3) % p
            # t M with the row vector t on the left
            m11, m12 = ai1 * (b1 - d) + ai2 * b3, ai1 * b2 + ai2 * (b4 - d)
            m21, m22 = ai3 * (b1 - d) + ai4 * b3, ai3 * b2 + ai4 * (b4 - d)
            x[at] = ((u1 + t * m11) % p) * (2 * p) + (u2 + t * m12) % p  # (c, t1, A)
            y[at] = ((t * m21) % p) * (2 * p) + (t * m22) % p  # (c, t2, A)
        for part in (parts, rank, x, y):
            part.flags.writeable = False
        return parts, rank, x, y

    def _conj_sweep(self, codes: np.ndarray, factors: tuple) -> list[np.ndarray]:
        """The conj_images rows, one (N,) array of its own per code, from the
        sweep factors of the codes' automorphism parts (sweep_factors;
        ValueError if a part has none) and each code's M1 part.

        (0, A) has index rank(A), and (t, A) = (s, I)(0, A) with s = t A^-1.
        So the conjugate of (n, beta) by (t, A) has
          M1 part   (0, A)(n), its a coordinate plus t1 b + t2 c for (b, c)
                    those of n;
          aut part  (u + s (B - det(B) I), B), with (u, B) the conjugate of
                    beta by (0, A), since (s, I)(u, B)(-s, I) = (u + sB - det(B) s, B).
        The three coordinates that move with t are X(t1, A) + Y(t2, A), each
        coordinate reduced mod p and keyed in radix 2 p, so one key add and
        one gather on an 8 p^3 table give each row.  The key is linear in
        its coordinates, so X and Y each split exactly into an M1-part term
        (the a coordinate, 4 p^2 apart) and an automorphism-part term (the
        inner part, below 2 p^2), and (u, B) depends on beta alone: the
        factors hold beta's terms and rank(B), composed once per distinct
        beta, and a code adds its M1-part terms, the key add and one N-wide
        gather.
        """
        aut, p, N = self.aut, self.p, self.N
        mats, _, _, t, lut = self._sweep_parts
        parts, rank, fx, fy = factors
        nparts, aparts = np.divmod(codes, N)
        at = np.searchsorted(parts, aparts)
        if not np.array_equal(parts.take(at, mode="clip"), aparts):
            raise ValueError("an automorphism part has no sweep factor")
        n0 = aut.apply_codes(mats, nparts[:, None])  # (k, A)
        na = n0[:, None, :] // (p * p)
        nb, nc = ((nparts // p) % p)[:, None, None], (nparts % p)[:, None, None]
        x = ((na + t * nb) % p) * (4 * p * p) + fx[at]  # (k, t1, A)
        y = ((t * nc) % p) * (4 * p * p) + fy[at]  # (k, t2, A)
        base = (n0 % (p * p)) * N + rank[at]
        out = []
        buf = np.empty((p, p, aut.n_gl), dtype=np.int64)
        for xi, yi, bi in zip(x, y, base):
            row = np.empty((p, p, aut.n_gl), dtype=np.int64)
            np.add(xi[:, None, :], yi[None, :, :], out=buf)
            np.take(lut, buf, out=row, mode="wrap")  # keys lie in range; "wrap" is unbuffered
            row += bi
            out.append(row.reshape(N))
        return out

    def conj_matrix(self, codes: np.ndarray, aut_rows: np.ndarray | None = None) -> np.ndarray:
        """Row r = the sorted conjugate of the code set under automorphism r.

        Shape (len(aut_rows), len(codes)).  Rows are sorted, so equal rows
        mean equal subgroups.  This maps every element (N x |S| entries); with
        aut_rows = np.arange(N) it is the composition-route reference the
        generator sweeps are tested against.
        """
        return np.sort(self.conj_images(codes, aut_rows).T, axis=1)

    def one_element_image(self, code: int) -> np.ndarray:
        """Conjugates of one holomorph element under every automorphism, in
        automorphism order: one row of conj_images."""
        return self.conj_images(np.array([code], dtype=np.int64))[0]

    def _carriers(self, images, target: np.ndarray) -> np.ndarray:
        """Automorphism indices that send every listed code into the regular
        row target, images being one conj_images row per code (any sequence
        of them); each row only probes the columns that survived the rows
        before it.  Rows of codes with the identity automorphism part, which
        conjugation keeps, go last: they keep most columns.  ValueError when
        there is no row: an empty list of codes generates no regular group."""
        rows = sorted(images, key=lambda row: row[0] % self.N == self.aut.identity)
        if not rows:
            raise ValueError("no generator codes: a regular subgroup needs a generating set")
        keep = np.flatnonzero(target.take(rows[0] // self.N) == rows[0])
        for row in rows[1:]:
            img = row.take(keep)
            keep = keep[target.take(img // self.N) == img]
        return keep

    def stabilizer(
        self, codes: np.ndarray, gen_codes: np.ndarray, images=None
    ) -> np.ndarray:
        """Automorphism indices alpha with alpha . S . alpha^{-1} = S.

        codes are the element codes of a regular S (ValueError otherwise)
        and gen_codes any generating set of S; alpha fixes S exactly when it
        conjugates every generator into S.  images may carry the rows of
        conj_images(gen_codes), swept earlier, as any sequence of rows.
        """
        target = self.regular_row(codes)
        if images is None:
            images = self.conj_images(gen_codes)
        return self._carriers(images, target)

    def orbit(self, codes: np.ndarray) -> np.ndarray:
        """All distinct conjugates of the code set, one sorted row each."""
        return distinct_rows(self.conj_matrix(np.sort(np.asarray(codes))))[0]

    def transporter_exists(
        self, codes_a: np.ndarray, gen_codes_a: np.ndarray, codes_b: np.ndarray,
        images: np.ndarray | None = None,
    ) -> bool:
        """Is some (1, alpha) conjugation carrying subgroup A onto the regular
        subgroup B (ValueError if B is not regular)?

        A is given by its element codes and a generating set; images may carry
        the rows of conj_images(gen_codes_a), swept earlier, when the caller
        probes the same A against many targets.
        """
        target = self.regular_row(codes_b)
        if len(codes_a) != len(target):
            return False
        if images is None:
            images = self.conj_images(gen_codes_a)
        return len(self._carriers(images, target)) > 0
