"""Brute-force enumeration of regular order-p**3 subgroups of the holomorph.

Independent of the family formulas: every order-p**3 subgroup of Hol(M1) has
its automorphism image inside a Sylow p-subgroup of Aut(M1) (those are the
preimages of the GL2 Sylows, since the inner C_p x C_p is a normal
p-subgroup), so it lies in one of the p + 1 ambients M1 x| A of order p**6.
Each ambient is scanned by a layered lattice walk:

  order p    every non-identity element generates one (the ambient has
             exponent p, which is asserted, not assumed);
  order p**2 spans <s, x> with x in the centralizer of s (such groups are
             abelian, so both generators commute);
  order p**3 spans T<x> with x in the normalizer of T (T is maximal, hence
             normal, in any overgroup of order p**3).

Centralizers and normalizers come from conjugating one element by the whole
ambient at once.  For g = (n, a) and y = (m, b),

  y g y^-1 = (m b(n) c(m^-1), c)   with c = b a b^-1,

so the conjugates are gathers on the |A| x |A| and |A| x p**3 tables.  The
automorphism part c depends on b alone, which gives a prefilter: only the b
with c = a can centralize s, and only the b that send the automorphism parts
of both generators of T into T's projection to A can normalize T.  The M1
part is computed for the surviving b only.

Within one parent (an order-p row or an order-p**2 row T) every extension is
built once: the walk takes the least candidate not yet covered, builds the p
cosets of the parent it generates, marks them covered and drops the covered
candidates.  Each subgroup is then built once from each of its maximal
subgroups, which gives two exact identities per ambient (asserted in the
tests): built_p2 = (p + 1) * |layer 2|, since every order-p**2 group here is
C_p x C_p; and built_p3 = sum over layer 3 of p**2 + p + 1 for an abelian T
and p + 1 for a Heisenberg one.  Picking the least uncovered candidate is
also what the element-by-element walk did, so the layers, their order and
their generators do not depend on the shortcut.

Results are deduplicated globally by the sorted tuple of holomorph codes, so
subgroups shared between ambients are counted once.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .group_core import validate_prime
from .subgroups import GroupType, SubgroupHol
from .tables import aut_table, hol_codec, m1_table

__all__ = [
    "AmbientScan",
    "OracleRecord",
    "OracleResult",
    "bucket_by_theta",
    "enumerate_regular_subgroups",
]

DEFAULT_ORACLE_BUDGET = 5


@dataclass(frozen=True)
class OracleRecord:
    """One regular subgroup found by the scan, in global code form."""

    p: int
    codes: tuple[int, ...]
    gen_codes: tuple[int, ...]
    group_type: GroupType
    theta_order: int

    def to_subgroup(self) -> SubgroupHol:
        codec = hol_codec(self.p)
        gens = [codec.decode(c) for c in self.gen_codes]
        return codec.materialize(np.array(self.codes, dtype=np.int64), gens)


@dataclass(frozen=True)
class OracleResult:
    """Merged scan of all ambients; per_ambient_* follow the ambient order.

    per_ambient_built_p2/p3 count the subgroups each layer built, repeats
    included; the layers keep only the distinct ones.
    """

    p: int
    records: tuple[OracleRecord, ...]
    per_ambient_regular: tuple[int, ...]
    per_ambient_order_p: tuple[int, ...]
    per_ambient_order_p2: tuple[int, ...]
    per_ambient_built_p2: tuple[int, ...]
    per_ambient_built_p3: tuple[int, ...]

    def count_by_type(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.records:
            out[rec.group_type.value] = out.get(rec.group_type.value, 0) + 1
        return out

    def count_by_type_and_theta(self) -> dict[str, dict[int, int]]:
        out: dict[str, dict[int, int]] = {}
        for rec in self.records:
            slot = out.setdefault(rec.group_type.value, {})
            slot[rec.theta_order] = slot.get(rec.theta_order, 0) + 1
        return out

    def keys(self) -> set[tuple[int, ...]]:
        return {rec.codes for rec in self.records}


class AmbientScan:
    """Layered subgroup walk inside M1 x| A for one automorphism subgroup A.

    A is given by the global indices of its members; local element codes are
    ncode * |A| + position-in-A.  Passing the one-element identity subgroup
    scans M1 itself, which is the completeness cross-check target.
    """

    def __init__(self, p: int, aut_member_idx: np.ndarray) -> None:
        self.p = p
        self.aut_global = np.sort(np.asarray(aut_member_idx, dtype=np.int64))
        self.AL = len(self.aut_global)
        aut = aut_table(p)
        m1 = m1_table(p)
        pos = np.full(aut.N, -1, dtype=np.int64)
        pos[self.aut_global] = np.arange(self.AL)
        self.LOC_APPLY = aut.apply_codes(
            self.aut_global[:, None], np.arange(p**3, dtype=np.int64)[None, :]
        )
        comp = aut.compose_idx(self.aut_global[:, None], self.aut_global[None, :])
        self.LOC_COMP = pos[comp]
        if np.any(self.LOC_COMP < 0):
            raise AssertionError("automorphism subset is not closed")
        self.LOC_INV = pos[aut.INV[self.aut_global]]
        self.M1MUL = m1.MUL.astype(np.int64)
        self.M1INV = m1.INV.astype(np.int64)
        self.size = p**3 * self.AL
        self.id_code = 0 * self.AL + int(pos[aut.identity])
        # Conjugation tables (see conj_all), each |A| x p**3 or smaller:
        # AUT_CONJ[b, a] = b a b^-1, MUL_BY[v, m] = (m v) * p**3,
        # INV_IMAGE[c, m] = c(m^-1), and MUL_FLAT[u * p**3 + v] = (u v) * |A|.
        self.AUT_CONJ = self.LOC_COMP[self.LOC_COMP, self.LOC_INV[:, None]]
        self.MUL_BY = np.ascontiguousarray(self.M1MUL.T) * p**3
        self.INV_IMAGE = np.ascontiguousarray(self.LOC_APPLY[:, self.M1INV])
        self.MUL_FLAT = (self.M1MUL * self.AL).ravel()
        self._m_col = np.arange(p**3, dtype=np.int64)[:, None]
        self._pows: np.ndarray | None = None
        self.built_p2 = 0
        self.built_p3 = 0

    # -- local group law ----------------------------------------------------

    def mul(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        n1, a1 = np.divmod(np.asarray(c1), self.AL)
        n2, a2 = np.divmod(np.asarray(c2), self.AL)
        return self.M1MUL[n1, self.LOC_APPLY[a1, n2]] * self.AL + self.LOC_COMP[a1, a2]

    def inv(self, c: np.ndarray) -> np.ndarray:
        n, a = np.divmod(np.asarray(c), self.AL)
        ai = self.LOC_INV[a]
        return self.LOC_APPLY[ai, self.M1INV[n]] * self.AL + ai

    def to_global(self, codes: np.ndarray) -> np.ndarray:
        n, a = np.divmod(np.asarray(codes), self.AL)
        N = aut_table(self.p).N
        return np.sort(n * N + self.aut_global[a])

    def conj_all(self, g: int, bs: np.ndarray | None = None) -> np.ndarray:
        """Codes of y g y^-1 for every y = (m, b), b in bs (default: all of A).

        With g = (n, a) and c = b a b^-1 the conjugate is (m b(n) c(m^-1), c),
        so it takes three gathers on the small tables instead of two products
        over the whole ambient.  Entry [m, j] is for y = (m, bs[j]); with bs
        ascending, the flattened array is in y-code order.
        """
        n, a = divmod(int(g), self.AL)
        if bs is None:
            bs = np.arange(self.AL, dtype=np.int64)
        c = self.AUT_CONJ[bs, a]
        idx = self.MUL_BY[self.LOC_APPLY[bs, n]]
        idx += self.INV_IMAGE[c]
        out = self.MUL_FLAT[idx]
        out += c[:, None]
        return out.T

    # -- layers ---------------------------------------------------------------

    def power_tables(self) -> np.ndarray:
        """pows[k, g] = g^k for k = 0..p-1; asserts the ambient has exponent p."""
        if self._pows is None:
            everyone = np.arange(self.size, dtype=np.int64)
            pows = [np.full(self.size, self.id_code, dtype=np.int64), everyone]
            for _ in range(2, self.p):
                pows.append(self.mul(pows[-1], everyone))
            closing = self.mul(pows[-1], everyone)
            if not np.all(closing == self.id_code):
                raise AssertionError("ambient exponent is not p")
            self._pows = np.stack(pows)
        return self._pows

    def order_p_subgroups(self) -> np.ndarray:
        """(count, p) sorted member rows, one per subgroup of order p."""
        pows = self.power_tables()
        everyone = np.arange(self.size, dtype=np.int64)
        nonid = everyone[everyone != self.id_code]
        reps = nonid.copy()
        for k in range(2, self.p):
            np.minimum(reps, pows[k][nonid], out=reps)
        reps = np.unique(reps)
        rows = np.stack(
            [np.full(len(reps), self.id_code, dtype=np.int64)]
            + [pows[k][reps] for k in range(1, self.p)],
            axis=1,
        )
        rows.sort(axis=1)
        expected = (self.size - 1) // (self.p - 1)
        if len(rows) != expected:
            raise AssertionError("order-p subgroup count off")
        return rows

    def order_p2_subgroups(self, layer1: np.ndarray) -> list[tuple[np.ndarray, int, int]]:
        """List of (sorted member row, generator s, generator x)."""
        seen: dict[bytes, tuple[np.ndarray, int, int]] = {}
        built = 0
        for row in layer1:
            s = int(row[0]) if row[0] != self.id_code else int(row[1])
            a = s % self.AL
            bs = np.flatnonzero(self.AUT_CONJ[:, a] == a)
            fixed = self.conj_all(s, bs) == s
            centralizer = (self._m_col * self.AL + bs)[fixed]
            for members, x in self._extensions(row, centralizer):
                built += 1
                seen.setdefault(members.tobytes(), (members, s, x))
        self.built_p2 = built
        return list(seen.values())

    def order_p3_subgroups(
        self, layer2: list[tuple[np.ndarray, int, int]]
    ) -> list[tuple[np.ndarray, tuple[int, int, int]]]:
        """List of (sorted member row, generating triple)."""
        seen: dict[bytes, tuple[np.ndarray, tuple[int, int, int]]] = {}
        built = 0
        in_row = np.zeros(self.size, dtype=bool)
        in_proj = np.zeros(self.AL, dtype=bool)
        for row, s, x in layer2:
            # y normalizes <s, x> iff it conjugates both into the row, so the
            # automorphism parts b a b^-1 of both conjugates must lie in the
            # row's projection to A; that settles b before any M1 work.
            proj = row % self.AL
            in_proj[proj] = True
            keep = in_proj[self.AUT_CONJ[:, s % self.AL]]
            keep &= in_proj[self.AUT_CONJ[:, x % self.AL]]
            in_proj[proj] = False
            bs = np.flatnonzero(keep)
            in_row[row] = True
            normal = in_row[self.conj_all(s, bs)] & in_row[self.conj_all(x, bs)]
            in_row[row] = False
            normalizer = (self._m_col * self.AL + bs)[normal]
            for members, y in self._extensions(row, normalizer):
                built += 1
                seen.setdefault(members.tobytes(), (members, (s, x, y)))
        self.built_p3 = built
        return list(seen.values())

    def _extensions(self, row: np.ndarray, candidates: np.ndarray):
        """Yield (sorted members of <row, y>, y) once per distinct extension.

        row is a subgroup normalized by every candidate (ascending codes), and
        the ambient has exponent p, so <row, y> is the union of the cosets
        row y^k.  Each round takes the least candidate not yet covered by an
        earlier extension, so no extension is built twice.
        """
        pows = self.power_tables()
        covered = np.zeros(self.size, dtype=bool)
        covered[row] = True
        left = candidates[~covered[candidates]]
        while left.size:
            y = int(left[0])
            members = self.mul(row[None, :], pows[:, y][:, None]).ravel()
            members.sort()
            covered[members] = True
            yield members, y
            left = left[~covered[left]]

    # -- classification -------------------------------------------------------

    def is_regular(self, row: np.ndarray) -> bool:
        return len(np.unique(row // self.AL)) == self.p**3

    def theta_order(self, row: np.ndarray) -> int:
        return int(len(np.unique(row % self.AL)))

    def is_abelian(self, gens: tuple[int, ...]) -> bool:
        for i, g in enumerate(gens):
            for h in gens[i + 1 :]:
                if int(self.mul(np.int64(g), np.int64(h))) != int(
                    self.mul(np.int64(h), np.int64(g))
                ):
                    return False
        return True


def _scan_one_ambient(args: tuple[int, tuple[int, ...]]) -> dict:
    """Worker: full three-layer scan of one ambient; returns plain data."""
    p, aut_idx = args
    scan = AmbientScan(p, np.array(aut_idx, dtype=np.int64))
    layer1 = scan.order_p_subgroups()
    layer2 = scan.order_p2_subgroups(layer1)
    layer3 = scan.order_p3_subgroups(layer2)
    found = []
    n_regular = 0
    for row, gens in layer3:
        if not scan.is_regular(row):
            continue
        n_regular += 1
        # Ambient exponent p is asserted in power_tables, so the type is
        # decided by abelianness alone.
        gtype = (
            GroupType.ElemAbelian_p3 if scan.is_abelian(gens) else GroupType.HeisenbergM1
        )
        found.append(
            (
                tuple(scan.to_global(row).tolist()),
                tuple(scan.to_global(np.array(gens, dtype=np.int64)).tolist()),
                gtype.value,
                scan.theta_order(row),
            )
        )
    return {
        "regular": n_regular,
        "order_p": len(layer1),
        "order_p2": len(layer2),
        "built_p2": scan.built_p2,
        "built_p3": scan.built_p3,
        "found": found,
    }


def _sylow_ambient_indices(p: int) -> list[tuple[int, ...]]:
    from .automorphisms import sylow_p_subgroups_gl2

    aut = aut_table(p)
    out = []
    for mats in sylow_p_subgroups_gl2(p):
        keys = [
            aut.pack(b1, b2, A.a1, A.a2, A.a3, A.a4)
            for b1 in range(p)
            for b2 in range(p)
            for A in mats
        ]
        idx = aut.INDEX[np.array(keys, dtype=np.int64)]
        if np.any(idx < 0):
            raise AssertionError("Sylow member missing from enumeration")
        out.append(tuple(sorted(int(i) for i in idx)))
    return out


_SCAN_MEMO: dict[int, OracleResult] = {}


def enumerate_regular_subgroups(
    p: int, budget: int = DEFAULT_ORACLE_BUDGET, jobs: int = 1
) -> OracleResult:
    """Scan all p + 1 ambients and merge.  Refuses p above the budget.

    The merged result does not depend on the schedule, so it is memoized per
    prime; jobs only affects how fast a cold run finishes.
    """
    validate_prime(p)
    if p > budget:
        raise ValueError(
            f"oracle budget is p <= {budget}; pass a larger budget to override"
        )
    cached = _SCAN_MEMO.get(p)
    if cached is not None:
        return cached
    ambients = _sylow_ambient_indices(p)
    args = [(p, idx) for idx in ambients]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_one_ambient, args))
    else:
        results = [_scan_one_ambient(a) for a in args]
    merged: dict[tuple[int, ...], OracleRecord] = {}
    for res in results:
        for codes, gen_codes, gtype, theta in res["found"]:
            if codes not in merged:
                merged[codes] = OracleRecord(
                    p, codes, gen_codes, GroupType(gtype), theta
                )
    result = OracleResult(
        p=p,
        records=tuple(merged[k] for k in sorted(merged)),
        per_ambient_regular=tuple(r["regular"] for r in results),
        per_ambient_order_p=tuple(r["order_p"] for r in results),
        per_ambient_order_p2=tuple(r["order_p2"] for r in results),
        per_ambient_built_p2=tuple(r["built_p2"] for r in results),
        per_ambient_built_p3=tuple(r["built_p3"] for r in results),
    )
    _SCAN_MEMO[p] = result
    return result


def bucket_by_theta(result: OracleResult) -> dict[int, list[OracleRecord]]:
    out: dict[int, list[OracleRecord]] = {}
    for rec in result.records:
        out.setdefault(rec.theta_order, []).append(rec)
    return out
