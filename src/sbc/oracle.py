"""Brute-force enumeration of regular order-p**3 subgroups of the holomorph.

Independent of the family formulas: every order-p**3 subgroup of Hol(M1) has
its automorphism image inside a Sylow p-subgroup of Aut(M1) (those are the
preimages of the GL2 Sylows, since the inner C_p x C_p is a normal
p-subgroup), so it lies in one of the p + 1 ambients M1 x| A of order p**6.
Each ambient is scanned by a layered lattice walk, all three layers by one
step from the trivial group: extend each parent R of the layer below by the
y that normalize it.

  order p    <y> for every y but the identity, whose normalizer is the
             whole ambient (which has exponent p, asserted, not assumed);
  order p**2 spans <s, x> with x in the normalizer of <s>;
  order p**3 spans T<x> with x in the normalizer of T (T is maximal, hence
             normal, in any overgroup of order p**3).

For a parent <s> of order p the normalizer is the centralizer of s:
N(<s>)/C(s) embeds in Aut(C_p), of order p - 1, and is a p-group (both the
ambient and its A are), so it is trivial.

One walk per conjugacy class.  Each layer is the complete set of subgroups
of its order: a subgroup of order p, p**2 or p**3 is <R, y> for any maximal
subgroup R of it (maximal subgroups of a p-group are normal) and any y
outside R.  Conjugation keeps the order, so a layer is closed under
conjugation by the ambient G.  The parents of a layer are split into
classes by a breadth-first walk: a small generating set of G is chosen
greedily, and for a parent R and a generator z the sorted row of z R z^-1
is looked up in the layer.  That records for every parent a
representative R0 (the first parent of its class) and a g with
R = g R0 g^-1; a failed lookup is an AssertionError.  Only R0 gets the
direct normalizer sweep and the leader pass below.  Since N(g R0 g^-1) =
g N(R0) g^-1, the extensions of R are the g E g^-1 for the extensions
E = R0<y> of R0, and g E g^-1 = R<g y g^-1>.  By orbit-stabilizer a class
holds |G| / |N(R)| parents, so a layer's parents take sum |N(R)| / |G|
sweeps: 66 + 195 on Sylow ambient 0 at p=5 instead of 3906 + 8431.

The direct sweep conjugates one element by the whole ambient at once.  For
g = (n, a) and y = (m, b),

  y g y^-1 = (m b(n) c(m^-1), c)   with c = b a b^-1,

so the conjugates are gathers on the |A| x |A| and |A| x p**3 tables.  The
automorphism part c depends on b alone, which gives a prefilter: only the b
that send the automorphism part of every generator of R into R's projection
to A can normalize R.  The M1 part is computed for the surviving b only.

Leaders.  Each layer step adds the p cosets of one element, so a parent
R = <g1, g2, ...> is the set product <g1><g2>... of its generators.  The
extensions R<y>, y in N(R) - R, meet pairwise in R (each has index p over
it), so they split N(R) - R, and each is named by its leader min(E - R).
R0's leaders come from one vectorized pass over N(R0): the coset label
label(y) = min(R0 y) is folded over the generators, the leader of <R0, y> is
the least label(y^k), k = 1..p-1, and the leaders are the y outside R0 that
are their own leader.  Every parent of the class builds each extension as
its p - 1 cosets outside R, unsorted, and reads the leader as their minimum.
A class is built in one batch: |G| / |N| parents with
(|N| - |R|) / ((p - 1) |R|) extensions of (p - 1) |R| codes each, fewer than
|G| codes in all (117,649 at p=7).

Canonical parents.  A subgroup is built once from each of its maximal
subgroups, which gives two exact identities per ambient (asserted in the
tests): built_p2 = (p + 1) * |layer 2|, since every order-p**2 group here
is C_p x C_p; and built_p3 = sum over layer 3 of p**2 + p + 1 for an
abelian T and p + 1 for a Heisenberg one.  A built child
E is kept only from its canonical parent, the maximal subgroup of E that
comes first in the parent layer (McKay's canonical augmentation), with rank
(parent index, leader); the layer is put in rank order.  That is the order
of first occurrence in a parent-by-parent, leader-by-leader walk, so the
layers, their order and their generators do not depend on the shortcuts,
and only the kept children are sorted.  The test reads no child's sorted
row:

  Lines.  An order-p subgroup, a line, has one maximal subgroup, the
  trivial group, so each line <z> is kept, with leader min(<z> - 1).
  Layer 1 lists the lines in that order, and for z, z' other than the
  identity <z> = <z'> iff min(<z> - 1) = min(<z'> - 1).  The least line of
  a subgroup H is <min(H - 1)>; call its index a(H).  A child Q of order
  p**2 is kept from its least line L, with leader b(Q) = min(Q - L), so
  layer 2 is in order of (a(Q), b(Q)).

  Order p**2.  The maximal subgroups of E are its lines, and the first is
  the line of min(E - 1).  So R is canonical iff min(E - 1) lies in R, that
  is iff min(R - 1) < min(E - R).

  Order p**3.  Let L* be the least line of E, a* its index, and
  m = min(E - L*).  Every maximal Q of E has a(Q) >= a*, with equality iff
  Q contains L*, and some maximal subgroup does, so the canonical parent
  contains L*: a(R) = a*, that is min(R - 1) < min(E - R) as above.  Two
  maximal subgroups containing L* meet in L*, since their intersection
  contains L* and is proper in each, of order p**2; so their sets Q - L*
  are disjoint.  Each such Q has order p**2, is abelian and normalizes
  L*, and for z in N_E(L*) - L* the group L*<z> is such a Q; so the sets
  Q - L* split N_E(L*) - L*.  If N_E(L*) = E, the Q containing m has b(Q) = m, the
  least, and R is canonical iff m lies in R.  Otherwise N_E(L*) is proper,
  so of order p**2 (normalizers grow in a p-group), and it is the only
  maximal subgroup containing L*; R contains L* and is abelian, so
  R = N_E(L*) is canonical, and m normalizes L* only if m lies in R.  In
  both cases R is canonical iff a(R) = a* and (m lies in R or m does not
  normalize L*).  With L* = <s>, s = min(R - 1), m lies in R iff
  min(R - L*) < min(E - R); otherwise m = min(E - R), and m normalizes L*
  iff min(<m s m^-1> - 1) = min(<s> - 1).

Each subgroup is a sorted row of global holomorph codes.  The ambients'
rows are merged by `tables.distinct_rows`, so subgroups shared between
ambients are counted once.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .group_core import validate_prime
from .subgroups import GroupType
from .tables import aut_subgroup, aut_table, distinct_rows, m1_table, row_lookup

__all__ = [
    "AmbientScan",
    "OracleResult",
    "enumerate_regular_subgroups",
]

DEFAULT_ORACLE_BUDGET = 5


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Merged scan of all ambients; per_ambient_* follow the ambient order.

    codes holds one regular subgroup per row, as its sorted global holomorph
    codes; the rows are distinct and in lexicographic order.  theta and types
    give each row's theta order and GroupType value.  The arrays are
    read-only, since the result is memoized and shared.

    per_ambient_built_p2/p3 count the subgroups each layer built, repeats
    included; the layers keep only the distinct ones.
    """

    p: int
    codes: np.ndarray
    theta: np.ndarray
    types: np.ndarray
    per_ambient_regular: tuple[int, ...]
    per_ambient_order_p: tuple[int, ...]
    per_ambient_order_p2: tuple[int, ...]
    per_ambient_built_p2: tuple[int, ...]
    per_ambient_built_p3: tuple[int, ...]

    def count_by_type(self) -> dict[str, int]:
        tags, counts = np.unique(self.types, return_counts=True)
        return {str(t): int(n) for t, n in zip(tags, counts)}

    def count_by_type_and_theta(self) -> dict[str, dict[int, int]]:
        out: dict[str, dict[int, int]] = {}
        for tag in np.unique(self.types):
            thetas, counts = np.unique(self.theta[self.types == tag], return_counts=True)
            out[str(tag)] = {int(t): int(n) for t, n in zip(thetas, counts)}
        return out


class AmbientScan:
    """Layered subgroup walk inside M1 x| A for one automorphism subgroup A.

    A is given by the global indices of its members, closed under
    composition (else `tables.aut_subgroup` raises ValueError); local element
    codes are ncode * |A| + position-in-A.  Passing the one-element identity
    subgroup scans M1 itself, which is the completeness cross-check target.
    """

    def __init__(self, p: int, aut_member_idx: np.ndarray) -> None:
        self.p = p
        self.aut_global = np.sort(np.asarray(aut_member_idx, dtype=np.int64))
        self.AL = len(self.aut_global)
        m1 = m1_table(p)
        self.LOC_APPLY, self.LOC_COMP, inv = aut_subgroup(p, self.aut_global)
        m1_mul = m1.MUL.astype(np.int64)
        self.size = p**3 * self.AL
        self.id_code = 0 * self.AL + int(self.LOC_COMP[0, inv[0]])
        # Conjugation tables (see conj_all), each |A| x p**3 or smaller:
        # AUT_CONJ[b, a] = b a b^-1, MUL_BY[v, m] = (m v) * p**3,
        # INV_IMAGE[c, m] = c(m^-1), and MUL_FLAT[u * p**3 + v] = (u v) * |A|.
        self.AUT_CONJ = self.LOC_COMP[self.LOC_COMP, inv[:, None]]
        self.MUL_BY = np.ascontiguousarray(m1_mul.T) * p**3
        self.INV_IMAGE = np.ascontiguousarray(self.LOC_APPLY[:, m1.INV])
        self.MUL_FLAT = (m1_mul * self.AL).ravel()
        self._n_parts = np.arange(p**3, dtype=np.int64)
        # POW[k, g] = g^k for k = 0..p-1; the ambient must have exponent p.
        # Filled row by row, so only one copy of it is ever held.
        self.POW = np.empty((p, self.size), dtype=np.int64)
        self.POW[0] = self.id_code
        self.POW[1] = np.arange(self.size)
        for k in range(2, p):
            self.POW[k] = self.mul(self.POW[k - 1], self.POW[1])
        if not np.all(self.mul(self.POW[p - 1], self.POW[1]) == self.id_code):
            raise AssertionError("ambient exponent is not p")
        # LEAST[z] = min(<z> - 1) names the line <z>, for z not the identity
        self.LEAST = self.POW[1:].min(axis=0)
        self.LEAST.flags.writeable = False
        self.built_p2 = self.built_p3 = 0
        self.swept_p2 = self.swept_p3 = 0
        self.walked_p2 = self.walked_p3 = 0

    # -- local group law ----------------------------------------------------

    def mul(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        # (n1, a1)(n2, a2) = (n1 a1(n2), a1 a2), each table read by a flat
        # take, which is faster than a 2-D fancy gather
        n1, a1 = np.divmod(np.asarray(c1), self.AL)
        n2, a2 = np.divmod(np.asarray(c2), self.AL)
        image = np.take(self.LOC_APPLY, a1 * self.p**3 + n2)
        out = np.take(self.MUL_FLAT, n1 * self.p**3 + image)
        out += np.take(self.LOC_COMP, a1 * self.AL + a2)
        return out

    def conj(self, g: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Codes of g c g^-1, elementwise; g^-1 = g^(p-1) since the ambient
        has exponent p."""
        return self.mul(self.mul(g, c), self.POW[self.p - 1, g])

    def to_global(self, codes) -> np.ndarray:
        """Global codes of a block of sorted regular rows of local codes,
        computed in place on one new copy of the block.  The rows stay
        sorted: the n-part orders both n |A| + pos and n N + index."""
        out = np.array(codes, dtype=np.int64)
        a = out % self.AL
        out //= self.AL
        out *= aut_table(self.p).N
        out += np.take(self.aut_global, a, out=a, mode="wrap")  # reads each index before writing it
        return out

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

    def order_p_subgroups(self) -> list[tuple[np.ndarray, tuple[int]]]:
        """List of (sorted member row, generator (s,)), one per subgroup of
        order p, in ascending order of s, its least non-identity member."""
        trivial = [(np.array([self.id_code], dtype=np.int64), ())]
        layer1 = self._next_layer(trivial)[0]
        if len(layer1) != (self.size - 1) // (self.p - 1):
            raise AssertionError("order-p subgroup count off")
        return layer1

    def order_p2_subgroups(
        self, layer1: list[tuple[np.ndarray, tuple[int]]]
    ) -> list[tuple[np.ndarray, tuple[int, int]]]:
        """List of (sorted member row, generating pair (s, x))."""
        layer2, self.built_p2, self.swept_p2, self.walked_p2 = self._next_layer(layer1)
        return layer2

    def order_p3_subgroups(
        self, layer2: list[tuple[np.ndarray, tuple[int, int]]]
    ) -> list[tuple[np.ndarray, tuple[int, int, int]]]:
        """List of (sorted member row, generating triple)."""
        layer3, self.built_p3, self.swept_p3, self.walked_p3 = self._next_layer(layer2)
        return layer3

    @cached_property
    def generators(self) -> np.ndarray:
        """A small generating set of the ambient, chosen greedily: the least
        element outside the subgroup generated so far, until that subgroup
        is the whole ambient (at most log_p(size) steps)."""
        gens: list[int] = []
        inside = np.zeros(self.size, dtype=bool)
        inside[self.id_code] = True
        while not inside.all():
            gens.append(int(np.argmin(inside)))
            self._extend(inside, gens)
        return np.array(gens, dtype=np.int64)

    def _extend(self, inside: np.ndarray, gens: list[int]) -> None:
        """Grow the mask of a subgroup H, in place, to the mask of <H, gens>:
        the closure of H under right multiplication by the generators.  Each
        round's frontier is the elements it reached first, read off a mask."""
        g = np.array(gens, dtype=np.int64)
        frontier = np.flatnonzero(inside)
        while frontier.size:
            reached = np.zeros(self.size, dtype=bool)
            reached[self.mul(frontier[:, None], g[None, :])] = True
            reached &= ~inside
            inside |= reached
            frontier = np.flatnonzero(reached)

    def _classes(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rep, g) with rows[i] = g[i] rows[rep[i]] g[i]^-1 for a layer of
        sorted rows; rep[i] is the first row of the conjugacy class of i.

        Each class is walked breadth-first along the generators.  A failed
        lookup is an AssertionError: the layer holds every subgroup of its
        order, so it is closed under conjugation.
        """
        n = len(rows)
        find = row_lookup(rows)
        everyone = np.arange(self.size, dtype=np.int64)
        steps = []  # steps[k][i]: the index of z_k rows[i] z_k^-1
        for z in self.generators:
            conj = self.conj(z, everyone)[rows]
            conj.sort(axis=1)
            at, found = find(conj)
            if not found.all():
                raise AssertionError("layer is not closed under conjugation")
            steps.append(at.tolist())
        del find, conj
        rep, pred, via, depth = [-1] * n, [0] * n, [0] * n, [0] * n
        queue: list[int] = []
        head = 0
        for i in range(n):
            if rep[i] >= 0:
                continue
            rep[i] = i
            queue.append(i)
            while head < len(queue):
                u = queue[head]
                head += 1
                for k, step in enumerate(steps):
                    v = step[u]
                    if rep[v] < 0:
                        rep[v], pred[v], via[v], depth[v] = i, u, k, depth[u] + 1
                        queue.append(v)
        # rows[v] = z_k rows[u] z_k^-1 for its predecessor u, so g[v] = z_k g[u]
        g = np.full(n, self.id_code, dtype=np.int64)
        pred, via, depth = (np.array(c, dtype=np.int64) for c in (pred, via, depth))
        for d in range(1, int(depth.max()) + 1):
            at = np.flatnonzero(depth == d)
            g[at] = self.mul(self.generators[via[at]], g[pred[at]])
        return np.array(rep, dtype=np.int64), g

    def _normalizer(self, row: np.ndarray, gens: tuple[int, ...]) -> np.ndarray:
        """Ascending codes of the normalizer of the subgroup row = <gens>."""
        # y normalizes the row iff it conjugates every generator into it
        # (every y does when there is none), so the automorphism parts
        # b a b^-1 of the conjugates must lie in the row's projection to A;
        # that settles b before any M1 work.
        in_proj = np.zeros(self.AL, dtype=bool)
        in_proj[row % self.AL] = True
        keep = np.ones(self.AL, dtype=bool)
        for g in gens:
            keep &= in_proj[self.AUT_CONJ[:, g % self.AL]]
        bs = np.flatnonzero(keep)
        in_row = np.zeros(self.size, dtype=bool)
        in_row[row] = True
        normal = np.ones((self.p**3, len(bs)), dtype=bool)
        for g in gens:
            normal &= in_row[self.conj_all(g, bs)]
        return (self._n_parts[:, None] * self.AL + bs)[normal]

    def _leaders(
        self, row: np.ndarray, gens: tuple[int, ...], normalizer: np.ndarray, pos: np.ndarray
    ) -> np.ndarray:
        """Ascending leaders min(E - R) of the extensions E = <R, y> of the
        subgroup R = row = <gens>, y in R's ascending normalizer.

        Each layer step adds the p cosets of one element, so R is the set
        product <g1><g2>...  of its generators in order.  The coset label
        label(y) = min(R y) is folded over them: after g1..gj it is
        min(<g1>...<gj> y), and folding in g replaces label(y) by the least
        label(g^i y), i = 0..p-1.  E - R is the union of the cosets R y^k,
        k = 1..p-1, so the leader of <R, y> is the least label(y^k).  Every
        y outside R is in exactly one extension, the leader of an extension
        is its own, and R y = R only for y in R (label min(R) = row[0]): the
        leaders are the y outside R that are their own leader.  pos is a
        |G| buffer; only the normalizer's entries are written and read.
        """
        pos[normalizer] = np.arange(len(normalizer))
        label = normalizer
        for g in gens:
            prev, label = label, label.copy()
            for i in range(1, self.p):
                np.minimum(label, prev[pos[self.mul(self.POW[i, g], normalizer)]], out=label)
        lead = label[pos[self.POW[1, normalizer]]]
        for k in range(2, self.p):
            np.minimum(lead, label[pos[self.POW[k, normalizer]]], out=lead)
        return normalizer[(label != row[0]) & (lead == normalizer)]

    def _class_extensions(
        self, rows: np.ndarray, parents: list[tuple[np.ndarray, tuple[int, ...]]]
    ):
        """Yield per conjugacy class of the parents (index, leaders, blocks):
        blocks[j, e] holds the p - 1 cosets of parent R = rows[index[j]]
        outside R, unsorted, that make its e-th extension, and leaders[j, e]
        is their least element.

        Only the class's first parent R0 gets a normalizer sweep; a parent
        R = g R0 g^-1 gets g E g^-1 = R<g y g^-1> for each extension
        E = R0<y> of R0, built as the cosets R (g y g^-1)^k, k = 1..p-1.
        """
        rep, g = self._classes(rows)
        order = np.argsort(rep, kind="stable")  # a class's first parent leads it
        pos = np.empty(self.size, dtype=np.int64)
        for index in np.split(order, np.flatnonzero(np.diff(rep[order])) + 1):
            row, gens = parents[index[0]]
            leads = self._leaders(row, gens, self._normalizer(row, gens), pos)
            y = self.conj(g[index, None], leads)
            powers = np.moveaxis(self.POW[1:, y], 0, -1)[..., None]
            blocks = self.mul(rows[index, None, None, :], powers)
            blocks = blocks.reshape(len(index), len(leads), -1)
            yield index, blocks.min(axis=2), blocks

    def _canonical(self, rows: np.ndarray, leaders: np.ndarray) -> np.ndarray:
        """Mask shaped like leaders: True where parent R = rows[j] is the
        canonical parent of its child E with leader leaders[j, e] =
        min(E - R), that is the maximal subgroup of E that comes first in
        the parents' layer.  The parents are all of order 1, all of order p
        or all of order p**2; the module docstring proves the test.
        """
        if rows.shape[1] == 1:  # an order-p group has one maximal subgroup
            return np.ones(leaders.shape, dtype=bool)
        s = np.where(rows[:, 0] == self.id_code, rows[:, 1], rows[:, 0])[:, None]
        keep = s < leaders  # min(E - 1) lies in R
        if rows.shape[1] > self.p:
            least = self.LEAST
            outside = (least[rows] != least[s]) & (rows != self.id_code)
            b = np.where(outside, rows, self.size).min(axis=1, keepdims=True)
            keep &= (b < leaders) | (least[self.conj(leaders, s)] != least[s])
        return keep

    def _next_layer(
        self, parents: list[tuple[np.ndarray, tuple[int, ...]]]
    ) -> tuple[list[tuple[np.ndarray, tuple[int, ...]]], int, int, int]:
        """(distinct <row, y> with generators gens + (y,), number built,
        number of direct normalizer sweeps, number of extensions walked)
        for the parents (sorted row, gens), y running over the row's
        normalizer.

        A child is kept from its canonical parent R only, with y its leader
        min(E - R); the kept children are sorted, and the layer is put in
        order of (parent index, leader).
        """
        rows = np.array([row for row, _ in parents])
        children: list[np.ndarray] = []
        ranks, layer_gens = [], []
        built = swept = walked = 0
        for index, leaders, blocks in self._class_extensions(rows, parents):
            built += leaders.size
            swept += 1
            walked += leaders.shape[1]
            j, e = np.nonzero(self._canonical(rows[index], leaders))
            kept = np.concatenate([rows[index[j]], blocks[j, e]], axis=1)
            kept.sort(axis=1)
            kept.flags.writeable = False
            children.extend(kept)  # row views: the kept blocks are the layer
            owners, y = index[j], leaders[j, e]
            ranks.append(owners * self.size + y)
            layer_gens.extend(parents[i][1] + (v,) for i, v in zip(owners.tolist(), y.tolist()))
        order = np.argsort(np.concatenate(ranks)).tolist()
        layer = [(children[k], layer_gens[k]) for k in order]
        return layer, built, swept, walked

    # -- classification -------------------------------------------------------

    def is_regular(self, row: np.ndarray) -> bool:
        """A sorted regular row has n-part j at position j."""
        return bool(np.array_equal(row // self.AL, self._n_parts))

    def theta_order(self, row: np.ndarray) -> int:
        """The number of distinct automorphism parts in the row."""
        return int(np.count_nonzero(np.bincount(row % self.AL)))

    def is_abelian(self, gens: tuple[int, ...]) -> bool:
        g = np.array(gens, dtype=np.int64)
        return bool(np.array_equal(self.mul(g[:, None], g[None, :]), self.mul(g[None, :], g[:, None])))


def _scan_one_ambient(args: tuple[int, np.ndarray]) -> dict:
    """Worker: full three-layer scan of one ambient; returns plain data, the
    regular subgroups as rows of sorted global codes."""
    p, aut_idx = args
    scan = AmbientScan(p, aut_idx)
    layer1 = scan.order_p_subgroups()
    layer2 = scan.order_p2_subgroups(layer1)
    layer3 = scan.order_p3_subgroups(layer2)
    regular = [(row, gens) for row, gens in layer3 if scan.is_regular(row)]
    order_p, order_p2 = len(layer1), len(layer2)
    del layer1, layer2, layer3  # so the global block does not raise the worker's peak
    # Ambient exponent p is asserted in the constructor, so the type is
    # decided by abelianness alone.
    types = [
        (GroupType.ElemAbelian_p3 if scan.is_abelian(gens) else GroupType.HeisenbergM1).value
        for _, gens in regular
    ]
    return {
        "regular": len(regular),
        "order_p": order_p,
        "order_p2": order_p2,
        "built_p2": scan.built_p2,
        "built_p3": scan.built_p3,
        "codes": scan.to_global([row for row, _ in regular]).reshape(-1, p**3),
        "theta": np.array([scan.theta_order(row) for row, _ in regular], dtype=np.int64),
        "types": np.array(types, dtype=str),
    }


def _sylow_ambient_indices(p: int) -> list[np.ndarray]:
    """The Aut(M1) indices of each Sylow p-subgroup, one array per ambient."""
    from .automorphisms import sylow_p_subgroups_gl2

    aut = aut_table(p)
    t1, t2 = np.divmod(np.arange(p * p), p)
    out = []
    for mats in sylow_p_subgroups_gl2(p):
        entries = np.array([(A.a1, A.a2, A.a3, A.a4) for A in mats]).T
        idx = aut.index(t1[:, None], t2[:, None], *entries[:, None, :]).ravel()
        if np.any(idx < 0):
            raise AssertionError("Sylow member missing from enumeration")
        out.append(idx)
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
    ends = np.cumsum([r["regular"] for r in results])
    rows = np.empty((ends[-1], p**3), dtype=np.int64)
    for r, end in zip(results, ends):  # popping each block frees it once copied
        rows[end - r["regular"] : end] = r.pop("codes")
    codes, first = distinct_rows(rows)
    # theta and type are invariants of the subgroup: any occurrence will do
    theta = np.concatenate([r["theta"] for r in results])[first]
    types = np.concatenate([r["types"] for r in results])[first]
    for arr in (theta, types):
        arr.flags.writeable = False
    result = OracleResult(
        p=p,
        codes=codes,
        theta=theta,
        types=types,
        per_ambient_regular=tuple(r["regular"] for r in results),
        per_ambient_order_p=tuple(r["order_p"] for r in results),
        per_ambient_order_p2=tuple(r["order_p2"] for r in results),
        per_ambient_built_p2=tuple(r["built_p2"] for r in results),
        per_ambient_built_p3=tuple(r["built_p3"] for r in results),
    )
    _SCAN_MEMO[p] = result
    return result
