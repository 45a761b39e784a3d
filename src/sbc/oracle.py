"""Brute-force enumeration of regular order-p**3 subgroups of the holomorph.

Independent of the family formulas: every order-p**3 subgroup of Hol(M1) has
its automorphism image inside a Sylow p-subgroup of Aut(M1) (those are the
preimages of the GL2 Sylows, since the inner C_p x C_p is a normal
p-subgroup), so it lies in one of the p + 1 ambients M1 x| A of order p**6,
and these are conjugate in Hol(M1) by closed-form conjugators (see One
ambient decides the rest).  Sylow ambient 0 is scanned by a layered
lattice walk, all three layers by one step from the trivial group: extend
each parent R of the layer below by the y that normalize it.

  order p    <y> for every y but the identity, whose normalizer is the
             whole ambient (which has exponent p, asserted, not assumed);
  order p**2 spans <s, x> with x in the normalizer of <s>;
  order p**3 spans T<x> with x in the normalizer of T (T is maximal, hence
             normal, in any overgroup of order p**3).

For a parent <s> of order p the normalizer is the centralizer of s:
N(<s>)/C(s) embeds in Aut(C_p), of order p - 1, and is a p-group (both the
ambient and its A are), so it is trivial.

One sweep per conjugacy class.  Each layer is the complete set of
subgroups of its order: a subgroup of order p, p**2 or p**3 is <R, y> for
any maximal subgroup R of it (maximal subgroups of a p-group are normal)
and any y outside R.  Conjugation keeps the order, so a layer is closed
under conjugation by the ambient G.  A parent is named by its lines: a
line <s> by LEAST[s] = min(<s> - 1), and an order-p**2 group Q, which is
C_p x C_p with the p + 1 lines <s> and <s^i x>, by the pair (a(Q), b(Q))
of its two least line minima (see Canonical parents).  The lines of
z R z^-1 are the z L z^-1, so for each z_k of a greedy generating set of
G one search among the parents' keys finds steps[k][i], the index of
z_k R_i z_k^-1; `tables.class_labels` on the steps gives rep[i] = R0, the
first parent of the class of R_i, and carries a g[i] with R_i =
g[i] R0 g[i]^-1.  Only R0 gets the direct normalizer sweep and the
leader pass below.  Since N(g R0 g^-1) = g N(R0) g^-1, the extensions of
R are the g E g^-1 for the extensions E = R0<y> of R0, and
g E g^-1 = R<g y g^-1>.  By orbit-stabilizer a class holds |G| / |N(R)|
parents, so a layer's parents take sum |N(R)| / |G| sweeps: 66 + 195 on
Sylow ambient 0 at p=5 instead of 3906 + 8431.

The direct sweep conjugates one element by the whole ambient at once.  For
g = (n, a) and y = (m, b),

  y g y^-1 = (m b(n) c(m^-1), c)   with c = b a b^-1,

so the conjugates are gathers on the |A| x |A| and |A| x p**3 tables.  The
automorphism part c depends on b alone, which gives a prefilter: only the b
that send the automorphism part of every generator of R into R's projection
to A can normalize R.  The M1 part is computed for the surviving b only.

The sweep runs over M1 modulo its centre.  The ambient has exponent p, so
each a in A has det(a) = det(a)^p = det(a^p) = 1 in F_p, and a sends r to
r^det(a) = r; inner automorphisms fix r too.  So (r^k, 1) is central in
M1 x| A, and y and (r^k, 1) y conjugate every element alike: N(R) is the
union of the p translates by (r^k, 1) of its part over the M1 parts
s^b t^c, the codes m < p**2.  Only those p**2 parts are swept, and the
result is spread over k; since (r^k)(s^b t^c) has code k p**2 + b p + c,
the k blocks come out ascending.  At p=5 a scan sweeps 965,000 conjugates
instead of 4,825,000.

Leaders from lines.  The extensions R<y>, y in N(R) - R, meet pairwise in R
(each has index p over it), so they split N(R) - R, and each is named by
its leader min(E - R).  Let E = <R, y> with R maximal in E, so E / R has
order p and R y generates it.  A line <z> of E not in R meets R in the
identity only, so it maps onto E / R, and exactly one of its elements lies
in the coset R y.  E - R is the union of these lines without the identity,
so

  min(E - R) = min over x in R y of LEAST[x],

one coset of |R| codes.  A leader is the least member of its own line, so
R0's leaders are the y in N(R0) - R0 with LEAST[y] = y whose coset R0 y has
least LEAST y.  For R0 = <s, x> a sub-coset prunes first: <s> y lies in
R0 y and holds y, so if some element of <s> y has LEAST below y, so does
R0 y, and y is not its own leader.  The full coset is built only for the
y that pass the p-element test (at p=5, leader cosets of 776,356 codes per
scan instead of 1,855,681).  Each parent R = g R0 g^-1 of the class gets one
(parent, extension) entry R<g y g^-1> per leader y of R0.  A layer's
entries are flattened and go in blocks of a fixed number of coset codes:
each entry builds its coset R y' and reads its leader off it, the
canonical test below runs on the leaders, and only the kept children get
their other p - 2 cosets and are sorted.  The built counts are the named
entries, 50,586 + 28,361 per p=5 ambient, of which only 8,431 + 2,931 are
built in full.

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
  layer 2 is in order of (a(Q), b(Q)) and Q has generators (a(Q), b(Q)).
  The test reads a(R) and b(R) off the parent's generators.

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

One ambient decides the rest.  A Sylow p-subgroup of GL2(F_p) has order p
and is generated by a unipotent u != 1.  As u - 1 is nilpotent of rank 1,
u fixes one line L of F_p^2 and (u - 1) maps F_p^2 into L, so the Sylow
is the group of order p of the matrices that fix L pointwise and act
trivially on F_p^2 / L: a Sylow is determined by the line it fixes, and
distinct Sylows fix distinct lines.  Ambient 0 is the families' standard
one (every family representative lies in it), A_0 = Inn(M1) x| U with U
the lower unipotents (1 0; x 1), which fix the line <e2>.  Each beta_i,
i = 1..p, has inner part 0 and matrix part (1 k; 0 1) for k = 1..p-1, or
(0 1; 1 0); beta_i U beta_i^-1 fixes the line beta_i <e2>, which is
<(k, 1)> or <(1, 0)>.  With <e2> these are the p + 1 lines of F_p^2, so
A_0 and the A_i = beta_i A_0 beta_i^-1 (Inn(M1) is normal, so A_i is the
preimage of beta_i U beta_i^-1) are the p + 1 Sylow subgroups of Aut(M1),
each once.  Conjugation by (1, beta_i) is an automorphism of Hol(M1) that
sends ambient 0 onto ambient i, with

  (1, beta) (n, a) (1, beta)^-1 = (beta(n), beta a beta^-1),

so it carries ambient 0's regular subgroups exactly onto ambient i's and
keeps their type and theta order.  Only ambient 0 is scanned.  Two
ambients meet in M1 x| Inn(M1), since A_0 and A_i (i > 0) meet in Inn(M1).
So a regular row whose automorphism parts are all inner (identity matrix
part) lies in every ambient and is kept once; every other row of ambient
0 lies in no other ambient, and its p copies (`tables.row_conjugator`) lie
one in each ambient i > 0.  The p + 1 blocks are disjoint, and that
`tables.distinct_rows` drops no row is asserted: a conjugator that
repeated an ambient would make it fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .group_core import GroupType, validate_prime
from .tables import aut_subgroup, aut_table, class_labels, distinct_rows, greedy_generators, m1_table
from .tables import regular_row_mask, row_conjugator

__all__ = [
    "AmbientScan",
    "OracleResult",
    "enumerate_regular_subgroups",
]

DEFAULT_ORACLE_BUDGET = 5

# Coset codes (entries x parent order) in one block of the layer step.
# Raising it trades peak memory for per-block overhead.  On a 2-vCPU VM,
# with the centre-reduced normalizer, 2^14 instead of 2^12 took the median
# p=5 ambient-0 scan from 105-113 to 91-92 ms (15 scans, two runs each) but
# raised the oracle-ambient-p5 peak RSS from 44.4 to 45.3 MB (ten runs
# each; the layer-2 step's `mul` temporaries), and the p=7 ambient-0 peak
# from 128 to 130 MB (ru_maxrss), so 2^12 is kept.
_LAYER_BLOCK = 1 << 12


@dataclass(frozen=True, eq=False)
class OracleResult:
    """The regular subgroups of all p + 1 Sylow ambients.

    codes holds one regular subgroup per row, as its sorted global holomorph
    codes, distinct and in lexicographic order (module docstring); theta
    and types give each row's theta order and GroupType value.  The arrays
    are read-only, since the result is memoized and shared.
    per_ambient_regular holds ambient 0's count once per ambient.
    """

    p: int
    codes: np.ndarray
    theta: np.ndarray
    types: np.ndarray
    per_ambient_regular: tuple[int, ...]

    def count_by_type(self) -> dict[str, int]:
        return {tag: sum(by.values()) for tag, by in self.count_by_type_and_theta().items()}

    def count_by_type_and_theta(self) -> dict[str, dict[int, int]]:
        out: dict[str, dict[int, int]] = {}
        # sort-path forms: a plain np.unique imports numpy.ma on first use
        tags, at = np.unique(self.types, return_inverse=True)
        for i, tag in enumerate(tags):
            thetas, counts = np.unique(self.theta[at == i], return_counts=True)
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
        for table in (self.aut_global, self.LOC_APPLY, self.LOC_COMP, self.AUT_CONJ, self.MUL_BY,
                      self.INV_IMAGE, self.MUL_FLAT, self.POW, self.LEAST):
            table.flags.writeable = False  # the tables are shared by every layer
        self.built_p2 = self.built_p3 = 0
        self.swept_p2 = self.swept_p3 = 0
        self.walked_p2 = self.walked_p3 = 0

    # -- local group law ----------------------------------------------------

    def mul(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        # (n1, a1)(n2, a2) = (n1 a1(n2), a1 a2), each table read by a flat
        # take, which is faster than a 2-D fancy gather
        n1, a1 = np.divmod(np.asarray(c1), self.AL)
        n2, a2 = np.divmod(np.asarray(c2), self.AL)
        image = self.LOC_APPLY.take(a1 * self.p**3 + n2)
        out = self.MUL_FLAT.take(n1 * self.p**3 + image)
        out += self.LOC_COMP.take(a1 * self.AL + a2)
        return out

    def conj(self, g: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Codes of g c g^-1, elementwise; g^-1 = g^(p-1) since the ambient
        has exponent p."""
        return self.mul(self.mul(g, c), self.POW[self.p - 1, g])

    def to_global(self, rows) -> np.ndarray:
        """Global codes of a block of sorted regular rows of local codes:
        their conjugates by the identity (`tables.row_conjugator`)."""
        return row_conjugator(self.p, aut_table(self.p).identity, self.aut_global)(np.asarray(rows) % self.AL)

    def conj_all(self, g: int, bs: np.ndarray | None = None, parts: int | None = None) -> np.ndarray:
        """Codes of y g y^-1 for every y = (m, b), b in bs (default: all of A)
        and m an M1 code below parts (default: all p**3), by three gathers
        (module docstring).  Entry [m, j] is for y = (m, bs[j]); with bs
        ascending, the flattened array is in y-code order.
        """
        n, a = divmod(int(g), self.AL)
        if bs is None:
            bs = np.arange(self.AL, dtype=np.int64)
        if parts is None:
            parts = self.p**3
        c = self.AUT_CONJ[bs, a]
        idx = self.MUL_BY[self.LOC_APPLY[bs, n], :parts]
        idx += self.INV_IMAGE[c, :parts]
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
        """A small generating set of the ambient, chosen greedily
        (`tables.greedy_generators`)."""
        return greedy_generators(self.size, self.id_code, self.mul)

    @cached_property
    def _conj_by_generators(self) -> np.ndarray:
        """Row k holds the codes of z c z^-1 for every c, z = generators[k];
        built once per scan, read-only, shared by every layer's class pass."""
        everyone = np.arange(self.size, dtype=np.int64)
        out = np.stack([self.conj(z, everyone) for z in self.generators])
        out.flags.writeable = False
        return out

    def _lines(self, gens: np.ndarray) -> np.ndarray:
        """One member of each line of every parent <gens[i]>, row by row.
        The parents are all trivial (no lines), all lines <s> (s itself) or
        all of order p**2, hence C_p x C_p, whose p + 1 lines are <s> and
        the <s^i x>, i = 0..p-1 (s, x, s x, ..., s^(p-1) x)."""
        if gens.shape[1] < 2:
            return gens
        s, x = gens.T
        return np.column_stack([s, self.mul(self.POW[:, s].T, x[:, None])])

    def _line_keys(self, lines: np.ndarray) -> np.ndarray:
        """The key of each subgroup given by its lines (see _lines): its
        least line minimum a, then for order p**2 the next one b, as
        a * size + b.  A line <s> has key LEAST[s]; an order-p**2 group Q
        has key (a(Q), b(Q)), and Q = <a(Q), b(Q)>, so keys are distinct."""
        least = np.sort(self.LEAST[lines], axis=1)[:, :2]
        key = np.zeros(len(lines), dtype=np.int64)
        for column in least.T:
            key = key * self.size + column
        return key

    def _classes(self, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rep, g) with parent i = g[i] (parent rep[i]) g[i]^-1 for a layer
        of parents given by their lines (see _lines) and listed in ascending
        key order; rep[i] is the first parent of the conjugacy class of i.

        A failed lookup of a conjugate's key is an AssertionError: the layer
        holds every subgroup of its order (module docstring).
        """
        n = len(lines)
        keys = self._line_keys(lines)
        steps = []  # steps[k][i]: the index of z_k (parent i) z_k^-1
        for conj in self._conj_by_generators:
            want = self._line_keys(conj[lines])
            at = np.minimum(np.searchsorted(keys, want), n - 1)
            if not np.array_equal(keys[at], want):
                raise AssertionError("layer is not closed under conjugation")
            steps.append(at)
        g = np.full(n, self.id_code, dtype=np.int64)

        def carry(k, u, v):
            g[v] = self.mul(self.generators[k], g[u])

        return class_labels(n, steps, carry), g

    def _normalizer(self, row: np.ndarray, gens: np.ndarray) -> np.ndarray:
        """Ascending codes of the normalizer of the subgroup row = <gens>:
        the y that conjugate every generator into it, b prefiltered, swept
        over the M1 parts s^b t^c only and spread over the centre (module
        docstring)."""
        in_proj = np.zeros(self.AL, dtype=bool)
        in_proj[row % self.AL] = True
        keep = np.ones(self.AL, dtype=bool)
        for g in gens:
            keep &= in_proj[self.AUT_CONJ[:, g % self.AL]]
        bs = np.flatnonzero(keep)
        in_row = np.zeros(self.size, dtype=bool)
        in_row[row] = True
        parts = self.p**2  # codes b p + c of s^b t^c
        normal = np.ones((parts, len(bs)), dtype=bool)
        for g in gens:
            normal &= in_row[self.conj_all(g, bs, parts)]
        base = (np.arange(parts)[:, None] * self.AL + bs)[normal]
        # (r^k, 1) y has code k p**2 |A| + code(y): ascending block by block
        return (np.arange(self.p)[:, None] * (parts * self.AL) + base).ravel()

    def _coset_leaders(self, rows: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(leaders, cosets): for each E = <R, y[j]>, R = rows[j] (or one
        row for all), the leader min(E - R), read as the least LEAST over
        the coset R y[j], and that coset.  Every line of E outside R meets
        R y[j] in one element (module docstring)."""
        coset = self.mul(rows, y[:, None])
        return self.LEAST[coset].min(axis=1), coset

    def _leaders(self, row: np.ndarray, gens: np.ndarray, normalizer: np.ndarray) -> np.ndarray:
        """Ascending leaders min(E - R) of the extensions E = <R, y> of the
        subgroup R = row = <gens>, sorted, y in R's ascending normalizer: the
        y in N - R with LEAST[y] = y and least LEAST over R y (module
        docstring).  For R = <s, x> the sub-coset <s> y is tried first.
        """
        y = normalizer[self.LEAST[normalizer] == normalizer]
        at = np.minimum(np.searchsorted(row, y), len(row) - 1)
        y = y[row[at] != y]
        if len(gens) == 2:  # a smaller LEAST on <s> y lies on R y too
            y = y[self._coset_leaders(self.POW[:, gens[0]], y)[0] == y]
        return y[self._coset_leaders(row, y)[0] == y]

    def _class_extensions(
        self, rows: np.ndarray, gens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
        """(owner, y0, g, swept, walked): one entry per extension of every
        parent.  Parent R = rows[i] = <gens[i]> is g[i] R0 g[i]^-1 for the
        first parent R0 of its class, and entry k names the extension
        R<g y0 g^-1> of R = rows[owner[k]], g = g[owner[k]], for y0 = y0[k]
        a leader of R0; owner ascends.  Only R0 gets a normalizer sweep
        (swept counts them) and a leader pass (walked counts its leaders).
        """
        rep, g = self._classes(self._lines(gens))
        leads = {
            r: self._leaders(rows[r], gens[r], self._normalizer(rows[r], gens[r]))
            for r in np.flatnonzero(rep == np.arange(len(rep))).tolist()
        }
        per_parent = [leads[r] for r in rep.tolist()]
        owner = np.repeat(np.arange(len(rep)), [len(y) for y in per_parent])
        walked = sum(len(y) for y in leads.values())
        return owner, np.concatenate(per_parent), g, len(leads), walked

    def _canonical(self, gens: np.ndarray, leaders: np.ndarray) -> np.ndarray:
        """True where parent R = <gens[j]> is the canonical parent of its
        child E with leader leaders[j] = min(E - R) (module docstring); the
        parents all have one order, and gens[j] starts with a(R) and, at
        order p**2, b(R).
        """
        if gens.shape[1] == 0:  # an order-p group has one maximal subgroup
            return np.ones(len(leaders), dtype=bool)
        s = gens[:, 0]
        keep = s < leaders  # min(E - 1) lies in R
        if gens.shape[1] == 2:  # LEAST[s] = s, the least member of its line
            keep &= (gens[:, 1] < leaders) | (self.LEAST[self.conj(leaders, s)] != s)
        return keep

    def _next_layer(
        self, parents: list[tuple[np.ndarray, tuple[int, ...]]]
    ) -> tuple[list[tuple[np.ndarray, tuple[int, ...]]], int, int, int]:
        """(distinct <row, y> with generators gens + (y,), number built,
        number of direct normalizer sweeps, number of extensions walked)
        for the parents (sorted row, gens), y running over the row's
        normalizer, in order of (parent index, leader) (module docstring).
        The entries go in blocks of about _LAYER_BLOCK coset codes.
        """
        rows = np.array([row for row, _ in parents])
        gens = np.array([pg for _, pg in parents], dtype=np.int64)
        owner, y0, g, swept, walked = self._class_extensions(rows, gens)
        children: list[np.ndarray] = []
        ranks, layer_gens = [], []
        step = max(1, _LAYER_BLOCK // rows.shape[1])
        for start in range(0, len(owner), step):
            at = owner[start : start + step]
            y = self.conj(g[at], y0[start : start + step])
            leaders, coset = self._coset_leaders(rows[at], y)
            keep = np.flatnonzero(self._canonical(gens[at], leaders))
            at, y, leaders, parent = at[keep], y[keep], leaders[keep], rows[at[keep]]
            rest = self.mul(parent[:, None, :], self.POW[2:, y].T[:, :, None])  # R y^k, k >= 2
            rest = rest.reshape(len(y), (self.p - 2) * rows.shape[1])
            kept = np.concatenate([parent, coset[keep], rest], axis=1)
            kept.sort(axis=1)
            kept.flags.writeable = False
            children.extend(kept)  # row views: the kept blocks are the layer
            ranks.append(at * self.size + leaders)
            layer_gens.extend(parents[i][1] + (v,) for i, v in zip(at.tolist(), leaders.tolist()))
        order = np.argsort(np.concatenate(ranks)).tolist()
        layer = [(children[k], layer_gens[k]) for k in order]
        return layer, len(owner), swept, walked

    # -- classification -------------------------------------------------------

    def is_regular(self, row: np.ndarray) -> bool:
        """A sorted regular row has n-part j at position j."""
        return bool(regular_row_mask(self.p, row, self.AL))


def _standard_ambient(p: int) -> np.ndarray:
    """Ascending Aut(M1) indices of A_0 = Inn(M1) x| U, U the lower
    unipotent matrices (1 0; x 1): the Sylow subgroup that holds every
    family representative's automorphism parts."""
    t1, t2, x = np.indices((p, p, p), dtype=np.int64).reshape(3, -1)
    return aut_table(p).index(t1, t2, 1, 0, x, 1)


def _ambient_conjugators(p: int) -> np.ndarray:
    """Aut(M1) indices of beta_1..beta_p: inner part 0 and matrix part
    (1 k; 0 1) for k = 1..p-1, then (0 1; 1 0).  The beta_i A_0 beta_i^-1
    are the other p Sylow subgroups (module docstring)."""
    mats = np.array([(1, k, 0, 1) for k in range(1, p)] + [(0, 1, 1, 0)]).T
    return aut_table(p).index(0, 0, *mats)


def enumerate_regular_subgroups(p: int, budget: int = DEFAULT_ORACLE_BUDGET) -> OracleResult:
    """The regular subgroups of every Sylow ambient (_scan, memoized per
    prime).  Refuses p above the budget."""
    validate_prime(p)
    if p > budget:
        raise ValueError(f"oracle budget is p <= {budget}; pass a larger budget to override")
    return _scan(p)


@lru_cache(maxsize=4)
def _scan(p: int) -> OracleResult:
    """Scan Sylow ambient 0, conjugate its regular rows onto the other p
    ambients (module docstring) and merge."""
    betas = _ambient_conjugators(p)  # the union below has one block per conjugator
    if len(betas) != p or len(set(betas.tolist())) != p:
        raise AssertionError(f"expected p = {p} ambient conjugators, got {betas.tolist()}")
    aut = aut_table(p)
    scan = AmbientScan(p, _standard_ambient(p))
    layer3 = scan.order_p3_subgroups(scan.order_p2_subgroups(scan.order_p_subgroups()))
    rows = np.array([row for row, _ in layer3])  # local codes
    # is_regular on every row at once, then theta orders and types
    regular = regular_row_mask(p, rows, scan.AL)
    rows, gens = rows[regular], np.array([gens for _, gens in layer3])[regular]
    del layer3
    pos = rows % scan.AL  # n-part j in column j
    theta = 1 + np.count_nonzero(np.diff(np.sort(pos, axis=1), axis=1), axis=1)
    # the ambient has exponent p (asserted), so abelianness decides the type
    products = scan.mul(gens[:, :, None], gens[:, None, :])  # [r, i, j] = g_i g_j
    abelian = np.all(products == products.transpose(0, 2, 1), axis=(1, 2))
    types = np.where(abelian, GroupType.ElemAbelian_p3.value, GroupType.HeisenbergM1.value)
    # rows with an automorphism part outside Inn(M1) go to ambients 1..p
    outer = np.any(scan.aut_global[pos] % aut.n_gl != aut.identity, axis=1)
    moved = pos[outer]
    union = np.empty((len(rows) + p * len(moved), p**3), dtype=np.int64)
    union[: len(rows)] = scan.to_global(rows)
    for k, beta in enumerate(betas):
        union[len(rows) + k * len(moved) :][: len(moved)] = row_conjugator(p, beta, scan.aut_global)(moved)
    per_ambient = (len(rows),) * (p + 1)  # conjugation carries ambient 0 onto each
    del rows, pos, moved, gens, products
    codes, first = distinct_rows(union)  # the blocks are disjoint: this sorts them
    if len(first) != len(union):
        raise AssertionError("two ambients share a regular subgroup outside Inn(M1)")
    del union
    theta = np.concatenate([theta, np.tile(theta[outer], p)])[first]
    types = np.concatenate([types, np.tile(types[outer], p)])[first]
    for arr in (theta, types):
        arr.flags.writeable = False
    return OracleResult(p, codes, theta, types, per_ambient)
