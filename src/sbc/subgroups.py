"""Subgroups of the holomorph: closure, regularity, isomorphism type.

A subgroup is stored as its full element set plus the generators it was built
from.  Equality and hashing go through the canonical key (the sorted tuple of
element coordinate vectors), so two subgroups with different generating sets
compare equal exactly when they have the same elements.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .automorphisms import AutM1Elt
from .holomorph import HolElt, conj_by_aut, hol_identity, hol_mul

__all__ = [
    "GroupType",
    "SubgroupHol",
    "canonical_key",
    "conjugate_subgroup",
    "generate",
    "hol_elt_coords",
    "is_regular",
    "isomorphism_type",
    "subgroup_from_cosets",
    "subgroup_to_json",
]


class GroupType(enum.Enum):
    """Isomorphism types of groups of order p**3."""

    ElemAbelian_p3 = "ElemAbelian_p3"
    CyclicP3 = "CyclicP3"
    Cp2xCp = "Cp2xCp"
    HeisenbergM1 = "HeisenbergM1"
    ExtraspecialM2 = "ExtraspecialM2"


def hol_elt_coords(g: HolElt) -> tuple[int, int, int, int, int, int, int, int, int]:
    """Flat coordinate vector used for canonical ordering."""
    a = g.alpha
    return (g.n.a, g.n.b, g.n.c, a.b1, a.b2, a.A.a1, a.A.a2, a.A.a3, a.A.a4)


@dataclass(frozen=True, eq=False)
class SubgroupHol:
    """A finite subgroup of Hol(M1) with a canonical element ordering."""

    p: int
    generators: tuple[HolElt, ...]
    elements: tuple[HolElt, ...] = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "elements", tuple(sorted(self.elements, key=hol_elt_coords))
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    def key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(hol_elt_coords(g) for g in self.elements)

    def key_digest(self) -> str:
        h = hashlib.sha256()
        for row in self.key():
            h.update(bytes(row))
        return h.hexdigest()[:16]

    def __contains__(self, g: HolElt) -> bool:
        return g in set(self.elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubgroupHol):
            return NotImplemented
        return self.p == other.p and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.p, self.key()))


def generate(
    generators: Sequence[HolElt], cap: int | None = None
) -> SubgroupHol:
    """Close the generators under multiplication (breadth-first).

    Raises ValueError if the closure exceeds the cap (default p**6, the size
    of the relevant ambient); that guards against runaway input.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    p = gens[0].p
    if any(g.p != p for g in gens):
        raise ValueError("mixed primes among generators")
    if cap is None:
        cap = p**6
    e = hol_identity(p)
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = hol_mul(g, h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > cap:
                        raise ValueError(f"closure exceeded cap {cap}")
        frontier = nxt
    return SubgroupHol(p, gens, tuple(seen))


def subgroup_from_cosets(
    generators: Sequence[HolElt], elements: Iterable[HolElt]
) -> SubgroupHol:
    """Package a precomputed element set (no closure run).  Callers promise
    closure; the cheap sanity checks here catch size and identity slips."""
    gens = tuple(generators)
    p = gens[0].p
    els = tuple(elements)
    if hol_identity(p) not in els:
        raise ValueError("element set misses the identity")
    if len(set(els)) != len(els):
        raise ValueError("duplicate elements")
    return SubgroupHol(p, gens, els)


def is_regular(sub: SubgroupHol) -> bool:
    """Free and transitive on M1, i.e. order p**3 and trivial point stabilizer.

    Since (n, alpha) . 1 = n, the orbit of the identity has full size exactly
    when the n-parts are pairwise distinct.
    """
    p = sub.p
    if sub.order != p**3:
        return False
    return len({g.n for g in sub.elements}) == p**3


def _element_order(g: HolElt, cap: int) -> int:
    acc = g
    n = 1
    e = hol_identity(g.p)
    while acc != e:
        acc = hol_mul(acc, g)
        n += 1
        if n > cap:
            raise AssertionError("order exceeds cap")
    return n


def isomorphism_type(sub: SubgroupHol) -> GroupType:
    """Classify a subgroup of order p**3 by abelianness and exponent.

    Both are read off sub.generators.  A group of order p**3 has class at
    most 2 < p for odd p, so it is a regular p-group: its elements of order
    dividing p**k form a subgroup.  That subgroup contains the generators of
    the largest order, hence the whole group, so the exponent is the largest
    generator order.
    """
    p = sub.p
    if sub.order != p**3:
        raise ValueError(f"not of order p**3: {sub.order}")
    abelian = True
    gens = sub.generators
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if hol_mul(g, h) != hol_mul(h, g):
                abelian = False
                break
        if not abelian:
            break
    exponent = max(_element_order(g, p**3) for g in gens)
    if abelian:
        if exponent == p:
            return GroupType.ElemAbelian_p3
        if exponent == p * p:
            return GroupType.Cp2xCp
        return GroupType.CyclicP3
    if exponent == p:
        return GroupType.HeisenbergM1
    return GroupType.ExtraspecialM2


def conjugate_subgroup(alpha: AutM1Elt, sub: SubgroupHol) -> SubgroupHol:
    """The image of sub under conjugation by (1, alpha); no closure needed."""
    gens = tuple(conj_by_aut(alpha, g) for g in sub.generators)
    els = tuple(conj_by_aut(alpha, g) for g in sub.elements)
    return SubgroupHol(sub.p, gens, els)


def canonical_key(sub: SubgroupHol) -> tuple[tuple[int, ...], ...]:
    return sub.key()


def subgroup_to_json(sub: SubgroupHol) -> dict:
    from .holomorph import hol_to_json

    return {
        "generators": [hol_to_json(g) for g in sub.generators],
        "order": sub.order,
        "type": isomorphism_type(sub).value if sub.order == sub.p**3 else None,
        "key": sub.key_digest(),
    }
