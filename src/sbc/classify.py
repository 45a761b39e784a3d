"""Conjugacy classification of the regular subgroups and the derived counts.

Two regular subgroups of Hol(M1) give isomorphic skew braces exactly when an
automorphism of M1, acting as (n, alpha) -> (g(n), g alpha g^-1), carries one
onto the other.  The classification therefore reports, per representative:
the stabilizer order inside Aut(M1) (the automorphism group of the brace),
the orbit size through the orbit-stabilizer identity, and the socle and
annihilator orders of the carried brace.  Those two orders are read off the
regular rows themselves (`skewbrace.socle_and_annihilator_masks`), with no
brace built: lambda_a is the automorphism part alpha_a of a, so the socle
is the elements with alpha_a = id and a central n-part, and the annihilator
is the socle elements fixed by alpha_g for every generator g.

Counting Hopf-Galois structures: a regular subgroup of Hol(N) isomorphic to
G corresponds to one Hopf-Galois structure of type N on a Galois extension
with group G, after scaling subgroup counts by |Aut(G)| / |Aut(N)|.  For
G elementary abelian of rank 3 that ratio is |GL3(F_p)| / |Aut(M1)| = p^3 - 1.

Checking the oracle: orbits_match decides whether a set of rows is the
disjoint union of the representative orbits from one conjugation per row
and generator of Aut(M1) (`tables.aut_generators`, `tables.row_conjugator`)
and the label pass `tables.class_labels` that the oracle's layer step runs
too.  orbit_union_keys lists the orbits by coset transversals, the slow
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .families import Representative, all_representatives, representative
from .group_core import GroupType, aut_order_total, validate_prime
from .skewbrace import socle_and_annihilator_masks
# perfbench/selfcheck.py checks that tracing patches this imported binding
from .skewbrace import brace_from_subgroup  # noqa: F401
from .tables import aut_generators, class_labels, distinct_rows, hol_codec, row_conjugator, row_lookup
from .tables import regular_row_mask

__all__ = [
    "ClassificationRecord",
    "CountReport",
    "classification_records",
    "closed_form_count_report",
    "count_report",
    "crosscheck_count_report",
    "expected_stabilizer_order",
    "gl3_order",
    "orbit_union_keys",
    "orbits_match",
    "record_to_dict",
    "stabilizer_indices",
    "verify_pairwise_nonconjugate",
]

MUL_TAG = GroupType.HeisenbergM1.value
AB_TAG = GroupType.ElemAbelian_p3.value


@dataclass(frozen=True)
class ClassificationRecord:
    rep_id: str
    p: int
    theta_order: int
    structure: str
    autbr_order: int
    orbit_size: int
    socle_order: int
    ann_order: int


_RECORD_FIELDS = tuple(f.name for f in fields(ClassificationRecord))


def record_to_dict(rec: ClassificationRecord) -> dict:
    """The record's fields in declaration order; every field is flat."""
    return {name: getattr(rec, name) for name in _RECORD_FIELDS}


def stabilizer_indices(rep: Representative) -> np.ndarray:
    return hol_codec(rep.p).stabilizer(rep.codes, rep.gen_codes)


# The generator walk sweeps max(1, _SWEEP_BLOCK // |Aut(M1)|) consecutive
# representatives at a time: 5 at p = 5, and one from p = 7 on, where one row
# alone is larger.  Raising it raises the classification's peak memory.
_SWEEP_BLOCK = 1 << 16


@lru_cache(maxsize=4)
def _generator_factors(p: int) -> tuple:
    """The sweep factors (`HolCodec.sweep_factors`) of the automorphism
    parts of every representative's generators, built once per prime for
    both walks: 11 parts at p = 5, 15 at p = 7, 23 at p = 11."""
    codec = hol_codec(p)
    return codec.sweep_factors(np.concatenate([rep.gen_codes for rep in all_representatives(p)]) % codec.N)


def _generator_rows(
    p: int, reps: Iterable[Representative]
) -> Iterator[tuple[Representative, list[np.ndarray]]]:
    """Yield (rep, rows) in the order of reps, rows[i] the conj_images row
    of rep.gen_codes[i] under every automorphism.

    Every row comes from the per-prime sweep factors (_generator_factors),
    so the reps must be among all_representatives(p) (ValueError for a
    generator part without a factor).  Consecutive representatives share
    generators (the central (r, 1) generates most of them), so the walk
    takes them in blocks of max(1, _SWEEP_BLOCK // N) and sweeps, in one
    call, only the block's codes that the last representative before it
    did not have.  A row is reused from anywhere in its block, and the last
    representative's rows carry over to the next block.  Each row is an
    array of its own, so a carried row holds no other row alive.
    """
    codec = hol_codec(p)
    reps = list(reps)
    factors = _generator_factors(p)
    size = max(1, _SWEEP_BLOCK // codec.N)
    carried: dict[int, np.ndarray] = {}
    for start in range(0, len(reps), size):
        block = reps[start : start + size]
        codes = dict.fromkeys(c for rep in block for c in rep.gen_codes.tolist())
        new = [c for c in codes if c not in carried]
        rows = dict(carried)
        if new:
            rows.update(zip(new, codec._conj_sweep(np.array(new, dtype=np.int64), factors)))
        for rep in block:
            yield rep, [rows[c] for c in rep.gen_codes.tolist()]
        carried = {c: rows[c] for c in block[-1].gen_codes.tolist()}


@lru_cache(maxsize=4)
def classification_records(p: int) -> tuple[ClassificationRecord, ...]:
    """One record per representative.  Every stabilizer comes from one walk
    that shares generator rows.  No brace is built: the socle is the
    elements a with automorphism part alpha_a = lambda_a = id and a central
    n-part, and the annihilator is the socle elements that every generator's
    automorphism part fixes (a socle element commutes with b under the
    subgroup law iff alpha_b fixes it, and the b that fix it form a
    subgroup), both read off the stacked regular rows in one pass."""
    validate_prime(p)
    total = aut_order_total(p)
    codec = hol_codec(p)
    reps = all_representatives(p)
    stabs = [
        len(codec.stabilizer(rep.codes, rep.gen_codes, images=rows))
        for rep, rows in _generator_rows(p, reps)
    ]
    socle, ann = socle_and_annihilator_masks(
        p, np.stack([rep.codes for rep in reps]), np.stack([rep.gen_codes for rep in reps])
    )
    out = []
    for rep, stab, socle_order, ann_order in zip(
        reps, stabs, socle.sum(axis=1).tolist(), ann.sum(axis=1).tolist()
    ):
        if total % stab:
            raise AssertionError("stabilizer order must divide the group order")
        out.append(
            ClassificationRecord(
                rep_id=rep.rep_id,
                p=p,
                theta_order=rep.theta_order,
                structure=rep.group_type.value,
                autbr_order=stab,
                orbit_size=total // stab,
                socle_order=socle_order,
                ann_order=ann_order,
            )
        )
    return tuple(out)


def expected_stabilizer_order(rep_id: str, p: int) -> int:
    """The closed-form stabilizer order of the representative rep_id
    (`Representative.autbr_order`); ValueError for an unknown id."""
    return representative(p, rep_id).autbr_order


# -- counting ----------------------------------------------------------------


def gl3_order(p: int) -> int:
    return (p**3 - 1) * (p**3 - p) * (p**3 - p**2)


@dataclass(frozen=True)
class CountReport:
    p: int
    regular_by_structure: dict
    hgs_by_structure: dict
    class_counts: dict
    total_regular: int
    hgs_totals: dict


def _report(p: int, regular: dict, classes: dict) -> CountReport:
    """The report from regular-subgroup counts by structure and theta order;
    only the abelian counts are scaled, by |GL3(F_p)| / |Aut(M1)|."""
    num, den = gl3_order(p), aut_order_total(p)
    if num % den:
        raise AssertionError("automorphism order ratio is not integral")
    hgs = {
        MUL_TAG: dict(regular[MUL_TAG]),
        AB_TAG: {t: n * (num // den) for t, n in regular[AB_TAG].items()},
    }
    return CountReport(
        p=p,
        regular_by_structure=regular,
        hgs_by_structure=hgs,
        class_counts=classes,
        total_regular=sum(n for by in regular.values() for n in by.values()),
        hgs_totals={tag: sum(by.values()) for tag, by in hgs.items()},
    )


def count_report(p: int) -> CountReport:
    """Counts assembled from the classified orbits."""
    regular: dict[str, dict[int, int]] = {MUL_TAG: {}, AB_TAG: {}}
    classes: dict[str, int] = {MUL_TAG: 0, AB_TAG: 0}
    for rec in classification_records(p):
        slot = regular[rec.structure]
        slot[rec.theta_order] = slot.get(rec.theta_order, 0) + rec.orbit_size
        classes[rec.structure] += 1
    return _report(p, regular, classes)


def closed_form_count_report(p: int) -> CountReport:
    """The same report from the closed-form polynomials."""
    validate_prime(p)
    regular = {
        MUL_TAG: {
            1: 1,
            p: (p**3 - p**2 - 1) * (p + 1),
            p**2: (p**4 - p**3 - 2 * p**2 + 2 * p + 1) * p,
            p**3: (p**2 - 1) * p**3,
        },
        AB_TAG: {
            p: (p + 1) * p**2,
            p**2: (p**2 - 2) * p**2,
        },
    }
    report = _report(p, regular, {MUL_TAG: 2 * p**2 - p + 3, AB_TAG: 2 * p + 1})
    if report.hgs_totals != {
        MUL_TAG: (2 * p**3 - 3 * p + 1) * p**2,
        AB_TAG: (p**3 - 1) * (p**2 + p - 1) * p**2,
    }:
        raise AssertionError("per-theta forms disagree with the totals")
    return report


def crosscheck_count_report(p: int) -> CountReport:
    """Orbit-derived counts must equal the closed forms; returns the report."""
    computed = count_report(p)
    closed = closed_form_count_report(p)
    if computed != closed:
        raise AssertionError(
            f"count mismatch at p={p}: computed {computed} vs closed {closed}"
        )
    return computed


# -- distinctness ------------------------------------------------------------


def verify_pairwise_nonconjugate(p: int) -> int:
    """No two representatives are conjugate; returns the pair count checked.

    Conjugate subgroups share theta order, structure, and stabilizer order,
    so only pairs agreeing on that invariant triple, a bucket, need a
    transporter search.  Each representative with an earlier member in its
    bucket is tested against those earlier members: a transporter B -> A
    exists exactly when one A -> B does.  Only these representatives are
    walked, sharing generator rows; a bucket's first member probes nothing.
    """
    codec = hol_codec(p)
    key = {
        rec.rep_id: (rec.theta_order, rec.structure, rec.autbr_order)
        for rec in classification_records(p)
    }
    buckets: dict[tuple, list[Representative]] = {}
    probes = []  # (representative, the earlier members of its bucket)
    for rep in all_representatives(p):
        members = buckets.setdefault(key[rep.rep_id], [])
        if members:
            probes.append((rep, tuple(members)))
        members.append(rep)
    pairs = 0
    walk = _generator_rows(p, [b for b, _ in probes])
    for (b, rows), (_, members) in zip(walk, probes):
        for a in members:
            pairs += 1
            if codec.transporter_exists(b.codes, b.gen_codes, a.codes, images=rows):
                raise AssertionError("representatives are conjugate")
    return pairs


def _coset_transversal(rep: Representative) -> np.ndarray:
    """The least automorphism of each left coset of rep's stabilizer, each
    found by a scan from the last: alpha S alpha^-1 depends only on the
    coset, and distinct cosets give distinct conjugates."""
    codec = hol_codec(rep.p)
    stab = stabilizer_indices(rep)
    transversal, alpha = [], 0
    uncovered = np.ones(codec.N + 1, dtype=bool)  # the last entry ends the scan
    while alpha < codec.N:
        transversal.append(alpha)
        uncovered[codec.aut.compose_idx(alpha, stab)] = False
        alpha += int(np.argmax(uncovered[alpha:]))
    if len(transversal) * len(stab) != codec.N:
        raise AssertionError("stabilizer cosets must partition Aut(M1)")
    return np.array(transversal, dtype=np.int64)


def orbit_union_keys(p: int) -> np.ndarray:
    """Every subgroup in every representative orbit: a read-only array of
    sorted code rows, distinct and in lexicographic order, the slow
    reference for orbits_match.  One conjugate per stabilizer coset, in
    chunks with 512 kB composition temporaries: the sum |orbit| rows are
    distinct exactly when no two representatives are conjugate."""
    codec, step, chunks = hol_codec(p), max(1, (1 << 16) // p**3), []
    for rep in all_representatives(p):
        alphas = _coset_transversal(rep)
        chunks += [codec.conj_matrix(rep.codes, alphas[i : i + step]) for i in range(0, len(alphas), step)]
    rows = np.concatenate(chunks)
    out = distinct_rows(rows)[0]
    if len(out) != len(rows):
        raise AssertionError("two representative orbits overlap")
    return out


def _orbit_classes(p: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(label, at): label[i] the least index in the Aut(M1)-orbit of row i
    of codes, at[r] the row of representative r or -1; None unless every
    row is regular and each generator z_k maps the rows into themselves.
    Blocks of 2^18 entries are conjugated and looked up: steps[k][i] is the
    index of z_k (row i) z_k^-1.  A lookup finds the first of equal rows, so
    a repeated row is no step's image and ends in a class of its own."""
    N, n, k = hol_codec(p).N, len(codes), p**3
    conjugators = [row_conjugator(p, z, np.arange(N)) for z in aut_generators(p).tolist()]
    find = row_lookup(codes)
    steps = [np.empty(n, dtype=np.int64) for _ in conjugators]
    size = max(1, (1 << 18) // k)
    for start in range(0, n, size):
        block = codes[start : start + size]
        if not regular_row_mask(p, block, N).all():
            return None
        for conjugate, step in zip(conjugators, steps):
            at, hit = find(conjugate(block % N))
            if not hit.all():
                return None
            step[start : start + size] = at
    at, hit = find(np.array([rep.codes for rep in all_representatives(p)]))
    return class_labels(n, steps), np.where(hit, at, -1)


def orbits_match(p: int, codes: np.ndarray) -> bool:
    """Are the subgroups in the representative orbits exactly the rows of
    codes, distinct sorted code rows (a repeat is one class too many)?
    True iff every row is regular, each generator z_k of Aut(M1) maps the
    rows into themselves, and (_orbit_classes) every representative row is
    found, in its own class, with as many classes as representatives.

    Proof.  On regular rows the steps are true conjugations, and
    conjugation by z_k maps the finite set X of rows injectively into
    itself, hence onto it, so X is closed under the group generated,
    Aut(M1): X is a union of orbits, and the label classes are these
    orbits.  Each representative lies in X, in its own class, and the
    classes number the representatives, so each orbit in X holds exactly
    one representative: X is the union of the representative orbits, and
    no two of them meet.  Conversely, when X is that disjoint union, its
    rows are conjugates of regular subgroups, hence regular rows, X is
    closed under conjugation, and its orbits are one per representative.
    """
    classes = _orbit_classes(p, codes)
    if classes is None:
        return False
    label, at = classes
    n_classes = np.count_nonzero(label == np.arange(len(label)))  # each class's least index
    return bool(np.all(at >= 0)) and len(set(label[at].tolist())) == len(at) == n_classes
