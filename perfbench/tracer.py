"""In-memory span tracer that wraps the public calls of each sbc layer.

A span is (name, start, end, parent, n): `parent` is the index of the span
that was open when this one started, and `n` is an optional count taken from
the call's arguments or result (elements decoded, pairs checked, ...).  Spans
stay in memory and are written out once, after the traced work.

`install` replaces each wrapped function everywhere it is bound: in the
module that defines it and in every sbc module that imported it by name
(`sbc.cli` and `sbc.classify` bind `verify_braid`, `brace_from_subgroup`,
`all_representatives` and others directly).  Methods are wrapped on their
class.  The scalar modules (group_core, automorphisms, holomorph) are not
wrapped: they take hundreds of thousands of calls per run, so their cost
shows as self time of the layer that calls them and their volume as
`tables.decoded_elements`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def _length(args, result):
    return len(result)


def _materialized(args, result):
    return len(args[1])  # HolCodec.materialize(self, codes, ...)


def _triples(args, result):
    return args[0].order ** 3  # verify_braid(brace)


def _returned(args, result):
    return int(result)


# (module, function or Class.method, count hook).  The span name is
# "<layer>.<function or method>", the layer being the module's last part.
WRAPPED = [
    ("sbc.families", "all_representatives", _length),
    ("sbc.families", "families_theta_p", None),
    ("sbc.families", "families_theta_p2", None),
    ("sbc.families", "families_theta_p3", None),
    ("sbc.families", "trivial_subgroup", None),
    ("sbc.families", "smallest_nonresidue", None),
    ("sbc.tables", "HolCodec.materialize", _materialized),
    ("sbc.tables", "HolCodec.subgroup_codes", None),
    ("sbc.tables", "HolCodec.stabilizer", None),
    ("sbc.tables", "HolCodec.orbit", None),
    ("sbc.tables", "HolCodec.conj_matrix", None),
    ("sbc.tables", "HolCodec.one_element_image", None),
    ("sbc.tables", "HolCodec.transporter_exists", None),
    ("sbc.subgroups", "subgroup_from_cosets", None),
    ("sbc.subgroups", "generate", None),
    ("sbc.subgroups", "is_regular", None),
    ("sbc.subgroups", "isomorphism_type", None),
    ("sbc.subgroups", "conjugate_subgroup", None),
    ("sbc.skewbrace", "brace_from_subgroup", None),
    ("sbc.skewbrace", "brace_from_codes", None),
    ("sbc.skewbrace", "verify_brace_axiom", None),
    ("sbc.skewbrace", "lambda_matches_automorphism_action", None),
    ("sbc.skewbrace", "socle_indices", None),
    ("sbc.skewbrace", "annihilator_indices", None),
    ("sbc.skewbrace", "verify_ideal", None),
    ("sbc.skewbrace", "verify_braid", _triples),
    ("sbc.skewbrace", "verify_nondegenerate", None),
    ("sbc.skewbrace", "is_involutive", None),
    ("sbc.classify", "classification_records", None),
    ("sbc.classify", "stabilizer_indices", None),
    ("sbc.classify", "count_report", None),
    ("sbc.classify", "closed_form_count_report", None),
    ("sbc.classify", "crosscheck_count_report", None),
    ("sbc.classify", "expected_stabilizer_order", None),
    ("sbc.classify", "record_to_dict", None),
    ("sbc.classify", "verify_pairwise_nonconjugate", _returned),
    ("sbc.classify", "orbit_union_keys", None),
    ("sbc.oracle", "enumerate_regular_subgroups", None),
    ("sbc.oracle", "AmbientScan.order_p_subgroups", _length),
    ("sbc.oracle", "AmbientScan.order_p2_subgroups", _length),
    ("sbc.oracle", "AmbientScan.order_p3_subgroups", _length),
    ("sbc.oracle", "AmbientScan.is_regular", _returned),
    ("sbc.cli", "main", None),
]

# Per-layer time metric -> the span names whose self time it sums.
SELF_TIME_METRICS = {
    "families.build_s": [
        "families.all_representatives",
        "families.families_theta_p",
        "families.families_theta_p2",
        "families.families_theta_p3",
        "families.trivial_subgroup",
        "families.smallest_nonresidue",
    ],
    "tables.materialize_s": ["tables.HolCodec.materialize"],
    "subgroups.from_cosets_s": ["subgroups.subgroup_from_cosets"],
    "tables.stabilizer_s": ["tables.HolCodec.stabilizer"],
    "classify.records_s": ["classify.classification_records", "classify.stabilizer_indices"],
    "tables.transporter_s": [
        "tables.HolCodec.transporter_exists",
        "tables.HolCodec.one_element_image",
    ],
    "classify.nonconj_s": ["classify.verify_pairwise_nonconjugate"],
    "skewbrace.build_s": ["skewbrace.brace_from_subgroup", "skewbrace.brace_from_codes"],
    "skewbrace.axiom_s": [
        "skewbrace.verify_brace_axiom",
        "skewbrace.lambda_matches_automorphism_action",
    ],
    "skewbrace.socle_s": ["skewbrace.socle_indices", "skewbrace.annihilator_indices"],
    "skewbrace.braid_s": [
        "skewbrace.verify_braid",
        "skewbrace.verify_nondegenerate",
        "skewbrace.is_involutive",
    ],
    "cli.self_s": ["cli.main"],
    "oracle.layer1_s": ["oracle.AmbientScan.order_p_subgroups"],
    "oracle.layer2_s": ["oracle.AmbientScan.order_p2_subgroups"],
    "oracle.layer3_s": ["oracle.AmbientScan.order_p3_subgroups", "oracle.AmbientScan.is_regular"],
}


class Tracer:
    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent, n]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[4] = count(args, result)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every entry of WRAPPED; imports the sbc modules it names."""
        for module_name, attr, count in WRAPPED:
            module = importlib.import_module(module_name)
            layer = module_name.rsplit(".", 1)[1]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                setattr(owner, method, self.wrap(f"{layer}.{attr}", original, count))
                continue
            original = getattr(module, attr)
            traced = self.wrap(f"{layer}.{attr}", original, count)
            for name, loaded in list(sys.modules.items()):
                if name != "sbc" and not name.startswith("sbc."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, traced)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, n) in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": parent,
                }
                if n is not None:
                    row["n"] = n
                fh.write(json.dumps(row) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _descendants(spans, root: int) -> set[int]:
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return inside


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics (without trace.overhead_s) from one traced run.

    A layer the run never entered reports 0 for its times and counts.
    """
    own = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counted: dict[str, int] = {}
    for (name, _, _, _, n), t in zip(spans, own):
        by_name[name] = by_name.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        if n is not None:
            counted[name] = counted.get(name, 0) + n
    out = {
        metric: sum(by_name.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }

    # The first representative-list build is the cold one; later calls hit
    # the family caches and rebuild only the trivial subgroup.
    first = next((i for i, s in enumerate(spans) if s[0] == "families.all_representatives"), None)
    built = 0
    if first is not None:
        built = sum(
            1 for i in _descendants(spans, first) if spans[i][0] == "subgroups.subgroup_from_cosets"
        )
    out["families.subgroups_built"] = built
    out["families.useful_ratio"] = spans[first][4] / built if built else 0.0
    out["tables.decoded_elements"] = counted.get("tables.HolCodec.materialize", 0)
    out["tables.stabilizer_calls"] = calls.get("tables.HolCodec.stabilizer", 0)
    out["classify.pairs_checked"] = counted.get("classify.verify_pairwise_nonconjugate", 0)

    braid_s = by_name.get("skewbrace.verify_braid", 0.0)
    triples = counted.get("skewbrace.verify_braid", 0)
    out["skewbrace.braid_triples_per_s"] = triples / braid_s if braid_s else 0.0

    p3 = counted.get("oracle.AmbientScan.order_p3_subgroups", 0)
    regular = counted.get("oracle.AmbientScan.is_regular", 0)
    out["oracle.subgroups_p2"] = counted.get("oracle.AmbientScan.order_p2_subgroups", 0)
    out["oracle.subgroups_p3"] = p3
    out["oracle.regular_found"] = regular
    out["oracle.regular_ratio"] = regular / p3 if p3 else 0.0
    return out
