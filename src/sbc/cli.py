"""Command-line surface: classification, counting, oracle, and verification.

Subcommands
    classify  one record per representative plus the count report
    count     closed-form counts against the orbit-derived counts
    oracle    brute-force enumeration totals (budget-gated by prime)
    verify    the invariant suite as a pass/fail matrix
    brace     structure report for one representative id
    ybe       Yang-Baxter verification for one representative id

Reports are byte-identical for a fixed configuration: ordering is canonical
everywhere, there are no timestamps and nothing is randomized.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, an output path that cannot be written, or not enough memory for the
prime.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from functools import lru_cache

from .classify import (
    classification_records,
    closed_form_count_report,
    count_report,
    expected_stabilizer_order,
    orbits_match,
    record_to_dict,
    verify_pairwise_nonconjugate,
)
from .families import all_representatives, representative
from .group_core import validate_prime
from .oracle import DEFAULT_ORACLE_BUDGET, enumerate_regular_subgroups
from .skewbrace import (
    brace_from_codes,
    is_involutive,
    lambda_matches_automorphism_action,
    socle_indices,
    annihilator_indices,
    verify_brace_axiom,
    verify_braid,
    verify_nondegenerate,
    ybe_tables,
)
from .tables import hol_codec

__all__ = ["main"]

CSV_COLUMNS = ["id", "theta", "structure", "autbr_order", "orbit_size", "socle_order", "ann_order"]


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every request reuses it."""
    parser = argparse.ArgumentParser(
        prog="sbc",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ["classify", "count", "oracle", "verify", "brace", "ybe"]:
        cmd = sub.add_parser(name)
        cmd.add_argument("--prime", type=int, required=True)
        cmd.add_argument("--format", choices=["json", "csv", "table"], default="table")
        cmd.add_argument("--out", default=None)
        if name == "classify":
            cmd.add_argument("--theta", choices=["1", "p", "p2", "p3"], default=None)
        if name in ("oracle", "verify"):
            cmd.add_argument("--oracle-budget", type=int, default=DEFAULT_ORACLE_BUDGET)
        if name in ("brace", "ybe"):
            cmd.add_argument("--id", required=True, dest="rep_id")
        if name == "ybe":
            cmd.add_argument("--full-ybe", action="store_true")
    return parser


def _theta_value(p: int, theta: str | None) -> int | None:
    if theta is None:
        return None
    return {"1": 1, "p": p, "p2": p * p, "p3": p**3}[theta]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(rows: list[dict], columns: list[str]) -> str:
    cells = [[str(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) if cells else len(c) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _report_counts(report) -> dict:
    fields = ("regular_by_structure", "hgs_by_structure", "class_counts", "hgs_totals")
    return {name: getattr(report, name) for name in fields}


def _count_summary_lines(report) -> list[str]:
    lines = []
    for tag in sorted(report.regular_by_structure):
        by = report.regular_by_structure[tag]
        hgs = report.hgs_by_structure[tag]
        lines.append(f"structure {tag}: {report.class_counts[tag]} braces")
        for theta in sorted(by):
            lines.append(
                f"  theta={theta}: regular subgroups {by[theta]}, HGS count {hgs[theta]}"
            )
        lines.append(f"  HGS total {report.hgs_totals[tag]}")
    lines.append(f"regular subgroups total {report.total_regular}")
    return lines


def cmd_classify(args) -> int:
    p = args.prime
    records = classification_records(p)
    report = count_report(p)
    ok = report == closed_form_count_report(p) and all(
        rec.autbr_order == expected_stabilizer_order(rec.rep_id, p) for rec in records
    )
    theta = _theta_value(p, args.theta)
    shown = [rec for rec in records if theta in (None, rec.theta_order)]
    rows = [
        dict(zip(CSV_COLUMNS, (r.rep_id, r.theta_order, r.structure, r.autbr_order,
                               r.orbit_size, r.socle_order, r.ann_order)))
        for r in shown
    ]
    if args.format == "json":
        payload = {
            "p": p,
            "records": [record_to_dict(r) for r in shown],
            "counts": {**_report_counts(report), "total_regular": report.total_regular},
            "identities_hold": ok,
        }
        text = _json_text(payload)
    elif args.format == "csv":
        text = _csv_text(rows, CSV_COLUMNS)
    else:
        text = _table_text(rows, CSV_COLUMNS) + "\n" + "\n".join(_count_summary_lines(report)) + "\n"
    _emit(text, args.out)
    return 0 if ok else 1


def cmd_count(args) -> int:
    p = args.prime
    computed = count_report(p)
    closed = closed_form_count_report(p)
    ok = computed == closed
    if args.format == "json":
        payload = {
            "p": p,
            "computed": _report_counts(computed),
            "closed_form": _report_counts(closed),
            "match": ok,
        }
        text = _json_text(payload)
    elif args.format == "csv":
        rows = []
        for source, rep in (("computed", computed), ("closed_form", closed)):
            for tag in sorted(rep.regular_by_structure):
                for theta in sorted(rep.regular_by_structure[tag]):
                    rows.append(
                        {
                            "source": source,
                            "structure": tag,
                            "theta": theta,
                            "regular": rep.regular_by_structure[tag][theta],
                            "hgs": rep.hgs_by_structure[tag][theta],
                        }
                    )
        text = _csv_text(rows, ["source", "structure", "theta", "regular", "hgs"])
    else:
        lines = ["computed:"] + _count_summary_lines(computed)
        lines += ["closed form:"] + _count_summary_lines(closed)
        lines.append(f"match: {ok}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if ok else 1


def _write_dump(path: str, p: int, counts: dict, result) -> None:
    """_json_text of {"p", "counts", "subgroups": a dict per row}, written a
    subgroup at a time ("subgroups" sorts last).  Each subgroup's lines are
    the ones json.dumps(sort_keys=True, indent=2) gives the dict {"codes",
    "theta", "type"} at depth 2, formatted directly: one code per line."""
    head = _json_text({"p": p, "counts": counts})[: -len("\n}\n")]
    sep = ",\n        "
    with open(path, "w") as fh:
        fh.write(head + ',\n  "subgroups": [')
        for i, (row, tag, theta) in enumerate(zip(result.codes, result.types, result.theta)):
            fh.write(
                f'{"," if i else ""}\n    {{\n      "codes": [\n        {sep.join(map(str, row.tolist()))}'
                f'\n      ],\n      "theta": {int(theta)},\n      "type": {json.dumps(str(tag))}\n    }}'
            )
        fh.write("\n  ]\n}\n")


def cmd_oracle(args) -> int:
    p = args.prime
    result = enumerate_regular_subgroups(p, budget=args.oracle_budget)
    split = result.count_by_type_and_theta()
    by_type = {tag: sum(by.values()) for tag, by in split.items()}
    by_theta: Counter[int] = Counter()
    for by in split.values():
        by_theta.update(by)  # adds the counts
    total = len(result.codes)
    counts = {
        "by_type": {**by_type, "other": total - sum(by_type.values())},
        "by_theta": {str(t): n for t, n in sorted(by_theta.items())},
        "by_type_and_theta": {
            tag: {str(t): n for t, n in sorted(by.items())} for tag, by in sorted(split.items())
        },
        "per_ambient_regular": result.per_ambient_regular,
        "total": total,
    }
    if args.out:
        _write_dump(args.out, p, counts, result)
    if args.format == "csv":
        rows = [
            {"type": tag, "count": n} for tag, n in sorted(counts["by_type"].items())
        ]
        text = _csv_text(rows, ["type", "count"])
    elif args.format == "table":
        lines = [f"oracle p={p}: {counts['total']} regular subgroups"]
        for tag, n in sorted(counts["by_type"].items()):
            lines.append(f"  {tag}: {n}")
        for t, n in counts["by_theta"].items():
            lines.append(f"  theta={t}: {n}")
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text({"p": p, "counts": counts})
    sys.stdout.write(text)
    return 0


def _verify_checks(p: int, oracle_budget: int):
    """(name, callable) pairs; callables raise on failure."""

    def algebra_identities():
        import random

        from . import automorphisms as am
        from . import holomorph as hm
        from .group_core import M1Elt

        a2 = am.alpha2(p)
        a3 = am.alpha3(p)
        lhs = am.aut_compose(a3, a2)
        rhs = am.aut_compose(am.alpha1(p), am.aut_compose(a2, a3))
        if lhs != rhs:
            raise AssertionError("generator relation failed")
        rng = random.Random(7)
        for _ in range(200):
            x, y = _random_aut(rng, p), _random_aut(rng, p)
            if am.aut_compose_triangular(x, y) != am.aut_compose(x, y):
                raise AssertionError("composition routes disagree")
        for a in range(0, p, 2):
            for b in range(p):
                g = hm.HolElt(M1Elt(p, a, b, 1), am.sylow_aut_from_coords(p, b, 1, a))
                acc = hm.hol_identity(p)
                for r in range(p + 1):
                    if hm.hol_pow_closed(g, r) != acc:
                        raise AssertionError("closed power failed")
                    acc = hm.hol_mul(acc, g)

    def family_regularity():
        reps = all_representatives(p)
        if len(reps) != sum(closed_form_count_report(p).class_counts.values()):
            raise AssertionError("representative count off")
        codec = hol_codec(p)
        for rep in reps:
            if not codec.is_regular_row(rep.codes):
                raise AssertionError(f"{rep.rep_id} not regular")

    def non_conjugacy():
        verify_pairwise_nonconjugate(p)

    def stabilizer_shapes():
        for rec in classification_records(p):
            if rec.autbr_order != expected_stabilizer_order(rec.rep_id, p):
                raise AssertionError(f"{rec.rep_id} stabilizer {rec.autbr_order}")

    def count_identities():
        if count_report(p) != closed_form_count_report(p):
            raise AssertionError("counts disagree")

    def brace_axiom():
        for rep in all_representatives(p):
            brace = brace_from_codes(p, rep.codes)
            bad = verify_brace_axiom(brace)
            if bad is not None:
                raise AssertionError(f"{rep.rep_id} axiom fails at {bad}")
            if not lambda_matches_automorphism_action(brace):
                raise AssertionError(f"{rep.rep_id} lambda mismatch")

    def braid_sample():
        for rep in all_representatives(p):
            brace = brace_from_codes(p, rep.codes)
            tables = ybe_tables(brace)
            if verify_braid(brace, tables=tables) is not None:
                raise AssertionError(f"{rep.rep_id} braid fails")
            if not verify_nondegenerate(brace, tables=tables):
                raise AssertionError(f"{rep.rep_id} degenerate")

    checks = [
        ("algebra-identities", algebra_identities),
        ("family-regularity", family_regularity),
        ("non-conjugacy", non_conjugacy),
        ("stabilizer-shapes", stabilizer_shapes),
        ("count-identities", count_identities),
        ("brace-axiom", brace_axiom),
        ("braid-sample", braid_sample),
    ]

    if p <= oracle_budget:

        def oracle_equivalence():
            result = enumerate_regular_subgroups(p, budget=oracle_budget)
            if result.count_by_type_and_theta() != closed_form_count_report(p).regular_by_structure:
                raise AssertionError("oracle counts disagree with closed forms")
            if not orbits_match(p, result.codes):
                raise AssertionError("oracle subgroups differ from the representative orbits")

        checks.append(("oracle-equivalence", oracle_equivalence))
    return checks


def _random_aut(rng, p: int):
    from .automorphisms import GL2Mat, AutM1Elt

    while True:
        a1, a2, a3, a4 = (rng.randrange(p) for _ in range(4))
        if (a1 * a4 - a2 * a3) % p:
            break
    return AutM1Elt(p, rng.randrange(p), rng.randrange(p), GL2Mat(p, a1, a2, a3, a4))


def cmd_verify(args) -> int:
    p = args.prime
    results = []
    for name, check in _verify_checks(p, args.oracle_budget):
        try:
            check()
            results.append((name, True, ""))
        except MemoryError:
            raise  # not a failed check: main exits 2
        except Exception as exc:  # noqa: BLE001 - report any failure in the matrix
            results.append((name, False, str(exc)))
    all_pass = all(ok for _, ok, _ in results)
    rows = [{"name": n, "status": "pass" if ok else "fail", "detail": msg} for n, ok, msg in results]
    if args.format == "json":
        text = _json_text({"p": p, "checks": rows, "all_pass": all_pass})
    elif args.format == "csv":
        text = _csv_text(rows, ["name", "status", "detail"])
    else:
        width = max(len(n) for n, _, _ in results)
        lines = [
            f"{'PASS' if ok else 'FAIL'}  {n.ljust(width)}  {msg}".rstrip()
            for n, ok, msg in results
        ]
        lines.append(f"all checks passed: {all_pass}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if all_pass else 1


def cmd_brace(args) -> int:
    p = args.prime
    rep = representative(p, args.rep_id)
    brace = brace_from_codes(p, rep.codes)
    axiom_ok = verify_brace_axiom(brace) is None
    lam_ok = lambda_matches_automorphism_action(brace)
    socle = socle_indices(brace)
    payload = {
        "p": p,
        "id": rep.rep_id,
        "theta": rep.theta_order,
        "structure": rep.group_type.value,
        "order": brace.order,
        "socle_order": int(len(socle)),
        "ann_order": int(len(annihilator_indices(brace, socle=socle))),
        "mul_abelian": brace.mul_abelian(),
        "add_abelian": brace.add_abelian(),
        "axiom_verified": axiom_ok,
        "lambda_matches_action": lam_ok,
    }
    if args.format == "csv":
        text = _csv_text([payload], list(payload.keys()))
    elif args.format == "table":
        text = "\n".join(f"{k}: {v}" for k, v in payload.items()) + "\n"
    else:
        text = _json_text(payload)
    _emit(text, args.out)
    return 0 if axiom_ok and lam_ok else 1


def cmd_ybe(args) -> int:
    p = args.prime
    rep = representative(p, args.rep_id)
    brace = brace_from_codes(p, rep.codes)
    tables = ybe_tables(brace)
    braid_bad = verify_braid(brace, tables=tables)
    payload = {
        "p": p,
        "id": rep.rep_id,
        "carrier_order": brace.order,
        "braid_verified": braid_bad is None,
        "nondegenerate": verify_nondegenerate(brace, tables=tables),
        "involutive": is_involutive(brace, tables=tables),
    }
    if braid_bad is not None:
        payload["braid_counterexample"] = list(braid_bad)
    if args.full_ybe:
        R1, R2 = tables
        payload["r1"] = R1.tolist()
        payload["r2"] = R2.tolist()
    if args.format == "csv":
        cols = [k for k in payload if k not in ("r1", "r2")]
        text = _csv_text([{k: payload[k] for k in cols}], cols)
    elif args.format == "table":
        lines = [f"{k}: {v}" for k, v in payload.items() if k not in ("r1", "r2")]
        if args.full_ybe:
            lines.append("r1/r2 tables included in json format only")
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text(payload)
    _emit(text, args.out)
    return 0 if payload["braid_verified"] and payload["nondegenerate"] else 1


_COMMANDS = {
    "classify": cmd_classify,
    "count": cmd_count,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
    "brace": cmd_brace,
    "ybe": cmd_ybe,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        validate_prime(args.prime)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory at p={args.prime}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
