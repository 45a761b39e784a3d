"""One measurement in a fresh interpreter; prints one JSON object on stdout.

    python3 perfbench/worker.py KIND --seed N [--seconds S | --requests K]
                                     [--setup-only] [--spans PATH]

KIND is one of
  classify  cold `sbc classify --prime 5 --format json`, then the count
            cross-check and the pairwise non-conjugacy check (one operation);
  queries   all_representatives(5) as set-up, then a closed loop of
            `sbc brace` / `sbc ybe` requests, one client, until S seconds
            have passed or K requests are done;
  oracle    the oracle's layered walk over one Sylow ambient M1 x| A
            (one operation), the ambient chosen by the seed.

Set-up time runs from the first line of this file, before numpy and sbc are
imported, to the end of the kind's set-up.  With --spans the public calls of
every layer are traced and the spans are written to PATH.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

P = 5
KINDS = ("brace", "brace", "brace", "ybe")  # three brace requests per ybe request
CLASS_COUNTS = {"HeisenbergM1": 48, "ElemAbelian_p3": 11}
HGS_TOTALS = {"HeisenbergM1": 5900, "ElemAbelian_p3": 89900}
NONCONJ_PAIRS = 182
# (order p, order p^2, order p^3, regular) subgroups in any one Sylow ambient
AMBIENT_COUNTS = (3906, 8431, 2931, 1625)
N_AMBIENTS = P + 1


class GateError(Exception):
    """An output of the program is not the exact expected value."""


def gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def run_cli(argv: list[str]) -> tuple[int, dict]:
    import sbc.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sbc.cli.main(argv)
    return rc, json.loads(buf.getvalue())


# -- classify-p5 ---------------------------------------------------------------


def classify_setup(args):
    import sbc.classify  # noqa: F401
    import sbc.cli  # noqa: F401


def classify_op() -> None:
    from sbc import classify

    rc, out = run_cli(["classify", "--prime", str(P), "--format", "json"])
    gate(rc == 0, f"classify exit code {rc}")
    gate(out["identities_hold"] is True, "identities_hold is not true")
    gate(out["counts"]["class_counts"] == CLASS_COUNTS, f"class counts {out['counts']['class_counts']}")
    gate(out["counts"]["hgs_totals"] == HGS_TOTALS, f"HGS totals {out['counts']['hgs_totals']}")
    records = out["records"]
    gate(len(records) == sum(CLASS_COUNTS.values()), f"{len(records)} records")
    for rec in records:
        want = classify.expected_stabilizer_order(rec["rep_id"], P)
        gate(rec["autbr_order"] == want, f"{rec['rep_id']}: autbr_order {rec['autbr_order']} != {want}")
    report = classify.crosscheck_count_report(P)
    gate(report.hgs_totals == HGS_TOTALS, f"cross-check HGS totals {report.hgs_totals}")
    pairs = classify.verify_pairwise_nonconjugate(P)
    gate(pairs == NONCONJ_PAIRS, f"{pairs} non-conjugacy pairs")


# -- brace-queries-p5 ----------------------------------------------------------


def queries_setup(args):
    import sbc.cli  # noqa: F401
    from sbc.families import all_representatives

    return [rep.rep_id for rep in all_representatives(P)]


def request_stream(seed: int, ids: list[str]):
    """Endless seeded (command, id) stream.

    Ids are drawn Zipf(s=1) by their rank in `ids`, so popularity is a fixed
    property of the inputs and the seed only varies the draws; commands come
    three brace to one ybe, shuffled within each block of four.
    """
    rng = random.Random(seed)
    weights = [1.0 / rank for rank in range(1, len(ids) + 1)]
    while True:
        block = list(KINDS)
        rng.shuffle(block)
        yield from zip(block, rng.choices(ids, weights=weights, k=len(block)))


def query_op(kind: str, rep_id: str) -> None:
    rc, out = run_cli([kind, "--prime", str(P), "--id", rep_id, "--format", "json"])
    gate(rc == 0, f"{kind} {rep_id}: exit code {rc}")
    gate(out["p"] == P and out["id"] == rep_id, f"{kind} {rep_id}: answered for {out['id']}")
    if kind == "brace":
        gate(out["order"] == P**3, f"brace {rep_id}: order {out['order']}")
        gate(out["axiom_verified"] is True, f"brace {rep_id}: axiom not verified")
        gate(out["lambda_matches_action"] is True, f"brace {rep_id}: lambda mismatch")
    else:
        gate(out["carrier_order"] == P**3, f"ybe {rep_id}: order {out['carrier_order']}")
        gate(out["braid_verified"] is True, f"ybe {rep_id}: braid not verified")
        gate(out["nondegenerate"] is True, f"ybe {rep_id}: degenerate")
        gate(out["involutive"] is False, f"ybe {rep_id}: involutive")


# -- oracle-ambient-p5 ---------------------------------------------------------


def ambient_index(seed: int) -> int:
    return seed % N_AMBIENTS


def oracle_setup(args):
    import numpy as np

    from sbc.automorphisms import sylow_aut_subgroup, sylow_p_subgroups_gl2
    from sbc.oracle import AmbientScan
    from sbc.tables import aut_table

    aut = aut_table(P)
    mats = sylow_p_subgroups_gl2(P)[ambient_index(args.seed)]
    members = np.array([aut.index_of(a) for a in sylow_aut_subgroup(P, mats)], dtype=np.int64)
    return AmbientScan(P, members)


def oracle_op(scan) -> None:
    layer1 = scan.order_p_subgroups()
    layer2 = scan.order_p2_subgroups(layer1)
    layer3 = scan.order_p3_subgroups(layer2)
    regular = sum(1 for row, _ in layer3 if scan.is_regular(row))
    counts = (len(layer1), len(layer2), len(layer3), regular)
    gate(counts == AMBIENT_COUNTS, f"ambient counts {counts}")


# -- entry point ---------------------------------------------------------------


def timed(fn, *fn_args) -> dict:
    t0 = perf_counter()
    try:
        fn(*fn_args)
        error = None
    except Exception as exc:  # noqa: BLE001 - any failure is a failed operation
        error = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, GateError):
            traceback.print_exc(file=sys.stderr)
    return {"s": perf_counter() - t0, "error": error}


def run_queries(args, ids: list[str]) -> tuple[list[dict], dict]:
    """The closed loop: one request at a time until the time or count is up."""
    ops: list[dict] = []
    seen: set[tuple[str, str]] = set()
    mix = {kind: 0 for kind in KINDS}
    repeats = 0
    t0 = perf_counter()
    for kind, rep_id in request_stream(args.seed, ids):
        if args.requests is not None and len(ops) >= args.requests:
            break
        if args.requests is None and perf_counter() - t0 >= args.seconds:
            break
        repeats += (kind, rep_id) in seen
        seen.add((kind, rep_id))
        mix[kind] += 1
        ops.append(dict(timed(query_op, kind, rep_id), kind=kind))
    return ops, {"request_mix": mix, "repeat_share": repeats / max(len(ops), 1)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("kind", choices=["classify", "queries", "oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    tracer = None
    if args.spans:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    state = {"classify": classify_setup, "queries": queries_setup, "oracle": oracle_setup}[args.kind](args)
    result = {"setup_s": perf_counter() - T_START, "ops": [], "context": {"numpy": sys.modules["numpy"].__version__}}

    if not args.setup_only:
        t0 = perf_counter()
        if args.kind == "classify":
            result["ops"].append(timed(classify_op))
        elif args.kind == "oracle":
            result["ops"].append(timed(oracle_op, state))
            result["context"]["ambient_index"] = ambient_index(args.seed)
        else:
            result["ops"], context = run_queries(args, state)
            result["context"].update(context)
        result["busy_s"] = perf_counter() - t0
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
