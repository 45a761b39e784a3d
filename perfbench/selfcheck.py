"""Reduced-size check of the benchmark itself; runs in about ten seconds.

    python3 perfbench/selfcheck.py      (from the root of a checkout)

Checks the self-time arithmetic, the seeded request stream, that the gates
reject a wrong answer, that tracing patches names where they were imported,
and runs a traced 10-request brace/ybe loop end to end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path("src").resolve()))

import tracer  # noqa: E402
import worker  # noqa: E402


def check_self_times() -> None:
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0], tracer.self_times(spans)


def check_stream() -> None:
    ids = [f"id{i}" for i in range(59)]
    first = list(islice(worker.request_stream(7, ids), 400))
    assert first == list(islice(worker.request_stream(7, ids), 400)), "stream is not reproducible"
    assert first != list(islice(worker.request_stream(8, ids), 400)), "stream ignores the seed"
    for i in range(0, len(first), 4):
        kinds = sorted(kind for kind, _ in first[i : i + 4])
        assert kinds == ["brace", "brace", "brace", "ybe"], kinds
    top = max(sum(rep_id == i for _, rep_id in first) for i in ids)
    assert top > 3 * len(first) / len(ids), "ids are not Zipf-skewed"


def check_gates() -> None:
    good = {"p": 5, "id": "x", "carrier_order": 125, "braid_verified": True, "nondegenerate": True, "involutive": False}
    original = worker.run_cli
    try:
        worker.run_cli = lambda argv: (0, dict(good))
        worker.query_op("ybe", "x")
        for key, bad in [("involutive", True), ("carrier_order", 124), ("braid_verified", False), ("id", "y")]:
            worker.run_cli = lambda argv: (0, dict(good, **{key: bad}))
            try:
                worker.query_op("ybe", "x")
            except worker.GateError:
                continue
            raise AssertionError(f"gate accepted {key}={bad!r}")
    finally:
        worker.run_cli = original


def check_patching() -> None:
    import sbc.classify
    import sbc.cli
    import sbc.families
    import sbc.skewbrace
    import sbc.tables

    t = tracer.Tracer()
    t.install()
    assert sbc.cli.verify_braid is sbc.skewbrace.verify_braid
    assert hasattr(sbc.cli.verify_braid, "__wrapped__")
    assert sbc.classify.all_representatives is sbc.families.all_representatives
    assert sbc.classify.brace_from_subgroup is sbc.skewbrace.brace_from_subgroup
    assert hasattr(sbc.tables.HolCodec.stabilizer, "__wrapped__")


def check_requests() -> None:
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        spans = Path(tmp) / "spans.jsonl"
        cmd = [sys.executable, str(HERE / "worker.py"), "queries", "--seed", "1", "--requests", "10", "--spans", str(spans)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert len(out["ops"]) == 10 and all(op["error"] is None for op in out["ops"]), out["ops"]
        layers = out["layers"]
        assert layers["families.subgroups_built"] == 1563, layers
        assert layers["tables.decoded_elements"] == 1562 * 125, layers
        n_ybe = out["context"]["request_mix"]["ybe"]
        rows = [json.loads(line) for line in spans.read_text().splitlines()]
        braid = [r for r in rows if r["name"] == "skewbrace.verify_braid"]
        assert len(braid) == n_ybe and all(r["n"] == 5**9 for r in braid), braid
        assert sum(r["name"] == "cli.main" for r in rows) == 10


def main() -> int:
    for check in (check_self_times, check_stream, check_gates, check_patching, check_requests):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
