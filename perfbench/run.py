"""sbc benchmark: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/sbc).  Every
operation runs in a worker interpreter (perfbench/worker.py) started one at a
time: one client, no process pool, nothing else running.

Workloads (p = 5):
  classify-p5        cold classification in a fresh interpreter per operation;
                     operations repeat until S seconds have passed (at least
                     one).  Ignores the seed.
  brace-queries-p5   one warm interpreter sends a seeded closed-loop stream of
                     brace/ybe requests for S seconds after its set-up; two
                     more interpreters repeat only the set-up.
  oracle-ambient-p5  one oracle ambient scan (about 30 s, longer than S) in a
                     fresh interpreter; the seed picks the ambient.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1 the
same work runs once untraced and once traced, and the last line holds the
per-layer metrics of the traced run plus trace.overhead_s (traced minus
untraced wall time).  Spans are written under .perfbench/.  Lines before the
last one are a readable report: recorded context and the metrics under the
names of the workload (classify_s, query_p50_ms, scan_s, ...).

Exit code 0 when the measurement ran (`correct` says whether every output
passed its gate), 2 when the checkout holds no sbc sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = Path(".perfbench")
BUDGET_S = 170.0  # every run must end within 180 s

WORKLOADS = {
    "classify-p5": {"kind": "classify", "setup_runs": 5},
    "brace-queries-p5": {"kind": "queries", "setup_runs": 2},
    "oracle-ambient-p5": {"kind": "oracle", "setup_runs": 5},
}

# The readable report gives the timings under workload-specific names.  The
# JSON line carries only the metrics BENCHMARK.json declares: the request p95
# and throughput are reported here but not guarded, because their run-to-run
# spread on a shared 2-core machine exceeds the largest bound allowed.
READABLE = {
    "classify-p5": {"op_p50_ms": ("classify_s", 1e-3, "s")},
    "brace-queries-p5": {
        "op_p50_ms": ("query_p50_ms", 1.0, "ms"),
        "op_p95_ms": ("query_p95_ms", 1.0, "ms"),
        "ops_per_s": ("queries_per_s", 1.0, "1/s"),
    },
    "oracle-ambient-p5": {"op_p50_ms": ("scan_s", 1e-3, "s")},
}


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class Runner:
    """Starts workers one at a time inside the run's time budget."""

    def __init__(self, workload: str, seed: int) -> None:
        self.kind = WORKLOADS[workload]["kind"]
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(Path("src").resolve())] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def worker(self, *extra: str) -> dict | None:
        """Run one worker; its result, or None when it failed or ran out of time."""
        cmd = [sys.executable, str(WORKER), self.kind, "--seed", str(self.seed), *extra]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True, timeout=max(self.remaining(), 1.0)
            )
        except subprocess.TimeoutExpired:
            print(f"# worker timed out: {' '.join(extra)}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"# worker exited with {proc.returncode}", file=sys.stderr)
            return None
        sys.stderr.write(proc.stderr)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["wall_s"] = time.monotonic() - t0
        return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tally(results: list[dict | None]) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over the worker results of one run; a
    worker that failed counts as one failed operation."""
    attempted = failed = 0
    errors: list[str] = []
    for res in results:
        if res is None:
            attempted += 1
            failed += 1
            errors.append("worker failed")
            continue
        for op in res["ops"]:
            attempted += 1
            if op["error"] is not None:
                failed += 1
                errors.append(op["error"])
    return attempted, failed, errors


def measure(workload: str, runner: Runner, seconds: int) -> tuple[dict, dict, list]:
    """Untraced run: (metrics, context, worker results)."""
    setups = [runner.worker("--setup-only") for _ in range(WORKLOADS[workload]["setup_runs"])]
    mains: list[dict | None] = []
    if runner.kind == "queries":
        mains.append(runner.worker("--seconds", str(seconds)))
    else:
        start = time.monotonic()
        while not mains or (time.monotonic() - start < seconds and mains[-1] is not None):
            mains.append(runner.worker())
    done = [res for res in mains if res is not None]
    ops = [op for res in done for op in res["ops"]]
    setup_samples = [res["setup_s"] for res in setups + mains if res is not None]
    context = dict(done[-1]["context"]) if done else {}
    if not ops or not setup_samples:
        return {}, context, setups + mains
    latencies_ms = [op["s"] * 1e3 for op in ops]
    busy = sum(res["busy_s"] for res in done)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p95_ms": percentile(latencies_ms, 95),
        "ops_per_s": len(ops) / busy,
        "peak_rss_mb": max(res["rss_mb"] for res in done),
    }
    context.update(samples=len(ops), setup_samples=len(setup_samples))
    if runner.kind == "queries":
        by_kind: dict[str, list[float]] = {}
        for op in ops:
            by_kind.setdefault(op["kind"], []).append(op["s"] * 1e3)
        context["median_ms_by_command"] = {k: statistics.median(v) for k, v in sorted(by_kind.items())}
    return metrics, context, setups + mains


def traced(runner: Runner, seconds: int, spans_path: Path) -> tuple[dict, dict, list]:
    """Untraced then traced run of the same work: (layer metrics, context, results)."""
    if runner.kind == "queries":
        plain = runner.worker("--seconds", str(seconds))
        same_work = ["--requests", str(len(plain["ops"]))] if plain else ["--requests", "1"]
    else:
        plain = runner.worker()
        same_work = []
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with_spans = runner.worker(*same_work, "--spans", str(spans_path))
    if plain is None or with_spans is None:
        return {}, {}, [plain, with_spans]
    layers = dict(with_spans["layers"])
    layers["trace.overhead_s"] = with_spans["wall_s"] - plain["wall_s"]
    context = dict(with_spans["context"], samples=len(with_spans["ops"]), spans=str(spans_path))
    return layers, context, [plain, with_spans]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not Path("src/sbc/__init__.py").is_file():
        print("error: run from the root of an sbc checkout (src/sbc not found)", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        values, context, results = traced(runner, args.seconds, spans_path)
        units = declared_units("per_layer")
    else:
        values, context, results = measure(args.workload, runner, args.seconds)
        units = declared_units("end_to_end")
    attempted, failed, errors = tally(results)
    if not set(units) <= set(values) and not failed:
        attempted, failed = attempted + 1, 1
        errors.append("metrics incomplete")

    context.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        clients=1,
    )
    print("# context " + json.dumps(context, sort_keys=True))
    for err in errors[:10]:
        print(f"# failed: {err}")
    print(f"# failed_share {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name, unit in units.items():
        if name in values:
            print(f"# {name} {values[name]:.6g} {unit}")
    if not args.trace:
        for name, (label, scale, unit) in READABLE[args.workload].items():
            if name in values:
                print(f"# {label} {values[name] * scale:.6g} {unit}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
