"""End-to-end checks of the command-line surface at p = 5."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sbc
import sbc.cli as cli
from sbc.cli import CSV_COLUMNS, main
from sbc.skewbrace import verify_braid


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_classify_table_smoke(capsys):
    code, out = run(capsys, "classify", "--prime", "5")
    assert code == 0
    assert "r=p3/t3=1/s=delta" in out
    assert "regular subgroups total 6625" in out
    assert "HGS total 89900" in out


_IMPORTS_NUMPY_MA = """
import contextlib, io, sys
from sbc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("argv", [("oracle", "--prime", "5"), ("classify", "--prime", "5")])
def test_cold_command_does_not_import_numpy_ma(argv):
    # a plain np.unique imports numpy.ma on its first call, 10-18 ms of a
    # cold run; the sort-path forms (return_counts, return_inverse) do not
    src = str(Path(sbc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", _IMPORTS_NUMPY_MA, *argv], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["0", "False"]


def test_classify_csv_shape(capsys):
    code, out = run(capsys, "classify", "--prime", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 59
    thetas = {row.split(",")[1] for row in lines[1:]}
    assert thetas == {"1", "5", "25", "125"}


def test_classify_theta_filter(capsys):
    code, out = run(capsys, "classify", "--prime", "5", "--theta", "p3", "--format", "csv")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 4
    assert all(row.startswith("r=p3/") for row in rows)
    code, out = run(capsys, "classify", "--prime", "5", "--theta", "p3", "--format", "json")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 4
    assert all(r["rep_id"].startswith("r=p3/") and r["theta_order"] == 125 for r in records)
    code, out = run(capsys, "classify", "--prime", "5", "--theta", "p3", "--format", "table")
    assert code == 0
    # header, the four records, then the unfiltered count summary
    table, summary = out.split("\n\n", 1)
    rows = table.split("\n")[1:]
    assert len(rows) == 4
    assert all(row.startswith("r=p3/") for row in rows)
    assert "regular subgroups total 6625" in summary


def test_classify_json_deterministic(capsys):
    code1, out1 = run(capsys, "classify", "--prime", "5", "--format", "json")
    code2, out2 = run(capsys, "classify", "--prime", "5", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["identities_hold"] is True
    assert len(payload["records"]) == 59
    assert payload["counts"]["hgs_totals"] == {
        "ElemAbelian_p3": 89900,
        "HeisenbergM1": 5900,
    }
    assert payload["counts"]["total_regular"] == 6625


def test_classify_out_file(capsys, tmp_path):
    target = tmp_path / "records.csv"
    code, out = run(capsys, "classify", "--prime", "5", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith(",".join(CSV_COLUMNS))


def test_count_json_match(capsys):
    code, out = run(capsys, "count", "--prime", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["computed"] == payload["closed_form"]
    assert payload["computed"]["class_counts"] == {
        "ElemAbelian_p3": 11,
        "HeisenbergM1": 48,
    }


def test_count_csv_has_both_sources(capsys):
    code, out = run(capsys, "count", "--prime", "5", "--format", "csv")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    sources = [row.split(",")[0] for row in rows]
    assert sources.count("computed") == sources.count("closed_form") == 6


def test_verify_without_oracle(capsys):
    code, out = run(capsys, "verify", "--prime", "5", "--oracle-budget", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "all checks passed: True"
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "oracle-equivalence" not in out
    names = {line.split()[1] for line in lines[:-1]}
    assert names == {
        "algebra-identities",
        "family-regularity",
        "non-conjugacy",
        "stabilizer-shapes",
        "count-identities",
        "brace-axiom",
        "braid-sample",
    }


def test_verify_with_oracle(capsys, oracle_p5):
    # touching the fixture first keeps the scan shared across the session
    assert len(oracle_p5.codes) == 6625
    code, out = run(capsys, "verify", "--prime", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    by_name = {c["name"]: c["status"] for c in payload["checks"]}
    assert by_name["oracle-equivalence"] == "pass"
    assert payload["all_pass"] is True


def test_verify_compares_oracle_subgroups_not_only_counts(capsys, monkeypatch, oracle_p5):
    assert len(oracle_p5.codes) == 6625
    # the same number of subgroups, one of them swapped for a non-subgroup
    tampered = oracle_p5.codes.copy()
    tampered[0] = np.arange(125)
    real = cli.orbits_match
    monkeypatch.setattr(cli, "orbits_match", lambda p, codes: real(p, tampered))
    code, out = run(capsys, "verify", "--prime", "5")
    assert code == 1
    assert "FAIL  oracle-equivalence" in out
    assert "oracle subgroups differ from the representative orbits" in out


def test_braid_sample_checks_each_representative_once(capsys, monkeypatch):
    seen = []

    def recording(brace, **kwargs):
        seen.append(brace.codes.tobytes())
        return verify_braid(brace, **kwargs)

    monkeypatch.setattr(cli, "verify_braid", recording)
    code, _ = run(capsys, "verify", "--prime", "5", "--oracle-budget", "3")
    assert code == 0
    # every representative, each once
    assert len(seen) == len(set(seen)) == 59


def test_braid_sample_builds_ybe_tables_once_per_brace(capsys, monkeypatch):
    import sbc.skewbrace as skewbrace

    built = []
    real = skewbrace.ybe_tables

    def counting(brace):
        built.append(brace.codes.tobytes())
        return real(brace)

    monkeypatch.setattr(skewbrace, "ybe_tables", counting)
    monkeypatch.setattr(cli, "ybe_tables", counting)
    code, _ = run(capsys, "verify", "--prime", "5", "--oracle-budget", "3")
    assert code == 0
    assert len(built) == len(set(built)) == 59


def test_verify_reports_injected_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "expected_stabilizer_order", lambda rep_id, p: 999)
    code, out = run(capsys, "verify", "--prime", "5", "--oracle-budget", "3")
    assert code == 1
    assert "FAIL  stabilizer-shapes" in out
    assert out.strip().split("\n")[-1] == "all checks passed: False"


def test_verify_csv_lists_each_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "expected_stabilizer_order", lambda rep_id, p: 999)
    code, out = run(capsys, "verify", "--prime", "5", "--oracle-budget", "3", "--format", "csv")
    assert code == 1
    header, *lines = out.strip().split("\n")
    assert header == "name,status,detail"
    rows = {line.split(",")[0]: line.split(",", 2)[1:] for line in lines}
    assert len(rows) == len(lines) == 7
    assert rows.pop("stabilizer-shapes")[0] == "fail"
    assert all(row == ["pass", ""] for row in rows.values())


def test_verify_catches_perturbed_composition(capsys, monkeypatch):
    import sbc.automorphisms as am

    orig = am.aut_compose_triangular

    def perturbed(x, y):
        z = orig(x, y)
        return am.AutM1Elt(z.p, z.b1 + 1, z.b2, z.A)

    monkeypatch.setattr(am, "aut_compose_triangular", perturbed)
    code, out = run(capsys, "verify", "--prime", "5", "--oracle-budget", "3")
    assert code == 1
    assert "FAIL  algebra-identities" in out
    assert "composition routes disagree" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--prime", "4"],
        ["classify", "--prime", "6"],
        ["classify", "--prime", "3"],
        ["count", "--prime", "10"],
        ["brace", "--prime", "5", "--id", "r=p9/bogus"],
        ["oracle", "--prime", "7"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")


def test_huge_prime_exits_2_before_trial_division(capsys):
    # a 17-digit prime: trial division alone took 6 s, and larger ones minutes
    start = time.perf_counter()
    assert main(["count", "--prime", "10000000000000061"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p=10000000000000061 is too large: its holomorph and braid triple codes overflow int64\n"


@pytest.mark.parametrize("command", ["count", "verify"])
def test_memory_error_exits_2_with_the_prime(capsys, monkeypatch, command):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 540. MiB")

    if command == "count":
        monkeypatch.setitem(cli._COMMANDS, "count", out_of_memory)
    else:  # a check that runs out of memory is not a failed check
        monkeypatch.setattr(cli, "_verify_checks", lambda p, budget: [("stub", out_of_memory)])
    assert main([command, "--prime", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory at p=17: Unable to allocate 540. MiB\n"


@pytest.mark.parametrize("command, name", [("count", "x.txt"), ("oracle", "x.json")])
def test_unwritable_out_path_exits_2(capsys, tmp_path, command, name):
    # exit code 1 is kept for a failed verification
    out = tmp_path / "missing" / name
    assert main([command, "--prime", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--prime", "5", "--theta", "p"],
        ["classify", "--prime", "5", "--jobs", "2"],
        ["brace", "--prime", "5", "--id", "r=1/trivial", "--full-ybe"],
        ["oracle", "--prime", "5", "--jobs", "2"],
        ["verify", "--prime", "5", "--jobs", "2"],
    ],
)
def test_options_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_oracle_counts_and_dump(capsys, tmp_path, oracle_p5):
    dump = tmp_path / "scan.json"
    code, out = run(capsys, "oracle", "--prime", "5", "--format", "json", "--out", str(dump))
    assert code == 0
    counts = json.loads(out)["counts"]
    assert counts["by_type"] == {"ElemAbelian_p3": 725, "HeisenbergM1": 5900, "other": 0}
    assert counts["by_theta"] == {"1": 1, "5": 744, "25": 2880, "125": 3000}
    assert counts["per_ambient_regular"] == [1625] * 6
    assert counts["total"] == 6625
    stored = json.loads(dump.read_text())
    assert len(stored["subgroups"]) == 6625
    assert all(len(s["codes"]) == 125 for s in stored["subgroups"][:20])


def test_brace_report(capsys):
    code, out = run(capsys, "brace", "--prime", "5", "--id", "r=1/trivial", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"] == 1
    assert payload["socle_order"] == 5
    assert payload["ann_order"] == 5
    assert payload["axiom_verified"] is True
    assert payload["lambda_matches_action"] is True
    assert payload["add_abelian"] is False


def test_ybe_report(capsys):
    code, out = run(capsys, "ybe", "--prime", "5", "--id", "r=p2/II/x3=1/a=1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["braid_verified"] is True
    assert payload["nondegenerate"] is True
    assert payload["involutive"] is False
    assert "r1" not in payload


def test_ybe_full_tables(capsys):
    code, out = run(capsys, "ybe", "--prime", "5", "--id", "r=1/trivial", "--full-ybe", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    r1 = payload["r1"]
    assert len(r1) == 125 and len(r1[0]) == 125
    # trivial brace: lambda is the identity, so r1(a, b) = b
    assert all(row == list(range(125)) for row in r1)
    assert len(payload["r2"]) == 125
