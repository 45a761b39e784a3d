"""Byte-level pins of the command-line output at p = 5, and of the counts at
p = 7.

Every digest is the SHA-256 of the exact bytes a command writes.  They were
recorded from a build whose outputs the acceptance gates had checked, so a
refactor that changes any byte (ordering, formatting, a count) fails here
even where the parsed values would still pass the other tests.  Change a
digest only together with an intended change of the output.
"""

from __future__ import annotations

import hashlib

import pytest

import sbc.cli as cli
from sbc.cli import main
from sbc.families import all_representatives

DIGESTS = {
    "classify-json": "ed564e23086f8872f6b2cb1f57014e3136e8a1a57b602898f616681b5ad603af",
    "classify-csv": "fabadb097436607392ea9b98eb84faa91fcff5e052e5269fdcb3b8b681da79f8",
    "classify-table": "c7b677361ba455059e07654571ca0655cb034811089ec310da648ebf26755212",
    "count-json": "c7a0ffe01c480156eb6790f16110ee8bf07022ad8e8d0bedcafd669341463c4a",
    "count-json-p7": "de255e1cfe2a062e6f37666273d37c6397e0bd3445ea2b9246dc66691bfcdf94",
    "brace-all": "9392d0eafba88faa395e6176205a16ccdc03fdeddeae76b89201651205ad8655",
    "ybe-json-all": "076686d8417b84ce8cc730c0ede82c0e2064842da5098de4b75df681068d30f0",
    "brace-json-all": "dbe488fbe3ebc581b43492422658203fd1d19fcefd5ec84a62cb0225de9aced6",
    "ybe-full-r=1/trivial": "ee5d60241f6a5ff1032381c9229c777dff78a60bda36acf4e8006a6beac2fec8",
    "ybe-full-r=p/a1": "7f028a22642e53e9d604d36333a4585de4ee6e37c33b57630f103d78616c2cd2",
    "ybe-full-r=p2/I/u5=2": "4b02c6af96d248b0286f09832fb1b4184ea8565eb780ec0f60e441b306f3c91a",
    "ybe-full-r=p3/t3=1/s=delta": "b57c79d48543356339839b577521a887fc3a281c320d47d29c1596129afc0951",
    "oracle-stdout": "e8f71972bcdce693202ddba470fe17526d5b13bb108e12a47ad0726b60a57198",
    "oracle-dump": "b7b3b318c4bf2dbb1d50f252e893c68d6490c1b029599012865b4cfd45fc4c0c",
    "verify": "d8832492ddc0f484b19c7e8d2dcf3bfff1894008c4818d4947e333c0450a5376",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(capsys, *argv: str) -> bytes:
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_classify_bytes(capsys, fmt):
    out = _stdout(capsys, "classify", "--prime", "5", "--format", fmt)
    assert _sha(out) == DIGESTS[f"classify-{fmt}"]


def test_count_bytes(capsys):
    out = _stdout(capsys, "count", "--prime", "5", "--format", "json")
    assert _sha(out) == DIGESTS["count-json"]


def test_count_bytes_p7(capsys):
    out = _stdout(capsys, "count", "--prime", "7", "--format", "json")
    assert _sha(out) == DIGESTS["count-json-p7"]


def test_brace_and_ybe_bytes_for_every_id(capsys):
    ids = [rep.rep_id for rep in all_representatives(5)]
    assert len(ids) == 59
    brace = b"".join(_stdout(capsys, "brace", "--prime", "5", "--id", i) for i in ids)
    assert _sha(brace) == DIGESTS["brace-all"]
    ybe = b"".join(
        _stdout(capsys, "ybe", "--prime", "5", "--id", i, "--format", "json") for i in ids
    )
    assert _sha(ybe) == DIGESTS["ybe-json-all"]


def test_one_parser_serves_requests_after_a_usage_error(capsys):
    # the parser is built once per process; a rejected request in between
    # must leave it as it was
    ids = [rep.rep_id for rep in all_representatives(5)]
    first = b"".join(_stdout(capsys, "brace", "--prime", "5", "--id", i) for i in ids)
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--prime", "5", "--id", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    again = b"".join(_stdout(capsys, "brace", "--prime", "5", "--id", i) for i in ids)
    assert _sha(first) == _sha(again) == DIGESTS["brace-all"]
    assert cli._build_parser() is cli._build_parser()


def test_brace_json_bytes_for_every_id(capsys):
    ids = [rep.rep_id for rep in all_representatives(5)]
    out = b"".join(
        _stdout(capsys, "brace", "--prime", "5", "--id", i, "--format", "json") for i in ids
    )
    assert _sha(out) == DIGESTS["brace-json-all"]


@pytest.mark.parametrize("rep_id", ["r=1/trivial", "r=p/a1", "r=p2/I/u5=2", "r=p3/t3=1/s=delta"])
def test_full_ybe_bytes_one_id_per_theta_order(capsys, rep_id):
    # --full-ybe prints the lambda table r1 and the table r2
    out = _stdout(capsys, "ybe", "--prime", "5", "--id", rep_id, "--full-ybe", "--format", "json")
    assert _sha(out) == DIGESTS[f"ybe-full-{rep_id}"]


def test_oracle_and_verify_bytes(capsys, tmp_path, oracle_p5):
    # touching the fixture first keeps the scan shared across the session
    assert len(oracle_p5.codes) == 6625
    dump = tmp_path / "scan.json"
    out = _stdout(capsys, "oracle", "--prime", "5", "--out", str(dump))
    assert _sha(out) == DIGESTS["oracle-stdout"]
    assert _sha(dump.read_bytes()) == DIGESTS["oracle-dump"]
    out = _stdout(capsys, "verify", "--prime", "5")
    assert _sha(out) == DIGESTS["verify"]
