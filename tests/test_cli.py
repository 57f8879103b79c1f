"""CLI tests: round trips, exit codes, serialization, and enumeration."""
from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

import qgrs.cli as cli
from qgrs.cli import decode_document, encode_document, main
from qgrs.constructions import construct
from qgrs.errors import SchemaError
from qgrs.verifier import CertBundle, MdsReport, MdsStatus


@pytest.fixture()
def runner():
    return CliRunner()


def _doc(tmp_path, runner, args):
    out = tmp_path / "code.json"
    res = runner.invoke(main, args + ["--out", str(out)])
    assert res.exit_code == 0, res.output
    return out, res


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_document_round_trip_exact():
    spec = construct(1, 7, 8, 5, 5)
    back = decode_document(json.loads(json.dumps(encode_document(spec))))
    assert back.field is spec.field
    assert back.locator_codes() == spec.locator_codes()
    assert back.multiplier_codes() == spec.multiplier_codes()
    assert back.k == spec.k
    assert back.provenance == spec.provenance


def test_document_zero_locator_spelled_out():
    spec = construct(1, 7, 8, 5, 5)
    doc = encode_document(spec)
    assert doc["locators"][0] == "zero"
    assert all(isinstance(x, int) for x in doc["locators"][1:])
    assert all(isinstance(x, int) for x in doc["multipliers"])


@pytest.mark.parametrize("mangle,msg", [
    (lambda d: d.update(schema_version=2), "schema_version"),
    (lambda d: d.pop("k"), "malformed"),
    (lambda d: d["field"].update(p=15), "not prime"),
    (lambda d: d["locators"].__setitem__(1, 10 ** 6), "outside"),
    (lambda d: d["locators"].__setitem__(1, d["locators"][2]), "distinct"),
    (lambda d: d["multipliers"].pop(), "equal length"),
])
def test_decode_rejections(mangle, msg):
    doc = encode_document(construct(5, 4, 3, 2, 2))
    doc = json.loads(json.dumps(doc))
    mangle(doc)
    with pytest.raises(SchemaError, match=msg):
        decode_document(doc)


@pytest.mark.parametrize("mangle,msg", [
    (lambda d: d.update(schema_version=True), "schema_version"),
    (lambda d: d["field"].update(e=0), "e must be >= 1"),
    (lambda d: d["field"].update(modulus=None), "must be a list"),
], ids=["bool-schema-version", "zero-degree", "null-modulus"])
def test_decode_rejects_bad_header(mangle, msg):
    doc = json.loads(json.dumps(encode_document(construct(5, 4, 3, 2, 2))))
    mangle(doc)
    with pytest.raises(SchemaError, match=msg):
        decode_document(doc)


def test_decode_rejects_wrong_modulus():
    from qgrs.errors import NonCanonicalModulus
    doc = json.loads(json.dumps(encode_document(construct(5, 4, 3, 2, 2))))
    doc["field"]["modulus"] = [1, 0, 0, 1, 1]
    with pytest.raises(NonCanonicalModulus):
        decode_document(doc)


# ---------------------------------------------------------------------------
# construct / verify round trips
# ---------------------------------------------------------------------------


def test_construct_verify_round_trip(tmp_path, runner):
    out, res = _doc(tmp_path, runner,
                    ["construct", "--theorem", "1", "--q", "7", "--h", "8",
                     "--r", "5", "--k", "5"])
    assert "[[31,21,6]]_7" in res.output
    assert "pass" in res.output
    res2 = runner.invoke(main, ["verify", str(out)])
    assert res2.exit_code == 0, res2.output
    assert "quantum: [[31,21,6]]_7" in res2.output


def test_construct_prints_document_without_out(runner):
    res = runner.invoke(main, ["construct", "--family", "5", "--q", "4",
                               "--h", "3", "--r", "2", "--k", "2"])
    assert res.exit_code == 0
    assert "[[10,6,3]]_4" in res.output
    payload = res.output[res.output.index("{"):]
    assert json.loads(payload)["schema_version"] == 1


def test_construct_rejects_bad_hypothesis(runner):
    res = runner.invoke(main, ["construct", "--theorem", "1", "--q", "7",
                               "--h", "8", "--r", "4", "--k", "3"])
    assert res.exit_code == 2
    assert "ParityViolated" in res.output
    assert "r + h" in res.output


def test_construct_rejects_contract_overreach(runner):
    res = runner.invoke(main, ["construct", "--theorem", "2", "--q", "7",
                               "--h", "8", "--r", "5", "--k", "6"])
    assert res.exit_code == 2
    assert "RangeViolated" in res.output


def test_construct_exit_3_on_internal_breach(runner, monkeypatch):
    fake = CertBundle(
        spec=None, herm_gram_ok=True, herm_interp_ok=True,
        mds=MdsReport(MdsStatus.FAILED, "minors", 3, "singular minor"),
        quantum=None, seconds=0.0)
    monkeypatch.setattr(cli, "certify", lambda spec, **kw: fake)
    res = runner.invoke(main, ["construct", "--theorem", "1", "--q", "7",
                               "--h", "8", "--r", "5", "--k", "5"])
    assert res.exit_code == 3
    assert "certification FAILED" in res.output


def test_construct_is_deterministic(tmp_path, runner):
    a, _ = _doc(tmp_path, runner,
                ["construct", "--family", "2", "--q", "5", "--h", "6",
                 "--r", "5", "--k", "4"])
    b_path = tmp_path / "again.json"
    res = runner.invoke(main, ["construct", "--family", "2", "--q", "5",
                               "--h", "6", "--r", "5", "--k", "4",
                               "--out", str(b_path)])
    assert res.exit_code == 0
    assert a.read_text() == b_path.read_text()


def test_verify_mutated_multiplier_exits_1(tmp_path, runner):
    out, _ = _doc(tmp_path, runner,
                  ["construct", "--family", "5", "--q", "4", "--h", "3",
                   "--r", "2", "--k", "2"])
    doc = json.loads(out.read_text())
    doc["multipliers"][0] = (doc["multipliers"][0] + 1) % 15
    mut = tmp_path / "mut.json"
    mut.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(mut)])
    assert res.exit_code == 1
    assert "FAIL" in res.output
    assert "gram[" in res.output and "nonzero" in res.output


def test_verify_rejects_wrong_modulus(tmp_path, runner):
    out, _ = _doc(tmp_path, runner,
                  ["construct", "--family", "5", "--q", "4", "--h", "3",
                   "--r", "2", "--k", "2"])
    doc = json.loads(out.read_text())
    doc["field"]["modulus"] = [1, 0, 0, 1, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(bad)])
    assert res.exit_code == 2
    assert "NonCanonicalModulus" in res.output


@pytest.mark.parametrize("mangle,msg", [
    (lambda d: d["multipliers"].__setitem__(0, "zero"),
     "multiplier log must be an integer, got 'zero'"),
    (lambda d: d.update(k=True), "k must be an integer, got True"),
    (lambda d: d["locators"].__setitem__(1, d["locators"][1] + 0.7),
     "locator log must be an integer"),
], ids=["zero-multiplier", "bool-k", "float-log"])
def test_verify_rejects_inexact_values(tmp_path, runner, mangle, msg):
    doc = json.loads(json.dumps(encode_document(construct(5, 4, 3, 2, 2))))
    mangle(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(bad)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"rejected: SchemaError: {msg}" in res.output
    assert "Traceback" not in res.output


def test_verify_rejects_malformed_json(tmp_path, runner):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    res = runner.invoke(main, ["verify", str(p)])
    assert res.exit_code == 2
    assert "invalid JSON" in res.output


def test_index_list_parsing(tmp_path, runner):
    out, res = _doc(tmp_path, runner,
                    ["construct", "--family", "5", "--q", "5", "--h", "4",
                     "--r", "2", "--k", "2", "--i-list", "0,2"])
    assert "[[12,8,3]]_5" in res.output
    assert json.loads(out.read_text())["provenance"]["i_list"] == [0, 2]
    res2 = runner.invoke(main, ["construct", "--family", "5", "--q", "5",
                                "--h", "4", "--r", "2", "--k", "2",
                                "--i-list", "0,x"])
    assert res2.exit_code == 2


# ---------------------------------------------------------------------------
# enumerate / table
# ---------------------------------------------------------------------------


def test_enumerate_small_grid(runner):
    res = runner.invoke(main, ["enumerate", "--max-q", "5", "--max-n", "24"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "family,q,h,r,k,n,kq,d,herm_ok,mds_ok"
    assert "2,5,6,5,4,20,12,5,True,True" in lines
    assert "failed=0" in lines[-1]
    # Singleton equality on every row: 2d = n - kq + 2
    for row in lines[1:-1]:
        f, q, h, r, k, n, kq, d, herm, mds = row.split(",")
        assert 2 * int(d) == int(n) - int(kq) + 2
        assert herm == "True" and mds == "True"


def test_enumerate_json_and_k_max_only(runner):
    res = runner.invoke(main, ["enumerate", "--max-q", "5", "--max-n", "24",
                               "--format", "json", "--k-max-only"])
    assert res.exit_code == 0
    rows = json.loads(res.output[:res.output.rindex("]") + 1])
    assert all(r["herm_ok"] and r["mds_ok"] for r in rows)
    full = runner.invoke(main, ["enumerate", "--max-q", "5", "--max-n", "24",
                                "--format", "json"])
    all_rows = json.loads(full.output[:full.output.rindex("]") + 1])
    assert len(rows) < len(all_rows)
    tops = {(r["family"], r["q"], r["h"], r["r"]): r["k"] for r in all_rows
            if not any(s["k"] > r["k"] and (s["family"], s["q"], s["h"], s["r"])
                       == (r["family"], r["q"], r["h"], r["r"])
                       for s in all_rows)}
    assert {(r["family"], r["q"], r["h"], r["r"]): r["k"] for r in rows} == tops


def test_enumerate_threads_deterministic(runner):
    one = runner.invoke(main, ["enumerate", "--max-q", "4", "--max-n", "20",
                               "--threads", "1"])
    two = runner.invoke(main, ["enumerate", "--max-q", "4", "--max-n", "20",
                               "--threads", "2"])
    assert one.exit_code == two.exit_code == 0
    assert one.output == two.output


def test_enumerate_tiny_q_header_only(runner):
    res = runner.invoke(main, ["enumerate", "--max-q", "2", "--max-n", "64"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("family,")
    assert "constructed=0" in lines[-1]


def test_table_marks_headline_distances(runner):
    res = runner.invoke(main, ["table", "7"])
    assert res.exit_code == 0
    starred = [l for l in res.output.splitlines() if l.endswith("*")]
    families = {int(l.split()[0]) for l in starred}
    assert families == {1, 2, 3, 4, 5}


def test_table_rejects_non_prime_power(runner):
    res = runner.invoke(main, ["table", "6"])
    assert res.exit_code == 2
    assert "prime power" in res.output
