"""CLI tests: round trips, exit codes, serialization, and enumeration."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

import qgrs.cli as cli
from qgrs import verifier
from qgrs.cli import decode_document, encode_document, main
from qgrs.constructions import construct
from qgrs.errors import NotFound, SchemaError
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
    assert back.locators == spec.locators
    assert back.multipliers == spec.multipliers
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


@pytest.mark.parametrize("p,e", [(2 ** 61 - 1, 1), (2, 10 ** 6)],
                         ids=["huge-prime-p", "huge-e"])
def test_decode_rejects_huge_field_quickly(p, e):
    # the order bound comes before the primality test and before p^(2e)
    # is formed, so neither trial division nor a huge integer is needed
    doc = json.loads(json.dumps(encode_document(construct(5, 4, 3, 2, 2))))
    doc["field"].update(p=p, e=e)
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="exceeds limit"):
        decode_document(doc)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("provenance", [[1, {"a": 2}], "family 1", 3, True],
                         ids=["list", "string", "int", "bool"])
def test_decode_rejects_non_object_provenance(provenance):
    doc = json.loads(json.dumps(encode_document(construct(5, 4, 3, 2, 2))))
    doc["provenance"] = provenance
    with pytest.raises(SchemaError, match="provenance must be an object"):
        decode_document(doc)
    doc["provenance"] = None   # null is the encoding of no provenance
    assert decode_document(doc).provenance is None


def test_decode_rejects_wrong_modulus():
    from qgrs.errors import NonCanonicalModulus
    doc = json.loads(json.dumps(encode_document(construct(5, 4, 3, 2, 2))))
    doc["field"]["modulus"] = [1, 0, 0, 1, 1]
    with pytest.raises(NonCanonicalModulus):
        decode_document(doc)


def test_decode_rejects_wrong_modulus_before_building_tables(monkeypatch):
    # GF(3^12) takes seconds to tabulate, while its canonical modulus takes a
    # fraction of that: a wrong modulus is rejected before any table exists
    from qgrs import field
    from qgrs.errors import NonCanonicalModulus

    def no_tables(*args):
        raise AssertionError("field tables built for a rejected document")

    monkeypatch.setattr(field, "FieldSpec", no_tables)
    doc = json.loads(json.dumps(encode_document(construct(5, 4, 3, 2, 2))))
    doc["field"].update(p=3, e=6, modulus=[1] * 13)
    start = time.perf_counter()
    with pytest.raises(NonCanonicalModulus):
        decode_document(doc)
    assert time.perf_counter() - start < 0.5


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


def test_construct_rejects_zero_h(runner):
    # h = 0 must not reach (q + 1) % h: a rejection, not a traceback
    res = runner.invoke(main, ["construct", "--family", "1", "--q", "7",
                               "--h", "0", "--r", "3", "--k", "1"])
    assert res.exit_code == 2
    assert "DivisibilityViolated: h = 0 does not divide q+1 = 8" in res.output


def test_q_past_the_order_limit_exits_2(runner):
    # GF(1031^2) is past the order limit: a bad input, not an internal breach
    res = runner.invoke(main, ["construct", "--family", "5", "--q", "1031",
                               "--h", "2", "--r", "1", "--k", "1"])
    assert res.exit_code == 2
    assert "RangeViolated" in res.output and "order limit" in res.output
    res = runner.invoke(main, ["table", "1031"])
    assert res.exit_code == 2 and "order limit" in res.output
    res = runner.invoke(main, ["enumerate", "--max-q", "1025"])
    assert res.exit_code == 2


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


def test_construct_exit_3_on_a_cell_out_of_memory(runner, monkeypatch):
    # a cell too large for memory (planted, not allocated) exits 3 with a
    # message, as enumerate reports it, instead of a traceback
    def planted(*args):
        raise MemoryError("planted failure")

    monkeypatch.setattr(cli, "build_code", planted)
    res = runner.invoke(main, ["construct", "--family", "5", "--q", "7",
                               "--h", "6", "--r", "6", "--k", "6"])
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
    assert "construction failed: MemoryError: planted failure" in res.stderr


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


def test_verify_lists_gram_entries_row_major(tmp_path, runner):
    # one multiplier off a family-2 code: all 16 gram entries turn nonzero,
    # the first 8 are listed in row-major order and the rest are counted
    out, _ = _doc(tmp_path, runner,
                  ["construct", "--family", "2", "--q", "5", "--h", "6",
                   "--r", "5", "--k", "4"])
    doc = json.loads(out.read_text())
    doc["multipliers"][5] = (doc["multipliers"][5] + 1) % 24
    mut = tmp_path / "mut.json"
    mut.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(mut)])
    assert res.exit_code == 1
    listing = res.output.splitlines()[5:]
    assert listing == [
        "  gram[0][0] = 2 (nonzero)",
        "  gram[0][1] = 20 (nonzero)",
        "  gram[0][2] = 14 (nonzero)",
        "  gram[0][3] = 22 (nonzero)",
        "  gram[1][0] = 6 (nonzero)",
        "  gram[1][1] = 1 (nonzero)",
        "  gram[1][2] = 10 (nonzero)",
        "  gram[1][3] = 7 (nonzero)",
        "  ... and 8 more nonzero entries",
    ]


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


@pytest.mark.parametrize("mangle,msg", [
    (lambda d: d.update(k=list(range(200_000))),
     "SchemaError: k must be an integer, got [0, 1, 2, 3, 4, 5, ...]"),
    (lambda d: d.update(k="k" * 1_000_000), "SchemaError: k must be an integer, got 'kkk"),
    (lambda d: d.update(schema_version=[[0] * 1000] * 1000),
     "SchemaError: unsupported schema_version [[0, 0, 0, 0, 0, 0, ...], "),
    (lambda d: d.update(locators={str(i): i for i in range(200_000)}),
     "SchemaError: locators must be a list, got {'0': 0, '1': 1, "),
    (lambda d: d["multipliers"].__setitem__(0, 10 ** 4000), "SchemaError: log 1000"),
    (lambda d: d["field"].update(modulus=[1] * 200_000),
     "NonCanonicalModulus: modulus of length 200000 is not canonical for GF(16)"),
    # an integer k passes the schema and is rejected by GrsSpec
    (lambda d: d.update(k=10 ** 4000), "SchemaError: k = 1000"),
], ids=["long-list-k", "long-string-k", "nested-schema-version", "long-dict-locators",
        "huge-int-log", "long-modulus", "huge-int-k"])
def test_verify_rejects_long_values_in_bounded_messages(tmp_path, runner, mangle, msg):
    # the rejected value is summarized, not echoed: a 200 000-element k
    # used to write a 1.49 MB line to stderr
    doc = json.loads(json.dumps(encode_document(construct(5, 4, 3, 2, 2))))
    mangle(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(bad)])
    assert res.exit_code == 2, res.output[:1000]
    assert res.stderr.startswith(f"rejected: {msg}")
    assert len(res.stderr.encode()) < 1024


def test_verify_rejects_malformed_json(tmp_path, runner):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    res = runner.invoke(main, ["verify", str(p)])
    assert res.exit_code == 2
    assert "invalid JSON" in res.output


@pytest.mark.parametrize("raw", [b"\xff\xfe", b"[" * 200000 + b"]" * 200000,
                                 b'{"k": "\xe9"}'],
                         ids=["bom-bytes", "deep-nesting", "latin-1"])
def test_verify_rejects_unreadable_documents(tmp_path, runner, raw):
    # bad UTF-8 and nesting past the parser's depth are both invalid JSON
    p = tmp_path / "raw.json"
    p.write_bytes(raw)
    res = runner.invoke(main, ["verify", str(p)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "invalid JSON" in res.output


def _split_routes(monkeypatch, split=lambda spec: True):
    """Make the interpolation route fail on the specs ``split`` picks, while
    the gram route still passes: certify then raises VerificationMismatch."""
    real = verifier.dual_containment_check
    monkeypatch.setattr(verifier, "dual_containment_check",
                        lambda spec: (False, 0) if split(spec) else real(spec))


def test_construct_exit_3_on_route_split(runner, monkeypatch):
    _split_routes(monkeypatch)
    res = runner.invoke(main, ["construct", "--theorem", "1", "--q", "7",
                               "--h", "8", "--r", "5", "--k", "5"])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert "construction failed: VerificationMismatch: gram route says True" in res.stderr


def test_verify_exit_3_on_route_split(tmp_path, runner, monkeypatch):
    out, _ = _doc(tmp_path, runner, ["construct", "--family", "2", "--q", "5",
                                     "--h", "6", "--r", "5", "--k", "4"])
    _split_routes(monkeypatch)
    res = runner.invoke(main, ["verify", str(out)])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert ("certification FAILED: VerificationMismatch: gram route says True, "
            "interpolation route says False (first failing row j = 0)") in res.stderr


def test_verify_exit_3_on_a_document_out_of_memory(tmp_path, runner, monkeypatch):
    # a valid document whose certify runs out of memory (planted, not
    # allocated) exits 3 with a message: exit 1 would read as "false"
    out, _ = _doc(tmp_path, runner, ["construct", "--family", "2", "--q", "5",
                                     "--h", "6", "--r", "5", "--k", "4"])

    def planted(spec, **kw):
        raise MemoryError("planted failure")

    monkeypatch.setattr(cli, "certify", planted)
    res = runner.invoke(main, ["verify", str(out)])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert "certification FAILED: MemoryError: planted failure" in res.stderr


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


@pytest.mark.parametrize("args", [
    ["--family", "2", "--q", "5", "--h", "6", "--r", "3",
     "--i-list", "0,1,100000000000000000000000"],
    ["--family", "3", "--q", "7", "--h", "6", "--r", "2",
     "--i-list", "0,4611686018427387905"],
    ["--family", "5", "--q", "7", "--h", "3", "--r", "2",
     "--i-list", "0,9223372036854775807"],
], ids=["f2-past-int64", "f3-doubled-past-int64", "f5-int64-max"])
def test_construct_rejects_index_past_the_group_order(runner, args):
    # |i| >= q^2 - 1 is a bad input: no OverflowError traceback (exit 1),
    # and no exponent that overflows int64 into a failed build (exit 3)
    res = runner.invoke(main, ["construct", *args, "--k", "1"])
    assert res.exit_code == 2, res.output
    assert "RangeViolated: i_list entry" in res.output


def test_construct_keeps_in_range_index_document(tmp_path, runner):
    # recorded before index entries were bounded by the group order
    out, _ = _doc(tmp_path, runner,
                  ["construct", "--family", "2", "--q", "5", "--h", "6",
                   "--r", "3", "--k", "1", "--i-list", "0,1,-4"])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "59af748b840a03fb75acab80492cc13375eb0928d56001c100a40ee19fcd6e85")


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


def _enumerate_with_failing_cell(runner, monkeypatch, error):
    """Enumerate q <= 5, n <= 24 once as is, then with build_code raising
    ``error`` at the cell (2, 5, 6, 5, 4): the healthy and planted results."""
    args = ["enumerate", "--max-q", "5", "--max-n", "24", "--threads", "1"]
    healthy = runner.invoke(main, args)
    real = cli.build_code

    def planted(family, q, h, r, k, *rest):
        if (family, q, h, r, k) == (2, 5, 6, 5, 4):
            raise error
        return real(family, q, h, r, k, *rest)

    monkeypatch.setattr(cli, "build_code", planted)
    return healthy, runner.invoke(main, args)


def test_enumerate_reports_failing_cell_and_exits_3(runner, monkeypatch):
    healthy, res = _enumerate_with_failing_cell(runner, monkeypatch,
                                                NotFound("planted failure"))
    assert res.exit_code == 3
    assert "cell family=2 q=5 h=6 r=5 k=4: NotFound: planted failure" in res.stderr
    # every other row is unchanged; the failing one reports both checks failed
    assert res.stdout == healthy.stdout.replace("2,5,6,5,4,20,12,5,True,True",
                                                "2,5,6,5,4,20,12,5,False,False")
    assert "failed=1" in res.stderr


def test_enumerate_survives_a_cell_out_of_memory(runner, monkeypatch):
    # a cell too large for memory (planted, not allocated) is one failed
    # row, as a package error is; the run goes on and exits 3
    healthy, res = _enumerate_with_failing_cell(runner, monkeypatch,
                                                MemoryError("planted failure"))
    assert res.exit_code == 3
    assert "cell family=2 q=5 h=6 r=5 k=4: MemoryError: planted failure" in res.stderr
    assert res.stdout == healthy.stdout.replace("2,5,6,5,4,20,12,5,True,True",
                                                "2,5,6,5,4,20,12,5,False,False")
    assert "failed=1" in res.stderr


def test_enumerate_reports_route_split_and_exits_3(runner, monkeypatch):
    args = ["enumerate", "--max-q", "5", "--max-n", "24", "--threads", "1"]
    healthy = runner.invoke(main, args)
    _split_routes(monkeypatch, lambda spec: (spec.field.q, spec.n, spec.k) == (5, 20, 4)
                  and spec.provenance["family"] == 2)
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
    assert ("cell family=2 q=5 h=6 r=5 k=4: VerificationMismatch: gram route "
            "says True, interpolation route says False") in res.stderr
    # the enumeration goes on: only the split cell's row changes
    assert res.stdout == healthy.stdout.replace("2,5,6,5,4,20,12,5,True,True",
                                                "2,5,6,5,4,20,12,5,False,False")
    assert "failed=1" in res.stderr


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


def test_cli_import_leaves_multiprocessing_unloaded():
    # the process pool is imported only when enumerate runs with --threads > 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, qgrs.cli; print(sorted(m for m in sys.modules if m in "
            "('multiprocessing', 'concurrent.futures.process')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
