"""Command-line surface: construct, verify, enumerate, table.

Code documents are JSON (schema-versioned; units serialized as discrete
logs, the zero locator as the string "zero"); enumeration emits CSV or
JSON.  Exit codes are script-friendly: 0 success, 1 verification returned
false, 2 bad input (hypothesis violation, malformed or unreadable document,
wrong modulus), 3 internal invariant breach — a constructed code failing
its own certificate, or the two hermitian routes disagreeing, is a bug, not
a user error.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from typing import Any

import click
import numpy as np

from .constructions import construct as build_code
from .constructions import iter_family_params, to_quantum
from .errors import (
    NonCanonicalModulus,
    ParamsRejected,
    QgrsError,
    RangeViolated,
    SchemaError,
    brief,
)
from .field import (
    DEFAULT_ORDER_LIMIT,
    check_modulus,
    make_field,
    prime_power_decompose,
)
from .grs import GrsSpec, hermitian_gram
from .verifier import DEFAULT_MINOR_BUDGET, DEFAULT_WORD_BUDGET, certify

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# code documents
# ---------------------------------------------------------------------------


def encode_document(spec: GrsSpec) -> dict[str, Any]:
    F = spec.field
    doc = {
        "schema_version": SCHEMA_VERSION,
        "field": {"p": F.p, "e": F.e, "modulus": list(F.modulus)},
        "k": spec.k,
        "locators": ["zero" if x == 0 else int(F.vlog(x)) for x in spec.locators],
        "multipliers": F.vlog(spec.multipliers).tolist(),
    }
    if spec.provenance is not None:
        doc["provenance"] = spec.provenance
    return doc


def _exact_int(value: Any, what: str) -> int:
    """A JSON integer; bools, floats and strings are malformations."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {brief(value)}")
    return value


def _json_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, got {brief(value)}")
    return value


def decode_document(doc: Any) -> GrsSpec:
    """Inverse of encode_document; every malformation maps to SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {brief(version)}")
    try:
        fd = doc["field"]
        p, e = _exact_int(fd["p"], "field.p"), _exact_int(fd["e"], "field.e")
        modulus = [_exact_int(c, "modulus coefficient")
                   for c in _json_list(fd["modulus"], "field.modulus")]
        k = _exact_int(doc["k"], "k")
        raw_locs = _json_list(doc["locators"], "locators")
        raw_mults = _json_list(doc["multipliers"], "multipliers")
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed document: {exc}") from exc
    try:
        check_modulus(p, e, modulus)
    except NonCanonicalModulus:
        raise
    except (QgrsError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc
    F = make_field(p, e)  # only now: building the tables is the slow part
    n_units = F.order - 1

    def _log(log: Any, what: str) -> int:
        log = _exact_int(log, f"{what} log")
        if not 0 <= log < n_units:
            raise SchemaError(f"log {brief(log)} outside [0, {n_units})")
        return log

    # every log is checked, in document order, before one exp lookup; "zero"
    # (log -1) is a locator only: a zero multiplier is never a unit
    logs = np.array([-1 if x == "zero" else _log(x, "locator") for x in raw_locs]
                    + [_log(x, "multiplier") for x in raw_mults], dtype=np.int64)
    codes = np.where(logs < 0, 0, F.vexp(logs)).tolist()
    locators, multipliers = tuple(codes[:len(raw_locs)]), tuple(codes[len(raw_locs):])
    provenance = doc.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise SchemaError(f"provenance must be an object, got {type(provenance).__name__}")
    try:
        return GrsSpec(F, locators, multipliers, k, provenance=provenance)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _parse_index_list(_ctx, _param, value: str | None) -> tuple[int, ...] | None:
    if value is None:
        return None
    try:
        return tuple(int(x) for x in value.split(","))
    except ValueError:
        raise click.BadParameter("expected comma-separated integers")


def _cert_summary(cert) -> str:
    lines = [
        f"  hermitian (gram route):          {'pass' if cert.herm_gram_ok else 'FAIL'}",
        f"  hermitian (interpolation route): {'pass' if cert.herm_interp_ok else 'FAIL'}",
        f"  mds ({cert.mds.method}):".ljust(35)
        + f"{'pass' if cert.mds_ok else cert.mds.status.value}",
        f"  checked: {cert.mds.checked}  [{cert.seconds:.2f}s]",
    ]
    if cert.mds.detail:
        lines.append(f"  detail: {cert.mds.detail}")
    return "\n".join(lines)


BUDGET_OPTIONS = [
    click.option("--minor-budget", type=int, default=DEFAULT_MINOR_BUDGET,
                 show_default=True, help="max k-subset minors to check literally"),
    click.option("--word-budget", type=int, default=DEFAULT_WORD_BUDGET,
                 show_default=True,
                 help="max projective codewords for exhaustive distance"),
]


def _with_budgets(fn):
    for opt in reversed(BUDGET_OPTIONS):
        fn = opt(fn)
    return fn


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@click.group()
def main() -> None:
    """Hermitian self-orthogonal GRS codes and their quantum parameters."""


@main.command("construct")
@click.option("--family", "--theorem", "family", type=int, required=True,
              help="construction family 1..5")
@click.option("--q", type=int, required=True)
@click.option("--h", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--i-list", callback=_parse_index_list, default=None,
              help="comma-separated coset indices")
@click.option("--j-list", callback=_parse_index_list, default=None,
              help="comma-separated odd-coset indices (family 4)")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write the code document here (default: stdout)")
@_with_budgets
def cmd_construct(family, q, h, r, k, i_list, j_list, out,
                  minor_budget, word_budget):
    """Validate, build, certify, and emit one code."""
    try:
        spec = build_code(family, q, h, r, k, i_list, j_list)
        cert = certify(spec, minor_budget=minor_budget, word_budget=word_budget)
    except ParamsRejected as exc:
        click.echo(f"rejected: {type(exc).__name__}: {exc}", err=True)
        sys.exit(2)
    except (QgrsError, MemoryError) as exc:
        # a solver failure, a route split or a cell too large for memory
        click.echo(f"construction failed: {type(exc).__name__}: {exc}", err=True)
        sys.exit(3)
    if not (cert.herm_ok and cert.mds_ok):
        click.echo("certification FAILED", err=True)
        click.echo(_cert_summary(cert), err=True)
        sys.exit(3)
    qp = to_quantum(spec, cert)
    click.echo(str(qp))
    click.echo(_cert_summary(cert))
    doc = json.dumps(encode_document(spec), indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(doc + "\n")
        click.echo(f"wrote {out}")
    else:
        click.echo(doc)


@main.command("verify")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_with_budgets
def cmd_verify(path, minor_budget, word_budget):
    """Re-run both hermitian routes and the MDS ladder over a document."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
        click.echo(f"invalid JSON: {exc}", err=True)
        sys.exit(2)
    try:
        spec = decode_document(doc)
    except QgrsError as exc:
        click.echo(f"rejected: {type(exc).__name__}: {exc}", err=True)
        sys.exit(2)
    try:
        cert = certify(spec, minor_budget=minor_budget, word_budget=word_budget)
    except (QgrsError, MemoryError) as exc:   # a route split, or out of memory
        click.echo(f"certification FAILED: {type(exc).__name__}: {exc}", err=True)
        sys.exit(3)
    n, k = spec.n, spec.k
    click.echo(f"[{n}, {k}] code over GF({spec.field.order})")
    click.echo(_cert_summary(cert))
    if cert.quantum is not None:
        click.echo(f"  quantum: {cert.quantum}")
    if not cert.herm_ok:
        gram = hermitian_gram(spec)
        rows, cols = gram.nonzero()  # row-major
        for i, j in zip(rows[:8], cols[:8]):
            click.echo(f"  gram[{i}][{j}] = {gram[i, j]} (nonzero)")
        if len(rows) > 8:
            click.echo(f"  ... and {len(rows) - 8} more nonzero entries")
    sys.exit(0 if (cert.herm_ok and cert.mds_ok) else 1)


def _enumerate_worker(args: tuple[int, ...]) -> tuple[dict[str, Any], str | None]:
    """One grid row, and the message of the error (a package error, or
    running out of memory) that kept the cell from being built or certified,
    if any; such a row reports both certificates as failed."""
    family, q, h, r, k, n, minor_budget, word_budget = args
    row = {
        "family": family, "q": q, "h": h, "r": r, "k": k,
        "n": n, "kq": n - 2 * k, "d": k + 1,
        "herm_ok": False, "mds_ok": False,
    }
    try:
        spec = build_code(family, q, h, r, k)
        cert = certify(spec, minor_budget=minor_budget, word_budget=word_budget)
    except (QgrsError, MemoryError) as exc:
        return row, (f"cell family={family} q={q} h={h} r={r} k={k}: "
                     f"{type(exc).__name__}: {exc}")
    row.update(herm_ok=cert.herm_ok, mds_ok=cert.mds_ok)
    return row, None


@main.command("enumerate")
@click.option("--max-q", type=click.IntRange(max=math.isqrt(DEFAULT_ORDER_LIMIT)),
              default=13, show_default=True)
@click.option("--max-n", type=int, default=64, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--threads", type=int, default=1, show_default=True,
              help="worker processes for construction + certification")
@click.option("--k-max-only/--all-k", default=False, show_default=True,
              help="emit only the top dimension of each cell")
@_with_budgets
def cmd_enumerate(max_q, max_n, fmt, threads, k_max_only,
                  minor_budget, word_budget):
    """Construct and certify every admissible tuple within the bounds.

    Exits 0 when every row certifies, 1 when some certificate fails, and 3
    when some cell could not be built or certified (reported on stderr, its
    row marked failed)."""
    jobs: list[tuple[int, ...]] = []
    for q in range(2, max_q + 1):
        try:
            prime_power_decompose(q)
        except ValueError:
            continue
        for cell in iter_family_params(q, n_max=max_n):
            ks = [cell.k_max] if k_max_only else range(1, cell.k_max + 1)
            for k in ks:
                jobs.append((cell.family, q, cell.h, cell.r, k, cell.n,
                             minor_budget, word_budget))
    jobs.sort()
    if threads > 1:
        # imported here: it pulls in multiprocessing, about 2 MB of RSS
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_enumerate_worker, jobs, chunksize=4))
    else:
        results = [_enumerate_worker(j) for j in jobs]
    rows = [row for row, _ in results]
    errors = [error for _, error in results if error is not None]
    for error in errors:
        click.echo(error, err=True)

    fields = ["family", "q", "h", "r", "k", "n", "kq", "d", "herm_ok", "mds_ok"]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        click.echo(buf.getvalue(), nl=False)
    else:
        click.echo(json.dumps(rows, indent=2))
    certified = sum(1 for r in rows if r["herm_ok"] and r["mds_ok"])
    failed = len(rows) - certified
    click.echo(f"constructed={len(rows)} certified={certified} failed={failed}",
               err=True)
    if errors:
        sys.exit(3)
    sys.exit(0 if failed == 0 else 1)


@main.command("table")
@click.argument("q", type=int)
def cmd_table(q):
    """Admissible (h, r) cells at this q with the top distance each reaches."""
    try:
        cells = list(iter_family_params(q))
    except RangeViolated as exc:
        click.echo(f"rejected: {exc}", err=True)
        sys.exit(2)
    threshold = q / 2 + 1
    click.echo(f"q = {q}: maximal-distance cells "
               f"(* marks d > q/2 + 1 = {threshold:g})")
    click.echo(f"{'family':>6} {'h':>4} {'r':>4} {'n':>6} {'d_max':>6}")
    for cell in cells:
        d_max = cell.k_max + 1
        mark = " *" if d_max > threshold else ""
        click.echo(f"{cell.family:>6} {cell.h:>4} {cell.r:>4} "
                   f"{cell.n:>6} {d_max:>6}{mark}")


if __name__ == "__main__":
    main()
