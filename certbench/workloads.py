"""The benchmark's workloads, their operations and the reference check.

An operation is what a user of qgrs waits for:

* on ``sweep-minors`` and ``sweep-small``, ``construct`` -> ``certify`` ->
  ``to_quantum`` for one acceptance-grid tuple at the sweep budgets
  (2 * 10^6 minors/words);
* on ``verify-docs``, ``cli.decode_document`` -> ``certify`` for one JSON
  document at that document's budgets, the way ``qgrs verify`` does it.

Every qgrs function is called through its module attribute at call time, so
that the wrappers installed by tracing.py see the call.  Each result is
compared with a reference record generated by make_data.py at the commit
that introduced the benchmark; any difference is a failed operation.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from qgrs import cli, constructions, verifier
from qgrs import field as qfield

DATA = Path(__file__).resolve().parent / "data"

SWEEP_BUDGET = 2_000_000
# The acceptance grid splits in two parts: "minors" tuples, whose C(n, k)
# maximal minors are decided literally and number at least MINOR_FLOOR, and
# "small" tuples, the rest.  sweep-small runs all 441 small tuples (about
# 10 s a pass).  All 176 minors tuples take minutes, too long for repeated
# passes in one run, so sweep-minors is a fixed systematic sample in C(n, k)
# order: every MINORS_STRIDE-th tuple up to MINORS_COMB_CAP (30 tuples,
# literal minors about 87 % of their time).  The seed orders the ops.
MINOR_FLOOR = 10_000
MINORS_COMB_CAP = 300_000
MINORS_STRIDE = 4


@dataclass(frozen=True)
class Op:
    """One operation: a key, its field's q, a cost proxy, the inputs and the
    reference record.  The proxy orders ops only to pick small ones."""

    key: str
    q: int
    size: int
    payload: Any
    expect: dict
    run: Callable[[Any], tuple]

    def __call__(self) -> tuple:
        return self.run(self.payload)


def sweep_op(args: tuple[int, int, int, int, int]) -> tuple:
    family, q, h, r, k = args
    spec = constructions.construct(family, q, h, r, k)
    cert = verifier.certify(spec, minor_budget=SWEEP_BUDGET,
                            word_budget=SWEEP_BUDGET)
    return spec, cert, constructions.to_quantum(spec, cert)


def doc_op(entry: dict) -> tuple:
    spec = cli.decode_document(entry["doc"])
    cert = verifier.certify(spec, minor_budget=entry["minor_budget"],
                            word_budget=entry["word_budget"])
    return spec, cert, cert.quantum


def record(spec, cert, quantum) -> dict:
    """The fields of a result that must match the reference exactly."""
    doc = json.dumps(cli.encode_document(spec), sort_keys=True)
    return {
        "herm_gram_ok": cert.herm_gram_ok,
        "herm_interp_ok": cert.herm_interp_ok,
        "mds_status": cert.mds.status.value,
        "mds_method": cert.mds.method,
        "mds_checked": cert.mds.checked,
        "quantum": str(quantum),
        "doc_sha256": hashlib.sha256(doc.encode()).hexdigest(),
    }


def sweep_key(args) -> str:
    family, q, h, r, k = args
    return f"f{family}-q{q}-h{h}-r{r}-k{k}"


def _load(name: str) -> list[dict]:
    with open(DATA / name) as fh:
        return json.load(fh)


def universe(workload: str) -> list[Op]:
    """Every operation of a workload, in a fixed order."""
    if workload == "verify-docs":
        return [Op(e["key"], e["doc"]["field"]["p"] ** e["doc"]["field"]["e"],
                   e["expect"]["mds_checked"] * e["doc"]["k"], e, e["expect"],
                   doc_op)
                for e in _load("documents.json")]
    if workload == "sweep-small":
        return sweep_part("small")
    if workload != "sweep-minors":
        raise ValueError(f"unknown workload {workload!r}")
    ops = [op for op in sweep_part("minors") if op.size <= MINORS_COMB_CAP]
    return sorted(ops, key=lambda op: (op.size, op.key))[::MINORS_STRIDE]


def sweep_part(part: str) -> list[Op]:
    """All grid tuples of one part of the acceptance grid ("minors" or
    "small"), in grid order."""
    ops = []
    for e in _load("sweep.json"):
        args = tuple(e["args"])
        comb = math.comb(e["n"], args[4])
        literal = MINOR_FLOOR <= comb <= SWEEP_BUDGET
        if literal == (part == "minors"):
            ops.append(Op(sweep_key(args), args[1], comb, args, e["expect"],
                          sweep_op))
    return ops


def load_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operations in the order the seed picks."""
    ops = universe(workload)
    random.Random(f"{workload}:{seed}").shuffle(ops)
    return ops


def check(op: Op, result: tuple) -> bool:
    return record(*result) == op.expect


def warmup_ops(ops: list[Op]) -> list[Op]:
    """The smallest operation of each field, in ascending q."""
    best: dict[int, Op] = {}
    for op in ops:
        cur = best.get(op.q)
        if cur is None or (op.size, op.key) < (cur.size, cur.key):
            best[op.q] = op
    return [best[q] for q in sorted(best)]


def warm_fields(ops: list[Op]) -> dict[str, float]:
    """Build every field the workload touches and run one op per field.

    Lazily built tables are thereby paid for before timing starts.  Returns
    the field-layer setup metrics, measured from outside the package.
    """
    rss0 = peak_rss_mb()
    build = warm = 0.0
    for op in warmup_ops(ops):
        t0 = time.perf_counter()
        qfield.field_for_q(op.q)
        t1 = time.perf_counter()
        op()
        build += t1 - t0
        warm += time.perf_counter() - t1
    return {"field.build_s": build, "field.warmup_s": warm,
            "field.setup_rss_mb": peak_rss_mb() - rss0}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
