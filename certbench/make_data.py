#!/usr/bin/env python3
"""Regenerate the benchmark's fixed inputs and reference records.

    python3 certbench/make_data.py            # about 4 minutes

Writes certbench/data/sweep.json (every acceptance-grid tuple: q in
{3,4,5,7,8,9,11,13}, n <= 64, all k) and certbench/data/documents.json (the
verify-docs documents).  Each entry carries the reference record of
workloads.record().  The checked-in files were generated at the commit that
added the benchmark; regenerating them after a change to qgrs would hide
any change of verdict or document, which is what they exist to catch.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qgrs import cli, constructions  # noqa: E402
from qgrs.field import field_for_q  # noqa: E402

import workloads  # noqa: E402

SWEEP_QS = (3, 4, 5, 7, 8, 9, 11, 13)
SWEEP_N_MAX = 64
DEFAULT_BUDGET = 10_000_000

# (group, q, family, h, r, k, minor_budget, word_budget)
# large: C(n, k) and the projective word count both exceed the CLI default
#   budgets, so the structural certificate decides (q = 81 has no dense
#   tables: its sampled minors go through FMatrix.rank).
# exhaustive: small fields with a minor budget below C(n, k), so the
#   exhaustive distance scan decides.
DOCUMENTS = [
    ("large", 16, 1, 17, 4, 9, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 16, 1, 17, 8, 11, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 16, 5, 15, 6, 6, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 16, 5, 3, 2, 10, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 25, 2, 26, 3, 13, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 25, 3, 8, 1, 15, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 25, 1, 13, 2, 10, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 25, 3, 24, 5, 17, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 49, 3, 48, 1, 25, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 49, 3, 48, 1, 8, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 49, 2, 50, 3, 10, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 64, 1, 65, 2, 32, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 64, 1, 65, 2, 16, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 64, 1, 65, 2, 8, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 64, 1, 65, 2, 5, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 81, 3, 80, 1, 6, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 81, 3, 80, 1, 12, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("large", 81, 3, 80, 2, 12, DEFAULT_BUDGET, DEFAULT_BUDGET),
    ("exhaustive", 5, 5, 4, 4, 3, 1000, DEFAULT_BUDGET),
    ("exhaustive", 5, 2, 6, 5, 4, 1000, DEFAULT_BUDGET),
    ("exhaustive", 7, 2, 8, 5, 4, 1000, DEFAULT_BUDGET),
    ("exhaustive", 8, 5, 7, 6, 3, 1000, DEFAULT_BUDGET),
    ("exhaustive", 8, 1, 3, 2, 4, 1000, DEFAULT_BUDGET),
    ("exhaustive", 9, 1, 10, 7, 3, 1000, DEFAULT_BUDGET),
    ("exhaustive", 9, 3, 4, 2, 4, 1000, DEFAULT_BUDGET),
]

# documents whose mutated copy is also verified: one multiplier's discrete
# log moves by one, which changes its norm, so both hermitian routes fail
MUTATED = {
    "large-q16-f1-n61-k9", "large-q25-f2-n72-k13", "large-q49-f3-n50-k8",
    "large-q64-f1-n127-k8", "large-q81-f3-n82-k6",
    "exhaustive-q5-f2-n20-k4", "exhaustive-q8-f5-n54-k3",
}


def _entry(key: str, group: str, doc: dict, minor_budget: int,
           word_budget: int) -> dict:
    entry = {"key": key, "group": group, "minor_budget": minor_budget,
             "word_budget": word_budget, "doc": doc}
    entry["expect"] = workloads.record(*workloads.doc_op(entry))
    return entry


def make_documents() -> list[dict]:
    out = []
    for group, q, family, h, r, k, mb, wb in DOCUMENTS:
        spec = constructions.construct(family, q, h, r, k)
        key = f"{group}-q{q}-f{family}-n{spec.n}-k{k}"
        doc = cli.encode_document(spec)
        out.append(_entry(key, group, doc, mb, wb))
        if key in MUTATED:
            F = field_for_q(q)
            bad = json.loads(json.dumps(doc))
            i = len(bad["multipliers"]) // 2
            bad["multipliers"][i] = (bad["multipliers"][i] + 1) % (F.order - 1)
            bad["provenance"]["mutated_multiplier"] = i
            entry = _entry(f"mutated-{key}", "mutated", bad, mb, wb)
            if entry["expect"]["herm_gram_ok"]:
                raise SystemExit(f"mutation of {key} kept self-orthogonality")
            out.append(entry)
        print(key, out[-1]["expect"]["mds_method"], file=sys.stderr)
    return out


def make_sweep() -> list[dict]:
    out = []
    for q in SWEEP_QS:
        for cell in constructions.iter_family_params(q, n_max=SWEEP_N_MAX):
            for k in range(1, cell.k_max + 1):
                args = (cell.family, q, cell.h, cell.r, k)
                out.append({"key": workloads.sweep_key(args), "args": list(args),
                            "n": cell.n,
                            "expect": workloads.record(*workloads.sweep_op(args))})
        print(f"q = {q}: {len(out)} tuples", file=sys.stderr)
    return out


def _write(name: str, entries: list[dict]) -> None:
    with open(workloads.DATA / name, "w") as fh:
        json.dump(entries, fh, separators=(",", ":"))
        fh.write("\n")


def main() -> None:
    workloads.DATA.mkdir(exist_ok=True)
    _write("documents.json", make_documents())
    _write("sweep.json", make_sweep())


if __name__ == "__main__":
    main()
