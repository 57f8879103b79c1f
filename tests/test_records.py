"""Frozen record table: every constructed document, byte for byte.

``tests/data/records.json`` holds one row per construction cell: its
arguments, its index lists, and the sha256 of its encoded document (the
hash certbench records).  The test rebuilds every row and compares.  Rows
are keyed by their construction arguments, so certification fields
(hermitian verdicts, MDS method and count, quantum parameters) can be added
to the same rows later.

The grid is families 1-4 at q <= 32 with n <= 128, and at q in {49, 64, 81}
with n <= 200, each cell at k in {1, k_max // 2, k_max}; plus a few cells
with non-default index lists; plus family 5 at q <= 13 with n <= 64 at the
same three k, on both its explicit and its kernel path.  Regenerate the
table (only when documents change on purpose) with

    PYTHONPATH=src python tests/test_records.py
"""
from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from qgrs import cli
from qgrs.constructions import construct, iter_family_params

TABLE = Path(__file__).parent / "data" / "records.json"

GRID = (
    ((2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32), 128),
    ((49, 64, 81), 200),
)
#: family 5 is pinned on a smaller grid: its kernel path solves a profile
#: system per cell
F5_GRID = ((2, 3, 4, 5, 7, 8, 9, 11, 13), 64)

#: (family, q, h, r, k, i_list, j_list) cells off the default index lists
INDEXED = [
    (2, 5, 6, 5, 4, (0, 1, 2, 3, 5), None),
    (2, 7, 8, 5, 5, (1, 2, 3, 5, 7), None),
    (2, 11, 12, 3, 1, (0, 5, -1), None),
    (2, 11, 12, 3, 5, (14, 5, 9), None),
    (3, 13, 12, 3, 6, (1, 4, 5), None),
    (3, 13, 12, 3, 9, (-1, 2, 9), None),
    (3, 9, 8, 2, 3, (3, 1), None),
    (4, 7, 6, 4, 4, (0, 2), (1, 2)),
    (4, 13, 12, 7, 9, (0, 2, 3, 5), (1, 4, 5)),
    (4, 13, 12, 9, 10, (5, 4, 3, 2, 1), (0, 2, 9, 11)),
]


def _grid(qs, n_max: int, family_5: bool) -> list[tuple]:
    return [(cell.family, q, cell.h, cell.r, k, None, None)
            for q in qs for cell in iter_family_params(q, n_max=n_max)
            if (cell.family == 5) == family_5
            for k in sorted({1, cell.k_max // 2, cell.k_max} - {0})]


def cells() -> list[tuple]:
    """The table's cells in row order."""
    return ([c for qs, n_max in GRID for c in _grid(qs, n_max, False)]
            + INDEXED + _grid(*F5_GRID, True))


def row(cell: tuple) -> dict:
    family, q, h, r, k, i_list, j_list = cell
    spec = construct(family, q, h, r, k, i_list, j_list)
    doc = json.dumps(cli.encode_document(spec), sort_keys=True)
    return {"args": [family, q, h, r, k],
            "i_list": None if i_list is None else list(i_list),
            "j_list": None if j_list is None else list(j_list),
            "doc_sha256": hashlib.sha256(doc.encode()).hexdigest()}


def test_constructed_documents_match_the_frozen_table():
    t0 = time.time()
    frozen = json.loads(TABLE.read_text())
    built = [row(c) for c in cells()]
    assert [r["args"] for r in built] == [r["args"] for r in frozen]
    moved = [b for b, f in zip(built, frozen) if b != f]
    assert not moved, f"{len(moved)} of {len(frozen)} rows moved, first {moved[0]}"
    print(f"\n{len(frozen)} frozen documents rebuilt in {time.time() - t0:.2f} s")


if __name__ == "__main__":
    rows = [row(c) for c in cells()]
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} rows to {TABLE}")
