"""Exact dense linear algebra over GF(q^2).

Matrices are immutable: every operation returns a fresh object.  Entries are
raw int codes internally (see field.py) to keep elimination loops cheap;
Felt objects appear only at the API edges.  Pivoting is deterministic —
first nonzero entry in column order — so reduced echelon forms, ranks and
nullspace bases are reproducible across runs, which the serialization layer
relies on.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .errors import WrongShape
from .field import Felt, FieldSpec


class FMatrix:
    """Immutable matrix over a single GF(q^2)."""

    __slots__ = ("field", "rows", "nrows", "ncols", "_rref_memo")

    def __init__(self, field: FieldSpec, rows: Sequence[Sequence[int]],
                 ncols: int | None = None) -> None:
        self.field = field
        self.rows = tuple(tuple(int(c) for c in r) for r in rows)
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise WrongShape("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise WrongShape("ncols disagrees with row length")
        else:
            if ncols is None:
                raise WrongShape("empty matrix needs explicit ncols")
            self.ncols = ncols
        for r in self.rows:
            for c in r:
                if not 0 <= c < field.order:
                    raise ValueError(f"code {c} out of range")
        self._rref_memo = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_felts(cls, rows: Sequence[Sequence[Felt]], field: FieldSpec | None = None,
                   ncols: int | None = None) -> "FMatrix":
        if field is None:
            if not rows or not rows[0]:
                raise WrongShape("cannot infer field from empty input")
            field = rows[0][0].field
        return cls(field, [[x.code for x in r] for r in rows], ncols=ncols)

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "FMatrix":
        return cls(field, [[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def block_diag(cls, field: FieldSpec, blocks: Iterable["FMatrix"]) -> "FMatrix":
        blocks = list(blocks)
        total_r = sum(b.nrows for b in blocks)
        total_c = sum(b.ncols for b in blocks)
        rows = [[0] * total_c for _ in range(total_r)]
        r0 = c0 = 0
        for b in blocks:
            for i, row in enumerate(b.rows):
                rows[r0 + i][c0:c0 + b.ncols] = row
            r0 += b.nrows
            c0 += b.ncols
        return cls(field, rows, ncols=total_c)

    # -- access ---------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    def entry(self, i: int, j: int) -> Felt:
        return Felt(self.rows[i][j], self.field)

    def is_zero(self) -> bool:
        return all(c == 0 for r in self.rows for c in r)

    # -- shape surgery ----------------------------------------------------------

    def transpose(self) -> "FMatrix":
        return FMatrix(self.field,
                       [[self.rows[i][j] for i in range(self.nrows)]
                        for j in range(self.ncols)], ncols=self.nrows)

    def delete_column(self, j: int) -> "FMatrix":
        if not 0 <= j < self.ncols:
            raise WrongShape(f"no column {j}")
        return FMatrix(self.field, [r[:j] + r[j + 1:] for r in self.rows],
                       ncols=self.ncols - 1)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "FMatrix":
        return FMatrix(self.field,
                       [[self.rows[i][j] for j in col_idx] for i in row_idx],
                       ncols=len(col_idx))

    # -- arithmetic -------------------------------------------------------------

    def entrywise_frobenius(self) -> "FMatrix":
        fr = self.field.frobenius_code
        return FMatrix(self.field, [[fr(c) for c in r] for r in self.rows],
                       ncols=self.ncols)

    def mul_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix * column vector, both as int codes."""
        if len(vec) != self.ncols:
            raise WrongShape("vector length mismatch")
        F = self.field
        out = []
        for r in self.rows:
            acc = 0
            for c, v in zip(r, vec):
                if c and v:
                    acc = F.add_codes(acc, F.mul_codes(c, v))
            out.append(acc)
        return tuple(out)

    def matmul(self, other: "FMatrix") -> "FMatrix":
        if self.ncols != other.nrows:
            raise WrongShape("inner dimensions differ")
        F = self.field
        ot = other.transpose()
        rows = []
        for r in self.rows:
            out_row = []
            for c in ot.rows:
                acc = 0
                for a, b in zip(r, c):
                    if a and b:
                        acc = F.add_codes(acc, F.mul_codes(a, b))
                out_row.append(acc)
            rows.append(out_row)
        return FMatrix(F, rows, ncols=other.ncols)

    # -- elimination ------------------------------------------------------------

    def rref(self) -> tuple["FMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        if self._rref_memo is not None:
            return self._rref_memo
        F = self.field
        rows = [list(r) for r in self.rows]
        pivots: list[int] = []
        pr = 0  # pivot row cursor
        for col in range(self.ncols):
            sel = None
            for i in range(pr, len(rows)):
                if rows[i][col]:
                    sel = i
                    break
            if sel is None:
                continue
            rows[pr], rows[sel] = rows[sel], rows[pr]
            inv = F.inv_code(rows[pr][col])
            if inv != 1:
                rows[pr] = [F.mul_codes(inv, c) for c in rows[pr]]
            for i in range(len(rows)):
                if i != pr and rows[i][col]:
                    f = rows[i][col]
                    rows[i] = [F.sub_codes(a, F.mul_codes(f, b))
                               for a, b in zip(rows[i], rows[pr])]
            pivots.append(col)
            pr += 1
            if pr == len(rows):
                break
        memo = (FMatrix(F, rows, ncols=self.ncols), tuple(pivots))
        self._rref_memo = memo
        return memo

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> tuple[tuple[int, ...], ...]:
        """Deterministic kernel basis as code vectors.

        One basis vector per free column (ascending); each has a 1 in its
        free position, so the basis is in "identity on free columns" form.
        """
        R, pivots = self.rref()
        F = self.field
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for fcol in free:
            v = [0] * self.ncols
            v[fcol] = 1
            for pi, pcol in enumerate(pivots):
                v[pcol] = F.neg_code(R.rows[pi][fcol])
            basis.append(tuple(v))
        return tuple(basis)

    def row_equivalent(self, other: "FMatrix") -> bool:
        """Same row space (shape-compatible in columns)."""
        if self.ncols != other.ncols:
            return False
        a, pa = self.rref()
        b, pb = other.rref()
        if pa != pb:
            return False
        ra = [r for r in a.rows if any(r)]
        rb = [r for r in b.rows if any(r)]
        return ra == rb

    # -- protocol -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FMatrix):
            return NotImplemented
        return ((self.field.p, self.field.e) == (other.field.p, other.field.e)
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.e, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"FMatrix({self.nrows}x{self.ncols} over {self.field!r})"
