"""Exact dense linear algebra over GF(q^2).

Matrices are immutable: every operation returns a fresh object.  Entries are
int codes (see field.py), and elimination runs as numpy row operations on
the field's vectorized ops.  Pivoting is deterministic — first nonzero entry
in column order — so reduced echelon forms, ranks and nullspace bases are
reproducible across runs, which the serialization layer relies on.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import WrongShape
from .field import FieldSpec


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

    def _array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64).reshape(self.nrows, self.ncols)

    def entrywise_frobenius(self) -> "FMatrix":
        return FMatrix(self.field, self.field.vpow(self._array(), self.field.q).tolist(),
                       ncols=self.ncols)

    def mul_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix * column vector, both as int codes: one ``vcombine`` with
        the rows as coefficients and the entries of vec as the summands.
        No rows give (); no columns give the zero vector."""
        if len(vec) != self.ncols:
            raise WrongShape("vector length mismatch")
        if not self.nrows or not self.ncols:
            return (0,) * self.nrows
        col = np.array(vec, dtype=np.int64)[:, None]
        return tuple(self.field.vcombine(self._array(), col)[:, 0].tolist())

    # -- elimination ------------------------------------------------------------

    def rref(self) -> tuple["FMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        if self._rref_memo is not None:
            return self._rref_memo
        F = self.field
        A = self._array()
        pivots: list[int] = []
        pr = 0  # pivot row cursor
        for col in range(self.ncols):
            if pr == self.nrows:
                break
            nz = np.flatnonzero(A[pr:, col])
            if not nz.size:
                continue
            sel = pr + int(nz[0])
            if sel != pr:
                A[[pr, sel]] = A[[sel, pr]]
            # rows from pr on are zero left of col, so only col.. changes
            A[pr, col:] = F.vmul(A[pr, col:], F.vinv(A[pr, col]))
            others = np.flatnonzero(A[:, col])
            others = others[others != pr]
            if others.size:
                A[others, col:] = F.veliminate(A[others, col:], A[others, col, None],
                                               A[pr, col:])
            pivots.append(col)
            pr += 1
        rows = A.tolist()
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
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        # row f: 1 in free column f, minus R's pivot rows in the pivot columns
        basis = np.zeros((len(free), self.ncols), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, list(pivots)] = self.field.vneg(R._array()[:len(pivots), free].T)
        return tuple(map(tuple, basis.tolist()))

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
