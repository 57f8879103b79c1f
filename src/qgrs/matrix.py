"""Exact dense linear algebra over GF(q^2).

A matrix is one read-only int64 array of int codes (see field.py), checked
once on construction for shape and code range.  Every operation returns a
fresh object.  Elimination makes one fused update per pivot: the scaled
pivot row clears its column in every row with a single ``veliminate``, rows
with a zero multiplier passing through unchanged.  The reduced form is
wrapped without a second copy or range check, since the field's tables
only produce codes in range.  Pivoting is deterministic — first nonzero
entry in column order — so reduced echelon forms, ranks and nullspace bases
are reproducible across runs, which the serialization layer relies on.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import WrongShape
from .field import FieldSpec


class FMatrix:
    """Immutable matrix over a single GF(q^2); an empty one is (0, n)."""

    __slots__ = ("field", "array", "_rref_memo")

    def __init__(self, field: FieldSpec,
                 rows: np.ndarray | Sequence[Sequence[int]]) -> None:
        try:
            array = np.array(rows, dtype=np.int64)
        except ValueError as exc:
            raise WrongShape(f"rows do not form a matrix: {exc}") from None
        if array.ndim != 2:
            raise WrongShape(f"need a 2-D matrix, got {array.ndim} dimensions")
        if array.size and not (array.min() >= 0 and array.max() < field.order):
            bad = array[(array < 0) | (array >= field.order)][0]
            raise ValueError(f"code {bad} out of range")
        array.flags.writeable = False
        self.field = field
        self.array = array
        self._rref_memo = None

    @classmethod
    def _trusted(cls, field: FieldSpec, array: np.ndarray) -> "FMatrix":
        """Wrap an int64 array of in-range codes that this module built; it
        is frozen, not copied or range-checked again."""
        array.flags.writeable = False
        out = cls.__new__(cls)
        out.field = field
        out.array = array
        out._rref_memo = None
        return out

    @classmethod
    def block_diag(cls, field: FieldSpec, blocks: Iterable["FMatrix"]) -> "FMatrix":
        blocks = list(blocks)
        out = np.zeros((sum(b.nrows for b in blocks), sum(b.ncols for b in blocks)),
                       dtype=np.int64)
        r0 = c0 = 0
        for b in blocks:
            out[r0:r0 + b.nrows, c0:c0 + b.ncols] = b.array
            r0 += b.nrows
            c0 += b.ncols
        return cls(field, out)

    # -- access ---------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return self.array.shape[0]

    @property
    def ncols(self) -> int:
        return self.array.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    # -- arithmetic -------------------------------------------------------------

    def mul_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix * column vector, both as int codes: one ``vdot`` with vec
        as a column.  No rows give (); no columns give the zero vector."""
        if len(vec) != self.ncols:
            raise WrongShape("vector length mismatch")
        col = np.array(vec, dtype=np.int64).reshape(-1, 1)
        return tuple(self.field.vdot(self.array, col)[:, 0].tolist())

    # -- elimination ------------------------------------------------------------

    def rref(self) -> tuple["FMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        if self._rref_memo is not None:
            return self._rref_memo
        F = self.field
        A = self.array.copy()
        pivots: list[int] = []
        pr = 0  # pivot row cursor
        for col in range(self.ncols):
            if pr == self.nrows:
                break
            nz = A[pr:, col] != 0
            sel = int(nz.argmax())
            if not nz[sel]:
                continue
            sel += pr
            if sel != pr:
                A[[pr, sel]] = A[[sel, pr]]
            # the pivot row is zero left of col, so only col.. changes; a
            # zero multiplier leaves its row as it is, and the pivot row
            # clears itself before the scaled row is written back
            row = F.vmul(A[pr, col:], F.vinv(A[pr, col]))
            A[:, col:] = F.veliminate(A[:, col:], A[:, col, None], row)
            A[pr, col:] = row
            pivots.append(col)
            pr += 1
        memo = (FMatrix._trusted(F, A), tuple(pivots))
        self._rref_memo = memo
        return memo

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> np.ndarray:
        """Deterministic kernel basis: a (dim, ncols) array of code vectors.

        One basis vector per free column (ascending); each has a 1 in its
        free position, so the basis is in "identity on free columns" form.
        """
        R, pivots = self.rref()
        free = sorted(set(range(self.ncols)).difference(pivots))
        # row f: 1 in free column f, minus R's pivot rows in the pivot columns
        basis = np.zeros((len(free), self.ncols), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, list(pivots)] = self.field.vneg(R.array[:len(pivots), free].T)
        return basis

    # -- protocol -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FMatrix):
            return NotImplemented
        return ((self.field.p, self.field.e) == (other.field.p, other.field.e)
                and np.array_equal(self.array, other.array))

    def __repr__(self) -> str:
        return f"FMatrix({self.nrows}x{self.ncols} over {self.field!r})"
