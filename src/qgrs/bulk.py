"""Vectorized exact-arithmetic kernels.

numpy is used strictly as a bulk table-lookup engine: every value is an int
code and every operation routes through the field's dense op tables, so the
results are bit-identical to the scalar path (which the tests enforce).
Fields too large for dense tables fall back to scalar loops.
"""
from __future__ import annotations

import math

import numpy as np

from .field import FieldSpec, TABLE_ORDER_LIMIT


def has_tables(F: FieldSpec) -> bool:
    return F.order <= TABLE_ORDER_LIMIT


def digit_sum(F: FieldSpec, arr: np.ndarray, axis: int) -> np.ndarray:
    """Field-sum of an array of codes along one axis (addition is digitwise)."""
    p, d = F.p, 2 * F.e
    if p == 2:
        out = np.bitwise_xor.reduce(arr, axis=axis)
        return out.astype(np.int64)
    acc = None
    pw = 1
    for _ in range(d):
        digits = ((arr // pw) % p).sum(axis=axis) % p
        acc = digits * pw if acc is None else acc + digits * pw
        pw *= p
    return acc.astype(np.int64)


def power_codes(F: FieldSpec, base_codes: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """codes[e_idx, b_idx] = base^exp with the 0^0 = 1 convention."""
    base_codes = np.asarray(base_codes, dtype=np.int64)
    exps = np.asarray(exps, dtype=np.int64)
    n_units = F.order - 1
    out = np.zeros((exps.size, base_codes.size), dtype=np.int64)
    nz = base_codes != 0
    if nz.any():
        logs = F._log[base_codes[nz]]
        idx = (exps[:, None] * logs[None, :]) % n_units
        out[:, nz] = F._exp[idx]
    # zero base, zero exponent -> 1; zero base, positive exponent stays 0
    zero_base = np.flatnonzero(base_codes == 0)
    zero_exp = np.flatnonzero(exps == 0)
    if zero_base.size and zero_exp.size:
        out[np.ix_(zero_exp, zero_base)] = 1
    return out


def scale_rows(F: FieldSpec, rows: np.ndarray, scalars: np.ndarray) -> np.ndarray:
    """rows[i, :] * scalars[:] (columnwise scaling by a vector of codes)."""
    if has_tables(F):
        return F.np_mul[rows, np.broadcast_to(scalars, rows.shape)].astype(np.int64)
    out = np.zeros_like(rows)
    for i in range(rows.shape[0]):
        for j in range(rows.shape[1]):
            out[i, j] = F.mul_codes(int(rows[i, j]), int(scalars[j]))
    return out


def newton_coefficients(F: FieldSpec, node_codes: list[int],
                        value_rows: np.ndarray) -> np.ndarray:
    """Divided-difference coefficients for several value rows at once.

    Row r of the result holds the Newton coefficients (triangular basis,
    ascending order) of the interpolant through (node[i], value_rows[r, i]).
    Because the basis polynomial of order t has degree exactly t, the
    interpolant has degree <= D  iff  all coefficients beyond D vanish.
    """
    n = len(node_codes)
    vals = np.array(value_rows, dtype=np.int64)
    if vals.ndim == 1:
        vals = vals[None, :]
    if has_tables(F):
        mul, inv, neg, add = F.np_mul, F.np_inv, F.np_neg, F.np_add
        nodes = np.array(node_codes, dtype=np.int64)
        dd = vals.copy()
        for t in range(1, n):
            num = add[dd[:, t:], neg[dd[:, t - 1:-1]]]
            den = add[nodes[t:], neg[nodes[:-t]]]
            dd[:, t:] = mul[num, inv[den][None, :]]
        return dd
    dd = [[int(v) for v in row] for row in vals]
    for t in range(1, n):
        for r in dd:
            for i in range(n - 1, t - 1, -1):
                num = F.sub_codes(r[i], r[i - 1])
                den = F.sub_codes(node_codes[i], node_codes[i - t])
                r[i] = F.div_codes(num, den)
    return np.array(dd, dtype=np.int64)


# ---------------------------------------------------------------------------
# batched k x k eliminations for minor sweeps
# ---------------------------------------------------------------------------


def batch_minors_nonsingular(F: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """For a (B, k, k) stack of code matrices: which are nonsingular?

    Gaussian elimination on the whole batch at once, through flat table
    lookups.  Each step takes the first row with a nonzero entry in the
    leading column as pivot (argmax over the nonzero mask), swaps it to the
    top of every matrix, marks the matrices whose leading column is all zero
    as singular, and replaces each matrix by its Schur complement.  Once a
    2x2 complement [[a, b], [c, d]] is left, its determinant ad - bc is
    nonzero exactly when a*d != b*c; for k = 1 the entry itself decides.
    """
    mul, add = F.np_mul.ravel(), F.np_add.ravel()
    order = F.order
    M = np.array(mats, dtype=np.int32)
    B, k = M.shape[:2]
    ok = np.ones(B, dtype=bool)
    batch = np.arange(B)
    for _ in range(k - 2):
        nz = M[:, :, 0] != 0
        piv = nz.argmax(axis=1)
        ok &= nz[batch, piv]
        top = M[batch, piv]
        M[batch, piv] = M[:, 0]
        factor = mul[F.np_neg[M[:, 1:, 0]] * order + F.np_inv[top[:, 0]][:, None]]
        elim = mul[factor[:, :, None] * order + top[:, None, 1:]]
        M = add[M[:, 1:, 1:] * order + elim]
    if k >= 2:
        return ok & (mul[M[:, 0, 0] * order + M[:, 1, 1]]
                     != mul[M[:, 0, 1] * order + M[:, 1, 0]])
    return ok & (M[:, 0, 0] != 0) if k else ok


def schur_children(F: FieldSpec, R: np.ndarray, count: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One elimination step for each of the first ``count`` columns of R.

    R is an (m, w) code matrix.  For column c, the pivot row is the first
    row with a nonzero entry in c; child c, shape (m - 1, w), holds the other
    rows after the pivot row's multiple that clears column c is subtracted.  Row operations keep
    every maximal minor up to a nonzero factor, so a k-subset S of columns
    containing c has a nonzero minor exactly when child c's minor on S - {c}
    is nonzero.  alive[c] is False when column c is zero: then every subset
    through c is singular (and child c is meaningless).
    """
    mul, add = F.np_mul.ravel(), F.np_add.ravel()
    order = F.order
    m = R.shape[0]
    heads = R[:, :count]
    nz = heads != 0
    piv = nz.argmax(axis=0)
    cols = np.arange(count)
    alive = nz[piv, cols]
    rest = np.arange(m - 1)[None, :]
    rest = rest + (rest >= piv[:, None])               # (count, m - 1) rows kept
    factor = mul[F.np_neg[heads[rest, cols[:, None]]] * order
                 + F.np_inv[heads[piv, cols]][:, None]]
    scaled = mul[factor[:, :, None] * order + R[piv][:, None, :]]
    return alive, add[R[rest] * order + scaled]


def combinations_array(n: int, k: int, start: int, count: int) -> np.ndarray:
    """A (count, k) block of k-subsets of range(n) in lexicographic order,
    beginning at lexicographic rank ``start`` (unranked directly, so blocks
    deep inside a huge combination space cost nothing to reach)."""
    first = _unrank_lex(n, k, start)
    out = np.empty((count, k), dtype=np.int32)
    cur = list(first)
    for row in range(count):
        out[row] = cur
        # advance to next combination in lexicographic order
        i = k - 1
        while i >= 0 and cur[i] == n - k + i:
            i -= 1
        if i < 0:
            out = out[: row + 1]
            break
        cur[i] += 1
        for j in range(i + 1, k):
            cur[j] = cur[j - 1] + 1
    return out


def _unrank_lex(n: int, k: int, rank: int) -> list[int]:
    """Lexicographic unranking of k-subsets of range(n)."""
    out = []
    prev = -1
    for pos in range(k):
        c = prev + 1
        while True:
            block = math.comb(n - c - 1, k - pos - 1)
            if rank < block:
                break
            rank -= block
            c += 1
        out.append(c)
        prev = c
    return out


def _rank_lex(n: int, k: int, subset) -> int:
    """Lexicographic rank of a sorted k-subset of range(n); inverse of
    :func:`_unrank_lex`."""
    rank = 0
    prev = -1
    for pos, c in enumerate(subset):
        for skipped in range(prev + 1, c):
            rank += math.comb(n - skipped - 1, k - pos - 1)
        prev = c
    return rank
