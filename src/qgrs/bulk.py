"""Vectorized exact-arithmetic kernels.

numpy is used strictly as a bulk table-lookup engine: every value is an int
code, the package's only element representation, and every operation goes
through the field's vectorized ops (``FieldSpec.v*``), which work at every
order.  The tests hold the results to the table-free scalar reference in
``tests/oracle.py``.

Column k-subsets are ranked and unranked in lexicographic order against one
cached binomial table per (n, k) (:func:`comb_table`): :func:`unrank_lex`
turns a whole batch of ranks into subsets one position at a time, with no
per-subset Python loop, in the table's own dtype (int64, or Python ints once
C(n, k) passes 2^63).  The tests hold it to the scalar unranker kept in
``tests/oracle.py``.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .field import FieldSpec


def power_codes(F: FieldSpec, base_codes: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """codes[e_idx, b_idx] = base^exp with the 0^0 = 1 convention."""
    base_codes = np.asarray(base_codes, dtype=np.int64)
    exps = np.asarray(exps, dtype=np.int64)
    return F.vpow(base_codes[None, :], exps[:, None])


#: most entries of one batch of family 5's node-difference rows or of the
#: structural route's sampled minors.  glibc's malloc trims its heap above
#: twice the largest block freed so far; with 2 MB batches a process that
#: certifies many mid-size codes keeps its heap, where 512 KB ones (2^16
#: entries) made it fault its heap back in for each code
_BATCH_ENTRIES = 1 << 18


def newton_coefficients(F: FieldSpec, node_codes: list[int],
                        value_rows: np.ndarray, top: int) -> np.ndarray:
    """Newton coefficients (triangular basis) of orders n - top .. n - 1 of
    the interpolants through (a_i, u_i * value_rows[r, i]), one row per r,
    where a_i = node_codes[i] and u_i = prod_{l != i} (a_i - a_l).

    Order t has basis degree exactly t, so an interpolant has degree
    < n - top iff its row vanishes.  Order t is the divided difference
    sum_{i <= t} u_i f_i / prod_{l <= t, l != i} (a_i - a_l), and the node
    products cancel: it is sum_i f_i * prod_{l > t} (a_i - a_l), where the
    product is 0 for i > t (it holds a_i - a_i).  So the weights W[t, i]
    need no inverse and read only the last top - 1 nodes: the last row is
    all ones, and each row above is the row below times (a - a_{t + 1}).
    One field matrix product, ``F.vdot(f, W^T)``, gives every coefficient.
    """
    f = np.array(value_rows, dtype=np.int64, ndmin=2)
    n = f.shape[1]
    a = np.asarray(node_codes, dtype=np.int64)
    W = np.ones((top, n), dtype=np.int64)
    for j in range(top - 2, -1, -1):   # row j is order n - top + j
        W[j] = F.vmul(W[j + 1], F.vsub(a, a[n - top + j + 1]))
    return F.vdot(f, W.T)


# ---------------------------------------------------------------------------
# batched k x k eliminations for minor sweeps
# ---------------------------------------------------------------------------


def batch_minors_nonsingular(F: FieldSpec, mats: np.ndarray,
                             sizes=None) -> np.ndarray:
    """For a (B, k, k) stack of code matrices: which are nonsingular?

    Gaussian elimination on the whole batch at once, with row 0 as every
    matrix's pivot row.  At each step only the matrices whose row 0 leads
    with a zero swap in their first row with a nonzero lead; those with none
    are marked singular.  A block of an MDS code's reduced form never swaps:
    every entry of its Schur complements is nonzero.  Each matrix is then
    replaced by its Schur complement in one fused ``F.veliminate`` call.
    Once a 2x2 complement [[a, b], [c, d]] is left, its determinant ad - bc
    is nonzero exactly when a*d != b*c; for k = 1 the entry itself decides.

    With ``sizes``, nonincreasing, matrix i is the sizes[i] x sizes[i] block
    in the bottom-right corner of mats[i]; the rest of mats[i] is not read.
    One pass of k - 2 steps decides them all, largest first: the blocks of
    size s join the stack at the step that leaves its matrices s x s, so a
    block costs what a stack of its own size would.  Size 0 is nonsingular.
    """
    M = np.asarray(mats, dtype=np.int64)
    B, k = M.shape[:2]
    # ends[s]: how many matrices (a prefix of the stack) have size s or more
    ends = ([B] * (k + 1) + [0] if sizes is None else np.searchsorted(
        -np.asarray(sizes, dtype=np.intp), -np.arange(k + 2), side="right").tolist())
    ok = np.ones(B, dtype=bool)
    X = M[:ends[k]] if k <= 2 else M[:ends[k]].copy()   # only swaps write X
    for t in range(k - 2):
        if len(X) < ends[k - t]:
            X = np.concatenate((X, M[len(X):ends[k - t], t:, t:]))
        swap = np.flatnonzero(X[:, 0, 0] == 0)
        if swap.size:
            piv = (X[swap, :, 0] != 0).argmax(axis=1)
            ok[swap] &= X[swap, piv, 0] != 0
            X[swap, 0], X[swap, piv] = X[swap, piv], X[swap, 0]
        X = F.veliminate(X[:, 1:, 1:], X[:, 1:, 0, None], X[:, None, 0, 1:],
                         X[:, 0, 0, None, None])
    if k >= 2:
        if len(X) < ends[2]:
            X = np.concatenate((X, M[len(X):ends[2], k - 2:, k - 2:]))
        ok[:len(X)] &= (F.vmul(X[:, 0, 0], X[:, 1, 1])
                        != F.vmul(X[:, 0, 1], X[:, 1, 0]))
    if k >= 1 and ends[2] < ends[1]:
        ok[ends[2]:ends[1]] &= M[ends[2]:ends[1], k - 1, k - 1] != 0
    return ok


def schur_children(F: FieldSpec, R: np.ndarray, nodes: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
    """One elimination step per (node, column) pair, all in one batch.

    R is a (B, m, w) stack of code matrices.  Child i eliminates column
    cols[i] of R[nodes[i]]: the pivot row is the first row with a nonzero
    entry in that column (the caller guarantees one), and the child, shape
    (m - 1, w), holds the other rows after the pivot row's multiple that
    clears the column is subtracted.  Row operations keep every maximal
    minor up to a nonzero factor, so a k-subset S of columns containing c
    has a nonzero minor exactly when the child's minor on S - {c} is nonzero.
    """
    heads = R[nodes, :, cols]                          # (C, m)
    piv = (heads != 0).argmax(axis=1)
    rest = np.arange(R.shape[1] - 1)[None, :]
    rest = rest + (rest >= piv[:, None])               # (C, m - 1) rows kept
    pick = np.arange(len(nodes))[:, None]
    return F.veliminate(R[nodes[:, None], rest], heads[pick, rest, None],
                        R[nodes, piv][:, None, :],
                        heads[pick[:, 0], piv, None, None])


def combinations_array(n: int, k: int) -> np.ndarray:
    """All C(n, k) k-subsets of range(n), one row each, in lexicographic
    order."""
    return unrank_lex(n, k, range(math.comb(n, k)))


@functools.lru_cache(maxsize=128)
def comb_table(n: int, k: int) -> np.ndarray:
    """T[i, x] = min(C(x, i), C(n, k)) for 0 <= i <= k, 0 <= x <= n.

    Clipping at C(n, k) keeps every row nondecreasing and leaves every entry
    that ranking and unranking can select exact.  The dtype follows the
    data: int64 when C(n, k) fits, Python ints otherwise.  The cached array
    is read-only.
    """
    total = math.comb(n, k)
    T = np.zeros((k + 1, n + 1), dtype=object)
    T[0] = 1
    for i in range(1, k + 1):
        # hockey stick: C(x, i) = sum of C(y, i - 1) over y < x
        T[i, 1:] = np.cumsum(T[i - 1, :-1])
    T = np.minimum(T, total)
    if total < 2 ** 63:
        T = T.astype(np.int64)
    T.flags.writeable = False
    return T


def unrank_lex(n: int, k: int, ranks) -> np.ndarray:
    """(len(ranks), k) int32 array: row r is the k-subset of range(n) of
    lexicographic rank ranks[r].

    Combinadic unranking, one position at a time for all ranks together:
    the complement rank C(n, k) - 1 - r is sum_pos C(n - 1 - c_pos, k - pos),
    and each term is the largest table entry of its row not above what is
    left.  The ranks are held in the table's dtype: int64 below 2^63,
    Python ints above.
    """
    T = comb_table(n, k)
    rest = T[k, n] - 1 - np.asarray(ranks, dtype=T.dtype)
    out = np.empty((len(rest), k), dtype=np.int32)
    for pos in range(k):
        row = T[k - pos]
        x = np.searchsorted(row, rest, side="right") - 1
        rest -= row[x]
        out[:, pos] = n - 1 - x
    return out


def _rank_lex(n: int, k: int, subset) -> int:
    """Lexicographic rank of a sorted k-subset of range(n); inverse of
    :func:`unrank_lex`."""
    T = comb_table(n, k)
    x = n - 1 - np.asarray(subset, dtype=np.intp)
    return int(T[k, n] - 1 - T[np.arange(k, 0, -1), x].sum())
