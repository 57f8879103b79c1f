"""Matrix layer tests: frozen eliminations plus randomized algebraic laws."""
from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from qgrs.errors import WrongShape
from qgrs.field import make_field
from qgrs.matrix import FMatrix

from oracle import ScalarField


def _random_matrix(F, rng, nrows, ncols):
    return FMatrix(F, [[rng.randrange(F.order) for _ in range(ncols)]
                       for _ in range(nrows)])


def _reference_rref(F, rows, ncols):
    """Row reduction one scalar op at a time: the reference for rref()."""
    S = ScalarField(F)
    rows = [list(r) for r in rows]
    pivots = []
    pr = 0  # pivot row cursor
    for col in range(ncols):
        sel = None
        for i in range(pr, len(rows)):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv = S.inv(rows[pr][col])
        if inv != 1:
            rows[pr] = [S.mul(inv, c) for c in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][col]:
                f = rows[i][col]
                rows[i] = [S.sub(a, S.mul(f, b))
                           for a, b in zip(rows[i], rows[pr])]
        pivots.append(col)
        pr += 1
        if pr == len(rows):
            break
    return rows, tuple(pivots)


def _rank_deficient(F, rng, nrows, ncols):
    """Random rows, then some replaced by zero rows or by combinations of
    two others, so rank < min(nrows, ncols) is common."""
    S = ScalarField(F)
    rows = [[rng.randrange(F.order) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        kind = rng.randrange(4)
        if kind == 0:
            rows[i] = [0] * ncols
        elif kind == 1 and nrows > 2:
            a, b = rng.sample([j for j in range(nrows) if j != i], 2)
            ca, cb = rng.randrange(F.order), rng.randrange(F.order)
            rows[i] = [S.add(S.mul(ca, x), S.mul(cb, y))
                       for x, y in zip(rows[a], rows[b])]
    # a zero column now and then moves every later pivot
    if ncols and rng.randrange(2):
        j = rng.randrange(ncols)
        for r in rows:
            r[j] = 0
    return rows


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (13, 1), (2, 6), (3, 4)],
                         ids=["GF9", "GF16", "GF169", "GF4096", "GF6561"])
def test_rref_matches_scalar_reference(p, e):
    F = make_field(p, e)
    rng = random.Random(F.order)
    shapes = [(0, 3), (3, 0), (1, 1), (4, 4), (3, 7), (7, 3), (6, 6), (2, 9)]
    shapes += [(rng.randrange(1, 8), rng.randrange(1, 8)) for _ in range(30)]
    deficient = 0
    for nrows, ncols in shapes:
        rows = _rank_deficient(F, rng, nrows, ncols)
        R, pivots = FMatrix(F, np.array(rows, dtype=np.int64).reshape(nrows, ncols)).rref()
        want_rows, want_pivots = _reference_rref(F, rows, ncols)
        assert (R.array.tolist(), pivots) == (want_rows, want_pivots), rows
        deficient += len(pivots) < min(nrows, ncols)
    assert deficient > 10


def test_rref_of_tall_matrices_with_zero_rows_above_the_pivot():
    # each step picks its pivot below the cursor past zero rows, and the
    # fused update passes zero multipliers (and the zero rows) through
    F = make_field(3, 4)
    rng = random.Random(6561 + 1)
    for _ in range(30):
        ncols = rng.randrange(1, 6)
        nrows = ncols + rng.randrange(1, 6)
        rows = _rank_deficient(F, rng, nrows - 2, ncols)
        for _ in range(2):
            rows.insert(rng.randrange(len(rows) // 2 + 1), [0] * ncols)
        # a leading column with a single late entry: zero rows lie above
        # the first pivot however the rows were drawn
        if rng.randrange(2):
            rows = [[0] + r for r in rows]
            rows[-1][0] = rng.randrange(1, F.order)
        R, pivots = FMatrix(F, rows).rref()
        assert (R.array.tolist(), pivots) == _reference_rref(F, rows, len(rows[0]))


def test_rref_memo_is_frozen_and_in_range():
    rng = random.Random(41)
    for F in (make_field(3, 4), make_field(2, 3), make_field(5, 1)):
        for nrows, ncols in [(4, 7), (7, 4), (5, 5)]:
            A = FMatrix(F, _rank_deficient(F, rng, nrows, ncols))
            memo = A.rref()
            R = memo[0]
            assert A.rref() is memo
            assert R.array.dtype == np.int64 and R.shape == A.shape
            assert R.array.min() >= 0 and R.array.max() < F.order
            with pytest.raises(ValueError):
                R.array[0, 0] = 1


def test_frozen_rref_over_prime_subfield():
    # arithmetic on {0,1,2} inside GF(9) is plain mod-3 arithmetic
    F = make_field(3, 1)
    A = FMatrix(F, [[1, 2, 0], [0, 1, 1]])
    R, pivots = A.rref()
    assert pivots == (0, 1)
    assert R.array.tolist() == [[1, 0, 1], [0, 1, 1]]


def test_identity_and_zeros():
    F = make_field(5, 1)
    I = FMatrix(F, np.eye(4, dtype=np.int64))
    assert I.rank() == 4
    assert I.nullspace().shape == (0, 4)
    Z = FMatrix(F, np.zeros((3, 5), dtype=np.int64))
    assert Z.rank() == 0
    assert len(Z.nullspace()) == 5
    assert not Z.array.any()


def test_empty_matrix_needs_ncols():
    F = make_field(3, 1)
    with pytest.raises(WrongShape):
        FMatrix(F, [])
    E = FMatrix(F, np.zeros((0, 4), dtype=np.int64))
    assert E.shape == (0, 4)
    assert E.rank() == 0
    # kernel of a 0 x n map is everything
    ns = E.nullspace()
    assert len(ns) == 4


def test_nullspace_vectors_are_solutions():
    rng = random.Random(7)
    for F in (make_field(3, 1), make_field(2, 2)):
        for _ in range(40):
            A = _random_matrix(F, rng, rng.randrange(1, 5), rng.randrange(1, 6))
            ns = A.nullspace()
            assert len(ns) == A.ncols - A.rank()
            # identity on the free columns, which with A v = 0 fixes the basis
            free = [j for j in range(A.ncols) if j not in A.rref()[1]]
            assert [[v[j] for j in free] for v in ns] == \
                [[int(i == j) for j in range(len(free))] for i in range(len(free))]
            for v in ns:
                assert all(c == 0 for c in A.mul_vec(v))


def _row_equivalent(A, B):
    """Same row space: equal pivots and equal nonzero rows of the rrefs."""
    if A.ncols != B.ncols:
        return False
    (a, pa), (b, pb) = A.rref(), B.rref()
    return pa == pb and np.array_equal(a.array[:len(pa)], b.array[:len(pb)])


def test_rref_is_idempotent_and_row_equivalent():
    rng = random.Random(11)
    F = make_field(2, 2)
    for _ in range(30):
        A = _random_matrix(F, rng, rng.randrange(1, 5), rng.randrange(1, 6))
        R, _ = A.rref()
        R2, _ = R.rref()
        assert R == R2
        assert _row_equivalent(A, R)


def test_row_equivalence_under_random_row_ops():
    rng = random.Random(13)
    F = make_field(5, 1)
    S = ScalarField(F)
    A = _random_matrix(F, rng, 3, 5)
    rows = A.array.tolist()
    # scale a row and add a multiple of another
    c = rng.randrange(1, F.order)
    rows[1] = [S.mul(c, x) for x in rows[1]]
    f = rng.randrange(F.order)
    rows[2] = [S.add(a, S.mul(f, b)) for a, b in zip(rows[2], rows[0])]
    B = FMatrix(F, rows)
    assert _row_equivalent(A, B)
    # a generically perturbed matrix is not
    rows[0] = [S.add(x, 1) for x in rows[0]]
    C = FMatrix(F, rows)
    assert not _row_equivalent(A, C) or C.rref()[0] == A.rref()[0]


def test_vandermonde_rank():
    # distinct evaluation points give full rank — classical, used as oracle
    F = make_field(7, 1)
    S = ScalarField(F)
    pts = F.vexp(np.arange(6)).tolist()
    V = FMatrix(F, [[S.pow(x, j) for j in range(4)] for x in pts])
    assert V.rank() == 4
    W = FMatrix(F, [[S.pow(x, j) for j in range(8)] for x in pts])
    assert W.rank() == 6


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)],
                         ids=["GF4", "GF9", "GF16", "GF25", "GF49", "GF64"])
def test_rref_commutes_with_entrywise_frobenius(p, e):
    # Frobenius is a field automorphism, so reducing A^(q) gives rref(A)
    # with every entry raised to q, on the same pivots: the solvers read
    # "A is row-equivalent to A^(q)" as "rref(A) is base-valued"
    F = make_field(p, e)
    S = ScalarField(F)
    rng = random.Random(100 * p + e)
    cases = [np.zeros((3, 4), dtype=np.int64), np.zeros((0, 5), dtype=np.int64)]
    for _ in range(30):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 7)
        cases.append(_random_matrix(F, rng, nrows, ncols).array)
        # rank-deficient: every row a combination of at most two rows
        basis = _random_matrix(F, rng, rng.randrange(1, 3), ncols).array.tolist()
        rows = []
        for _ in range(nrows + 1):
            acc = [0] * ncols
            for b in basis:
                c = rng.randrange(F.order)
                acc = [S.add(x, S.mul(c, y)) for x, y in zip(acc, b)]
            rows.append(acc)
        cases.append(np.array(rows, dtype=np.int64))
    deficient = non_base = 0
    for array in cases:
        A = FMatrix(F, array)
        conj = FMatrix(F, [[S.frobenius(int(x)) for x in r] for r in array.tolist()]
                       if array.size else array)
        (R, pivots), (Rq, pivots_q) = A.rref(), conj.rref()
        assert pivots_q == pivots
        assert Rq.array.tolist() == [[S.frobenius(x) for x in r] for r in R.array.tolist()]
        deficient += A.rank() < min(A.shape)
        non_base += not all(S.in_base(x) for x in R.array.flat)
    assert deficient > 10 and non_base > 10


def test_matmul_and_mul_vec_agree():
    rng = random.Random(23)
    for F, (nrows, ncols) in itertools.product(
            (make_field(5, 1), make_field(2, 2), make_field(3, 2)),
            [(3, 4), (1, 1), (5, 2), (0, 4), (3, 0), (0, 0)]):
        rows = [[rng.randrange(F.order) for _ in range(ncols)] for _ in range(nrows)]
        A = FMatrix(F, np.array(rows, dtype=np.int64).reshape(nrows, ncols))
        v = [rng.randrange(F.order) for _ in range(ncols)]
        S = ScalarField(F)
        prod = []
        for r in A.array.tolist():
            acc = 0
            for a, b in zip(r, v):
                acc = S.add(acc, S.mul(a, b))
            prod.append(acc)
        assert tuple(prod) == A.mul_vec(v)


def test_block_diag_rank_adds():
    rng = random.Random(5)
    F = make_field(3, 1)
    A = _random_matrix(F, rng, 2, 3)
    B = _random_matrix(F, rng, 3, 2)
    D = FMatrix.block_diag(F, [A, B])
    assert D.shape == (5, 5)
    assert D.rank() == A.rank() + B.rank()
    assert np.array_equal(D.array[:2, :3], A.array)
    assert np.array_equal(D.array[2:, 3:], B.array)
    assert not D.array[:2, 3:].any() and not D.array[2:, :3].any()


@pytest.mark.parametrize("rows,exc", [
    ([[1, 2], [3]], WrongShape),
    ([1, 2, 3], WrongShape),
    ([[[1, 2]], [[3, 4]]], WrongShape),
    ([[1, -1]], ValueError),
    ([[1, 9]], ValueError),
], ids=["ragged", "1-D", "3-D", "code-minus-one", "code-order"])
def test_constructor_checks_whole_array(rows, exc):
    F = make_field(3, 1)
    assert F.order == 9
    with pytest.raises(exc):
        FMatrix(F, rows)


def test_array_is_read_only_and_owned():
    rng = random.Random(37)
    F = make_field(2, 2)
    src = np.array([[rng.randrange(F.order) for _ in range(5)] for _ in range(3)])
    M = FMatrix(F, src)
    src[0, 0] = (src[0, 0] + 1) % F.order  # the caller's array stays its own
    assert M.array[0, 0] != src[0, 0]
    before = M.array.copy()
    with pytest.raises(ValueError):
        M.array[0, 0] = 0
    M.rref()
    M.nullspace()
    assert np.array_equal(M.array, before)
    assert M.array.dtype == np.int64 and M.shape == (3, 5)
