"""Solver route tests with planted-solution oracles."""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import re

import numpy as np
import pytest

from qgrs import cli, constructions
from qgrs.errors import (
    ColumnDependence,
    FrobeniusHypothesisFailed,
    HasZeroCoordinate,
    HypothesisFailed,
    NoValidShift,
    NotASolution,
    NotFound,
    QgrsError,
)
from qgrs.field import FieldSpec, make_field
from qgrs.matrix import FMatrix
from qgrs.solver import (
    EXHAUST_LIMIT,
    _SAMPLE_BATCH,
    _SAMPLE_SEED,
    _SPAN_BLOCK,
    all_nonzero_in_span,
    descend_to_base,
    solve_all_nonzero,
    solve_projective_unique,
)

from oracle import ScalarField


def _combine(F, coeffs, basis):
    """Scalar reference for one span combination: sum_d coeffs[d] * basis[d]."""
    S = ScalarField(F)
    acc = [0] * len(basis[0])
    for t, row in zip(coeffs, basis):
        for i, v in enumerate(row):
            acc[i] = S.add(acc[i], S.mul(t, v))
    return tuple(acc)


def _base_units(F):
    return [c for c in F.base_codes() if c]


def _scaled_vandermonde(F, rng, nrows, ncols):
    """(nrows x ncols) generalized Vandermonde over the base subfield.

    Columns are d_l * x_l^(1..nrows) with distinct base nodes x_l and nonzero
    base scalars d_l: every maximal minor is then nonzero.
    """
    S = ScalarField(F)
    nodes = rng.sample(_base_units(F), ncols)
    scalars = [rng.choice(_base_units(F)) for _ in range(ncols)]
    rows = []
    for e in range(1, nrows + 1):
        rows.append([S.mul(d, S.pow(x, e)) for x, d in zip(nodes, scalars)])
    return FMatrix(F, rows)


def _random_row_scaling(F, rng, A):
    """Scale each row by a random full-field unit: kernel unchanged, and the
    matrix stays row-equivalent to its entrywise q-th power."""
    S = ScalarField(F)
    rows = []
    for r in A.array.tolist():
        s = rng.randrange(1, F.order)
        rows.append([S.mul(s, c) for c in r])
    return FMatrix(F, rows)


# ---------------------------------------------------------------- unique route


def test_projective_unique_frozen_tiny():
    F = make_field(3, 1)
    A = FMatrix(F, [[1, 1]])
    assert solve_projective_unique(A) == (2, 1)


def test_projective_unique_r_equals_one():
    F = make_field(5, 1)
    A = FMatrix(F, np.zeros((0, 1), dtype=np.int64))
    assert solve_projective_unique(A) == (1,)


@pytest.mark.parametrize("q,p,e", [(5, 5, 1), (7, 7, 1), (9, 3, 2)])
def test_projective_unique_randomized(q, p, e):
    F = make_field(p, e)
    S = ScalarField(F)
    rng = random.Random(q)
    for r in range(2, 6):
        if r > q - 1:
            continue
        B = _scaled_vandermonde(F, rng, r - 1, r)
        A = _random_row_scaling(F, rng, B)
        codes = solve_projective_unique(A)
        # the kernel line's basis vector, returned with no unit scaling
        assert codes == tuple(A.nullspace()[0].tolist())
        assert all(codes)
        assert all(S.in_base(c) for c in codes)
        assert not any(A.mul_vec(codes))
        # kernel dimension is 1, so the answer is unique up to scaling
        assert len(A.nullspace()) == 1
        # a taller system with the same row space: A stacked with random
        # combinations of its rows, in shuffled order
        combos = [[rng.randrange(F.order) for _ in range(r - 1)]
                  for _ in range(rng.randrange(1, 2 * r))]
        rows = A.array.tolist() + [list(_combine(F, c, A.array.tolist()))
                                   for c in combos]
        rng.shuffle(rows)
        stacked = FMatrix(F, rows)
        assert solve_projective_unique(stacked) == codes
        assert codes == tuple(stacked.nullspace()[0].tolist())


def test_projective_unique_shape_and_dependence_errors():
    F = make_field(5, 1)
    # three independent rows in two unknowns: the kernel is trivial
    with pytest.raises(ColumnDependence, match="kernel has dimension 0"):
        solve_projective_unique(FMatrix(F, np.array([[1, 2, 3], [2, 3, 4]]).T))
    # one independent row in three unknowns: a 2-D kernel
    with pytest.raises(ColumnDependence, match="kernel has dimension 2"):
        solve_projective_unique(FMatrix(F, [[1, 0, 2], [2, 0, 4]]))
    # a 1-D kernel that is zero at column 0: the other columns are dependent
    with pytest.raises(ColumnDependence, match="columns other than 0"):
        solve_projective_unique(FMatrix(F, [[1, 0, 0], [0, 1, 2]]))


def test_projective_unique_frobenius_hypothesis_error():
    F = make_field(3, 1)
    g = int(F.vexp(1))
    # rows [1, g] vs conjugate [1, g^3]: different row spaces
    A = FMatrix(F, [[1, g]])
    with pytest.raises(FrobeniusHypothesisFailed):
        solve_projective_unique(A)


# ---------------------------------------------------------------- counting route


def _planted_kernel_matrix(F, rng, nrows, ncols):
    """Random rows orthogonal to a planted totally nonzero vector."""
    S = ScalarField(F)
    x = [rng.randrange(1, F.order) for _ in range(ncols)]
    rows = []
    for _ in range(nrows):
        r = [rng.randrange(F.order) for _ in range(ncols - 1)]
        acc = 0
        for c, v in zip(r, x):
            acc = S.add(acc, S.mul(c, v))
        last = S.div(S.neg(acc), x[-1])
        rows.append(r + [last])
    return FMatrix(F, rows), x


def test_all_nonzero_planted_instances():
    F = make_field(3, 1)
    rng = random.Random(17)
    found = 0
    for _ in range(25):
        A, _x = _planted_kernel_matrix(F, rng, 2, 5)
        try:
            out = solve_all_nonzero(A)
        except HypothesisFailed:
            continue  # the random instance happened to violate the rank condition
        assert all(out)
        assert not any(A.mul_vec(out))
        found += 1
    assert found >= 15


def test_all_nonzero_field_too_small():
    F = make_field(3, 1)
    A = FMatrix(F, np.zeros((1, 9), dtype=np.int64))
    with pytest.raises(HypothesisFailed):
        solve_all_nonzero(A)


def test_all_nonzero_rank_drop_detected():
    F = make_field(5, 1)
    A = FMatrix(F, np.eye(3, dtype=np.int64))
    with pytest.raises(HypothesisFailed):
        solve_all_nonzero(A)


def test_all_nonzero_sampled_path():
    # tiny exhaust limit forces the seeded sampling branch
    F = make_field(5, 1)
    rng = random.Random(42)
    A, _ = _planted_kernel_matrix(F, rng, 1, 4)
    out = solve_all_nonzero(A, exhaust_limit=1)
    assert all(out) and not any(A.mul_vec(out))


def test_all_nonzero_in_span_none_for_empty_basis():
    F = make_field(3, 1)
    assert all_nonzero_in_span(F, [], [0, 1, 2]) is None


def test_all_nonzero_in_span_restricted_scalars():
    F = make_field(3, 1)
    S = ScalarField(F)
    basis = [(1, 1, 0), (0, 1, 1)]
    out = all_nonzero_in_span(F, basis, F.base_codes())
    assert out is not None
    assert all(out)
    # combination really lies in the base-scalar span of the basis rows
    assert all(S.in_base(c) for c in out)


def _first_enumerated_hit(F, basis, scalars):
    """Reference for the structured and exhaustive stages: the basis sum and
    the unit vectors, then itertools.product over the sorted scalars, each
    combined with the scalar _combine.  Returns (row, vector) of the first
    totally nonzero combination, or None."""
    dim = len(basis)
    structured = [(1,) * dim] + [tuple(int(i == d) for i in range(dim)) for d in range(dim)]
    candidates = itertools.chain(
        structured, itertools.product(sorted(set(scalars)), repeat=dim))
    for row, coeffs in enumerate(candidates):
        x = _combine(F, coeffs, basis)
        if all(x):
            return row, x
    return None


def test_exhaustive_span_hit_in_structured_block():
    # over GF(9) the basis sum is (0, 2, 0) and the first unit vector
    # answers; enumeration alone would answer b1 + b2 = (1, 1, 2) first
    F = make_field(3, 1)
    basis = [(2, 1, 1), (1, 0, 1), (0, 1, 1)]
    row, expect = _first_enumerated_hit(F, basis, range(F.order))
    assert (row, expect) == (1, (2, 1, 1))
    assert all_nonzero_in_span(F, basis, range(F.order)) == expect


def test_exhaustive_span_hit_past_first_block():
    # GF(25), three rows: column (1, 0, 0) kills every row with c0 = 0, so
    # the first 25^2 = 625 enumerated rows miss; the other columns kill the
    # structured candidates and the next rows, up to row 680
    F = make_field(5, 1)
    basis = [(1, 0, 1, 1, 1), (0, 1, 4, 1, 2), (0, 0, 0, 1, 3)]
    row, expect = _first_enumerated_hit(F, basis, range(F.order))
    assert row > F.order ** 2 > _SPAN_BLOCK
    assert all_nonzero_in_span(F, basis, range(F.order)) == expect


def test_exhaustive_span_none_when_exhausted():
    # GF(16): c0 * 1 + c1 * u vanishes on c0 = u c1, and every unit u has a
    # column, as do c0 = 0 and c1 = 0; no combination is totally nonzero
    F = make_field(2, 2)
    units = range(1, F.order)
    basis = [(1, 0) + (1,) * len(units), (0, 1) + tuple(units)]
    assert _first_enumerated_hit(F, basis, range(F.order)) is None
    assert all_nonzero_in_span(F, basis, range(F.order)) is None


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_exhaustive_span_matches_product_order(p, e):
    F = make_field(p, e)
    rng = random.Random(10 * p + e)
    for scalars in (range(F.order), F.base_codes()):
        for _ in range(30):
            dim, n = rng.randint(1, 3), rng.randint(2, 8)
            basis = [tuple(rng.randrange(F.order) if rng.random() < 0.6 else 0
                           for _ in range(n)) for _ in range(dim)]
            ref = _first_enumerated_hit(F, basis, scalars)
            got = all_nonzero_in_span(F, basis, scalars)
            assert got == (None if ref is None else ref[1])


def _first_drawn_hit(F, basis, scalars, budget=None):
    """Reference for the sampled branch: redraw the seeded batches and scan
    their rows in draw order with the scalar combination.  With a
    ``budget`` (a multiple of _SAMPLE_BATCH), None once it is drawn.

    A row whose coefficient is 0 on the only basis row that supports some
    column j combines to 0 at j, so it is no hit: for such a row only
    column j is combined, and checked to be 0."""
    sc = np.array(sorted(set(scalars)))
    sole = [(d, j) for j, d in _sole_supports(basis)]
    rng = np.random.default_rng(_SAMPLE_SEED)
    row = 0
    while budget is None or row < budget:
        T = sc[rng.integers(0, len(sc), size=(_SAMPLE_BATCH, len(basis)))]
        for coeffs in T.tolist():
            j = next((j for d, j in sole if coeffs[d] == 0), None)
            if j is not None:
                assert _combine(F, coeffs, [[b[j]] for b in basis]) == (0,)
            else:
                x = _combine(F, coeffs, basis)
                if all(x):
                    return row, x
            row += 1
    return None


@pytest.mark.parametrize("args,hit_row", [
    ((5, 5, 4, 4, 2), 140),
    ((5, 7, 2, 2, 6), _SAMPLE_BATCH + 113),
    ((5, 8, 7, 7, 7), 6 * _SAMPLE_BATCH + 1199),
], ids=["past-first-block", "one-missed-batch", "six-missed-batches"])
def test_sampled_span_returns_first_hit_in_draw_order(monkeypatch, args, hit_row):
    # the family-5 kernel path hands its profile kernel to the span search
    kernels = []

    def spy(F, basis, scalars, **kw):
        kernels.append((F, basis, scalars))
        return all_nonzero_in_span(F, basis, scalars, **kw)

    monkeypatch.setattr(constructions, "all_nonzero_in_span", spy)
    constructions.construct(*args)
    (F, basis, scalars), = kernels
    dim = len(basis)
    # neither the structured candidates nor enumeration can answer
    assert len(set(scalars)) ** dim > EXHAUST_LIMIT
    structured = [(1,) * dim] + [tuple(int(i == d) for i in range(dim)) for d in range(dim)]
    assert not any(all(_combine(F, c, basis)) for c in structured)
    row, expect = _first_drawn_hit(F, basis, scalars)
    assert row == hit_row
    assert all_nonzero_in_span(F, basis, scalars) == expect


def _sole_supports(basis):
    """(column, row) for each column whose only nonzero entry is in that row."""
    B = np.asarray(basis) != 0
    return [(j, int(np.flatnonzero(col)[0])) for j, col in enumerate(B.T) if col.sum() == 1]


def _sole_support_rows(basis):
    """Rows that hold the only nonzero entry of some column."""
    return sorted({d for _, d in _sole_supports(basis)})


@pytest.fixture()
def vdot_calls(monkeypatch):
    """Every coefficient block that FieldSpec.vdot evaluates."""
    calls = []
    real = FieldSpec.vdot

    def spy(self, coeffs, rows):
        calls.append(np.array(coeffs))
        return real(self, coeffs, rows)

    monkeypatch.setattr(FieldSpec, "vdot", spy)
    return calls


def test_span_search_skips_rows_zero_on_a_sole_support_row(monkeypatch, vdot_calls):
    kernels = []

    def capture(F, basis, scalars, **kw):
        kernels.append((F, basis, scalars))
        return all_nonzero_in_span(F, basis, scalars, **kw)

    monkeypatch.setattr(constructions, "all_nonzero_in_span", capture)
    constructions.construct(5, 8, 7, 7, 7)
    (F, basis, scalars), = kernels
    # a nullspace basis is the identity on its free columns
    sole = _sole_support_rows(basis)
    assert sole == list(range(len(basis)))
    vdot_calls.clear()
    assert all_nonzero_in_span(F, basis, scalars) is not None
    evaluated = np.concatenate(vdot_calls)
    assert (evaluated[:, sole] != 0).all()
    # exactly the basis sum and the zero-free draws up to the end of the hit
    # row's block are evaluated (the hit is draw 6 * 4096 + 1199, see the
    # draw-order test); the unit vectors all have zeros on sole-support rows
    sc = np.array(sorted(set(scalars)))
    rng = np.random.default_rng(_SAMPLE_SEED)
    block_end = (1199 // _SPAN_BLOCK + 1) * _SPAN_BLOCK
    draws = np.concatenate([sc[rng.integers(0, len(sc), size=(_SAMPLE_BATCH, len(basis)))]
                            for _ in range(7)])[:6 * _SAMPLE_BATCH + block_end]
    expect = np.concatenate([np.ones((1, len(basis)), dtype=np.int64),
                             draws[(draws != 0).all(axis=1)]])
    assert np.array_equal(evaluated, expect)
    assert len(evaluated) < len(draws) / 4


@pytest.mark.parametrize("exhaust_limit", [EXHAUST_LIMIT, 0])
def test_span_search_zero_column_returns_none_unevaluated(vdot_calls, exhaust_limit):
    F = make_field(5, 1)
    basis = [(1, 0, 2, 3), (2, 0, 1, 1)]
    assert _first_enumerated_hit(F, basis, range(F.order)) is None
    assert all_nonzero_in_span(F, basis, range(F.order),
                               exhaust_limit=exhaust_limit) is None
    assert vdot_calls == []


def _planted_basis(F, rng, dim, n):
    """Random rows with up to dim + 1 planted single-support columns, and
    in about one basis of ten a zero column."""
    B = [[rng.randrange(F.order) if rng.random() < 0.7 else 0 for _ in range(n)]
         for _ in range(dim)]
    cols = rng.sample(range(n), rng.randint(0, min(n, dim + 1)))
    for j in cols:
        d = rng.randrange(dim)
        for i in range(dim):
            B[i][j] = rng.randrange(1, F.order) if i == d else 0
    if rng.random() < 0.1:
        j = rng.randrange(n)
        for i in range(dim):
            B[i][j] = 0
    return [tuple(row) for row in B]


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_masked_span_search_matches_references(p, e, vdot_calls):
    F = make_field(p, e)
    rng = random.Random(1000 * p + e)
    units = range(1, F.order)
    base_units = [c for c in F.base_codes() if c]
    for scalars in (range(F.order), F.base_codes(), units, base_units):
        for _ in range(25):
            dim, n = rng.randint(1, 3), rng.randint(2, 8)
            basis = _planted_basis(F, rng, dim, n)
            sole = _sole_support_rows(basis)
            ref = _first_enumerated_hit(F, basis, scalars)
            vdot_calls.clear()
            got = all_nonzero_in_span(F, basis, scalars)
            assert got == (None if ref is None else ref[1])
            # the sampled branch: the structured blocks, then the draws
            structured = _first_enumerated_hit(F, basis, [])
            drawn = _first_drawn_hit(F, basis, scalars, budget=_SAMPLE_BATCH)
            ref = structured or drawn
            got = all_nonzero_in_span(F, basis, scalars, exhaust_limit=0,
                                      sample_budget=_SAMPLE_BATCH)
            assert got == (None if ref is None else ref[1])
            for T in vdot_calls:
                assert (T[:, sole] != 0).all()


# ------------------------------------------- column hypotheses from the kernel


def _deletion_ranks(A):
    """Rank of A with each column deleted, column by column, on its array."""
    return [FMatrix(A.field, np.delete(A.array, i, axis=1)).rank()
            for i in range(A.ncols)]


def _projective_hypotheses(A):
    """The deletion loop that solve_projective_unique once ran: the error
    (class, message) its hypotheses raise, or None when both hold."""
    for i, rank in enumerate(_deletion_ranks(A)):
        if rank != A.ncols - 1:
            return ColumnDependence, f"columns other than {i} are dependent"
    # the Frobenius test as it was first stated: reduce A^(q) a second time
    # and compare its pivots and nonzero rows with those of rref(A)
    F = A.field
    (R, pa), (Rq, pq) = A.rref(), FMatrix(F, F.vpow(A.array, F.q)).rref()
    if pa != pq or not np.array_equal(R.array[:len(pa)], Rq.array[:len(pq)]):
        return FrobeniusHypothesisFailed, "A is not row-equivalent to A^(q)"
    return None


def _all_nonzero_hypothesis(A):
    """The deletion loop that solve_all_nonzero once ran."""
    for i, rank in enumerate(_deletion_ranks(A)):
        if rank != A.rank():
            return HypothesisFailed, f"rank drops when deleting column {i}"
    return None


def _outcome(solve, A):
    """(class, message) of the error solve raises, or None when it returns
    a kernel vector or, after its hypotheses, finds none."""
    try:
        x = solve(A)
    except NotFound:
        return None
    except QgrsError as exc:
        return type(exc), str(exc)
    assert all(x) and not any(A.mul_vec(x))
    return None


def _sparse_matrix(rng, nrows, ncols, codes):
    """Random entries from ``codes``, each zero with probability one half."""
    return [[rng.choice(codes) if rng.random() < 0.5 else 0 for _ in range(ncols)]
            for _ in range(nrows)]


def _planted_projective(F, rng, r):
    """(r-1) x r matrices, each built to hit one branch of the deletion loop:
    a column proportional to another, a planted kernel vector with a zero
    coordinate, a repeated row (kernel of dimension >= 2), a zero column, or
    none of these (a row-scaled base-field Vandermonde, which passes)."""
    S = ScalarField(F)
    base = _scaled_vandermonde(F, rng, r - 1, r)
    rows = base.array.tolist()
    kind = rng.randrange(5)
    if kind == 0:
        j, m = rng.sample(range(r), 2)
        lam = rng.choice(_base_units(F))
        for row in rows:
            row[j] = S.mul(lam, row[m])
    elif kind == 1:
        # rows orthogonal to c, c in the base field with one zero: the
        # system stays Frobenius-stable, so only the column test fails
        c = [rng.choice(_base_units(F)) for _ in range(r)]
        c[rng.randrange(r)] = 0
        for row in rows:
            last = next(i for i in reversed(range(r)) if c[i])
            acc = 0
            for i in range(r):
                if i != last:
                    acc = S.add(acc, S.mul(row[i], c[i]))
            row[last] = S.div(S.neg(acc), c[last])
    elif kind == 2 and r > 2:
        rows[-1] = list(rows[0])
    elif kind == 3:
        j = rng.randrange(r)
        for row in rows:
            row[j] = 0
    return _random_row_scaling(F, rng, FMatrix(F, rows))


def _named_column(message):
    return int(re.search(r"column[s a-z]* (\d+)", message).group(1))


@pytest.mark.parametrize("p,e", [(2, 2), (5, 1), (7, 1)])
def test_projective_kernel_criterion_matches_deletion_loop(p, e):
    F = make_field(p, e)
    rng = random.Random(31 * p + e)
    seen = set()
    for trial in range(240):
        r = rng.randint(2, min(6, F.q - 1))
        if trial % 2:
            A = _planted_projective(F, rng, r)
        else:
            codes = F.base_codes()[1:] if trial % 4 else list(range(1, F.order))
            A = FMatrix(F, np.array(_sparse_matrix(rng, r - 1, r, codes),
                                    dtype=np.int64).reshape(r - 1, r))
        want = _projective_hypotheses(A)
        if want is None or want[0] is FrobeniusHypothesisFailed:
            seen.add(want and want[0])
        else:
            dim = A.ncols - A.rank()
            seen.add((dim, _named_column(want[1]) > 0))
            if dim != 1:
                # the loop fails at column 0 whenever the kernel is not a
                # line; the solver names the kernel's dimension instead
                want = ColumnDependence, f"kernel has dimension {dim}, need 1"
        assert _outcome(solve_projective_unique, A) == want
    # every branch occurred: both hypotheses holding, the Frobenius test
    # failing, and the column test failing at column 0 with a kernel of
    # dimension 2, and at column 0 and at a later column with a kernel line
    assert seen >= {None, FrobeniusHypothesisFailed, (2, False), (1, False), (1, True)}


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_all_nonzero_kernel_criterion_matches_deletion_loop(p, e):
    F = make_field(p, e)
    rng = random.Random(37 * p + e)
    seen = set()
    for trial in range(240):
        n = rng.randint(1, min(7, F.order - 1))
        m = rng.randint(0, n + 1)
        rows = _sparse_matrix(rng, m, n, list(range(1, F.order)))
        if trial % 3 == 0 and m and n > 1:
            # column i is the only support of row 0: no kernel vector is
            # nonzero at i, whatever the kernel's dimension
            i = rng.randrange(n)
            rows[0] = [rng.randrange(1, F.order) if j == i else 0 for j in range(n)]
        A = FMatrix(F, np.array(rows, dtype=np.int64).reshape(m, n))
        want = _all_nonzero_hypothesis(A)
        assert _outcome(solve_all_nonzero, A) == want
        if want is None:
            seen.add(None)
        else:
            seen.add((min(len(A.nullspace()), 2), _named_column(want[1]) > 0))
    # passes, trivial kernels (column 0), and drops with kernels of
    # dimension 1 and >= 2, at column 0 and later
    assert seen >= {None, (0, False), (1, False), (1, True), (2, False), (2, True)}


# ---------------------------------------------------------------- descent route


def test_descend_to_base_randomized():
    for (p, e) in [(5, 1), (7, 1)]:
        F = make_field(p, e)
        S = ScalarField(F)
        rng = random.Random(p)
        for r in range(2, min(6, F.q)):
            B = (_scaled_vandermonde(F, rng, r - 2, r) if r > 2
                 else FMatrix(F, np.zeros((0, 2), dtype=np.int64)))
            # plant: kernel vector over the base, times a full-field unit
            ns = B.nullspace()
            combo = all_nonzero_in_span(F, ns, F.base_codes())
            if combo is None:
                continue
            gamma = rng.randrange(1, F.order)
            c = [S.mul(gamma, v) for v in combo]
            out = descend_to_base(B, c)
            assert all(out)
            assert all(S.in_base(x) for x in out)
            assert not any(B.mul_vec(out))


def _first_shift(F, codes):
    """Reference for the descent: the scalar shift loop over j = 1..q+1,
    returning (j, g^j c + (g^j c)^(q)) for the first totally nonzero one."""
    S = ScalarField(F)
    g = int(F.vexp(1))
    for j in range(1, F.q + 2):
        wj = S.pow(g, j)
        wjq = S.frobenius(wj)
        b = tuple(S.add(S.mul(wj, x), S.mul(wjq, S.frobenius(x)))
                  for x in codes)
        if all(b):
            return j, b
    return None


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (2, 3), (3, 2)])
def test_descend_to_base_matches_scalar_shift_loop(p, e):
    F = make_field(p, e)
    rng = random.Random(100 * p + e)
    shifts = set()
    for _ in range(40):
        r = rng.randint(3, min(6, F.q - 1))
        B = _scaled_vandermonde(F, rng, r - 2, r)
        # a full-field combination of the base-valued kernel basis
        c = _combine(F, [rng.randrange(1, F.order) for _ in range(2)], B.nullspace())
        if not all(c):
            continue
        ref = _first_shift(F, c)
        if ref is None:
            with pytest.raises(NoValidShift):
                descend_to_base(B, c)
            continue
        j, expect = ref
        shifts.add(j)
        assert descend_to_base(B, c) == expect
    assert len(shifts) > 1


def test_descend_rejects_bad_inputs():
    F = make_field(5, 1)
    A = FMatrix(F, [[1, 1, 1]])
    with pytest.raises(HasZeroCoordinate):
        descend_to_base(A, [1, 0, 1])
    with pytest.raises(NotASolution):
        descend_to_base(A, [1, 1, 1])


def test_descend_frobenius_hypothesis():
    F = make_field(3, 1)
    S = ScalarField(F)
    g = int(F.vexp(1))
    A = FMatrix(F, [[1, g]])
    # kernel vector of [1, g]: (g, -1)
    c = [g, S.neg(1)]
    with pytest.raises(FrobeniusHypothesisFailed):
        descend_to_base(A, c)


# ---------------------------------------------------------------- pinned documents

# span-search cells at q > 13 on both draw streams: the numpy draws (order
# <= 4096) and random.Random (above it); the chosen kernel point fixes the
# document's multipliers
@pytest.mark.parametrize("args,sha", [
    ((5, 16, 15, 7, 2), "4dcc8558e6a32d9b72dd63a1b5190f3c28f403a552c1cd77c3cd20d44046d500"),
    ((5, 16, 15, 8, 2), "05cc0784f3459a7ee1a141b98551f6c014b2342af3cb0a88f02a0e5a20158958"),
    ((5, 16, 15, 13, 2), "a5978f6560223dff73f51874802b50a101e1f1d041e43f859c407f95b889ec12"),
    ((1, 67, 68, 3, 2), "4f4aaadf1c696e9d9fd613d08c028bea2afa70afe1c5861c46ba5f3329bf2bf7"),
    ((5, 81, 80, 2, 2), "ffbf66c33011a6c28786a983419da285421bb5b02054042dac540ee9305a4cfc"),
    ((1, 128, 129, 2, 2), "e5fe2189958ef29847b8f49d28accef7bfb023e9c270124d39c497d7001f4c4b"),
], ids=["q16-r7-numpy", "q16-r8-numpy", "q16-r13-numpy", "q67-random", "q81-random",
        "q128-random"])
def test_span_search_documents_pinned(args, sha):
    doc = json.dumps(cli.encode_document(constructions.construct(*args)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == sha
