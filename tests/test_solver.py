"""Solver route tests with planted-solution oracles."""
from __future__ import annotations

import random

import numpy as np
import pytest

from qgrs import constructions
from qgrs.errors import (
    ColumnDependence,
    FrobeniusHypothesisFailed,
    HasZeroCoordinate,
    HypothesisFailed,
    NotASolution,
    WrongShape,
)
from qgrs.field import make_field
from qgrs.matrix import FMatrix
from qgrs.solver import (
    EXHAUST_LIMIT,
    _SAMPLE_BATCH,
    _SAMPLE_SEED,
    _combine,
    all_nonzero_in_span,
    descend_to_base,
    solve_all_nonzero,
    solve_projective_unique,
)


def _base_units(F):
    return [c for c in F.base_codes() if c]


def _scaled_vandermonde(F, rng, nrows, ncols):
    """(nrows x ncols) generalized Vandermonde over the base subfield.

    Columns are d_l * x_l^(1..nrows) with distinct base nodes x_l and nonzero
    base scalars d_l: every maximal minor is then nonzero.
    """
    nodes = rng.sample(_base_units(F), ncols)
    scalars = [rng.choice(_base_units(F)) for _ in range(ncols)]
    rows = []
    for e in range(1, nrows + 1):
        rows.append([F.mul_codes(d, F.pow_code(x, e)) for x, d in zip(nodes, scalars)])
    return FMatrix(F, rows, ncols=ncols)


def _random_row_scaling(F, rng, A):
    """Scale each row by a random full-field unit: kernel unchanged, and the
    matrix stays row-equivalent to its entrywise q-th power."""
    rows = []
    for r in A.rows:
        s = rng.randrange(1, F.order)
        rows.append([F.mul_codes(s, c) for c in r])
    return FMatrix(F, rows, ncols=A.ncols)


# ---------------------------------------------------------------- unique route


def test_projective_unique_frozen_tiny():
    F = make_field(3, 1)
    A = FMatrix(F, [[1, 1]])
    out = solve_projective_unique(A)
    assert [x.code for x in out] == [2, 1]


def test_projective_unique_r_equals_one():
    F = make_field(5, 1)
    A = FMatrix(F, [], ncols=1)
    out = solve_projective_unique(A)
    assert len(out) == 1 and out[0] == F.one


@pytest.mark.parametrize("q,p,e", [(5, 5, 1), (7, 7, 1), (9, 3, 2)])
def test_projective_unique_randomized(q, p, e):
    F = make_field(p, e)
    rng = random.Random(q)
    for r in range(2, 6):
        if r > q - 1:
            continue
        B = _scaled_vandermonde(F, rng, r - 1, r)
        A = _random_row_scaling(F, rng, B)
        out = solve_projective_unique(A)
        codes = [x.code for x in out]
        assert all(codes)
        assert all(F.in_base_code(c) for c in codes)
        assert not any(A.mul_vec(codes))
        # kernel dimension is 1, so the answer is unique up to scaling
        assert len(A.nullspace()) == 1


def test_projective_unique_shape_and_dependence_errors():
    F = make_field(5, 1)
    with pytest.raises(WrongShape):
        solve_projective_unique(FMatrix(F, [[1, 2, 3], [2, 3, 4]], ncols=3).transpose())
    # a zero column makes the complementary columns dependent
    A = FMatrix(F, [[1, 0, 2], [2, 0, 4]])
    with pytest.raises(ColumnDependence):
        solve_projective_unique(A)


def test_projective_unique_frobenius_hypothesis_error():
    F = make_field(3, 1)
    g = F._gen_code()
    # rows [1, g] vs conjugate [1, g^3]: different row spaces
    A = FMatrix(F, [[1, g]])
    with pytest.raises(FrobeniusHypothesisFailed):
        solve_projective_unique(A)


# ---------------------------------------------------------------- counting route


def _planted_kernel_matrix(F, rng, nrows, ncols):
    """Random rows orthogonal to a planted totally nonzero vector."""
    x = [rng.randrange(1, F.order) for _ in range(ncols)]
    rows = []
    for _ in range(nrows):
        r = [rng.randrange(F.order) for _ in range(ncols - 1)]
        acc = 0
        for c, v in zip(r, x):
            acc = F.add_codes(acc, F.mul_codes(c, v))
        last = F.div_codes(F.neg_code(acc), x[-1])
        rows.append(r + [last])
    return FMatrix(F, rows, ncols=ncols), x


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
        codes = [v.code for v in out]
        assert all(codes)
        assert not any(A.mul_vec(codes))
        found += 1
    assert found >= 15


def test_all_nonzero_field_too_small():
    F = make_field(3, 1)
    A = FMatrix.zeros(F, 1, 9)
    with pytest.raises(HypothesisFailed):
        solve_all_nonzero(A)


def test_all_nonzero_rank_drop_detected():
    F = make_field(5, 1)
    A = FMatrix.identity(F, 3)
    with pytest.raises(HypothesisFailed):
        solve_all_nonzero(A)


def test_all_nonzero_sampled_path():
    # tiny exhaust limit forces the seeded sampling branch
    F = make_field(5, 1)
    rng = random.Random(42)
    A, _ = _planted_kernel_matrix(F, rng, 1, 4)
    out = solve_all_nonzero(A, exhaust_limit=1)
    codes = [v.code for v in out]
    assert all(codes) and not any(A.mul_vec(codes))


def test_all_nonzero_in_span_none_for_empty_basis():
    F = make_field(3, 1)
    assert all_nonzero_in_span(F, [], [0, 1, 2]) is None


def test_all_nonzero_in_span_restricted_scalars():
    F = make_field(3, 1)
    basis = [(1, 1, 0), (0, 1, 1)]
    out = all_nonzero_in_span(F, basis, F.base_codes())
    assert out is not None
    assert all(out)
    # combination really lies in the base-scalar span of the basis rows
    assert all(F.in_base_code(c) for c in out)


def _first_drawn_hit(F, basis, scalars):
    """Reference for the sampled branch: redraw the seeded batches and scan
    their rows in draw order with the scalar combination."""
    sc = np.array(sorted(set(scalars)))
    rng = np.random.default_rng(_SAMPLE_SEED)
    row = 0
    while True:
        T = sc[rng.integers(0, len(sc), size=(_SAMPLE_BATCH, len(basis)))]
        for coeffs in T.tolist():
            x = _combine(F, coeffs, basis)
            if all(x):
                return row, x
            row += 1


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


# ---------------------------------------------------------------- descent route


def test_descend_to_base_randomized():
    for (p, e) in [(5, 1), (7, 1)]:
        F = make_field(p, e)
        rng = random.Random(p)
        for r in range(2, min(6, F.q)):
            B = _scaled_vandermonde(F, rng, r - 2, r) if r > 2 else FMatrix(F, [], ncols=2)
            # plant: kernel vector over the base, times a full-field unit
            ns = B.nullspace()
            combo = all_nonzero_in_span(F, ns, F.base_codes())
            if combo is None:
                continue
            gamma = rng.randrange(1, F.order)
            c = [F.from_code(F.mul_codes(gamma, v)) for v in combo]
            out = descend_to_base(B, c)
            codes = [x.code for x in out]
            assert all(codes)
            assert all(F.in_base_code(x) for x in codes)
            assert not any(B.mul_vec(codes))


def test_descend_rejects_bad_inputs():
    F = make_field(5, 1)
    A = FMatrix(F, [[1, 1, 1]])
    with pytest.raises(HasZeroCoordinate):
        descend_to_base(A, [F.one, F.zero, F.one])
    with pytest.raises(NotASolution):
        descend_to_base(A, [F.one, F.one, F.one])


def test_descend_frobenius_hypothesis():
    F = make_field(3, 1)
    g = F.gen
    A = FMatrix.from_felts([[F.one, g]])
    # kernel vector of [1, g]: (g, -1)
    c = [g, -F.one]
    with pytest.raises(FrobeniusHypothesisFailed):
        descend_to_base(A, c)
