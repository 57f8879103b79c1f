"""The numpy kernels must agree bit-for-bit with the scalar field ops."""
from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrs import bulk, field
from qgrs.field import make_field
from qgrs.grs import GrsSpec, generator_matrix
from qgrs.matrix import FMatrix

import oracle
from oracle import ScalarField


def test_power_codes_matches_scalar():
    F = make_field(3, 1)
    S = ScalarField(F)
    bases = np.array([0, 1, 3, 7], dtype=np.int64)
    exps = np.array([0, 1, 2, 5], dtype=np.int64)
    got = bulk.power_codes(F, bases, exps)
    for ei, e in enumerate(exps):
        for bi, b in enumerate(bases):
            assert got[ei, bi] == S.pow(int(b), int(e))


def _over_node_products(F, nodes, rows):
    """rows[r][i] / u_i, by scalar ops: newton_coefficients multiplies the
    values by the node products u_i, so these interpolate through rows."""
    S = ScalarField(F)
    us = oracle.node_products(F, nodes)
    return np.array([[S.div(int(v), u) for v, u in zip(row, us)] for row in rows])


def test_newton_degree_detection():
    F = make_field(7, 1)
    rng = random.Random(99)
    nodes = rng.sample(range(1, F.order), 9)
    for deg in [0, 2, 5, 8]:
        coeffs = [rng.randrange(F.order) for _ in range(deg)] + [rng.randrange(1, F.order)]
        values = _over_node_products(F, nodes, [[_horner(F, coeffs, x) for x in nodes]])
        dd = bulk.newton_coefficients(F, nodes, values, len(nodes))
        # triangular basis: coefficients above the true degree vanish
        assert all(int(c) == 0 for c in dd[0, deg + 1:])
        assert int(dd[0, deg]) != 0
        # the top 9 - deg coefficients, alone, decide degree < deg + 1
        top = bulk.newton_coefficients(F, nodes, values, len(nodes) - deg)
        assert top[0].tolist() == dd[0, deg:].tolist()


def _horner(F, coeffs, x):
    S = ScalarField(F)
    acc = 0
    for c in reversed(coeffs):
        acc = S.add(S.mul(acc, x), c)
    return acc


@pytest.mark.parametrize("p,e", [(3, 1), (2, 6), (3, 4)],
                         ids=["GF9", "GF4096", "GF6561"])
def test_newton_matches_scalar_divided_differences(p, e):
    F = make_field(p, e)
    rng = random.Random(5 + F.order)
    n = 9
    nodes = rng.sample(range(F.order), n)
    vals = [[rng.randrange(F.order) for _ in range(n)] for _ in range(3)]
    vals[0][:4] = [0] * 4
    divided = _over_node_products(F, nodes, vals)
    got = bulk.newton_coefficients(F, nodes, divided, n)
    assert got.shape == (3, n)
    assert got.tolist() == oracle.divided_differences(F, nodes, vals)
    # fewer than n: the top coefficients, ascending; a single row is one row
    top = bulk.newton_coefficients(F, nodes, divided, 4)
    assert top.tolist() == got[:, n - 4:].tolist()
    assert bulk.newton_coefficients(F, nodes, divided[1], 4).tolist() == [
        got[1, n - 4:].tolist()]
    assert bulk.newton_coefficients(F, nodes, divided, 0).shape == (3, 0)


def test_newton_chunks_match_scalar_divided_differences(monkeypatch):
    # n = 300, top = 150, 50 value rows: vdot sums the 300 nodes in groups
    # of _DOT_GROUP // (50 * 150) terms, so the default bound takes several
    # groups; one term a group and one group for the whole axis must agree
    F = make_field(19, 1)
    rng = random.Random(300)
    n, top, rows = 300, 150, 50
    terms = field._DOT_GROUP // (rows * top)
    assert 1 < terms and 2 * terms < n
    nodes = rng.sample(range(F.order), n)
    vals = [[rng.randrange(F.order) for _ in range(n)] for _ in range(rows)]
    divided = _over_node_products(F, nodes, vals)
    got = bulk.newton_coefficients(F, nodes, divided, top)
    assert got.shape == (rows, top)
    want = oracle.divided_differences(F, nodes, [vals[r] for r in (0, terms, rows - 1)])
    for r, dd in zip((0, terms, rows - 1), want):
        assert got[r].tolist() == dd[n - top:]
    monkeypatch.setattr(field, "_DOT_GROUP", rows * top * n)
    assert np.array_equal(bulk.newton_coefficients(F, nodes, divided, top), got)
    # a 64-entry bound: one term a group
    monkeypatch.setattr(field, "_DOT_GROUP", 64)
    assert np.array_equal(bulk.newton_coefficients(F, nodes, divided, top), got)


def _planted_minor_stack(F, k, rng):
    """k x k code matrices: random ones, plus ones with a zero column, a
    repeated row, a row proportional to another, and nonsingular ones whose
    (0, 0) entry is zero, so the elimination must swap in a pivot row."""
    S = ScalarField(F)
    def rand():
        return [[rng.randrange(F.order) for _ in range(k)] for _ in range(k)]
    mats = [rand() for _ in range(120)]
    for _ in range(30):
        m = rand()
        j = rng.randrange(k)
        for row in m:
            row[j] = 0
        mats.append(m)
    if k >= 2:
        for _ in range(30):
            m = rand()
            i, j = rng.sample(range(k), 2)
            m[i] = list(m[j])
            mats.append(m)
            m = rand()
            c = rng.randrange(1, F.order)
            m[i] = [S.mul(c, x) for x in m[j]]
            mats.append(m)
        swaps = 0
        while swaps < 30:
            m = rand()
            m[0][0] = 0
            if FMatrix(F, m).rank() == k:
                mats.append(m)
                swaps += 1
    return np.array(mats)


@pytest.mark.parametrize("k", [1, 2, 3, 5], ids=lambda k: f"k{k}")
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)],
                         ids=["GF4", "GF9", "GF16", "GF25", "GF81"])
def test_batch_minors_match_rank(p, e, k):
    F = make_field(p, e)
    mats = _planted_minor_stack(F, k, random.Random(21 + 100 * F.order + k))
    got = bulk.batch_minors_nonsingular(F, mats)
    expect = [FMatrix(F, m).rank() == k for m in mats]
    assert got.tolist() == expect
    assert any(expect) and not all(expect)


@pytest.mark.parametrize("k", [1, 2, 3, 6], ids=lambda k: f"k{k}")
def test_batch_minors_leave_their_input_untouched(k):
    # no swap step runs for k <= 2, so the stack is read in place; above,
    # the swaps write to a copy.  The stack is read-only, so a write to it
    # would raise; stacks of k >= 2 hold matrices that need a swap
    F = make_field(5, 1)
    mats = _planted_minor_stack(F, k, random.Random(40 + k)).astype(np.int64)
    kept = mats.copy()
    mats.flags.writeable = False
    if k >= 2:
        assert ((mats[:, 0, 0] == 0) & mats[:, 1:, 0].any(axis=1)).any()
    expect = [FMatrix(F, m).rank() == k for m in mats]
    for sizes in (None, np.full(len(mats), k)):
        assert bulk.batch_minors_nonsingular(F, mats, sizes).tolist() == expect
    assert np.array_equal(mats, kept)


@pytest.mark.parametrize("p,e", [(2, 2), (5, 1), (3, 2)], ids=["GF16", "GF25", "GF81"])
def test_batch_minors_decide_mixed_sizes_in_one_pass(p, e):
    # blocks of every size 0..6 in one call, each in the bottom-right corner
    # of a 6 x 6 frame of junk: the planted stacks of every size (singular
    # ones among them), and square blocks cut from a rank-3 matrix, which
    # are singular above size 3.  Each verdict must be the one that the
    # uniform kernel gives the block alone, whatever the junk
    F = make_field(p, e)
    rng = random.Random(7 + F.order)
    top = 6

    def rand(rows, cols):
        return np.array([[rng.randrange(F.order) for _ in range(cols)]
                         for _ in range(rows)])

    low_rank = F.vdot(rand(top, 3), rand(3, top))
    blocks = [np.zeros((5, 0, 0), dtype=np.int64)]
    for b in range(1, top + 1):
        cuts = [low_rank[np.ix_(sorted(rng.sample(range(top), b)),
                                sorted(rng.sample(range(top), b)))]
                for _ in range(20)]
        blocks.append(np.concatenate((_planted_minor_stack(F, b, rng), cuts)))
    expect = np.concatenate([bulk.batch_minors_nonsingular(F, s) for s in blocks])
    sizes = np.repeat(np.arange(top + 1), [len(s) for s in blocks])
    assert expect[sizes == 0].all()
    assert all(not expect[sizes == b].all() for b in range(1, top + 1))
    assert expect[sizes == 3][-20:].any() and not expect[sizes > 3][-20:].any()
    order = np.argsort(-sizes, kind="stable")
    for _ in range(2):
        frames = np.stack([rand(top, top) for _ in sizes])
        for i, block in enumerate(itertools.chain.from_iterable(blocks)):
            frames[i, top - len(block):, top - len(block):] = block
        stack = frames[order]
        kept = stack.copy()
        got = np.empty(len(sizes), dtype=bool)
        got[order] = bulk.batch_minors_nonsingular(F, stack, sizes[order])
        assert np.array_equal(got, expect)
        assert np.array_equal(stack, kept)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_batch_minors_read_unsigned_sizes(dtype):
    # -sizes of an unsigned array wraps, which left every block undecided
    # and so reported nonsingular: zero blocks are singular, and identity
    # blocks are not, at any integer dtype of sizes
    F = make_field(2, 2)
    mats = np.concatenate((np.zeros((3, 4, 4), dtype=np.int64),
                           np.broadcast_to(np.eye(4, dtype=np.int64), (3, 4, 4))))
    sizes = np.array([4, 4, 3, 3, 2, 2], dtype=dtype)
    order = [0, 3, 1, 4, 2, 5]   # zero, identity, ... within each size
    got = bulk.batch_minors_nonsingular(F, mats[order], sizes)
    assert got.tolist() == [False, True] * 3


def _late_lead_matrix(F, b, t, rng, singular):
    """A b x b matrix L N whose elimination with row-0 pivots first meets a
    zero lead at step t >= 1.  L is unit lower triangular, so step t sees
    the block Z at N's bottom right times a unit lower triangular factor.
    N's first t columns are upper triangular with a nonzero diagonal, and
    Z is nonsingular with Z[0, 0] = 0, or has a zero first column."""
    L = np.tril(rng.integers(0, F.order, (b, b)), -1)
    np.fill_diagonal(L, 1)
    N = np.triu(rng.integers(0, F.order, (b, b)))
    N[range(t), range(t)] = rng.integers(1, F.order, t)
    while True:
        Z = rng.integers(0, F.order, (b - t, b - t))
        Z[:1 if not singular else None, 0] = 0
        if singular or FMatrix(F, Z).rank() == b - t:
            break
    N[t:, t:] = Z
    M = F.vdot(L, N)

    def rank(m):
        return FMatrix(F, m).rank()

    assert all(rank(M[:s, :s]) == s for s in range(1, t + 1))
    if singular:   # the lead column of step t is all zero
        assert rank(M[:, :t + 1]) == t and rank(M) < b
    else:          # its lead is zero, and a later row swaps in
        assert rank(M[:t + 1, :t + 1]) == t and rank(M) == b
    return M


@pytest.mark.parametrize("p,e", [(2, 2), (5, 1), (3, 2)], ids=["GF16", "GF25", "GF81"])
def test_batch_minors_pivot_only_where_row_0_leads_with_zero(p, e):
    # one call mixes square blocks of C in the reduced form [I | C] of a GRS
    # generator matrix (every leading minor nonzero, so row 0 always
    # pivots), nonsingular matrices whose lead turns zero at a step t >= 1,
    # and singular ones whose lead column turns zero there; once at one
    # size, once with blocks of every size in the corners of junk frames
    F = make_field(p, e)
    rng = np.random.default_rng(F.order + 3)
    n, k, top = 16, 8, 6
    spec = GrsSpec(F, tuple(rng.choice(F.order, n, replace=False).tolist()),
                   tuple(rng.integers(1, F.order, n).tolist()), k)
    R, pivots = FMatrix(F, generator_matrix(spec)).rref()
    assert pivots == tuple(range(k))
    C = R.array[:, k:]

    def stack(b):
        """(blocks, planted) of size b: 12 GRS blocks, then the planted
        matrices of both kinds at every t that a swap step can meet."""
        grs_blocks = [C[np.ix_(np.sort(rng.choice(k, b, replace=False)),
                               np.sort(rng.choice(n - k, b, replace=False)))]
                      for _ in range(12)]
        for block in grs_blocks:
            assert all(FMatrix(F, block[:s, :s]).rank() == s for s in range(1, b + 1))
        planted = [_late_lead_matrix(F, b, t, rng, singular)
                   for t in range(1, b - 2) for singular in (False, True)
                   for _ in range(3)]
        return np.array(grs_blocks + planted).reshape(-1, b, b), len(planted)

    mats, planted = stack(top)
    assert planted == 18
    order = rng.permutation(len(mats))
    got = bulk.batch_minors_nonsingular(F, mats[order])
    expect = [FMatrix(F, m).rank() == top for m in mats[order]]
    assert got.tolist() == expect and not all(expect)

    blocks = [stack(b)[0] for b in range(top, 0, -1)]
    sizes = np.repeat(np.arange(top, 0, -1), [len(s) for s in blocks])
    frames = rng.integers(0, F.order, (len(sizes), top, top))
    for i, block in enumerate(itertools.chain.from_iterable(blocks)):
        frames[i, top - len(block):, top - len(block):] = block
    got = bulk.batch_minors_nonsingular(F, frames, sizes)
    expect = [FMatrix(F, m).rank() == len(m)
              for m in itertools.chain.from_iterable(blocks)]
    assert got.tolist() == expect and not all(expect)


def test_combinations_array_matches_itertools():
    n, k = 7, 3
    total = math.comb(n, k)
    ref = list(itertools.combinations(range(n), k))
    got = bulk.combinations_array(n, k)
    assert got.shape == (total, k) and got.dtype == np.int32
    assert [tuple(row) for row in got.tolist()] == ref
    # k = 0: one empty subset; k = n: the whole range
    assert bulk.combinations_array(n, 0).shape == (1, 0)
    assert bulk.combinations_array(n, n).tolist() == [list(range(n))]


def test_unrank_lex():
    n, k = 9, 4
    ref = list(itertools.combinations(range(n), k))
    for rank in [0, 1, 17, 100, len(ref) - 1]:
        assert tuple(bulk.unrank_lex(n, k, [rank])[0]) == ref[rank]


def test_rank_lex_inverts_unrank():
    for n, k in [(9, 4), (6, 1), (6, 6), (12, 2)]:
        for rank, subset in enumerate(itertools.combinations(range(n), k)):
            assert bulk._rank_lex(n, k, subset) == rank
            assert bulk.unrank_lex(n, k, [rank])[0].tolist() == list(subset)


def test_unrank_lex_every_rank_up_to_n10():
    for n in range(11):
        for k in range(n + 1):
            ref = list(itertools.combinations(range(n), k))
            got = bulk.unrank_lex(n, k, range(len(ref)))
            assert got.shape == (len(ref), k) and got.dtype == np.int32
            assert [tuple(row) for row in got.tolist()] == ref, (n, k)
            assert [tuple(oracle._unrank_lex(n, k, r))
                    for r in range(len(ref))] == ref, (n, k)


@pytest.mark.parametrize("n,k", [(60, 5), (66, 33), (67, 33), (68, 34),
                                 (82, 24), (127, 32), (130, 17), (164, 42),
                                 (300, 150), (511, 128)])
def test_unrank_lex_matches_scalar_oracle(n, k):
    # the structural route's rank stream; C(n, k) passes 2^63 from n = 67,
    # and C(511, 128) has 411 bits
    total = math.comb(n, k)
    rng = random.Random(0xC0DE)
    ranks = sorted({rng.randrange(total) for _ in range(min(512, total))})
    ranks += [0, 1, total - 2, total - 1]
    got = bulk.unrank_lex(n, k, ranks)
    assert got.tolist() == [oracle._unrank_lex(n, k, r) for r in ranks]
    assert got[-4].tolist() == list(range(k))
    assert got[-3].tolist() == list(range(k - 1)) + [k]
    assert got[-2].tolist() == [n - k - 1] + list(range(n - k + 1, n))
    assert got[-1].tolist() == list(range(n - k, n))
    assert bulk.comb_table(n, k).dtype == (object if total >= 2 ** 63 else np.int64)


@st.composite
def _ranked(draw):
    n = draw(st.integers(0, 200))
    k = draw(st.integers(0, n))
    return n, k, draw(st.integers(0, math.comb(n, k) - 1))


@settings(max_examples=200)
@given(_ranked())
def test_rank_lex_inverts_unrank_lex_property(case):
    n, k, rank = case
    (subset,) = bulk.unrank_lex(n, k, [rank]).tolist()
    assert subset == sorted(set(subset)) and all(0 <= c < n for c in subset)
    assert bulk._rank_lex(n, k, subset) == rank
