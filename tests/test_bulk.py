"""The numpy kernels must agree bit-for-bit with the scalar field ops."""
from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from qgrs import bulk
from qgrs.field import make_field
from qgrs.matrix import FMatrix


def test_digit_sum_matches_scalar():
    for (p, e) in [(3, 1), (2, 2), (5, 1)]:
        F = make_field(p, e)
        rng = random.Random(p)
        arr = np.array([[rng.randrange(F.order) for _ in range(7)] for _ in range(5)])
        got = bulk.digit_sum(F, arr, axis=1)
        for i in range(5):
            acc = 0
            for c in arr[i]:
                acc = F.add_codes(acc, int(c))
            assert got[i] == acc


def test_power_codes_matches_scalar():
    F = make_field(3, 1)
    bases = np.array([0, 1, 3, 7], dtype=np.int64)
    exps = np.array([0, 1, 2, 5], dtype=np.int64)
    got = bulk.power_codes(F, bases, exps)
    for ei, e in enumerate(exps):
        for bi, b in enumerate(bases):
            assert got[ei, bi] == F.pow_code(int(b), int(e))


def test_newton_degree_detection():
    F = make_field(7, 1)
    rng = random.Random(99)
    nodes = rng.sample(range(1, F.order), 9)
    for deg in [0, 2, 5, 8]:
        coeffs = [rng.randrange(F.order) for _ in range(deg)] + [rng.randrange(1, F.order)]
        values = [[_horner(F, coeffs, x) for x in nodes]]
        dd = bulk.newton_coefficients(F, nodes, np.array(values))
        # triangular basis: coefficients above the true degree vanish
        assert all(int(c) == 0 for c in dd[0, deg + 1:])
        assert int(dd[0, deg]) != 0


def _horner(F, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = F.add_codes(F.mul_codes(acc, x), c)
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
    got = bulk.newton_coefficients(F, nodes, np.array(vals))
    for r, row in enumerate(vals):
        dd = list(row)
        for t in range(1, n):
            for i in range(n - 1, t - 1, -1):
                num = F.sub_codes(dd[i], dd[i - 1])
                dd[i] = F.div_codes(num, F.sub_codes(nodes[i], nodes[i - t]))
        assert got[r].tolist() == dd


def _planted_minor_stack(F, k, rng):
    """k x k code matrices: random ones, plus ones with a zero column, a
    repeated row, a row proportional to another, and nonsingular ones whose
    (0, 0) entry is zero, so the elimination must swap in a pivot row."""
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
            m[i] = [F.mul_codes(c, x) for x in m[j]]
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
    expect = [FMatrix(F, m.tolist()).rank() == k for m in mats]
    assert got.tolist() == expect
    assert any(expect) and not all(expect)


def test_combinations_array_matches_itertools():
    n, k = 7, 3
    total = math.comb(n, k)
    ref = list(itertools.combinations(range(n), k))
    # whole space in two blocks
    a = bulk.combinations_array(n, k, 0, 20)
    b_ = bulk.combinations_array(n, k, 20, total - 20)
    got = [tuple(int(x) for x in row) for row in a] + \
          [tuple(int(x) for x in row) for row in b_]
    assert got == ref
    # a block that overruns the end is truncated
    tail = bulk.combinations_array(n, k, total - 2, 10)
    assert len(tail) == 2


def test_unrank_lex():
    n, k = 9, 4
    ref = list(itertools.combinations(range(n), k))
    for rank in [0, 1, 17, 100, len(ref) - 1]:
        assert tuple(bulk._unrank_lex(n, k, rank)) == ref[rank]


def test_rank_lex_inverts_unrank():
    for n, k in [(9, 4), (6, 1), (6, 6), (12, 2)]:
        for rank, subset in enumerate(itertools.combinations(range(n), k)):
            assert bulk._rank_lex(n, k, subset) == rank
            assert bulk._unrank_lex(n, k, rank) == list(subset)
