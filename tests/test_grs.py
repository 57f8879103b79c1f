"""GRS core tests.

The key frozen oracle: evaluating at *all* field elements with unit
multipliers gives power sums, which vanish exactly while q*i + j stays
below the group order.  Over GF(9) that makes k = 2 Hermitian
self-orthogonal and k = 3 not — computed by hand, pinned here, and used to
cross-check both verification routes.
"""
from __future__ import annotations

import random

import pytest

from qgrs.field import make_field
from qgrs.grs import (
    GrsSpec,
    dual_containment_check,
    generator_matrix,
    hermitian_gram,
    lagrange_weights,
    singleton_distance,
)


def _full_field_spec(F, k):
    locs = tuple(F.elements())
    mults = tuple(F.one for _ in locs)
    return GrsSpec(F, locs, mults, k)


def test_full_length_unit_code_gf9():
    F = make_field(3, 1)
    ok2 = _full_field_spec(F, 2)
    assert hermitian_gram(ok2).is_zero()
    assert dual_containment_check(ok2) == (True, None)

    bad3 = _full_field_spec(F, 3)
    gram = hermitian_gram(bad3)
    assert not gram.is_zero()
    # the offending entry is (i, j) = (2, 2): power sum of x^8 = -1
    assert gram.entry(2, 2).code == F.neg_code(1)
    ok_dual, bad_j = dual_containment_check(bad3)
    assert not ok_dual
    assert bad_j == 2


def test_generator_matrix_frozen_gf4():
    F = make_field(2, 2)
    w = F.gen
    spec = GrsSpec(F, (F.zero, F.one, w), (F.one, F.one, w), k=2)
    G = generator_matrix(spec)
    assert G.shape == (2, 3)
    # row 0: multipliers times a^0 (0^0 = 1), row 1: multipliers times a
    assert G.rows[0] == (1, 1, w.code)
    assert G.rows[1] == (0, 1, (w * w).code)


def test_zero_locator_power_convention():
    F = make_field(3, 1)
    spec = GrsSpec(F, (F.zero, F.one), (F.one, F.one), k=2)
    G = generator_matrix(spec)
    assert G.entry(0, 0) == F.one   # 0^0
    assert G.entry(1, 0) == F.zero  # 0^1


def test_spec_validation():
    F = make_field(3, 1)
    with pytest.raises(ValueError):
        GrsSpec(F, (F.one, F.one), (F.one, F.one), 1)  # repeated locator
    with pytest.raises(ValueError):
        GrsSpec(F, (F.zero, F.one), (F.one, F.zero), 1)  # zero multiplier
    with pytest.raises(ValueError):
        GrsSpec(F, (F.zero, F.one), (F.one, F.one), 3)  # k > n
    with pytest.raises(ValueError):
        GrsSpec(F, (F.zero, F.one), (F.one,), 1)  # length mismatch


def test_lagrange_weights_frozen():
    F = make_field(7, 1)
    locs = (F.from_code(1), F.from_code(2), F.from_code(3))
    u = lagrange_weights(locs)
    assert [x.code for x in u] == [2, 6, 2]


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (13, 1), (2, 6), (3, 4)],
                         ids=["GF9", "GF16", "GF169", "GF4096", "GF6561"])
def test_lagrange_weights_match_scalar_products(p, e):
    F = make_field(p, e)
    rng = random.Random(F.order)
    for n in (1, 2, 5, min(F.order, 40)):
        codes = rng.sample(range(F.order), n)
        want = []
        for i, ai in enumerate(codes):
            acc = 1
            for j, aj in enumerate(codes):
                if j != i:
                    acc = F.mul_codes(acc, F.sub_codes(ai, aj))
            want.append(acc)
        got = lagrange_weights(tuple(F.from_code(c) for c in codes))
        assert [x.code for x in got] == want


def test_routes_always_agree_on_random_specs():
    rng = random.Random(2024)
    for (p, e) in [(3, 1), (2, 2), (5, 1)]:
        F = make_field(p, e)
        for _ in range(60):
            n = rng.randrange(2, min(F.order, 9))
            k = rng.randrange(1, n + 1)
            loc_codes = rng.sample(range(F.order), n)
            mult_codes = [rng.randrange(1, F.order) for _ in range(n)]
            spec = GrsSpec(F,
                           tuple(F.from_code(c) for c in loc_codes),
                           tuple(F.from_code(c) for c in mult_codes), k)
            gram_ok = hermitian_gram(spec).is_zero()
            dual_ok, _ = dual_containment_check(spec)
            assert gram_ok == dual_ok


def test_dual_check_k_equals_n():
    # degree <= -1 means the weighted values must vanish identically;
    # with nonzero multipliers that is impossible, so k = n always fails
    F = make_field(3, 1)
    spec = _full_field_spec(F, 9)
    ok, j = dual_containment_check(spec)
    assert not ok
    assert not hermitian_gram(spec).is_zero()


def test_exhaustive_distance_is_singleton_for_tiny_grs():
    # brute-force oracle: every nonzero message, minimum weight == n-k+1
    F = make_field(3, 1)
    rng = random.Random(8)
    loc_codes = rng.sample(range(F.order), 4)
    spec = GrsSpec(F, tuple(F.from_code(c) for c in loc_codes),
                   tuple(F.from_code(rng.randrange(1, F.order)) for _ in range(4)), 2)
    G = generator_matrix(spec)
    best = spec.n + 1
    for m0 in range(F.order):
        for m1 in range(F.order):
            if m0 == m1 == 0:
                continue
            word = [F.add_codes(F.mul_codes(m0, G.rows[0][i]),
                                F.mul_codes(m1, G.rows[1][i])) for i in range(spec.n)]
            best = min(best, sum(1 for c in word if c))
    assert best == singleton_distance(spec.n, spec.k) == 3
