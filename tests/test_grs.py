"""GRS core tests.

The key frozen oracle: evaluating at *all* field elements with unit
multipliers gives power sums, which vanish exactly while q*i + j stays
below the group order.  Over GF(9) that makes k = 2 Hermitian
self-orthogonal and k = 3 not — computed by hand, pinned here, and used to
cross-check both verification routes.
"""
from __future__ import annotations

import random

import numpy as np
import pytest

from qgrs import bulk, field, grs
from qgrs.constructions import construct
from qgrs.field import make_field
from qgrs.grs import (
    GrsSpec,
    dual_containment_check,
    generator_matrix,
    hermitian_gram,
    lagrange_weights,
    singleton_distance,
)

import oracle
from oracle import ScalarField


def _full_field_spec(F, k):
    return GrsSpec(F, tuple(range(F.order)), (1,) * F.order, k)


def test_full_length_unit_code_gf9():
    F = make_field(3, 1)
    S = ScalarField(F)
    ok2 = _full_field_spec(F, 2)
    assert not hermitian_gram(ok2).any()
    assert dual_containment_check(ok2) == (True, None)

    bad3 = _full_field_spec(F, 3)
    gram = hermitian_gram(bad3)
    assert gram.any()
    # the offending entry is (i, j) = (2, 2): power sum of x^8 = -1
    assert gram[2, 2] == S.neg(1)
    ok_dual, bad_j = dual_containment_check(bad3)
    assert not ok_dual
    assert bad_j == 2


def test_generator_matrix_frozen_gf4():
    F = make_field(2, 2)
    S = ScalarField(F)
    w = int(F.vexp(1))
    spec = GrsSpec(F, (0, 1, w), (1, 1, w), k=2)
    G = generator_matrix(spec)
    assert G.shape == (2, 3) and G.dtype == np.int64
    # row 0: multipliers times a^0 (0^0 = 1), row 1: multipliers times a
    assert G[0].tolist() == [1, 1, w]
    assert G[1].tolist() == [0, 1, S.mul(w, w)]


def test_zero_locator_power_convention():
    F = make_field(3, 1)
    spec = GrsSpec(F, (0, 1), (1, 1), k=2)
    G = generator_matrix(spec)
    assert G[0, 0] == 1  # 0^0
    assert G[1, 0] == 0  # 0^1


def test_spec_validation():
    F = make_field(3, 1)
    for locs, mults, k in [
        ((1, 1), (1, 1), 1),            # repeated locator
        ((0, 1), (1, 0), 1),            # zero multiplier
        ((0, 1), (1, 1), 3),            # k > n
        ((0, 1), (1,), 1),              # length mismatch
        ((0, 9), (1, 1), 1),            # locator code past the order
        ((0, 1), (1, -1), 1),           # negative multiplier code
        ((0, 1), (1, 9), 1),            # multiplier code past the order
        ((0, 1.0), (1, 1), 1),          # not an int
        ((0, True), (1, 1), 1),         # a bool is not a code
        ((0, np.int64(1)), (1, 1), 1),  # nor is a numpy scalar
        ((0, "1"), (1, 1), 1),
    ]:
        with pytest.raises(ValueError):
            GrsSpec(F, locs, mults, k)


@pytest.mark.parametrize("locs,mults,k,msg", [
    ((0, 1), (1, 1), 10 ** 4000, "k = 1000"),
    ((0, 10 ** 4000), (1, 1), 1, "1000"),
    ((0, 1), (1, "x" * 10 ** 6), 1, "'xxx"),
    ((0, 1), (1, [[0] * 1000] * 1000), 1, "[[0, 0, 0, 0, 0, 0, ...], "),
], ids=["huge-k", "huge-locator", "long-string-multiplier", "nested-multiplier"])
def test_spec_validation_messages_are_bounded(locs, mults, k, msg):
    # the rejected value is summarized, not echoed whole
    with pytest.raises(ValueError) as info:
        GrsSpec(make_field(3, 1), locs, mults, k)
    assert str(info.value).startswith(msg) and len(str(info.value)) < 200


def test_lagrange_weights_frozen():
    F = make_field(7, 1)
    assert lagrange_weights(F, (1, 2, 3)).tolist() == [2, 6, 2]


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (13, 1), (2, 6), (3, 4)],
                         ids=["GF9", "GF16", "GF169", "GF4096", "GF6561"])
def test_lagrange_weights_match_scalar_products(p, e):
    F = make_field(p, e)
    S = ScalarField(F)
    rng = random.Random(F.order)
    for n in (1, 2, 5, min(F.order, 40)):
        codes = rng.sample(range(F.order), n)
        want = []
        for i, ai in enumerate(codes):
            acc = 1
            for j, aj in enumerate(codes):
                if j != i:
                    acc = S.mul(acc, S.sub(ai, aj))
            want.append(acc)
        assert lagrange_weights(F, codes).tolist() == want


def test_routes_always_agree_on_random_specs():
    rng = random.Random(2024)
    for (p, e) in [(3, 1), (2, 2), (5, 1)]:
        F = make_field(p, e)
        for _ in range(60):
            n = rng.randrange(2, min(F.order, 9))
            k = rng.randrange(1, n + 1)
            loc_codes = rng.sample(range(F.order), n)
            mult_codes = [rng.randrange(1, F.order) for _ in range(n)]
            spec = GrsSpec(F, tuple(loc_codes), tuple(mult_codes), k)
            gram_ok = not hermitian_gram(spec).any()
            dual_ok, _ = dual_containment_check(spec)
            assert gram_ok == dual_ok


@pytest.mark.parametrize("e", [2, 5], ids=["GF81", "GF59049"])
def test_gram_route_at_odd_p_sums_every_digit(e):
    # the gram route's field sums at p = 3 with e >= 2 (GF(3^10) reduces
    # each half of its spreads on its own), on random specs of odd length
    # with a zero locator, against sums of scalar products; then both
    # routes on the random specs and on a code that passes
    F = make_field(3, e)
    S = ScalarField(F)
    rng = random.Random(e)
    for n in (5, 7, 9, 11):
        k = rng.randrange(2, 5)
        locs = [0] + rng.sample(range(1, F.order), n - 1)
        rng.shuffle(locs)
        mults = [rng.randrange(1, F.order) for _ in range(n)]
        spec = GrsSpec(F, tuple(locs), tuple(mults), k)
        gram = hermitian_gram(spec)
        for i in range(k):
            for j in range(k):
                acc = 0
                for a, v in zip(locs, mults):
                    acc = S.add(acc, S.mul(S.norm(v), S.pow(a, F.q * i + j)))
                assert gram[i, j] == acc
        assert (not gram.any()) == dual_containment_check(spec)[0]
    spec = construct(*{2: (3, 9, 4, 2, 4), 5: (2, 243, 244, 3, 20)}[e])
    assert not hermitian_gram(spec).any()
    assert dual_containment_check(spec) == (True, None)


def test_dual_check_k_equals_n():
    # degree <= -1 means the weighted values must vanish identically;
    # with nonzero multipliers that is impossible, so k = n always fails
    F = make_field(3, 1)
    spec = _full_field_spec(F, 9)
    ok, j = dual_containment_check(spec)
    assert not ok
    assert hermitian_gram(spec).any()


def test_exhaustive_distance_is_singleton_for_tiny_grs():
    # brute-force oracle: every nonzero message, minimum weight == n-k+1
    F = make_field(3, 1)
    S = ScalarField(F)
    rng = random.Random(8)
    loc_codes = rng.sample(range(F.order), 4)
    spec = GrsSpec(F, tuple(loc_codes),
                   tuple(rng.randrange(1, F.order) for _ in range(4)), 2)
    G = generator_matrix(spec)
    best = spec.n + 1
    for m0 in range(F.order):
        for m1 in range(F.order):
            if m0 == m1 == 0:
                continue
            word = [S.add(S.mul(m0, int(G[0, i])), S.mul(m1, int(G[1, i])))
                    for i in range(spec.n)]
            best = min(best, sum(1 for c in word if c))
    assert best == singleton_distance(spec.n, spec.k) == 3


# the paper's new codes at three characteristics: [61, 9]_16, [60, 5]_11 and
# [127, 32]_64 (d = k + 1 > q/2 + 1)
_SLICED_CODES = [(1, 16, 17, 4, 9), (2, 11, 6, 3, 5), (1, 64, 65, 2, 32)]


def _norm_mutant(spec):
    """The code with its middle multiplier times g, whose norm is not 1."""
    F = spec.field
    mults = list(spec.multipliers)
    mults[len(mults) // 2] = int(F.vmul(mults[len(mults) // 2], F.vexp(1)))
    return GrsSpec(F, spec.locators, tuple(mults), spec.k)


@pytest.mark.parametrize("args", _SLICED_CODES, ids=lambda a: f"f{a[0]}-q{a[1]}-k{a[4]}")
def test_interpolation_route_matches_scalar_divided_differences(monkeypatch, args):
    # the route hands bulk.newton_coefficients N(v_i) a_i^(qj) and lets the
    # node products u_i cancel there; its top rows must still be the top k
    # divided differences of u_i N(v_i) a_i^(qj), computed by scalar ops,
    # for all k rows of the code and of its mutant
    tops = []
    newton = bulk.newton_coefficients

    def recording(*call):
        tops.append(newton(*call))
        return tops[-1]

    monkeypatch.setattr(bulk, "newton_coefficients", recording)
    spec = construct(*args)
    cases = [spec, _norm_mutant(spec)]
    F, n, k = spec.field, spec.n, spec.k
    S = ScalarField(F)
    us = oracle.node_products(F, spec.locators)
    js = range(k)
    rows = [[S.mul(S.mul(u, S.norm(v)), S.pow(a, F.q * j))
             for a, v, u in zip(c.locators, c.multipliers, us)]
            for c in cases for j in js]
    want = [dd[n - k:] for dd in oracle.divided_differences(F, spec.locators, rows)]
    got, verdicts = [], []
    for c in cases:
        tops.clear()
        verdicts.append(dual_containment_check(c))
        assert len(tops) == 1 and tops[0].shape == (k, k)
        got += [tops[0][j].tolist() for j in js]
    assert got == want
    # the mutant moves row 0's top coefficient, sum_i N(v_i), by its change
    # of norm, so its first failing j is 0
    assert not any(map(any, want[:k])) and any(want[k])
    assert verdicts == [(True, None), (False, 0)]


def test_interpolation_route_reads_neither_node_products_nor_gram(monkeypatch):
    # the node products cancel inside the Newton kernel, and the route
    # shares nothing with the gram route
    def forbidden(*args):
        raise AssertionError("called by the interpolation route")

    spec = construct(*_SLICED_CODES[1])
    monkeypatch.setattr(grs, "lagrange_weights", forbidden)
    monkeypatch.setattr(grs, "hermitian_gram", forbidden)
    assert dual_containment_check(spec) == (True, None)
    assert dual_containment_check(_norm_mutant(spec))[0] is False


@pytest.mark.parametrize("args", _SLICED_CODES, ids=lambda a: f"f{a[0]}-q{a[1]}-k{a[4]}")
def test_routes_match_across_slice_boundaries(monkeypatch, args):
    # a 64-entry batch bound puts one node-difference row in each slice,
    # a 1000-entry one a few rows with a short last slice; the same bounds
    # on vdot's groups put one term, or a few with a short last group, in
    # each group of the gram and Newton sums.  Every route must give its
    # one-slice result, on the code and on a norm-changing mutant of it
    spec = construct(*args)
    F = spec.field
    cases = [spec, _norm_mutant(spec)]
    monkeypatch.setattr(bulk, "_BATCH_ENTRIES", 1 << 40)
    monkeypatch.setattr(field, "_DOT_GROUP", 1 << 40)
    whole = [(hermitian_gram(c), dual_containment_check(c),
              lagrange_weights(F, c.locators)) for c in cases]
    assert whole[0][1] == (True, None) and whole[1][1][0] is False

    rows = []
    power_codes = bulk.power_codes

    def counting(F, base, exps):
        rows.append(len(exps))
        return power_codes(F, base, exps)

    monkeypatch.setattr(bulk, "power_codes", counting)
    for bound in (64, 1000):
        monkeypatch.setattr(bulk, "_BATCH_ENTRIES", bound)
        monkeypatch.setattr(field, "_DOT_GROUP", bound)
        for c, (gram, dual, weights) in zip(cases, whole):
            rows.clear()
            assert np.array_equal(hermitian_gram(c), gram)
            # two k x n power tables, a^(q i) and a^j, not k^2 exponent rows
            assert rows == [spec.k, spec.k]
            assert dual_containment_check(c) == dual
            assert np.array_equal(lagrange_weights(F, c.locators), weights)
