"""Construction-family tests.

Each family gets at least one frozen instance whose [[n, k, d]]_q was
computed by hand from the closed forms and is certified through both
self-orthogonality routes plus the MDS ladder.  The validator's typed
rejections are pinned per hypothesis, and the q = 4 full-unit-group
ceiling is frozen together with the exhaustive kernel facts that justify
it, so the carve-out cannot silently drift away from the mathematics.
"""
from __future__ import annotations

import itertools

import pytest

from qgrs.constructions import (
    FAMILIES,
    Params,
    QuantumParams,
    construct,
    iter_family_params,
    propagate,
    to_quantum,
    validate,
)
from qgrs.errors import (
    DistanceTooSmall,
    DivisibilityViolated,
    NotMDS,
    NotSelfOrthogonal,
    ParityViolated,
    RangeViolated,
)
from qgrs.exponents import Scenario, ScenarioKind, enumerate_quotients
from qgrs.field import field_for_q
from qgrs.grs import hermitian_gram
from qgrs.matrix import FMatrix
from qgrs.verifier import brute_force_multiplier_search, certify


def _lift(spec):
    cert = certify(spec)
    assert cert.herm_gram_ok and cert.herm_interp_ok
    assert cert.mds_ok, cert.mds
    return to_quantum(spec, cert)


# ---------------------------------------------------------------------------
# frozen instances, one (or more) per family
# ---------------------------------------------------------------------------


FROZEN = [
    # family, (q, h, r, k), [[n, kq, d]]_q
    (1, (7, 8, 5, 5), (31, 21, 6, 7)),
    (1, (17, 9, 8, 15), (257, 227, 16, 17)),
    (2, (5, 6, 5, 4), (20, 12, 5, 5)),
    (2, (7, 8, 5, 5), (30, 20, 6, 7)),
    (3, (13, 12, 5, 11), (70, 48, 12, 13)),
    (3, (5, 4, 2, 2), (12, 8, 3, 5)),
    (4, (7, 6, 4, 5), (32, 22, 6, 7)),
    (4, (13, 4, 3, 9), (126, 108, 10, 13)),
    (5, (8, 7, 3, 3), (27, 21, 4, 8)),
    (5, (4, 3, 1, 1), (5, 3, 2, 4)),
]


@pytest.mark.parametrize("family,args,expected", FROZEN)
def test_frozen_instances(family, args, expected):
    qp = _lift(construct(family, *args))
    assert (qp.n, qp.k, qp.d, qp.q) == expected
    assert qp.is_length_maximal


def test_derived_instance_has_no_smaller_sibling():
    # the (q, h, r) = (13, 4, 3) cell pins every derived scalar
    p = validate(4, 13, 4, 3, 9)
    assert (p.m, p.n, p.k_max, p.s, p.t) == (42, 126, 9, 2, 1)
    # and no admissible family-4 cell at q = 13 has length 90
    lengths = {c.n for c in iter_family_params(13) if c.family == 4}
    assert 90 not in lengths


def test_nondefault_index_lists():
    spec = construct(5, 5, 4, 2, 2, i_list=(0, 2))
    qp = _lift(spec)
    assert (qp.n, qp.k, qp.d) == (12, 8, 3)
    assert spec.provenance["i_list"] == [0, 2]
    # family 4 with shifted coset picks
    spec2 = construct(4, 7, 6, 4, 4, i_list=(0, 2), j_list=(1, 2))
    assert _lift(spec2).n == 32


# ---------------------------------------------------------------------------
# validator rejections, one per hypothesis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,args,exc", [
    (1, (7, 6, 3, 2), DivisibilityViolated),   # h must divide q + 1
    (1, (7, 2, 1, 1), RangeViolated),          # h >= 3
    (1, (7, 8, 7, 5), RangeViolated),          # r < min(q, h)
    (1, (7, 8, 1, 1), RangeViolated),          # r > 1
    (1, (7, 8, 4, 3), ParityViolated),         # r + h must be odd
    (1, (7, 8, 5, 6), RangeViolated),          # k above the closed-form cap
    (2, (7, 7, 3, 2), ParityViolated),         # h must be even
    (2, (7, 6, 3, 2), DivisibilityViolated),
    (2, (7, 8, 4, 3), ParityViolated),         # r must be odd
    (2, (7, 8, 1, 1), RangeViolated),          # r >= 3
    (2, (7, 8, 5, 6), RangeViolated),          # the contract's own worked tuple
    (3, (13, 5, 2, 2), ParityViolated),
    (3, (13, 8, 2, 2), DivisibilityViolated),  # 8 does not divide 12
    (3, (13, 4, 3, 2), RangeViolated),         # r <= s = 2
    (4, (13, 4, 2, 2), RangeViolated),         # r strictly between s and 2s
    (4, (13, 4, 4, 2), RangeViolated),
    (5, (7, 4, 1, 1), DivisibilityViolated),   # 4 does not divide 6
    (5, (7, 6, 7, 1), RangeViolated),          # r <= h
    (5, (7, 6, 3, 4), RangeViolated),          # k above r(q-1)/h
    (6, (7, 8, 5, 5), RangeViolated),          # no such family
    (1, (6, 7, 3, 1), RangeViolated),          # q not a prime power
])
def test_validate_rejections(family, args, exc):
    with pytest.raises(exc):
        validate(family, *args)


def test_rejected_contract_tuple_has_working_sibling():
    # q = 7, h = 8, r = 5 caps k at 5; the k = 5 code certifies
    with pytest.raises(RangeViolated):
        validate(2, 7, 8, 5, 6)
    assert validate(2, 7, 8, 5, 5).k_max == 5


@pytest.mark.parametrize("family,kwargs", [
    (1, {"i_list": (0, 1, 2, 3, 4)}),
    (1, {"j_list": (0, 1)}),
    (2, {"j_list": (0, 1)}),
    (5, {"j_list": (0,)}),
])
def test_unused_index_lists_rejected(family, kwargs):
    base = {1: (7, 8, 5, 5), 2: (5, 6, 5, 4), 5: (8, 7, 3, 3)}[family]
    with pytest.raises(RangeViolated):
        validate(family, *base, **kwargs)


def test_index_lists_checked_for_shape_and_collision():
    with pytest.raises(RangeViolated):
        validate(2, 5, 6, 5, 4, i_list=(0, 1, 2))          # wrong length
    with pytest.raises(RangeViolated):
        validate(2, 5, 6, 5, 4, i_list=(0, 1, 2, 3, 9))    # 9 = 3 mod 6
    with pytest.raises(RangeViolated):
        validate(5, 5, 4, 2, 2, i_list=(1, 5))             # collide mod 4


# ---------------------------------------------------------------------------
# the q = 4 full-unit-group ceiling, with its exhaustive justification
# ---------------------------------------------------------------------------


def _base_kernel(F, locators, k):
    """Base-field basis of the norm-profile solution space."""
    q = F.q
    rows = []
    for i in range(k):
        for j in range(k):
            row0, row1 = [], []
            for a in locators:
                c0, c1 = F.split_code(F.pow_code(a.code, q * i + j))
                row0.append(c0)
                row1.append(c1)
            rows.append(row0)
            rows.append(row1)
    return FMatrix(F, rows, ncols=len(locators)).nullspace()


def test_full_unit_group_gf16_has_no_k3_profile():
    # locators = every unit of GF(16); the k = 3 profile system's base-field
    # solution space is 6-dimensional and none of its 4^6 vectors is totally
    # nonzero — checked here in full, not sampled
    F = field_for_q(4)
    locators = tuple(F.from_log(i) for i in range(15))
    kern = _base_kernel(F, locators, 3)
    assert len(kern) == 6
    scalars = F.base_codes()
    hits = 0
    for coeffs in itertools.product(scalars, repeat=6):
        vec = [0] * 15
        for c, row in zip(coeffs, kern):
            if c == 0:
                continue
            for idx, r in enumerate(row):
                vec[idx] = F.add_codes(vec[idx], F.mul_codes(c, r))
        if all(vec):
            hits += 1
    assert hits == 0


def test_full_unit_group_ceiling_is_enforced_and_sharp():
    for h, r in ((1, 1), (3, 3)):
        with pytest.raises(RangeViolated):
            validate(5, 4, h, r, 3)
        assert validate(5, 4, h, r, 2).k_max == 2
        qp = _lift(construct(5, 4, h, r, 2))
        assert (qp.n, qp.k, qp.d) == (15, 11, 3)
    # GF(4) has no admissible tuple at all: the lone profile candidate fails
    with pytest.raises(RangeViolated):
        validate(5, 2, 1, 1, 1)


def test_full_unit_group_fine_at_q8():
    # the analogous ceiling does NOT apply one field up
    p = validate(5, 8, 7, 7, 7)
    assert p.k_max == 7
    qp = _lift(construct(5, 8, 7, 7, 7))
    assert (qp.n, qp.k, qp.d) == (63, 49, 8)


def test_zero_union_strict_coset_bound_is_load_bearing():
    # r = q = h - 1 is excluded by the validator, and for even q that
    # exclusion is forced: the profile system has no totally nonzero
    # base-field solution.  Frozen here for q = 4 (full exhaustion, both
    # the coset-constant ansatz and the entire 13-locator profile space)
    # and q = 8 (the 2-dimensional ansatz kernel, exhausted)
    for q in (4, 5, 7, 8):
        with pytest.raises(RangeViolated):
            validate(1, q, q + 1, q, 1)

    def _exhaust(F, kern, width, base_only=True):
        hits = 0
        for coeffs in itertools.product(range(F.order), repeat=len(kern)):
            vec = [0] * width
            for c, row in zip(coeffs, kern):
                if c == 0:
                    continue
                for i, v in enumerate(row):
                    vec[i] = F.add_codes(vec[i], F.mul_codes(c, v))
            if all(vec) and (not base_only
                             or all(F.in_base_code(v) for v in vec)):
                hits += 1
        return hits

    F = field_for_q(4)
    alpha = F.from_log(3)
    rows = [[1] * 5]
    for u in (2, 3):
        rows.append([0] + [F.pow_code(alpha.code, l * u) for l in range(1, 5)])
    kern = FMatrix(F, rows, ncols=5).nullspace()
    assert _exhaust(F, kern, 5) == 0

    # stronger: no [13, 3] code of this shape exists on those locators with
    # ANY multipliers — the whole norm-profile space is empty of candidates
    locs = [F.zero] + [F.from_log(l + 5 * nu) for l in (1, 2, 3, 4)
                       for nu in range(3)]
    full_kern = _base_kernel(F, locs, 3)
    assert len(full_kern) == 4
    assert _exhaust(F, full_kern, 13) == 0

    F8 = field_for_q(8)
    alpha8 = F8.from_log(7)
    rows = [[1] * 9]
    for u in range(2, 8):
        rows.append([0] + [F8.pow_code(alpha8.code, l * u) for l in range(1, 9)])
    kern8 = FMatrix(F8, rows, ncols=9).nullspace()
    assert len(kern8) == 2
    hits = 0
    for coeffs in itertools.product(range(F8.order), repeat=2):
        vec = [0] * 9
        for c, row in zip(coeffs, kern8):
            if c == 0:
                continue
            for i, v in enumerate(row):
                vec[i] = F8.add_codes(vec[i], F8.mul_codes(c, v))
        if all(vec) and all(F8.in_base_code(v) for v in vec):
            hits += 1
    assert hits == 0


# ---------------------------------------------------------------------------
# explicit-weight paths
# ---------------------------------------------------------------------------


def test_explicit_path_odd_q():
    spec = construct(5, 7, 6, 2, 2, i_list=(1, 3))
    assert spec.provenance["path"] == "explicit"
    _lift(spec)


def test_kernel_path_even_q():
    # base-subfield locators have zero trace in characteristic 2, so the
    # node-product recipe divides by zero and the profile solver takes over
    spec = construct(5, 8, 7, 3, 3)
    assert spec.provenance["path"] == "kernel"
    _lift(spec)


def test_brute_force_oracle_agrees():
    F = field_for_q(4)
    spec = construct(5, 4, 3, 1, 1)
    rep = brute_force_multiplier_search(F, spec.locators, 1)
    assert rep.found is not None
    # and the oracle's multipliers certify through the same pipeline
    from qgrs.grs import GrsSpec
    alt = GrsSpec(F, spec.locators, rep.found, 1)
    assert certify(alt).herm_ok


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,h", [(5, 6), (7, 8), (8, 9), (9, 5), (13, 4)])
def test_geometric_series_vanishing(q, h):
    # sum over a coset of order m of the E-th powers collapses: m copies of
    # the unit when m | E, zero otherwise
    F = field_for_q(q)
    m = (q * q - 1) // h
    theta = F.from_log(h)
    m_bar = F.from_code(F.embed_int(m))
    for E in range(2 * m + 3):
        total = F.zero
        acc = F.one
        step = theta ** E
        for _ in range(m):
            total = total + acc
            acc = acc * step
        expected = m_bar if E % m == 0 else F.zero
        assert total == expected, (q, h, E)


@pytest.mark.parametrize("kind,q,s,t", [
    (ScenarioKind.EVEN, 7, 4, 1),
    (ScenarioKind.ODD, 8, 4, 2),
    (ScenarioKind.SHIFTED_EVEN, 5, 3, 0),
    (ScenarioKind.HALF_SHIFT, 13, 2, 1),
])
def test_nonvanishing_pairs_match_quotient_prediction(kind, q, s, t):
    # three independent routes to the same set: actual field sums, the
    # integer walk, and the closed form
    sc = Scenario(kind, q, s, t)
    F = field_for_q(q)
    m, off, k = sc.m, sc.offset, sc.k_max
    theta = F.from_log(sc.h)
    seen = set()
    for i in range(k):
        for j in range(k):
            E = q * i + j + off
            total = F.zero
            acc = F.one
            step = theta ** E
            for _ in range(m):
                total = total + acc
                acc = acc * step
            if not total.is_zero:
                seen.add(E // m)
    assert seen == set(enumerate_quotients(q, m, off, k))
    assert seen == set(sc.quotients)


def test_construction_is_deterministic():
    for family, args in [(1, (7, 8, 5, 5)), (2, (5, 6, 5, 4)),
                         (3, (5, 4, 2, 2)), (4, (7, 6, 4, 4)),
                         (5, (8, 7, 3, 3))]:
        a = construct(family, *args)
        b = construct(family, *args)
        assert a.locator_codes() == b.locator_codes()
        assert a.multiplier_codes() == b.multiplier_codes()
        assert a.k == b.k


def test_multiplier_mutation_breaks_orthogonality():
    spec = construct(1, 7, 8, 5, 5)
    F = spec.field
    mutated = list(spec.multipliers)
    mutated[3] = mutated[3] * F.gen
    from qgrs.grs import GrsSpec
    bad = GrsSpec(F, spec.locators, tuple(mutated), spec.k)
    assert not hermitian_gram(bad).is_zero()


# ---------------------------------------------------------------------------
# quantum lift and propagation
# ---------------------------------------------------------------------------


def test_to_quantum_gates_on_certificates():
    spec = construct(1, 7, 8, 5, 5)
    cert = certify(spec)
    qp = to_quantum(spec, cert)
    assert str(qp) == "[[31,21,6]]_7"

    class Fake:
        herm_ok = False
        mds_ok = True
    with pytest.raises(NotSelfOrthogonal):
        to_quantum(spec, Fake())
    Fake.herm_ok, Fake.mds_ok = True, False
    with pytest.raises(NotMDS):
        to_quantum(spec, Fake())


def test_propagate_chain():
    qp = QuantumParams(31, 21, 6, 7)
    out = propagate(qp)
    assert (out.n, out.k, out.d, out.q) == (30, 22, 5, 7)
    assert out.is_length_maximal
    # run the ladder all the way down
    while out.d >= 2:
        out = propagate(out)
        assert out.is_length_maximal
    with pytest.raises(DistanceTooSmall):
        propagate(out)


def test_small_q_cells_all_certify():
    # the full sweep lives in the acceptance suite; here just the smallest
    # two fields, end to end
    seen = 0
    for q in (3, 4):
        for p in iter_family_params(q, n_max=64):
            qp = _lift(construct(p.family, p.q, p.h, p.r, p.k))
            assert qp.n == p.n and qp.k == p.n - 2 * p.k
            seen += 1
    assert seen == 10


def test_iter_family_params_respects_n_max():
    all_cells = list(iter_family_params(13))
    small = list(iter_family_params(13, n_max=64))
    assert len(small) < len(all_cells)
    assert all(c.n <= 64 for c in small)
    assert FAMILIES == (1, 2, 3, 4, 5)
    assert all(isinstance(c, Params) and c.k == c.k_max for c in small)
