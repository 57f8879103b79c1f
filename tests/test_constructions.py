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
import time

import numpy as np
import pytest

from qgrs import constructions
from qgrs.constructions import (
    FAMILIES,
    Params,
    QuantumParams,
    _coset_locators,
    _profile_system,
    construct,
    iter_family_params,
    propagate,
    to_quantum,
    validate,
)
from qgrs.errors import (
    DistanceTooSmall,
    DivisibilityViolated,
    InvalidScenario,
    NotMDS,
    NotSelfOrthogonal,
    ParamsRejected,
    ParityViolated,
    RangeViolated,
)
from qgrs.exponents import Scenario, ScenarioKind
from qgrs.field import field_for_q, prime_power_decompose
from qgrs.grs import GrsSpec, hermitian_gram, lagrange_weights
from qgrs.matrix import FMatrix
from qgrs.verifier import certify

from oracle import (
    ScalarField,
    brute_force_multiplier_search,
    enumerate_quotients,
    family_cells,
)


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
    assert (p.m, p.n, p.k_max) == (42, 126, 9)
    assert p.scenario == Scenario(ScenarioKind.HALF_SHIFT, 13, 2, 1)
    # family 3's window radius is r itself
    assert validate(3, 13, 12, 5, 11).scenario == Scenario(
        ScenarioKind.HALF_SHIFT, 13, 6, 5)
    assert validate(5, 13, 4, 3, 9).scenario is None
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
    (1, (7, 0, 3, 1), DivisibilityViolated),   # h = 0 divides nothing
    (2, (7, 0, 3, 1), DivisibilityViolated),
    (3, (7, 0, 1, 1), DivisibilityViolated),
    (4, (7, 0, 1, 1), DivisibilityViolated),
    (5, (7, 0, 1, 1), DivisibilityViolated),
])
def test_validate_rejections(family, args, exc):
    with pytest.raises(exc):
        validate(family, *args)


def test_validate_raises_only_params_rejected():
    # every small tuple, out-of-range ones included, is either accepted or
    # rejected with a ParamsRejected subclass: nothing else escapes (the CLI
    # maps exactly that class to exit 2)
    accepted = 0
    for family in range(1, 6):
        for q in range(-1, 33):
            for h in range(-1, q + 2):
                for r in range(-1, h + 2):
                    for k in (0, 1, 10 ** 4):
                        try:
                            validate(family, q, h, r, k)
                        except ParamsRejected:
                            continue
                        accepted += 1
    assert accepted > 1000


def test_validate_states_every_scenario_hypothesis():
    # validate() states each family's window hypotheses itself, so every
    # tuple it accepts builds its Scenario: no InvalidScenario escapes, and
    # no rejection reads the window parameter t, which no caller passes.
    # Family 2 needs r < h (t = (r - 3)/2 <= h/2 - 2), and says so
    named = 0
    for q in range(2, 129):
        try:
            prime_power_decompose(q)
        except ValueError:
            continue
        hs = [h for h in range(1, q + 2) if (q + 1) % h == 0 or (q - 1) % h == 0]
        for family, h in itertools.product(range(1, 6), hs):
            for r in range(h + 3):
                try:
                    validate(family, q, h, r, 1)
                except ParamsRejected as e:
                    msg = str(e)
                    assert "t = " not in msg and not isinstance(
                        e.__cause__, InvalidScenario), (family, q, h, r, msg)
                    if (family == 2 and r >= h and r % 2 and h % 2 == 0
                            and (q + 1) % h == 0):
                        assert f"r = {r}" in msg and str(h) in msg, msg
                        named += 1
    assert named > 100


def test_validate_bounds_index_entries_by_the_group_order():
    # an index is a discrete log, so |i| < q^2 - 1 (24 at q = 5, 48 at
    # q = 7); the entries tried are distinct mod h, so only the bound rejects
    assert validate(2, 5, 6, 3, 1, i_list=[0, 1, 23]).i_list == (0, 1, 23)
    assert validate(2, 5, 6, 3, 1, i_list=[0, 2, -23]).i_list == (0, 2, -23)
    for bad in (24, -24, 10 ** 30):
        with pytest.raises(RangeViolated, match="i_list entry .* outside"):
            validate(2, 5, 6, 3, 1, i_list=[1, 2, bad])
    assert validate(4, 7, 6, 4, 1, j_list=[0, 47]).j_list == (0, 47)
    with pytest.raises(RangeViolated, match="j_list entry .* outside"):
        validate(4, 7, 6, 4, 1, j_list=[1, 48])


def test_default_index_lists_skip_no_rejection(monkeypatch):
    # validate returns the default index lists 0..r-1 unchecked; passing
    # them explicitly runs the length, bound and distinctness rules.  Every
    # (family, h, r) cell for q <= 32, h <= q + 2, r <= h + 1, must give the
    # same Params, or the same exception type and message, either way
    def outcome(*args):
        try:
            return validate(*args)
        except ParamsRejected as exc:
            return type(exc), str(exc)

    norm = constructions._norm_indices
    cells = [(family, q, h, r, 1)
             for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
             for family in FAMILIES for h in range(q + 3) for r in range(h + 2)]
    unchecked = [outcome(*cell) for cell in cells]
    monkeypatch.setattr(
        constructions, "_norm_indices",
        lambda name, idx, r, modulus, q: norm(
            name, tuple(range(r)) if idx is None else idx, r, modulus, q))
    assert [outcome(*cell) for cell in cells] == unchecked
    assert sum(isinstance(o, Params) for o in unchecked) > 1000


@pytest.mark.parametrize("q", [1031, 2 ** 61 - 1], ids=["q1031", "mersenne61"])
def test_validate_rejects_q_past_the_order_limit_before_factoring(q):
    # GF(q^2) is past the order limit: RangeViolated at once, not a
    # FieldTooLarge from field_for_q after trial division up to sqrt(q)
    t0 = time.perf_counter()
    with pytest.raises(RangeViolated, match="exceeds the order limit"):
        validate(5, q, 2, 1, 1)
    with pytest.raises(RangeViolated, match="exceeds the order limit"):
        construct(5, q, 2, 1, 1)
    assert time.perf_counter() - t0 < 1.0


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


def _split_code(F, a):
    """Scalar reference for the fallback's split: a = a0 + a1 * g."""
    S = ScalarField(F)
    aq = S.frobenius(a)
    g = int(F.vexp(1))
    denom = S.sub(g, S.frobenius(g))
    a1 = S.div(S.sub(a, aq), denom)
    a0 = S.sub(a, S.mul(a1, g))
    return a0, a1


def test_profile_system_matches_scalar_split():
    for q in (4, 5, 9):
        F = field_for_q(q)
        S = ScalarField(F)
        g = int(F.vexp(1))
        for a in range(F.order):
            a0, a1 = _split_code(F, a)
            assert S.in_base(a0) and S.in_base(a1)
            assert S.add(a0, S.mul(a1, g)) == a
        locators = [0] + F.vexp(np.arange(0, F.order - 1, 3)).tolist()
        for k in (1, 2, 3):
            rows = []
            for i in range(k):
                for j in range(i, k):
                    halves = [_split_code(F, S.pow(a, q * i + j))
                              for a in locators]
                    rows += [tuple(h[0] for h in halves), tuple(h[1] for h in halves)]
            got = _profile_system(F, locators, k).array.tolist()
            assert got == [list(r) for r in rows]


def _full_profile_system(F, locators, k):
    """The profile system on all k^2 exponents q*i + j, split as above."""
    q = F.q
    exps = np.array([q * i + j for i in range(k) for j in range(k)])
    P = F.vpow(np.asarray(locators)[None, :], exps[:, None])
    g = F.vexp(1)
    c1 = F.vmul(F.vsub(P, F.vpow(P, q)), F.vinv(F.vsub(g, F.vpow(g, q))))
    c0 = F.vsub(P, F.vmul(c1, g))
    return FMatrix(F, np.stack([c0, c1], axis=1).reshape(-1, len(locators)))


def test_profile_system_orbit_rows_keep_the_reduced_form():
    # one row pair per Frobenius orbit {q*i + j, q*j + i} spans the same
    # rows as all 2k^2: same rref, so the same kernel and documents.  Every
    # family-5 kernel cell (a locator of trace 0) at q <= 13, n <= 64, at
    # every k, and a few at q = 16 and 17
    cells = [(5, q, c.h, c.r, k) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)
             for c in iter_family_params(q, n_max=64) if c.family == 5
             for k in range(1, c.k_max + 1)]
    cells += [(5, 16, 5, 2, 6), (5, 16, 5, 4, 12), (5, 16, 15, 11, 11),
              (5, 17, 8, 4, 8), (5, 17, 8, 6, 12), (5, 17, 16, 13, 13)]
    checked = 0
    for cell in cells:
        p = validate(*cell)
        F = field_for_q(p.q)
        locators = _coset_locators(F, p.i_list, p.h, p.m)
        if F.vadd(F.vpow(locators, p.q), locators).all():
            continue   # explicit path: no profile system
        orbit = _profile_system(F, locators, p.k)
        assert orbit.nrows == p.k * (p.k + 1)
        R, pivots = orbit.rref()
        R_full, pivots_full = _full_profile_system(F, locators, p.k).rref()
        assert pivots == pivots_full, cell
        assert np.array_equal(R.array[:len(pivots)],
                              R_full.array[:len(pivots)]), cell
        checked += 1
    assert checked > 126


def test_full_unit_group_gf16_has_no_k3_profile():
    # locators = every unit of GF(16); the k = 3 profile system's base-field
    # solution space is 6-dimensional and none of its 4^6 vectors is totally
    # nonzero — checked here in full, not sampled
    F = field_for_q(4)
    S = ScalarField(F)
    locators = tuple(F.vexp(np.arange(15)).tolist())
    kern = _profile_system(F, locators, 3).nullspace()
    assert len(kern) == 6
    scalars = F.base_codes()
    hits = 0
    for coeffs in itertools.product(scalars, repeat=6):
        vec = [0] * 15
        for c, row in zip(coeffs, kern):
            if c == 0:
                continue
            for idx, r in enumerate(row):
                vec[idx] = S.add(vec[idx], S.mul(c, r))
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
        S = ScalarField(F)
        hits = 0
        for coeffs in itertools.product(range(F.order), repeat=len(kern)):
            vec = [0] * width
            for c, row in zip(coeffs, kern):
                if c == 0:
                    continue
                for i, v in enumerate(row):
                    vec[i] = S.add(vec[i], S.mul(c, v))
            if all(vec) and (not base_only
                             or all(S.in_base(v) for v in vec)):
                hits += 1
        return hits

    F = field_for_q(4)
    S = ScalarField(F)
    alpha = int(F.vexp(3))
    rows = [[1] * 5]
    for u in (2, 3):
        rows.append([0] + [S.pow(alpha, l * u) for l in range(1, 5)])
    kern = FMatrix(F, rows).nullspace()
    assert _exhaust(F, kern, 5) == 0

    # stronger: no [13, 3] code of this shape exists on those locators with
    # ANY multipliers — the whole norm-profile space is empty of candidates
    locs = [0] + [int(F.vexp(l + 5 * nu)) for l in (1, 2, 3, 4)
                  for nu in range(3)]
    full_kern = _profile_system(F, locs, 3).nullspace()
    assert len(full_kern) == 4
    assert _exhaust(F, full_kern, 13) == 0

    F8 = field_for_q(8)
    S8 = ScalarField(F8)
    alpha8 = int(F8.vexp(7))
    rows = [[1] * 9]
    for u in range(2, 8):
        rows.append([0] + [S8.pow(alpha8, l * u) for l in range(1, 9)])
    kern8 = FMatrix(F8, rows).nullspace()
    assert len(kern8) == 2
    hits = 0
    for coeffs in itertools.product(range(F8.order), repeat=2):
        vec = [0] * 9
        for c, row in zip(coeffs, kern8):
            if c == 0:
                continue
            for i, v in enumerate(row):
                vec[i] = S8.add(vec[i], S8.mul(c, v))
        if all(vec) and all(S8.in_base(v) for v in vec):
            hits += 1
    assert hits == 0


# ---------------------------------------------------------------------------
# explicit-weight paths
# ---------------------------------------------------------------------------


def test_explicit_path_odd_q():
    spec = construct(5, 7, 6, 2, 2, i_list=(1, 3))
    assert spec.provenance["path"] == "explicit"
    _lift(spec)


def _paper_node_products(F, p):
    """The paper's closed form for the node products of a family-5 cell:
    m * a^(m-1) * prod over the other cosets i' of (alpha^i - alpha^i'),
    alpha = g^m, for each locator a of coset i."""
    m = p.m
    heads = F.vexp(m * np.asarray(p.i_list))
    gaps = F.vsub(heads[:, None], heads[None, :])
    np.fill_diagonal(gaps, 1)
    locators = _coset_locators(F, p.i_list, p.h, m)
    return F.vmul(F.vmul(F.vpow(locators, m - 1), np.repeat(F.vprod(gaps, axis=1), m)),
                  F.embed_int(m))


def test_node_products_match_paper_closed_form():
    prime_powers = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
    cells = [c for q in prime_powers for c in iter_family_params(q) if c.family == 5]
    cells.append(validate(5, 7, 6, 2, 2, i_list=(1, 3)))
    cells.append(validate(5, 9, 8, 3, 1, i_list=(5, 2, 7)))
    assert len(cells) > 300
    for p in cells:
        F = field_for_q(p.q)
        locators = _coset_locators(F, p.i_list, p.h, p.m)
        assert (_paper_node_products(F, p) == lagrange_weights(F, locators)).all(), p


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
    S = ScalarField(F)
    m = (q * q - 1) // h
    theta = int(F.vexp(h))
    m_bar = F.embed_int(m)
    for E in range(2 * m + 3):
        total = 0
        acc = 1
        step = S.pow(theta, E)
        for _ in range(m):
            total = S.add(total, acc)
            acc = S.mul(acc, step)
        expected = m_bar if E % m == 0 else 0
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
    S = ScalarField(F)
    m, off, k = sc.m, sc.offset, sc.k_max
    theta = int(F.vexp(sc.h))
    seen = set()
    for i in range(k):
        for j in range(k):
            E = q * i + j + off
            total = 0
            acc = 1
            step = S.pow(theta, E)
            for _ in range(m):
                total = S.add(total, acc)
                acc = S.mul(acc, step)
            if total:
                seen.add(E // m)
    assert seen == set(enumerate_quotients(q, m, off, k))
    assert seen == set(sc.quotients)


def test_construction_is_deterministic():
    for family, args in [(1, (7, 8, 5, 5)), (2, (5, 6, 5, 4)),
                         (3, (5, 4, 2, 2)), (4, (7, 6, 4, 4)),
                         (5, (8, 7, 3, 3))]:
        a = construct(family, *args)
        b = construct(family, *args)
        assert a.locators == b.locators
        assert a.multipliers == b.multipliers
        assert a.k == b.k


def test_multiplier_mutation_breaks_orthogonality():
    spec = construct(1, 7, 8, 5, 5)
    F = spec.field
    S = ScalarField(F)
    mutated = list(spec.multipliers)
    mutated[3] = S.mul(mutated[3], int(F.vexp(1)))
    bad = GrsSpec(F, spec.locators, tuple(mutated), spec.k)
    assert hermitian_gram(bad).any()


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


@pytest.mark.parametrize("n_max", [None, 64])
def test_iter_family_params_matches_per_family_ranges(n_max):
    # validate() alone decides admissibility over r in 1..h; the cells, and
    # their order, are those of each family's own r range
    for q in range(2, 129):
        try:
            prime_power_decompose(q)
        except ValueError:
            continue
        assert list(iter_family_params(q, n_max=n_max)) == family_cells(q, n_max), q


def test_iter_family_params_respects_n_max():
    all_cells = list(iter_family_params(13))
    small = list(iter_family_params(13, n_max=64))
    assert len(small) < len(all_cells)
    assert all(c.n <= 64 for c in small)
    assert FAMILIES == (1, 2, 3, 4, 5)
    assert all(isinstance(c, Params) and c.k == c.k_max for c in small)
