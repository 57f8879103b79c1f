"""Verifier tests: the three MDS routes, the certificate bundle, and the
brute-force existence oracle.

The failure paths need codes that are NOT MDS, which honest constructions
never produce; a minimal duck-typed stand-in with a repeated locator
supplies those without weakening GrsSpec's own invariants.
"""
from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from qgrs import bulk
from qgrs.constructions import construct
from qgrs.errors import VerificationMismatch
from qgrs.field import field_for_q, make_field
from qgrs.grs import GrsSpec
from qgrs.verifier import (
    MdsReport,
    MdsStatus,
    SearchReport,
    brute_force_multiplier_search,
    certify,
    check_matrix_minors,
    check_mds,
    check_mds_minors,
    check_min_distance_exhaustive,
    projective_word_count,
    structural_minor_certificate,
)


class _FakeSpec:
    """Quacks like GrsSpec but skips its invariants (repeated locators)."""

    def __init__(self, field, locators, multipliers, k):
        self.field = field
        self.locators = tuple(locators)
        self.multipliers = tuple(multipliers)
        self.k = k

    @property
    def n(self):
        return len(self.locators)

    def locator_codes(self):
        return [x.code for x in self.locators]

    def multiplier_codes(self):
        return [x.code for x in self.multipliers]


def _degenerate_spec():
    F = make_field(3, 1)
    one = F.one
    locs = (F.zero, one, one)          # repeated locator
    return _FakeSpec(F, locs, (one, one, one), 2)


@pytest.fixture(scope="module")
def small_spec():
    return construct(2, 5, 6, 5, 4)    # [20, 4] over GF(25)


# ---------------------------------------------------------------------------
# route agreement and selection
# ---------------------------------------------------------------------------


def test_three_routes_agree_on_real_code(small_spec):
    a = check_mds_minors(small_spec)
    b = check_min_distance_exhaustive(small_spec)
    c = structural_minor_certificate(small_spec)
    assert a.status == b.status == c.status == MdsStatus.VERIFIED
    assert a.method == "minors" and a.checked == math.comb(20, 4)
    assert b.method == "exhaustive-distance"
    assert b.checked == projective_word_count(25, 4)
    assert c.method == "structural" and 0 < c.checked <= 512


def test_ladder_selects_by_budget(small_spec):
    assert check_mds(small_spec).method == "minors"
    assert check_mds(small_spec, minor_budget=10).method == "exhaustive-distance"
    r = check_mds(small_spec, minor_budget=10, word_budget=10)
    assert r.method == "structural"
    assert r.ok


def test_budget_exceeded_reports(small_spec):
    r = check_mds_minors(small_spec, budget=1)
    assert r.status is MdsStatus.BUDGET_EXCEEDED and not r.ok
    assert "C(20,4)" in r.detail
    r2 = check_min_distance_exhaustive(small_spec, budget=1)
    assert r2.status is MdsStatus.BUDGET_EXCEEDED
    assert "projective words" in r2.detail


def test_minors_catch_repeated_locator():
    r = check_mds_minors(_degenerate_spec())
    assert r.status is MdsStatus.FAILED
    assert "singular minor" in r.detail
    assert "(1, 2)" in r.detail


def _reference_minors(F, G, chunk):
    """Every k-subset in itertools order, decided in one batch."""
    k, n = G.shape
    subsets = np.array(list(itertools.combinations(range(n), k)))
    good = bulk.batch_minors_nonsingular(F, G[:, subsets].transpose(1, 0, 2))
    total = len(subsets)
    if good.all():
        return MdsReport(MdsStatus.VERIFIED, "minors", total)
    rank = int(np.flatnonzero(~good)[0])
    bad = tuple(int(c) for c in subsets[rank])
    return MdsReport(MdsStatus.FAILED, "minors",
                     min(total, (rank // chunk + 1) * chunk),
                     f"singular minor at columns {bad}")


def _planted_matrix(F, rng, k, n):
    G = np.array([[rng.randrange(F.order) for _ in range(n)] for _ in range(k)])
    for _ in range(rng.randint(0, 2)):
        a, b = rng.randrange(n), rng.randrange(n)
        kind = rng.choice(["duplicate", "zero", "proportional"])
        if kind == "zero":
            G[:, a] = 0
        elif kind == "duplicate":
            G[:, a] = G[:, b]
        else:
            s = rng.randrange(1, F.order)
            G[:, a] = [F.mul_codes(int(x), s) for x in G[:, b]]
    return G


def test_minor_sweep_matches_itertools_oracle(monkeypatch):
    rng = random.Random(2302)
    fields = [make_field(2, 1), make_field(3, 1), make_field(5, 1)]
    batch = bulk.batch_minors_nonsingular
    sizes = []

    def recording(F, mats):
        sizes.append(len(mats))
        return batch(F, mats)

    singular = 0
    for _ in range(400):
        F = rng.choice(fields)
        k = rng.randint(1, 6)
        n = rng.randint(k, 14)
        G = _planted_matrix(F, rng, k, n)
        chunk = rng.choice([1, 5, 64, 8192])
        want = _reference_minors(F, G, chunk)
        sizes.clear()
        monkeypatch.setattr(bulk, "batch_minors_nonsingular", recording)
        got = check_matrix_minors(F, G, chunk=chunk)
        monkeypatch.undo()
        assert got == want, (F, G.tolist(), chunk)
        assert max(sizes, default=0) <= chunk
        singular += want.status is MdsStatus.FAILED
    assert 100 < singular < 400


def test_minor_sweep_decides_every_minor_of_36_6():
    spec = construct(2, 13, 14, 3, 6)
    assert (spec.n, spec.k) == (36, 6)
    r = check_mds_minors(spec)
    assert r.ok and r.method == "minors" and r.checked == math.comb(36, 6)


def test_exhaustive_distance_catches_repeated_locator():
    r = check_min_distance_exhaustive(_degenerate_spec())
    assert r.status is MdsStatus.FAILED
    assert "weight 1" in r.detail


def test_structural_route_rechecks_inputs():
    r = structural_minor_certificate(_degenerate_spec())
    assert r.status is MdsStatus.FAILED
    assert r.detail == "repeated locator"

    F = make_field(3, 1)
    bad = _FakeSpec(F, (F.zero, F.one), (F.one, F.zero), 1)
    r2 = structural_minor_certificate(bad)
    assert r2.status is MdsStatus.FAILED
    assert r2.detail == "zero multiplier"


def test_structural_certificate_survives_huge_binomials():
    # C(257, 15) overflows int64; rank sampling must not
    spec = construct(1, 17, 9, 8, 15)
    r = structural_minor_certificate(spec)
    assert r.ok and 0 < r.checked <= 512


def test_scalar_fallback_agrees_with_tables(small_spec, monkeypatch):
    fast = check_mds_minors(small_spec)
    monkeypatch.setattr(bulk, "has_tables", lambda F: False)
    slow = check_mds_minors(small_spec)
    assert (fast.status, fast.checked) == (slow.status, slow.checked)
    fast_d = check_min_distance_exhaustive(small_spec, chunk=4096)
    monkeypatch.undo()
    assert fast_d.status is MdsStatus.VERIFIED


def test_scalar_fallback_distance_small():
    spec = construct(5, 4, 3, 1, 1)     # [5, 1] over GF(16), tiny
    import qgrs.verifier as V
    from unittest import mock
    with mock.patch.object(bulk, "has_tables", lambda F: False):
        r = check_min_distance_exhaustive(spec)
    assert r.ok and r.checked == projective_word_count(16, 1)


# ---------------------------------------------------------------------------
# the certificate bundle
# ---------------------------------------------------------------------------


def test_certify_bundle_fields(small_spec):
    cert = certify(small_spec)
    assert cert.herm_gram_ok and cert.herm_interp_ok and cert.herm_ok
    assert cert.mds_ok and cert.quantum is not None
    assert str(cert.quantum) == "[[20,12,5]]_5"
    assert cert.seconds > 0
    assert cert.spec is small_spec


def test_certify_mismatch_is_loud(small_spec, monkeypatch):
    import qgrs.verifier as V
    monkeypatch.setattr(V, "dual_containment_check", lambda s: (False, 3))
    with pytest.raises(VerificationMismatch, match="j = 3"):
        certify(small_spec)


def test_certify_non_orthogonal_code_yields_no_quantum():
    F = make_field(3, 1)
    locs = tuple(F.elements())
    spec = GrsSpec(F, locs, tuple(F.one for _ in locs), 3)  # gram nonzero
    cert = certify(spec)
    assert not cert.herm_gram_ok and not cert.herm_interp_ok
    assert cert.quantum is None
    assert cert.mds_ok  # still MDS — the two verdicts are independent


# ---------------------------------------------------------------------------
# brute-force existence oracle
# ---------------------------------------------------------------------------


def test_brute_force_finds_known_profile():
    spec = construct(5, 4, 3, 1, 1)
    rep = brute_force_multiplier_search(spec.field, spec.locators, 1)
    assert isinstance(rep, SearchReport)
    assert rep.found is not None and not rep.exhausted
    alt = GrsSpec(spec.field, spec.locators, rep.found, 1)
    assert certify(alt).herm_ok


def test_brute_force_exhausts_impossible_instance():
    # all 8 units of GF(9) at k = 3: one dimension above the sharp ceiling,
    # so the full 2^7-point profile space contains nothing
    F = field_for_q(3)
    locators = tuple(F.from_log(i) for i in range(8))
    rep = brute_force_multiplier_search(F, locators, 3)
    assert rep.found is None
    assert rep.exhausted
    assert rep.tried == 2 ** 7


def test_brute_force_budget_stops_early():
    F = field_for_q(3)
    locators = tuple(F.from_log(i) for i in range(8))
    rep = brute_force_multiplier_search(F, locators, 3, budget=5)
    assert rep.found is None and not rep.exhausted and rep.tried == 5


def test_projective_word_count_formula():
    assert projective_word_count(9, 2) == 10
    assert projective_word_count(25, 4) == (25 ** 4 - 1) // 24
    assert projective_word_count(4, 1) == 1
