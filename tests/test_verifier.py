"""Verifier tests: the three MDS routes, the certificate bundle, and the
brute-force existence oracle (tests/oracle.py).  The exhaustive distance
route is held equal to the chunked whole-message scan kept in
tests/oracle.py.

The failure paths need codes that are NOT MDS, which honest constructions
never produce; a minimal duck-typed stand-in with a repeated locator
supplies those without weakening GrsSpec's own invariants.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from qgrs import bulk
from qgrs.constructions import construct
from qgrs.errors import VerificationMismatch
from qgrs.field import FieldSpec, field_for_q, make_field
from qgrs.grs import GrsSpec, generator_matrix
from qgrs.matrix import FMatrix
from qgrs.verifier import (
    MdsReport,
    MdsStatus,
    certify,
    check_matrix_minors,
    check_mds,
    check_mds_minors,
    check_min_distance_exhaustive,
    projective_word_count,
    structural_minor_certificate,
)

from oracle import (
    SearchReport,
    brute_force_multiplier_search,
    scan_min_distance_exhaustive,
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


def _degenerate_spec():
    F = make_field(3, 1)
    return _FakeSpec(F, (0, 1, 1), (1, 1, 1), 2)   # repeated locator


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


def _reference_minors(F, G, chunk, by_rank=False):
    """Every k-subset in itertools order, decided in one batch, or one at a
    time by FMatrix.rank with ``by_rank``."""
    k, n = G.shape
    subsets = np.array(list(itertools.combinations(range(n), k)))
    if by_rank:
        good = np.array([FMatrix(F, G[:, c]).rank() == k for c in subsets])
    else:
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
    bad = _FakeSpec(F, (0, 1), (1, 0), 1)
    r2 = structural_minor_certificate(bad)
    assert r2.status is MdsStatus.FAILED
    assert r2.detail == "zero multiplier"


def test_structural_certificate_survives_huge_binomials():
    # C(257, 15) overflows int64; rank sampling must not
    spec = construct(1, 17, 9, 8, 15)
    r = structural_minor_certificate(spec)
    assert r.ok and 0 < r.checked <= 512


@pytest.mark.parametrize("args,i_list,nk,digest", [
    # a sweep-small spec
    pytest.param((2, 11, 6, 3, 5), None, (60, 5),
                 "1809ba212b783e3c5f07deeb47049cc2e94b6760996aa9ee1f7f7a130e562651",
                 id="q11-n60-k5"),
    # `construct --family 3 --q 81 --h 80 --r 2 --k 42 --i-list 0,1`;
    # C(164, 42) > 2^63
    pytest.param((3, 81, 80, 2, 42), (0, 1), (164, 42),
                 "db2fad19d2ea0ddd569b01a234a46319ec0ae4746040e7a0606a321368691393",
                 id="q81-n164-k42"),
])
def test_structural_samples_are_pinned(monkeypatch, args, i_list, nk, digest):
    # sha256 of the (512, k) int32 column array that the scalar unranker
    # produced for these ranks
    spec = construct(*args, i_list=i_list)
    assert (spec.n, spec.k) == nk
    seen = []
    unrank = bulk.unrank_lex

    def recording(n, k, ranks):
        seen.append(unrank(n, k, ranks))
        return seen[-1]

    monkeypatch.setattr(bulk, "unrank_lex", recording)
    r = structural_minor_certificate(spec)
    assert r.ok and r.checked == 512
    assert r.detail == "factorization argument + 512 sampled minors"
    (cols,) = seen
    assert cols.shape == (512, spec.k) and cols.dtype == np.int32
    assert hashlib.sha256(cols.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("args,i_list", [
    ((3, 81, 80, 1, 12), (0,)),
    ((3, 81, 80, 2, 42), (0, 1)),
], ids=["q81-n82-k12", "q81-n164-k42"])
def test_structural_rank_branch_agrees_with_batch_kernel(monkeypatch, args, i_list):
    # at q = 81 the structural route ranks each sample with FMatrix.rank;
    # batch_minors_nonsingular must give the same verdict, sample for sample
    spec = construct(*args, i_list=i_list)
    F, k = spec.field, spec.k
    seen = []
    unrank = bulk.unrank_lex

    def recording(n, k, ranks):
        seen.append(unrank(n, k, ranks))
        return seen[-1]

    monkeypatch.setattr(bulk, "unrank_lex", recording)
    assert structural_minor_certificate(spec).checked == 512
    (cols,) = seen
    G = generator_matrix(spec)
    # the samples themselves, then each with its second column replaced by
    # its first, which makes every minor singular
    twins = cols.copy()
    twins[:, 1] = twins[:, 0]
    for subsets, want in ((cols, True), (twins, False)):
        ranked = np.array([FMatrix(F, G[:, c]).rank() == k for c in subsets])
        batched = bulk.batch_minors_nonsingular(F, G[:, subsets].transpose(1, 0, 2))
        assert np.array_equal(ranked, batched)
        assert (ranked == want).all()


def test_minor_sweep_matches_rank_oracle_at_gf6561():
    F = make_field(3, 4)
    rng = random.Random(6561)
    singular = 0
    for _ in range(40):
        k = rng.randint(1, 4)
        n = rng.randint(k, 9)
        G = _planted_matrix(F, rng, k, n)
        chunk = rng.choice([1, 7, 8192])
        want = _reference_minors(F, G, chunk, by_rank=True)
        assert check_matrix_minors(F, G, chunk=chunk) == want, G.tolist()
        singular += want.status is MdsStatus.FAILED
    assert 5 < singular < 35


def _reference_distance(spec):
    """Projective messages in the route's order, weights by scalar ops."""
    F, n, k = spec.field, spec.n, spec.k
    G = generator_matrix(spec).tolist()
    checked = 0
    for lead in range(k):
        for tail in range(F.order ** (k - lead - 1)):
            msg = [0] * lead + [1] + [(tail // F.order ** t) % F.order
                                      for t in range(k - lead - 1)]
            weight = 0
            for col in range(n):
                acc = 0
                for row in range(k):
                    acc = F.add_codes(acc, F.mul_codes(msg[row], G[row][col]))
                weight += acc != 0
            checked += 1
            if weight < n - k + 1:
                return MdsStatus.FAILED, checked, tuple(msg), weight
    return MdsStatus.VERIFIED, checked, None, None


def test_exhaustive_distance_matches_scalar_oracle_at_gf6561():
    F = make_field(3, 4)
    rng = random.Random(81)
    locs = rng.sample(range(F.order), 8)
    mults = [rng.randrange(1, F.order) for _ in range(8)]
    good = GrsSpec(F, tuple(locs), tuple(mults), 2)
    bad = _FakeSpec(F, locs[:5] + [locs[2]] + locs[5:], mults + [1], 2)
    for spec in (good, bad):
        status, checked, msg, weight = _reference_distance(spec)
        r = check_min_distance_exhaustive(spec, chunk=1000)
        assert (r.status, r.checked) == (status, checked)
        if msg is not None:
            assert r.detail.startswith(f"message {msg} gives weight {weight} ")
    assert checked < projective_word_count(F.order, 2)


_DISTANCE_FIELDS = [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1)]


def _random_code(F, rng, k, n, with_zero):
    """Distinct locators (0 among them when ``with_zero``) and nonzero
    multipliers, as lists."""
    locs = rng.sample(range(F.order), n)
    if with_zero and 0 not in locs:
        locs[rng.randrange(n)] = 0
    return locs, [rng.randrange(1, F.order) for _ in range(n)]


@pytest.mark.parametrize("chunk", [1, 3, 1000, None])
def test_exhaustive_distance_matches_combine_oracle_on_mds_codes(chunk,
                                                                 monkeypatch):
    rng = random.Random(4049)
    kw = {} if chunk is None else {"chunk": chunk}
    combine = FieldSpec.vcombine
    batches = []

    def recording(F, coeffs, rows):
        batches.append(len(coeffs))
        return combine(F, coeffs, rows)

    seen = set()
    for p, e in _DISTANCE_FIELDS:
        F = make_field(p, e)
        for _ in range(4):
            k = rng.randint(1, 3)
            n = rng.randint(k, min(F.order, 11))
            with_zero = rng.random() < 0.5
            spec = GrsSpec(F, *map(tuple, _random_code(F, rng, k, n, with_zero)), k)
            want = scan_min_distance_exhaustive(spec)
            batches.clear()
            monkeypatch.setattr(FieldSpec, "vcombine", recording)
            got = check_min_distance_exhaustive(spec, **kw)
            monkeypatch.undo()
            assert got == want, (F, spec.locators, spec.multipliers, k)
            # a batch holds about ``chunk`` words: chunk // order partial words
            assert max(batches, default=1) <= max(1, (chunk or 8192) // F.order)
            assert got.ok and got.checked == projective_word_count(F.order, k)
            seen.add((p == 2, k, 0 in spec.locators))
    assert {(two, 1) for two in (True, False)} <= {s[:2] for s in seen}
    assert (True, 3, True) in seen and (False, 3, True) in seen


@pytest.mark.parametrize("chunk", [1, 3, 1000, None])
def test_exhaustive_distance_matches_combine_oracle_on_failing_codes(chunk):
    rng = random.Random(9049)
    kw = {} if chunk is None else {"chunk": chunk}
    failed = 0
    for trial in range(60):
        F = make_field(*_DISTANCE_FIELDS[trial % len(_DISTANCE_FIELDS)])
        k = rng.randint(1, 4 if F.order <= 9 else 3)
        n = rng.randint(max(k, 2), min(F.order, 10))
        locs, mults = _random_code(F, rng, k, n, rng.random() < 0.5)
        for _ in range(rng.randint(1, 2)):
            a, b = rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.5:
                locs[a] = locs[b]         # repeated locator
            else:
                mults[a] = 0              # zero multiplier
        spec = _FakeSpec(F, locs, mults, k)
        want = scan_min_distance_exhaustive(spec)
        assert check_min_distance_exhaustive(spec, **kw) == want, (
            F, locs, mults, k)
        failed += want.status is MdsStatus.FAILED
    assert 20 < failed < 60


def test_exhaustive_distance_matches_combine_oracle_over_spread_cap():
    # (2p - 1)^(2e) = 5^10 > _SPREAD_TABLE_CAP: additions reduce per half
    F = make_field(3, 5)
    assert F._half
    rng = random.Random(59049)
    locs, mults = _random_code(F, rng, 2, 9, True)
    good = GrsSpec(F, tuple(locs), tuple(mults), 2)
    dup = next(a for a in locs if a)
    bad = _FakeSpec(F, locs[:8] + [dup], mults, 2)
    for spec in (good, bad):
        want = scan_min_distance_exhaustive(spec)
        for chunk in (1, 3, 1000, None):
            kw = {} if chunk is None else {"chunk": chunk}
            assert check_min_distance_exhaustive(spec, **kw) == want
    assert want.status is MdsStatus.FAILED
    assert want.checked < projective_word_count(F.order, 2)


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
    spec = GrsSpec(F, tuple(range(F.order)), (1,) * F.order, 3)  # gram nonzero
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
    locators = tuple(F.vexp(np.arange(8)).tolist())
    rep = brute_force_multiplier_search(F, locators, 3)
    assert rep.found is None
    assert rep.exhausted
    assert rep.tried == 2 ** 7


def test_brute_force_budget_stops_early():
    F = field_for_q(3)
    locators = tuple(F.vexp(np.arange(8)).tolist())
    rep = brute_force_multiplier_search(F, locators, 3, budget=5)
    assert rep.found is None and not rep.exhausted and rep.tried == 5


def test_projective_word_count_formula():
    assert projective_word_count(9, 2) == 10
    assert projective_word_count(25, 4) == (25 ** 4 - 1) // 24
    assert projective_word_count(4, 1) == 1
