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
import tracemalloc

import numpy as np
import pytest

from qgrs import bulk, verifier
from qgrs.constructions import construct, iter_family_params
from qgrs.errors import VerificationMismatch, WrongShape
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

import oracle
from oracle import (
    ScalarField,
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
    # check_mds is the only gate: a budget equal to a route's count runs
    # that route, and one below it falls through to the next
    minors, words = math.comb(20, 4), projective_word_count(25, 4)
    assert check_mds(small_spec, minor_budget=minors).method == "minors"
    r = check_mds(small_spec, minor_budget=minors - 1, word_budget=words)
    assert r.method == "exhaustive-distance" and r.checked == words
    r = check_mds(small_spec, minor_budget=minors - 1, word_budget=words - 1)
    assert r.method == "structural" and r.ok


def test_minors_catch_repeated_locator():
    r = check_mds_minors(_degenerate_spec())
    assert r.status is MdsStatus.FAILED
    assert "singular minor" in r.detail
    assert "(1, 2)" in r.detail


def _reference_minors(F, G, chunk, by_rank=False):
    """Every k-subset in itertools order, decided 4096 at a time in one
    batch, or one at a time by FMatrix.rank with ``by_rank``, up to the
    first singular one."""
    k, n = G.shape
    total = math.comb(n, k)
    subsets = itertools.combinations(range(n), k)
    block = 4096
    for start in range(0, total, block):
        cols = np.array(list(itertools.islice(subsets, block)))
        if by_rank:
            good = np.array([FMatrix(F, G[:, c]).rank() == k for c in cols])
        else:
            good = bulk.batch_minors_nonsingular(F, G[:, cols].transpose(1, 0, 2))
        if not good.all():
            rank = start + int(np.flatnonzero(~good)[0])
            bad = tuple(int(c) for c in cols[rank - start])
            return MdsReport(MdsStatus.FAILED, "minors",
                             min(total, (rank // chunk + 1) * chunk),
                             f"singular minor at columns {bad}")
    return MdsReport(MdsStatus.VERIFIED, "minors", total)


def _planted_matrix(F, rng, k, n):
    S = ScalarField(F)
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
            G[:, a] = [S.mul(int(x), s) for x in G[:, b]]
    return G


def _deep_planted_matrix(F, rng, k, n, plant):
    """An MDS matrix (rows v_j * a_j^i over distinct locators a_j); with
    ``plant``, its column a is a combination of 3..k-1 others, so the
    subsets through all of them are singular and the walk sees it no less
    than three columns deep."""
    S = ScalarField(F)
    locators = rng.sample(range(F.order), n)
    mults = [rng.randrange(1, F.order) for _ in range(n)]
    G = np.array([[S.mul(v, S.pow(a, i))
                   for a, v in zip(locators, mults)] for i in range(k)])
    if plant:
        a, *others = rng.sample(range(n), rng.randint(4, k))
        coeffs = np.array([[rng.randrange(1, F.order) for _ in others]])
        G[:, a] = F.vdot(coeffs, G[:, others].T)[0]
    return G


def test_minor_sweep_matches_itertools_oracle(monkeypatch):
    rng = random.Random(2302)
    fields = [make_field(2, 1), make_field(3, 1), make_field(5, 1)]
    # order 25 and order 729 hold n = 24 distinct locators
    deep_fields = [make_field(5, 1), make_field(3, 3)]
    batch = bulk.batch_minors_nonsingular
    schur = bulk.schur_children
    sizes = []
    schur_calls = []

    def recording(F, mats):
        sizes.append(len(mats))
        return batch(F, mats)

    def counting(F, R, nodes, cols):
        schur_calls.append(len(nodes))
        return schur(F, R, nodes, cols)

    singular = deep_singular = later_slice = 0
    for case in range(550):
        if case < 400:
            F = rng.choice(fields)
            k = rng.randint(1, 6)
            n = rng.randint(k, 14)
            G = _planted_matrix(F, rng, k, n)
            chunk = rng.choice([1, 5, 64, 8192])
        else:
            F = rng.choice(deep_fields)
            k = rng.randint(7, 12)
            n = rng.randint(k + 1, 24)
            # the oracle decides every minor of an unplanted matrix
            plant = math.comb(n, k) > 20000 or rng.random() < 0.7
            G = _deep_planted_matrix(F, rng, k, n, plant)
            chunk = rng.choice([5, 64, 8192])
        slice_entries = rng.choice([1, 50, 400, verifier._SLICE_ENTRIES])
        want = _reference_minors(F, G, chunk)
        sizes.clear()
        schur_calls.clear()
        monkeypatch.setattr(bulk, "batch_minors_nonsingular", recording)
        monkeypatch.setattr(bulk, "schur_children", counting)
        monkeypatch.setattr(verifier, "_SLICE_ENTRIES", slice_entries)
        got = check_matrix_minors(F, G, chunk=chunk)
        monkeypatch.undo()
        assert got == want, (F, G.tolist(), chunk, slice_entries)
        assert max(sizes, default=0) <= chunk
        failed = want.status is MdsStatus.FAILED
        singular += failed
        if case >= 400:
            deep_singular += failed
            # one slice per level reaches the first leaves in k - 2 steps
            later_slice += failed and len(schur_calls) > k - 2
    assert 150 < singular < 550
    assert deep_singular > 100 and later_slice > 30


@pytest.mark.parametrize("chunk", [1, 3, 5, 64, 8192])
@pytest.mark.parametrize("k, n", [(1, 9), (2, 11), (3, 13), (6, 14),
                                  (4, 4), (7, 7)])
def test_minor_sweep_decides_each_leaf_once(monkeypatch, k, n, chunk):
    # batches straddle node boundaries whenever chunk does not divide a
    # node's leaf count; on an MDS matrix every leaf is decided, exactly once
    F = make_field(5, 1)
    G = _deep_planted_matrix(F, random.Random(k * 100 + n), k, n, plant=False)
    batch = bulk.batch_minors_nonsingular
    sizes = []

    def recording(F, mats):
        sizes.append(len(mats))
        return batch(F, mats)

    monkeypatch.setattr(bulk, "batch_minors_nonsingular", recording)
    r = check_matrix_minors(F, G, chunk=chunk)
    assert r.ok and r.checked == math.comb(n, k)
    assert sum(sizes) == math.comb(n, k) and max(sizes) <= chunk


@pytest.mark.parametrize("chunk", [5, 64])
def test_minor_sweep_reports_planted_minor_at_batch_boundaries(monkeypatch, chunk):
    # the leaf step turns each leaf's place in its slice into a node row and
    # a block offset: plant the first singular minor at the last leaf of a
    # batch, at the first leaf of the next batch of the same slice, and at
    # the first leaf of a node whose leaves straddle two batches
    F, k, n = make_field(3, 3), 5, 14
    rng = random.Random(chunk)
    G0 = _deep_planted_matrix(F, rng, k, n, plant=False)
    batch, schur = bulk.batch_minors_nonsingular, bulk.schur_children
    events = []

    def recording(F, mats):
        events.append(len(mats))
        return batch(F, mats)

    def stepping(F, R, nodes, cols):
        events.append(None)
        return schur(F, R, nodes, cols)

    monkeypatch.setattr(bulk, "batch_minors_nonsingular", recording)
    monkeypatch.setattr(bulk, "schur_children", stepping)
    monkeypatch.setattr(verifier, "_SLICE_ENTRIES", 256)
    assert check_matrix_minors(F, G0, chunk=chunk).ok
    # the first leaf rank of every batch, and those that go on a slice whose
    # earlier leaves the batch before decided (no Schur step in between)
    starts, inner, done = set(), [], 0
    for before, size in zip([None] + events, events):
        if size is not None:
            starts.add(done)
            if before is not None:
                inner.append(done)
            done += size
    assert done == math.comb(n, k) and len(inner) > 3
    cut = inner[len(inner) // 2]

    def node_range(r):
        # the leaf ranks of the node (k - 2 prefix columns) that holds leaf r
        (s,) = bulk.unrank_lex(n, k, [r]).tolist()
        p = s[-3]
        return (bulk._rank_lex(n, k, s[:-2] + [p + 1, p + 2]),
                bulk._rank_lex(n, k, s[:-2] + [n - 2, n - 1]))

    straddling = next(first for first, last in map(node_range, range(done))
                      if first not in starts
                      and any(first < b <= last for b in inner))
    for r in (cut - 1, cut, straddling):
        S = tuple(bulk.unrank_lex(n, k, [r])[0].tolist())
        # column S[-1] becomes a combination of the others of S; retry the
        # coefficients until no subset before S turns singular by chance
        for _ in range(20):
            coeffs = np.array([[rng.randrange(1, F.order) for _ in S[1:]]])
            G = G0.copy()
            G[:, S[-1]] = F.vdot(coeffs, G0[:, S[:-1]].T)[0]
            want = _reference_minors(F, G, chunk)
            if want.detail == f"singular minor at columns {S}":
                break
        else:
            pytest.fail(f"no plant at {S} is the first singular minor")
        assert want.checked == min(math.comb(n, k), (r // chunk + 1) * chunk)
        assert check_matrix_minors(F, G, chunk=chunk) == want, (r, S)


def _node_first_leaves(n, k):
    """For k >= 3, the lexicographic rank of the first leaf of each node of
    the walk's last level (k - 2 prefix columns, the last below n - 2), in
    lexicographic order."""
    return [bulk._rank_lex(n, k, prefix + (prefix[-1] + 1, prefix[-1] + 2))
            for prefix in itertools.combinations(range(n - 2), k - 2)]


@pytest.mark.parametrize("chunk", [5, 7, 64])
@pytest.mark.parametrize("k, n", [(1, 150), (3, 13), (5, 12)])
def test_minor_sweep_reports_planted_leaf_past_a_chunk_boundary(k, n, chunk):
    # the leaf step reads each leaf's columns from a transposed copy of its
    # node's residual at the node's row offset.  At width 1 (k = 1, one
    # node) the singular leaf is a zero column just past a chunk boundary;
    # at width 2 it is the first leaf of the first node that starts past
    # one, so its batch also holds the end of the node before
    F = make_field(3, 3)
    rng = random.Random(1000 * k + chunk)
    G0 = _deep_planted_matrix(F, rng, k, n, plant=False)
    total = math.comb(n, k)
    if k == 1:
        ranks = [chunk, chunk + 1]
    else:
        firsts = _node_first_leaves(n, k)
        ranks = [next(f for f in firsts if f > b and f % chunk)
                 for b in range(chunk, firsts[-1], chunk)][:3]
        assert ranks and all(r % chunk for r in ranks)
    for r in ranks:
        S = tuple(bulk.unrank_lex(n, k, [r])[0].tolist())
        # column S[-1] becomes a combination of the others of S (zero when
        # S is one column); retry until no subset before S turns singular
        for _ in range(20):
            coeffs = np.array([[rng.randrange(1, F.order) for _ in S[1:]]])
            G = G0.copy()
            G[:, S[-1]] = F.vdot(coeffs, G0[:, S[:-1]].T)[0] if k > 1 else 0
            want = _reference_minors(F, G, chunk)
            if want.detail == f"singular minor at columns {S}":
                break
        else:
            pytest.fail(f"no plant at {S} is the first singular minor")
        assert want.checked == min(total, (r // chunk + 1) * chunk)
        assert check_matrix_minors(F, G, chunk=chunk) == want, (r, S)


@pytest.mark.parametrize("shape", [(3, 2), (2, 0), (5, 4)])
def test_matrix_minors_reject_more_rows_than_columns(shape):
    # a k x n matrix with k > n has no maximal k-minors and rank < k
    with pytest.raises(WrongShape):
        check_matrix_minors(make_field(5, 1), np.ones(shape, dtype=np.int64))


def test_minor_sweep_decides_every_minor_of_36_6():
    spec = construct(2, 13, 14, 3, 6)
    assert (spec.n, spec.k) == (36, 6)
    r = check_mds_minors(spec)
    assert r.ok and r.method == "minors" and r.checked == math.comb(36, 6)


def test_minor_sweep_decides_every_minor_of_24_12():
    # mid k, where the paper's new codes live: d = k + 1 = 13 > q/2 + 1
    spec = construct(3, 23, 22, 1, 12)
    assert (spec.n, spec.k) == (24, 12)
    r = check_mds_minors(spec)
    assert r.ok and r.method == "minors" and r.checked == math.comb(24, 12)


def test_minor_sweep_memory_is_bounded():
    # a walk that stacked whole levels would peak near 100 MB here
    F = make_field(5, 1)
    G = _deep_planted_matrix(F, random.Random(24), 8, 24, plant=False)
    tracemalloc.start()
    try:
        r = check_matrix_minors(F, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.ok and r.checked == math.comb(24, 8)
    assert peak < 4 * 2 ** 20


def test_certify_memory_is_bounded():
    # [3907, 40]_64, one of the paper's new codes (d = 41 > q/2 + 1): a
    # certify that built its gram powers, node differences or sampled
    # minors in one piece would peak near 360 MiB here
    spec = construct(1, 64, 65, 62, 40)
    tracemalloc.start()
    try:
        cert = certify(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.herm_gram_ok and cert.herm_interp_ok
    assert cert.mds.ok and cert.mds.method == "structural"
    assert str(cert.quantum) == "[[3907,3827,41]]_64"
    assert peak < 40 * 2 ** 20


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


def _sampled_columns(monkeypatch, spec):
    """The structural route's report on spec, and its (512, k) samples as
    bulk.unrank_lex gave them.  The layout cache is cleared first, so that
    the route unranks them here."""
    verifier._sample_layout.cache_clear()
    seen = []
    unrank = bulk.unrank_lex

    def recording(n, k, ranks):
        seen.append(unrank(n, k, ranks))
        return seen[-1]

    monkeypatch.setattr(bulk, "unrank_lex", recording)
    report = structural_minor_certificate(spec)
    monkeypatch.setattr(bulk, "unrank_lex", unrank)
    (cols,) = seen
    return report, cols


def _full_samples_nonsingular(F, G, cols):
    return bulk.batch_minors_nonsingular(F, np.ascontiguousarray(G.T).take(cols, axis=0))


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
    # C(n, k) > 2^63: the ranks are unranked on Python ints
    pytest.param((1, 64, 65, 2, 32), None, (127, 32),
                 "ba6b20e17f098b82709b518cffd9a5accbb28e682e419fdd11db5903352d84d4",
                 id="q64-n127-k32"),
    pytest.param((3, 25, 24, 5, 17), None, (130, 17),
                 "c66e93cc4b30021aec9d30a650eec1da952d4c2a07699ce48869133d74a00ba7",
                 id="q25-n130-k17"),
    pytest.param((1, 64, 65, 2, 16), None, (127, 16),
                 "b8de1b5c958ea43e1ec938f81e81db4142cfc3106ac7945a9aeab12f44137114",
                 id="q64-n127-k16"),
])
def test_structural_samples_are_pinned(monkeypatch, args, i_list, nk, digest):
    # sha256 of the (512, k) int32 column array that the scalar unranker
    # produced for these ranks
    spec = construct(*args, i_list=i_list)
    assert (spec.n, spec.k) == nk
    r, cols = _sampled_columns(monkeypatch, spec)
    assert r.ok and r.checked == 512
    assert r.detail == "factorization argument + 512 sampled minors"
    assert cols.shape == (512, spec.k) and cols.dtype == np.int32
    assert hashlib.sha256(cols.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("total", [1, 2, 512, 1024, 2 ** 70] + [
    math.comb(n, k) for n, k in [(10, 3), (41, 5), (60, 5), (64, 6), (50, 25),
                                 (127, 32), (164, 42), (1023, 256)]] + [
    # around the draw-width and machine-word boundaries
    3, 511, 513, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63 - 1, 2 ** 63,
    2 ** 64 + 1, math.comb(67, 33)])
def test_sample_ranks_match_stdlib_randrange(total):
    # the draw rounds state in this package the stream that the stdlib's
    # randrange gave on the Python versions the pinned samples were made on;
    # on this interpreter the two must still agree
    rng = random.Random(verifier._SAMPLE_SEED)
    picks = min(verifier._SAMPLED_MINORS, total)
    assert verifier._sample_ranks(total) == sorted({rng.randrange(total)
                                                    for _ in range(picks)})


@pytest.mark.parametrize("args", [(2, 11, 6, 3, 5), (1, 16, 17, 4, 9),
                                  (1, 64, 65, 2, 32), (3, 81, 80, 1, 12)],
                         ids=["q11-n60-k5", "q16-n61-k9", "q64-n127-k32",
                              "q81-n82-k12"])
def test_structural_route_matches_across_slice_boundaries(monkeypatch, args):
    # with a 64-entry batch bound the b x b blocks of the reduced form of G
    # are decided a few at a time; status, checked and detail stay those of
    # one slice
    spec = construct(*args)
    monkeypatch.setattr(bulk, "_BATCH_ENTRIES", 1 << 40)
    whole = structural_minor_certificate(spec)
    calls = []
    kernel = bulk.batch_minors_nonsingular

    def counting(F, mats, sizes):
        calls.append(mats.shape[:2])
        # largest block first, each call's frame the size of its first block;
        # sizes come narrow and unsigned, so they are compared as intp
        signed = np.asarray(sizes, dtype=np.intp)
        assert signed[0] == mats.shape[1] and (np.diff(signed) <= 0).all()
        return kernel(F, mats, sizes)

    monkeypatch.setattr(bulk, "_BATCH_ENTRIES", 64)
    monkeypatch.setattr(bulk, "batch_minors_nonsingular", counting)
    assert structural_minor_certificate(spec) == whole
    assert whole.ok and whole.checked == 512
    assert sum(m for m, _ in calls) == 512
    # every call within its size's bound, and some call at it
    assert max(m - max(1, 64 // b ** 2) for m, b in calls) == 0


def test_structural_layout_is_computed_once_per_shape(monkeypatch):
    # two codes of shape [42, 6], at q = 7 and q = 13: the second certificate
    # reads its samples and their layout from the cache that the first one
    # filled, unranks nothing, and reports as it does on a cold cache
    first, second = construct(2, 7, 8, 7, 6), construct(3, 13, 12, 3, 6)
    assert (first.n, first.k) == (second.n, second.k) == (42, 6)
    verifier._sample_layout.cache_clear()
    cold = structural_minor_certificate(second)
    verifier._sample_layout.cache_clear()
    structural_minor_certificate(first)
    unranked, sizes = [], []
    unrank, kernel = bulk.unrank_lex, bulk.batch_minors_nonsingular

    def counting(F, mats, s):
        sizes.append(len(s))
        return kernel(F, mats, s)

    monkeypatch.setattr(bulk, "unrank_lex",
                        lambda *args: unranked.append(args) or unrank(*args))
    monkeypatch.setattr(bulk, "batch_minors_nonsingular", counting)
    warm = structural_minor_certificate(second)
    assert unranked == [] and sum(sizes) == 512
    assert warm == cold and warm.ok and warm.checked == 512
    info = verifier._sample_layout.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_structural_layout_is_read_only_and_narrow():
    cols, sizes, order, rows, free = verifier._sample_layout(42, 6, tuple(range(6)))
    assert cols.shape == rows.shape == free.shape == (512, 6)
    assert sizes.shape == order.shape == (512,)
    assert sorted(order.tolist()) == list(range(512))
    for a in (cols, sizes, order, rows, free):
        assert a.dtype == np.min_scalar_type(a.max()) and a.dtype.itemsize <= 2
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_structural_layouts_of_the_sweep_stay_under_1mb():
    # the acceptance grid's tuples past both sweep budgets (2 * 10^6 minors
    # and words), that is sweep-small's structural tuples: 51 shapes, each
    # reduced to the pivots 0..k-1, since any k columns of a GRS code are
    # independent
    shapes = {(cell.n, k) for q in (3, 4, 5, 7, 8, 9, 11, 13)
              for cell in iter_family_params(q, n_max=64)
              for k in range(1, cell.k_max + 1)
              if min(math.comb(cell.n, k), projective_word_count(q * q, k)) > 2_000_000}
    assert len(shapes) == 51
    layouts = [verifier._sample_layout(n, k, tuple(range(k))) for n, k in shapes]
    assert sum(a.nbytes for layout in layouts for a in layout) < 1_000_000


def test_structural_tripwire_names_first_singular_sample(monkeypatch):
    # a generator matrix with a zero column, as a matrix-building bug could
    # give: every sampled minor through that column is singular, and the
    # route names the first of them
    spec = construct(2, 11, 6, 3, 5)
    G = generator_matrix(spec).copy()
    G[:, 7] = 0
    seen = []
    unrank = bulk.unrank_lex

    def recording(n, k, ranks):
        seen.append(unrank(n, k, ranks))
        return seen[-1]

    monkeypatch.setattr(verifier, "generator_matrix", lambda spec: G)
    monkeypatch.setattr(bulk, "unrank_lex", recording)
    verifier._sample_layout.cache_clear()
    r = structural_minor_certificate(spec)
    (cols,) = seen
    first = next(tuple(c) for c in cols.tolist() if 7 in c)
    assert r.status is MdsStatus.FAILED and r.checked == 512
    assert r.detail.startswith(f"sampled minor at columns {first} is singular")

    # two equal columns that meet first in a late sample: with two samples
    # a slice, the report names that sample, as one slice does
    def first_with(a, b):
        return next(i for i, c in enumerate(cols.tolist()) if a in c and b in c)

    a, b = next(c[:2] for c in reversed(cols.tolist()) if first_with(*c[:2]) >= 400)
    twin = generator_matrix(spec).copy()
    twin[:, b] = twin[:, a]
    monkeypatch.setattr(verifier, "generator_matrix", lambda spec: twin)
    first = tuple(cols[first_with(a, b)].tolist())
    reports = []
    for bound in (1 << 40, 2 * spec.k ** 2):
        monkeypatch.setattr(bulk, "_BATCH_ENTRIES", bound)
        seen.clear()
        reports.append(structural_minor_certificate(spec))
    assert reports[0] == reports[1]
    assert reports[0].status is MdsStatus.FAILED and reports[0].checked == 512
    assert reports[0].detail.startswith(f"sampled minor at columns {first} is singular")


#: structural specs at every order: sweep-small's [60, 5]_11, the paper's
#: new codes [50, 25]_49 and [127, 32]_64 (d = k + 1 > q/2 + 1), and q = 81
_STRUCTURAL_SPECS = [
    pytest.param((2, 11, 6, 3, 5), None, id="q11-n60-k5"),
    pytest.param((3, 49, 48, 1, 25), (0,), id="q49-n50-k25"),
    pytest.param((1, 64, 65, 2, 32), None, id="q64-n127-k32"),
    pytest.param((3, 81, 80, 1, 12), (0,), id="q81-n82-k12"),
    pytest.param((3, 81, 80, 2, 42), (0, 1), id="q81-n164-k42"),
]


@pytest.mark.parametrize("args,i_list", _STRUCTURAL_SPECS + [
    pytest.param((1, 128, 129, 2, 64), None, id="q128-n255-k64")])
def test_reduced_samples_agree_with_batch_kernel(monkeypatch, args, i_list):
    # the structural route decides each sample through the reduced form of
    # G; batch_minors_nonsingular on the full k x k samples must give the
    # same verdict, sample for sample, also once two columns are made equal
    # so that every sample through both is singular
    spec = construct(*args, i_list=i_list)
    F, k = spec.field, spec.k
    report, cols = _sampled_columns(monkeypatch, spec)
    assert report.ok and report.checked == 512
    G = generator_matrix(spec)
    twin = G.copy()
    twin[:, int(cols[0, -1])] = twin[:, int(cols[0, 0])]
    verdicts = []
    for M in (G, twin):
        got, good = verifier._reduced_samples_nonsingular(F, M)
        assert np.array_equal(got, cols)
        verdicts.append(good)
        assert np.array_equal(verdicts[-1], _full_samples_nonsingular(F, M, cols))
    assert verdicts[0].all()
    assert not verdicts[1][0] and verdicts[1].any()


def _planted(F, G, cols, kind):
    """A copy of G with one matrix-building bug planted: see the ids of
    test_reduced_route_reports_as_the_direct_route."""
    k, n = G.shape
    G = G.copy()
    if kind == "late-twins":
        # the two columns that first meet in the latest sample
        first = {}
        for i, c in enumerate(cols.tolist()):
            for pair in itertools.combinations(c, 2):
                first.setdefault(pair, i)
        (a, b), i = max(first.items(), key=lambda item: item[1])
        # at [50, 25] every pair of columns meets within the first 26 samples
        assert i >= 20
        G[:, b] = G[:, a]
    elif kind == "zero-column":
        G[:, int(cols[3, 1])] = 0
    elif kind == "dependent-head":
        # in the first sample with three columns before k, the third is
        # made the sum of the other two: the pivots are no longer 0..k-1
        a, b, c = next(s[s < k][:3] for s in cols if (s < k).sum() >= 3)
        G[:, c] = F.vadd(G[:, a], G[:, b])
    elif kind == "rank-deficient":
        G[-1] = G[0]
    elif kind == "sample-is-pivots":
        # zero every column before the first sample's last that is not in
        # it: the sample's columns become the pivot columns of rref(G)
        head = np.setdiff1d(np.arange(cols[0, -1]), cols[0])
        G[:, head] = 0
    return G


@pytest.mark.parametrize("kind", ["late-twins", "zero-column", "dependent-head",
                                  "rank-deficient", "sample-is-pivots"])
@pytest.mark.parametrize("args,i_list", _STRUCTURAL_SPECS)
def test_reduced_route_reports_as_the_direct_route(monkeypatch, args, i_list, kind):
    # a planted bug in G: the reduced route decides every sample as the
    # full k x k kernel does, and its report names the first sample that the
    # full kernel finds singular, also at a bound that slices every call
    spec = construct(*args, i_list=i_list)
    F, k = spec.field, spec.k
    _, cols = _sampled_columns(monkeypatch, spec)
    G = _planted(F, generator_matrix(spec), cols, kind)
    pivots = FMatrix(F, G).rref()[1]
    if kind == "dependent-head":
        assert pivots != tuple(range(k)) and len(pivots) == k
    if kind == "rank-deficient":
        assert len(pivots) < k
    misses = verifier._sample_layout.cache_info().misses
    got, reduced = verifier._reduced_samples_nonsingular(F, G)
    assert np.array_equal(got, cols)
    if kind in ("dependent-head", "sample-is-pivots"):
        # pivots other than 0..k-1 get a layout of their own
        assert verifier._sample_layout.cache_info().misses == misses + 1
    if kind == "sample-is-pivots":
        assert pivots == tuple(cols[0].tolist()) and reduced[0]
    assert np.array_equal(reduced, _full_samples_nonsingular(F, G, cols))
    assert not reduced.all()

    monkeypatch.setattr(verifier, "generator_matrix", lambda spec: G)
    reports = []
    for bound in (1 << 40, 2 * k * k):
        monkeypatch.setattr(bulk, "_BATCH_ENTRIES", bound)
        reports.append(structural_minor_certificate(spec))
    first = tuple(cols[int(np.flatnonzero(~reduced)[0])].tolist())
    assert reports[0] == reports[1]
    assert reports[0].status is MdsStatus.FAILED and reports[0].checked == 512
    assert reports[0].detail.startswith(f"sampled minor at columns {first} is singular")


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
    S = ScalarField(F)
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
                    acc = S.add(acc, S.mul(msg[row], G[row][col]))
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
    combine = FieldSpec.vdot
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
            monkeypatch.setattr(FieldSpec, "vdot", recording)
            got = check_min_distance_exhaustive(spec, **kw)
            monkeypatch.undo()
            assert got == want, (F, spec.locators, spec.multipliers, k)
            # a batch holds about ``chunk`` words: its high rows come from one
            # vdot, order partial words and order^2 words each
            assert max(batches, default=1) <= max(
                1, (chunk or verifier._WORD_CHUNK) // F.order ** 2)
            assert got.ok and got.checked == projective_word_count(F.order, k)
            seen.add((p == 2, k, 0 in spec.locators))
    assert {(two, 1) for two in (True, False)} <= {s[:2] for s in seen}
    assert (True, 3, True) in seen and (False, 3, True) in seen


@pytest.mark.parametrize("chunk", [1, 3, 1000, None, 8192] + [
    # one high row of order partial words, give or take one word
    pytest.param(lambda order, d=d: order ** 2 + d, id=f"order^2{d:+d}")
    for d in (-1, 0, 1)])
def test_exhaustive_distance_matches_combine_oracle_on_failing_codes(chunk):
    rng = random.Random(9049)
    failed = 0
    for trial in range(60):
        F = make_field(*_DISTANCE_FIELDS[trial % len(_DISTANCE_FIELDS)])
        kw = {} if chunk is None else {
            "chunk": chunk(F.order) if callable(chunk) else chunk}
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


def _planted_light_code(F, rng, msg):
    """A k x (k + 1) code matrix G, k = len(msg), whose only light word, up
    to scaling, is msg @ G.

    The code is the dual of a vector h with one zero entry j0, so e_j0 is
    its only word of weight < 2 = n - k + 1.  Every row but msg's lead row
    is a random word of the code; the lead row makes msg @ G = e_j0.
    """
    S = ScalarField(F)
    k = len(msg)
    n = k + 1
    lead = next(t for t, m in enumerate(msg) if m)
    j0, j1 = rng.sample(range(n), 2)
    h = [0 if j == j0 else rng.randrange(1, F.order) for j in range(n)]
    while True:
        G = [[rng.randrange(F.order) for _ in range(n)] for _ in range(k)]
        for row in G:
            row[j1] = 0
            dot = 0
            for x, y in zip(row, h):
                dot = S.add(dot, S.mul(x, y))
            row[j1] = S.neg(S.div(dot, h[j1]))
        G[lead] = [int(j == j0) for j in range(n)]
        for t in range(lead + 1, k):
            G[lead] = [S.sub(a, S.mul(msg[t], b)) for a, b in zip(G[lead], G[t])]
        G = np.array(G, dtype=np.int64)
        if FMatrix(F, G).rank() == k:
            return G


@pytest.mark.parametrize("p,e,k", [(2, 1, 5), (3, 1, 4)],
                         ids=["GF4-k5", "GF9-k4"])
def test_exhaustive_distance_finds_planted_word_at_batch_edges(monkeypatch,
                                                               p, e, k):
    # a lead's partial words are i = h * order + d_0.  With chunk = 2 order^2
    # a batch holds the high rows h = 2b and 2b + 1 with every d_0; with
    # order^2 - 1 it holds one high row and order - 1 values of d_0.  The
    # only light word is planted at d_0 = 0 and order - 1, in the first and
    # last high row of a batch, and the route must report it as the oracle
    # scan does
    F = make_field(p, e)
    order = F.order
    rng = random.Random(order * 100 + k)
    spec = _FakeSpec(F, range(k + 1), [1] * (k + 1), k)
    planted = 0
    for lead in (0, 1):
        width = k - lead - 2                  # digits of i
        highs = order ** (width - 1)
        for h in sorted({0, 2, 3, highs - 1} & set(range(highs))):
            for d0 in (0, order - 1):
                i, c = h * order + d0, rng.randrange(order)
                msg = ((0,) * lead + (1,)
                       + tuple(i // order ** t % order for t in range(width))
                       + (c,))
                G = _planted_light_code(F, rng, msg)
                monkeypatch.setattr(verifier, "generator_matrix", lambda s: G)
                monkeypatch.setattr(oracle, "generator_matrix", lambda s: G)
                checked = (sum(order ** (k - 1 - l) for l in range(lead))
                           + c * order ** width + i + 1)
                want = MdsReport(MdsStatus.FAILED, "exhaustive-distance",
                                 checked, f"message {msg} gives weight 1 < 2")
                assert scan_min_distance_exhaustive(spec) == want
                for chunk in (1, order ** 2 - 1, order ** 2, 2 * order ** 2,
                              8192):
                    got = check_min_distance_exhaustive(spec, chunk=chunk)
                    assert got == want, (msg, chunk)
                planted += 1
    assert planted == {4: 14, 9: 10}[order]


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
