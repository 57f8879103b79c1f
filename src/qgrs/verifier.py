"""Certification of GRS code specs.

Self-orthogonality is always decided through two genuinely different
routes — the gram expansion and the interpolation-degree criterion — and a
disagreement raises instead of silently picking a winner.

The Singleton distance is decided by the cheapest route within budget;
check_mds alone compares the costs with the budgets, and routes take none:

1. all maximal minors of the generator matrix (complete, cost C(n, k));
2. exhaustive codeword-weight enumeration over projective messages
   (complete: all (q^2k - 1)/(q^2 - 1) words are decided, at a cost of
   about q^(2(k-2)) partial words x n, since one histogram of the roots
   in the last message coordinate counts the zeros of q^2 words at once,
   and each partial word is one broadcast addition of a shared high row
   and a multiple of the next generator row);
3. a structural certificate — every maximal minor of a matrix with rows
   v_i * a_i^j factors as a product of multipliers times a Vandermonde
   determinant in the locators, so distinct locators and nonzero
   multipliers force every minor nonzero — spot-checked with a block of
   deterministically sampled minors as defense against matrix-building bugs.
   The generator matrix is reduced once, and each sample is decided by
   one block of its reduced form, in one elimination pass over all the
   blocks: exact linear algebra that does not lean on the factorization.
   Samples and block layouts are computed once per (n, k, pivots), in a bounded cache.

The report always names the route that decided, so downstream consumers can
distinguish an enumerated verdict from a structural one.
"""
from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from . import bulk
from .constructions import QuantumParams
from .errors import VerificationMismatch, WrongShape
from .field import FieldSpec
from .grs import (
    GrsSpec,
    dual_containment_check,
    generator_matrix,
    hermitian_gram,
    singleton_distance,
)
from .matrix import FMatrix

DEFAULT_MINOR_BUDGET = 10_000_000
DEFAULT_WORD_BUDGET = 10_000_000
_MINOR_CHUNK = 8192
#: about how many words one batch of the exhaustive route decides
_WORD_CHUNK = 1 << 15
_LEAF_WIDTH = 2
#: about how many residual entries one slice of a level of the minor walk
#: holds; this bounds the walk's memory
_SLICE_ENTRIES = 1 << 14
_SAMPLED_MINORS = 512
_SAMPLE_SEED = 0xC0DE


class MdsStatus(Enum):
    VERIFIED = "verified"
    FAILED = "failed"


@dataclass(frozen=True)
class MdsReport:
    status: MdsStatus
    method: str
    checked: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status is MdsStatus.VERIFIED


def projective_word_count(order: int, k: int) -> int:
    """Number of projective message representatives: (order^k - 1)/(order - 1)."""
    return (order ** k - 1) // (order - 1)


# ---------------------------------------------------------------------------
# route 1: all maximal minors
# ---------------------------------------------------------------------------


def check_mds_minors(spec: GrsSpec) -> MdsReport:
    return check_matrix_minors(spec.field, generator_matrix(spec))


def check_matrix_minors(F: FieldSpec, G: np.ndarray, *,
                        chunk: int = _MINOR_CHUNK) -> MdsReport:
    """Decide every maximal minor of the k x n code matrix G, k <= n.

    On failure the report names the lexicographically first singular
    k-subset, and ``checked`` counts the minors up to the end of the
    ``chunk``-sized block of lexicographic ranks that holds it.
    """
    k, n = G.shape
    if k > n:
        raise WrongShape(f"a {k} x {n} matrix has no maximal {k}-minors")
    total = math.comb(n, k)
    bad = _first_singular(F, G, chunk)
    if bad is None:
        return MdsReport(MdsStatus.VERIFIED, "minors", total)
    rank = bulk._rank_lex(n, k, bad)
    return MdsReport(MdsStatus.FAILED, "minors",
                     min(total, (rank // chunk + 1) * chunk),
                     f"singular minor at columns {bad}")


def _first_singular(F: FieldSpec, G: np.ndarray,
                    chunk: int) -> tuple[int, ...] | None:
    """Walk the column k-subsets one level at a time, in lexicographic order.

    A node of depth d is a prefix of d columns.  It holds the residual of G
    after eliminating them, over columns d..n-1, and extends the prefix by
    one of the columns after its last.  A level is a stack of nodes in
    lexicographic order, walked in slices of about _SLICE_ENTRIES residual
    entries; each slice is finished down to its leaves before the next, so
    the subsets are still decided in lexicographic order.  One batched Schur
    step (bulk.schur_children) makes a slice's children.  A zero residual
    column makes every completion through it singular: the first such
    completion is the answer unless a subset before it fails, and no later
    node is expanded.  Once _LEAF_WIDTH rows are left, every
    _LEAF_WIDTH-subset of a node's remaining columns is a leaf minor, read
    as one take of its columns from a column-major copy of the residuals
    (a transposed block, with the same determinant); the leaves of a slice
    are decided in batches of at most ``chunk``.  Returns the first singular
    subset, or None.
    """
    k, n = G.shape
    width = min(k, _LEAF_WIDTH)
    tails = bulk.combinations_array(n, width)
    # completions[f] = C(n - f, width): how many tails start at column f or later
    completions = bulk.comb_table(n, width)[width, ::-1]
    # offs[t]: tail t's columns in a width x w leaf residual (columns
    # n-w..n-1), int32; each batch adds its leaves' intp node offsets, so the
    # take gets an intp index and makes no cast pass.  take(axis=0) is far
    # faster than a fancy index
    w = n - k + width
    offs = (tails - (n - w)).astype(np.int32)

    def leaves(R: np.ndarray, starts: np.ndarray,
               heads: np.ndarray) -> tuple[int, ...] | None:
        # node b's leaves are its prefix plus each of the last
        # completions[starts[b]] tails.  Leaves lo..hi-1 are got[j] leaves of
        # each node b0 + j < b1; node b's columns are rows b*w.. of cols
        cols = R.transpose(0, 2, 1).reshape(-1, width)
        ends = np.cumsum(completions[starts])
        for lo in range(0, int(ends[-1]), chunk):
            hi = min(lo + chunk, int(ends[-1]))
            b0, b1 = np.searchsorted(ends, [lo, hi - 1], side="right") + (0, 1)
            got = np.diff(np.concatenate(([lo], ends[b0:b1 - 1], [hi])))
            t = np.arange(lo, hi) + np.repeat(len(tails) - ends[b0:b1], got)
            base = np.repeat(np.arange(b0, b1) * w, got)
            good = bulk.batch_minors_nonsingular(F, cols.take(
                offs.take(t, axis=0) + base[:, None], axis=0))
            if not good.all():
                i = int(np.flatnonzero(~good)[0])
                return tuple(heads[base[i] // w].tolist() + tails[t[i]].tolist())
        return None

    def level(R: np.ndarray, starts: np.ndarray,
              heads: np.ndarray) -> tuple[int, ...] | None:
        m, w = R.shape[1:]
        if m == width:
            return leaves(R, starts, heads)
        d = n - w
        # node b's children go through columns starts[b]..n-m
        counts = n - m + 1 - starts
        at = np.arange(d, n)
        zero = ~R.any(axis=1) & (at >= starts[:, None]) & (at <= n - m)
        dead = zero.any(axis=1)
        bad = None
        if dead.any():
            b = int(dead.argmax())
            c = d + int(zero[b].argmax())
            bad = tuple(heads[b].tolist()) + tuple(range(c, c + m))
            counts = counts[:b + 1].copy()
            counts[b] = c - starts[b]
        # the children in lexicographic order, as (parent, column) pairs
        parents = np.repeat(np.arange(len(counts)), counts)
        cols = np.arange(len(parents)) + np.repeat(
            starts[:len(counts)] - np.cumsum(counts) + counts, counts)
        per = max(1, _SLICE_ENTRIES // ((m - 1) * (w - 1)))
        for lo in range(0, len(parents), per):
            nodes, through = parents[lo:lo + per], cols[lo:lo + per]
            kids = bulk.schur_children(F, R, nodes, through - d)[:, :, 1:]
            found = level(kids, through + 1,
                          np.column_stack([heads.take(nodes, axis=0), through]))
            if found is not None:
                return found
        return bad

    return level(G.astype(np.int64)[None], np.zeros(1, dtype=np.int64),
                 np.zeros((1, 0), dtype=np.int64))


# ---------------------------------------------------------------------------
# route 2: exhaustive codeword weights
# ---------------------------------------------------------------------------


def check_min_distance_exhaustive(spec: GrsSpec, *,
                                  chunk: int = _WORD_CHUNK) -> MdsReport:
    """Walk every projective message, check no codeword has weight < n-k+1.

    Weights are invariant under scaling the message, so only representatives
    with first nonzero coordinate equal to 1 are enumerated: for each lead
    row, the messages (0, ..., 0, 1, tail) in the order of the tail read as
    a base-order number, least significant digit first.  Every word's weight
    is decided; see _first_light_word for how ``chunk`` words share a batch.
    """
    n, k = spec.n, spec.k
    F = spec.field
    d_target = singleton_distance(n, k)
    G = generator_matrix(spec)
    checked = 0
    for lead in range(k):
        if lead == k - 1:
            # the single message (0, ..., 0, 1)
            weight = int(np.count_nonzero(G[lead]))
            light = (0, (0,) * lead + (1,), weight) if weight < d_target else None
        else:
            light = _first_light_word(F, G, lead, chunk)
        if light is not None:
            first, msg, weight = light
            return MdsReport(MdsStatus.FAILED, "exhaustive-distance",
                             checked + first + 1,
                             f"message {msg} gives weight {weight} "
                             f"< {d_target}")
        checked += F.order ** (k - lead - 1)
    return MdsReport(MdsStatus.VERIFIED, "exhaustive-distance", checked)


def _first_light_word(F: FieldSpec, G: np.ndarray, lead: int,
                      chunk: int) -> tuple[int, tuple[int, ...], int] | None:
    """The first message with lead row ``lead`` < k - 1 whose word has at
    least k zeros, as (tail index, message, weight), or None.

    Let L = k - lead - 1.  A message's tail index is c * order^(L-1) + i, c
    its last coordinate and i the index of its other tail digits, so the
    order words of the partial word W_i = G[lead] + sum_t d_t G[lead+1+t]
    (t < L - 1) differ only in c.  On a live column j, G[k-1, j] != 0, the
    word W_i + c G[k-1] vanishes for one c, the root -W_ij / G[k-1, j]; one
    bincount over (i, c) pairs counts the zeros of all order words at once.
    On a dead column (locator 0) it is zero for every c iff W_ij = 0.

    Roots are linear in the message, as words are: the live columns of G,
    scaled once by -1 / G[k-1] and put first, make a matrix S whose partial
    words are the roots on the live columns and the words on the dead ones.
    They are built by broadcasting: i = h * order + d_0, and
    W_i = H_h + d_0 S[lead+1], where the high row H_h is S[lead] plus the
    terms t >= 1.  The order multiples of S[lead+1] are made once, each
    batch's high rows by one ``vdot``, and its W by one broadcast
    ``vadd``.  (For L = 1 there is no d_0: the one partial word is S[lead]
    plus the zero multiple.)  A batch holds max(1, chunk // order^2) high
    rows with every d_0, or, when order^2 > chunk, one high row with
    max(1, chunk // order) values of d_0, so about ``chunk`` words.
    """
    k, n = G.shape
    order = F.order
    live = G[k - 1] != 0
    n_live = int(np.count_nonzero(live))
    S = np.hstack((F.vmul(G[:, live], F.vneg(F.vinv(G[k - 1, live]))),
                   G[:, ~live]))
    span = order ** (k - lead - 2)
    low = order if lead < k - 2 else 1            # how many values d_0 takes
    highs = span // low
    multiples = F.vmul(np.arange(low)[:, None], S[lead + 1])
    high = np.concatenate((S[lead:lead + 1], S[lead + 2:k - 1]))
    h_step = max(1, chunk // order ** 2)
    d_step = min(low, max(1, chunk // order))
    best = None
    for h_lo in range(0, highs, h_step):
        h = np.arange(h_lo, min(h_lo + h_step, highs), dtype=np.int64)
        coeffs = np.ones((len(h), len(high)), dtype=np.int64)
        for t in range(1, len(high)):
            coeffs[:, t] = (h // order ** (t - 1)) % order
        H = F.vdot(coeffs, high)
        for d_lo in range(0, low, d_step):
            W = F.vadd(H[:, None], multiples[None, d_lo:d_lo + d_step])
            idx = (h[:, None] * low + np.arange(d_lo, d_lo + W.shape[1])).ravel()
            W = W.reshape(len(idx), n)
            keys = W[:, :n_live] + (np.arange(len(idx)) * order)[:, None]
            zeros = np.bincount(keys.ravel(), minlength=len(idx) * order)
            zeros = zeros.reshape(len(idx), order)
            if n_live < n:
                zeros += np.count_nonzero(W[:, n_live:] == 0, axis=1)[:, None]
            light_i, light_c = np.nonzero(zeros >= k)
            if not light_i.size:
                continue
            tails = light_c * span + idx[light_i]
            b = int(np.argmin(tails))
            if best is None or tails[b] < best[0]:
                i, c = int(idx[light_i[b]]), int(light_c[b])
                digits = tuple(i // order ** t % order for t in range(k - lead - 2))
                best = (int(tails[b]), (0,) * lead + (1,) + digits + (c,),
                        n - int(zeros[light_i[b], c]))
    return best


# ---------------------------------------------------------------------------
# route 3: structural certificate + sampled minors
# ---------------------------------------------------------------------------


def structural_minor_certificate(spec: GrsSpec) -> MdsReport:
    """Vandermonde-factorization argument, plus sampled minors as a tripwire.

    Any k columns of the matrix (v_i * a_i^j) form a Vandermonde matrix in
    the chosen locators with its columns scaled by the chosen multipliers;
    the determinant is the product of the multipliers and all pairwise
    locator differences.  GrsSpec already enforces distinct locators and
    nonzero multipliers, so every maximal minor is provably nonzero.  The
    sampled minors do not add mathematical strength — they guard the code
    path that builds the generator matrix.
    """
    if len(set(spec.locators)) != spec.n:  # pragma: no cover - GrsSpec enforces this
        return MdsReport(MdsStatus.FAILED, "structural", 0, "repeated locator")
    if 0 in spec.multipliers:  # pragma: no cover
        return MdsReport(MdsStatus.FAILED, "structural", 0, "zero multiplier")
    cols, good = _reduced_samples_nonsingular(spec.field, generator_matrix(spec))
    bad = cols[np.flatnonzero(~good)[:1]]
    if len(bad):  # pragma: no cover - would contradict the argument
        return MdsReport(MdsStatus.FAILED, "structural", len(cols),
                         f"sampled minor at columns {tuple(bad[0].tolist())} "
                         "is singular despite the factorization argument")
    return MdsReport(MdsStatus.VERIFIED, "structural", len(cols),
                     f"factorization argument + {len(cols)} sampled minors")


def _sample_ranks(total: int) -> list[int]:
    """Sorted distinct ranks of min(_SAMPLED_MINORS, total) seeded draws
    below total, each the next total.bit_length()-bit draw below it: the
    stdlib randrange's stream, pinned in this package.  The draws come in
    rounds, each one ``getrandbits`` map as long as the number of accepted
    draws still missing, so no round overshoots.  The stdlib RNG, because
    C(n, k) routinely exceeds int64 and numpy draws cannot."""
    rng, bits = random.Random(_SAMPLE_SEED), total.bit_length()
    picks = min(_SAMPLED_MINORS, total)
    drawn: list[int] = []
    while len(drawn) < picks:
        drawn += [r for r in map(rng.getrandbits, repeat(bits, picks - len(drawn)))
                  if r < total]
    return sorted(set(drawn))


def _reduced_samples_nonsingular(F: FieldSpec, G: np.ndarray) -> tuple[np.ndarray, ...]:
    """(cols, good): the structural route's sampled column k-subsets of G,
    and good[i]: is the k x k minor of G on columns cols[i] nonsingular?

    R = rref(G) is E G for an invertible E, so when rank(G) = k its k x k
    minors are those of G times det E; when rank(G) < k all are singular.
    With pivot columns P, column P[i] of R is the unit vector e_i, so
    expanding det R_S along the unit columns of S & P leaves, up to sign,
    the minor of R on the rows i with P[i] not in S and the columns S - P:
    a b x b block, b = k - |S & P|, laid out by _sample_layout.  Largest
    block first, at most bulk._BATCH_ENTRIES frame entries a call, the
    blocks go to one pass of bulk.batch_minors_nonsingular in the
    bottom-right corners of frames the size of the call's first block.
    """
    k, n = G.shape
    R, pivots = FMatrix(F, G).rref()
    if len(pivots) < k:   # the samples do not depend on the pivots
        cols = _sample_layout(n, k, tuple(range(k)))[0]
        return cols, np.zeros(len(cols), dtype=bool)
    cols, sizes, order, rows, free = _sample_layout(n, k, pivots)
    good = np.empty(len(cols), dtype=bool)
    flat = R.array.reshape(-1)
    lo = 0
    while lo < len(cols):
        m = int(sizes[lo])
        hi = lo + max(1, bulk._BATCH_ENTRIES // max(1, m * m))
        frames = flat.take(rows[lo:hi, k - m:, None].astype(np.intp) * n
                           + free[lo:hi, None, k - m:])
        good[order[lo:hi]] = bulk.batch_minors_nonsingular(F, frames, sizes[lo:hi])
        lo = hi
    return cols, good


@functools.lru_cache(maxsize=128)
def _sample_layout(n: int, k: int, pivots: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The samples of a k x n matrix whose rref has these k pivots, and where
    their blocks lie: read-only (cols, sizes, order, rows, free), each in the
    narrowest dtype.  The j-th largest block is sample order[j]'s, on the last
    sizes[j] of rows[j] and of free[j]; none of it reads the code's entries.
    An entry is about 3 * 512 * k narrow ints, a few % of the peak memory of
    the certify that made it, so an entry bound is a memory bound."""
    cols = bulk.unrank_lex(n, k, _sample_ranks(math.comb(n, k)))
    # row_of[c]: the row whose pivot is column c, or k
    row_of = np.full(n, k, dtype=np.intp)
    row_of[list(pivots)] = np.arange(k)
    sizes = (row_of[cols] == k).sum(axis=1)
    order = np.argsort(-sizes)
    by_size = cols.take(order, axis=0)
    hit = row_of[by_size]
    unhit = np.ones((len(cols), k + 1), dtype=bool)
    unhit[np.arange(len(cols))[:, None], hit] = False
    rows = np.argsort(unhit[:, :k], axis=1)
    free = np.take_along_axis(by_size, np.argsort(hit == k, axis=1), axis=1)
    layout = tuple(a.astype(np.min_scalar_type(a.max()))
                   for a in (cols, sizes.take(order), order, rows, free))
    for a in layout:
        a.flags.writeable = False
    return layout


# ---------------------------------------------------------------------------
# the route ladder
# ---------------------------------------------------------------------------


def check_mds(spec: GrsSpec, *, minor_budget: int = DEFAULT_MINOR_BUDGET,
              word_budget: int = DEFAULT_WORD_BUDGET) -> MdsReport:
    """Cheapest affordable complete route, structural certificate last."""
    if math.comb(spec.n, spec.k) <= minor_budget:
        return check_mds_minors(spec)
    if projective_word_count(spec.field.order, spec.k) <= word_budget:
        return check_min_distance_exhaustive(spec)
    return structural_minor_certificate(spec)


# ---------------------------------------------------------------------------
# the full certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertBundle:
    spec: GrsSpec
    herm_gram_ok: bool
    herm_interp_ok: bool
    mds: MdsReport
    quantum: QuantumParams | None
    seconds: float

    @property
    def herm_ok(self) -> bool:
        return self.herm_gram_ok and self.herm_interp_ok

    @property
    def mds_ok(self) -> bool:
        return self.mds.ok


def certify(spec: GrsSpec, *, minor_budget: int = DEFAULT_MINOR_BUDGET,
            word_budget: int = DEFAULT_WORD_BUDGET) -> CertBundle:
    """Run both self-orthogonality routes and the MDS ladder.

    The two self-orthogonality verdicts must agree; a split verdict is a
    bug in this package by definition and raises VerificationMismatch.
    """
    t0 = time.perf_counter()
    gram_ok = not hermitian_gram(spec).any()
    interp_ok, bad_j = dual_containment_check(spec)
    if gram_ok != interp_ok:
        raise VerificationMismatch(
            f"gram route says {gram_ok}, interpolation route says {interp_ok}"
            + (f" (first failing row j = {bad_j})" if bad_j is not None else ""))
    mds = check_mds(spec, minor_budget=minor_budget, word_budget=word_budget)
    quantum = None
    if gram_ok and mds.ok and spec.n - 2 * spec.k >= 0:
        quantum = QuantumParams(spec.n, spec.n - 2 * spec.k, spec.k + 1,
                                spec.field.q)
    return CertBundle(spec, gram_ok, interp_ok, mds, quantum,
                      time.perf_counter() - t0)
