"""Certification of GRS code specs.

Self-orthogonality is always decided through two genuinely different
routes — the gram expansion and the interpolation-degree criterion — and a
disagreement raises instead of silently picking a winner.

The Singleton distance is decided by the cheapest affordable route:

1. all maximal minors of the generator matrix (complete, cost C(n, k));
2. exhaustive codeword-weight enumeration over projective messages
   (complete, cost (q^2k - 1)/(q^2 - 1));
3. a structural certificate — every maximal minor of a matrix with rows
   v_i * a_i^j factors as a product of multipliers times a Vandermonde
   determinant in the locators, so distinct locators and nonzero
   multipliers force every minor nonzero — spot-checked with a block of
   deterministically sampled minors as defense against matrix-building bugs.

The report always names the route that decided, so downstream consumers can
distinguish an enumerated verdict from a structural one.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from enum import Enum
from itertools import product as iter_product

import numpy as np

from . import bulk
from .constructions import QuantumParams
from .errors import VerificationMismatch
from .field import Felt, FieldSpec
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
_LEAF_WIDTH = 2
_SAMPLED_MINORS = 512
_SAMPLE_SEED = 0xC0DE


class MdsStatus(Enum):
    VERIFIED = "verified"
    FAILED = "failed"
    BUDGET_EXCEEDED = "budget-exceeded"


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


def check_mds_minors(spec: GrsSpec, *, budget: int = DEFAULT_MINOR_BUDGET,
                     chunk: int = _MINOR_CHUNK) -> MdsReport:
    n, k = spec.n, spec.k
    total = math.comb(n, k)
    if total > budget:
        return MdsReport(MdsStatus.BUDGET_EXCEEDED, "minors", 0,
                         f"C({n},{k}) = {total} > budget {budget}")
    G = np.array(generator_matrix(spec).rows, dtype=np.int64)
    return check_matrix_minors(spec.field, G, chunk=chunk)


def check_matrix_minors(F: FieldSpec, G: np.ndarray, *,
                        chunk: int = _MINOR_CHUNK) -> MdsReport:
    """Decide every maximal minor of the k x n code matrix G.

    On failure the report names the lexicographically first singular
    k-subset, and ``checked`` counts the minors up to the end of the
    ``chunk``-sized block of lexicographic ranks that holds it.
    """
    k, n = G.shape
    total = math.comb(n, k)
    if bulk.has_tables(F):
        bad = _first_singular(F, G, chunk)
    else:
        bad = _first_singular_scalar(F, G, chunk)
    if bad is None:
        return MdsReport(MdsStatus.VERIFIED, "minors", total)
    rank = bulk._rank_lex(n, k, bad)
    return MdsReport(MdsStatus.FAILED, "minors",
                     min(total, (rank // chunk + 1) * chunk),
                     f"singular minor at columns {bad}")


def _first_singular(F: FieldSpec, G: np.ndarray,
                    chunk: int) -> tuple[int, ...] | None:
    """Depth-first walk over the column k-subsets in lexicographic order.

    A node of depth d holds the residual of G after eliminating its d
    prefix columns (bulk.schur_children), restricted to the columns after
    the last one; a zero residual column ends the walk below it, since every
    completion through that column is singular.  Once _LEAF_WIDTH rows are
    left, every _LEAF_WIDTH-subset of the remaining columns is a leaf minor,
    decided in batches of at most ``chunk``.  Returns the first singular
    subset, or None.
    """
    k, n = G.shape
    width = min(k, _LEAF_WIDTH)
    tails = bulk.combinations_array(n, width, 0, math.comb(n, width))
    # completions[f]: how many tails start at column f or later
    completions = np.array([math.comb(n - f, width) for f in range(n + 1)])
    rows = np.arange(width)[None, :, None]
    # queued leaf batches, all before any subset not yet queued:
    # (mats, head, first child column or None, member, tail ids)
    queue: list[tuple] = []
    queued = 0

    def flush() -> tuple[int, ...] | None:
        nonlocal queued
        if not queue:
            return None
        good = bulk.batch_minors_nonsingular(
            F, np.concatenate([piece[0] for piece in queue]))
        if not good.all():
            b = int(np.flatnonzero(~good)[0])
            for mats, head, child0, member, ids in queue:
                if b < len(mats):
                    child = () if child0 is None else (child0 + int(member[b]),)
                    return head + child + tuple(int(c) for c in tails[ids[b]])
                b -= len(mats)
        queue.clear()
        queued = 0
        return None

    def leaves(X: np.ndarray, start: int, head: tuple[int, ...],
               children: bool) -> tuple[int, ...] | None:
        """Queue the leaf minors of the residuals X over columns start..n-1.

        With ``children`` set, X[i] is the child through column start + i of
        the node with prefix ``head``, and its tails lie after that column;
        otherwise X[0] is that node itself and its tails start at ``start``.
        """
        nonlocal queued
        firsts = start + 1 + np.arange(len(X)) if children else np.array([start])
        cnt = completions[firsts]
        member = np.repeat(np.arange(len(X)), cnt)
        ids = np.arange(int(cnt.sum())) + np.repeat(
            len(tails) - cnt - (np.cumsum(cnt) - cnt), cnt)
        for lo in range(0, len(ids), chunk):
            part_member, part_ids = member[lo:lo + chunk], ids[lo:lo + chunk]
            cols = tails[part_ids] - start
            mats = X[part_member[:, None, None], rows, cols[:, None, :]]
            if queued + len(mats) > chunk:
                bad = flush()
                if bad is not None:
                    return bad
            queue.append((mats, head, start if children else None,
                          part_member, part_ids))
            queued += len(mats)
        return None

    def walk(R: np.ndarray, start: int,
             head: tuple[int, ...]) -> tuple[int, ...] | None:
        m, w = R.shape
        if m == width:
            return leaves(R[None], start, head, False)
        alive, kids = bulk.schur_children(F, R, w - m + 1)
        dead = np.flatnonzero(~alive)
        live = int(dead[0]) if dead.size else len(alive)
        if m - 1 == width:
            bad = leaves(kids[:live], start, head, True)
            if bad is not None:
                return bad
        else:
            for j in range(live):
                bad = walk(kids[j, :, j + 1:], start + j + 1, head + (start + j,))
                if bad is not None:
                    return bad
        if not dead.size:
            return None
        bad = flush()
        if bad is not None:
            return bad
        # the first completion through the dead column
        return head + tuple(range(start + live, start + live + m))

    bad = walk(G.astype(np.int32), 0, ())
    return flush() if bad is None else bad


def _first_singular_scalar(F: FieldSpec, G: np.ndarray,
                           chunk: int) -> tuple[int, ...] | None:
    """Rank each k-subset with FMatrix, for fields too large for tables."""
    k, n = G.shape
    total = math.comb(n, k)
    done = 0
    while done < total:
        count = min(chunk, total - done)
        for cols in bulk.combinations_array(n, k, done, count):
            if FMatrix(F, G[:, cols].tolist()).rank() < k:
                return tuple(int(c) for c in cols)
        done += count
    return None


# ---------------------------------------------------------------------------
# route 2: exhaustive codeword weights
# ---------------------------------------------------------------------------


def check_min_distance_exhaustive(spec: GrsSpec, *, budget: int = DEFAULT_WORD_BUDGET,
                                  chunk: int = _MINOR_CHUNK) -> MdsReport:
    """Walk every projective message, check no codeword has weight < n-k+1.

    Weights are invariant under scaling the message, so only representatives
    with first nonzero coordinate equal to 1 are enumerated.
    """
    n, k = spec.n, spec.k
    F = spec.field
    total = projective_word_count(F.order, k)
    if total > budget:
        return MdsReport(MdsStatus.BUDGET_EXCEEDED, "exhaustive-distance", 0,
                         f"{total} projective words > budget {budget}")
    d_target = singleton_distance(n, k)
    G = generator_matrix(spec)
    Gnp = np.array(G.rows, dtype=np.int64)
    use_tables = bulk.has_tables(F)
    checked = 0
    for lead in range(k):
        # messages (0, ..., 0, 1, tail) with tail free over F^(k-lead-1)
        tail_len = k - lead - 1
        tail_total = F.order ** tail_len
        done = 0
        while done < tail_total:
            count = min(chunk, tail_total - done)
            msgs = np.zeros((count, k), dtype=np.int64)
            msgs[:, lead] = 1
            idx = np.arange(done, done + count, dtype=np.int64)
            for t in range(tail_len):
                msgs[:, lead + 1 + t] = (idx // (F.order ** t)) % F.order
            if use_tables:
                words = np.zeros((count, n), dtype=np.int64)
                for row in range(lead, k):
                    term = F.np_mul[msgs[:, row][:, None], Gnp[row][None, :]]
                    words = F.np_add[words, term]
                weights = (words != 0).sum(axis=1)
            else:
                weights = np.empty(count, dtype=np.int64)
                for b in range(count):
                    w = 0
                    for col in range(n):
                        acc = 0
                        for row in range(lead, k):
                            acc = F.add_codes(acc, F.mul_codes(
                                int(msgs[b, row]), int(Gnp[row, col])))
                        w += acc != 0
                    weights[b] = w
            if (weights < d_target).any():
                b = int(np.flatnonzero(weights < d_target)[0])
                msg = tuple(int(x) for x in msgs[b])
                return MdsReport(MdsStatus.FAILED, "exhaustive-distance",
                                 checked + b + 1,
                                 f"message {msg} gives weight {int(weights[b])} "
                                 f"< {d_target}")
            done += count
            checked += count
    return MdsReport(MdsStatus.VERIFIED, "exhaustive-distance", checked)


# ---------------------------------------------------------------------------
# route 3: structural certificate + sampled minors
# ---------------------------------------------------------------------------


def structural_minor_certificate(spec: GrsSpec, *, samples: int = _SAMPLED_MINORS,
                                 seed: int = _SAMPLE_SEED) -> MdsReport:
    """Vandermonde-factorization argument, plus sampled minors as a tripwire.

    Any k columns of the matrix (v_i * a_i^j) form a Vandermonde matrix in
    the chosen locators with its columns scaled by the chosen multipliers;
    the determinant is the product of the multipliers and all pairwise
    locator differences.  GrsSpec already enforces distinct locators and
    nonzero multipliers, so every maximal minor is provably nonzero.  The
    sampled minors do not add mathematical strength — they guard the code
    path that builds the generator matrix.
    """
    n, k = spec.n, spec.k
    F = spec.field
    codes = spec.locator_codes()
    if len(set(codes)) != n:  # pragma: no cover - GrsSpec enforces this
        return MdsReport(MdsStatus.FAILED, "structural", 0, "repeated locator")
    if any(v == 0 for v in spec.multiplier_codes()):  # pragma: no cover
        return MdsReport(MdsStatus.FAILED, "structural", 0, "zero multiplier")
    total = math.comb(n, k)
    # stdlib RNG: C(n, k) routinely exceeds int64, numpy draws cannot
    rng = random.Random(seed)
    picks = min(samples, total)
    ranks = sorted({rng.randrange(total) for _ in range(picks)})
    cols = np.array([bulk._unrank_lex(n, k, r) for r in ranks], dtype=np.int32)
    G = generator_matrix(spec)
    if bulk.has_tables(F):
        Gnp = np.array(G.rows, dtype=np.int64)
        mats = Gnp[:, cols].transpose(1, 0, 2)
        good = bulk.batch_minors_nonsingular(F, mats)
    else:
        good = np.array([G.submatrix(range(k), c).rank() == k for c in cols])
    if not good.all():  # pragma: no cover - would contradict the argument
        bad = cols[int(np.flatnonzero(~good)[0])]
        return MdsReport(MdsStatus.FAILED, "structural", len(ranks),
                         f"sampled minor at columns {tuple(int(c) for c in bad)} "
                         "is singular despite the factorization argument")
    return MdsReport(MdsStatus.VERIFIED, "structural", len(ranks),
                     f"factorization argument + {len(ranks)} sampled minors")


# ---------------------------------------------------------------------------
# the route ladder
# ---------------------------------------------------------------------------


def check_mds(spec: GrsSpec, *, minor_budget: int = DEFAULT_MINOR_BUDGET,
              word_budget: int = DEFAULT_WORD_BUDGET,
              samples: int = _SAMPLED_MINORS) -> MdsReport:
    """Cheapest affordable complete route, structural certificate last."""
    if math.comb(spec.n, spec.k) <= minor_budget:
        return check_mds_minors(spec, budget=minor_budget)
    if projective_word_count(spec.field.order, spec.k) <= word_budget:
        return check_min_distance_exhaustive(spec, budget=word_budget)
    return structural_minor_certificate(spec, samples=samples)


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
            word_budget: int = DEFAULT_WORD_BUDGET,
            samples: int = _SAMPLED_MINORS) -> CertBundle:
    """Run both self-orthogonality routes and the MDS ladder.

    The two self-orthogonality verdicts must agree; a split verdict is a
    bug in this package by definition and raises VerificationMismatch.
    """
    t0 = time.perf_counter()
    gram_ok = hermitian_gram(spec).is_zero()
    interp_ok, bad_j = dual_containment_check(spec)
    if gram_ok != interp_ok:
        raise VerificationMismatch(
            f"gram route says {gram_ok}, interpolation route says {interp_ok}"
            + (f" (first failing row j = {bad_j})" if bad_j is not None else ""))
    mds = check_mds(spec, minor_budget=minor_budget, word_budget=word_budget,
                    samples=samples)
    quantum = None
    if gram_ok and mds.ok and spec.n - 2 * spec.k >= 0:
        quantum = QuantumParams(spec.n, spec.n - 2 * spec.k, spec.k + 1,
                                spec.field.q)
    return CertBundle(spec, gram_ok, interp_ok, mds, quantum,
                      time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# brute-force existence oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    found: tuple[Felt, ...] | None
    tried: int
    exhausted: bool


def brute_force_multiplier_search(F: FieldSpec, locators: tuple[Felt, ...],
                                  k: int, *, budget: int = 2_000_000) -> SearchReport:
    """Search norm profiles y in (F_q*)^n making all gram sums vanish.

    The gram conditions are linear in y, so y_0 may be fixed to 1.  Intended
    as an independent existence oracle for small instances; the coset
    constructions never call it.
    """
    n = len(locators)
    exps = [F.q * i + j for i in range(k) for j in range(k)]
    powers = [[F.pow_code(a.code, e) for a in locators] for e in exps]
    base_units = [c for c in F.base_codes() if c != 0]
    tried = 0
    for tail in iter_product(base_units, repeat=n - 1):
        tried += 1
        if tried > budget:
            return SearchReport(None, tried - 1, False)
        y = (1,) + tail
        good = True
        for row in powers:
            acc = 0
            for yi, pi in zip(y, row):
                acc = F.add_codes(acc, F.mul_codes(yi, pi))
            if acc != 0:
                good = False
                break
        if good:
            found = tuple(F.solve_norm(F.from_code(c)) for c in y)
            return SearchReport(found, tried, False)
    return SearchReport(None, tried, True)
