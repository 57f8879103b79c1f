"""Test-only reference implementations that ``src/`` never calls.

* a brute-force existence oracle for Hermitian self-orthogonal multipliers,
  an independent check on small instances;
* the exhaustive exponent-window enumeration that the closed forms of
  :attr:`qgrs.exponents.Scenario.quotients` are pinned against;
* the scalar lexicographic unranker that :func:`qgrs.bulk.unrank_lex` is
  held equal to;
* the chunked codeword scan, one ``vcombine`` per batch of whole messages,
  that :func:`qgrs.verifier.check_min_distance_exhaustive` is held equal to;
* the unit-by-unit walk over the powers of x that the field's exp/log
  tables, built by companion-matrix doubling, are held equal to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from qgrs.errors import InvalidScenario
from qgrs.exponents import Scenario, ScenarioKind
from qgrs.field import FieldSpec
from qgrs.grs import GrsSpec, generator_matrix, singleton_distance
from qgrs.verifier import (
    DEFAULT_WORD_BUDGET,
    MdsReport,
    MdsStatus,
    projective_word_count,
)


@dataclass(frozen=True)
class SearchReport:
    found: tuple[int, ...] | None
    tried: int
    exhausted: bool


def brute_force_multiplier_search(F: FieldSpec, locators: tuple[int, ...],
                                  k: int, *, budget: int = 2_000_000) -> SearchReport:
    """Search norm profiles y in (F_q*)^n making all gram sums vanish.

    The gram conditions are linear in y, so y_0 may be fixed to 1.  The
    multipliers found are codes, the smallest-dlog norm preimages of y.
    """
    n = len(locators)
    exps = [F.q * i + j for i in range(k) for j in range(k)]
    powers = [[F.pow_code(a, e) for a in locators] for e in exps]
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
            return SearchReport(tuple(F.vsolve_norm(y).tolist()), tried, False)
    return SearchReport(None, tried, True)


def enumerate_quotients(q: int, m: int, offset: int, k: int) -> frozenset[int]:
    """Exhaustive dual of :attr:`Scenario.quotients`: walk all (i, j) pairs.

    Kept separate from the closed forms on purpose — the two routes check
    each other and are never merged.
    """
    out = set()
    for i in range(k):
        base = q * i + offset
        for j in range(k):
            e = base + j
            if e % m == 0:
                out.add(e // m)
    return frozenset(out)


def all_valid_scenarios(kind: ScenarioKind, q: int) -> list[Scenario]:
    """Every (s, t) the validator accepts for this kind and q."""
    out = []
    for s in range(1, q + 2):
        for t in range(0, s + 1):
            try:
                out.append(Scenario(kind, q, s, t))
            except InvalidScenario:
                continue
    return out


def stepped_exp_log(p: int, e: int,
                    modulus: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """exp/log tables of GF(p^(2e)) in the layout of ``FieldSpec._exp`` and
    ``_log``, built one unit at a time: multiply by x, reduce by the
    modulus, record the code."""
    d = 2 * e
    order = p ** d
    n_units = order - 1
    exp = np.zeros(7 * n_units, dtype=np.int64)
    log = np.full(order, -1, dtype=np.int64)
    if p == 2:  # codes are bit masks: shift, and XOR the modulus back in
        packed = sum(c << i for i, c in enumerate(modulus))
        code = 1
        for i in range(n_units):
            assert log[code] == -1, "x has order below 2^(2e) - 1"
            exp[i] = code
            log[code] = i
            code <<= 1
            if code & order:
                code ^= packed
        assert code == 1, "x^(2^(2e) - 1) != 1"
    else:
        tail = modulus[:d]
        cur = [1] + [0] * (d - 1)
        for i in range(n_units):
            code = sum(c * p ** j for j, c in enumerate(cur))
            assert log[code] == -1, "x has order below p^(2e) - 1"
            exp[i] = code
            log[code] = i
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [(c - top * t) % p for c, t in zip(cur, tail)]
        assert cur == [1] + [0] * (d - 1), "x^(p^(2e) - 1) != 1"
    exp[n_units:2 * n_units] = exp[:n_units]
    exp[2 * n_units:3 * n_units] = exp[:n_units]
    log[0] = 3 * n_units
    return exp, log


def _unrank_lex(n: int, k: int, rank: int) -> list[int]:
    """Lexicographic unranking of k-subsets of range(n)."""
    out = []
    prev = -1
    for pos in range(k):
        c = prev + 1
        while True:
            block = math.comb(n - c - 1, k - pos - 1)
            if rank < block:
                break
            rank -= block
            c += 1
        out.append(c)
        prev = c
    return out


def scan_min_distance_exhaustive(spec: GrsSpec, *, budget: int = DEFAULT_WORD_BUDGET,
                                 chunk: int = 8192) -> MdsReport:
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
            words = F.vcombine(msgs[:, lead:], G[lead:])
            weights = (words != 0).sum(axis=1)
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
