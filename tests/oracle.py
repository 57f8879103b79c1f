"""Test-only reference implementations that ``src/`` never calls.

* a brute-force existence oracle for Hermitian self-orthogonal multipliers,
  an independent check on small instances;
* the exhaustive exponent-window enumeration that the closed forms of
  :attr:`qgrs.exponents.Scenario.quotients` are pinned against;
* the scalar lexicographic unranker that :func:`qgrs.bulk.unrank_lex` is
  held equal to;
* the chunked codeword scan, whole messages times G by elementwise
  ``vmul`` and ``vadd`` one row at a time, that
  :func:`qgrs.verifier.check_min_distance_exhaustive` is held equal to;
* the unit-by-unit walk over the powers of x that the field's exp/log
  tables, built by companion-matrix doubling, are held equal to;
* :class:`ScalarField`, one-at-a-time arithmetic on int codes computed
  from the base-p digits and the modulus alone, that every ``FieldSpec.v*``
  op is held equal to.  It reads none of the field's tables, so a defect in
  them cannot hide behind the same defect in the reference;
* the node products and the Newton recursion on :class:`ScalarField` ops,
  that :func:`qgrs.bulk.newton_coefficients` is held equal to;
* the per-family (h, r) ranges that :func:`qgrs.constructions.iter_family_params`
  once restated, which its cell lists are held equal to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product as iter_product

import numpy as np

from qgrs.constructions import Params, validate
from qgrs.errors import InvalidScenario, ParamsRejected, ZeroArgument
from qgrs.exponents import Scenario, ScenarioKind
from qgrs.field import FieldSpec
from qgrs.grs import GrsSpec, generator_matrix, singleton_distance
from qgrs.verifier import MdsReport, MdsStatus


#: memoized ScalarField sums, negatives and products, per field: the span
#: and distance references call add and mul millions of times on a few
#: thousand distinct operands
_MEMOS: dict[tuple, tuple[dict, dict, dict]] = {}
_MEMO_CAP = 1 << 18


class ScalarField:
    """GF(q^2) arithmetic on single int codes, from ``F.p``, ``F.e``,
    ``F.q``, ``F.order`` and ``F.modulus`` only.

    A code's base-p digits are its residue polynomial, constant term first.
    Addition is digitwise mod p (at p = 2, XOR of the codes' bits);
    multiplication is the schoolbook product of the two digit polynomials
    reduced by the modulus (at p = 2 the same product on the codes' bits:
    shift and XOR); everything else is built from those two.
    """

    def __init__(self, F: FieldSpec) -> None:
        self.p, self.q, self.order = F.p, F.q, F.order
        self.d = 2 * F.e
        self.modulus = tuple(F.modulus)
        # at p = 2, the monic modulus as a bit mask, x^d included
        self._modulus_bits = sum(c << j for j, c in enumerate(self.modulus))
        self._sums, self._negs, self._products = _MEMOS.setdefault(
            (self.p, self.modulus), ({}, {}, {}))

    @staticmethod
    def _remember(memo: dict, key, value: int) -> int:
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = value
        return value

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.d):
            a, c = divmod(a, self.p)
            out.append(c)
        return out

    def _code(self, digits: list[int]) -> int:
        out = 0
        for c in reversed(digits):
            out = out * self.p + c % self.p
        return out

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        out = self._sums.get((a, b))
        if out is None:
            out = self._remember(self._sums, (a, b), self._code(
                [x + y for x, y in zip(self._digits(a), self._digits(b))]))
        return out

    def neg(self, a: int) -> int:
        out = self._negs.get(a)
        if out is None:
            out = self._remember(self._negs, a,
                                 self._code([-x for x in self._digits(a)]))
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        out = self._products.get((a, b))
        if out is None:
            out = self._remember(self._products, (a, b), self._product(a, b))
        return out

    def _product(self, a: int, b: int) -> int:
        if self.p == 2:
            return self._binary_product(a, b)
        return self._schoolbook_product(a, b)

    def _binary_product(self, a: int, b: int) -> int:
        """p = 2: a code's bits are its digits, so the product is the
        carry-less product of the two codes, reduced by the modulus from
        the top degree down."""
        out = 0
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            b >>= 1
        for top in range(out.bit_length() - 1, self.d - 1, -1):
            if out >> top & 1:
                out ^= self._modulus_bits << (top - self.d)
        return out

    def _schoolbook_product(self, a: int, b: int) -> int:
        p, d, m = self.p, self.d, self.modulus
        x, y = self._digits(a), self._digits(b)
        prod = [0] * (2 * d - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    prod[i + j] += xi * yj
        # x^d = -(m_0 + m_1 x + ... + m_(d-1) x^(d-1)), top degree first
        for top in range(2 * d - 2, d - 1, -1):
            c = prod[top] % p
            if c:
                for j in range(d):
                    prod[top - d + j] -= c * m[j]
        return self._code(prod[:d])

    def pow(self, a: int, n: int) -> int:
        """a^n by square-and-multiply; 0^0 = 1, and a negative power of a
        unit is a power of its inverse."""
        if a == 0:
            if n < 0:
                raise ZeroArgument("negative power of zero")
            return int(n == 0)
        n %= self.order - 1
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroArgument("inverse of zero")
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.q)

    def norm(self, a: int) -> int:
        return self.pow(a, self.q + 1)

    def in_base(self, a: int) -> bool:
        return self.frobenius(a) == a


def node_products(F: FieldSpec, nodes) -> list[int]:
    """u_i = prod_{l != i} (a_i - a_l), one scalar op at a time."""
    S = ScalarField(F)
    out = []
    for i, a in enumerate(nodes):
        u = 1
        for l, b in enumerate(nodes):
            if l != i:
                u = S.mul(u, S.sub(a, b))
        out.append(u)
    return out


def divided_differences(F: FieldSpec, nodes, rows) -> list[list[int]]:
    """The Newton recursion, one scalar field op at a time: all n
    coefficients of the interpolant through (nodes[i], row[i]), per row."""
    S = ScalarField(F)
    n = len(nodes)
    inverses: dict[tuple[int, int], int] = {}
    out = []
    for row in rows:
        dd = [int(v) for v in row]
        for t in range(1, n):
            for i in range(n - 1, t - 1, -1):
                den = inverses.get((i, t))
                if den is None:
                    den = inverses[i, t] = S.inv(S.sub(nodes[i], nodes[i - t]))
                dd[i] = S.mul(S.sub(dd[i], dd[i - 1]), den)
        out.append(dd)
    return out


def family_cells(q: int, n_max: int | None = None) -> list[Params]:
    """iter_family_params by each family's own r range, from its hypotheses:
    1 < r < min(q, h); odd r in [3, h); r < h shared by families 3 and 4;
    r in [1, h]."""
    def _try(family: int, h: int, r: int) -> Params | None:
        try:
            probe = validate(family, q, h, r, 1)
        except ParamsRejected:
            return None
        if n_max is not None and probe.n > n_max:
            return None
        return replace(probe, k=probe.k_max)

    up = [d for d in range(1, q + 2) if (q + 1) % d == 0]
    down = [d for d in range(1, q) if (q - 1) % d == 0]
    tries = ([(1, h, r) for h in up for r in range(2, min(q, h))]
             + [(2, h, r) for h in up for r in range(3, h, 2)]
             + [((3, 4), h, r) for h in down for r in range(1, h)]
             + [(5, h, r) for h in down for r in range(1, h + 1)])
    out = []
    for family, h, r in tries:
        p = (_try(3, h, r) or _try(4, h, r)) if family == (3, 4) else _try(family, h, r)
        if p:
            out.append(p)
    return out


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
    S = ScalarField(F)
    n = len(locators)
    exps = [F.q * i + j for i in range(k) for j in range(k)]
    powers = [[S.pow(a, e) for a in locators] for e in exps]
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
                acc = S.add(acc, S.mul(yi, pi))
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


def scan_min_distance_exhaustive(spec: GrsSpec, *, chunk: int = 8192) -> MdsReport:
    """Walk every projective message, check no codeword has weight < n-k+1.

    Weights are invariant under scaling the message, so only representatives
    with first nonzero coordinate equal to 1 are enumerated.
    """
    n, k = spec.n, spec.k
    F = spec.field
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
            words = G[lead]     # the lead coordinate is 1
            for t in range(lead + 1, k):
                words = F.vadd(words, F.vmul(msgs[:, t, None], G[t]))
            words = np.broadcast_to(words, (count, n))
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
