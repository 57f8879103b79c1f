"""Generalized Reed-Solomon codes and Hermitian self-orthogonality.

A code here is a :class:`GrsSpec`: evaluation points (locators), column
multipliers, and a dimension k.  Being MDS is automatic for distinct
locators and nonzero multipliers; what the constructions fight for is
containment in the Hermitian dual, and that is checked by two genuinely
different routes:

1. :func:`hermitian_gram` — the k x k matrix of Hermitian inner products of
   generator rows, which must vanish identically.
2. :func:`dual_containment_check` — an interpolation argument: for each
   monomial, the vector of weighted conjugate evaluations must interpolate
   to a polynomial of degree <= n-k-1.

The two routes share no intermediate results, and the verifier insists both
agree before certifying anything.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any

import numpy as np

from . import bulk
from .field import Felt, FieldSpec
from .matrix import FMatrix


@dataclass(frozen=True)
class GrsSpec:
    """Evaluation code data: locators a_i, multipliers v_i, dimension k."""

    field: FieldSpec
    locators: tuple[Felt, ...]
    multipliers: tuple[Felt, ...]
    k: int
    provenance: dict[str, Any] | None = dc_field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.locators)
        if len(self.multipliers) != n:
            raise ValueError("locators and multipliers must have equal length")
        if n == 0:
            raise ValueError("empty code")
        if not 1 <= self.k <= n:
            raise ValueError(f"k = {self.k} outside [1, n = {n}]")
        for x in self.locators + self.multipliers:
            if x.field is not self.field:
                raise ValueError("mixed fields")
        if len({x.code for x in self.locators}) != n:
            raise ValueError("locators must be distinct")
        if any(v.is_zero for v in self.multipliers):
            raise ValueError("multipliers must be nonzero")

    @property
    def n(self) -> int:
        return len(self.locators)

    def locator_codes(self) -> list[int]:
        return [x.code for x in self.locators]

    def multiplier_codes(self) -> list[int]:
        return [x.code for x in self.multipliers]


def generator_matrix(spec: GrsSpec) -> FMatrix:
    """k x n matrix with rows (v_i * a_i^j), j = 0..k-1; 0^0 = 1."""
    F = spec.field
    a = np.array(spec.locator_codes(), dtype=np.int64)
    v = np.array(spec.multiplier_codes(), dtype=np.int64)
    powers = bulk.power_codes(F, a, np.arange(spec.k))
    rows = bulk.scale_rows(F, powers, v)
    return FMatrix(F, rows.tolist(), ncols=spec.n)


def hermitian_gram(spec: GrsSpec) -> FMatrix:
    """Gram matrix G[i][j] = sum_l (v_l a_l^j) (v_l a_l^i)^q.

    Expanded: sum_l norm(v_l) * a_l^(q*i + j); computed directly from that
    expansion (route 1 — no interpolation machinery involved).
    """
    F = spec.field
    k, q = spec.k, F.q
    a = np.array(spec.locator_codes(), dtype=np.int64)
    norms = np.array([F.norm_code(v) for v in spec.multiplier_codes()], dtype=np.int64)
    exps = np.array([q * i + j for i in range(k) for j in range(k)], dtype=np.int64)
    terms = bulk.power_codes(F, a, exps)          # (k*k, n)
    terms = bulk.scale_rows(F, terms, norms)
    sums = bulk.digit_sum(F, terms, axis=1)       # (k*k,)
    rows = [[int(sums[i * k + j]) for j in range(k)] for i in range(k)]
    return FMatrix(F, rows, ncols=k)


def is_hermitian_self_orthogonal(spec: GrsSpec) -> bool:
    return hermitian_gram(spec).is_zero()


def lagrange_weights(locators: tuple[Felt, ...]) -> tuple[Felt, ...]:
    """u_i = prod_{j != i} (a_i - a_j)  (the node products, not inverted)."""
    F = locators[0].field
    codes = [x.code for x in locators]
    out = []
    for i, ai in enumerate(codes):
        acc = 1
        for j, aj in enumerate(codes):
            if j != i:
                acc = F.mul_codes(acc, F.sub_codes(ai, aj))
        out.append(Felt(acc, F))
    return tuple(out)


def dual_containment_check(spec: GrsSpec) -> tuple[bool, int | None]:
    """Route 2: interpolation criterion for containment in the Hermitian dual.

    For each monomial power j < k the values u_i * norm(v_i) * a_i^(q*j)
    must interpolate (through the locators) to degree <= n-k-1.  Newton
    divided differences give the degree bound directly: the triangular-basis
    coefficients of order >= n-k must all vanish.

    Returns (ok, first failing j).
    """
    F = spec.field
    n, k, q = spec.n, spec.k, F.q
    a_codes = spec.locator_codes()
    u = [x.code for x in lagrange_weights(spec.locators)]
    norms = [F.norm_code(v) for v in spec.multiplier_codes()]
    a = np.array(a_codes, dtype=np.int64)
    conj_exps = np.array([q * j for j in range(k)], dtype=np.int64)
    conj_pows = bulk.power_codes(F, a, conj_exps)       # (k, n)
    weights = np.array([F.mul_codes(ui, yi) for ui, yi in zip(u, norms)], dtype=np.int64)
    values = bulk.scale_rows(F, conj_pows, weights)
    dd = bulk.newton_coefficients(F, a_codes, values)   # (k, n)
    top = dd[:, n - k:] if k > 0 else dd[:, :0]
    bad = np.flatnonzero((top != 0).any(axis=1))
    if bad.size:
        return False, int(bad[0])
    return True, None


def singleton_distance(n: int, k: int) -> int:
    """The MDS distance n - k + 1."""
    return n - k + 1
