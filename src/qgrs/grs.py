"""Generalized Reed-Solomon codes and Hermitian self-orthogonality.

A code here is a :class:`GrsSpec`: evaluation points (locators), column
multipliers, and a dimension k.  Being MDS is automatic for distinct
locators and nonzero multipliers; what the constructions fight for is
containment in the Hermitian dual, and that is checked by two genuinely
different routes:

1. :func:`hermitian_gram` — the k x k array of Hermitian inner products of
   generator rows, which must vanish identically.
2. :func:`dual_containment_check` — an interpolation argument: for each
   monomial, the vector of weighted conjugate evaluations must interpolate
   to a polynomial of degree <= n-k-1.

The two routes share no intermediate results, and the verifier insists both
agree before certifying anything.  The generator and gram matrices are plain
int64 code arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any

import numpy as np

from . import bulk
from .errors import brief
from .field import FieldSpec


@dataclass(frozen=True)
class GrsSpec:
    """Evaluation code data: locators a_i, multipliers v_i (int codes), and
    the dimension k."""

    field: FieldSpec
    locators: tuple[int, ...]
    multipliers: tuple[int, ...]
    k: int
    provenance: dict[str, Any] | None = dc_field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.locators)
        if len(self.multipliers) != n:
            raise ValueError("locators and multipliers must have equal length")
        if n == 0:
            raise ValueError("empty code")
        if not 1 <= self.k <= n:
            raise ValueError(f"k = {brief(self.k)} outside [1, n = {n}]")
        order = self.field.order
        for x in self.locators + self.multipliers:
            if type(x) is not int or not 0 <= x < order:
                raise ValueError(f"{brief(x)} is not a code of GF({order})")
        if len(set(self.locators)) != n:
            raise ValueError("locators must be distinct")
        if 0 in self.multipliers:
            raise ValueError("multipliers must be nonzero")

    @property
    def n(self) -> int:
        return len(self.locators)


def generator_matrix(spec: GrsSpec) -> np.ndarray:
    """(k, n) int64 code array with rows (v_i * a_i^j), j = 0..k-1; 0^0 = 1."""
    F = spec.field
    powers = bulk.power_codes(F, spec.locators, np.arange(spec.k))
    return F.vmul(powers, np.array(spec.multipliers, dtype=np.int64))


def hermitian_gram(spec: GrsSpec) -> np.ndarray:
    """(k, k) int64 code array G[i][j] = sum_l (v_l a_l^j) (v_l a_l^i)^q.

    Expanded: sum_l norm(v_l) * a_l^(q*i) * a_l^j; computed directly from
    that expansion (route 1 — no interpolation machinery involved), as one
    field matrix product of the k x n tables norm(v) a^(q*i) and a^j.
    """
    F = spec.field
    k, q = spec.k, F.q
    a = np.array(spec.locators, dtype=np.int64)
    norms = F.vpow(np.array(spec.multipliers, dtype=np.int64), q + 1)
    conj = F.vmul(bulk.power_codes(F, a, q * np.arange(k)), norms)   # (k, n)
    return F.vdot(conj, bulk.power_codes(F, a, np.arange(k)).T)


def lagrange_weights(F: FieldSpec, locators) -> np.ndarray:
    """u_i = prod_{j != i} (a_i - a_j)  (the node products, not inverted),
    as an array of codes, from slices of at most bulk._BATCH_ENTRIES // n
    rows (at least one) of the difference matrix, with 1 on its diagonal."""
    a = np.array(locators, dtype=np.int64)
    n = len(a)
    step = max(1, bulk._BATCH_ENTRIES // n)
    out = np.empty(n, dtype=np.int64)
    for lo in range(0, n, step):
        diffs = F.vsub(a[lo:lo + step, None], a[None, :])
        # row i of the slice meets the diagonal at column lo + i
        diffs.reshape(-1)[lo::n + 1] = 1
        out[lo:lo + len(diffs)] = F.vprod(diffs, axis=1)
    return out


def dual_containment_check(spec: GrsSpec) -> tuple[bool, int | None]:
    """Route 2: interpolation criterion for containment in the Hermitian dual.

    For each monomial power j < k the values u_i * norm(v_i) * a_i^(q*j),
    u_i the node products, must interpolate (through the locators) to
    degree <= n-k-1: their k Newton coefficients of order >= n-k must all
    vanish.  :func:`bulk.newton_coefficients` takes norm(v_i) * a_i^(q*j)
    and supplies the u_i itself, where they cancel against the divided
    differences' denominators.

    Returns (ok, first failing j).
    """
    F = spec.field
    k, q = spec.k, F.q
    norms = F.vpow(np.array(spec.multipliers, dtype=np.int64), q + 1)
    conj_pows = bulk.power_codes(F, spec.locators, q * np.arange(k))   # (k, n)
    values = F.vmul(conj_pows, norms)
    top = bulk.newton_coefficients(F, spec.locators, values, k)       # (k, k)
    bad = np.flatnonzero(top.any(axis=1))
    if bad.size:
        return False, int(bad[0])
    return True, None


def singleton_distance(n: int, k: int) -> int:
    """The MDS distance n - k + 1."""
    return n - k + 1
