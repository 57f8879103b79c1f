"""Brute-force existence oracle for Hermitian self-orthogonal multipliers.

Test-only: the constructions never call it.  The tests use it as an
independent check on small instances.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from qgrs.field import FieldSpec


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
