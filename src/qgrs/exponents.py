"""Closed forms for exponent-divisibility windows.

Each code construction reduces Hermitian self-orthogonality to a short list
of linear conditions, indexed by the multiples of a divisor m of q^2 - 1
that occur among the values q*i + j + offset for 0 <= i, j < k.  For four
parameterized families the exact set of quotients (q*i + j + offset) / m
admits a closed form, provided k sits at the family's maximum; for smaller
k the realized set only shrinks, so systems built from the closed form stay
sufficient.

Everything here is plain integer arithmetic — no field is involved — and the
closed forms are pinned against exhaustive enumeration (``tests/oracle.py``)
in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidScenario


class ScenarioKind(Enum):
    #: h = 2s divides q+1, no offset
    EVEN = "even"
    #: h = 2s+1 divides q+1, no offset
    ODD = "odd"
    #: h = 2s divides q+1, offset q+1 - (q+1)/h
    SHIFTED_EVEN = "shifted_even"
    #: h = 2s divides q-1, offset (q+1)/2
    HALF_SHIFT = "half_shift"


@dataclass(frozen=True)
class Scenario:
    kind: ScenarioKind
    q: int
    s: int
    t: int

    def __post_init__(self) -> None:
        q, s, t = self.q, self.s, self.t
        if q < 2:
            raise InvalidScenario(f"q = {q} < 2")
        if s < 1:
            raise InvalidScenario(f"s = {s} < 1")
        k = self.kind
        if k in (ScenarioKind.EVEN, ScenarioKind.ODD, ScenarioKind.SHIFTED_EVEN):
            if (q + 1) % self.h != 0:
                raise InvalidScenario(f"h = {self.h} does not divide q+1 = {q + 1}")
        else:
            if (q - 1) % self.h != 0:
                raise InvalidScenario(f"h = {self.h} does not divide q-1 = {q - 1}")
        if k in (ScenarioKind.EVEN, ScenarioKind.SHIFTED_EVEN):
            if not 0 <= t <= s - 2:
                raise InvalidScenario(f"t = {t} outside [0, s-2] = [0, {s - 2}]")
        elif k is ScenarioKind.ODD:
            if not 0 <= t <= s - 1:
                raise InvalidScenario(f"t = {t} outside [0, s-1] = [0, {s - 1}]")
        else:  # HALF_SHIFT
            if not 1 <= t <= s:
                raise InvalidScenario(f"t = {t} outside [1, s] = [1, {s}]")
        if self.k_max < 1:  # pragma: no cover - ruled out by the ranges above
            raise InvalidScenario("empty k range")

    # -- derived parameters ---------------------------------------------------

    @property
    def h(self) -> int:
        if self.kind is ScenarioKind.ODD:
            return 2 * self.s + 1
        return 2 * self.s

    @property
    def m(self) -> int:
        return (self.q * self.q - 1) // self.h

    @property
    def offset(self) -> int:
        if self.kind is ScenarioKind.SHIFTED_EVEN:
            return self.q + 1 - (self.q + 1) // self.h
        if self.kind is ScenarioKind.HALF_SHIFT:
            return (self.q + 1) // 2
        return 0

    @property
    def k_max(self) -> int:
        q, s, t = self.q, self.s, self.t
        if self.kind is ScenarioKind.EVEN:
            return (s + t + 1) * (q + 1) // (2 * s) - 1
        if self.kind is ScenarioKind.ODD:
            return (s + t + 1) * (q + 1) // (2 * s + 1) - 1
        if self.kind is ScenarioKind.SHIFTED_EVEN:
            return (s + t + 2) * (q + 1) // (2 * s) - 2
        return (s + t) * (q - 1) // (2 * s)

    @property
    def quotients(self) -> frozenset[int]:
        """Closed-form quotient set at k = k_max (empty ranges allowed)."""
        s, t = self.s, self.t
        if self.kind is ScenarioKind.EVEN:
            return frozenset({0} | set(range(s - t, s + t + 1)))
        if self.kind is ScenarioKind.ODD:
            return frozenset({0} | set(range(s - t + 1, s + t + 1)))
        if self.kind is ScenarioKind.SHIFTED_EVEN:
            return frozenset(range(s - t, s + t + 2))
        return frozenset(set(range(1, t)) | set(range(s + 1, s + t)))
