"""Exponent-window tests: closed forms against exhaustive enumeration."""
from __future__ import annotations

import pytest

from qgrs.errors import InvalidScenario
from qgrs.exponents import Scenario, ScenarioKind

from oracle import all_valid_scenarios, enumerate_quotients


def test_frozen_spot_checks():
    # hand-enumerated instances, one per kind
    sc = Scenario(ScenarioKind.EVEN, q=7, s=4, t=0)
    assert (sc.m, sc.offset, sc.k_max) == (6, 0, 4)
    assert sc.quotients == {0, 4}

    sc = Scenario(ScenarioKind.ODD, q=4, s=2, t=1)
    assert (sc.m, sc.offset, sc.k_max) == (3, 0, 3)
    assert sc.quotients == {0, 2, 3}

    sc = Scenario(ScenarioKind.SHIFTED_EVEN, q=5, s=3, t=0)
    assert (sc.m, sc.offset, sc.k_max) == (4, 5, 3)
    assert sc.quotients == {3, 4}

    sc = Scenario(ScenarioKind.HALF_SHIFT, q=5, s=2, t=2)
    assert (sc.m, sc.offset, sc.k_max) == (6, 3, 4)
    assert sc.quotients == {1, 3}

    sc = Scenario(ScenarioKind.HALF_SHIFT, q=5, s=2, t=1)
    assert sc.quotients == frozenset()


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_closed_form_matches_enumeration_up_to_q17(kind):
    checked = 0
    for q in range(2, 18):
        for sc in all_valid_scenarios(kind, q):
            got = enumerate_quotients(sc.q, sc.m, sc.offset, sc.k_max)
            assert got == sc.quotients, (
                f"{kind} q={q} s={sc.s} t={sc.t}: {sorted(got)} != {sorted(sc.quotients)}")
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_smaller_k_only_shrinks_the_window(kind):
    for q in range(2, 14):
        for sc in all_valid_scenarios(kind, q):
            full = sc.quotients
            for k in range(1, sc.k_max):
                sub = enumerate_quotients(sc.q, sc.m, sc.offset, k)
                assert sub <= full


def test_validation_rejections():
    with pytest.raises(InvalidScenario):
        Scenario(ScenarioKind.EVEN, q=7, s=4, t=3)  # t > s-2
    with pytest.raises(InvalidScenario):
        Scenario(ScenarioKind.EVEN, q=7, s=3, t=0)  # 6 does not divide 8
    with pytest.raises(InvalidScenario):
        Scenario(ScenarioKind.ODD, q=7, s=2, t=2)  # t > s-1
    with pytest.raises(InvalidScenario):
        Scenario(ScenarioKind.HALF_SHIFT, q=7, s=3, t=0)  # t < 1
    with pytest.raises(InvalidScenario):
        Scenario(ScenarioKind.HALF_SHIFT, q=8, s=2, t=1)  # 4 does not divide 7
    with pytest.raises(InvalidScenario):
        Scenario(ScenarioKind.EVEN, q=1, s=1, t=0)


def test_divisor_relations():
    sc = Scenario(ScenarioKind.EVEN, q=9, s=5, t=1)
    assert sc.h == 10
    assert sc.m * sc.h == sc.q ** 2 - 1
    sc = Scenario(ScenarioKind.ODD, q=9, s=2, t=0)
    assert sc.h == 5
    assert sc.m * sc.h == 80
