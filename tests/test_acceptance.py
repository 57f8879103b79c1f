"""Acceptance suite: eight go/no-go criteria, one test (and one printed
verdict line) per criterion.

Run as `pytest tests/test_acceptance.py -v` for the per-criterion verdict,
add `-s` to see the summary lines inline.  The whole file is designed to
stay under five minutes single-threaded; the parameter sweep behind
criteria 1/4/5/7/8 is computed once and shared.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

import pytest

from qgrs.constructions import (
    construct,
    iter_family_params,
    propagate,
    to_quantum,
)
from qgrs.errors import QgrsError
from qgrs.exponents import ScenarioKind
from qgrs.field import field_for_q
from qgrs.grs import GrsSpec, dual_containment_check, hermitian_gram
from qgrs.matrix import FMatrix
from qgrs.solver import descend_to_base, solve_all_nonzero
from qgrs.verifier import certify

from oracle import ScalarField, all_valid_scenarios, enumerate_quotients

SWEEP_QS = (3, 4, 5, 7, 8, 9, 11, 13)
SWEEP_N_MAX = 64
SWEEP_MINOR_BUDGET = 2_000_000
SWEEP_WORD_BUDGET = 2_000_000


@dataclass(frozen=True)
class SweepRecord:
    family: int
    q: int
    h: int
    r: int
    k: int
    k_max: int
    spec: GrsSpec
    cert: object
    quantum: object


@pytest.fixture(scope="module")
def sweep():
    """Every validate()-accepted tuple in scope, constructed and certified."""
    t0 = time.time()
    records = []
    for q in SWEEP_QS:
        for cell in iter_family_params(q, n_max=SWEEP_N_MAX):
            for k in range(1, cell.k_max + 1):
                spec = construct(cell.family, q, cell.h, cell.r, k)
                cert = certify(spec, minor_budget=SWEEP_MINOR_BUDGET,
                               word_budget=SWEEP_WORD_BUDGET)
                qp = to_quantum(spec, cert) if (cert.herm_ok and cert.mds_ok) \
                    else None
                records.append(SweepRecord(cell.family, q, cell.h, cell.r,
                                           k, cell.k_max, spec, cert, qp))
    elapsed = time.time() - t0
    assert elapsed < 300, f"sweep took {elapsed:.0f}s, budget is 300s"
    return records, elapsed


def test_criterion_1_construction_soundness(sweep):
    records, elapsed = sweep
    bad = []
    for rec in records:
        if not (rec.cert.herm_gram_ok and rec.cert.herm_interp_ok
                and rec.cert.mds_ok):
            bad.append(rec)
    families = {rec.family for rec in records}
    assert families == {1, 2, 3, 4, 5}
    assert not bad, f"{len(bad)} tuples failed: " + ", ".join(
        f"f{b.family} q={b.q} h={b.h} r={b.r} k={b.k}" for b in bad[:5])
    by_minors = sum(1 for r in records if r.cert.mds.method == "minors")
    print(f"\ncriterion 1 PASS: {len(records)} accepted tuples across "
          f"q∈{SWEEP_QS}, n≤{SWEEP_N_MAX}, all five families — gram zero, "
          f"dual routes agree, MDS verified ({by_minors} by literal minors, "
          f"{len(records) - by_minors} by the documented fallback ladder) "
          f"in {elapsed:.0f}s")


def test_criterion_2_named_instances():
    # ([[90,72,10]]_13 as printed is arithmetically unreachable for the
    # (r,h)=(3,4) shape at q=13: n = 3*(169-1)/4 = 126.  The derived
    # instance [[126,108,10]]_13 is pinned instead; see the build notes.)
    cases = [
        (1, (7, 8, 5, 5), "[[31,21,6]]_7", ""),
        (2, (5, 6, 5, 4), "[[20,12,5]]_5", ""),
        (3, (13, 12, 5, 11), "[[70,48,12]]_13", ""),
        (4, (7, 6, 4, 5), "[[32,22,6]]_7", ""),
        (4, (13, 4, 3, 9), "[[126,108,10]]_13",
         " (derived; the printed [[90,72,10]]_13 is unreachable)"),
        (5, (8, 7, 3, 3), "[[27,21,4]]_8", ""),
    ]
    lines = []
    for family, args, expected, note in cases:
        spec = construct(family, *args)
        cert = certify(spec)
        assert cert.herm_ok and cert.mds_ok, (family, args, cert.mds)
        qp = to_quantum(spec, cert)
        assert str(qp) == expected, (str(qp), expected)
        lines.append(f"{expected}{note}")
    print("\ncriterion 2 PASS: " + "; ".join(lines))


def test_criterion_3_exponent_closed_forms():
    t0 = time.time()
    checked = 0
    for q in range(2, 51):
        for kind in ScenarioKind:
            for sc in all_valid_scenarios(kind, q):
                predicted = set(sc.quotients)
                brute = set(enumerate_quotients(q, sc.m, sc.offset, sc.k_max))
                assert predicted == brute, (kind, q, sc.s, sc.t)
                # and at every smaller k the brute set only shrinks within it
                mid = max(1, sc.k_max // 2)
                assert set(enumerate_quotients(q, sc.m, sc.offset, mid)) \
                    <= predicted
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"{elapsed:.0f}s > 60s"
    print(f"\ncriterion 3 PASS: closed-form quotient sets equal exhaustive "
          f"enumeration for all {checked} valid scenarios with q ≤ 50 "
          f"({elapsed:.1f}s)")


def test_criterion_4_quantum_singleton_equality(sweep):
    records, _ = sweep
    count = 0
    for rec in records:
        qp = rec.quantum
        assert qp is not None
        assert 2 * qp.d == qp.n - qp.k + 2, rec
        assert qp.is_length_maximal
        count += 1
    print(f"\ncriterion 4 PASS: 2d = n - k + 2 on all {count} emitted "
          f"parameter sets")


def test_criterion_5_headline_distance_per_family(sweep):
    records, _ = sweep
    witnesses = {}
    attained = {}
    for rec in records:
        qp = rec.quantum
        if qp is None:
            continue
        if qp.d > rec.q / 2 + 1:
            best = witnesses.get(rec.family)
            key = (qp.k > 0, qp.d - rec.q / 2, qp.k)
            if best is None or key > best[0]:
                witnesses[rec.family] = (key, f"f{rec.family}: {qp}")
        if rec.k == rec.k_max:
            attained[rec.family] = attained.get(rec.family, 0) + 1
    assert set(witnesses) == {1, 2, 3, 4, 5}, witnesses
    assert all(key[0] for key, _ in witnesses.values())  # k > 0 witnesses
    assert set(attained) == {1, 2, 3, 4, 5}
    witnesses = {f: line for f, (_, line) in witnesses.items()}
    print("\ncriterion 5 PASS: d > q/2 + 1 witnessed in-sweep by "
          + "; ".join(witnesses[f] for f in sorted(witnesses))
          + f"; k_max attained in {sum(attained.values())} cells")


def test_criterion_6_solver_descent_properties():
    rng = random.Random(0x1E33)
    done = 0
    for q, target in ((5, 100), (7, 200)):
        F = field_for_q(q)
        S = ScalarField(F)
        base_units = [c for c in F.base_codes() if c]
        while done < target:
            nrows = rng.randint(1, 4)
            ncols = nrows + rng.randint(1, 3)
            rows = [[base_units[rng.randrange(len(base_units))]
                     if rng.random() < 0.8 else 0
                     for _ in range(ncols)] for _ in range(nrows)]
            A = FMatrix(F, rows)
            try:
                x = descend_to_base(A, solve_all_nonzero(A))
            except QgrsError:
                continue  # no totally nonzero solution for this draw
            assert all(xi != 0 and S.in_base(xi) for xi in x)
            assert all(v == 0 for v in A.mul_vec(x))
            done += 1
    # the unique-kernel route is exercised by every family-2/3 build; its
    # internal projective-uniqueness assertions are what raises on violation
    unique_route_cells = 0
    for q in SWEEP_QS:
        for cell in iter_family_params(q, n_max=SWEEP_N_MAX):
            if cell.family in (2, 3):
                construct(cell.family, q, cell.h, cell.r, cell.k_max)
                unique_route_cells += 1
    assert unique_route_cells >= 20
    print(f"\ncriterion 6 PASS: 200 randomized descent instances over "
          f"GF(25)/GF(49) returned exact base-unit kernel vectors; "
          f"projective uniqueness asserted on {unique_route_cells} "
          f"construction systems")


def test_criterion_7_propagation_rule(sweep):
    records, _ = sweep
    count = 0
    for rec in records:
        if rec.family != 1 or rec.quantum is None:
            continue
        out = propagate(rec.quantum)
        m = (rec.q * rec.q - 1) // rec.h
        assert out.n == rec.r * m          # the shortened-length family
        assert out.n == rec.quantum.n - 1
        assert out.k == rec.quantum.k + 1
        assert out.d == rec.quantum.d - 1
        assert out.is_length_maximal       # Singleton equality survives
        count += 1
    assert count >= 30
    print(f"\ncriterion 7 PASS: propagation reproduces the shortened "
          f"[[r(q²-1)/h, ·, ·]] family with Singleton equality on all "
          f"{count} certified length-(rm+1) outputs")


def _mutate(rng, spec, same_norm):
    """Replace one multiplier with a random different unit.

    The gram entries see a multiplier only through its norm, so a
    same-norm replacement yields a genuinely still-self-orthogonal code;
    `same_norm` picks which side of that dichotomy to draw from.
    """
    F = spec.field
    S = ScalarField(F)
    i = rng.randrange(spec.n)
    old = spec.multipliers[i]
    old_norm = S.norm(old)
    candidates = [c for c in range(1, F.order)
                  if c != old and (S.norm(c) == old_norm) == same_norm]
    mutated = list(spec.multipliers)
    mutated[i] = candidates[rng.randrange(len(candidates))]
    return GrsSpec(F, spec.locators, tuple(mutated), spec.k)


def test_criterion_8_mutation_sensitivity(sweep):
    records, _ = sweep
    rng = random.Random(0xBEEF)
    pool = [rec for rec in records if rec.k >= 2][:50]
    assert len(pool) == 50
    flipped = 0
    for rec in pool:
        bad = _mutate(rng, rec.spec, same_norm=False)
        gram = hermitian_gram(bad)
        interp_ok, _ = dual_containment_check(bad)
        assert (not gram.any()) == interp_ok  # routes stay in agreement
        # gram[0, 0] = sum_l norm(v_l): a norm-changing mutation moves it
        assert gram[0, 0] != 0
        flipped += not interp_ok
    assert flipped == 50, f"only {flipped}/50 mutations detected"
    # ... and the blind spot is real, not a vacuous check: a same-norm
    # replacement leaves the code self-orthogonal and both routes say so
    still_ok = 0
    for rec in pool[:10]:
        ghost = _mutate(rng, rec.spec, same_norm=True)
        gram = hermitian_gram(ghost)
        interp_ok, _ = dual_containment_check(ghost)
        assert not gram.any() and interp_ok
        still_ok += 1
    print(f"\ncriterion 8 PASS: {flipped}/50 norm-changing multiplier "
          f"mutations flipped the hermitian verdict with a nonzero gram "
          f"entry; {still_ok}/10 norm-preserving mutations correctly "
          f"certified as still self-orthogonal")
