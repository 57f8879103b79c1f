"""Structured linear solvers used by the code constructions.

Three routes, each with its own hypotheses, each verified before *and*
after solving — a wrong answer here silently poisons everything downstream,
so every function re-checks its own output instead of trusting algebra.

* :func:`solve_projective_unique` — for an (r-1) x r system whose every
  column-deletion is invertible and which is row-equivalent to its
  entrywise q-th power.  The kernel is then one-dimensional, spanned by a
  totally nonzero vector, and a unit scaling lands it in the base subfield.

* :func:`solve_all_nonzero` — for a wider system where only equality of
  rank under column deletions is known.  A counting argument guarantees a
  totally nonzero kernel vector exists (over a field larger than the column
  count); we find one by deterministic search.

* :func:`descend_to_base` — turns a totally nonzero kernel vector over
  GF(q^2) of a conjugation-stable system into one with all coordinates in
  the base subfield, by scanning the q+1 unit shifts.
"""
from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import (
    ColumnDependence,
    FrobeniusHypothesisFailed,
    HasZeroCoordinate,
    HypothesisFailed,
    NoValidShift,
    NotASolution,
    NotFound,
    WrongShape,
)
from .field import Felt, FieldSpec, TABLE_ORDER_LIMIT
from .matrix import FMatrix

EXHAUST_LIMIT = 200_000
SAMPLE_BUDGET = 2_000_000
_SAMPLE_SEED = 0x5EED
_SAMPLE_BATCH = 4096
_SPAN_BLOCK = 128


def _check_solution(A: FMatrix, codes: Sequence[int]) -> None:
    if any(c == 0 for c in codes):
        raise HasZeroCoordinate("solution has a zero coordinate")
    if any(A.mul_vec(codes)):
        raise NotASolution("candidate does not satisfy the system")


def solve_projective_unique(A: FMatrix) -> tuple[Felt, ...]:
    """Unique-kernel route: returns the base-subfield representative.

    Requires shape (r-1, r), every column-deletion invertible, and
    row-equivalence of A with its entrywise q-th power.  The result is the
    (projectively unique) kernel vector scaled into (F_q^*)^r, smallest
    unit-shift exponent first.
    """
    F = A.field
    r = A.ncols
    if A.nrows != r - 1:
        raise WrongShape(f"need (r-1) x r, got {A.nrows} x {A.ncols}")
    for i in range(r):
        if A.delete_column(i).rank() != r - 1:
            raise ColumnDependence(f"columns other than {i} are dependent")
    if not A.row_equivalent(A.entrywise_frobenius()):
        raise FrobeniusHypothesisFailed("A is not row-equivalent to A^(q)")
    ns = A.nullspace()
    if len(ns) != 1:  # pragma: no cover - column independence forces this
        raise HypothesisFailed(f"kernel dimension {len(ns)} != 1")
    c = ns[0]
    if any(x == 0 for x in c):
        raise HasZeroCoordinate("kernel vector has a zero coordinate")
    # c^(q) is again in the kernel, hence proportional to c
    cq = tuple(F.frobenius_code(x) for x in c)
    lam = F.div_codes(cq[0], c[0])
    for a, b in zip(cq, c):
        if F.div_codes(a, b) != lam:
            raise FrobeniusHypothesisFailed("conjugate kernel vector not proportional")
    n_units = F.order - 1
    llam = F.dlog_code(lam)
    if llam % (F.q - 1) != 0:  # lam^(q+1) = 1 makes this impossible
        raise NoValidShift("conjugation ratio is not a (q-1)-th power")
    assert F.pow_code(lam, F.q + 1) == 1
    # want mu = g^j with mu^(q-1) * lam = 1:  (q-1) j = -dlog(lam)  (mod q^2-1)
    j = (-(llam // (F.q - 1))) % (F.q + 1)
    mu = F.pow_code(F._gen_code(), j)
    out = tuple(F.mul_codes(mu, x) for x in c)
    if not all(F.in_base_code(x) for x in out):  # pragma: no cover
        raise NoValidShift("normalized vector escaped the base subfield")
    _check_solution(A, out)
    return tuple(Felt(x, F) for x in out)


# ---------------------------------------------------------------------------
# all-nonzero kernel search
# ---------------------------------------------------------------------------


def _np_combine(F: FieldSpec, coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    mul, add = F.np_mul.ravel(), F.np_add.ravel()
    order = F.order
    acc = np.zeros((coeffs.shape[0], basis.shape[1]), dtype=np.int32)
    for d in range(basis.shape[0]):
        acc = add[acc * order + mul[coeffs[:, d, None] * order + basis[d]]]
    return acc


def _combine(F: FieldSpec, coeffs: Sequence[int], basis: Sequence[Sequence[int]]) -> tuple[int, ...]:
    n = len(basis[0])
    acc = [0] * n
    for t, row in zip(coeffs, basis):
        if t == 0:
            continue
        for i in range(n):
            if row[i]:
                acc[i] = F.add_codes(acc[i], F.mul_codes(t, row[i]))
    return tuple(acc)


def all_nonzero_in_span(F: FieldSpec, basis: Sequence[Sequence[int]],
                        scalar_codes: Sequence[int], *,
                        exhaust_limit: int = EXHAUST_LIMIT,
                        sample_budget: int = SAMPLE_BUDGET,
                        seed: int = _SAMPLE_SEED) -> tuple[int, ...] | None:
    """Deterministic search for a totally nonzero vector in a span.

    ``basis`` rows are code vectors; coefficients are drawn from
    ``scalar_codes``.  Cheap structured candidates first, then exhaustive
    enumeration when the coefficient space is small, then seeded (hence
    reproducible) batch sampling.  Each sampled batch is scanned block by
    block of _SPAN_BLOCK rows in draw order, so the first totally nonzero
    combination drawn is returned without evaluating the rest of its batch.
    Returns None when the budget runs out.
    """
    dim = len(basis)
    if dim == 0:
        return None
    scalars = sorted(set(int(s) for s in scalar_codes))
    # structured candidates: the basis sum, then each basis vector
    for cand_coeffs in [(1,) * dim] + [tuple(1 if i == d else 0 for i in range(dim))
                                       for d in range(dim)]:
        x = _combine(F, cand_coeffs, basis)
        if all(x):
            return x
    space = len(scalars) ** dim
    if space <= exhaust_limit:
        for coeffs in itertools.product(scalars, repeat=dim):
            if not any(coeffs):
                continue
            x = _combine(F, coeffs, basis)
            if all(x):
                return x
        return None
    # sampling; numpy-amenable fields get the fast path
    if F.order <= TABLE_ORDER_LIMIT:
        rng = np.random.default_rng(seed)
        B = np.array([list(r) for r in basis], dtype=np.int32)
        sc = np.array(scalars, dtype=np.int32)
        drawn = 0
        while drawn < sample_budget:
            batch = min(_SAMPLE_BATCH, sample_budget - drawn)
            T = sc[rng.integers(0, len(sc), size=(batch, dim))]
            for lo in range(0, batch, _SPAN_BLOCK):
                X = _np_combine(F, T[lo:lo + _SPAN_BLOCK], B)
                hits = np.flatnonzero((X != 0).all(axis=1))
                if hits.size:
                    return tuple(int(v) for v in X[hits[0]])
            drawn += batch
        return None
    import random as _random  # pure-python fallback for huge fields

    rng2 = _random.Random(seed)
    for _ in range(sample_budget // max(1, len(basis[0]))):
        coeffs = [scalars[rng2.randrange(len(scalars))] for _ in range(dim)]
        x = _combine(F, coeffs, basis)
        if all(x):
            return x
    return None


def solve_all_nonzero(A: FMatrix, *, exhaust_limit: int = EXHAUST_LIMIT,
                      sample_budget: int = SAMPLE_BUDGET) -> tuple[Felt, ...]:
    """Counting route: a totally nonzero kernel vector over the full field.

    Hypotheses: deleting any single column leaves the rank unchanged, and
    the field has more elements than there are columns (that is what makes
    the counting argument positive).
    """
    F = A.field
    n = A.ncols
    if F.order <= n:
        raise HypothesisFailed(f"field order {F.order} must exceed ncols {n}")
    base_rank = A.rank()
    for i in range(n):
        if A.delete_column(i).rank() != base_rank:
            raise HypothesisFailed(f"rank drops when deleting column {i}")
    ns = A.nullspace()
    if not ns:
        raise HypothesisFailed("trivial kernel")  # pragma: no cover - rank check implies
    x = all_nonzero_in_span(F, ns, list(range(F.order)),
                            exhaust_limit=exhaust_limit, sample_budget=sample_budget)
    if x is None:
        raise NotFound("no totally nonzero kernel vector found within budget")
    _check_solution(A, x)
    return tuple(Felt(c, F) for c in x)


def descend_to_base(A: FMatrix, c: Sequence[Felt]) -> tuple[Felt, ...]:
    """Turn a totally nonzero kernel vector into a base-subfield one.

    Scans shifts g^j, j = 1..q+1: the combination g^j c + (g^j c)^(q)
    (coordinatewise conjugation) is Frobenius-fixed and still in the kernel
    when A is row-equivalent to A^(q); the first shift making it totally
    nonzero wins.  Works whenever the vector is shorter than q+1.
    """
    F = A.field
    codes = [x.code for x in c]
    if len(codes) != A.ncols:
        raise WrongShape("vector length mismatch")
    if any(x == 0 for x in codes):
        raise HasZeroCoordinate("input vector has a zero coordinate")
    if any(A.mul_vec(codes)):
        raise NotASolution("input vector is not in the kernel")
    if not A.row_equivalent(A.entrywise_frobenius()):
        raise FrobeniusHypothesisFailed("A is not row-equivalent to A^(q)")
    q = F.q
    g = F._gen_code()
    cq = [F.frobenius_code(x) for x in codes]
    for j in range(1, q + 2):
        wj = F.pow_code(g, j)
        wjq = F.frobenius_code(wj)
        b = [F.add_codes(F.mul_codes(wj, x), F.mul_codes(wjq, xq))
             for x, xq in zip(codes, cq)]
        if all(b):
            if not all(F.in_base_code(x) for x in b):  # pragma: no cover
                raise NoValidShift("shifted vector escaped the base subfield")
            _check_solution(A, b)
            return tuple(Felt(x, F) for x in b)
    raise NoValidShift(f"no shift among 1..{q + 1} gives a totally nonzero vector")
