"""Structured linear solvers used by the code constructions.

Three routes, each with its own hypotheses, each verified before *and*
after solving — a wrong answer here silently poisons everything downstream,
so every function re-checks its own output instead of trusting algebra.

* :func:`solve_projective_unique` — for a system in r unknowns, of any
  number of rows, whose kernel is one line spanned by a totally nonzero
  vector and which is row-equivalent to its entrywise q-th power.  That
  line's basis vector is then base-valued: no unit scaling.

* :func:`solve_all_nonzero` — for a wider system whose kernel basis is
  nonzero somewhere in every column (so no column deletion drops the rank).
  A counting argument guarantees a totally nonzero kernel vector exists
  (over a field larger than the column count); we find one by deterministic
  search over one stream of candidate coefficient blocks.

* :func:`descend_to_base` — turns a totally nonzero kernel vector over
  GF(q^2) of a conjugation-stable system into one with all coordinates in
  the base subfield, by evaluating all q+1 unit shifts at once.

Row-equivalence with A^(q) is read from the rref(A) that FMatrix keeps:
Frobenius is an automorphism, so rref(A^(q)) = rref(A)^(q), and the
hypothesis says that every entry of rref(A) is in the base subfield.

Vectors are evaluated on the field's numpy ops (``FieldSpec.v*``), its
only arithmetic; no routine here loops over vector entries.
"""
from __future__ import annotations

import random
from typing import Iterator, Sequence

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
from .field import FieldSpec
from .matrix import FMatrix

EXHAUST_LIMIT = 200_000
SAMPLE_BUDGET = 2_000_000
_SAMPLE_SEED = 0x5EED
_SAMPLE_BATCH = 4096
_SPAN_BLOCK = 512
#: above this order the sampled search draws from random.Random, one
#: combination at a time.  That draw stream fixes the multipliers of every
#: q >= 67 construction, so moving those fields onto the numpy draws would
#: change their documents.
_NUMPY_DRAW_ORDER_LIMIT = 4096


def _check_solution(A: FMatrix, codes: Sequence[int]) -> tuple[int, ...]:
    """Check a candidate kernel vector and return it as a tuple of codes."""
    codes = tuple(int(c) for c in codes)
    if 0 in codes:
        raise HasZeroCoordinate("solution has a zero coordinate")
    if any(A.mul_vec(codes)):
        raise NotASolution("candidate does not satisfy the system")
    return codes


def _in_base(F: FieldSpec, codes: np.ndarray) -> bool:
    """Every entry is fixed by the q-power map."""
    return bool((F.vpow(codes, F.q) == codes).all())


def solve_projective_unique(A: FMatrix) -> tuple[int, ...]:
    """Unique-kernel route: returns the base-subfield representative.

    Requires the kernel of A to be one line spanned by a totally nonzero
    vector, and every entry of rref(A) in the base subfield (A row-equivalent
    to A^(q)).  Only the row space of A matters, so A may have any number
    of rows.  The result is the line's nullspace basis vector, unscaled.
    """
    ns = A.nullspace()
    if len(ns) != 1:
        raise ColumnDependence(f"kernel has dimension {len(ns)}, need 1")
    zero = np.flatnonzero(ns[0] == 0)
    if zero.size:
        raise ColumnDependence(f"columns other than {zero[0]} are dependent")
    if not _in_base(A.field, A.rref()[0].array):
        raise FrobeniusHypothesisFailed("A is not row-equivalent to A^(q)")
    return _check_solution(A, ns[0])


# ---------------------------------------------------------------------------
# all-nonzero kernel search
# ---------------------------------------------------------------------------


def all_nonzero_in_span(F: FieldSpec, basis: np.ndarray | Sequence[Sequence[int]],
                        scalar_codes: Sequence[int], *,
                        exhaust_limit: int = EXHAUST_LIMIT,
                        sample_budget: int = SAMPLE_BUDGET) -> tuple[int, ...] | None:
    """Deterministic search for a totally nonzero vector in a span.

    ``basis`` rows are code vectors; coefficients are drawn from
    ``scalar_codes``.  The candidates form one stream of coefficient blocks
    (:func:`_coefficient_blocks`): the basis sum and the unit vectors, then
    every combination in ``itertools.product`` order when the coefficient
    space is small, else seeded (hence reproducible) draws.  Each block is
    evaluated with one ``F.vdot`` and the first totally nonzero
    combination in stream order is returned.  Returns None when the stream
    runs out.

    A column whose only nonzero basis entry lies in row d is zero in every
    combination with coefficient 0 at d, so each block drops those rows
    before it is evaluated (a ``nullspace`` basis is the identity on its
    free columns, so every row is such a d there).  Dropping rows keeps the
    order of the rest, so the first hit is the same.  A basis with an
    all-zero column has no hit at all: None at once.
    """
    if len(basis) == 0:
        return None
    B = np.asarray(basis, dtype=np.int64)
    support = (B != 0).sum(axis=0)
    if not support.all():
        return None
    sole = np.flatnonzero((B[:, support == 1] != 0).any(axis=1))
    scalars = sorted(set(int(s) for s in scalar_codes))
    for T in _coefficient_blocks(F.order, scalars, *B.shape, exhaust_limit,
                                 sample_budget):
        T = T[(T[:, sole] != 0).all(axis=1)]
        if not len(T):
            continue
        X = F.vdot(T, B)
        hits = np.flatnonzero((X != 0).all(axis=1))
        if hits.size:
            return tuple(X[hits[0]].tolist())
    return None


def _coefficient_blocks(order: int, scalars: list[int], dim: int, n: int,
                        exhaust_limit: int, budget: int) -> Iterator[np.ndarray]:
    """The span search's candidate coefficients, in search order.

    1. the basis sum, then each unit vector; the sum gets a block of its
       own because it often hits, and the unit block costs dim times more;
    2. if at most ``exhaust_limit`` combinations exist, all of them in
       ``itertools.product(scalars, repeat=dim)`` order, as mixed-radix
       digits in blocks of _SPAN_BLOCK rows (the all-zero row never hits,
       so it is not skipped);
    3. otherwise the seeded draws: numpy batches of _SAMPLE_BATCH rows up to
       _NUMPY_DRAW_ORDER_LIMIT, random.Random one row at a time above it.

    The stream does not depend on the basis entries: the caller's mask on
    sole-support rows only drops rows from a block, so the draws, their
    order and the block boundaries are the same with or without it.
    """
    yield np.ones((1, dim), dtype=np.int64)
    yield np.eye(dim, dtype=np.int64)
    sc = np.array(scalars, dtype=np.int64)
    space = len(scalars) ** dim
    if space <= exhaust_limit:
        place = len(scalars) ** np.arange(dim - 1, -1, -1)
        for lo in range(0, space, _SPAN_BLOCK):
            rows = np.arange(lo, min(lo + _SPAN_BLOCK, space))
            yield sc[rows[:, None] // place % len(scalars)]
        return
    if order <= _NUMPY_DRAW_ORDER_LIMIT:
        rng = np.random.default_rng(_SAMPLE_SEED)
        drawn = 0
        while drawn < budget:
            batch = min(_SAMPLE_BATCH, budget - drawn)
            picks = rng.integers(0, len(sc), size=(batch, dim))
            for lo in range(0, batch, _SPAN_BLOCK):
                yield sc[picks[lo:lo + _SPAN_BLOCK]]
            drawn += batch
        return
    rng = random.Random(_SAMPLE_SEED)
    draws = budget // max(1, n)
    for lo in range(0, draws, _SPAN_BLOCK):
        yield np.array([[scalars[rng.randrange(len(scalars))] for _ in range(dim)]
                        for _ in range(min(_SPAN_BLOCK, draws - lo))],
                       dtype=np.int64)


def solve_all_nonzero(A: FMatrix, *,
                      exhaust_limit: int = EXHAUST_LIMIT) -> tuple[int, ...]:
    """Counting route: a totally nonzero kernel vector over the full field.

    Hypotheses: deleting any single column leaves the rank unchanged, and
    the field has more elements than there are columns (that is what makes
    the counting argument positive).
    """
    F = A.field
    n = A.ncols
    if F.order <= n:
        raise HypothesisFailed(f"field order {F.order} must exceed ncols {n}")
    # deleting column i keeps the rank iff some kernel vector is nonzero at i
    ns = A.nullspace()
    drops = np.flatnonzero(~ns.any(axis=0))
    if drops.size:
        raise HypothesisFailed(f"rank drops when deleting column {drops[0]}")
    if not len(ns):
        raise HypothesisFailed("trivial kernel")  # pragma: no cover - no columns
    x = all_nonzero_in_span(F, ns, list(range(F.order)),
                            exhaust_limit=exhaust_limit)
    if x is None:
        raise NotFound("no totally nonzero kernel vector found within budget")
    return _check_solution(A, x)


def descend_to_base(A: FMatrix, c: Sequence[int]) -> tuple[int, ...]:
    """Turn a totally nonzero kernel vector into a base-subfield one.

    Evaluates all shifts g^j, j = 1..q+1, at once: with y = g^j c, the rows
    y + y^(q) (coordinatewise conjugation) are Frobenius-fixed and still in
    the kernel when rref(A) is base-valued (A row-equivalent to A^(q)); the
    first totally nonzero row wins.  Works whenever the vector is shorter
    than q+1.
    """
    F = A.field
    if len(c) != A.ncols:
        raise WrongShape("vector length mismatch")
    if 0 in c:
        raise HasZeroCoordinate("input vector has a zero coordinate")
    if any(A.mul_vec(c)):
        raise NotASolution("input vector is not in the kernel")
    if not _in_base(F, A.rref()[0].array):
        raise FrobeniusHypothesisFailed("A is not row-equivalent to A^(q)")
    q = F.q
    Y = F.vmul(F.vexp(np.arange(1, q + 2))[:, None], np.array(c, dtype=np.int64))
    b = F.vadd(Y, F.vpow(Y, q))
    hits = np.flatnonzero((b != 0).all(axis=1))
    if not hits.size:
        raise NoValidShift(f"no shift among 1..{q + 1} gives a totally nonzero vector")
    return _check_solution(A, b[hits[0]])
