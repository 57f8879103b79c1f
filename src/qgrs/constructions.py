"""Five families of Hermitian self-orthogonal GRS codes over GF(q^2).

Common machinery: pick a divisor h of q^2 - 1 and let H be the subgroup of
index h in the multiplicative group, of order m = (q^2-1)/h.  Locators are
unions of cosets c*H (family 1 adds the zero locator); multipliers are
constant along each coset up to a fixed twist g^(nu * twist).  Summing a
geometric series collapses every Hermitian gram entry to a short linear
condition on the per-coset norm profile, with the admissible index windows
given by the closed forms in exponents.py.  The profile systems are then
solved exactly:

* family 1 — zero plus r untwisted cosets; wide system, counting route
  plus descent to the base subfield.
* family 2 — r cosets, twist g^(h-1); unique-kernel route.
* family 3 — r even-power cosets (q odd), twist g^s; base-field system,
  unique-kernel route.
* family 4 — even- and odd-power cosets mixed (q odd), twist g^s; block
  system, counting route plus descent.
* family 5 — r cosets, untwisted, with *explicit* multipliers from Lagrange
  node products; no linear system on the happy path.  The explicit recipe
  needs every locator to have nonzero trace to the base subfield, which
  fails for many admissible cells (for instance any cell whose locators
  include a base-subfield element when q is even); a kernel-search fallback
  then solves the profile system directly over the base subfield.

All parameter checking lives in validate(), which returns a normalized
Params record with every derived scalar filled in; the builders do pure
assembly.  Every family ends in the same place: a GrsSpec that verifier.py
certifies through two independent routes.  Nothing returned here is trusted
untested.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from .errors import (
    DistanceTooSmall,
    DivisibilityViolated,
    InvalidScenario,
    NotFound,
    NotMDS,
    NotSelfOrthogonal,
    ParityViolated,
    RangeViolated,
    SubfieldAssertionFailed,
)
from .exponents import Scenario, ScenarioKind
from .field import Felt, FieldSpec, field_for_q, prime_power_decompose
from .grs import GrsSpec, lagrange_weights
from .matrix import FMatrix
from .solver import (
    all_nonzero_in_span,
    descend_to_base,
    solve_all_nonzero,
    solve_projective_unique,
)


@dataclass(frozen=True)
class QuantumParams:
    """Stabilizer-code parameters [[n, k, d]]_q."""

    n: int
    k: int
    d: int
    q: int

    @property
    def is_length_maximal(self) -> bool:
        """Whether the distance meets 2d = n - k + 2 (the quantum MDS line)."""
        return 2 * self.d == self.n - self.k + 2

    def __str__(self) -> str:
        return f"[[{self.n},{self.k},{self.d}]]_{self.q}"


def to_quantum(spec: GrsSpec, cert) -> QuantumParams:
    """Quantum parameters for a certified spec — gated on both verdicts."""
    if not cert.herm_ok:
        raise NotSelfOrthogonal("cannot lift a non-self-orthogonal code")
    if not cert.mds_ok:
        raise NotMDS("cannot lift without the Singleton distance")
    n, k = spec.n, spec.k
    if n - 2 * k < 0:
        raise RangeViolated(f"k = {k} exceeds n/2 = {n / 2}")
    out = QuantumParams(n=n, k=n - 2 * k, d=k + 1, q=spec.field.q)
    assert out.is_length_maximal
    return out


def propagate(params: QuantumParams) -> QuantumParams:
    """Length-1 shortening: [[n, k, d]] -> [[n-1, k+1, d-1]], needs d >= 2."""
    if params.d < 2:
        raise DistanceTooSmall(f"d = {params.d} < 2")
    return QuantumParams(params.n - 1, params.k + 1, params.d - 1, params.q)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Params:
    """A validated parameter tuple with derived scalars filled in.

    i_list / j_list are normalized to tuples (defaults installed); family 1
    takes none.  s and t are the half-divisor and window radius where the
    family defines them, None otherwise.
    """

    family: int
    q: int
    h: int
    r: int
    k: int
    i_list: tuple[int, ...] | None
    j_list: tuple[int, ...] | None
    m: int
    n: int
    k_max: int
    s: int | None
    t: int | None

    def provenance(self) -> dict:
        out = {"family": self.family, "q": self.q, "h": self.h,
               "r": self.r, "k": self.k}
        if self.i_list is not None:
            out["i_list"] = list(self.i_list)
        if self.j_list is not None:
            out["j_list"] = list(self.j_list)
        return out


def _check_q(q: int) -> None:
    try:
        prime_power_decompose(q)
    except ValueError as e:
        raise RangeViolated(str(e)) from e


def _scenario(kind: ScenarioKind, q: int, s: int, t: int) -> Scenario:
    try:
        return Scenario(kind, q, s, t)
    except InvalidScenario as e:
        raise RangeViolated(str(e)) from e


def _check_k(k: int, k_max: int) -> None:
    if not 1 <= k <= k_max:
        raise RangeViolated(f"k = {k} outside [1, {k_max}]")


def _norm_indices(name: str, idx, default, r: int, modulus: int) -> tuple[int, ...]:
    idx = tuple(int(i) for i in (default if idx is None else idx))
    if len(idx) != r:
        raise RangeViolated(f"{name} must have length {r}, got {len(idx)}")
    if len({i % modulus for i in idx}) != r:
        raise RangeViolated(f"{name} entries must be distinct mod {modulus}")
    return idx


def _no_indices(family: int, i_list, j_list, allow_i: bool = False) -> None:
    if i_list is not None and not allow_i:
        raise RangeViolated(f"family {family} takes no i_list")
    if j_list is not None:
        raise RangeViolated(f"family {family} takes no j_list")


def validate(family: int, q: int, h: int, r: int, k: int,
             i_list: Sequence[int] | None = None,
             j_list: Sequence[int] | None = None) -> Params:
    """Check every hypothesis of the requested family; fill derived scalars.

    Raises DivisibilityViolated / ParityViolated / RangeViolated, one per
    violated hypothesis; enumeration code relies on the distinction.
    """
    _check_q(q)
    if family == 1:
        _no_indices(1, i_list, j_list)
        if (q + 1) % h != 0:
            raise DivisibilityViolated(f"h = {h} does not divide q+1 = {q + 1}")
        if h < 3:
            raise RangeViolated(f"h = {h} < 3")
        # the strict upper bound is load-bearing: at r = q = h - 1 with q
        # even the profile system provably has no totally nonzero
        # base-field point (checked exhaustively for q = 4 and q = 8)
        if not 1 < r < min(q, h):
            raise RangeViolated(f"r = {r} outside (1, {min(q, h)})")
        if (r + h) % 2 == 0:
            raise ParityViolated(f"r + h = {r + h} must be odd")
        if h % 2 == 0:
            sc = _scenario(ScenarioKind.EVEN, q, h // 2, (r - 3) // 2)
        else:
            sc = _scenario(ScenarioKind.ODD, q, (h - 1) // 2, (r - 2) // 2)
        _check_k(k, sc.k_max)
        return Params(1, q, h, r, k, None, None, sc.m, r * sc.m + 1,
                      sc.k_max, sc.s, sc.t)
    if family == 2:
        _no_indices(2, i_list, j_list, allow_i=True)
        if h % 2 != 0:
            raise ParityViolated(f"h = {h} must be even")
        if (q + 1) % h != 0:
            raise DivisibilityViolated(f"h = {h} does not divide q+1 = {q + 1}")
        if r % 2 == 0:
            raise ParityViolated(f"r = {r} must be odd")
        if r < 3:
            raise RangeViolated(f"r = {r} < 3")
        sc = _scenario(ScenarioKind.SHIFTED_EVEN, q, h // 2, (r - 3) // 2)
        _check_k(k, sc.k_max)
        idx = _norm_indices("i_list", i_list, range(r), r, h)
        return Params(2, q, h, r, k, idx, None, sc.m, r * sc.m,
                      sc.k_max, sc.s, sc.t)
    if family == 3:
        _no_indices(3, i_list, j_list, allow_i=True)
        if h % 2 != 0:
            raise ParityViolated(f"h = {h} must be even")
        if (q - 1) % h != 0:
            raise DivisibilityViolated(f"h = {h} does not divide q-1 = {q - 1}")
        s = h // 2
        if not 1 <= r <= s:
            raise RangeViolated(f"r = {r} outside [1, {s}]")
        sc = _scenario(ScenarioKind.HALF_SHIFT, q, s, r)
        _check_k(k, sc.k_max)
        idx = _norm_indices("i_list", i_list, range(r), r, s)
        return Params(3, q, h, r, k, idx, None, sc.m, r * sc.m,
                      sc.k_max, s, None)
    if family == 4:
        if h % 2 != 0:
            raise ParityViolated(f"h = {h} must be even")
        if (q - 1) % h != 0:
            raise DivisibilityViolated(f"h = {h} does not divide q-1 = {q - 1}")
        s = h // 2
        if not s < r < 2 * s:
            raise RangeViolated(f"r = {r} outside ({s}, {2 * s})")
        t = r // 2
        sc = _scenario(ScenarioKind.HALF_SHIFT, q, s, t)
        _check_k(k, sc.k_max)
        r1, r2 = (r + 1) // 2, r // 2
        even_idx = _norm_indices("i_list", i_list, range(r1), r1, s)
        odd_idx = _norm_indices("j_list", j_list, range(r2), r2, s)
        return Params(4, q, h, r, k, even_idx, odd_idx, sc.m, r * sc.m,
                      sc.k_max, s, t)
    if family == 5:
        _no_indices(5, i_list, j_list, allow_i=True)
        if h < 1 or (q - 1) % h != 0:
            raise DivisibilityViolated(f"h = {h} does not divide q-1 = {q - 1}")
        if not 1 <= r <= h:
            raise RangeViolated(f"r = {r} outside [1, {h}]")
        m = (q * q - 1) // h
        k_max = r * (q - 1) // h
        if q in (2, 4) and r == h:
            # With r = h the locators are the full unit group.  Over GF(4)
            # and GF(16) the profile system then has NO totally nonzero
            # base-field solution at the top dimension (exhaustively
            # checked; frozen in the test suite), so the ceiling drops.
            # Larger even q and all odd q are unaffected — witnesses exist
            # and are found by the fallback search.
            k_max = min(k_max, q - 2)
        _check_k(k, k_max)
        idx = _norm_indices("i_list", i_list, range(r), r, h)
        return Params(5, q, h, r, k, idx, None, m, r * m, k_max, None, None)
    raise RangeViolated(f"family must be 1..5, got {family}")


# ---------------------------------------------------------------------------
# shared assembly helpers
# ---------------------------------------------------------------------------


def _coset_locators(F: FieldSpec, exps: Sequence[int], h: int, m: int) -> list[Felt]:
    """Concatenated cosets g^(e) * <g^h>, coset-major, orbit index ascending."""
    out = []
    for e in exps:
        for nu in range(m):
            out.append(F.from_log(e + h * nu))
    return out


def _twisted_multipliers(F: FieldSpec, per_coset: Sequence[Felt], m: int,
                         twist: int) -> list[Felt]:
    out = []
    for v in per_coset:
        for nu in range(m):
            out.append(v if twist == 0 else v * F.from_log(nu * twist))
    return out


def _coprimality_guard(F: FieldSpec, m: int) -> None:
    # m divides q^2 - 1, which is coprime to the characteristic, so this can
    # never fire; it stays because the geometric-series collapse silently
    # degenerates if it ever did.
    if math.gcd(F.p, m) != 1:  # pragma: no cover
        raise RangeViolated(f"characteristic {F.p} divides coset size {m}")


# ---------------------------------------------------------------------------
# family 1: zero locator plus r untwisted cosets
# ---------------------------------------------------------------------------


def _build_zero_union_cosets(p: Params) -> GrsSpec:
    """Length r*m + 1 codes on {0} plus the cosets g^1 H, ..., g^r H."""
    F = field_for_q(p.q)
    _coprimality_guard(F, p.m)
    r, m = p.r, p.m
    a_start = p.s - p.t if p.h % 2 == 0 else p.s - p.t + 1
    alpha = F.from_log(m)
    rows = [[1] * (r + 1)]
    for u in range(a_start, a_start + r - 2):
        rows.append([0] + [(alpha ** (l * u)).code for l in range(1, r + 1)])
    A = FMatrix(F, rows, ncols=r + 1)
    x = descend_to_base(A, solve_all_nonzero(A))
    mbar = F.from_code(F.embed_int(m))
    v0 = F.solve_norm(x[0] * mbar)
    per_coset = [F.solve_norm(x[l]) for l in range(1, r + 1)]
    locators = [F.zero] + _coset_locators(F, range(1, r + 1), p.h, m)
    multipliers = [v0] + _twisted_multipliers(F, per_coset, m, twist=0)
    return GrsSpec(F, tuple(locators), tuple(multipliers), p.k,
                   provenance=p.provenance())


# ---------------------------------------------------------------------------
# family 2: r cosets with the g^(h-1) twist
# ---------------------------------------------------------------------------


def _build_twisted_cosets(p: Params) -> GrsSpec:
    F = field_for_q(p.q)
    _coprimality_guard(F, p.m)
    q, r, m = p.q, p.r, p.m
    alpha = F.from_log(m)
    xi = F.from_log((q + 1) // p.h - (q + 1))
    a_start = p.s - p.t
    rows = []
    for rho in range(r - 1):
        u = a_start + rho
        rows.append([(xi ** i * alpha ** (i * u)).code for i in p.i_list])
    A = FMatrix(F, rows, ncols=r)
    prof = solve_projective_unique(A)
    per_coset = [F.solve_norm(y) for y in prof]
    locators = _coset_locators(F, p.i_list, p.h, m)
    multipliers = _twisted_multipliers(F, per_coset, m, twist=p.h - 1)
    return GrsSpec(F, tuple(locators), tuple(multipliers), p.k,
                   provenance=p.provenance())


# ---------------------------------------------------------------------------
# family 3: r even-power cosets (q odd), twist g^s
# ---------------------------------------------------------------------------


def _build_square_cosets(p: Params) -> GrsSpec:
    F = field_for_q(p.q)
    _coprimality_guard(F, p.m)
    q, r, m, s = p.q, p.r, p.m, p.s
    beta = F.from_log(2 * m)
    xi = F.from_log(-(q + 1))
    rows = []
    for rho in range(r - 1):
        u = rho + 1
        rows.append([(xi ** i * beta ** (i * u)).code for i in p.i_list])
    B = FMatrix(F, rows, ncols=r)
    prof = solve_projective_unique(B)
    per_coset = [F.solve_norm(y) for y in prof]
    locators = _coset_locators(F, [2 * i for i in p.i_list], p.h, m)
    multipliers = _twisted_multipliers(F, per_coset, m, twist=s)
    return GrsSpec(F, tuple(locators), tuple(multipliers), p.k,
                   provenance=p.provenance())


# ---------------------------------------------------------------------------
# family 4: r1 even-power and r2 odd-power cosets (q odd), twist g^s
# ---------------------------------------------------------------------------


def _build_mixed_cosets(p: Params) -> GrsSpec:
    F = field_for_q(p.q)
    _coprimality_guard(F, p.m)
    q, r, m, s, t = p.q, p.r, p.m, p.s, p.t
    beta = F.from_log(2 * m)
    xi = F.from_log(-(q + 1))

    def _block(idx):
        rows = []
        for rho in range(t - 1):
            u = rho + 1
            rows.append([(xi ** i * beta ** (i * u)).code for i in idx])
        return FMatrix(F, rows, ncols=len(idx))

    A = FMatrix.block_diag(F, [_block(p.i_list), _block(p.j_list)])
    prof = descend_to_base(A, solve_all_nonzero(A))
    per_coset = [F.solve_norm(y) for y in prof]
    exps = [2 * i for i in p.i_list] + [2 * j + 1 for j in p.j_list]
    locators = _coset_locators(F, exps, p.h, m)
    multipliers = _twisted_multipliers(F, per_coset, m, twist=s)
    return GrsSpec(F, tuple(locators), tuple(multipliers), p.k,
                   provenance=p.provenance())


# ---------------------------------------------------------------------------
# family 5: r cosets with explicit node-product multipliers
# ---------------------------------------------------------------------------


def _build_explicit_weights(p: Params) -> GrsSpec:
    F = field_for_q(p.q)
    _coprimality_guard(F, p.m)
    r, m = p.r, p.m
    locators = _coset_locators(F, p.i_list, p.h, m)
    n = len(locators)

    # closed-form node products, cross-checked against the direct O(n^2) route
    alpha = F.from_log(m)
    mbar = F.from_code(F.embed_int(m))
    coset_gaps = []
    for lam, i in enumerate(p.i_list):
        acc = F.one
        for sig, i2 in enumerate(p.i_list):
            if sig != lam:
                acc = acc * (alpha ** i - alpha ** i2)
        coset_gaps.append(acc)
    weights = []
    for lam in range(r):
        for nu in range(m):
            a = locators[lam * m + nu]
            weights.append(mbar * a ** (m - 1) * coset_gaps[lam])
    assert tuple(weights) == lagrange_weights(tuple(locators))

    for a, u in zip(locators, weights):
        if not (a * u).in_base() or (a * u).is_zero:
            raise SubfieldAssertionFailed(
                f"a*u = {(a * u)!r} escapes the base units at locator {a!r}")

    traces = [a.conj() + a for a in locators]
    if all(traces):
        path = "explicit"
        multipliers = []
        for a, u, tr in zip(locators, weights, traces):
            v_prime = F.solve_norm((a * u).inv())
            multipliers.append(v_prime * F.solve_norm(tr))
    else:
        path = "kernel"
        multipliers = _profile_fallback(F, locators, p.k)
    prov = p.provenance()
    prov["path"] = path
    return GrsSpec(F, tuple(locators), tuple(multipliers), p.k,
                   provenance=prov)


def _profile_fallback(F: FieldSpec, locators: list[Felt], k: int) -> list[Felt]:
    """Solve the self-orthogonality profile system directly.

    The gram conditions are linear in the norm profile y_i = v_i^(q+1),
    which lives in the base subfield.  The exponent multiset {q*i + j} is
    stable under multiplication by q (mod q^2-1), so the solution space is
    spanned by its base-field points: restrict scalars and search there.
    """
    q = F.q
    rows = []
    for i in range(k):
        for j in range(k):
            row0, row1 = [], []
            for a in locators:
                c0, c1 = F.split_code(F.pow_code(a.code, q * i + j))
                row0.append(c0)
                row1.append(c1)
            rows.append(row0)
            rows.append(row1)
    M = FMatrix(F, rows, ncols=len(locators))
    kernel = M.nullspace()
    if not kernel:
        raise NotFound("profile system has a trivial base-field kernel")
    profile = all_nonzero_in_span(F, kernel, F.base_codes())
    if profile is None:
        raise NotFound("no totally nonzero base-field profile within budget")
    out = []
    for y in profile:
        if not F.in_base_code(y):  # pragma: no cover - kernel is base-valued
            raise SubfieldAssertionFailed("profile escaped the base subfield")
        out.append(F.solve_norm(F.from_code(y)))
    return out


# ---------------------------------------------------------------------------
# registry and public entry points
# ---------------------------------------------------------------------------

_BUILDERS: dict[int, Callable[[Params], GrsSpec]] = {
    1: _build_zero_union_cosets,
    2: _build_twisted_cosets,
    3: _build_square_cosets,
    4: _build_mixed_cosets,
    5: _build_explicit_weights,
}

FAMILIES = tuple(sorted(_BUILDERS))


def construct(family: int, q: int, h: int, r: int, k: int,
              i_list: Sequence[int] | None = None,
              j_list: Sequence[int] | None = None) -> GrsSpec:
    """validate() then build; the uniform entry point over the families."""
    p = validate(family, q, h, r, k, i_list, j_list)
    return _BUILDERS[p.family](p)


# ---------------------------------------------------------------------------
# parameter enumeration
# ---------------------------------------------------------------------------


def _divisors(x: int) -> list[int]:
    return [d for d in range(1, x + 1) if x % d == 0]


def iter_family_params(q: int, n_max: int | None = None) -> Iterator[Params]:
    """Every admissible cell for this q, at the cell's largest k.

    A "cell" is a (family, h, r) choice with default index lists; each is
    yielded as a validated Params at k = k_max.  Every smaller k >= 1 is
    admissible too (the profile conditions for smaller k are a subset).
    """
    _check_q(q)

    def _try(family: int, h: int, r: int) -> Params | None:
        try:
            probe = validate(family, q, h, r, 1)
        except (DivisibilityViolated, ParityViolated, RangeViolated,
                InvalidScenario):
            return None
        if n_max is not None and probe.n > n_max:
            return None
        return replace(probe, k=probe.k_max)

    for h in _divisors(q + 1):
        for r in range(2, min(q, h)):
            p = _try(1, h, r)
            if p:
                yield p
    for h in _divisors(q + 1):
        for r in range(3, h, 2):
            p = _try(2, h, r)
            if p:
                yield p
    for h in _divisors(q - 1):
        for r in range(1, h):
            p = _try(3, h, r) or _try(4, h, r)
            if p:
                yield p
    for h in _divisors(q - 1):
        for r in range(1, h + 1):
            p = _try(5, h, r)
            if p:
                yield p
