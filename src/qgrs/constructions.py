"""Five families of Hermitian self-orthogonal GRS codes over GF(q^2).

Common machinery: pick a divisor h of q^2 - 1 and let H be the subgroup of
index h in the multiplicative group, of order m = (q^2-1)/h.  Locators are
unions of cosets c*H (family 1 adds the zero locator); multipliers are
constant along each coset up to a fixed twist g^(nu * twist).  Summing a
geometric series collapses every Hermitian gram entry to a short linear
condition on the per-coset norm profile, one per quotient of the family's
exponent window.  validate() puts that window's closed form from
exponents.py on Params.scenario, and each builder reads its profile rows
from Scenario.quotients alone.  The profile systems are then solved
exactly:

* family 1 — zero plus r untwisted cosets; wide system, counting route
  plus descent to the base subfield.
* family 2 — r cosets, twist g^(h-1); unique-kernel route.
* family 3 — r even-power cosets (q odd), twist g^s; base-field system,
  unique-kernel route.
* family 4 — even- and odd-power cosets mixed (q odd), twist g^s; block
  system, counting route plus descent.
* family 5 — r cosets, untwisted, with *explicit* multipliers from the
  Lagrange node products (grs.lagrange_weights); no linear system on the
  happy path.  The explicit recipe needs every locator to have nonzero
  trace to the base subfield, which fails for many admissible cells (for
  instance any cell whose locators include a base-subfield element when q
  is even); a kernel-search fallback then solves the profile system
  directly over the base subfield.

All parameter checking lives in validate(), which returns a normalized
Params record with every derived scalar filled in; construct() builds the
field and the builders do pure assembly.  Every family ends in the same
place: a GrsSpec that verifier.py certifies through two independent routes.
Nothing returned here is trusted untested.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import bulk
from .errors import (
    DistanceTooSmall,
    DivisibilityViolated,
    NotFound,
    NotMDS,
    NotSelfOrthogonal,
    ParamsRejected,
    ParityViolated,
    RangeViolated,
    SubfieldAssertionFailed,
    brief,
)
from .exponents import Scenario, ScenarioKind
from .field import DEFAULT_ORDER_LIMIT, FieldSpec, field_for_q, prime_power_decompose
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
    """Quantum parameters for a certified spec — gated on both verdicts.
    They are the ones ``certify`` put in ``cert.quantum``."""
    if not cert.herm_ok:
        raise NotSelfOrthogonal("cannot lift a non-self-orthogonal code")
    if not cert.mds_ok:
        raise NotMDS("cannot lift without the Singleton distance")
    if spec.n - 2 * spec.k < 0:
        raise RangeViolated(f"k = {spec.k} exceeds n/2 = {spec.n / 2}")
    return cert.quantum


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
    takes none.  scenario states the family's exponent windows (families 1
    to 4; None for family 5): the builders read their profile rows from its
    quotients and their twist from its s.
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
    scenario: Scenario | None

    def provenance(self) -> dict:
        out = {"family": self.family, "q": self.q, "h": self.h,
               "r": self.r, "k": self.k}
        if self.i_list is not None:
            out["i_list"] = list(self.i_list)
        if self.j_list is not None:
            out["j_list"] = list(self.j_list)
        return out


def _check_q(q: int) -> None:
    # the order bound is checked first: factoring a large prime q would take
    # time in sqrt(q) before field_for_q rejects its field anyway
    if q > math.isqrt(DEFAULT_ORDER_LIMIT):
        raise RangeViolated(f"GF(q^2) for q = {brief(q)} exceeds the order "
                            f"limit {DEFAULT_ORDER_LIMIT}")
    try:
        prime_power_decompose(q)
    except ValueError as e:
        raise RangeViolated(str(e)) from e


def _check_k(k: int, k_max: int) -> None:
    if not 1 <= k <= k_max:
        raise RangeViolated(f"k = {k} outside [1, {k_max}]")


def _norm_indices(name: str, idx, r: int, modulus: int,
                  q: int) -> tuple[int, ...]:
    if idx is None:
        # the default 0..r-1 keeps both rules below: every caller has
        # already bounded r by the modulus, and r <= q < q^2 - 1
        return tuple(range(r))
    idx = tuple(int(i) for i in idx)
    if len(idx) != r:
        raise RangeViolated(f"{name} must have length {r}, got {len(idx)}")
    # an index is a discrete log: past the group order it would only alias a
    # smaller one, and past int64 it would overflow the exponent arrays
    bound = q * q - 1
    for i in idx:
        if abs(i) >= bound:
            raise RangeViolated(f"{name} entry {brief(i)} outside ({-bound}, {bound})")
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
        if h < 1 or (q + 1) % h != 0:
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
            sc = Scenario(ScenarioKind.EVEN, q, h // 2, (r - 3) // 2)
        else:
            sc = Scenario(ScenarioKind.ODD, q, (h - 1) // 2, (r - 2) // 2)
        _check_k(k, sc.k_max)
        return Params(1, q, h, r, k, None, None, sc.m, r * sc.m + 1,
                      sc.k_max, sc)
    if family == 2:
        _no_indices(2, i_list, j_list, allow_i=True)
        if h % 2 != 0:
            raise ParityViolated(f"h = {h} must be even")
        if h < 1 or (q + 1) % h != 0:
            raise DivisibilityViolated(f"h = {h} does not divide q+1 = {q + 1}")
        if r % 2 == 0:
            raise ParityViolated(f"r = {r} must be odd")
        if not 3 <= r < h:
            raise RangeViolated(f"r = {r} outside [3, h) = [3, {h})")
        sc = Scenario(ScenarioKind.SHIFTED_EVEN, q, h // 2, (r - 3) // 2)
        _check_k(k, sc.k_max)
        idx = _norm_indices("i_list", i_list, r, h, q)
        return Params(2, q, h, r, k, idx, None, sc.m, r * sc.m, sc.k_max, sc)
    if family == 3:
        _no_indices(3, i_list, j_list, allow_i=True)
        if h % 2 != 0:
            raise ParityViolated(f"h = {h} must be even")
        if h < 1 or (q - 1) % h != 0:
            raise DivisibilityViolated(f"h = {h} does not divide q-1 = {q - 1}")
        s = h // 2
        if not 1 <= r <= s:
            raise RangeViolated(f"r = {r} outside [1, {s}]")
        sc = Scenario(ScenarioKind.HALF_SHIFT, q, s, r)
        _check_k(k, sc.k_max)
        idx = _norm_indices("i_list", i_list, r, s, q)
        return Params(3, q, h, r, k, idx, None, sc.m, r * sc.m, sc.k_max, sc)
    if family == 4:
        if h % 2 != 0:
            raise ParityViolated(f"h = {h} must be even")
        if h < 1 or (q - 1) % h != 0:
            raise DivisibilityViolated(f"h = {h} does not divide q-1 = {q - 1}")
        s = h // 2
        if not s < r < 2 * s:
            raise RangeViolated(f"r = {r} outside ({s}, {2 * s})")
        sc = Scenario(ScenarioKind.HALF_SHIFT, q, s, r // 2)
        _check_k(k, sc.k_max)
        r1, r2 = (r + 1) // 2, r // 2
        even_idx = _norm_indices("i_list", i_list, r1, s, q)
        odd_idx = _norm_indices("j_list", j_list, r2, s, q)
        return Params(4, q, h, r, k, even_idx, odd_idx, sc.m, r * sc.m,
                      sc.k_max, sc)
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
            # No other q has such a proof, so its ceiling stands, though the
            # fallback search can miss witnesses that exist: at q = 16 and
            # k = 15 three-term witnesses exist for every r = h, the search
            # finds one only at h = 3, and construct raises NotFound.
            k_max = min(k_max, q - 2)
        _check_k(k, k_max)
        idx = _norm_indices("i_list", i_list, r, h, q)
        return Params(5, q, h, r, k, idx, None, m, r * m, k_max, None)
    raise RangeViolated(f"family must be 1..5, got {family}")


# ---------------------------------------------------------------------------
# shared assembly helpers (every element is an int code)
# ---------------------------------------------------------------------------


def _coset_locators(F: FieldSpec, exps: Sequence[int], h: int, m: int) -> np.ndarray:
    """Concatenated cosets g^(e) * <g^h>, coset-major, orbit index ascending."""
    logs = np.add.outer(np.asarray(exps, dtype=np.int64), h * np.arange(m))
    return F.vexp(logs.ravel())


def _twisted_multipliers(F: FieldSpec, per_coset, m: int, twist: int) -> np.ndarray:
    """Per-coset multipliers v, each spread over its coset as v * g^(nu * twist)."""
    return F.vmul(np.asarray(per_coset)[:, None], F.vexp(twist * np.arange(m))).ravel()


def _profile_rows(F: FieldSpec, xi_log: int, alpha_log: int, us,
                  idx: Sequence[int]) -> FMatrix:
    """Rows (xi^i * alpha^(i*u))_{i in idx}, one per u in us, from the
    discrete logs of xi and alpha."""
    us, idx = np.asarray(us, dtype=np.int64), np.asarray(idx, dtype=np.int64)
    codes = F.vexp(np.outer(xi_log + alpha_log * us, idx))
    return FMatrix(F, codes)


def _spec(F: FieldSpec, p: Params, locators, multipliers, **extra) -> GrsSpec:
    """The code on these code arrays, with the cell's provenance plus extra."""
    return GrsSpec(F, tuple(np.asarray(locators).tolist()),
                   tuple(np.asarray(multipliers).tolist()), p.k,
                   provenance={**p.provenance(), **extra})


def _coprimality_guard(F: FieldSpec, m: int) -> None:
    # m divides q^2 - 1, which is coprime to the characteristic, so this can
    # never fire; it stays because the geometric-series collapse silently
    # degenerates if it ever did.
    if math.gcd(F.p, m) != 1:  # pragma: no cover
        raise RangeViolated(f"characteristic {F.p} divides coset size {m}")


# ---------------------------------------------------------------------------
# family 1: zero locator plus r untwisted cosets
# ---------------------------------------------------------------------------


def _build_zero_union_cosets(F: FieldSpec, p: Params) -> GrsSpec:
    """Length r*m + 1 codes on {0} plus the cosets g^1 H, ..., g^r H."""
    r, m = p.r, p.m
    # rows (alpha^(l*u))_{l=1..r}, alpha = g^m, after the zero locator's
    # column: 1 at quotient 0, where the coset row is all ones, else 0
    us = np.array(sorted(p.scenario.quotients))
    cosets = _profile_rows(F, 0, m, us, range(1, r + 1))
    A = FMatrix(F, np.column_stack([us == 0, cosets.array]))
    x = np.array(descend_to_base(A, solve_all_nonzero(A)))
    x[0] = F.vmul(x[0], F.embed_int(m))
    v = F.vsolve_norm(x)
    locators = np.concatenate([[0], _coset_locators(F, range(1, r + 1), p.h, m)])
    multipliers = np.concatenate([v[:1], _twisted_multipliers(F, v[1:], m, twist=0)])
    return _spec(F, p, locators, multipliers)


# ---------------------------------------------------------------------------
# family 2: r cosets with the g^(h-1) twist
# ---------------------------------------------------------------------------


def _build_twisted_cosets(F: FieldSpec, p: Params) -> GrsSpec:
    q, m = p.q, p.m
    # xi = g^((q+1)/h - (q+1)), alpha = g^m
    A = _profile_rows(F, (q + 1) // p.h - (q + 1), m,
                      sorted(p.scenario.quotients), p.i_list)
    per_coset = F.vsolve_norm(solve_projective_unique(A))
    return _spec(F, p, _coset_locators(F, p.i_list, p.h, m),
                 _twisted_multipliers(F, per_coset, m, twist=p.h - 1))


# ---------------------------------------------------------------------------
# family 3: r even-power cosets (q odd), twist g^s
# ---------------------------------------------------------------------------


def _build_square_cosets(F: FieldSpec, p: Params) -> GrsSpec:
    q, m = p.q, p.m
    # xi = g^(-(q+1)), beta = g^(2m)
    B = _profile_rows(F, -(q + 1), 2 * m, sorted(p.scenario.quotients), p.i_list)
    per_coset = F.vsolve_norm(solve_projective_unique(B))
    return _spec(F, p, _coset_locators(F, [2 * i for i in p.i_list], p.h, m),
                 _twisted_multipliers(F, per_coset, m, twist=p.scenario.s))


# ---------------------------------------------------------------------------
# family 4: r1 even-power and r2 odd-power cosets (q odd), twist g^s
# ---------------------------------------------------------------------------


def _build_mixed_cosets(F: FieldSpec, p: Params) -> GrsSpec:
    q, m, us = p.q, p.m, sorted(p.scenario.quotients)
    # one family-3 block per coset kind, xi = g^(-(q+1)), beta = g^(2m)
    A = FMatrix.block_diag(F, [_profile_rows(F, -(q + 1), 2 * m, us, idx)
                               for idx in (p.i_list, p.j_list)])
    per_coset = F.vsolve_norm(descend_to_base(A, solve_all_nonzero(A)))
    exps = [2 * i for i in p.i_list] + [2 * j + 1 for j in p.j_list]
    return _spec(F, p, _coset_locators(F, exps, p.h, m),
                 _twisted_multipliers(F, per_coset, m, twist=p.scenario.s))


# ---------------------------------------------------------------------------
# family 5: r cosets with explicit node-product multipliers
# ---------------------------------------------------------------------------


def _build_explicit_weights(F: FieldSpec, p: Params) -> GrsSpec:
    locators = _coset_locators(F, p.i_list, p.h, p.m)
    # a * u must be a base unit, u = prod_{b != a} (a - b); a test holds u to
    # the paper's m * a^(m-1) * prod_{i' != i} (alpha^i - alpha^i'), alpha = g^m
    au = F.vmul(locators, lagrange_weights(F, locators))
    bad = np.flatnonzero((au == 0) | (F.vpow(au, p.q) != au))
    if bad.size:
        i = int(bad[0])
        raise SubfieldAssertionFailed(
            f"a*u = {au[i]} escapes the base units at locator {locators[i]}")

    traces = F.vadd(F.vpow(locators, p.q), locators)
    if traces.all():
        path = "explicit"
        multipliers = F.vmul(F.vsolve_norm(F.vinv(au)), F.vsolve_norm(traces))
    else:
        path = "kernel"
        multipliers = _profile_fallback(F, locators, p.k)
    return _spec(F, p, locators, multipliers, path=path)


def _profile_fallback(F: FieldSpec, locators, k: int) -> np.ndarray:
    """Solve the self-orthogonality profile system directly.

    The gram conditions are linear in the norm profile y_i = v_i^(q+1),
    which lives in the base subfield.  The exponent multiset {q*i + j} is
    stable under multiplication by q (mod q^2-1), so the solution space is
    spanned by its base-field points: restrict scalars and search there.
    """
    kernel = _profile_system(F, locators, k).nullspace()
    if not len(kernel):
        raise NotFound("profile system has a trivial base-field kernel")
    profile = all_nonzero_in_span(F, kernel, F.base_codes())
    if profile is None:
        raise NotFound("no totally nonzero base-field profile within budget")
    y = np.array(profile, dtype=np.int64)
    if not (F.vpow(y, F.q) == y).all():  # pragma: no cover - kernel is base-valued
        raise SubfieldAssertionFailed("profile escaped the base subfield")
    return F.vsolve_norm(y)


def _profile_system(F: FieldSpec, locators, k: int) -> FMatrix:
    """The profile system restricted to the base subfield.

    Each gram condition sum_l y_l a_l^(q*i + j) = 0 splits over the basis
    {1, g}: with P = a^(q*i + j), the halves are c1 = (P - P^q) / (g - g^q)
    and c0 = P - c1 * g, and both lie in the base subfield.  Rows come in
    (c0, c1) pairs, (i, j) lexicographic with i <= j: as a^(q^2) = a, (j, i)
    has halves (c0 + c1*(g + g^q), -c1), so a pair per Frobenius orbit spans all.
    """
    q = F.q
    exps = np.array([q * i + j for i in range(k) for j in range(i, k)], dtype=np.int64)
    P = bulk.power_codes(F, locators, exps)
    g = F.vexp(1)
    c1 = F.vmul(F.vsub(P, F.vpow(P, q)), F.vinv(F.vsub(g, F.vpow(g, q))))
    c0 = F.vsub(P, F.vmul(c1, g))
    halves = np.stack([c0, c1], axis=1)
    assert (F.vpow(halves, q) == halves).all(), "split left the base subfield"
    return FMatrix(F, halves.reshape(-1, len(locators)))


# ---------------------------------------------------------------------------
# registry and public entry points
# ---------------------------------------------------------------------------

_BUILDERS: dict[int, Callable[[FieldSpec, Params], GrsSpec]] = {
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
    F = field_for_q(p.q)
    _coprimality_guard(F, p.m)
    return _BUILDERS[p.family](F, p)


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
    Each family tries every divisor h of q + 1 (families 1 and 2) or q - 1
    (families 3 to 5) with every r in 1..h, and validate() alone decides.
    """
    _check_q(q)

    def _try(family: int, h: int, r: int) -> Params | None:
        try:
            probe = validate(family, q, h, r, 1)
        except ParamsRejected:
            return None
        if n_max is not None and probe.n > n_max:
            return None
        return replace(probe, k=probe.k_max)

    # families 3 and 4 split one (h, r) range at r = h / 2, so at most one
    # of them admits a cell
    for families, x in (((1,), q + 1), ((2,), q + 1), ((3, 4), q - 1),
                        ((5,), q - 1)):
        for h in _divisors(x):
            for r in range(1, h + 1):
                for family in families:
                    p = _try(family, h, r)
                    if p:
                        yield p
