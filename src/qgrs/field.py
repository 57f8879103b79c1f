"""Arithmetic for GF(q^2), q = p^e, with a canonical modulus.

Elements are stored as integers in ``[0, q^2)``: the base-p digits of the
integer are the coefficients of the residue polynomial, the constant term
being the *least significant* digit.  The modulus is not a free choice — it
is always the first primitive monic polynomial of degree 2e over F_p when
candidates are ordered by that same integer encoding.  Fixing it makes every
discrete log in a serialized code document reproducible.

The multiplicative group is represented through exp/log tables built from
the residue class of x, which is a generator by construction (that is what
"primitive" buys us).  The exp table is filled by doubling, x^(s + i) =
x^s * x^i, with multiplication by x^s applied as the companion matrix's
power C^s through two tables of size q; the log table is its inverse
permutation.  Multiplication, inversion, powers, the q-power map
and the norm onto the base subfield are all table lookups; addition is
digitwise mod p (a plain XOR when p = 2).

An element is its int code everywhere in the package; there is no element
object.  The ``v*`` methods work elementwise on numpy arrays of codes, at
every order, from 1-D tables of size O(order) — the log/exp lookup-table
design of the galois library (https://galois.readthedocs.io):

* multiply is ``exp[log a + log b]``; log(0) is a sentinel, 3(order - 1),
  whose sums all land in a zero tail of the padded exp table, so zero
  operands need no masking;
* add is XOR for p = 2.  For odd p each code's base-p digits are spread
  into base 2p - 1 (``_sp``), where adding two spreads cannot carry, and a
  reduction table maps the digitwise sum back.  That table has
  (2p - 1)^(2e) entries; above _SPREAD_TABLE_CAP the two base-q halves of
  a sum are reduced separately against a (2p - 1)^e table instead.

The scalar ``*_code`` methods compute the same results one int at a time;
they are the reference the tests hold the ``v*`` methods to.

Orders are capped (default 2^20) because the tables are built eagerly.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    FieldTooLarge,
    NonCanonicalModulus,
    NotInBaseField,
    NotPrime,
    ZeroArgument,
)

DEFAULT_ORDER_LIMIT = 1 << 20

#: most entries of an odd-p addition table over whole spreads; a field whose
#: table, (2p - 1)^(2e) entries, would be larger (q = 243, for one) reduces
#: each base-q half of a spread on its own
_SPREAD_TABLE_CAP = 1 << 22


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def prime_power_decompose(n: int) -> tuple[int, int]:
    """Return (p, e) with n = p^e, or raise ValueError."""
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    fs = _prime_factors(n)
    if len(fs) != 1:
        raise ValueError(f"{n} is not a prime power")
    p = fs[0]
    e = 0
    while n > 1:
        n //= p
        e += 1
    return p, e


# --------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, ascending, used only while
# searching for the modulus — everything after that is table driven)
# --------------------------------------------------------------------------


def _polymulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    d = len(f) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                res[i + j] = (res[i + j] + ca * cb) % p
    for i in range(len(res) - 1, d - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            base = i - d
            for j in range(d):
                res[base + j] = (res[base + j] - c * f[j]) % p
    res = res[:d]
    while len(res) > 1 and res[-1] == 0:
        res.pop()
    return res


def _x_power_mod(n: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = [0, 1]
    while n:
        if n & 1:
            result = _polymulmod(result, base, f, p)
        base = _polymulmod(base, base, f, p)
        n >>= 1
    return result


def _x_has_full_order(f: list[int], p: int, group_order: int,
                      prime_divisors: tuple[int, ...]) -> bool:
    # ord(x) = group_order certifies primitivity on its own: in a quotient by
    # a reducible polynomial the unit group is too small to contain an element
    # of that order, so no separate irreducibility pass is needed.
    if _x_power_mod(group_order, f, p) != [1]:
        return False
    for ell in prime_divisors:
        if _x_power_mod(group_order // ell, f, p) == [1]:
            return False
    return True


@lru_cache(maxsize=64)
def canonical_modulus(p: int, degree: int) -> tuple[int, ...]:
    """First primitive monic polynomial of the given degree over F_p.

    "First" means smallest value of sum(c_i * p**i) over the non-leading
    coefficients.  Returns the full coefficient tuple, ascending, length
    degree + 1, last entry 1.
    """
    group_order = p ** degree - 1
    divisors = _prime_factors(group_order)
    for tail in range(1, p ** degree):
        if tail % p == 0:
            continue  # zero constant term: divisible by x
        coeffs = [(tail // p ** i) % p for i in range(degree)] + [1]
        if _x_has_full_order(coeffs, p, group_order, divisors):
            return tuple(coeffs)
    raise RuntimeError("no primitive polynomial found")  # pragma: no cover


def _respread(values: np.ndarray, digits: int, src: int, dst: int,
              mod: int | None = None) -> np.ndarray:
    """Re-read the low ``digits`` base-``src`` digits of each value in base
    ``dst``, reducing each digit mod ``mod`` first when given."""
    out = np.zeros_like(values)
    pw_src = pw_dst = 1
    for _ in range(digits):
        digit = (values // pw_src) % src
        if mod is not None:
            digit %= mod
        out += digit * pw_dst
        pw_src *= src
        pw_dst *= dst
    return out


def _mat_pow_mod(M: np.ndarray, n: int, p: int) -> np.ndarray:
    """M^n mod p for a square int64 matrix M and n >= 0."""
    out = np.eye(len(M), dtype=np.int64)
    while n:
        if n & 1:
            out = out @ M % p
        M = M @ M % p
        n >>= 1
    return out


def field_order(p: int, e: int, limit: int = DEFAULT_ORDER_LIMIT) -> int:
    """p^(2e), once e >= 1, the order bound and the primality of p hold.

    The bound is checked before p is tested or the power is formed: a
    hostile document may carry a huge p or e.
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    if p < 2:
        raise NotPrime("p < 2 is not prime")
    order = 1
    for _ in range(2 * e):
        order *= p
        if order > limit:
            raise FieldTooLarge(f"p^(2e) exceeds limit {limit}")
    if not _is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    return order


# --------------------------------------------------------------------------
# the field itself
# --------------------------------------------------------------------------


class FieldSpec:
    """GF(q^2) with exp/log tables.  Construct via :func:`make_field`."""

    __slots__ = (
        "p", "e", "q", "order", "modulus", "_exp", "_log", "_neg", "_inv",
        "_sp", "_spexp", "_red", "_redsp", "_half",
    )

    def __init__(self, p: int, e: int, limit: int) -> None:
        self.order = field_order(p, e, limit)
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = canonical_modulus(p, 2 * e)
        self._build_add_tables()
        self._build_tables()
        self._build_unit_tables()

    # -- construction -------------------------------------------------------

    def _build_add_tables(self) -> None:
        p, e = self.p, self.e
        self._half = 0
        if p == 2:
            self._sp = self._red = self._redsp = None
            return
        base = 2 * p - 1
        # a code is hi * q + lo: its spread is spread(hi) * base^e + spread(lo)
        half_sp = _respread(np.arange(self.q, dtype=np.int64), e, p, base)
        self._sp = (half_sp[:, None] * base ** e + half_sp).ravel()
        width = 2 * e
        if base ** width > _SPREAD_TABLE_CAP:
            width = e
            self._half = base ** width
        sums = np.arange(base ** width, dtype=np.int64)
        self._red = _respread(sums, width, base, p, mod=p)
        self._redsp = _respread(sums, width, base, base, mod=p)

    def _build_tables(self) -> None:
        """exp[i] = x^i by doubling: x^(s + i) = x^s * x^i for i < s.

        Multiplying by x^s is the F_p-linear map C^s, C the companion matrix
        of the modulus.  Its values on the low and on the high e digits of a
        code are two tables of size q, so one doubling step is two lookups
        and one field addition per unit.
        """
        p, e, d, q = self.p, self.e, 2 * self.e, self.q
        n_units = self.order - 1
        C = np.zeros((d, d), dtype=np.int64)  # column b is the digits of x * x^b
        C[1:, :-1] = np.eye(d - 1, dtype=np.int64)
        C[:, -1] = np.negative(self.modulus[:d]) % p
        weights = p ** np.arange(d, dtype=np.int64)
        half_digits = (np.arange(q)[:, None] // weights[:e]) % p
        # g^(i mod n_units) below 3 * n_units, enough for a sum of three
        # logs; zero above, where every sum with log(0) = 3 * n_units lands
        exp = np.zeros(7 * n_units, dtype=np.int64)
        exp[0] = 1
        power, s = C, 1  # power = C^s
        while s < n_units:
            m = min(s, n_units - s)
            lo = (half_digits @ power[:, :e].T % p) @ weights
            hi = (half_digits @ power[:, e:].T % p) @ weights
            hi_part, lo_part = np.divmod(exp[:m], q)
            exp[s:s + m] = self.vadd(lo[lo_part], hi[hi_part])
            power = power @ power % p
            s *= 2
        log = np.full(self.order, -1, dtype=np.int64)
        log[exp[:n_units]] = np.arange(n_units)
        # the codes must be the n_units distinct units, and x of order n_units
        order_ok = np.array_equal(_mat_pow_mod(C, n_units, p), np.eye(d))
        if (log[1:] < 0).any() or not order_ok:  # pragma: no cover
            raise RuntimeError("generator order defect")
        exp[n_units:2 * n_units] = exp[:n_units]
        exp[2 * n_units:3 * n_units] = exp[:n_units]
        log[0] = 3 * n_units
        self._exp = exp
        self._log = log

    def _build_unit_tables(self) -> None:
        n_units = self.order - 1
        inv = np.zeros(self.order, dtype=np.int64)
        inv[1:] = self._exp[n_units - self._log[1:]]
        self._inv = inv
        if self.p == 2:
            self._neg = np.arange(self.order, dtype=np.int64)
            self._spexp = self._exp
            return
        # -a = (-1) * a, and -1 = g^(n_units / 2)
        self._neg = self._exp[self._log + n_units // 2]
        self._spexp = self._sp[self._exp]

    # -- scalar ops on int codes --------------------------------------------

    def add_codes(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        pw = 1
        while a or b:
            out += ((a + b) % p) * pw
            a //= p
            b //= p
            pw *= p
        return out

    def neg_code(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        out = 0
        pw = 1
        while a:
            out += (-a % p) * pw
            a //= p
            pw *= p
        return out

    def sub_codes(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add_codes(a, self.neg_code(b))

    def mul_codes(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroArgument("inverse of zero")
        return int(self._exp[self.order - 1 - self._log[a]])

    def div_codes(self, a: int, b: int) -> int:
        return self.mul_codes(a, self.inv_code(b))

    def pow_code(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1  # 0^0 = 1, the evaluation-map convention
            if n < 0:
                raise ZeroArgument("negative power of zero")
            return 0
        n_units = self.order - 1
        return int(self._exp[(int(self._log[a]) * n) % n_units])

    def dlog_code(self, a: int) -> int:
        if a == 0:
            raise ZeroArgument("discrete log of zero")
        return int(self._log[a])

    def frobenius_code(self, a: int) -> int:
        if a == 0:
            return 0
        return int(self._exp[(int(self._log[a]) * self.q) % (self.order - 1)])

    def norm_code(self, a: int) -> int:
        if a == 0:
            return 0
        return int(self._exp[(int(self._log[a]) * (self.q + 1)) % (self.order - 1)])

    def in_base_code(self, a: int) -> bool:
        if a == 0:
            return True
        return int(self._log[a]) % (self.q + 1) == 0

    def embed_int(self, n: int) -> int:
        """The image of the rational integer n in the field (n mod p)."""
        return n % self.p

    def base_codes(self) -> list[int]:
        """All codes of base-subfield elements, ascending (0 included)."""
        out = [0] + [int(self._exp[(self.q + 1) * t]) for t in range(self.q - 1)]
        return sorted(out)

    # -- vectorized ops on arrays of codes (broadcasting like numpy) -------

    def vadd(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self._reduce(self._sp[a] + self._sp[b], self._red, self.q)

    def vneg(self, a) -> np.ndarray:
        return self._neg[a]

    def vsub(self, a, b) -> np.ndarray:
        return self.vadd(a, self._neg[b])

    def vmul(self, a, b) -> np.ndarray:
        return self._exp[self._log[a] + self._log[b]]

    def vexp(self, logs) -> np.ndarray:
        """g^logs elementwise, g the generator (the residue class of x); any
        integer logs, negative ones included."""
        return self._exp[np.asarray(logs) % (self.order - 1)]

    def vsolve_norm(self, u) -> np.ndarray:
        """Smallest-dlog v with v^(q+1) = u, elementwise, for base units u."""
        u = np.asarray(u)
        if (u == 0).any():
            raise ZeroArgument("norm preimage of zero")
        lu = self._log[u]
        if (lu % (self.q + 1)).any():
            raise NotInBaseField(f"norm preimage of a non-member of GF({self.q})")
        # (q+1) * i = lu (mod q^2 - 1)  <=>  i = lu/(q+1) (mod q-1)
        return self._exp[(lu // (self.q + 1)) % (self.q - 1)]

    def vinv(self, a) -> np.ndarray:
        """Elementwise inverse; zero maps to zero."""
        return self._inv[a]

    def vpow(self, a, n) -> np.ndarray:
        """a^n for exponents n >= 0, with 0^0 = 1."""
        a = np.asarray(a)
        out = self._exp[(self._log[a] * n) % (self.order - 1)]
        return np.where(a == 0, np.asarray(n) == 0, out)

    def vprod(self, a, axis: int) -> np.ndarray:
        """Product along one axis, as g^(sum of logs); zero if a factor is."""
        a = np.asarray(a)
        out = self._exp[self._log[a].sum(axis=axis) % (self.order - 1)]
        return np.where((a == 0).any(axis=axis), 0, out)

    def veliminate(self, a, x, r, t=1) -> np.ndarray:
        """a - x * r / t, the update of one elimination step; t nonzero and
        x * r broadcast to the shape of a.

        -1/t is folded into x's log, so the product costs one exp lookup.
        """
        n_units = self.order - 1
        minus = 0 if self.p == 2 else n_units // 2
        shift = (minus - self._log[t]) % n_units
        term = self._spexp[(self._log[x] + shift) + self._log[r]]
        if self.p == 2:
            term ^= a
            return term
        term += self._sp[a]
        return self._reduce(term, self._red, self.q)

    def vcombine(self, coeffs, rows) -> np.ndarray:
        """sum_d coeffs[:, d] * rows[d] for a (B, D) coefficient array and
        (D, n) rows, D >= 1; the running sum stays spread (or XORed)."""
        coeffs = self._log[coeffs]
        rows = self._log[rows]
        acc = self._spexp[coeffs[:, 0, None] + rows[0]]
        for d in range(1, rows.shape[0]):
            term = self._spexp[coeffs[:, d, None] + rows[d]]
            if self.p == 2:
                acc ^= term
            else:
                acc = self._reduce(acc + term, self._redsp, self._half)
        return acc if self.p == 2 else self._reduce(acc, self._red, self.q)

    def _reduce(self, sums: np.ndarray, table: np.ndarray,
                scale: int) -> np.ndarray:
        """Digitwise mod p of sums of two spreads, through ``table``; in a
        split field the two halves go through it separately and are joined
        with ``scale`` (q for codes, the half base for spreads)."""
        if not self._half:
            return table[sums]
        hi, lo = np.divmod(sums, self._half)
        return table[hi] * scale + table[lo]

    # -- misc -----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.order})[p={self.p},e={self.e}]"


@lru_cache(maxsize=64)
def _make_field_cached(p: int, e: int, limit: int) -> FieldSpec:
    return FieldSpec(p, e, limit)


def make_field(p: int, e: int, *, limit: int = DEFAULT_ORDER_LIMIT) -> FieldSpec:
    """Build (or fetch the cached) GF(p^(2e)) with the canonical modulus."""
    return _make_field_cached(p, e, limit)


def field_for_q(q: int, *, limit: int = DEFAULT_ORDER_LIMIT) -> FieldSpec:
    """GF(q^2) for a prime-power q."""
    p, e = prime_power_decompose(q)
    return make_field(p, e, limit=limit)


def check_modulus(p: int, e: int, coeffs) -> None:
    """Reject a serialized modulus that is not the canonical one for
    GF(p^(2e)), after field_order's checks and without building tables."""
    order = field_order(p, e)
    expected = canonical_modulus(p, 2 * e)
    if tuple(coeffs) != expected:
        raise NonCanonicalModulus(
            f"modulus {tuple(coeffs)} is not canonical for GF({order}); "
            f"expected {expected}")
