"""Arithmetic for GF(q^2), q = p^e, with a canonical modulus.

Elements are stored as integers in ``[0, q^2)``: the base-p digits of the
integer are the coefficients of the residue polynomial, the constant term
being the *least significant* digit.  The modulus is not a free choice — it
is always the first primitive monic polynomial of degree 2e over F_p when
candidates are ordered by that same integer encoding.  Fixing it makes every
discrete log in a serialized code document reproducible.

The multiplicative group is represented through exp/log tables built from
the residue class of x, which is a generator by construction (that is what
"primitive" buys us).  Multiplication, inversion, powers, the q-power map
and the norm onto the base subfield are all table lookups; addition is
digitwise mod p (a plain XOR when p = 2).

Two APIs share those tables.  The scalar ``*_code`` methods work on one int
code at a time and are the reference the tests hold everything else to.
The ``v*`` methods work elementwise on numpy arrays of codes, at every
order, from 1-D tables of size O(order) — the log/exp lookup-table design of
the galois library (https://galois.readthedocs.io):

* multiply is ``exp[log a + log b]``; log(0) is a sentinel, 3(order - 1),
  whose sums all land in a zero tail of the padded exp table, so zero
  operands need no masking;
* add is XOR for p = 2.  For odd p each code's base-p digits are spread
  into base 2p - 1 (``_sp``), where adding two spreads cannot carry, and a
  reduction table maps the digitwise sum back.  That table has
  (2p - 1)^(2e) entries; above _SPREAD_TABLE_CAP the two base-q halves of
  a sum are reduced separately against a (2p - 1)^e table instead.

Orders are capped (default 2^20) because the tables are built eagerly.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator

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
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if e < 1:
            raise ValueError("e must be >= 1")
        order = p ** (2 * e)
        if order > limit:
            raise FieldTooLarge(f"p^(2e) = {order} exceeds limit {limit}")
        self.p = p
        self.e = e
        self.q = p ** e
        self.order = order
        self.modulus = canonical_modulus(p, 2 * e)
        self._build_tables()
        self._build_vector_tables()

    # -- construction -------------------------------------------------------

    def _build_tables(self) -> None:
        p, d, order = self.p, 2 * self.e, self.order
        n_units = order - 1
        # g^(i mod n_units) below 3 * n_units, enough for a sum of three
        # logs; zero above, where every sum with log(0) = 3 * n_units lands
        exp = np.zeros(7 * n_units, dtype=np.int64)
        log = np.full(order, -1, dtype=np.int64)
        tail = self.modulus[:d]
        if p == 2:
            packed = sum(c << i for i, c in enumerate(self.modulus))
            code = 1
            for i in range(n_units):
                if log[code] != -1:  # pragma: no cover - primitivity guarantees
                    raise RuntimeError("generator order defect")
                exp[i] = code
                log[code] = i
                code <<= 1
                if code & order:
                    code ^= packed
            if code != 1:  # pragma: no cover
                raise RuntimeError("generator order defect")
        else:
            cur = [0] * d
            cur[0] = 1
            for i in range(n_units):
                code = 0
                pw = 1
                for c in cur:
                    code += c * pw
                    pw *= p
                if log[code] != -1:  # pragma: no cover
                    raise RuntimeError("generator order defect")
                exp[i] = code
                log[code] = i
                top = cur[-1]
                cur = [0] + cur[:-1]
                if top:
                    for j in range(d):
                        cur[j] = (cur[j] - top * tail[j]) % p
            if cur[0] != 1 or any(cur[1:]):  # pragma: no cover
                raise RuntimeError("generator order defect")
        exp[n_units:2 * n_units] = exp[:n_units]
        exp[2 * n_units:3 * n_units] = exp[:n_units]
        log[0] = 3 * n_units
        self._exp = exp
        self._log = log

    def _build_vector_tables(self) -> None:
        p, d, order = self.p, 2 * self.e, self.order
        n_units = order - 1
        codes = np.arange(order, dtype=np.int64)
        inv = np.zeros(order, dtype=np.int64)
        inv[1:] = self._exp[n_units - self._log[1:]]
        self._inv = inv
        self._half = 0
        if p == 2:
            self._neg = codes
            self._sp = self._red = self._redsp = None
            self._spexp = self._exp
            return
        # -a = (-1) * a, and -1 = g^(n_units / 2)
        self._neg = self._exp[self._log + n_units // 2]
        base = 2 * p - 1
        self._sp = _respread(codes, d, p, base)
        width = d
        if base ** d > _SPREAD_TABLE_CAP:
            width = self.e
            self._half = base ** width
        sums = np.arange(base ** width, dtype=np.int64)
        self._red = _respread(sums, width, base, p, mod=p)
        self._redsp = _respread(sums, width, base, base, mod=p)
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

    def solve_norm_code(self, u: int) -> int:
        """Smallest-dlog v with v^(q+1) = u, for u in the base subfield."""
        if u == 0:
            raise ZeroArgument("norm preimage of zero")
        lu = int(self._log[u])
        if lu % (self.q + 1) != 0:
            raise NotInBaseField(f"dlog {lu} is not a multiple of q+1 = {self.q + 1}")
        # (q+1) * i = lu (mod q^2 - 1)  <=>  i = lu/(q+1) (mod q-1)
        i = (lu // (self.q + 1)) % (self.q - 1)
        v = int(self._exp[i])
        assert self.norm_code(v) == u
        return v

    def embed_int(self, n: int) -> int:
        """The image of the rational integer n in the field (n mod p)."""
        return n % self.p

    def split_code(self, a: int) -> tuple[int, int]:
        """Coordinates of a in the base {1, gen}: a = a0 + a1 * gen."""
        aq = self.frobenius_code(a)
        g = self._gen_code()
        gq = self.frobenius_code(g)
        denom = self.sub_codes(g, gq)
        a1 = self.div_codes(self.sub_codes(a, aq), denom)
        a0 = self.sub_codes(a, self.mul_codes(a1, g))
        assert self.in_base_code(a0) and self.in_base_code(a1)
        return a0, a1

    def _gen_code(self) -> int:
        return int(self._exp[1])

    # -- element API ----------------------------------------------------------

    @property
    def zero(self) -> "Felt":
        return Felt(0, self)

    @property
    def one(self) -> "Felt":
        return Felt(1, self)

    @property
    def gen(self) -> "Felt":
        """A fixed multiplicative generator: the residue class of x."""
        return Felt(self._gen_code(), self)

    def from_log(self, i: int) -> "Felt":
        return Felt(int(self._exp[i % (self.order - 1)]), self)

    def from_code(self, code: int) -> "Felt":
        if not 0 <= code < self.order:
            raise ValueError(f"code {code} out of range for order {self.order}")
        return Felt(code, self)

    def dlog(self, x: "Felt") -> int:
        return self.dlog_code(x.code)

    def frobenius(self, x: "Felt") -> "Felt":
        return Felt(self.frobenius_code(x.code), self)

    def norm(self, x: "Felt") -> "Felt":
        return Felt(self.norm_code(x.code), self)

    def solve_norm(self, u: "Felt") -> "Felt":
        return Felt(self.solve_norm_code(u.code), self)

    def elements(self) -> Iterator["Felt"]:
        for code in range(self.order):
            yield Felt(code, self)

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


class Felt:
    """A field element: an int code bound to its field.

    Hashable and totally ordered (by code, within one field) so that sorts
    and set operations are deterministic.
    """

    __slots__ = ("code", "field")

    def __init__(self, code: int, field: FieldSpec) -> None:
        self.code = code
        self.field = field

    # arithmetic ------------------------------------------------------------

    def __add__(self, other: "Felt") -> "Felt":
        return Felt(self.field.add_codes(self.code, other.code), self.field)

    def __sub__(self, other: "Felt") -> "Felt":
        return Felt(self.field.sub_codes(self.code, other.code), self.field)

    def __mul__(self, other: "Felt") -> "Felt":
        return Felt(self.field.mul_codes(self.code, other.code), self.field)

    def __truediv__(self, other: "Felt") -> "Felt":
        return Felt(self.field.div_codes(self.code, other.code), self.field)

    def __pow__(self, n: int) -> "Felt":
        return Felt(self.field.pow_code(self.code, n), self.field)

    def __neg__(self) -> "Felt":
        return Felt(self.field.neg_code(self.code), self.field)

    def inv(self) -> "Felt":
        return Felt(self.field.inv_code(self.code), self.field)

    def conj(self) -> "Felt":
        """The q-power (Frobenius) conjugate."""
        return Felt(self.field.frobenius_code(self.code), self.field)

    def norm(self) -> "Felt":
        return Felt(self.field.norm_code(self.code), self.field)

    # structure -------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        p, d = self.field.p, 2 * self.field.e
        c = self.code
        out = []
        for _ in range(d):
            out.append(c % p)
            c //= p
        return tuple(out)

    @property
    def log(self) -> int:
        return self.field.dlog_code(self.code)

    @property
    def is_zero(self) -> bool:
        return self.code == 0

    def in_base(self) -> bool:
        return self.field.in_base_code(self.code)

    # protocol --------------------------------------------------------------

    def __bool__(self) -> bool:
        return self.code != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Felt):
            return NotImplemented
        return (self.field is other.field
                or (self.field.p, self.field.e) == (other.field.p, other.field.e)) \
            and self.code == other.code

    def __lt__(self, other: "Felt") -> bool:
        if self.field is not other.field:
            raise TypeError("ordering requires a common field")
        return self.code < other.code

    def __le__(self, other: "Felt") -> bool:
        return self == other or self < other

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.e, self.code))

    def __repr__(self) -> str:
        if self.code == 0:
            return f"<0 of {self.field!r}>"
        return f"<g^{self.log} of {self.field!r}>"


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


def check_modulus(field: FieldSpec, coeffs) -> None:
    """Reject a serialized modulus that is not the canonical one."""
    if tuple(coeffs) != field.modulus:
        raise NonCanonicalModulus(
            f"modulus {tuple(coeffs)} is not canonical for GF({field.order}); "
            f"expected {field.modulus}")
