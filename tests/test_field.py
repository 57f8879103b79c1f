"""Field layer tests.

The canonical moduli below were computed by an independent oracle: naive
irreducibility by trial division plus an explicit order-of-x walk, scanning
candidates in the integer-encoding order (constant term = least significant
base-p digit).  They are frozen here; the fast search in the package must
reproduce them exactly.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrs.errors import (
    FieldTooLarge,
    NonCanonicalModulus,
    NotInBaseField,
    NotPrime,
    ZeroArgument,
)
from qgrs.field import (
    DEFAULT_ORDER_LIMIT,
    FieldSpec,
    canonical_modulus,
    check_modulus,
    field_for_q,
    make_field,
    prime_power_decompose,
)

from oracle import stepped_exp_log

# (p, e) -> canonical modulus of degree 2e, ascending coefficients
FROZEN_MODULI = {
    (2, 1): (1, 1, 1),
    (3, 1): (2, 1, 1),
    (2, 2): (1, 1, 0, 0, 1),
    (5, 1): (2, 1, 1),
    (7, 1): (3, 1, 1),
    (2, 3): (1, 1, 0, 0, 0, 0, 1),
    (3, 2): (2, 1, 0, 0, 1),
    (11, 1): (7, 1, 1),
    (13, 1): (2, 1, 1),
    (17, 1): (3, 1, 1),
}


@pytest.mark.parametrize("pe,expected", sorted(FROZEN_MODULI.items()))
def test_canonical_modulus_matches_oracle(pe, expected):
    p, e = pe
    assert canonical_modulus(p, 2 * e) == expected
    assert make_field(p, e).modulus == expected


def test_field_parameters():
    F = make_field(3, 2)
    assert (F.p, F.e, F.q, F.order) == (3, 2, 9, 81)
    assert field_for_q(9) is F


def test_prime_power_decompose():
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(13) == (13, 1)
    with pytest.raises(ValueError):
        prime_power_decompose(12)
    with pytest.raises(ValueError):
        prime_power_decompose(1)


def test_make_field_rejections():
    with pytest.raises(NotPrime):
        make_field(9, 1)
    with pytest.raises(NotPrime):
        make_field(1, 1)
    with pytest.raises(FieldTooLarge):
        make_field(2, 11)  # 2^22 > 2^20
    # the boundary itself is allowed
    assert make_field(2, 10, limit=1 << 20).order == 1 << 20


def test_exp_log_bijectivity():
    F = make_field(7, 1)
    logs = np.arange(F.order - 1)
    assert set(F.vexp(logs).tolist()) == set(range(1, F.order))
    for i in range(F.order - 1):
        assert F.dlog_code(int(F.vexp(i))) == i
    # logs are read modulo the group order, negative ones included
    assert F.vexp(-1) == F.vexp(F.order - 2) == F.vexp(2 * F.order - 3)


def _prime_power(q):
    try:
        return prime_power_decompose(q)
    except ValueError:
        return None


# every field the tests and the benchmark build (q <= 81 and GF(3^10)), and
# three past them whose tables the unit-by-unit walk took 0.7-1.8 s to build
TABLE_FIELDS = sorted({pe for pe in map(_prime_power, range(2, 82)) if pe}
                      | {(3, 5), (3, 6), (5, 4), (2, 10)})


@pytest.mark.parametrize("pe", TABLE_FIELDS,
                         ids=lambda pe: f"GF{pe[0] ** (2 * pe[1])}")
def test_doubled_tables_match_stepped_walk(pe):
    # built outside make_field's cache, so the large tables are not kept
    F = FieldSpec(*pe, DEFAULT_ORDER_LIMIT)
    exp, log = stepped_exp_log(*pe, F.modulus)
    assert np.array_equal(F._exp, exp)
    assert np.array_equal(F._log, log)


def _digitwise_reduction(p, width, out_base):
    """Each base-(2p - 1) digit of every sum below (2p - 1)^width, reduced
    mod p and read in base ``out_base``, one digit at a time."""
    base = 2 * p - 1
    sums = np.arange(base ** width)
    out = np.zeros_like(sums)
    for i in range(width):
        out += (sums // base ** i % base % p) * out_base ** i
    return out


# every odd-p field of order at most 2^16; GF(3^10) is the one whose
# reduction tables cover half a sum
@pytest.mark.parametrize("pe", [pe for pe in map(_prime_power, range(3, 257))
                                if pe and pe[0] % 2],
                         ids=lambda pe: f"GF{pe[0] ** (2 * pe[1])}")
def test_add_tables_match_digitwise_build(pe):
    p, e = pe
    F = FieldSpec(p, e, DEFAULT_ORDER_LIMIT)
    width = e if F._half else 2 * e
    assert F._half == (0 if width == 2 * e else (2 * p - 1) ** e)
    assert np.array_equal(F._red, _digitwise_reduction(p, width, p))
    assert np.array_equal(F._redsp, _digitwise_reduction(p, width, 2 * p - 1))


def test_dlog_zero_raises():
    F = make_field(3, 1)
    with pytest.raises(ZeroArgument):
        F.dlog_code(0)
    with pytest.raises(ZeroArgument):
        F.inv_code(0)


def _exhaustive_pairs(F):
    return [(a, b) for a in range(F.order) for b in range(F.order)]


def test_ring_axioms_gf9_exhaustive():
    F = make_field(3, 1)
    add, mul = F.add_codes, F.mul_codes
    for a in range(F.order):
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, F.neg_code(a)) == 0
        if a:
            assert mul(a, F.inv_code(a)) == 1
    for a, b in _exhaustive_pairs(F):
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
    for a in range(9):
        for b in range(F.order):
            for c in range(F.order):
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 168), st.integers(0, 168), st.integers(0, 168))
def test_ring_axioms_gf169_sampled(a, b, c):
    F = make_field(13, 1)
    add, mul = F.add_codes, F.mul_codes
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert F.sub_codes(a, a) == 0
    if b:
        assert mul(F.div_codes(a, b), b) == a


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_frobenius_is_field_automorphism(p, e):
    F = make_field(p, e)
    q = F.q
    frob = F.frobenius_code
    for a in range(F.order):
        assert frob(a) == F.pow_code(a, q)
        assert frob(frob(a)) == a  # order two on GF(q^2)
    for a in range(F.order):
        for b in range(0, F.order, max(1, F.order // 16)):
            assert frob(F.add_codes(a, b)) == F.add_codes(frob(a), frob(b))
            assert frob(F.mul_codes(a, b)) == F.mul_codes(frob(a), frob(b))


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (7, 1)])
def test_norm_maps_onto_base_field(p, e):
    F = make_field(p, e)
    q = F.q
    counts = {}
    for a in range(F.order):
        na = F.norm_code(a)
        assert na == F.pow_code(a, q + 1)
        assert F.in_base_code(na)
        if a:
            counts[na] = counts.get(na, 0) + 1
    # the norm is (q+1)-to-1 onto the base units
    assert set(counts.values()) == {q + 1}
    assert len(counts) == q - 1


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (2, 2)])
def test_solve_norm_minimal_preimage(p, e):
    F = make_field(p, e)
    q = F.q
    base_units = [c for c in F.base_codes() if c]
    for u, v in zip(base_units, F.vsolve_norm(base_units).tolist()):
        assert F.pow_code(v, q + 1) == u
        # brute-force the minimal discrete log over every preimage
        best = min(i for i in range(F.order - 1)
                   if F.pow_code(int(F.vexp(i)), q + 1) == u)
        assert F.dlog_code(v) == best


def test_solve_norm_rejections():
    F = make_field(3, 1)
    with pytest.raises(ZeroArgument):
        F.vsolve_norm([1, 0])
    outside = next(a for a in range(1, F.order) if not F.in_base_code(a))
    with pytest.raises(NotInBaseField):
        F.vsolve_norm([1, outside])


def test_in_base_matches_fixed_points():
    F = make_field(5, 1)
    for a in range(F.order):
        assert F.in_base_code(a) == (F.frobenius_code(a) == a)
    assert len(F.base_codes()) == F.q


def test_zero_power_zero_is_one():
    F = make_field(3, 1)
    assert F.pow_code(0, 0) == 1
    assert F.pow_code(0, 3) == 0
    with pytest.raises(ZeroArgument):
        F.pow_code(0, -1)


def test_embed_int():
    F = make_field(7, 1)
    assert F.embed_int(10) == 3
    assert F.embed_int(8) == 1


def test_characteristic_two_addition_is_xor():
    F = make_field(2, 2)
    for a, b in _exhaustive_pairs(F):
        assert F.add_codes(a, b) == a ^ b
        assert F.neg_code(a) == a


# GF(3^10) is past the spread cap: its odd-p addition reduces each base-q
# half on its own
VECTOR_FIELDS = [(3, 1), (2, 2), (13, 1), (2, 6), (3, 4), (3, 5)]


def _vector_field_id(pe):
    return f"GF{pe[0] ** (2 * pe[1])}"


def _operands(F, rng, size):
    """Random codes, with zeros planted at the start and at random spots."""
    x = rng.integers(0, F.order, size)
    x[:8] = 0
    x[rng.integers(0, size, size // 16)] = 0
    return x


@pytest.mark.parametrize("pe", VECTOR_FIELDS, ids=_vector_field_id)
def test_vector_ops_match_scalar_ops(pe):
    F = make_field(*pe)
    rng = np.random.default_rng(F.order)
    a = _operands(F, rng, 3000)
    b = np.roll(_operands(F, rng, 3000), 4)   # zero against nonzero too
    got = (F.vadd(a, b), F.vsub(a, b), F.vmul(a, b), F.vneg(a), F.vinv(a))
    for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        want = (F.add_codes(x, y), F.sub_codes(x, y), F.mul_codes(x, y),
                F.neg_code(x), F.inv_code(x) if x else 0)
        assert tuple(int(g[i]) for g in got) == want, (x, y)
    if F.order <= 256:   # every pair, including both operands zero
        x, y = np.divmod(np.arange(F.order ** 2), F.order)
        want = [F.add_codes(u, v) for u, v in zip(x.tolist(), y.tolist())]
        assert F.vadd(x, y).tolist() == want
        want = [F.mul_codes(u, v) for u, v in zip(x.tolist(), y.tolist())]
        assert F.vmul(x, y).tolist() == want


@pytest.mark.parametrize("pe", VECTOR_FIELDS, ids=_vector_field_id)
def test_fused_primitives_match_scalar_ops(pe):
    F = make_field(*pe)
    rng = np.random.default_rng(F.order + 1)
    a, x, r = (_operands(F, rng, 600) for _ in range(3))
    t = rng.integers(1, F.order, 600)
    got = F.veliminate(a, x, r, t)
    for i in range(600):
        xr = F.mul_codes(int(x[i]), int(r[i]))
        assert got[i] == F.sub_codes(int(a[i]), F.div_codes(xr, int(t[i])))
    # broadcast as one elimination step uses it, and the default t = 1
    got = F.veliminate(a[:40].reshape(8, 5), x[:8, None], r[None, :5])
    for i in range(8):
        for j in range(5):
            xr = F.mul_codes(int(x[i]), int(r[j]))
            assert got[i, j] == F.sub_codes(int(a[5 * i + j]), xr)
    coeffs = _operands(F, rng, 30 * 7).reshape(30, 7)
    rows = _operands(F, rng, 7 * 11).reshape(7, 11)
    got = F.vcombine(coeffs, rows)
    for i in range(30):
        for j in range(11):
            acc = 0
            for d in range(7):
                acc = F.add_codes(acc, F.mul_codes(int(coeffs[i, d]), int(rows[d, j])))
            assert got[i, j] == acc
    prods = F.vprod(coeffs, axis=1)
    exps = rng.integers(0, 3 * F.order, 30)
    pows = F.vpow(coeffs[:, 0], exps)
    for i in range(30):
        acc = 1
        for c in coeffs[i].tolist():
            acc = F.mul_codes(acc, c)
        assert prods[i] == acc
        assert pows[i] == F.pow_code(int(coeffs[i, 0]), int(exps[i]))


def test_check_modulus():
    check_modulus(3, 1, (2, 1, 1))
    with pytest.raises(NonCanonicalModulus):
        check_modulus(3, 1, (1, 0, 1))
    # the field parameters are checked before any modulus search
    with pytest.raises(NotPrime):
        check_modulus(9, 1, (2, 1, 1))
    with pytest.raises(FieldTooLarge):
        check_modulus(2 ** 61 - 1, 1, (2, 1, 1))


def _digits(F, code):
    """The base-p digits of a code, constant term first."""
    return tuple(code // F.p ** i % F.p for i in range(2 * F.e))


def test_gen_is_x_class():
    # the generator is the residue class of x: code == p
    for p, e in [(3, 1), (2, 2), (7, 1)]:
        F = make_field(p, e)
        g = int(F.vexp(1))
        assert g == p
        assert _digits(F, g)[1] == 1 and _digits(F, g)[0] == 0


def test_from_coeffs_roundtrip():
    # a code is its coefficients read as base-p digits, constant term first:
    # multiplying by x (code p) shifts the digits up, and x^(2e) reduces
    # through the modulus
    F = make_field(3, 2)
    x = sum(c * 3 ** i for i, c in enumerate((2, 1, 0, 2)))
    assert _digits(F, x) == (2, 1, 0, 2)
    assert x == 2 + 1 * 3 + 2 * 27
    assert _digits(F, F.mul_codes(3, 2 + 3)) == (0, 2, 1, 0)   # x * (2 + x)
    top = F.mul_codes(3, 27)                                    # x * x^3
    assert _digits(F, top) == tuple(-c % 3 for c in F.modulus[:4])
