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
    Felt,
    canonical_modulus,
    check_modulus,
    field_for_q,
    make_field,
    prime_power_decompose,
)

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
    seen = {F.from_log(i).code for i in range(F.order - 1)}
    assert seen == set(range(1, F.order))
    for i in range(F.order - 1):
        assert F.from_log(i).log == i


def test_dlog_zero_raises():
    F = make_field(3, 1)
    with pytest.raises(ZeroArgument):
        F.dlog(F.zero)
    with pytest.raises(ZeroArgument):
        F.zero.inv()


def _exhaustive_pairs(F):
    return [(a, b) for a in F.elements() for b in F.elements()]


def test_ring_axioms_gf9_exhaustive():
    F = make_field(3, 1)
    elts = list(F.elements())
    for a in elts:
        assert a + F.zero == a
        assert a * F.one == a
        assert a + (-a) == F.zero
        if a:
            assert a * a.inv() == F.one
    for a, b in _exhaustive_pairs(F):
        assert a + b == b + a
        assert a * b == b * a
    for a in elts[:9]:
        for b in elts:
            for c in elts:
                assert a * (b + c) == a * b + a * c


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 168), st.integers(0, 168), st.integers(0, 168))
def test_ring_axioms_gf169_sampled(ca, cb, cc):
    F = make_field(13, 1)
    a, b, c = F.from_code(ca), F.from_code(cb), F.from_code(cc)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == F.zero
    if b:
        assert (a / b) * b == a


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_frobenius_is_field_automorphism(p, e):
    F = make_field(p, e)
    q = F.q
    for a in F.elements():
        assert a.conj() == a ** q
        assert a.conj().conj() == a  # order two on GF(q^2)
    for a in F.elements():
        for b in list(F.elements())[:: max(1, F.order // 16)]:
            assert (a + b).conj() == a.conj() + b.conj()
            assert (a * b).conj() == a.conj() * b.conj()


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (7, 1)])
def test_norm_maps_onto_base_field(p, e):
    F = make_field(p, e)
    q = F.q
    counts = {}
    for a in F.elements():
        na = a.norm()
        assert na == a ** (q + 1)
        assert na.in_base()
        if a:
            counts[na.code] = counts.get(na.code, 0) + 1
    # the norm is (q+1)-to-1 onto the base units
    assert set(counts.values()) == {q + 1}
    assert len(counts) == q - 1


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (2, 2)])
def test_solve_norm_minimal_preimage(p, e):
    F = make_field(p, e)
    q = F.q
    base_units = [F.from_code(c) for c in F.base_codes() if c]
    for u in base_units:
        v = F.solve_norm(u)
        assert v ** (q + 1) == u
        # brute-force the minimal discrete log over every preimage
        best = min(i for i in range(F.order - 1) if F.from_log(i) ** (q + 1) == u)
        assert v.log == best


def test_solve_norm_rejections():
    F = make_field(3, 1)
    with pytest.raises(ZeroArgument):
        F.solve_norm(F.zero)
    outside = next(a for a in F.elements() if a and not a.in_base())
    with pytest.raises(NotInBaseField):
        F.solve_norm(outside)


def test_in_base_matches_fixed_points():
    F = make_field(5, 1)
    for a in F.elements():
        assert a.in_base() == (a.conj() == a)
    assert len(F.base_codes()) == F.q


def test_split_code_reconstructs():
    F = make_field(5, 1)
    g = F.gen
    for a in F.elements():
        a0, a1 = F.split_code(a.code)
        z0, z1 = F.from_code(a0), F.from_code(a1)
        assert z0.in_base() and z1.in_base()
        assert z0 + z1 * g == a


def test_zero_power_zero_is_one():
    F = make_field(3, 1)
    assert F.zero ** 0 == F.one
    assert F.zero ** 3 == F.zero
    with pytest.raises(ZeroArgument):
        F.zero ** -1


def test_embed_int():
    F = make_field(7, 1)
    assert F.from_code(F.embed_int(10)).code == 3
    m = F.from_code(F.embed_int(8))
    assert m == F.one


def test_characteristic_two_addition_is_xor():
    F = make_field(2, 2)
    for a in F.elements():
        for b in F.elements():
            assert (a + b).code == a.code ^ b.code
            assert (-a) == a


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


def test_felt_ordering_and_hash():
    F = make_field(3, 1)
    elts = sorted(F.elements())
    assert [x.code for x in elts] == list(range(9))
    assert len({hash(x) for x in elts}) == 9
    G = make_field(5, 1)
    with pytest.raises(TypeError):
        _ = F.one < G.one


def test_check_modulus():
    F = make_field(3, 1)
    check_modulus(F, (2, 1, 1))
    with pytest.raises(NonCanonicalModulus):
        check_modulus(F, (1, 0, 1))


def test_gen_is_x_class():
    # the generator is the residue class of x: code == p
    for p, e in [(3, 1), (2, 2), (7, 1)]:
        F = make_field(p, e)
        assert F.gen.code == p
        assert F.gen.coeffs[1] == 1 and F.gen.coeffs[0] == 0


def test_from_coeffs_roundtrip():
    # a code is its coefficients read as base-p digits, constant term first
    F = make_field(3, 2)
    x = F.from_code(sum(c * 3 ** i for i, c in enumerate((2, 1, 0, 2))))
    assert x.coeffs == (2, 1, 0, 2)
    assert x.code == 2 + 1 * 3 + 2 * 27
