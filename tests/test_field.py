"""Field layer tests.

The canonical moduli below were computed by an independent oracle: naive
irreducibility by trial division plus an explicit order-of-x walk, scanning
candidates in the integer-encoding order (constant term = least significant
base-p digit).  They are frozen here, with the moduli of every other field
the tests build; the search in the package must reproduce them exactly.
"""
from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrs import field
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

from oracle import ScalarField, stepped_exp_log

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
    # every other field of TABLE_FIELDS, recorded from the package's earlier
    # search, which took powers of x by polynomial arithmetic mod each
    # candidate instead of powers of its companion matrix
    (2, 4): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (19, 1): (2, 1, 1),
    (23, 1): (7, 1, 1),
    (5, 2): (2, 2, 1, 0, 1),
    (3, 3): (2, 1, 0, 0, 0, 0, 1),
    (29, 1): (3, 1, 1),
    (31, 1): (12, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (37, 1): (5, 1, 1),
    (41, 1): (12, 1, 1),
    (43, 1): (3, 1, 1),
    (47, 1): (13, 1, 1),
    (7, 2): (5, 3, 1, 0, 1),
    (53, 1): (5, 1, 1),
    (59, 1): (2, 1, 1),
    (61, 1): (2, 1, 1),
    (2, 6): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (67, 1): (12, 1, 1),
    (71, 1): (11, 1, 1),
    (73, 1): (11, 1, 1),
    (79, 1): (3, 1, 1),
    (3, 4): (2, 0, 0, 1, 0, 0, 0, 0, 1),
    (3, 5): (2, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (5, 4): (3, 2, 1, 0, 0, 0, 0, 0, 1),
    (3, 6): (2, 2, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
}


@pytest.mark.parametrize("pe,expected", sorted(FROZEN_MODULI.items()))
def test_canonical_modulus_matches_oracle(pe, expected):
    p, e = pe
    assert canonical_modulus(p, 2 * e) == expected


def test_canonical_modulus_at_the_order_limit():
    # both ends of p^degree <= 2^20: the largest prime at degree 2, and
    # p = 2 at degree 20; no tables are built
    assert canonical_modulus(1021, 2) == (10, 1, 1)
    assert canonical_modulus(2, 20) == (1, 0, 0, 1) + (0,) * 16 + (1,)


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
    assert make_field(2, 10).order == DEFAULT_ORDER_LIMIT == 1 << 20


def test_exp_log_bijectivity():
    F = make_field(7, 1)
    logs = np.arange(F.order - 1)
    assert set(F.vexp(logs).tolist()) == set(range(1, F.order))
    for i in range(F.order - 1):
        assert F.vlog(int(F.vexp(i))) == i
    # logs are read modulo the group order, negative ones included
    assert F.vexp(-1) == F.vexp(F.order - 2) == F.vexp(2 * F.order - 3)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1), (2, 6), (3, 4)],
                         ids=["GF9", "GF16", "GF25", "GF4096", "GF6561"])
def test_vlog_matches_oracle_powers(p, e):
    # x, the residue class of the generator, has digits (0, 1): code p
    F = make_field(p, e)
    S = ScalarField(F)
    units = np.arange(1, F.order)[:, None]
    logs = F.vlog(units)
    assert logs.shape == units.shape
    assert sorted(logs.ravel().tolist()) == list(range(F.order - 1))
    for a, log in zip(units.ravel().tolist(), logs.ravel().tolist()):
        assert S.pow(p, log) == a


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
    F = FieldSpec(*pe)
    assert F.modulus == FROZEN_MODULI[pe]
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
    F = FieldSpec(p, e)
    width = e if F._half else 2 * e
    assert F._half == (0 if width == 2 * e else (2 * p - 1) ** e)
    assert np.array_equal(F._red, _digitwise_reduction(p, width, p))
    assert np.array_equal(F._redsp, _digitwise_reduction(p, width, 2 * p - 1))


def test_dlog_zero_raises():
    F = make_field(3, 1)
    with pytest.raises(ZeroArgument):
        F.vlog(0)
    with pytest.raises(ZeroArgument):
        F.vlog(np.array([[1, 2], [0, 4]]))
    with pytest.raises(ZeroArgument):
        ScalarField(F).inv(0)
    assert F.vinv(0) == 0


def _field_axioms(F, a, b, c):
    """The field axioms on the v* ops, over broadcast arrays of codes."""
    add, mul = F.vadd, F.vmul
    assert (add(a, 0) == a).all() and (mul(a, 1) == a).all()
    assert (add(a, F.vneg(a)) == 0).all() and (F.vsub(a, a) == 0).all()
    units = a[a != 0]
    assert (mul(units, F.vinv(units)) == 1).all()
    assert (add(a, b) == add(b, a)).all() and (mul(a, b) == mul(b, a)).all()
    assert (add(add(a, b), c) == add(a, add(b, c))).all()
    assert (mul(mul(a, b), c) == mul(a, mul(b, c))).all()
    assert (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))).all()
    assert (F.vsub(add(a, b), b) == a).all()
    assert (np.where(b == 0, a, mul(mul(a, F.vinv(b)), b)) == a).all()


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)],
                         ids=["GF9", "GF16", "GF25"])
def test_ring_axioms_exhaustive(p, e):
    F = make_field(p, e)
    _field_axioms(F, *np.meshgrid(*[np.arange(F.order)] * 3, indexing="ij",
                                  sparse=True))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 168)] * 3), min_size=1, max_size=64))
def test_ring_axioms_gf169_sampled(triples):
    _field_axioms(make_field(13, 1), *np.array(triples).T)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_frobenius_is_field_automorphism(p, e):
    F = make_field(p, e)
    S = ScalarField(F)
    a, b = np.arange(F.order)[:, None], np.arange(F.order)

    def frob(x):
        return F.vpow(x, F.q)

    assert frob(b).tolist() == [S.frobenius(x) for x in range(F.order)]
    assert (frob(frob(b)) == b).all()  # order two on GF(q^2)
    assert (frob(F.vadd(a, b)) == F.vadd(frob(a), frob(b))).all()
    assert (frob(F.vmul(a, b)) == F.vmul(frob(a), frob(b))).all()


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (7, 1)])
def test_norm_maps_onto_base_field(p, e):
    F = make_field(p, e)
    q = F.q
    norms = F.vpow(np.arange(F.order), q + 1)
    assert norms.tolist() == [ScalarField(F).norm(a) for a in range(F.order)]
    # the norm is (q+1)-to-1 onto the base units
    values, counts = np.unique(norms[1:], return_counts=True)
    assert set(counts.tolist()) == {q + 1}
    assert values.tolist() == [c for c in F.base_codes() if c]


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (2, 2)])
def test_solve_norm_minimal_preimage(p, e):
    F = make_field(p, e)
    S = ScalarField(F)
    # norms[i] is the norm of g^i, so norms.index(u) is the minimal
    # discrete log over every preimage of u
    norms = [S.norm(g) for g in F.vexp(np.arange(F.order - 1)).tolist()]
    base_units = [c for c in F.base_codes() if c]
    for u, v in zip(base_units, F.vsolve_norm(base_units).tolist()):
        assert S.norm(v) == u
        assert F.vlog(v) == norms.index(u)


def test_solve_norm_rejections():
    F = make_field(3, 1)
    with pytest.raises(ZeroArgument):
        F.vsolve_norm([1, 0])
    outside = next(a for a in range(1, F.order) if not ScalarField(F).in_base(a))
    with pytest.raises(NotInBaseField):
        F.vsolve_norm([1, outside])


def test_in_base_matches_fixed_points():
    F = make_field(5, 1)
    S = ScalarField(F)
    assert F.base_codes() == [a for a in range(F.order) if S.in_base(a)]
    assert len(F.base_codes()) == F.q


def test_zero_power_zero_is_one():
    F = make_field(3, 1)
    assert F.vpow([0, 0, 2], [0, 3, 0]).tolist() == [1, 0, 1]
    S = ScalarField(F)
    assert (S.pow(0, 0), S.pow(0, 3), S.pow(2, 0)) == (1, 0, 1)
    with pytest.raises(ZeroArgument):
        S.pow(0, -1)


def test_embed_int():
    F = make_field(7, 1)
    assert F.embed_int(10) == 3
    assert F.embed_int(8) == 1


def _digitwise_sum(p, d, a, b):
    """The sum of two codes of GF(p^d), digit by digit mod p."""
    out = 0
    for j in reversed(range(d)):
        out = out * p + (a // p ** j + b // p ** j) % p
    return out


def test_characteristic_two_addition_is_xor():
    # the package and the oracle both add by XOR at p = 2; both are held to
    # the digitwise sum mod 2, which is computed here and not by either
    for e in (1, 2, 3):
        F = make_field(2, e)
        S = ScalarField(F)
        a, b = np.divmod(np.arange(F.order ** 2), F.order)
        want = [_digitwise_sum(2, 2 * e, x, y)
                for x, y in zip(a.tolist(), b.tolist())]
        assert want == (a ^ b).tolist()
        assert F.vadd(a, b).tolist() == want
        assert [S.add(x, y) for x, y in zip(a.tolist(), b.tolist())] == want
        assert (F.vneg(b) == b).all()


@pytest.mark.parametrize("e", (1, 3))
def test_characteristic_two_negation_copies(e):
    # at p = 2 each code is its own negative, so vneg keeps no table: it
    # returns an equal int64 array that does not alias its input
    F = make_field(2, e)
    a = np.arange(F.order, dtype=np.int64).reshape(2, -1)
    neg = F.vneg(a)
    assert neg.dtype == np.int64 and (neg == a).all()
    assert not np.shares_memory(neg, a)


@pytest.mark.parametrize("e", range(1, 11), ids=lambda e: f"GF{4 ** e}")
def test_oracle_binary_product_matches_schoolbook(e):
    # at p = 2 the oracle multiplies by shift and XOR; on random operands up
    # to GF(2^20) it must give its own schoolbook digit product
    S = ScalarField(make_field(2, e))
    rng = np.random.default_rng(e)
    a, b = rng.integers(0, S.order, (2, 400)).tolist()
    a += [0, 1, S.order - 1]
    b += [S.order - 1, S.order - 1, S.order - 1]
    assert ([S._binary_product(x, y) for x, y in zip(a, b)]
            == [S._schoolbook_product(x, y) for x, y in zip(a, b)])


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


def _vector_op_mismatches(F, a, b):
    """The pairs (x, y) of ``a`` and ``b`` where vadd, vsub, vmul, vneg or
    vinv differ from the oracle.  vinv(x) is held to the oracle's product:
    x * y = 1 has one solution, and vinv(0) is 0."""
    S = ScalarField(F)
    got = zip(a.tolist(), b.tolist(), F.vadd(a, b).tolist(),
              F.vsub(a, b).tolist(), F.vmul(a, b).tolist(),
              F.vneg(a).tolist(), F.vinv(a).tolist())
    return [(x, y) for x, y, s, d, m, n, i in got
            if (s, d, m, n, S.mul(x, i)) != (S.add(x, y), S.sub(x, y),
                                             S.mul(x, y), S.neg(x), int(x != 0))]


@pytest.mark.parametrize("pe", VECTOR_FIELDS, ids=_vector_field_id)
def test_vector_ops_match_scalar_ops(pe):
    F = make_field(*pe)
    rng = np.random.default_rng(F.order)
    a = _operands(F, rng, 3000)
    b = np.roll(_operands(F, rng, 3000), 4)   # zero against nonzero too
    assert not _vector_op_mismatches(F, a, b)
    if F.order <= 256:   # every pair, including both operands zero
        x, y = np.divmod(np.arange(F.order ** 2), F.order)
        assert not _vector_op_mismatches(F, x, y)
        units = np.arange(1, F.order)
        assert F.vinv(units).tolist() == [ScalarField(F).inv(u) for u in units.tolist()]


def test_oracle_catches_a_log_table_defect():
    # a private GF(81), so the cached one keeps its tables; with the logs of
    # two units swapped, vmul(a, 1) reads b.  A reference that looked up the
    # same tables would make the same mistake and agree.
    F = FieldSpec(3, 2)
    a, b = 5, 7
    F._log[[a, b]] = F._log[[b, a]]
    assert F.vmul(a, 1) == b
    x, y = np.divmod(np.arange(F.order ** 2), F.order)
    assert (a, 1) in _vector_op_mismatches(F, x, y)
    assert not _vector_op_mismatches(make_field(3, 2), x, y)


@pytest.mark.parametrize("pe", VECTOR_FIELDS, ids=_vector_field_id)
def test_fused_primitives_match_scalar_ops(pe):
    F = make_field(*pe)
    S = ScalarField(F)
    rng = np.random.default_rng(F.order + 1)
    a, x, r = (_operands(F, rng, 600) for _ in range(3))
    t = rng.integers(1, F.order, 600)
    got = F.veliminate(a, x, r, t)
    for i in range(600):
        # got = a - x * r / t, that is (a - got) * t = x * r as t != 0
        assert (S.mul(S.sub(int(a[i]), int(got[i])), int(t[i]))
                == S.mul(int(x[i]), int(r[i])))
    # broadcast as one elimination step uses it, and the default t = 1
    got = F.veliminate(a[:40].reshape(8, 5), x[:8, None], r[None, :5])
    for i in range(8):
        for j in range(5):
            xr = S.mul(int(x[i]), int(r[j]))
            assert got[i, j] == S.sub(int(a[5 * i + j]), xr)
    coeffs = _operands(F, rng, 30 * 7).reshape(30, 7)
    rows = _operands(F, rng, 7 * 11).reshape(7, 11)
    got = F.vdot(coeffs, rows)
    for i in range(30):
        for j in range(11):
            acc = 0
            for d in range(7):
                acc = S.add(acc, S.mul(int(coeffs[i, d]), int(rows[d, j])))
            assert got[i, j] == acc
    prods = F.vprod(coeffs, axis=1)
    exps = rng.integers(0, 3 * F.order, 30)
    pows = F.vpow(coeffs[:, 0], exps)
    for i in range(30):
        acc = 1
        for c in coeffs[i].tolist():
            acc = S.mul(acc, c)
        assert prods[i] == acc
        assert pows[i] == S.pow(int(coeffs[i, 0]), int(exps[i]))


def _scalar_dot(S, A, B):
    """A B by ScalarField ops, one term at a time."""
    return [[functools.reduce(S.add, [S.mul(x, y) for x, y in zip(row, col)], 0)
             for col in zip(*B.tolist())] for row in A.tolist()]


def test_vsum_matches_scalar():
    # a field sum along an axis is a vdot by a column of ones
    for (p, e) in [(3, 1), (2, 2), (5, 1)]:
        F = make_field(p, e)
        S = ScalarField(F)
        rng = random.Random(p)
        arr = np.array([[rng.randrange(F.order) for _ in range(7)] for _ in range(5)])
        got = F.vdot(arr, np.ones((7, 1), dtype=np.int64))[:, 0]
        for i in range(5):
            acc = 0
            for c in arr[i]:
                acc = S.add(acc, int(c))
            assert got[i] == acc


# GF(3^10) is the split-half field: its folds reduce each half on its own
DOT_FIELDS = [(2, 1), (2, 2), (3, 1), (5, 1), (3, 2), (3, 4), (3, 5)]


@pytest.mark.parametrize("pe", DOT_FIELDS, ids=_vector_field_id)
def test_vsum_folds_every_axis_length(pe):
    # a field sum along any axis, as a vdot of the axis-last array by a
    # column of ones; lengths 3, 7 and 9 leave an odd middle row in the
    # first fold round, and 9 in the next two rounds as well
    F = make_field(*pe)
    assert bool(F._half) == (pe == (3, 5))
    S = ScalarField(F)
    rng = np.random.default_rng(F.order + 2)
    for axis in range(3):
        for length in (0, 1, 2, 3, 7, 8, 9):
            shape = [2, 3]
            shape.insert(axis, length)
            a = _operands(F, rng, 6 * length).reshape(shape)
            rows = np.moveaxis(a, axis, -1).reshape(6, length)
            got = F.vdot(rows, np.ones((length, 1), dtype=np.int64))
            assert got.shape == (6, 1) and got.dtype == np.int64
            want = [functools.reduce(S.add, row, 0) for row in rows.tolist()]
            assert got.ravel().tolist() == want


@pytest.mark.parametrize("pe", DOT_FIELDS, ids=_vector_field_id)
def test_vdot_matches_scalar(monkeypatch, pe):
    # every summed length of the fold test, with I = 1 or J = 1 and zeros
    # planted in both operands, under groups of 1, 2 and 3 terms, of the
    # default bound, and of the whole axis
    F = make_field(*pe)
    S = ScalarField(F)
    rng = np.random.default_rng(F.order + 3)
    default = field._DOT_GROUP
    for I, J in ((1, 5), (4, 1), (1, 1), (3, 4)):
        for L in (1, 2, 3, 7, 8, 9):
            A = _operands(F, rng, I * L + 8)[:I * L].reshape(I, L)
            B = _operands(F, rng, L * J + 8)[8:].reshape(L, J)
            A[:, 0] = B[-1] = 0
            want = _scalar_dot(S, A, B)
            for terms in (1, 2, 3, None, L):
                bound = default if terms is None else terms * I * J
                monkeypatch.setattr(field, "_DOT_GROUP", bound)
                got = F.vdot(A, B)
                assert got.shape == (I, J) and got.dtype == np.int64
                assert got.tolist() == want, (I, L, J, terms)


def test_vdot_empty_axes_and_zero_sentinels():
    # an empty axis gives zeros of shape (I, J); a product of two zeros
    # sums two log sentinels, 6(order - 1), still inside the exp table's
    # zero tail of 7(order - 1) entries
    for pe in ((2, 2), (3, 1), (3, 5)):
        F = make_field(*pe)
        for I, L, J in ((0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0)):
            got = F.vdot(np.ones((I, L), dtype=np.int64), np.ones((L, J), dtype=np.int64))
            assert got.shape == (I, J) and got.dtype == np.int64 and not got.any()
        n_units = F.order - 1
        assert F._log[0] == 3 * n_units and len(F._spexp) == 7 * n_units
        assert not F._spexp[3 * n_units:].any()
        zeros = np.zeros((3, 4), dtype=np.int64)
        assert not F.vdot(zeros, zeros.T).any()
        units = np.ones((3, 4), dtype=np.int64)
        assert not F.vdot(zeros, units.T).any() and not F.vdot(units, zeros.T).any()


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
    assert _digits(F, F.vmul(3, 2 + 3)) == (0, 2, 1, 0)   # x * (2 + x)
    top = F.vmul(3, 27)                                    # x * x^3
    assert _digits(F, top) == tuple(-c % 3 for c in F.modulus[:4])
