"""Field context construction, arithmetic laws, traces, characters."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import digitwise_add, frobenius_trace, is_irreducible_oracle, schoolbook_mul
from trlab import gfq
from trlab.errors import CapExceeded, InputError
from trlab.gfq import (FieldCtx, _is_irreducible, descriptor, digits,
                       field_from_descriptor, field_from_order, field_new)
from trlab.linalg import batch_rank, field_dot

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2)]


def test_prime_field_f2_modulus_is_x():
    ctx = field_new(2, 1)
    assert (ctx.p, ctx.e, ctx.q) == (2, 1, 2)
    assert ctx.modulus == (0, 1)


def test_f9_modulus_found_by_root_test():
    ctx = field_new(3, 2)
    # oracle: evaluate the modulus at all 9 residues lifted from GF(3);
    # a degree-2 polynomial is irreducible iff it has no root in GF(3)
    c0, c1, c2 = ctx.modulus
    assert c2 == 1
    for x in range(3):
        assert (c0 + c1 * x + x * x) % 3 != 0
    # and it is the least such encoding
    for enc in range(c0 + 3 * c1):
        lo, hi = enc % 3, enc // 3
        if any((lo + hi * x + x * x) % 3 == 0 for x in range(3)):
            continue
        pytest.fail(f"smaller irreducible encoding {enc} exists")


def test_irreducibility_matches_trial_division():
    # every monic polynomial of degree 2..4 over F2, F3, F5 and F7, and of
    # degree 5 and 6 over F2 and F3, where the root test reaches GF(p^2)
    # and GF(p^3)
    cases = [(p, e) for p in (2, 3, 5, 7) for e in (2, 3, 4)] + [(2, 5), (2, 6), (3, 5), (3, 6)]
    for p, e in cases:
        for low in itertools.product(range(p), repeat=e):
            cand = (*low, 1)
            assert _is_irreducible(cand, p) == is_irreducible_oracle(cand, p), (p, cand)


def test_modulus_is_the_least_irreducible_by_trial_division():
    # every field of order at most 2^10 with e >= 2, checked against the
    # oracle alone: its modulus is irreducible and every smaller encoding
    # of the low coefficients is not
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for e in range(2, 11):
            if p ** e > 2 ** 10:
                break
            mod = field_new(p, e).modulus
            assert len(mod) == e + 1 and mod[-1] == 1 and is_irreducible_oracle(mod, p)
            for enc in range(sum(c * p ** j for j, c in enumerate(mod[:e]))):
                assert not is_irreducible_oracle((*digits(enc, p, e).tolist(), 1), p), (p, e, enc)


def test_non_prime_p_rejected():
    with pytest.raises(InputError):
        field_new(4, 1)


def test_bad_degree_and_cap():
    with pytest.raises(InputError):
        field_new(2, 0)
    with pytest.raises(CapExceeded):
        field_new(2, 21)
    # refused before the power: p^e would take seconds, and its digits
    # could not be printed
    with pytest.raises(CapExceeded) as exc:
        field_new(3, 10 ** 7)
    assert "3^10000000" in str(exc.value) and exc.value.size is None
    with pytest.raises(CapExceeded) as exc:
        field_new(1048583, 1)  # a prime above the cap
    assert exc.value.size == 1048583
    with pytest.raises(CapExceeded):  # before seconds of Miller-Rabin
        field_new(10 ** 4200 + 7, 1)
    with pytest.raises(InputError):
        field_new(1, 30)


def test_field_from_order():
    assert field_from_order(9) is field_new(3, 2)
    assert field_from_order(8) is field_new(2, 3)
    with pytest.raises(InputError):
        field_from_order(6)
    with pytest.raises(CapExceeded):  # refused before trial division
        field_from_order((2 ** 127 - 1) * (2 ** 107 - 1))


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_field_laws_exhaustive_or_sampled(p, e):
    ctx = field_new(p, e)
    q = ctx.q
    elems = range(q) if q <= 16 else np.random.default_rng(0).integers(0, q, size=12)
    elems = [int(x) for x in elems]
    for a, b in itertools.product(elems, repeat=2):
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.sub_arr(ctx.add(a, b), b) == a
    for a, b, c in itertools.product(elems[:6], repeat=3):
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    for a in elems:
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.pow(a, q - 1) == 1


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_vector_ops_match_scalar_ops(p, e):
    ctx = field_new(p, e)
    rng = np.random.default_rng(7)
    x = rng.integers(0, ctx.q, size=50, dtype=np.int64).tolist()
    y = rng.integers(0, ctx.q, size=50, dtype=np.int64).tolist()
    nz = [a for a in x if a]
    assert ctx.add_arr(x, y).tolist() == [digitwise_add(ctx, a, b) for a, b in zip(x, y)]
    assert ctx.mul_arr(x, y).tolist() == [schoolbook_mul(ctx, a, b) for a, b in zip(x, y)]
    assert all(schoolbook_mul(ctx, a, v) == 1 for a, v in zip(nz, ctx.inv_arr(nz).tolist()))
    assert ctx.trace_arr(x).tolist() == [frobenius_trace(ctx, a) for a in x]
    # the scalar methods are the array methods on one element
    assert [ctx.add(a, b) for a, b in zip(x, y)] == ctx.add_arr(x, y).tolist()
    assert [ctx.mul(a, b) for a, b in zip(x, y)] == ctx.mul_arr(x, y).tolist()
    assert [ctx.inv(a) for a in nz] == ctx.inv_arr(nz).tolist()
    assert [ctx.trace(a) for a in x] == ctx.trace_arr(x).tolist()


def test_vector_mul_on_untabled_field():
    # 2^11 = 2048 exceeds the full-table threshold; runs the convolution path
    ctx = field_new(2, 11)
    rng = np.random.default_rng(1)
    x = rng.integers(0, ctx.q, size=40, dtype=np.int64)
    y = rng.integers(0, ctx.q, size=40, dtype=np.int64)
    got = ctx.mul_arr(x, y)
    for v, a, b in zip(got, x, y):
        assert int(v) == schoolbook_mul(ctx, int(a), int(b))


def test_vector_mul_on_digit_path_field():
    # 3^11 = 177147 exceeds the log-table threshold; exercises the generic path
    ctx = field_new(3, 11)
    rng = np.random.default_rng(2)
    x = rng.integers(0, ctx.q, size=20, dtype=np.int64)
    y = rng.integers(0, ctx.q, size=20, dtype=np.int64)
    got = ctx.mul_arr(x, y)
    for v, a, b in zip(got, x, y):
        assert int(v) == schoolbook_mul(ctx, int(a), int(b))
    assert all(int(v) == ctx.add(int(a), int(b)) for v, a, b in zip(ctx.add_arr(x, y), x, y))


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (3, 4)])
def test_mul_and_inv_tables_exhaustive(p, e):
    ctx = field_new(p, e)
    x, y = np.meshgrid(np.arange(ctx.q), np.arange(ctx.q), indexing="ij")
    want = [[schoolbook_mul(ctx, a, b) for b in range(ctx.q)] for a in range(ctx.q)]
    assert ctx.mul_arr(x, y).tolist() == want
    inv = ctx.inv_arr(np.arange(ctx.q)).tolist()
    assert inv[0] == 0
    assert all(want[a][inv[a]] == 1 for a in range(1, ctx.q))
    if p > 2:  # the addition and negation tables, on all pairs
        _check_add_neg_sub(ctx, np.arange(ctx.q), np.arange(ctx.q))


def _check_add_neg_sub(ctx, xs, ys):
    """add_arr, neg_arr and sub_arr on every pair of xs x ys against the
    digitwise oracle, through (n, 1) x (m,) broadcasting, an int against an
    array and 0-d inputs to the scalar add."""
    xs, ys = [int(a) for a in xs], [int(b) for b in ys]
    add = ctx.add_arr(np.array(xs)[:, None], ys)
    assert add.tolist() == [[digitwise_add(ctx, a, b) for b in ys] for a in xs]
    neg = ctx.neg_arr(ys).tolist()
    assert all(digitwise_add(ctx, b, v) == 0 for b, v in zip(ys, neg))
    assert ctx.add_arr(ys, neg).tolist() == [0] * len(ys)
    sub = ctx.sub_arr(np.array(xs)[:, None], ys)
    assert sub.tolist() == [[digitwise_add(ctx, a, v) for v in neg] for a in xs]
    assert ctx.add_arr(xs[-1], ys).tolist() == add[-1].tolist()
    assert ctx.neg_arr(ys[-1]).shape == () and int(ctx.neg_arr(ys[-1])) == neg[-1]
    assert ctx.add(np.int64(xs[0]), np.array(ys[-1])) == int(add[0, -1])


def test_prime_field_multiplies_without_a_table():
    # mul_arr returns x * y % p for e = 1, so no q x q table is built; the
    # inverse table stays
    ctx = field_new(1009, 1)
    assert ctx._mul_t is None and ctx._inv is not None
    x, y = np.meshgrid(np.arange(ctx.q), np.arange(ctx.q), indexing="ij")
    assert np.array_equal(ctx.mul_arr(x, y), x * y % ctx.q)
    assert (np.arange(1, ctx.q) * ctx.inv_arr(np.arange(1, ctx.q)) % ctx.q == 1).all()


def test_add_and_neg_tables_only_for_odd_p_extensions_up_to_full_table_max():
    # GF(p^e), p odd, e >= 2, q <= 2^10 adds and negates by table; prime
    # fields work mod p, GF(2^e) by XOR and larger fields on digits
    big = field_new(3, 6)
    assert big._add_t.shape == (729, 729) and big._neg_t.shape == (729,)
    for p, e in [(3, 7), (1009, 1), (2, 4)]:
        ctx = field_new(p, e)
        assert ctx._add_t is None and ctx._neg_t is None, (p, e)


def test_tabled_fields_never_split_into_digits(monkeypatch):
    # once GF(9) and GF(81) exist, their arithmetic and the elimination and
    # contraction kernels over them read tables only
    f9, f81 = field_new(3, 2), field_new(3, 4)

    def boom(*args):
        raise AssertionError("digit path reached")

    monkeypatch.setattr(gfq, "digits", boom)
    for ctx in (f9, f81):
        xs = np.arange(ctx.q)
        for op in (ctx.add_arr, ctx.sub_arr, ctx.mul_arr):
            assert op(xs[:, None], xs).shape == (ctx.q, ctx.q)
        assert ctx.neg_arr(xs).shape == (ctx.q,)
    mats = np.random.default_rng(0).integers(0, 81, size=(4, 3, 3))
    assert batch_rank(f81, field_dot(f81, mats, np.eye(3, dtype=np.int64))).shape == (4,)


@pytest.mark.parametrize("p,e", [(2, 10), (3, 6), (31, 2), (2, 11), (3, 7), (2, 16)])
def test_mul_and_inv_sampled_on_large_fields(p, e):
    # GF(2^10), GF(3^6), GF(31^2): full tables (addition and negation too
    # for odd p); GF(2^11), GF(3^7): convolution, the digit path for
    # addition and the inverse table; GF(2^16): the longest exp table,
    # whose doubling multiplies by each step as one GF(2)-linear map
    ctx = field_new(p, e)
    rng = np.random.default_rng(p * 100 + e)
    x = rng.integers(0, ctx.q, size=300).tolist()
    y = rng.integers(1, ctx.q, size=300).tolist()
    assert ctx.mul_arr(x, y).tolist() == [schoolbook_mul(ctx, a, b) for a, b in zip(x, y)]
    assert all(schoolbook_mul(ctx, b, v) == 1 for b, v in zip(y, ctx.inv_arr(y).tolist()))
    if p > 2:
        _check_add_neg_sub(ctx, x[:40], y[:40])


@pytest.mark.parametrize("p,e", [(3, 11), (2, 17)])
def test_inv_and_trace_above_log_table_max(p, e):
    # no tables: inverses by Fermat through pow_arr, traces from the basis row
    ctx = field_new(p, e)
    rng = np.random.default_rng(p + e)
    x = rng.integers(1, ctx.q, size=12).tolist()
    assert all(schoolbook_mul(ctx, a, v) == 1 for a, v in zip(x, ctx.inv_arr(x).tolist()))
    assert ctx.trace_arr(x).tolist() == [frobenius_trace(ctx, a) for a in x]
    assert ctx.pow(x[0], -1) == ctx.inv(x[0])
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@given(st.sampled_from(SMALL_FIELDS), st.data())
@settings(max_examples=60, deadline=None)
def test_distributivity_hypothesis(pe, data):
    ctx = field_new(*pe)
    a = data.draw(st.integers(0, ctx.q - 1))
    b = data.draw(st.integers(0, ctx.q - 1))
    c = data.draw(st.integers(0, ctx.q - 1))
    assert ctx.mul(ctx.add(a, b), c) == ctx.add(ctx.mul(a, c), ctx.mul(b, c))


def test_coeffs_roundtrip():
    ctx = field_new(3, 3)
    for x in range(ctx.q):
        cs = digits(x, 3, 3).tolist()
        assert len(cs) == 3 and all(0 <= c < 3 for c in cs)
        assert sum(c * 3 ** j for j, c in enumerate(cs)) == x


def test_trace_basics():
    assert field_new(2, 1).trace(1) == 1
    for p, e in SMALL_FIELDS:
        ctx = field_new(p, e)
        assert ctx.trace(0) == 0
        # GF(p)-linearity and Frobenius invariance
        rng = np.random.default_rng(p * 10 + e)
        for _ in range(20):
            x = int(rng.integers(0, ctx.q))
            y = int(rng.integers(0, ctx.q))
            assert ctx.trace(ctx.add(x, y)) == (ctx.trace(x) + ctx.trace(y)) % p
            assert ctx.trace(ctx.pow(x, p)) == ctx.trace(x)
        assert set(ctx.trace(x) for x in range(ctx.q)) == set(range(p))


def test_trace_f4_frobenius_sum():
    ctx = field_new(2, 2)
    g = 2  # the generator alpha
    direct = ctx.add(g, ctx.pow(g, 2))
    assert ctx.trace(g) == direct == 1


def test_char_values():
    f2 = field_new(2, 1)
    assert f2.char_table(1)[0] == pytest.approx(1)
    assert f2.char_table(1)[1] == pytest.approx(-1)
    f3 = field_new(3, 1)
    assert f3.char_table(1)[1] == pytest.approx(cmath.exp(2j * math.pi / 3))
    with pytest.raises(InputError):
        f3.char_table(3)
    with pytest.raises(InputError):
        f2.char_table(0)


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_char_additivity_and_orthogonality(p, e):
    ctx = field_new(p, e)
    for j in range(1, p):
        table = ctx.char_table(j)
        assert abs(table.sum()) < 1e-9  # orthogonality of a nontrivial character
        rng = np.random.default_rng(j)
        for _ in range(15):
            x = int(rng.integers(0, ctx.q))
            y = int(rng.integers(0, ctx.q))
            assert table[ctx.add(x, y)] == pytest.approx(table[x] * table[y])


def test_extension_embedding_is_homomorphism():
    for (p, e), k in [((2, 1), 4), ((2, 2), 2), ((3, 1), 3), ((3, 2), 2), ((5, 1), 4)]:
        ctx = field_new(p, e)
        ext, emb = ctx.extension(k)
        assert ext.q == ctx.q ** k
        assert emb[0] == 0 and emb[1] == 1
        rng = np.random.default_rng(17)
        for _ in range(25):
            x = int(rng.integers(0, ctx.q))
            y = int(rng.integers(0, ctx.q))
            assert int(emb[ctx.add(x, y)]) == ext.add(int(emb[x]), int(emb[y]))
            assert int(emb[ctx.mul(x, y)]) == ext.mul(int(emb[x]), int(emb[y]))


def test_extension_caching_and_identity():
    ctx = field_new(2, 2)
    e1, t1 = ctx.extension(2)
    e2, t2 = ctx.extension(2)
    assert e1 is e2 and t1 is t2
    same, ident = ctx.extension(1)
    assert same is ctx
    assert np.array_equal(ident, np.arange(ctx.q))


def test_descriptor_roundtrip():
    ctx = field_new(3, 2)
    assert field_from_descriptor(descriptor(ctx)) is ctx
    with pytest.raises(InputError):
        field_from_descriptor({"p": 3})
    with pytest.raises(InputError):
        field_from_descriptor({"p": 3.0, "e": 2})


@settings(max_examples=100, deadline=None)
@given(base=st.integers(2, 1000), n=st.integers(0, 6),
       xs=st.lists(st.integers(0, 2 ** 40), max_size=8))
def test_digits_round_trip_against_divmod(base, n, xs):
    got = digits(np.array(xs, dtype=np.int64), base, n)
    assert got.shape == (len(xs), n)
    for row, x in zip(got.tolist(), xs):
        want, t = [], x
        for _ in range(n):
            t, r = divmod(t, base)
            want.append(r)
        assert row == want
        if x < base ** n:
            assert sum(d * base ** j for j, d in enumerate(row)) == x


def test_digits_of_a_scalar_and_a_grid():
    assert digits(11, 3, 3).tolist() == [2, 0, 1]
    grid = np.arange(12).reshape(3, 4)
    assert digits(grid, 5, 2).shape == (3, 4, 2)
    assert (digits(grid, 5, 2) @ [1, 5]).tolist() == grid.tolist()
