"""Form evaluation, contraction, flattening, generators, polarization, JSON."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_eval, polarization_value_oracle, random_invertible
from trlab.errors import CapExceeded, InputError
from trlab.forms import (MultilinearForm, PolynomialFn, contract, evaluate,
                         flatten, gen_diagonal, gen_from_matrix, gen_random,
                         gen_rank_one, move_slot_first, polarize, poly_from_obj,
                         poly_to_obj, restrict, tensor_from_obj, tensor_to_obj)
from trlab.gfq import field_new
from trlab.linalg import Matrix, Subspace, field_dot, rank

F2 = field_new(2, 1)
F3 = field_new(3, 1)
F5 = field_new(5, 1)


def test_eval_zero_form():
    p = MultilinearForm(F3, np.zeros((2, 2, 2), dtype=np.int64))
    assert evaluate(p, [1, 2], [2, 0], [1, 1]) == 0


def test_eval_diagonal_trilinear_point():
    p = gen_diagonal(F2, 1, 3)
    assert evaluate(p, [1], [1], [1]) == 1
    assert evaluate(p, [1], [0], [1]) == 0


@pytest.mark.parametrize("ctx", [F2, F3, field_new(2, 2)])
def test_eval_matches_monomial_sum_oracle(ctx):
    rng = np.random.default_rng(41)
    for _ in range(10):
        p = gen_random(ctx, (2, 3, 2), int(rng.integers(0, 2 ** 31)))
        vecs = [rng.integers(0, ctx.q, size=n, dtype=np.int64) for n in p.dims]
        assert evaluate(p, *vecs) == naive_eval(p, vecs)


def test_eval_multilinearity():
    rng = np.random.default_rng(43)
    for ctx in (F2, F3):
        p = gen_random(ctx, (3, 2, 2), 99)
        for _ in range(10):
            u = rng.integers(0, ctx.q, size=3, dtype=np.int64)
            u2 = rng.integers(0, ctx.q, size=3, dtype=np.int64)
            v = rng.integers(0, ctx.q, size=2, dtype=np.int64)
            w = rng.integers(0, ctx.q, size=2, dtype=np.int64)
            lhs = evaluate(p, ctx.add_arr(u, u2), v, w)
            rhs = ctx.add(evaluate(p, u, v, w), evaluate(p, u2, v, w))
            assert lhs == rhs


def test_contract_zero_vector():
    p = gen_random(F3, (2, 2, 2), 7)
    c = contract(p, 1, [0, 0])
    assert c.is_zero() and c.dims == (2, 2)


def test_contract_bilinear_gives_matrix_vector():
    m = Matrix(F3, [[1, 2], [0, 1]])
    p = gen_from_matrix(m)
    y = np.array([2, 1], dtype=np.int64)
    c = contract(p, 1, y)
    assert c.coeffs.tolist() == field_dot(F3, m.data, y).tolist()


def test_contract_diagonal_example():
    p = gen_diagonal(F2, 2, 3)
    c = contract(p, 2, [1, 0])
    assert c.coeffs.tolist() == [[1, 0], [0, 0]]


def test_contract_flatten_consistency():
    rng = np.random.default_rng(47)
    for ctx in (F2, F3):
        p = gen_random(ctx, (2, 3, 2), 13)
        v = rng.integers(0, ctx.q, size=2, dtype=np.int64)
        c = contract(p, 0, v)
        viaflat = field_dot(ctx, v[None, :], flatten(p, 0).data).reshape(3, 2)
        assert np.array_equal(c.coeffs, viaflat)


def test_flatten_examples():
    z = MultilinearForm(F2, np.zeros((2, 2), dtype=np.int64))
    assert not flatten(z, 0).data.any()
    m = Matrix(F3, [[1, 2], [0, 1]])
    assert flatten(gen_from_matrix(m), 0) == m


def test_flatten_rank_gl_invariant():
    rng = np.random.default_rng(53)
    for ctx in (F2, F3):
        p = gen_random(ctx, (2, 2, 3), 17)
        base = rank(flatten(p, 0))
        for _ in range(5):
            g1 = random_invertible(ctx, 2, rng)
            g2 = random_invertible(ctx, 3, rng)
            t = p.coeffs
            # act on slots 1 and 2 only; slot-0 flattening rank must not move
            t = np.moveaxis(np.tensordot(g1.data, t, axes=(1, 1)), 0, 1) % ctx.p
            t = np.moveaxis(np.tensordot(g2.data, t, axes=(1, 2)), 0, 2) % ctx.p
            assert rank(flatten(MultilinearForm(ctx, t), 0)) == base


def test_generators():
    d = gen_diagonal(F2, 2, 3)
    assert int((d.coeffs != 0).sum()) == 2
    r1 = gen_rank_one(F3, [[1, 2], [0, 1], [2, 2]])
    assert not r1.is_zero()
    assert r1.coeffs[0, 1, 0] == F3.mul(F3.mul(1, 1), 2)
    a = gen_random(F3, (2, 2), 123)
    b = gen_random(F3, (2, 2), 123)
    c = gen_random(F3, (2, 2), 124)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_gen_rank_one_refuses_its_size_before_the_product():
    # 2^51 coefficients: refused before the first outer product is allocated
    with pytest.raises(CapExceeded):
        gen_rank_one(F2, [np.ones(1 << 17, dtype=np.int64)] * 3)


def test_rank_one_has_flattening_rank_one():
    rng = np.random.default_rng(59)
    for ctx in (F2, F3):
        vs = [rng.integers(0, ctx.q, size=n, dtype=np.int64) for n in (2, 3, 2)]
        for v in vs:
            if not v.any():
                v[0] = 1
        p = gen_rank_one(ctx, vs)
        assert all(rank(flatten(p, s)) == 1 for s in range(3))


def test_move_slot_first():
    p = gen_random(F3, (2, 3, 4), 5)
    m = move_slot_first(p, 2)
    assert m.dims == (4, 2, 3)
    assert evaluate(p, [1, 0], [0, 1, 2], [1, 1, 0, 2]) == \
        evaluate(m, [1, 1, 0, 2], [1, 0], [0, 1, 2])


def test_restrict_full_and_zero():
    p = gen_random(F2, (2, 2), 3)
    same = restrict(p, [None, Subspace.full(F2, 2)])
    assert np.array_equal(same.coeffs, p.coeffs)
    empty = restrict(p, [Subspace.zero(F2, 2), None])
    assert empty.coeffs.shape == (0, 2) and empty.is_zero()


# -- polynomial functions and polarization -----------------------------------

def test_polynomial_eval_and_degree():
    q = PolynomialFn(F3, 2, (((1, 1), 1), ((2, 0), 2)))
    assert q.degree() == 2
    assert q.evaluate([1, 2]) == (1 * 2 + 2 * 1) % 3
    vals = q.evaluate_all()
    for enc in range(9):
        pt = [enc % 3, enc // 3]
        assert vals[enc] == q.evaluate(pt)


def test_polynomial_validation():
    with pytest.raises(InputError):
        PolynomialFn(field_new(2, 2), 1, ())
    with pytest.raises(InputError):
        PolynomialFn(F3, 2, (((3, 0), 1),))
    with pytest.raises(InputError):
        PolynomialFn(F3, 2, (((1,), 1),))


def test_polarize_product_f3():
    q = PolynomialFn(F3, 2, (((1, 1), 1),))  # x1 x2
    qt = polarize(q, 2)
    assert qt.coeffs.tolist() == [[0, 1], [1, 0]]
    # alternating-sum oracle on every input pair
    for h1 in itertools.product(range(3), repeat=2):
        for h2 in itertools.product(range(3), repeat=2):
            want = polarization_value_oracle(q, [h1, h2])
            assert evaluate(qt, list(h1), list(h2)) == want


def test_polarize_zero_polynomial():
    q = PolynomialFn(F3, 2, ())
    assert polarize(q, 2).is_zero()


def test_polynomial_table_refused_before_allocation():
    # 3^15 points pass COEFF_CAP; 3^25 (a 6 TiB table) and 3^45 are past its
    # bit length, so they are refused with no size, before the power is taken
    for n, size in ((15, 3 ** 15), (25, None), (45, None)):
        with pytest.raises(CapExceeded) as exc:
            polarize(PolynomialFn(F3, n, ()), 2)
        assert exc.value.size == size


def test_polarize_cubic_f5():
    q = PolynomialFn(F5, 3, (((1, 1, 1), 1),))  # x1 x2 x3
    qt = polarize(q, 3)
    assert evaluate(qt, [1, 0, 0], [0, 1, 0], [0, 0, 1]) == 1
    want = polarization_value_oracle(q, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert want == 1
    # symmetry under all slot permutations
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(qt.coeffs, np.transpose(qt.coeffs, perm))


def test_polarize_symmetric_random():
    rng = np.random.default_rng(61)
    for _ in range(5):
        terms = []
        for exps in itertools.product(range(3), repeat=2):
            if 0 < sum(exps) <= 3:
                c = int(rng.integers(0, 5))
                if c:
                    terms.append((exps, c))
        q = PolynomialFn(F5, 2, tuple(terms))
        d = 3
        if q.degree() > d:
            continue
        qt = polarize(q, d)
        for perm in itertools.permutations(range(d)):
            assert np.array_equal(qt.coeffs, np.transpose(qt.coeffs, perm))


@st.composite
def _polarizable(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, min(p - 1, 4)))
    exps = st.tuples(*[st.integers(0, min(p - 1, d))] * n).filter(lambda e: sum(e) <= d)
    terms = draw(st.lists(st.tuples(exps, st.integers(0, p - 1)), max_size=5))
    return PolynomialFn(field_new(p, 1), n, tuple(terms)), d


@settings(max_examples=80, deadline=None)
@given(case=_polarizable())
def test_polarize_matches_the_oracle_on_every_basis_tuple(case):
    q, d = case
    coeffs = polarize(q, d).coeffs
    basis = np.eye(q.n, dtype=np.int64)
    for idx in itertools.product(range(q.n), repeat=d):
        assert coeffs[idx] == polarization_value_oracle(q, [basis[i] for i in idx])


def test_polarize_regime_errors():
    q = PolynomialFn(F3, 1, (((2,), 1),))
    with pytest.raises(InputError):
        polarize(q, 1)  # degree 2 > 1
    with pytest.raises(InputError):
        polarize(PolynomialFn(F3, 1, (((2,), 1),)), 3)  # d >= p refused


# -- serialization ------------------------------------------------------------

def test_tensor_roundtrip():
    p = gen_random(field_new(2, 2), (2, 3), 9)
    obj = tensor_to_obj(p)
    text = json.dumps(obj)
    back = tensor_from_obj(json.loads(text))
    assert back == p


def test_tensor_rejects_bad_payloads():
    good = tensor_to_obj(gen_random(F3, (2, 2), 1))
    bad_len = dict(good, coeffs=good["coeffs"][:-1])
    with pytest.raises(InputError):
        tensor_from_obj(bad_len)
    bad_range = dict(good, coeffs=[9] * 4)
    with pytest.raises(InputError):
        tensor_from_obj(bad_range)
    with pytest.raises(InputError):
        tensor_from_obj(dict(good, dims=[2, 0]))
    with pytest.raises(InputError):
        tensor_from_obj({"field": {"p": 3, "e": 1}})


def test_poly_roundtrip():
    q = PolynomialFn(F5, 2, (((1, 1), 3), ((2, 0), 1)))
    assert poly_from_obj(poly_to_obj(q)) == q
    with pytest.raises(InputError):
        poly_from_obj({"field": {"p": 5, "e": 1}, "n": 2, "terms": [{"exps": [1], "coeff": 1}]})
