"""RREF, kernels/images, subspace enumeration, batch rank."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import all_subspaces_bruteforce, naive_dot
import trlab.linalg as L
from trlab.errors import CapExceeded, InputError
from trlab.gfq import field_new
from trlab.linalg import (Matrix, Subspace, batch_rank, field_dot, gaussian_binomial,
                          kernel_basis, left_kernel_basis, rank, rref, subspace_bases)

F2 = field_new(2, 1)
F3 = field_new(3, 1)


def test_rref_identity_and_zero():
    assert rref(Matrix.identity(F3, 4)).rank == 4
    assert rref(Matrix.zeros(F3, 3, 5)).rank == 0


def test_rref_all_ones_f2():
    m = Matrix(F2, [[1, 1], [1, 1]])
    red = rref(m)
    assert red.rank == 1
    assert red.pivots == (0,)
    assert red.matrix.data.tolist() == [[1, 1], [0, 0]]


def test_rref_is_reduced_and_deterministic():
    rng = np.random.default_rng(3)
    for ctx in (F2, F3, field_new(2, 2)):
        for _ in range(20):
            m = Matrix(ctx, rng.integers(0, ctx.q, size=(4, 5), dtype=np.int64))
            red = rref(m)
            a = red.matrix.data
            for i, pc in enumerate(red.pivots):
                col = a[:, pc]
                assert col[i] == 1 and (np.delete(col, i) == 0).all()
            assert rref(red.matrix).matrix == red.matrix  # idempotent


def test_rank_transpose_invariant():
    rng = np.random.default_rng(5)
    for ctx in (F2, F3, field_new(2, 3)):
        for _ in range(25):
            m = Matrix(ctx, rng.integers(0, ctx.q, size=(3, 5), dtype=np.int64))
            assert rank(m) == rank(m.transpose())


def test_kernel_image_examples():
    ident = Matrix.identity(F2, 3)
    assert kernel_basis(ident).dim == 0
    assert Subspace.from_rows(F2, ident.data.T) == Subspace.full(F2, 3)
    zero = Matrix.zeros(F2, 3, 3)
    assert kernel_basis(zero) == Subspace.full(F2, 3)
    diag = Matrix(F2, [[0, 0], [0, 1]])
    assert kernel_basis(diag).basis.tolist() == [[1, 0]]
    assert Subspace.from_rows(F2, diag.data.T).basis.tolist() == [[0, 1]]


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(11)
    for ctx in (F2, F3, field_new(2, 2)):
        for _ in range(15):
            m = Matrix(ctx, rng.integers(0, ctx.q, size=(3, 4), dtype=np.int64))
            k = kernel_basis(m)
            assert k.dim == 4 - rank(m)
            for v in k.basis:
                assert not field_dot(ctx, m.data, v).any()
            lk = left_kernel_basis(m)
            for u in lk.basis:
                assert not field_dot(ctx, u[None, :], m.data).any()
            assert Subspace.from_rows(ctx, m.data.T).dim == rank(m)


def test_subspace_counts_small():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert len(subspace_bases(F2, 2, 1)) == 3
    assert len(subspace_bases(F2, 3, 1)) == 7
    assert len(subspace_bases(F2, 4, 2)) == 35


@pytest.mark.parametrize("ctx,n", [(F2, 4), (F3, 3), (field_new(2, 2), 3)])
def test_subspace_enumeration_complete_and_unique(ctx, n):
    for k in range(n + 1):
        subs = subspace_bases(ctx, n, k)
        assert len(subs) == gaussian_binomial(n, k, ctx.q)
        keys = {b.tobytes() for b in subs}
        assert len(keys) == len(subs)  # canonical bases are pairwise distinct
        for b in subs:
            red = rref(Matrix(ctx, b))
            assert red.rank == k and np.array_equal(red.matrix.data[:k], b)
        if ctx.q ** (k * n) <= 3 ** 9:
            oracle = {b.tobytes() for b in all_subspaces_bruteforce(ctx, n, k)}
            assert keys == oracle


def test_subspace_cap_refusal():
    with pytest.raises(CapExceeded) as exc:
        subspace_bases(F2, 40, 20)
    assert str(gaussian_binomial(40, 20, 2)) in str(exc.value)


def test_gaussian_binomial_refuses_a_huge_exponent_at_once():
    # q^(k n) bounds the count and every power taken; past GRID_BUDGET bits
    # it is refused before any power, where 3^(2^63) would never finish
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="Gaussian binomial"):
        gaussian_binomial(2 ** 63, 1, 3)
    with pytest.raises(CapExceeded):
        gaussian_binomial(2 ** 63, 2 ** 63 - 1, 3)  # the same count as k = 1
    assert time.perf_counter() - start < 1.0
    assert gaussian_binomial(2 ** 63, 0, 3) == gaussian_binomial(2 ** 63, 2 ** 63, 3) == 1
    assert all(gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
               for q in (2, 3, 4) for n in range(7) for k in range(n + 1))
    with pytest.raises(InputError):
        gaussian_binomial(3, 1, 1)


def test_subspace_from_rows_canonical():
    rng = np.random.default_rng(23)
    for _ in range(20):
        rows = rng.integers(0, 3, size=(3, 4), dtype=np.int64)
        s1 = Subspace.from_rows(F3, rows)
        perm = rows[rng.permutation(3)]
        s2 = Subspace.from_rows(F3, perm)
        assert s1 == s2 and hash(s1) == hash(s2)


def test_subspace_contains():
    s = Subspace.from_rows(F2, [[1, 0, 1], [0, 1, 0]])
    assert s.contains_vectors([[1, 1, 1]])
    assert not s.contains_vectors([[0, 0, 1]])
    assert s.contains_vectors(Subspace.from_rows(F2, [[1, 1, 1]]).basis)
    assert Subspace.full(F2, 3).contains_vectors(s.basis)


def test_bilinear_restriction_consistency():
    # restriction of M to W1 x W2 vanishes iff B1 M B2^T = 0, checked
    # against scalar per-pair evaluation
    rng = np.random.default_rng(29)
    for ctx in (F2, F3):
        for _ in range(30):
            m = rng.integers(0, ctx.q, size=(3, 3), dtype=np.int64)
            b1 = subspace_bases(ctx, 3, 2)[rng.integers(0, gaussian_binomial(3, 2, ctx.q))]
            b2 = subspace_bases(ctx, 3, 1)[rng.integers(0, gaussian_binomial(3, 1, ctx.q))]
            prod = field_dot(ctx, field_dot(ctx, b1, m), b2.T)
            scalar_zero = True
            for u in b1:
                for v in b2:
                    acc = 0
                    for i in range(3):
                        for j in range(3):
                            acc = ctx.add(acc, ctx.mul(ctx.mul(int(u[i]), int(m[i, j])), int(v[j])))
                    if acc:
                        scalar_zero = False
            assert (not prod.any()) == scalar_zero


def test_batch_rank_matches_rref():
    rng = np.random.default_rng(31)
    for ctx in (F2, F3, field_new(2, 2), field_new(2, 4)):
        mats = rng.integers(0, ctx.q, size=(40, 3, 4), dtype=np.int64)
        got = batch_rank(ctx, mats)
        want = [rref(Matrix(ctx, m)).rank for m in mats]
        assert got.tolist() == want


RANK_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 4), (3, 4)]


@st.composite
def _rank_stacks(draw):
    """(p, e, stack): B in 1..24 of m x n matrices, m and n in 1..5; each is
    random, zero, a rank-1 outer product, random with a repeated row, or
    random with its leading rows zero, so that one stack's members finish
    their pivots at different columns."""
    p, e = draw(st.sampled_from(RANK_FIELDS))
    nb, m, n = draw(st.integers(1, 24)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    q = p ** e
    ctx = field_new(p, e)
    mats = []
    for _ in range(nb):
        kind = draw(st.sampled_from(["random", "zero", "outer", "repeat", "late"]))
        cells = st.lists(st.integers(0, q - 1), min_size=m * n, max_size=m * n)
        a = np.array(draw(cells), dtype=np.int64).reshape(m, n)
        if kind == "zero":
            a[:] = 0
        elif kind == "outer":
            u = np.array(draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m)))
            a = ctx.mul_arr(u[:, None], a[0][None, :])
        elif kind == "repeat" and m > 1:
            a[draw(st.integers(1, m - 1))] = a[0]
        elif kind == "late" and m > 1:
            a[:draw(st.integers(1, m - 1))] = 0
        mats.append(a)
    return p, e, np.stack(mats)


@settings(max_examples=150, deadline=None)
@given(case=_rank_stacks())
def test_batch_rank_matches_rref_property(case):
    p, e, mats = case
    ctx = field_new(p, e)
    want = [rref(Matrix(ctx, a)).rank for a in mats]
    assert batch_rank(ctx, mats).tolist() == want


def test_batch_rank_edge_shapes():
    assert batch_rank(F2, np.zeros((0, 3, 3), dtype=np.int64)).tolist() == []
    assert batch_rank(F2, np.zeros((2, 0, 3), dtype=np.int64)).tolist() == [0, 0]
    assert batch_rank(F2, np.zeros((2, 3, 0), dtype=np.int64)).tolist() == [0, 0]
    assert batch_rank(F3, np.zeros((3, 2, 4), dtype=np.int64)).tolist() == [0, 0, 0]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("n,dim,rows,cols", [
    (37, 3, 3, 4),  # blocks of 5 members of 12 cells under a budget of 64
    (4, 2, 9, 9),   # one member of 81 cells is more than the budget: blocks of 1
    (6, 2, 0, 3),   # zero-row members
    (6, 2, 3, 0),   # zero-column members
    (0, 3, 2, 2),   # an empty coefficient block, as samples = 0 draws
])
def test_span_ranks_in_budget_blocks(monkeypatch, p, e, n, dim, rows, cols):
    ctx = field_new(p, e)
    rng = np.random.default_rng(n + 10 * p + e)
    coeffs = rng.integers(0, ctx.q, size=(n, dim), dtype=np.int64)
    basis = rng.integers(0, ctx.q, size=(dim, rows, cols), dtype=np.int64)
    seen, real = [], L.batch_rank

    def recording(field, mats):
        seen.append(mats.shape)
        return real(field, mats)

    monkeypatch.setattr(L, "GRID_BUDGET", 64)
    monkeypatch.setattr(L, "batch_rank", recording)
    got = L.span_ranks(ctx, coeffs, basis)
    cells = rows * cols
    assert all(math.prod(s) <= 64 or s[0] == 1 for s in seen)
    assert sum(s[0] for s in seen) == n
    if 0 < cells <= 64:
        assert len(seen) == -(-n // (64 // cells))
    members = naive_dot(ctx, coeffs, basis)
    assert got.tolist() == [rank(Matrix(ctx, m)) for m in members]


def test_matrix_validation():
    with pytest.raises(InputError):
        Matrix(F2, [[0, 2]])
    with pytest.raises(InputError):
        Matrix(F2, [1, 0])
    with pytest.raises(InputError):
        Matrix.identity(F2, 2).mul(Matrix.identity(F3, 2))


DOT_FIELDS = [(2, 1), (5, 1), (2, 2), (3, 2), (2, 3)]


@st.composite
def _dot_cases(draw):
    """(p, e, x shape, y shape, seed): x is 1-D to 3-D, y is 1-D to 3-D."""
    p, e = draw(st.sampled_from(DOT_FIELDS))
    k = draw(st.integers(0, 3))
    lead = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    trail = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    return p, e, lead + (k,), (k,) + trail, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=_dot_cases())
@example(case=(3, 2, (2, 0), (0, 3), 1))         # zero-length contracted axis
@example(case=(2, 3, (2, 3, 2), (2,), 2))        # 1-D y
@example(case=(5, 1, (3,), (3,), 3))             # vector dot vector: a scalar
@example(case=(2, 2, (0, 2), (2, 2, 3), 4))      # zero-size leading axis
def test_field_dot_matches_scalar_loop(case):
    p, e, xshape, yshape, seed = case
    ctx = field_new(p, e)
    rng = np.random.default_rng(seed)
    # about half the entries zero, so whole zero slices of x occur too
    x = rng.integers(0, ctx.q, size=xshape) * rng.integers(0, 2, size=xshape)
    y = rng.integers(0, ctx.q, size=yshape)
    got = field_dot(ctx, x, y)
    assert got.shape == xshape[:-1] + yshape[1:]
    assert got.tolist() == naive_dot(ctx, x, y).tolist()
