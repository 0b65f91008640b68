"""Zero-set counts, analytic ranks, slice/subspace ranks, codim estimator."""

import functools
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (_vanishes_on, all_subspaces_bruteforce, enumerated_value_histogram,
                     enumerated_zero_set_count, greedy_hyperplanes, naive_charsum_rank,
                     naive_dot, naive_slice_rank, naive_subspace_rank, naive_zero_set_count,
                     random_invertible, recursive_slice_rank)
from trlab.errors import CapExceeded, InputError
from trlab.forms import (MultilinearForm, gen_diagonal, gen_from_matrix,
                         gen_random, gen_rank_one, move_slot_first)
from trlab.gfq import field_new
from trlab.linalg import (EXHAUSTIVE_SPAN_CAP, Matrix, all_vectors, gaussian_binomial, rank,
                          rref, subspace_bases)
from trlab.pencils import max_rank_reduction
from trlab.ranks import (analytic_rank_charsum, analytic_rank_count,
                         codim_estimate, generic_max_rank, schmidt_rank,
                         slice_rank_exact, subspace_rank_exact, zero_set_count)

F2 = field_new(2, 1)
F3 = field_new(3, 1)
F5 = field_new(5, 1)


# -- zero-set counting ---------------------------------------------------------

def test_zero_count_zero_form():
    p = MultilinearForm(F2, np.zeros((2, 2, 2), dtype=np.int64))
    z = zero_set_count(p, 1)
    assert (z.count, z.ambient) == (16, 4)


def test_zero_count_bilinear_identity():
    p = gen_from_matrix(Matrix.identity(F2, 2))
    assert zero_set_count(p).count == 1


def test_zero_count_diagonal_trilinear():
    p = gen_diagonal(F2, 1, 3)
    assert zero_set_count(p).count == 3
    assert naive_zero_set_count(p) == 3


@pytest.mark.parametrize("ctx,dims,e", [
    (F2, (2, 2), 1), (F2, (2, 2), 2), (F3, (2, 2), 1),
    (F2, (2, 2, 2), 1), (F2, (2, 2, 2), 2), (F3, (2, 2, 2), 1),
    (field_new(2, 2), (2, 2), 1),
])
def test_zero_count_matches_naive_enumeration(ctx, dims, e):
    for seed in range(4):
        p = gen_random(ctx, dims, seed)
        assert zero_set_count(p, e).count == naive_zero_set_count(p, e)


def test_zero_count_kernel_oracle_bilinear():
    # |Z| = q^(n2 - rank M): kernel counting, independent of the enumeration
    rng = np.random.default_rng(71)
    for ctx in (F2, F3, F5):
        for _ in range(10):
            m = Matrix(ctx, rng.integers(0, ctx.q, size=(3, 4), dtype=np.int64))
            p = gen_from_matrix(m)
            assert zero_set_count(p).count == ctx.q ** (4 - rank(m))


def test_zero_count_cap():
    p = gen_random(F5, (3, 3, 3), 0)
    with pytest.raises(CapExceeded):
        zero_set_count(p, 9)


def test_zero_count_always_contains_origin():
    rng = np.random.default_rng(73)
    for _ in range(10):
        p = gen_random(F3, (2, 2, 2), int(rng.integers(0, 999)))
        assert zero_set_count(p).count >= 1


def test_zero_count_chunked_path_matches():
    # tiny budget forces the block-recursive path; counts must not change
    import trlab.ranks as R
    p = gen_random(F3, (2, 3, 3), 5)
    want = zero_set_count(p).count
    old = R.GRID_BUDGET
    try:
        R.GRID_BUDGET = 16
        assert zero_set_count(p).count == want
    finally:
        R.GRID_BUDGET = old


ORACLE_GRID = 1 << 16  # largest Q^(n2+...+nd) the enumeration oracle is run on


@st.composite
def _zero_count_cases(draw):
    """(p, e0, dims, ext_e, seed); seed None is the zero form."""
    p, e0 = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]))
    q = p ** e0
    top = int(math.log(ORACLE_GRID) / math.log(q) + 1e-9)  # base-field ambient room
    d = draw(st.integers(1, 4))
    dims = [draw(st.integers(1, 3))]
    for i in range(1, d):
        room = top - sum(dims[1:]) - (d - 1 - i)
        dims.append(draw(st.integers(1, min(3, room))))
    ambient = sum(dims[1:])
    e_top = max(e for e in (1, 2, 3) if (q ** e) ** ambient <= ORACLE_GRID)
    ext_e = draw(st.integers(1, e_top))
    seed = draw(st.none() | st.integers(0, 2 ** 31))
    return p, e0, tuple(dims), ext_e, seed


@settings(max_examples=60, deadline=None)
@given(case=_zero_count_cases())
@example(case=(2, 1, (3,), 2, 4))              # d = 1, nonzero
@example(case=(3, 1, (2,), 1, None))           # d = 1, zero form
@example(case=(3, 2, (3, 2), 2, 7))            # d = 2, n1 != nd, GF(9) -> GF(81)
@example(case=(2, 2, (4, 1, 3), 1, 3))         # a 1 in the middle slot
@example(case=(3, 1, (2, 1, 2), 3, 11))        # odd-p lift, e = 3
@example(case=(2, 1, (2, 2, 2, 2), 2, 5))      # d = 4, p = 2 lift
@example(case=(3, 1, (2, 2, 2, 2), 1, 13))     # d = 4, recursive chunking at budget 16
@example(case=(2, 2, (2, 1, 1), 3, 9))         # GF(4) -> GF(64)
@example(case=(3, 2, (3, 3, 2), 1, None))      # zero form over GF(9)
@example(case=(3, 1, (2, 2, 1, 2), 2, 23))     # d = 4, GF(9): budget-16 blocks straddle code ranges
@example(case=(2, 1, (1, 2, 2, 1), 2, 21))     # d = 4, GF(4): and chunks of the first stack do
@example(case=(2, 1, (2, 2, 2, 2), 1, None))   # d = 4, zero form
@example(case=(5, 1, (2, 1, 2, 2), 1, 17))     # d = 4, a middle slot of dimension 1
def test_zero_count_matches_oracles(case):
    import trlab.ranks as R
    p_char, e0, dims, ext_e, seed = case
    ctx = field_new(p_char, e0)
    p = (MultilinearForm(ctx, np.zeros(dims, dtype=np.int64)) if seed is None
         else gen_random(ctx, dims, seed))
    got = zero_set_count(p, ext_e).count
    assert got == enumerated_zero_set_count(p, ext_e)
    big_q = ctx.q ** ext_e
    if big_q ** sum(dims[1:]) * math.prod(dims) <= 2048:
        assert got == naive_zero_set_count(p, ext_e)
    if big_q ** sum(dims[1:-1]) <= 729:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(R, "GRID_BUDGET", 16)
            assert zero_set_count(p, ext_e).count == got


def test_zero_count_cap_bounds_ranked_matrices():
    # 3x3x3 over F2 ranks 2^3 matrices (one per middle vector), not 2^6 tuples
    p = gen_random(F2, (3, 3, 3), 1)
    assert zero_set_count(p, cap=8).count == enumerated_zero_set_count(p)
    with pytest.raises(CapExceeded) as exc:
        zero_set_count(p, cap=7)
    assert exc.value.size == 8 and "matrix ranks" in str(exc.value)
    # refused on the count itself, before the too-large GF(5^9) is built
    with pytest.raises(CapExceeded) as exc:
        zero_set_count(gen_random(F5, (3, 3, 3), 0), 9)
    assert exc.value.size == (5 ** 9) ** 3
    # a bilinear count is one rank, whatever the field
    assert zero_set_count(gen_random(F3, (3, 4), 2), 2, cap=1).count >= 1


@pytest.mark.parametrize("p_char,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_line_vectors_hold_one_representative_per_line(p_char, e):
    # every nonzero vector is a nonzero multiple of exactly one representative,
    # whose last nonzero coordinate is 1, and slices are rows of the stack
    import trlab.ranks as R
    ctx = field_new(p_char, e)
    q = ctx.q
    place = q ** np.arange(4, dtype=np.int64)
    for n in range(1, 5):
        stack = R._AllVectors(ctx, n, lines=True)
        reps = stack[:][:, 0, :]
        assert stack.shape == ((q ** n - 1) // (q - 1), 1, n) == (len(reps), 1, n)
        assert all(v[np.flatnonzero(v)[-1]] == 1 for v in reps)
        multiples = ctx.mul_arr(np.arange(1, q)[:, None, None], reps[None])
        codes = (multiples @ place[:n]).ravel()
        assert np.array_equal(np.sort(codes), np.arange(1, q ** n))
        for a, b in itertools.combinations(range(0, len(reps) + 1, max(1, len(reps) // 7)), 2):
            assert np.array_equal(stack[a:b][:, 0, :], reps[a:b])


@pytest.mark.parametrize("ctx,dims,e,want", [
    (F3, (3, 3, 3), 2, 91), (F3, (3, 3, 3), 1, 13), (F5, (3, 3, 3), 1, 31),
    (F2, (4, 4, 4), 1, 15), (F2, (2, 2, 3, 2), 2, 105), (F3, (3, 4), 2, 1),
])
def test_zero_count_ranks_one_matrix_per_line_tuple(ctx, dims, e, want, monkeypatch):
    # prod_i (Q^n_i - 1)/(Q - 1) over the middle slots, 91 for F3 3x3x3 at e = 2
    import trlab.ranks as R
    seen, rank_of = [], R.batch_rank

    def counted(c, mats):
        seen.append(len(mats))
        return rank_of(c, mats)

    big_q = ctx.q ** e
    assert want == math.prod((big_q ** n - 1) // (big_q - 1) for n in dims[1:-1])
    p = gen_random(ctx, dims, 3)
    monkeypatch.setattr(R, "batch_rank", counted)
    assert zero_set_count(p, e).count == enumerated_zero_set_count(p, e)
    assert sum(seen) == want


@st.composite
def _cross_route_cases(draw):
    """(p, e, dims, seed): d = 2..4 over GF(2), GF(3), GF(4), GF(5), GF(9),
    q^(n1+...+nd) within the enumeration oracle's grid; seed None is the zero form."""
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]))
    top = int(math.log(ORACLE_GRID) / math.log(p ** e) + 1e-9)
    d = draw(st.integers(2, 4))
    dims = []
    for i in range(d):
        dims.append(draw(st.integers(1, min(3, top - sum(dims) - (d - 1 - i)))))
    return p, e, tuple(dims), draw(st.none() | st.integers(0, 2 ** 31))


@settings(max_examples=40, deadline=None)
@given(case=_cross_route_cases())
@example(case=(3, 2, (2, 2, 1), None))       # zero form over GF(9)
@example(case=(2, 1, (2, 2, 2, 2), 5))       # d = 4
def test_value_histogram_and_zero_count_agree_exactly(case):
    # summing psi(P) over slot 0 leaves q^n1 [functional zero], and h is
    # constant on nonzero values, so h[0] - h[c] = q^n1 |Z| for every c != 0:
    # the histogram ranks no matrix, so this checks the closed-form term
    import trlab.ranks as R
    p_char, e, dims, seed = case
    ctx = field_new(p_char, e)
    p = (MultilinearForm(ctx, np.zeros(dims, dtype=np.int64)) if seed is None
         else gen_random(ctx, dims, seed))
    h = R._value_histogram(p).tolist()
    z = zero_set_count(p).count
    assert all(h[0] - h[c] == ctx.q ** dims[0] * z for c in range(1, ctx.q))


def test_point_caps_compare_the_exponent_before_the_power():
    # (3^(10^8))^2 matrix ranks and 2^14400 points: refused at once, with
    # no size, instead of taking the power (or printing it: ValueError)
    with pytest.raises(CapExceeded) as exc:
        zero_set_count(gen_random(F3, (2, 2, 2), 0), 10 ** 8)
    assert exc.value.size is None
    with pytest.raises(CapExceeded) as exc:
        analytic_rank_charsum(MultilinearForm(F2, np.ones(14400, dtype=np.int64)))
    assert exc.value.size is None


# -- analytic rank --------------------------------------------------------------

def test_analytic_zero_form_is_zero():
    p = MultilinearForm(F3, np.zeros((2, 2), dtype=np.int64))
    assert analytic_rank_count(p) == pytest.approx(0, abs=1e-12)
    assert analytic_rank_charsum(p) == pytest.approx(0, abs=1e-12)


def test_analytic_bilinear_equals_matrix_rank():
    rng = np.random.default_rng(79)
    for ctx in (F2, F3, F5):
        for _ in range(10):
            m = Matrix(ctx, rng.integers(0, ctx.q, size=(3, 3), dtype=np.int64))
            a = analytic_rank_count(gen_from_matrix(m))
            assert abs(a - rank(m)) < 1e-9


def test_analytic_diagonal_value():
    p = gen_diagonal(F2, 1, 3)
    assert analytic_rank_count(p) == pytest.approx(2 - math.log2(3), abs=1e-12)


def test_charsum_identity_and_character_independence():
    rng = np.random.default_rng(83)
    for ctx in (F2, F3, F5, field_new(2, 2)):
        for _ in range(6):
            p = gen_random(ctx, (2, 2, 2), int(rng.integers(0, 9999)))
            a_cnt = analytic_rank_count(p)
            vals = [analytic_rank_charsum(p, j) for j in range(1, ctx.p)]
            for v in vals:
                assert abs(v - a_cnt) < 1e-9
            assert max(vals) - min(vals) < 1e-9


def test_charsum_matches_naive_scalar_sum():
    p = gen_random(F3, (2, 2), 11)
    assert analytic_rank_charsum(p, 2) == pytest.approx(naive_charsum_rank(p, 2), abs=1e-9)


@pytest.mark.parametrize("ctx,dims,seed,levels", [
    (F2, (2, 2, 2), 6, [2, 1]),                      # prefixes and table in chunks
    (F2, (1, 2, 3), 3, [2, 1]),                      # one-vector prefix chunks
    (F3, (2, 2, 2), 4, [2] + [1] * 10),              # prefix recursion on each x_1
    (field_new(2, 2), (1, 2, 2), 5, [2] + [1] * 5),  # the same over GF(4)
    # prefix recursion on each x_1, then chunks of 3 vectors; more than 16
    # distinct functionals send the table into recursion on each of 32 points
    (F2, (2, 3, 5), 1, [2] + [1] * 5 + [0] * 32),
])
def test_charsum_chunked_paths_match_naive(ctx, dims, seed, levels, monkeypatch):
    # a 16-cell budget forces the chunked and the one-vector recursive paths
    # of both enumerations: the prefixes (x_1..x_{d-1}) and the table of
    # their distinct last-slot functionals at every point
    import trlab.ranks as R
    p = gen_random(ctx, dims, seed)
    want = naive_charsum_rank(p)
    calls = []
    grid_blocks = R._grid_blocks

    def counted(ctx, t, stacks):
        calls.append(len(stacks))
        return grid_blocks(ctx, t, stacks)

    monkeypatch.setattr(R, "GRID_BUDGET", 16)
    monkeypatch.setattr(R, "_grid_blocks", counted)
    assert analytic_rank_charsum(p) == pytest.approx(want, abs=1e-9)
    assert calls == levels


def test_grid_blocks_count_the_chosen_digits(monkeypatch):
    # one fixed functional on GF(2)^20: each block's cells are one value per
    # vector, but each chosen vector brings 20 digits; the peak stays within
    # 4x the budget in int64 bytes (44x when only the cells were counted)
    import tracemalloc

    import trlab.ranks as R
    monkeypatch.setattr(R, "GRID_BUDGET", 1 << 16)
    p = gen_random(F2, (20,), 3)
    assert p.coeffs.any()
    tracemalloc.start()
    try:
        hist = R._value_histogram(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist.tolist() == [1 << 19, 1 << 19]  # a nonzero functional is balanced
    assert peak <= 4 * 8 * R.GRID_BUDGET


@pytest.mark.parametrize("budget", [1 << 22, 16, 1])
def test_grid_blocks_follow_product_order(budget, monkeypatch):
    # a lazy vector stack, 2-dim subspaces and the identity after a free
    # leading axis; the budgets take one block, chunks, and the recursion
    import trlab.ranks as R
    ctx = field_new(3, 1)
    t = gen_random(ctx, (2, 2, 3, 2), 19).coeffs
    stacks = [R._AllVectors(ctx, 2), subspace_bases(ctx, 3, 2), subspace_bases(ctx, 2, 2)]
    want = []
    for pick in itertools.product(*(range(b.shape[0]) for b in stacks)):
        r = t
        for axis, (b, i) in enumerate(zip(stacks, pick), start=1):
            r = np.moveaxis(naive_dot(ctx, b[i:i + 1][0], np.moveaxis(r, axis, 0)), 0, axis)
        want.append(r)
    monkeypatch.setattr(R, "GRID_BUDGET", budget)
    got = np.concatenate(list(R._grid_blocks(ctx, t, stacks)))
    assert got.shape == (9 * 13, 2, 1, 2, 2)
    assert np.array_equal(got, np.stack(want))
    # a zero-dimensional choice leaves no cells: one block holds every tuple
    for pair in ([subspace_bases(ctx, 3, 0), subspace_bases(ctx, 2, 1)],
                 [subspace_bases(ctx, 3, 1), subspace_bases(ctx, 2, 0)]):
        blocks = list(R._grid_blocks(ctx, t, pair))
        n_tuples = pair[0].shape[0] * pair[1].shape[0]
        assert [b.shape for b in blocks] == [(n_tuples, 2, 2, pair[0].shape[1], pair[1].shape[1])]


@st.composite
def _histogram_cases(draw):
    """(p, e, dims, kind, seed): d = 1..4, slot dimensions 1..3, q^N within
    the enumeration oracle's grid."""
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]))
    top = int(math.log(ORACLE_GRID) / math.log(p ** e) + 1e-9)
    d = draw(st.integers(1, 4))
    dims = []
    for i in range(d):
        dims.append(draw(st.integers(1, min(3, top - sum(dims) - (d - 1 - i)))))
    kind = draw(st.sampled_from(["dense", "sparse", "zero"]))
    return p, e, tuple(dims), kind, draw(st.integers(0, 2 ** 31))


@settings(max_examples=80, deadline=None)
@given(case=_histogram_cases())
@example(case=(2, 1, (3,), "dense", 1))              # d = 1: one functional
@example(case=(5, 1, (3, 3, 3), "dense", 2))         # GF(5) 3x3x3
@example(case=(3, 2, (2, 2, 1), "sparse", 3))        # GF(9), a last slot of dimension 1
@example(case=(2, 2, (2, 1, 2, 1), "zero", 0))       # GF(4), d = 4, zero form
@example(case=(3, 1, (3, 3), "dense", 5))            # injective prefixes: U = q^(N - n_d)
def test_value_histogram_matches_enumeration(case):
    # the two-phase histogram equals the full-grid one as integers, at the
    # default budget and at 16 cells; the prefix phase yields n_d cells per
    # prefix and the table phase never more than the q^N points
    import trlab.ranks as R
    p_char, e, dims, kind, seed = case
    ctx = field_new(p_char, e)
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, ctx.q, size=dims)
    if kind != "dense":
        coeffs *= rng.random(dims) < (0.2 if kind == "sparse" else 0)
    form = MultilinearForm(ctx, coeffs)
    want = enumerated_value_histogram(form)
    q_all, n_last = ctx.q ** sum(dims), dims[-1]
    grid_blocks = R._grid_blocks
    for budget in (R.GRID_BUDGET, 16):
        cells, depth = [], []

        def counted(ctx, t, stacks):
            outer = not depth  # the recursion re-yields the blocks of its calls
            depth.append(outer)
            if outer:
                cells.append(0)
            try:
                for block in grid_blocks(ctx, t, stacks):
                    cells[-1] += block.size if outer else 0
                    yield block
            finally:
                depth.pop()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(R, "GRID_BUDGET", budget)
            mp.setattr(R, "_grid_blocks", counted)
            got = R._value_histogram(form)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        prefix_cells, table_cells = cells
        assert prefix_cells == n_last * q_all // ctx.q ** n_last
        assert table_cells <= q_all and table_cells % ctx.q ** n_last == 0


def test_charsum_ranks_no_matrix(monkeypatch):
    # acceptance 2's independent route: the character sum agrees with the
    # count while every rank and count entry point of ranks refuses to run
    import trlab.ranks as R
    forms = [gen_random(ctx, dims, seed) for ctx in (F3, field_new(3, 2))
             for dims, seed in (((2, 2, 2), 1), ((3, 2), 2), ((2, 1, 2), 3))]
    forms.append(MultilinearForm(F3, np.zeros((2, 2, 2), dtype=np.int64)))
    counts = [analytic_rank_count(p) for p in forms]

    def refuse(*args, **kwargs):
        raise AssertionError("the character sum must not rank or count")

    for name in ("batch_rank", "rref", "zero_set_count"):
        monkeypatch.setattr(R, name, refuse)
    for p, a in zip(forms, counts):
        assert abs(analytic_rank_charsum(p) - a) < 1e-9


def test_charsum_bilinear_identity_value():
    p = gen_from_matrix(Matrix.identity(F2, 2))
    assert analytic_rank_charsum(p) == pytest.approx(2.0, abs=1e-9)


def test_analytic_d1_edge():
    p = MultilinearForm(F2, np.array([1, 0], dtype=np.int64))
    assert zero_set_count(p).count == 0
    assert analytic_rank_count(p) == math.inf
    # a nonzero functional takes every value equally often: its character
    # sum is 0 and it has no zeros: both routes give inf; the zero one gives 0
    for ctx in (F2, F3, field_new(2, 2)):
        for n in (1, 2, 3):
            for p in [gen_random(ctx, (n,), s) for s in range(4)] + [
                    MultilinearForm(ctx, np.zeros(n, dtype=np.int64))]:
                want = 0 if p.is_zero() else math.inf
                assert analytic_rank_count(p) == analytic_rank_charsum(p) == want


# -- slice rank ------------------------------------------------------------------

def test_slice_rank_zero_form_full_witness():
    p = MultilinearForm(F2, np.zeros((2, 2, 2), dtype=np.int64))
    s = slice_rank_exact(p)
    assert s.value == 0 and s.exact
    assert all(w.codim == 0 for w in s.witness.subspaces)


def test_slice_rank_rank_one_is_one():
    rng = np.random.default_rng(89)
    for ctx in (F2, F3):
        for _ in range(5):
            vs = []
            for n in (2, 2, 3):
                v = rng.integers(0, ctx.q, size=n, dtype=np.int64)
                if not v.any():
                    v[0] = 1
                vs.append(v)
            s = slice_rank_exact(gen_rank_one(ctx, vs))
            assert s.value == 1 and s.exact
            assert s.witness.codim_sum == 1


def test_slice_rank_diagonal_n2():
    s = slice_rank_exact(gen_diagonal(F2, 2, 3))
    assert s.value == 2 and s.exact
    assert naive_slice_rank(gen_diagonal(F2, 2, 3)) == 2


@pytest.mark.parametrize("ctx", [F2, F3])
def test_slice_rank_matches_naive_full_enumeration(ctx):
    for seed in range(8):
        p = gen_random(ctx, (2, 2, 2), seed)
        assert slice_rank_exact(p).value == naive_slice_rank(p)


def test_slice_rank_bilinear_equals_matrix_rank():
    rng = np.random.default_rng(97)
    for ctx in (F2, F3, F5):
        for _ in range(10):
            m = Matrix(ctx, rng.integers(0, ctx.q, size=(4, 4), dtype=np.int64))
            s = slice_rank_exact(gen_from_matrix(m))
            assert s.exact and s.value == rank(m)
            assert s.witness.codim_sum == s.value


def test_slice_rank_bilinear_matches_naive():
    for seed in range(5):
        p = gen_random(F2, (3, 3), seed)
        assert slice_rank_exact(p).value == naive_slice_rank(p)


def test_slice_rank_gl_invariance():
    rng = np.random.default_rng(101)
    for ctx in (F2, F3):
        p = gen_random(ctx, (2, 2, 2), 55)
        base = slice_rank_exact(p).value
        zc = zero_set_count(p).count
        a = analytic_rank_count(p)
        for _ in range(4):
            t = p.coeffs
            for slot in range(3):
                g = random_invertible(ctx, 2, rng)
                t = np.moveaxis(np.tensordot(g.data, t, axes=(1, slot)), 0, slot) % ctx.p
            q2 = MultilinearForm(ctx, t)
            assert slice_rank_exact(q2).value == base
            assert zero_set_count(q2).count == zc
            assert abs(analytic_rank_count(q2) - a) < 1e-9


def test_slice_rank_subadditive():
    rng = np.random.default_rng(103)
    for _ in range(10):
        a = gen_random(F2, (2, 2, 2), int(rng.integers(0, 999)))
        b = gen_random(F2, (2, 2, 2), int(rng.integers(1000, 1999)))
        s = MultilinearForm(F2, F2.add_arr(a.coeffs, b.coeffs))
        assert slice_rank_exact(s).value <= slice_rank_exact(a).value + slice_rank_exact(b).value


def test_slice_rank_greedy_fallback_flags_inexact():
    p = gen_random(F3, (3, 3, 3), 7)
    exact = slice_rank_exact(p)
    capped = slice_rank_exact(p, cap=1)
    assert exact.exact and not capped.exact
    assert capped.witness is None
    assert capped.value >= exact.value  # still a valid upper bound


def test_slice_rank_cap_boundary():
    # the same form projects 562 rank tests: level 3 alone, since its
    # analytic floor (from 27 matrix ranks, within either cap) is its least
    # flattening rank 3, each composition costing the subspaces it tries on
    # the first two slots
    p = gen_random(F3, (3, 3, 3), 7)
    at_cap = slice_rank_exact(p, cap=562)
    below = slice_rank_exact(p, cap=561)
    assert at_cap.exact and at_cap == slice_rank_exact(p)
    assert not below.exact and below.witness is None


SLICE_KINDS = ("dense", "one slice", "two slices", "sparse", "zero")


def _slice_form(ctx, dims, kind, seed) -> MultilinearForm:
    """A form of the given kind; a sum of k slices v (x)_s T has slice rank
    at most k, so its witnesses need not sit on the last slot alone."""
    rng = np.random.default_rng(seed)
    if kind in ("dense", "sparse", "zero"):
        keep = {"dense": 1.0, "sparse": 0.2, "zero": 0.0}[kind]
        return MultilinearForm(ctx, rng.integers(0, ctx.q, size=dims) * (rng.random(dims) < keep))
    coeffs = np.zeros(dims, dtype=np.int64)
    for _ in range(SLICE_KINDS.index(kind)):
        slot = int(rng.integers(len(dims)))
        v = rng.integers(0, ctx.q, size=dims[slot]).reshape((-1,) + (1,) * (len(dims) - 1))
        t = rng.integers(0, ctx.q, size=dims[:slot] + dims[slot + 1:])
        coeffs = ctx.add_arr(coeffs, np.moveaxis(ctx.mul_arr(v, t[None]), 0, slot))
    return MultilinearForm(ctx, coeffs)


@settings(max_examples=100, deadline=None)
@given(p_e=st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]),
       dims=st.lists(st.integers(1, 3), min_size=2, max_size=4),
       kind=st.sampled_from(("dense", "sparse", "zero")), seed=st.integers(0, 2 ** 31))
def test_greedy_hyperplanes_match_the_former_construction(p_e, dims, kind, seed):
    # the kernel of the last nonzero row of rref(flattening^T) is the same
    # canonical hyperplane as the left kernel plus the first r - 1 pivot rows
    import trlab.ranks as R
    form = _slice_form(field_new(*p_e), tuple(dims), kind, seed)
    steps, restrict = [], R.restrict_axis_arr

    def record(ctx, t, ax, basis):
        steps.append((ax, basis))
        return restrict(ctx, t, ax, basis)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(R, "restrict_axis_arr", record)
        total = R._greedy_upper(form)
    want = greedy_hyperplanes(form)
    assert total == len(steps) == len(want)
    for (ax, basis), (want_ax, want_basis) in zip(steps, want):
        assert ax == want_ax and np.array_equal(basis, want_basis)


@st.composite
def _slice_cases(draw):
    """(p, e, dims, kind, seed): d = 2..4, slot dimensions 1..3."""
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2)]))
    d = draw(st.integers(2, 4))
    top = 3 if d < 4 or p ** e == 2 else 2  # keeps the per-tuple reference quick
    dims = tuple(draw(st.integers(1, top)) for _ in range(d))
    return p, e, dims, draw(st.sampled_from(SLICE_KINDS)), draw(st.integers(0, 2 ** 31))


@settings(max_examples=100, deadline=None)
@given(case=_slice_cases())
@example(case=(2, 1, (3, 3, 3), "zero", 0))          # every slot full
@example(case=(3, 1, (1, 3, 2), "dense", 3))         # codimension = dimension on slot 0
@example(case=(3, 1, (3, 3, 3), "two slices", 5))
@example(case=(2, 2, (3, 3, 3), "two slices", 2))    # GF(4)
@example(case=(2, 1, (3, 3, 3, 3), "two slices", 4))  # d = 4
@example(case=(5, 1, (3, 3, 3), "dense", 2))         # GF(5), 31 subspaces per slot
@example(case=(2, 1, (3, 3, 3), "dense", 1))         # floors 2, 2, 3 over GF(2), GF(4), GF(8)
@example(case=(3, 1, (3, 3, 3), "dense", 0))         # floors 2, 3 over GF(3), GF(9)
@example(case=(2, 2, (3, 3, 3), "sparse", 18))       # floors 2, 3 over GF(4), GF(16)
def test_slice_rank_matches_recursive_search(case):
    # same value, exact flag and witness bases as the per-tuple search, also
    # when a 16-cell budget sends the search through chunks and recursion
    import trlab.ranks as R
    p_char, e, dims, kind, seed = case
    form = _slice_form(field_new(p_char, e), dims, kind, seed)
    value, bases = recursive_slice_rank(form)
    for budget in (R.GRID_BUDGET, 16):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(R, "GRID_BUDGET", budget)
            s = slice_rank_exact(form)
        assert (s.value, s.exact) == (value, True)
        got = [w.basis for w in s.witness.subspaces]
        assert [b.shape for b in got] == [b.shape for b in bases]
        assert all(np.array_equal(g, b) for g, b in zip(got, bases))


def test_bilinear_slice_rank_ranks_its_matrix_twice(monkeypatch):
    # the search starts at the least flattening rank, so the matrix and its
    # transpose are the only rrefs (no third rank for a separate floor)
    import trlab.ranks as R
    p = gen_random(F3, (3, 3), 8)
    value, bases = recursive_slice_rank(p)
    calls = []

    def counted(m):
        calls.append(m.data.shape)
        return rref(m)

    monkeypatch.setattr(R, "rref", counted)
    s = slice_rank_exact(p)
    assert calls == [(3, 3), (3, 3)]
    assert (s.value, s.exact) == (value, True)
    assert all(np.array_equal(w.basis, b) for w, b in zip(s.witness.subspaces, bases))


def _floor(p, e=1) -> int:
    import trlab.ranks as R
    return R._analytic_floor(zero_set_count(p, e), p.ctx.q ** e)


@st.composite
def _floor_cases(draw):
    """(p, e, dims, kind, seed): d = 3, 4 over GF(2), GF(3), GF(4)."""
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    d = draw(st.integers(3, 4))
    top = 3 if d == 3 or p ** e == 2 else 2  # keeps the per-tuple reference quick
    dims = tuple(draw(st.integers(1, top)) for _ in range(d))
    return p, e, dims, draw(st.sampled_from(SLICE_KINDS)), draw(st.integers(0, 2 ** 31))


@settings(max_examples=60, deadline=None)
@given(case=_floor_cases())
@example(case=(2, 1, (3, 3, 3), "zero", 0))
@example(case=(2, 2, (3, 3, 3), "dense", 1))         # GF(4)
@example(case=(3, 1, (2, 2, 2, 2), "two slices", 3))  # d = 4
def test_analytic_floor_never_exceeds_the_slice_rank(case):
    # a(P) <= slice rank, so the search may start at the floor; the oracle
    # deepens from 0, so a count that is too small would show here
    p_char, e, dims, kind, seed = case
    form = _slice_form(field_new(p_char, e), dims, kind, seed)
    floor = _floor(form)
    value, _ = recursive_slice_rank(form)
    assert 0 <= floor <= value
    assert floor >= analytic_rank_count(form) - 1e-9
    # the bias, hence the floor, does not depend on the distinguished slot
    assert all(_floor(move_slot_first(form, s)) == floor for s in range(form.d))


@settings(max_examples=40, deadline=None)
@given(case=_floor_cases())
@example(case=(2, 1, (3, 3, 3), "dense", 1))         # the floor climbs to the value at GF(8)
@example(case=(2, 2, (3, 3, 3), "dense", 1))         # GF(64) at e = 3
@example(case=(3, 1, (2, 2, 2, 2), "two slices", 3))  # d = 4
def test_extension_floors_never_exceed_the_slice_rank(case):
    # a_Q(P) <= partition rank over GF(Q) <= slice rank over GF(q) for every
    # Q = q^e, so each rung of the ladder may start the search; the oracle
    # deepens from 0
    p_char, e, dims, kind, seed = case
    form = _slice_form(field_new(p_char, e), dims, kind, seed)
    value, _ = recursive_slice_rank(form)
    floors = [_floor(form, deg) for deg in (1, 2, 3)]
    assert all(0 <= f <= value for f in floors)
    assert all(_floor(move_slot_first(form, s), 2) == floors[1] for s in range(form.d))


def test_unit_tensor_counts_follow_the_closed_form():
    # the unit tensor sum_i x_i y_i z_i vanishes as a functional iff y_i z_i = 0
    # for every i, so |Z(GF(Q))| = (2Q - 1)^n and a_Q = n c(Q, 3) with
    # c(Q, 3) = 2 - log_Q(2Q - 1); the floors climb toward the value n
    floors = {2: [(1, 1, 1), (1, 2, 2), (2, 2, 3), (2, 3, 3)],
              3: [(1, 1, 1), (2, 2, 2), (2, 3, 3), (3, 3, 4)]}
    for q, rows in floors.items():
        ctx = field_new(q, 1)
        for n, want in enumerate(rows, start=1):
            unit = gen_diagonal(ctx, n, 3)
            for e in (1, 2, 3):
                big_q = q ** e
                z = zero_set_count(unit, e)
                assert (z.count, z.ambient) == ((2 * big_q - 1) ** n, 2 * n)
                a_q = z.ambient - math.log(z.count) / math.log(big_q)
                assert a_q == pytest.approx(n * (2 - math.log(2 * big_q - 1) / math.log(big_q)))
            assert tuple(_floor(unit, e) for e in (1, 2, 3)) == want
            assert max(want) <= n == slice_rank_exact(unit).value


def test_ladder_stops_where_a_count_costs_more_than_it_saves(monkeypatch):
    # the F2 n = 4 unit tensor has floors 2, 3, 3 over GF(2), GF(4), GF(8):
    # those counts rank 15, 85 and 585 line matrices, no more than the rank
    # tests of the levels below upper = 4 they could remove (1,406 for level
    # 3 alone); GF(16) would rank 4,369, so the ladder stops and the search
    # refutes level 3
    import trlab.ranks as R
    count, seen = R.zero_set_count, []

    def counted(p, e=1, cap=R.POINT_CAP):
        seen.append(e)
        return count(p, e, cap)

    monkeypatch.setattr(R, "zero_set_count", counted)
    unit = gen_diagonal(F2, 4, 3)
    assert slice_rank_exact(unit).value == 4
    assert seen == [1, 2, 3]
    # an F3 3x3x3 form whose GF(9) floor is the value 3 stops there
    seen.clear()
    assert slice_rank_exact(gen_random(F3, (3, 3, 3), 0)).value == 3
    assert seen == [1, 2]


def test_ladder_never_counts_past_the_cap(monkeypatch):
    # floors 2, 3 over GF(3), GF(9): the GF(9) rung ranks 91 line matrices
    # but ranges over 9^3 = 729 middle vectors.  At cap 728 it is skipped, so
    # no CapExceeded: levels 2 and 3 (222 + 562 rank tests) pass the cap and
    # the greedy bound comes back.  At 729 the rung lifts the floor to 3 and
    # level 3 alone fits
    import trlab.ranks as R
    p = gen_random(F3, (3, 3, 3), 0)
    want, count, seen = slice_rank_exact(p), R.zero_set_count, []

    def counted(p, e=1, cap=R.POINT_CAP):
        seen.append(e)
        return count(p, e, cap)

    monkeypatch.setattr(R, "zero_set_count", counted)
    below = slice_rank_exact(p, cap=728)
    assert not below.exact and below.witness is None and seen == [1]
    seen.clear()
    assert slice_rank_exact(p, cap=729) == want and want.exact
    assert seen == [1, 2]


def test_analytic_floor_equality_and_unit_tensor_cases():
    import trlab.ranks as R
    for ctx in (F2, F3, field_new(2, 2)):
        for d in (2, 3, 4):
            zero = MultilinearForm(ctx, np.zeros((2,) * d, dtype=np.int64))
            assert _floor(zero) == 0
        rng = np.random.default_rng(113)
        for dims in ((2, 2, 3), (3, 2, 2, 2)):
            one = gen_rank_one(ctx, [np.eye(n, dtype=np.int64)[int(rng.integers(n))] for n in dims])
            assert _floor(one) == 1 == slice_rank_exact(one).value
        for _ in range(5):  # a bilinear form's floor is its matrix rank
            m = Matrix(ctx, rng.integers(0, ctx.q, size=(3, 4), dtype=np.int64))
            assert _floor(gen_from_matrix(m)) == rank(m)
    for ctx in (F2, F3):
        c = -math.log(1 - (1 - 1 / ctx.q) ** 2) / math.log(ctx.q)  # a of a rank-one trilinear form
        for n in range(1, 5):
            unit = gen_diagonal(ctx, n, 3)
            assert _floor(unit) == math.ceil(n * c)
            assert slice_rank_exact(unit).value == n
            if ctx.q == 2 and n >= 2:
                assert _floor(unit) < n
    # integers, not a float ceiling: |Z| = q^k exactly gives ambient - k
    assert R._analytic_floor(R.ZeroSetCount(3 ** 4, 1, 6), 3) == 2
    assert R._analytic_floor(R.ZeroSetCount(3 ** 4 - 1, 1, 6), 3) == 3


def test_slice_search_runs_only_the_levels_from_the_floor():
    # on GF(5) 3x3x3 forms the floor is the value 3, so every composition
    # searched is of level 3, and the witness is the one the search from
    # level 1 finds first
    import trlab.ranks as R
    seen, first = [], R._first_vanishing

    def record(ctx, t, stacks, c_last):
        seen.append(tuple(b.shape[2] - b.shape[1] for b in stacks) + (c_last,))
        return first(ctx, t, stacks, c_last)

    for seed in range(3):
        p = gen_random(F5, (3, 3, 3), seed)
        z = zero_set_count(p, 1)
        old = R._deepen(F5, p.coeffs, p.dims, lambda upper, price: 1, R.SEARCH_CAP)
        seen.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(R, "_first_vanishing", record)
            s = slice_rank_exact(p, counts={1: z})
        assert seen and all(sum(c) == 3 for c in seen)
        assert seen == R._compositions(3, p.dims)[:len(seen)]
        assert s.value == old[0] == 3 and s.exact
        assert all(np.array_equal(w.basis, b[i])
                   for w, b, i in zip(s.witness.subspaces, old[1], old[2]))


@functools.lru_cache(maxsize=None)
def _n_subspaces(ctx, n, k):
    return len(all_subspaces_bruteforce(ctx, n, k))


@st.composite
def _price_cases(draw):
    """(ctx, t, limits, floor, upper): a form with every slot cut, d = 2..4,
    or the (L, n1, n2) stack of a span with its member slot never cut, over
    GF(2), GF(3) or GF(4); upper, the least flattening rank of a slot that
    may be cut, and a floor from 0 to upper + 1."""
    ctx = draw(st.sampled_from([F2, F3, field_new(2, 2)]))
    top = 3 if ctx.q == 2 else 2  # keeps the brute-force subspace lists small
    if draw(st.booleans()):
        dims = tuple(draw(st.lists(st.integers(1, top), min_size=2, max_size=4)))
        limits = dims
    else:
        dims = tuple(draw(st.lists(st.integers(1, top), min_size=3, max_size=3)))
        limits = (0,) + dims[1:]
    t = np.array(draw(st.lists(st.integers(0, ctx.q - 1), min_size=math.prod(dims),
                               max_size=math.prod(dims))), dtype=np.int64).reshape(dims)
    upper = min(rank(Matrix(ctx, np.moveaxis(t, i, 0).reshape(n, -1)))
                for i, n in enumerate(dims) if limits[i])
    return ctx, t, limits, draw(st.integers(0, upper + 1)), upper


@settings(max_examples=150, deadline=None)
@given(_price_cases())
def test_search_prices_every_level_by_the_subspace_counts(case):
    # level r costs the subspace tuples of its compositions, counted by
    # brute force; a search refused at cap 0 returns the cost of the levels
    # from the floor, clamped to the least flattening rank, up to it
    import trlab.ranks as R
    ctx, t, limits, floor, upper = case
    levels = [0] * (upper + 1)
    for comp in itertools.product(*(range(m + 1) for m in limits)):
        if sum(comp) <= upper:
            levels[sum(comp)] += math.prod(_n_subspaces(ctx, n, n - c)
                                           for n, c in zip(t.shape[:-1], comp))
    seen = []
    got = R._deepen(ctx, t, limits, lambda upper, price: seen.append(price) or floor, 0)
    assert seen == [levels]
    assert got == sum(levels[min(floor, upper):])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5), st.integers(0, 22))
def test_compositions_are_the_filtered_product(limits, total):
    import trlab.ranks as R
    want = [c for c in itertools.product(*(range(n + 1) for n in limits)) if sum(c) == total]
    assert R._compositions(total, limits) == want


def test_compositions_draw_only_the_compositions():
    # 23 slots of dimension 2 (2^23 coefficients, under the coefficient cap):
    # the 276 compositions of 2 are drawn, not the 3^23 tuples of the box
    import trlab.ranks as R
    start = time.perf_counter()
    comps = R._compositions(2, (2,) * 23)
    assert time.perf_counter() - start < 1.0
    assert len(comps) == math.comb(24, 2) and comps == sorted(comps)


def test_slice_rank_counts_zeros_only_without_a_base():
    import trlab.ranks as R
    p = gen_random(F3, (3, 3, 3), 7)
    z, want = zero_set_count(p, 1), slice_rank_exact(p)
    counted = []

    def count(p, e=1, cap=R.POINT_CAP):
        counted.append(e)
        return zero_set_count(p, e, cap)

    def refuse(*args, **kwargs):
        raise AssertionError("the base count was counted again")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(R, "zero_set_count", refuse)
        assert slice_rank_exact(p, counts={1: z}) == want
        # 27 matrix ranks pass a cap of 26: no count, the search starts at 1
        assert not slice_rank_exact(p, cap=26).exact
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(R, "zero_set_count", count)
        assert slice_rank_exact(p) == want
    assert counted == [1]
    with pytest.raises(InputError, match="extension degree 2"):
        slice_rank_exact(p, counts={1: zero_set_count(p, 2)})


@pytest.mark.parametrize("ctx,dims", [(field_new(7, 1), (4, 4, 4)), (F5, (5, 5, 5))])
def test_slice_rank_skips_the_count_when_level_upper_is_refused(ctx, dims, monkeypatch):
    # level upper alone passes SEARCH_CAP here, so the greedy bound is
    # returned without counting the zero set for a floor
    import trlab.ranks as R

    def refuse(*args, **kwargs):
        raise AssertionError("counted the zero set for a refused search")

    forms = [gen_random(ctx, dims, seed) for seed in range(3)]
    monkeypatch.setattr(R, "zero_set_count", refuse)
    for p in forms:
        assert slice_rank_exact(p) == (len(greedy_hyperplanes(p)), None, False)


def test_schmidt_rank_flags():
    assert schmidt_rank(MultilinearForm(F2, np.zeros((2, 2), dtype=np.int64))) == (0, True)
    assert schmidt_rank(gen_diagonal(F2, 2, 3)) == (2, True)
    four = gen_diagonal(F2, 1, 4)  # single monomial in arity 4
    got = schmidt_rank(four)
    assert got.value == 1 and not got.exact


# -- subspace rank -----------------------------------------------------------------

def test_subspace_rank_examples():
    assert subspace_rank_exact([Matrix.zeros(F2, 2, 2)]) == 0
    e11 = Matrix(F2, [[1, 0], [0, 0]])
    assert subspace_rank_exact([e11]) == 1
    assert subspace_rank_exact([Matrix.identity(F2, 2)]) == 2


def test_subspace_rank_single_matrix_equals_slice_rank():
    rng = np.random.default_rng(107)
    for ctx in (F2, F3):
        for _ in range(8):
            m = Matrix(ctx, rng.integers(0, ctx.q, size=(3, 3), dtype=np.int64))
            assert subspace_rank_exact([m]) == slice_rank_exact(gen_from_matrix(m)).value


def test_subspace_rank_matches_naive():
    rng = np.random.default_rng(109)
    for _ in range(6):
        mats = [Matrix(F2, rng.integers(0, 2, size=(2, 3), dtype=np.int64)) for _ in range(2)]
        assert subspace_rank_exact(mats) == naive_subspace_rank(mats, F2)


@settings(max_examples=40, deadline=None)
@given(p_e=st.sampled_from([(2, 1), (3, 1), (2, 2)]), n_mats=st.integers(1, 4),
       shape=st.tuples(st.integers(1, 3), st.integers(1, 3)), seed=st.integers(0, 2 ** 31))
def test_subspace_rank_matches_naive_property(p_e, n_mats, shape, seed):
    import trlab.ranks as R
    ctx = field_new(*p_e)
    if ctx.q > 2:  # the brute-force subspace lists grow as q^(n^2)
        shape = (min(shape[0], 2), min(shape[1], 2))
    rng = np.random.default_rng(seed)
    mats = [Matrix(ctx, rng.integers(0, ctx.q, size=shape) * (rng.random(shape) < 0.6))
            for _ in range(n_mats)]
    want = naive_subspace_rank(mats, ctx)
    assert subspace_rank_exact(mats) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(R, "GRID_BUDGET", 16)
        assert subspace_rank_exact(mats) == want


def test_subspace_rank_pair_of_units():
    e11 = Matrix(F2, [[1, 0], [0, 0]])
    e22 = Matrix(F2, [[0, 0], [0, 1]])
    assert subspace_rank_exact([e11, e22]) == 2


def test_subspace_rank_zero_spans_and_empty_members():
    assert subspace_rank_exact([Matrix.zeros(field_new(3, 2), 2, 3)] * 3) == 0
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        assert subspace_rank_exact([Matrix.zeros(F3, rows, cols)] * 2) == 0


def test_subspace_rank_cap_boundary():
    # two rank-one members: levels 1..2, from the largest member rank to the
    # least flattening rank; a composition c1 + c2 = r tries every subspace
    # of codimension c1 in GF(3)^3
    mats = [Matrix(F3, np.outer(u, v) % 3)
            for u, v in (((1, 0, 2), (1, 1, 0)), ((0, 1, 1), (2, 0, 1)))]
    n1, n2 = 3, 3
    lower = max(rank(m) for m in mats)
    upper = min(rank(Matrix(F3, np.hstack([m.data for m in mats]))),
                rank(Matrix(F3, np.vstack([m.data for m in mats]))))
    cost = sum(gaussian_binomial(n1, n1 - c1, 3) for r in range(lower, upper + 1)
               for c1 in range(max(0, r - n2), min(n1, r) + 1))
    assert (lower, upper, cost) == (1, 2, 41)
    with pytest.raises(CapExceeded) as exc:
        subspace_rank_exact(mats, cap=cost - 1)
    assert exc.value.size == cost
    assert subspace_rank_exact(mats, cap=cost) == 2  # codim 1 on each side
    # below level 2 alone (27 tests) the refusal still reports every level
    top = sum(gaussian_binomial(n1, n1 - c1, 3) for c1 in range(0, 3))
    with pytest.raises(CapExceeded) as exc:
        subspace_rank_exact(mats, cap=top - 1)
    assert (top, exc.value.size) == (27, cost)


def _inverse(ctx, g: Matrix) -> np.ndarray:
    n = g.rows
    return rref(Matrix(ctx, np.hstack([g.data, np.eye(n, dtype=np.int64)]))).matrix.data[:, n:]


@st.composite
def _gl_cases(draw):
    """(p, e, dims, kind, slot permutation, seed): d = 2..4, GF(2)..GF(9)."""
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]))
    d = draw(st.integers(2, 4))
    top = 3 if p ** e <= 3 and d < 4 else 2  # keeps the searches quick
    dims = tuple(draw(st.integers(1, top)) for _ in range(d))
    return (p, e, dims, draw(st.sampled_from(SLICE_KINDS)),
            draw(st.permutations(range(d))), draw(st.integers(0, 2 ** 31)))


@settings(max_examples=40, deadline=None)
@given(case=_gl_cases())
@example(case=(2, 2, (2, 2, 2), "dense", [2, 0, 1], 1))               # GF(4)
@example(case=(3, 2, (2, 2, 2, 2), "two slices", [1, 3, 0, 2], 2))   # GF(9), d = 4
def test_ranks_invariant_under_gl_and_slot_permutations(case):
    p_char, e, dims, kind, perm, seed = case
    ctx = field_new(p_char, e)
    form = _slice_form(ctx, dims, kind, seed)
    rng = np.random.default_rng(seed)
    gs = [random_invertible(ctx, n, rng) for n in dims]
    t = form.coeffs
    for i, g in enumerate(gs):
        t = np.moveaxis(naive_dot(ctx, g.data, np.moveaxis(t, i, 0)), 0, i)
    moved = MultilinearForm(ctx, t)  # P(g_1^T x_1, ..., g_d^T x_d)
    assert zero_set_count(moved).count == zero_set_count(form).count
    permuted = MultilinearForm(ctx, np.transpose(t, perm))
    s, s_perm = slice_rank_exact(form), slice_rank_exact(permuted)
    assert s.exact and (s_perm.value, s_perm.exact) == (s.value, True)
    assert abs(analytic_rank_count(permuted) - analytic_rank_count(form)) < 1e-9
    assert abs(analytic_rank_charsum(permuted) - analytic_rank_charsum(form)) < 1e-9
    # a witness W_i of P gives (g_i^T)^-1 W_i, whose rows are those of W_i times g_i^-1
    moved_w = [naive_dot(ctx, w.basis, _inverse(ctx, g)) for w, g in zip(s.witness.subspaces, gs)]
    assert _vanishes_on(permuted, [moved_w[k] for k in perm])


@settings(max_examples=30, deadline=None)
@given(p_e=st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]), n_mats=st.integers(1, 3),
       shape=st.tuples(st.integers(1, 3), st.integers(1, 3)), seed=st.integers(0, 2 ** 31))
def test_subspace_rank_invariant_under_gl_and_recombination(p_e, n_mats, shape, seed):
    ctx = field_new(*p_e)
    rng = np.random.default_rng(seed)
    size = (n_mats,) + shape
    stack = rng.integers(0, ctx.q, size=size) * (rng.random(size) < 0.6)
    g1, g2, h = (random_invertible(ctx, n, rng).data for n in shape + (n_mats,))
    moved = [naive_dot(ctx, naive_dot(ctx, g1, m), g2.T) for m in stack]  # g1 M g2^T
    mixed = naive_dot(ctx, h, np.stack(moved))  # an invertible recombination of the members
    base = subspace_rank_exact([Matrix(ctx, m) for m in stack])
    assert subspace_rank_exact([Matrix(ctx, m) for m in moved]) == base
    assert subspace_rank_exact([Matrix(ctx, m) for m in mixed]) == base


# -- generic max rank ----------------------------------------------------------------

def test_generic_max_rank_single_and_zero():
    rng = np.random.default_rng(113)
    m = Matrix(F3, rng.integers(0, 3, size=(3, 3), dtype=np.int64))
    assert generic_max_rank([m]) == rank(m)
    assert generic_max_rank([Matrix.zeros(F3, 2, 2)]) == 0


def test_generic_max_rank_needs_extension_sample():
    # span{diag(0,1), I} over GF(2): the identity alone already has rank 2
    a = Matrix(F2, [[0, 0], [0, 1]])
    b = Matrix.identity(F2, 2)
    assert generic_max_rank([a, b], ext_e=4, samples=10, seed=0) == 2


def test_generic_max_rank_monotone():
    rng = np.random.default_rng(127)
    for seed in range(5):
        mats = [Matrix(F2, rng.integers(0, 2, size=(3, 3), dtype=np.int64)) for _ in range(2)]
        vals_e = [generic_max_rank(mats, ext_e=e, samples=8, seed=seed) for e in (1, 2, 4, 8)]
        assert vals_e == sorted(vals_e)
        vals_s = [generic_max_rank(mats, ext_e=4, samples=s, seed=seed) for s in (0, 4, 16, 64)]
        assert vals_s == sorted(vals_s)


def test_span_exhausted_by_one_rule():
    # {E11, ..., E55} over F2: 2^5 members, the identity among them; the
    # span dimension no longer decides whether they are all ranked
    units = []
    for i in range(5):
        m = np.zeros((5, 5), dtype=np.int64)
        m[i, i] = 1
        units.append(Matrix(F2, m))
    assert generic_max_rank(units) == 5
    assert generic_max_rank(units, ext_e=2, samples=4) == 5
    assert max_rank_reduction(units).max_rank == 5


def test_samples_refused_past_the_span_cap_before_any_draw(monkeypatch):
    def drawn(*a, **k):
        raise AssertionError("drew samples")
    monkeypatch.setattr(np.random, "default_rng", drawn)
    for fn in (generic_max_rank, max_rank_reduction):
        with pytest.raises(CapExceeded) as exc:
            fn([Matrix.identity(F2, 2)], samples=EXHAUSTIVE_SPAN_CAP + 1)
        assert exc.value.size == EXHAUSTIVE_SPAN_CAP + 1


# -- codimension estimator -------------------------------------------------------------

def test_codim_estimate_zero_form():
    p = MultilinearForm(F2, np.zeros((2, 2, 2), dtype=np.int64))
    est = codim_estimate(p, 3)
    assert est.g_hat == 0 and not est.ambiguous


def test_codim_estimate_bilinear_identity():
    for n in (2, 3):
        p = gen_from_matrix(Matrix.identity(F2, n))
        est = codim_estimate(p, 4)
        assert est.g_hat == n


def test_codim_estimate_diagonal_trilinear_trace():
    p = gen_diagonal(F2, 1, 3)
    est = codim_estimate(p, 6)
    assert est.g_hat == 1
    for t in est.trace[:3]:
        big_q = 2 ** t.extension_degree
        assert t.count == 2 * big_q - 1  # closed form, verified by enumeration
        assert t.count == naive_zero_set_count(p, t.extension_degree)


def test_codim_estimate_refuses_ambiguous_rounding():
    # at e_max = 1 the diagonal trilinear count is 3: log2(3) = 1.585 sits
    # inside the refusal band around the half-integer
    p = gen_diagonal(F2, 1, 3)
    est = codim_estimate(p, 1)
    assert est.ambiguous and est.g_hat is None
    assert est.interval == (0, 1)


def test_codim_estimate_takes_the_base_count(monkeypatch):
    # a passed e = 1 count is used, not counted again, and gives the same
    # estimate; a count over an extension is refused as the base
    import trlab.ranks as R
    p = gen_random(F3, (2, 2, 2), 4)
    want = codim_estimate(p, 3)
    base = zero_set_count(p, 1)
    counted = []

    def count(p, e=1, cap=R.POINT_CAP):
        counted.append(e)
        return zero_set_count(p, e, cap)

    monkeypatch.setattr(R, "zero_set_count", count)
    assert codim_estimate(p, 3, counts={1: base}) == want
    assert counted == [2, 3]
    with pytest.raises(InputError, match="extension degree 2"):
        codim_estimate(p, 3, counts={1: zero_set_count(p, 2)})


def test_codim_estimate_stops_at_the_first_level_past_the_cap():
    # F3 2x2x2, ambient 4: (3^5)^4 = 3^20 <= POINT_CAP = 2^34 < 3^24, so a
    # huge e_max counts levels 1..5 and returns at once
    p = gen_random(F3, (2, 2, 2), 0)
    start = time.perf_counter()
    est = codim_estimate(p, 2 ** 63)
    assert time.perf_counter() - start < 1.0
    assert [t.extension_degree for t in est.trace] == [1, 2, 3, 4, 5]
    assert est == codim_estimate(p, 5)


def test_codim_estimate_validation():
    with pytest.raises(InputError):
        codim_estimate(gen_diagonal(F2, 1, 3), 0)
    with pytest.raises(InputError):
        codim_estimate(MultilinearForm(F2, np.array([1], dtype=np.int64)), 2)
