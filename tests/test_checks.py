"""The inequality suite and the uniformity-norm identity."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import gowers_norm_power_oracle
from trlab.checks import (applicable_checks, check_suite, gowers_bias_identity,
                          gowers_norm_power, multilinear_bias, suite_constants)
from trlab.errors import CapExceeded, InputError
from trlab.forms import (MultilinearForm, PolynomialFn, gen_diagonal,
                         gen_from_matrix, gen_random, polarize)
from trlab.gfq import field_new
from trlab.linalg import Matrix

F2 = field_new(2, 1)
F3 = field_new(3, 1)
F5 = field_new(5, 1)
F7 = field_new(7, 1)


def test_suite_zero_trilinear_all_pass():
    p = MultilinearForm(F2, np.zeros((2, 2, 2), dtype=np.int64))
    rep = check_suite(p)
    assert rep.analytic_rank == pytest.approx(0, abs=1e-12)
    assert rep.schmidt.value == 0
    assert rep.g_hat == 0
    assert rep.all_passed()
    assert not rep.heuristics_skipped


def test_suite_bilinear_identity():
    rep = check_suite(gen_from_matrix(Matrix.identity(F2, 3)))
    assert rep.schmidt.value == 3
    assert rep.analytic_rank == pytest.approx(3.0, abs=1e-9)
    o = rep.outcome("analytic_le_rank")
    assert o.passed and abs(o.left - o.right) < 1e-9  # equality case
    assert rep.outcome("rank_le_chain_analytic") is None  # d = 2: no chain check


def test_suite_diagonal_trilinear_f5():
    rep = check_suite(gen_diagonal(F5, 2, 3))
    assert rep.zero_count == 81  # (2q-1)^2 zeros, counted by enumeration
    assert rep.analytic_rank == pytest.approx(4 - math.log(81) / math.log(5), abs=1e-9)
    assert rep.schmidt.value == 2
    chain = rep.outcome("rank_le_chain_analytic")
    assert chain is not None and chain.passed
    assert chain.right == pytest.approx(3 * rep.analytic_rank / (1 - math.log(3, 5)), abs=1e-6)
    flat = rep.outcome("rank_le_triple_analytic")
    assert flat is not None and flat.passed


def test_suite_refuses_chain_at_small_q():
    names_q3 = applicable_checks(3, 3)
    assert "rank_le_chain_analytic" not in names_q3
    assert "rank_le_triple_analytic" not in names_q3
    names_q5 = applicable_checks(3, 5)
    assert "rank_le_chain_analytic" in names_q5
    rep = check_suite(gen_diagonal(F3, 2, 3))
    assert rep.outcome("rank_le_chain_analytic") is None


def test_suite_constants():
    c3 = suite_constants(3, 5)
    assert c3["closure_codim_factor"] == 2.0
    assert c3["closure_rank_factor"] == 1.5
    assert c3["rank_ratio_flat"] == 3.0
    assert c3["rank_ratio_chain"] == pytest.approx(3 / (1 - math.log(3, 5)))
    assert suite_constants(3, 2)["rank_ratio_chain"] is None
    c4 = suite_constants(4, 5)
    assert all(v is None for v in c4.values())  # unknown regime stays unset
    assert suite_constants(2, 5)["rank_ratio_exact"] == 1.0


def test_outcome_invariant_pass_iff_rule():
    reps = [check_suite(gen_random(F3, (2, 2, 2), s)) for s in range(4)]
    for rep in reps:
        for o in rep.outcomes:
            if o.kind == "le":
                assert o.passed == (o.left <= o.right + o.tolerance)
            else:
                assert o.passed == (abs(o.left - o.right) <= o.tolerance)


def test_suite_heuristic_skip_flag():
    # diagonal n=2 over F5 stabilizes slowly; at e_max = 3 the estimate sits
    # in the refusal band, so heuristic checks are skipped, not guessed
    rep = check_suite(gen_diagonal(F5, 2, 3))
    assert rep.heuristics_skipped
    assert rep.outcome("codim_gap_le_analytic") is None


def test_suite_counts_each_extension_once(monkeypatch):
    # the suite's own e = 1 count is handed to the codim estimate and to the
    # slice search's floor, so each extension degree is counted once, with
    # the estimate unchanged
    import trlab.checks as C
    import trlab.ranks as R
    p = gen_random(F3, (3, 3, 3), 2)
    want = R.codim_estimate(p, 2, cap=C.HEURISTIC_POINT_CAP)
    count, seen = R.zero_set_count, []

    def counted(p, e=1, cap=R.POINT_CAP):
        seen.append(e)
        return count(p, e, cap)

    monkeypatch.setattr(C, "zero_set_count", counted)
    monkeypatch.setattr(R, "zero_set_count", counted)
    rep = check_suite(p, e_max=2)
    assert seen == [1, 2]
    assert (rep.g_hat, rep.g_interval) == (want.g_hat, want.interval)


def test_suite_rejects_one_slot():
    with pytest.raises(InputError):
        check_suite(MultilinearForm(F2, np.array([1, 0], dtype=np.int64)))


def test_suite_cap_on_infeasible_slice():
    with pytest.raises(CapExceeded):
        check_suite(gen_random(F3, (3, 3, 3), 0), search_cap=1)


# -- uniformity norm identity ---------------------------------------------------

def test_gowers_zero_polynomial():
    q = PolynomialFn(F3, 2, ())
    o = gowers_bias_identity(q, 2)
    assert o.passed
    assert o.left == pytest.approx(1.0, abs=1e-12)
    assert o.right == pytest.approx(1.0, abs=1e-12)


def test_gowers_product_quadratic_value():
    q = PolynomialFn(F3, 2, (((1, 1), 1),))
    o = gowers_bias_identity(q, 2)
    assert o.passed
    assert o.left == pytest.approx(1 / 9, abs=1e-9)
    assert o.right == pytest.approx(1 / 9, abs=1e-9)


def test_gowers_cubic_monomial():
    q = PolynomialFn(F5, 2, (((2, 1), 1),))
    o = gowers_bias_identity(q, 3)
    assert o.passed


def test_gowers_cubic_three_variables():
    # the diagonal cubic x1^3 + x2^3 + x3^3 and x1 x2 x3 over F5: 5^12 tuples
    # and a 5^9-cell derivative grid
    for terms in ((((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 1)), (((1, 1, 1), 1),)):
        o = gowers_bias_identity(PolynomialFn(F5, 3, terms), 3)
        assert o.passed, o


def _random_poly(ctx, n, d, rng):
    terms = []
    for exps in itertools.product(range(min(ctx.p, d + 1)), repeat=n):
        if 0 < sum(exps) <= d:
            c = int(rng.integers(0, ctx.p))
            if c:
                terms.append((exps, c))
    q = PolynomialFn(ctx, n, tuple(terms))
    if q.degree() < d:
        # force degree d so the identity is exercised nontrivially
        lead = [0] * n
        for i in range(d):
            lead[i % n] += 1
        terms.append((tuple(lead), 1))
        q = PolynomialFn(ctx, n, tuple(terms))
    return q


# (p, n, d) with d < p whose (p^n)^(d+1) tuples the oracle's x loop
# sums in well under a second: F5 n = 3 d = 3, F7 n = 3 d = 2 and d = 3 are left out
NORM_CASES = [(ctx, n, d) for ctx in (F2, F3, F5, F7) for n in (1, 2, 3)
              for d in range(1, min(ctx.p - 1, 3) + 1) if ctx.p ** (n * (d + 1)) <= 6 * 10 ** 6]


@st.composite
def _any_polynomial(draw):
    ctx, n, d = draw(st.sampled_from(NORM_CASES))
    exps = st.tuples(*[st.integers(0, ctx.p - 1)] * n)
    terms = draw(st.lists(st.tuples(exps, st.integers(0, ctx.p - 1)), max_size=4))
    return PolynomialFn(ctx, n, tuple(terms)), d


@settings(max_examples=80, deadline=None)
@given(case=_any_polynomial())
@example(case=(PolynomialFn(F3, 2, ()), 2))
@example(case=(PolynomialFn(F7, 2, ()), 3))
def test_gowers_norm_matches_the_defining_average(case):
    # iterated derivatives against the sum over every (x, h_1..h_d); the
    # identity holds for any f, so the degree is not restricted
    q, d = case
    assert gowers_norm_power(q, d) == pytest.approx(gowers_norm_power_oracle(q, d), abs=1e-12)


def test_gowers_random_quadratics_f3():
    rng = np.random.default_rng(311)
    for _ in range(12):
        q = _random_poly(F3, 2, 2, rng)
        assert gowers_bias_identity(q, 2).passed


def test_gowers_random_cubics_f5():
    rng = np.random.default_rng(313)
    for _ in range(4):
        q = _random_poly(F5, 2, 3, rng)
        assert gowers_bias_identity(q, 3).passed


def test_gowers_regime_refusals():
    q = PolynomialFn(F3, 1, (((2,), 1),))
    with pytest.raises(InputError):
        gowers_bias_identity(q, 3)  # d >= p
    with pytest.raises(InputError):
        gowers_bias_identity(q, 1)  # degree above d
    with pytest.raises(CapExceeded):
        gowers_norm_power(PolynomialFn(F5, 3, (((1, 1, 1), 1),)), 3, cap=10)


class _Evaluated(Exception):
    pass


def test_gowers_sizes_decided_before_any_evaluation(monkeypatch):
    def evaluated(self):
        raise _Evaluated
    monkeypatch.setattr(PolynomialFn, "evaluate_all", evaluated)
    # F3 at n = 20, d = 2: 3^60 tuples, refused before Q is evaluated at 3^20 points
    with pytest.raises(CapExceeded):
        gowers_bias_identity(PolynomialFn(F3, 20, (((1, 1) + (0,) * 18, 1),)), 2)
    # a huge d is refused before 3^(d + 1) is taken
    with pytest.raises(CapExceeded):
        gowers_bias_identity(PolynomialFn(F3, 1, (((1,), 1),)), 10 ** 18)
    # F2 at n = 10, d = 2: a 2^20-cell grid and a 2^20-cell addition table fit the budget
    with pytest.raises(_Evaluated):
        gowers_norm_power(PolynomialFn(F2, 10, ()), 2)


def test_bias_of_polarized_quadratic_is_rank_power():
    # bias of the polarized x1 x2 equals q^(-2): the associated matrix is the
    # antidiagonal, rank 2
    q = PolynomialFn(F3, 2, (((1, 1), 1),))
    assert multilinear_bias(polarize(q, 2)) == pytest.approx(1 / 9, abs=1e-12)
