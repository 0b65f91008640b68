"""Acceptance criteria: one test per criterion, each printing a PASS line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from trlab.checks import gowers_bias_identity
from trlab.forms import (MultilinearForm, PolynomialFn, gen_diagonal,
                         gen_from_matrix, gen_random)
from trlab.gfq import field_new
from trlab.linalg import Matrix, rank, rref
from trlab.pencils import Pencil, kernel_image_check, kronecker_block, rank_profile
from trlab.ranks import (analytic_rank_charsum, analytic_rank_count,
                         codim_estimate, generic_max_rank, slice_rank_exact,
                         subspace_rank_exact, zero_set_count)
from trlab.survey import SurveyConfig, run_survey

TOL = 1e-9


@contextmanager
def criterion(number, desc, limit_s):
    t0 = time.time()
    yield
    dt = time.time() - t0
    print(f"ACCEPTANCE {number}: {desc}: PASS ({dt:.2f}s < {limit_s}s)")
    assert dt < limit_s, f"criterion {number} exceeded its runtime budget: {dt:.2f}s"


def test_acceptance_01_bilinear_exactness():
    with criterion(1, "bilinear analytic = slice = matrix rank, 200 seeded", 10):
        rng = np.random.default_rng(101)
        for i in range(200):
            ctx = field_new([2, 3, 5][i % 3], 1)
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            m = Matrix(ctx, rng.integers(0, ctx.q, size=(rows, cols), dtype=np.int64))
            p = gen_from_matrix(m)
            mat_rank = rank(m)
            a = analytic_rank_count(p)
            assert abs(a - mat_rank) < TOL
            s = slice_rank_exact(p)
            assert s.exact and s.value == mat_rank


def test_acceptance_02_charsum_count_agreement():
    with criterion(2, "charsum = count, all characters agree, 100 trilinear", 60):
        rng = np.random.default_rng(202)
        for i in range(100):
            ctx = field_new([2, 3][i % 2], 1)
            dims = tuple(int(x) for x in rng.integers(2, 4, size=3))
            p = gen_random(ctx, dims, int(rng.integers(0, 2 ** 31)))
            a_cnt = analytic_rank_count(p)
            for j in range(1, ctx.p):
                assert abs(analytic_rank_charsum(p, j) - a_cnt) <= TOL


def test_acceptance_03_analytic_le_rank():
    with criterion(3, "a <= r exhaustively on 256 + 100 random per field", 300):
        ctx2 = field_new(2, 1)
        for enc in range(256):
            digits = np.array([(enc >> b) & 1 for b in range(8)], dtype=np.int64)
            p = MultilinearForm(ctx2, digits.reshape(2, 2, 2))
            a = analytic_rank_count(p)
            s = slice_rank_exact(p)
            assert s.exact
            assert a <= s.value + TOL
        rng = np.random.default_rng(303)
        for q in (2, 3):
            ctx = field_new(q, 1)
            for _ in range(100):
                p = gen_random(ctx, (3, 3, 3), int(rng.integers(0, 2 ** 31)))
                a = analytic_rank_count(p)
                s = slice_rank_exact(p)
                assert s.exact
                assert a <= s.value + TOL


def test_acceptance_04_trilinear_chain_bound():
    with criterion(4, "r <= 3a/(1-log_5 3) on 100 random F5 trilinear", 600):
        ctx = field_new(5, 1)
        chain = 3.0 / (1.0 - math.log(3) / math.log(5))
        rng = np.random.default_rng(404)
        max_ratio = 0.0
        flat_failures = 0
        for _ in range(100):
            dims = tuple(int(x) for x in rng.integers(1, 4, size=3))
            p = gen_random(ctx, dims, int(rng.integers(0, 2 ** 31)))
            a = analytic_rank_count(p)
            s = slice_rank_exact(p)
            assert s.exact
            r = s.value
            assert r <= chain * a + TOL, f"chain bound violated: r={r} a={a}"
            if a > TOL:
                max_ratio = max(max_ratio, r / a)
            if r > 3.0 * a + TOL:
                flat_failures += 1  # recorded, not asserted
        print(f"  [criterion 4] empirical max r/a = {max_ratio:.6f}; "
              f"flat r<=3a failures = {flat_failures}/100")


def test_acceptance_05_diagonal_slice_rank():
    with criterion(5, "diagonal trilinear slice rank = n for n = 1, 2, 3", 120):
        ctx = field_new(2, 1)
        for n in (1, 2, 3):
            s = slice_rank_exact(gen_diagonal(ctx, n, 3))
            assert s.exact and s.value == n, f"n={n}: got {s.value}"


def test_acceptance_06_containment_counterexample():
    with criterion(6, "all-elements diagonal vs identity counterexample", 1):
        for q in (2, 3, 5):
            ctx = field_new(q, 1)
            pen = Pencil(Matrix(ctx, np.diag(np.arange(q, dtype=np.int64))),
                         Matrix.identity(ctx, q))
            prof = rank_profile(pen, 1)
            assert tuple(r for _, r in prof.points[:-1]) == tuple([q - 1] * q)
            rep = kernel_image_check(pen, ext_e=4)
            assert rep.affine_hypothesis_base
            assert not rep.conclusion
            assert not rep.affine_hypothesis_ext


def test_acceptance_07_containment_screening():
    with criterion(7, "10^4 random pencils: ext hypothesis forces conclusion", 120):
        rng = np.random.default_rng(707)
        for i in range(10 ** 4):
            ctx = field_new(2 if i % 2 == 0 else 3, 1)
            shape = (3, 3) if i % 4 < 2 else (3, 4)
            a = Matrix(ctx, rng.integers(0, ctx.q, size=shape, dtype=np.int64))
            b = Matrix(ctx, rng.integers(0, ctx.q, size=shape, dtype=np.int64))
            rep = kernel_image_check(Pencil(a, b), ext_e=4)
            assert not (rep.affine_hypothesis_ext and not rep.conclusion), \
                f"violation at instance {i}"


def test_acceptance_08_kronecker_blocks():
    with criterion(8, "Kronecker blocks have rank n at every projective point", 10):
        for q in (2, 3):
            ctx = field_new(q, 1)
            for kind in ("Ln", "Ln_transpose"):
                for n in range(1, 5):
                    pen = kronecker_block(ctx, kind, n)
                    for e in (1, 2, 3):
                        prof = rank_profile(pen, e)
                        assert len(prof.points) == q ** e + 1
                        assert all(r == n for _, r in prof.points)


def test_acceptance_09_pair_certificate():
    with criterion(9, "subspace rank <= 2 * generic max rank, 100 spans", 300):
        ctx = field_new(2, 1)
        rng = np.random.default_rng(909)
        done = 0
        while done < 100:
            mats = [Matrix(ctx, rng.integers(0, 2, size=(3, 3), dtype=np.int64))
                    for _ in range(2)]
            flat = np.stack([m.data.reshape(-1) for m in mats])
            if rref(Matrix(ctx, flat)).rank != 2:
                continue  # want genuinely 2-dimensional spans
            rt = generic_max_rank(mats, ext_e=8, samples=50, seed=done)
            assert subspace_rank_exact(mats) <= 2 * rt
            done += 1


def _random_poly(ctx, n, d, rng):
    terms = []
    for exps in itertools.product(range(min(ctx.p, d + 1)), repeat=n):
        if 0 < sum(exps) <= d:
            c = int(rng.integers(0, ctx.p))
            if c:
                terms.append((exps, c))
    q = PolynomialFn(ctx, n, tuple(terms))
    if q.degree() < d:
        lead = [0] * n
        for i in range(d):
            lead[i % n] += 1
        terms.append((tuple(lead), 1))
        q = PolynomialFn(ctx, n, tuple(terms))
    return q


def test_acceptance_10_gowers_identity():
    with criterion(10, "U_d norm power equals polarized bias, 50 + 20", 300):
        rng = np.random.default_rng(1010)
        f3 = field_new(3, 1)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            q = _random_poly(f3, n, 2, rng)
            o = gowers_bias_identity(q, 2)
            assert o.passed, f"quadratic failed: {o}"
        f5 = field_new(5, 1)
        for _ in range(20):
            n = int(rng.integers(1, 3))
            q = _random_poly(f5, n, 3, rng)
            o = gowers_bias_identity(q, 3)
            assert o.passed, f"cubic failed: {o}"


def test_acceptance_11_rough_bound_heuristic():
    with criterion(11, "point count within rough bound at +-1 codim slack", 600):
        ctx = field_new(2, 1)
        rng = np.random.default_rng(1111)
        flagged = 0
        for _ in range(50):
            p = gen_random(ctx, (3, 3, 3), int(rng.integers(0, 2 ** 31)))
            est = codim_estimate(p, 3)
            count = zero_set_count(p).count
            if est.g_hat is None:
                lo, hi = est.interval
                candidates = range(max(0, lo - 1), min(6, hi + 1) + 1)
            else:
                candidates = range(max(0, est.g_hat - 1), min(6, est.g_hat + 1) + 1)
            ok = any(count <= 3.0 ** g * 2.0 ** (6 - g) + TOL for g in candidates)
            if not ok:
                flagged += 1
        print(f"  [criterion 11] flagged-failure rate = {flagged}/50")
        assert flagged == 0


def test_acceptance_12_survey_determinism(tmp_path):
    with criterion(12, "survey CSV byte-identical under 1, 4, 8 workers", 120):
        cfg = SurveyConfig(ctx=field_new(2, 1), dims=(2, 2, 2), count=16,
                           seed=42, e_max=2)
        blobs = []
        for w in (1, 4, 8):
            out = tmp_path / f"det{w}.csv"
            run_survey(cfg, out, workers=w)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        rerun = tmp_path / "rerun.csv"
        run_survey(cfg, rerun, workers=4)
        assert rerun.read_bytes() == blobs[0]
