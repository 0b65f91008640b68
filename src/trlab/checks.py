"""The inequality suite for a single form, and the uniformity-norm identity.

Every comparison is a named CheckOutcome with an explicit tolerance.
Proven inequalities must never fail on exact inputs; a failure there is an
implementation bug.  Checks that rely on the extension-count codimension
estimate are flagged heuristic: the estimator, not the statement, may be
wrong on small fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapExceeded, InputError, capped, within_cap
from .forms import MultilinearForm, PolynomialFn, polarize
from .gfq import digits
from .ranks import (GRID_BUDGET, POINT_CAP, SEARCH_CAP, SchmidtRank,
                    analytic_rank_from_count, character_sum, codim_estimate,
                    slice_rank_exact, zero_set_count)

TOLERANCE = 1e-9
HEURISTIC_POINT_CAP = 1 << 22  # per-extension budget for the codim estimate

# column/name registry; order is the fixed CSV order
PROVEN_CHECKS = ("analytic_le_rank", "rank_le_chain_analytic")
RECORDED_CHECKS = ("rank_le_triple_analytic",)
HEURISTIC_CHECKS = ("codim_gap_le_analytic", "zero_count_le_rough_bound",
                    "rank_le_triple_codim")
ALL_CHECKS = PROVEN_CHECKS + RECORDED_CHECKS + HEURISTIC_CHECKS


@dataclass(frozen=True)
class CheckOutcome:
    """One named comparison: pass iff left <= right + tol ("le") or
    |left - right| <= tol ("eq")."""

    name: str
    left: float
    right: float
    tolerance: float
    passed: bool
    kind: str  # "le" | "eq"
    heuristic: bool
    note: str


def _le(name, left, right, note, heuristic=False, tol=TOLERANCE):
    return CheckOutcome(name, float(left), float(right), tol,
                        bool(left <= right + tol), "le", heuristic, note)


def _eq(name, left, right, note, heuristic=False, tol=TOLERANCE):
    return CheckOutcome(name, float(left), float(right), tol,
                        bool(abs(left - right) <= tol), "eq", heuristic, note)


def applicable_checks(d: int, q: int) -> tuple[str, ...]:
    """Check names the suite will emit for a given arity and field order."""
    names = ["analytic_le_rank"]
    if d == 3 and q > 3:
        names += ["rank_le_chain_analytic", "rank_le_triple_analytic"]
    names += ["codim_gap_le_analytic", "zero_count_le_rough_bound"]
    if d == 3:
        names.append("rank_le_triple_codim")
    return tuple(names)


def suite_constants(d: int, q: int) -> dict[str, Optional[float]]:
    """Constants the suite uses; entries for unknown regimes stay None."""
    if d == 2:
        return {"rank_ratio_exact": 1.0, "subspace_pair_factor": 2.0}
    if d == 3:
        chain = 3.0 / (1.0 - math.log(3) / math.log(q)) if q > 3 else None
        return {
            "closure_codim_factor": 2.0,   # rank <= 2 * codim over the closure
            "closure_rank_factor": 1.5,    # base rank <= 1.5 * closure rank
            "rank_ratio_flat": 3.0,
            "rank_ratio_chain": chain,
        }
    return {"closure_codim_factor": None, "closure_rank_factor": None,
            "rank_ratio_flat": None, "rank_ratio_chain": None}


@dataclass(frozen=True)
class RankReport:
    q: int
    d: int
    dims: tuple[int, ...]
    analytic_rank: float
    slice_rank: int
    schmidt: SchmidtRank
    zero_count: int
    ambient: int
    g_hat: Optional[int]
    g_interval: tuple[int, int]
    constants: dict[str, Optional[float]]
    outcomes: tuple[CheckOutcome, ...]
    heuristics_skipped: bool

    def outcome(self, name: str) -> Optional[CheckOutcome]:
        for o in self.outcomes:
            if o.name == name:
                return o
        return None

    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)


def check_suite(p: MultilinearForm, e_max: int = 3,
                point_cap: int = POINT_CAP, search_cap: int = SEARCH_CAP) -> RankReport:
    """Run every applicable named inequality on one form, exactly.

    Requires the exact slice rank to be feasible at this size; raises
    CapExceeded otherwise rather than checking against a mere bound.
    """
    ctx = p.ctx
    q, d, dims = ctx.q, p.d, p.dims
    if d < 2:
        raise InputError("the check suite needs at least two slots")
    z = zero_set_count(p, 1, cap=point_cap)
    a = analytic_rank_from_count(z, q)
    sr = slice_rank_exact(p, cap=search_cap, base=z)
    if not sr.exact:
        raise CapExceeded("exact slice rank is infeasible at this size; "
                          "the suite does not check against bounds", size=None)
    sch = SchmidtRank(sr.value, d <= 3)
    r = sch.value
    # applicable_checks decides which outcomes are emitted, in its order
    names, constants = applicable_checks(d, q), suite_constants(d, q)
    outcomes = [
        _le("analytic_le_rank", a, r,
            "analytic rank is at most the exact slice rank, by construction: the search "
            "starts at the analytic floor (a bad count raises r; the oracle tests guard it)"
            + ("" if d <= 3 else " (an upper bound for the degree-d rank)")),
    ]
    if "rank_le_chain_analytic" in names:  # its constant exists only then
        outcomes.append(_le(
            "rank_le_chain_analytic", r, constants["rank_ratio_chain"] * a,
            "trilinear rank at most 3/(1-log_q 3) times analytic rank; "
            "constant chains the closure codim bound (2) with the closure "
            "rank inflation (3/2) and the point-count gap"))
    outcomes.append(_le(
        "rank_le_triple_analytic", r, 3.0 * a,
        "flat variant: trilinear rank at most 3 times analytic rank "
        "(recorded independently of the chained constant)"))
    # the estimator is a heuristic; cap its enumeration depth independently
    heur_cap = min(point_cap, HEURISTIC_POINT_CAP)
    est = (codim_estimate(p, e_max, cap=heur_cap, base=z)
           if within_cap(heur_cap, q, z.ambient) else None)
    heur_skipped = est is None or est.ambiguous
    if not heur_skipped:
        g = est.g_hat
        factor = 1.0 - math.log(d) / math.log(q)
        outcomes.append(_le(
            "codim_gap_le_analytic", g * factor, a,
            "analytic rank at least (estimated codim) * (1 - log_q d); "
            "heuristic through the codim estimate", heuristic=True))
        rough = float(d) ** g * float(q) ** (z.ambient - g)
        outcomes.append(_le(
            "zero_count_le_rough_bound", float(z.count), rough,
            "point count at most d^g * q^(ambient-g); heuristic through "
            "the codim estimate", heuristic=True))
        outcomes.append(_le(
            "rank_le_triple_codim", r, 3.0 * g,
            "trilinear rank at most 3 * estimated codim (closure codim "
            "bound times closure rank inflation); heuristic", heuristic=True))
    g_hat = None if est is None else est.g_hat
    g_interval = (0, z.ambient) if est is None else est.interval
    return RankReport(q, d, dims, a, sr.value, sch, z.count, z.ambient,
                      g_hat, g_interval, constants,
                      tuple(o for o in outcomes if o.name in names), heur_skipped)


# -- uniformity-norm identity ---------------------------------------------------

def _norm_size(q: PolynomialFn, d: int, cap: int) -> int:
    """npts = p^n, after refusing the U_d norm when its npts^(d+1) tuples pass
    `cap` or its npts^d-cell derivative grid (for d >= 2 no smaller than the
    addition table) passes GRID_BUDGET, before anything is allocated."""
    p, n = q.ctx.p, q.n
    if d < 1:
        raise InputError(f"the U_d norm needs d >= 1, got {d}")
    capped("norm tuples", cap, p, n * (d + 1))
    capped("norm derivative grid cells", GRID_BUDGET, p, n * d)
    return p ** n


def gowers_norm_power(q: PolynomialFn, d: int, cap: int = POINT_CAP) -> float:
    """2^d-th power of the U_d norm of psi(Q), by iterated differencing.

    ||f||_{U_d}^{2^d} = E_{h_1..h_{d-1}} |E_x D_{h_1}..D_{h_{d-1}} f(x)|^2
    with D_h g(x) = g(x + h) conj(g(x)), since E_{x,h} D_h g(x) = |E_x g|^2
    for every g.  Computed purely from f = psi(Q) values (no algebraic
    shortcut), one row of g per prefix (h_1..h_k).
    """
    p, n = q.ctx.p, q.n
    npts = _norm_size(q, d, cap)
    g = q.ctx.char_table(1)[q.evaluate_all()][None]
    if d >= 2:  # d = 1 is |E_x f|^2 and reads no sums of points
        coords = digits(np.arange(npts, dtype=np.int64), p, n)
        vadd = np.zeros((npts, npts), dtype=np.int64)  # vector addition on encoded points
        for j in range(n):  # digit by digit, so no (npts, npts, n) temporary exists
            vadd += (coords[:, None, j] + coords[None, :, j]) % p * p ** j
    for _ in range(d - 1):  # vadd is symmetric: row h, column x holds x + h
        g = (g[:, vadd] * np.conj(g)[:, None, :]).reshape(-1, npts)
    return float(np.mean(np.abs(g.mean(axis=1)) ** 2))


def multilinear_bias(p: MultilinearForm, cap: int = POINT_CAP) -> float:
    """Normalized character sum of a form over its whole domain (real, positive)."""
    return float(character_sum(p, 1, cap).real)


def gowers_bias_identity(q: PolynomialFn, d: int, cap: int = POINT_CAP) -> CheckOutcome:
    """U_d(psi(Q))^(2^d) equals the bias of the polarized form of Q.

    The two sides are computed by unrelated routes: pure complex
    differencing of f values on the left, coefficient extraction plus an
    exact value histogram on the right.
    """
    _norm_size(q, d, cap)  # before polarize evaluates Q at every point
    form = polarize(q, d)  # refuses d >= p or a degree above d before the norm runs
    left = gowers_norm_power(q, d, cap=cap)
    right = multilinear_bias(form, cap=cap)
    return _eq("gowers_bias_identity", left, right,
               "iterated-derivative average of psi(Q) equals the bias of "
               "the associated symmetric multilinear form")
