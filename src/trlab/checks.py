"""The inequality suite for a single form, and the uniformity-norm identity.

Every comparison is a named CheckOutcome with an explicit tolerance.  One
table, _SUITE, decides which checks exist, their order, where each applies
and its class, and ALL_CHECKS, PROVEN_CHECKS, RECORDED_CHECKS and
applicable_checks are read off it.  A proven inequality must never fail on
exact inputs; a failure there is an implementation bug.  A recorded one is
counted, not trusted.  A heuristic one rests on the extension-count
codimension estimate: the estimator, not the statement, may be wrong on
small fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
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

# The suite, in its fixed CSV order: name -> (class, whether it applies at
# (d, q), its sides left <= right from the form's facts f, note).  The facts
# are a, r (exact slice rank), g (estimated codim), z (the count), q and d.
_SUITE = {
    "analytic_le_rank": (
        "proven", lambda d, q: True, lambda f: (f.a, f.r),
        "analytic rank is at most the exact slice rank, by construction: the search "
        "starts at the best floor over GF(q^e) (a bad count raises r; oracle tests guard "
        "it); for d > 3 r is an upper bound for the degree-d rank"),
    # 3/(1 - log_q 3) is positive only for q > 3
    "rank_le_chain_analytic": (
        "proven", lambda d, q: d == 3 and q > 3,
        lambda f: (f.r, 3.0 / (1.0 - math.log(3) / math.log(f.q)) * f.a),
        "trilinear rank at most 3/(1-log_q 3) times analytic rank; constant chains "
        "the closure codim bound (2) with the closure rank inflation (3/2) and the "
        "point-count gap"),
    "rank_le_triple_analytic": (
        "recorded", lambda d, q: d == 3 and q > 3, lambda f: (f.r, 3.0 * f.a),
        "flat variant: trilinear rank at most 3 times analytic rank "
        "(recorded independently of the chained constant)"),
    "codim_gap_le_analytic": (
        "heuristic", lambda d, q: True,
        lambda f: (f.g * (1.0 - math.log(f.d) / math.log(f.q)), f.a),
        "analytic rank at least (estimated codim) * (1 - log_q d); "
        "heuristic through the codim estimate"),
    "zero_count_le_rough_bound": (
        "heuristic", lambda d, q: True,
        lambda f: (float(f.z.count), float(f.d) ** f.g * float(f.q) ** (f.z.ambient - f.g)),
        "point count at most d^g * q^(ambient-g); heuristic through the codim estimate"),
    "rank_le_triple_codim": (
        "heuristic", lambda d, q: d == 3, lambda f: (f.r, 3.0 * f.g),
        "trilinear rank at most 3 * estimated codim (closure codim bound times "
        "closure rank inflation); heuristic"),
}
ALL_CHECKS = tuple(_SUITE)
PROVEN_CHECKS = tuple(n for n, (kind, *_) in _SUITE.items() if kind == "proven")
RECORDED_CHECKS = tuple(n for n, (kind, *_) in _SUITE.items() if kind == "recorded")


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
    return tuple(n for n, (_, applies, *_) in _SUITE.items() if applies(d, q))


@dataclass(frozen=True)
class RankReport:
    analytic_rank: float
    schmidt: SchmidtRank
    zero_count: int
    g_hat: Optional[int]
    g_interval: tuple[int, int]
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
    CapExceeded otherwise rather than checking against a mere bound.  The
    heuristic checks are skipped when the codim estimate is ambiguous or
    past its cap.
    """
    q, d = p.ctx.q, p.d
    if d < 2:
        raise InputError("the check suite needs at least two slots")
    counts = {1: zero_set_count(p, 1, cap=point_cap)}  # the memo of both searches
    z = counts[1]
    a = analytic_rank_from_count(z, q)
    sr = slice_rank_exact(p, cap=search_cap, counts=counts)
    if not sr.exact:
        raise CapExceeded("exact slice rank is infeasible at this size; "
                          "the suite does not check against bounds", size=None)
    sch = sr.schmidt(d)
    # the estimator is a heuristic; cap its enumeration depth independently
    heur_cap = min(point_cap, HEURISTIC_POINT_CAP)
    est = (codim_estimate(p, e_max, cap=heur_cap, counts=counts)
           if within_cap(heur_cap, q, z.ambient) else None)
    heur_skipped = est is None or est.ambiguous
    g_hat = None if est is None else est.g_hat
    facts = SimpleNamespace(a=a, r=sch.value, g=g_hat, z=z, q=q, d=d)
    outcomes = tuple(_le(name, *sides(facts), note, heuristic=kind == "heuristic")
                     for name, (kind, applies, sides, note) in _SUITE.items()
                     if applies(d, q) and not (kind == "heuristic" and heur_skipped))
    g_interval = (0, z.ambient) if est is None else est.interval
    return RankReport(a, sch, z.count, g_hat, g_interval, outcomes, heur_skipped)


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
