"""Rank invariants of multilinear forms.

Three quantities are computed exactly at desk scale:

* the zero-set count |{(v2..vd) : P(., v2..vd) = 0 as a functional}| over
  the base field or an extension, as the sum of Q^(n_d - rank M) over the
  matrices M left by contracting the middle slots, Q the counting field's
  order (the bias identity);
* the analytic rank, both from that count and independently from the
  normalized character sum over the whole domain;
* the exact slice rank, by iterative deepening over codimension
  compositions with exhaustive subspace enumeration.

Slot 0 is the distinguished slot for zero-set counting (re-root a form
with forms.move_slot_first if another slot is wanted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapExceeded, InputError
from .forms import MultilinearForm, restrict_axis_arr
from .gfq import FieldCtx
from .linalg import (EXHAUSTIVE_SPAN_CAP, Matrix, Subspace, all_vectors, batch_rank,
                     field_dot, gaussian_binomial, kernel_basis, rref, span_basis,
                     subspace_bases)

POINT_CAP = 2 ** 34       # refusal bound on enumerated points or ranked matrices
GRID_BUDGET = 1 << 22     # max grid cells materialized per vectorized step
SEARCH_CAP = 5 * 10 ** 6  # refusal bound on subspace-tuple rank tests


def _grid_size(q: int, slot_dims) -> int:
    out = 1
    for m in slot_dims:
        out *= q ** m
    return out


def _grid_blocks(ctx: FieldCtx, t: np.ndarray, k: int):
    """Contract the last k axes of t with every tuple of vectors.

    Yields blocks of shape t.shape[:-k] + (N,), one cell per tuple, that
    together cover every tuple once.  The enumeration is chunked on the
    first of the k slots so no block holds more than GRID_BUDGET cells;
    when even one vector of it is too many, recurse on each fixed vector.
    """
    if k == 0:
        yield t[..., None]
        return
    fixed, mids = t.shape[:-k], t.shape[-k:]
    rest = math.prod(fixed) * _grid_size(ctx.q, mids[1:])
    n_vec = ctx.q ** mids[0]
    block = max(1, GRID_BUDGET // rest)
    for startpos in range(0, n_vec, block):
        rows = all_vectors(ctx, mids[0], startpos, min(startpos + block, n_vec))
        v = field_dot(ctx, np.moveaxis(t, -k, -1), rows.T)  # (fixed.., m2.., B)
        if rest > GRID_BUDGET:  # block is 1: recurse on the one fixed vector
            yield from _grid_blocks(ctx, v[..., 0], k - 1)
            continue
        for m in mids[1:]:
            v = field_dot(ctx, np.moveaxis(v, len(fixed), -1), all_vectors(ctx, m).T)
        yield v.reshape(fixed + (-1,))


def character_sum(p: MultilinearForm, j: int = 1, cap: int = POINT_CAP) -> complex:
    """Normalized sum of psi_j(P(x)) over the whole domain, exactly from the
    histogram of the form's values."""
    q = p.ctx.q
    total = q ** sum(p.dims)
    if total > cap:
        raise CapExceeded(f"character sum needs {total} points, cap is {cap}", size=total)
    counts = np.zeros(q, dtype=np.int64)
    for values in _grid_blocks(p.ctx, p.coeffs, p.d):
        counts += np.bincount(values.reshape(-1), minlength=q)
    return complex(counts @ p.ctx.char_table(j)) / total


@dataclass(frozen=True)
class ZeroSetCount:
    count: int
    extension_degree: int
    ambient: int  # sum of dims[1:]


def zero_set_count(p: MultilinearForm, ext_e: int = 1, cap: int = POINT_CAP) -> ZeroSetCount:
    """Exact |Z(GF(Q))|, Q = q^ext_e, for Z = {(v2..vd) : slot-0 contraction vanishes}.

    For d >= 2, |Z| = sum over (v2..v_{d-1}) of Q^(n_d - rank M), where M is
    the n1 x n_d matrix left after contracting slots 2..d-1: the tuples with
    a given middle part are the kernel of M.  The cap bounds the number of
    matrices ranked, Q^(n2 + ... + n_{d-1}).
    """
    if ext_e < 1:
        raise InputError(f"extension degree must be >= 1, got {ext_e}")
    dims = p.dims
    ambient = sum(dims[1:])
    big_q = p.ctx.q ** ext_e
    n_mats = big_q ** sum(dims[1:-1])
    if n_mats > cap:
        raise CapExceeded(f"zero-set count needs {n_mats} matrix ranks, cap is {cap}",
                          size=n_mats)
    ext, emb = p.ctx.extension(ext_e)
    coeffs = emb[p.coeffs]
    if p.d == 1:
        return ZeroSetCount(1 if not coeffs.any() else 0, ext_e, 0)
    hist = np.zeros(dims[-1] + 1, dtype=np.int64)
    for block in _grid_blocks(ext, np.moveaxis(coeffs, -1, 1), p.d - 2):
        hist += np.bincount(batch_rank(ext, np.moveaxis(block, -1, 0)), minlength=hist.size)
    count = sum(int(c) * big_q ** (dims[-1] - r) for r, c in enumerate(hist))
    return ZeroSetCount(count, ext_e, ambient)


def analytic_rank_count(p: MultilinearForm, cap: int = POINT_CAP) -> float:
    """a(P) = ambient - log_q |Z(GF(q))|; zero exactly when Z is everything."""
    z = zero_set_count(p, 1, cap=cap)
    if z.count == 0:  # only reachable for d = 1 and P nonzero
        return math.inf
    return z.ambient - math.log(z.count) / math.log(p.ctx.q)


def analytic_rank_charsum(p: MultilinearForm, j: int = 1, cap: int = POINT_CAP) -> float:
    """-log_q of the normalized character sum magnitude over the full domain.

    Agrees with analytic_rank_count within 1e-9 for every multilinear form
    and does not depend on the character index j.  This is the route
    independent of the rank identity behind zero_set_count: it histograms
    the form's value at every point and ranks no matrix.
    """
    mag = abs(character_sum(p, j, cap))
    if mag < 1e-12:
        # impossible for d >= 2: the bias equals |Z|/q^ambient >= q^(-ambient)
        raise RuntimeError("character sum magnitude below 1e-12; internal error")
    return -math.log(mag) / math.log(p.ctx.q)


# -- slice rank ---------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceWitness:
    """Tuple (W_0..W_{d-1}) with P restricted to it identically zero."""

    subspaces: tuple[Subspace, ...]
    codim_sum: int


def _make_witness(p: MultilinearForm, subs) -> SubspaceWitness:
    t = p.coeffs
    for axis, s in enumerate(subs):
        t = restrict_axis_arr(p.ctx, t, axis, s.basis)
    assert not t.any(), "witness restriction must vanish on all basis tuples"
    return SubspaceWitness(tuple(subs), sum(s.codim for s in subs))


class SliceRank(NamedTuple):
    value: int
    witness: Optional[SubspaceWitness]
    exact: bool


def _compositions(total: int, limits) -> list[tuple[int, ...]]:
    """All tuples c with sum(c) = total and 0 <= c_i <= limits[i], lex order."""
    out = []

    def rec(prefix, rest, remaining):
        if not rest:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        head, tail = rest[0], rest[1:]
        lo = max(0, remaining - sum(tail))
        for c in range(lo, min(head, remaining) + 1):
            rec(prefix + [c], tail, remaining - c)

    rec([], list(limits), total)
    out.sort()
    return out


def _search_cost(ctx: FieldCtx, dims, comp) -> int:
    cost = 1
    for i in range(len(dims) - 1):
        cost *= gaussian_binomial(dims[i], dims[i] - comp[i], ctx.q)
    return cost


def _search_composition(p: MultilinearForm, comp) -> Optional[SubspaceWitness]:
    """First witness with codim(W_i) = comp[i] for i < d-1 and the last slot
    resolved exactly: a witness completes iff the stacked restriction has
    rank at most comp[-1], in which case its kernel is the last subspace."""
    ctx = p.ctx
    dims = p.dims
    d = p.d
    per_slot = []
    for i in range(d - 1):
        per_slot.append(None if comp[i] == 0
                        else subspace_bases(ctx, dims[i], dims[i] - comp[i]))
    chosen: list[Optional[np.ndarray]] = [None] * (d - 1)

    def finish(t) -> Optional[SubspaceWitness]:
        a = t.reshape(-1, dims[-1])
        m = Matrix(ctx, a)
        if rref(m).rank > comp[-1]:
            return None
        w_last = kernel_basis(m)
        subs = []
        for jdx in range(d - 1):
            if chosen[jdx] is None:
                subs.append(Subspace.full(ctx, dims[jdx]))
            else:
                subs.append(Subspace(ctx, dims[jdx], chosen[jdx]))
        subs.append(w_last)
        return _make_witness(p, subs)

    def rec(i: int, t: np.ndarray) -> Optional[SubspaceWitness]:
        if i == d - 1:
            return finish(t)
        if per_slot[i] is None:
            chosen[i] = None
            return rec(i + 1, t)
        for b in per_slot[i]:
            chosen[i] = b
            got = rec(i + 1, restrict_axis_arr(ctx, t, i, b))
            if got is not None:
                return got
        chosen[i] = None
        return None

    return rec(0, p.coeffs)


def _greedy_upper(p: MultilinearForm) -> int:
    """Upper bound by repeatedly peeling one slice off the cheapest slot.

    At each step the slot with the smallest flattening rank is restricted
    to a hyperplane that lowers that rank by exactly one; each step costs
    one slice by the codimension characterization of the slice rank.
    """
    ctx = p.ctx
    t = p.coeffs
    total = 0
    while t.any():
        flats = [np.moveaxis(t, ax, 0).reshape(t.shape[ax], -1) for ax in range(t.ndim)]
        rks = [rref(Matrix(ctx, a)).rank for a in flats]
        ax = int(np.argmin(rks))
        a = flats[ax]
        red_t = rref(Matrix(ctx, a.T))
        pivot_rows = red_t.pivots  # indices of independent rows of a
        lk = kernel_basis(Matrix(ctx, a.T))
        keep = np.eye(t.shape[ax], dtype=np.int64)[list(pivot_rows[:-1])]
        h = Subspace.from_rows(ctx, np.vstack([lk.basis, keep]))
        assert h.dim == t.shape[ax] - 1
        t = restrict_axis_arr(ctx, t, ax, h.basis)
        total += 1
    return total


def slice_rank_exact(p: MultilinearForm, cap: int = SEARCH_CAP) -> SliceRank:
    """Least sum of slot codimensions over vanishing subspace tuples.

    Iterative deepening: levels r ascending, codimension compositions in
    lexicographic order, subspaces in canonical order; the first witness
    wins.  For d = 2 the deepening starts at the matrix rank, which every
    vanishing pair must reach (rank subadditivity).  If the projected
    search size exceeds the cap, a greedy upper bound is returned flagged
    non-exact.
    """
    ctx = p.ctx
    dims = p.dims
    d = p.d
    if p.is_zero():
        subs = tuple(Subspace.full(ctx, n) for n in dims)
        return SliceRank(0, _make_witness(p, subs), True)
    flat_ranks = [rref(Matrix(ctx, np.moveaxis(p.coeffs, ax, 0).reshape(dims[ax], -1))).rank
                  for ax in range(d)]
    upper = min(flat_ranks)
    lower = flat_ranks[0] if d == 2 else 1
    total_cost = 0
    levels = []
    for r in range(lower, upper + 1):
        comps = _compositions(r, dims)
        levels.append((r, comps))
        total_cost += sum(_search_cost(ctx, dims, c) for c in comps)
    if total_cost > cap:
        return SliceRank(_greedy_upper(p), None, False)
    for r, comps in levels:
        for comp in comps:
            w = _search_composition(p, comp)
            if w is not None:
                assert w.codim_sum == r
                return SliceRank(r, w, True)
    raise RuntimeError("slice rank search failed to terminate")  # unreachable


class SchmidtRank(NamedTuple):
    value: int
    exact: bool  # exact as a Schmidt rank: requires d <= 3 and an exact search


def schmidt_rank(p: MultilinearForm, cap: int = SEARCH_CAP) -> SchmidtRank:
    """Slice rank, exact as Schmidt rank for d <= 3, an upper bound beyond."""
    s = slice_rank_exact(p, cap=cap)
    return SchmidtRank(s.value, s.exact and p.d <= 3)


def subspace_rank_exact(mats, cap: int = SEARCH_CAP) -> int:
    """Minimum codim(W1) + codim(W2) with every given matrix vanishing on
    W1 x W2 (d = 2 setting; the input spans the space of forms)."""
    mats = list(mats)
    if not mats:
        raise InputError("need at least one matrix")
    ctx = mats[0].ctx
    shape = mats[0].data.shape
    if any(m.ctx != ctx or m.data.shape != shape for m in mats):
        raise InputError("all matrices must share field and shape")
    n1, n2 = shape
    stack = np.stack([m.data for m in mats])  # (L, n1, n2)
    if not stack.any():
        return 0
    ranks = batch_rank(ctx, stack)
    lower = int(ranks.max())  # vanishing forces c1 + c2 >= rank(l) for each l
    rank_h = rref(Matrix(ctx, np.concatenate([m.data for m in mats], axis=1))).rank
    rank_v = rref(Matrix(ctx, np.concatenate([m.data for m in mats], axis=0))).rank
    upper = min(rank_h, rank_v)
    cost = 0
    for r in range(lower, upper + 1):
        for c1, _ in _compositions(r, (n1, n2)):
            cost += gaussian_binomial(n1, n1 - c1, ctx.q)
    if cost > cap:
        raise CapExceeded(f"subspace-rank search needs {cost} rank tests, cap is {cap}",
                          size=cost)
    by_row = np.moveaxis(stack, 1, 0)  # (n1, L, n2); only row spans are ranked
    for r in range(lower, upper + 1):
        for c1, c2 in _compositions(r, (n1, n2)):
            for b1 in subspace_bases(ctx, n1, n1 - c1):
                stacked = field_dot(ctx, b1, by_row).reshape(-1, n2)
                if rref(Matrix(ctx, stacked)).rank <= c2:
                    return r
    raise RuntimeError("subspace rank search failed to terminate")  # unreachable


EXHAUSTIVE_SPAN_DIM = 4


def generic_max_rank(mats, ext_e: int = 1, samples: int = 0, seed: int = 0) -> int:
    """Max rank over the span, stabilized over extensions.

    Exhausts all base-field combinations when the span dimension is at
    most 4 (and the element count is small); otherwise at least the basis
    elements are ranked.  On top of that, `samples` seeded random
    combinations are drawn over GF(q^deg) for every deg = 1..ext_e, and the
    running maximum is returned, so the result is monotone nondecreasing
    in both ext_e and samples by construction.  With a large extension the
    result is the algebraic-closure value up to a per-sample failure
    probability of about (rank degeneracy degree) / q^deg; this is a
    heuristic, not a certificate.
    """
    if ext_e < 1:
        raise InputError(f"extension degree must be >= 1, got {ext_e}")
    ctx, _, basis = span_basis(mats)
    dim_l = basis.shape[0]
    if dim_l == 0:
        return 0
    best = int(batch_rank(ctx, basis).max())
    if dim_l <= EXHAUSTIVE_SPAN_DIM and ctx.q ** dim_l <= EXHAUSTIVE_SPAN_CAP:
        combos = all_vectors(ctx, dim_l)
        best = max(best, int(batch_rank(ctx, field_dot(ctx, combos, basis)).max()))
    if samples > 0:
        for deg in range(1, ext_e + 1):
            ext, emb = ctx.extension(deg)
            ebasis = emb[basis]
            rng = np.random.default_rng(np.random.SeedSequence((seed, deg)))
            cf = rng.integers(0, ext.q, size=(samples, dim_l), dtype=np.int64)
            best = max(best, int(batch_rank(ext, field_dot(ext, cf, ebasis)).max()))
    return best


# -- codimension estimator -----------------------------------------------------

@dataclass(frozen=True)
class ExtensionCount:
    extension_degree: int
    count: int
    dim_estimate: float


@dataclass(frozen=True)
class CodimEstimate:
    """Heuristic codimension of the zero set from extension point counts.

    dim_estimate(e) = log_{q^e} |Z(GF(q^e))| stabilizes near dim(Z) as e
    grows; g_hat = ambient - round(final estimate).  When the final
    estimate sits within 0.25 of a half-integer the rounding is refused
    (g_hat is None) and only the interval is reported.
    """

    ambient: int
    g_hat: Optional[int]
    interval: tuple[int, int]
    trace: tuple[ExtensionCount, ...]

    @property
    def ambiguous(self) -> bool:
        return self.g_hat is None


def codim_estimate(p: MultilinearForm, e_max: int, cap: int = POINT_CAP) -> CodimEstimate:
    if e_max < 1:
        raise InputError(f"e_max must be >= 1, got {e_max}")
    if p.d < 2:
        raise InputError("codimension estimate needs at least two slots")
    trace = []
    logq = math.log(p.ctx.q)
    ambient = sum(p.dims[1:])
    for e in range(1, e_max + 1):
        z = zero_set_count(p, e, cap=cap)
        dim_est = math.log(z.count) / (e * logq)
        trace.append(ExtensionCount(e, z.count, dim_est))
    x = trace[-1].dim_estimate
    frac = x - math.floor(x)
    if abs(frac - 0.5) < 0.25:
        lo = max(0, ambient - math.ceil(x))
        hi = min(ambient, ambient - math.floor(x))
        return CodimEstimate(ambient, None, (lo, hi), tuple(trace))
    g = min(max(ambient - round(x), 0), ambient)
    return CodimEstimate(ambient, g, (g, g), tuple(trace))
