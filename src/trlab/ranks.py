"""Rank invariants of multilinear forms.

Three quantities are computed exactly at desk scale:

* the zero-set count |{(v2..vd) : P(., v2..vd) = 0 as a functional}| over
  the base field or an extension, as the sum of Q^(n_d - rank M) over the
  matrices M left by contracting the middle slots, Q the counting field's
  order (the bias identity), ranked once per tuple of line representatives:
  |Z| = Q^n_d (Q^N - prod_i (Q^n_i - 1)) + (Q - 1)^(d-2) sum_reps Q^(n_d - rank M)
  with N = n2 + ... + n_{d-1}, and POINT_CAP bounding Q^N;
* the analytic rank, both from that count and independently from the
  normalized character sum over the whole domain, whose value histogram
  counts the prefixes (x_1..x_{d-1}) per functional they leave on the last
  slot, then evaluates each distinct functional at every point of that
  slot: every value is enumerated, none derived from a rank;
* the exact slice rank, by iterative deepening over codimension
  compositions, each ranking every subspace tuple in batches, from the
  best analytic floor over GF(q^e) up, since a_{q^e}(P) <= slice rank
  (Lovett 2019; Kazhdan-Ziegler), its counts memoized for the estimate.

_deepen is the one deepening search: the subspace rank of a span is the
slice search of its (L, n1, n2) stack with the member slot never cut.
_grid_blocks is the one tuple enumerator: the zero-set count, the
character sum and the search run on it.

Slot 0 is the distinguished slot for zero-set counting (re-root a form
with forms.move_slot_first if another slot is wanted).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InputError, capped, within_cap
from .forms import MultilinearForm, restrict, restrict_axis_arr
from .gfq import FieldCtx, digits
from .linalg import (GRID_BUDGET, Matrix, Subspace, batch_rank, field_dot,
                     gaussian_binomial, kernel_basis, left_kernel_basis, rref, sampled_span,
                     span_coefficients, span_ranks, stack_matrices, subspace_bases)

POINT_CAP = 2 ** 34       # refusal bound on enumerated points or ranked matrices
SEARCH_CAP = 5 * 10 ** 6  # refusal bound on subspace-tuple rank tests


class _AllVectors:
    """Every vector of GF(q)^n as a (q^n, 1, n) stack, built slice by slice;
    with lines=True one per line, the vector whose last nonzero coordinate is
    1: the codes in [q^k, 2 q^k) for k < n, in order, (q^n - 1)/(q - 1) rows."""

    def __init__(self, ctx: FieldCtx, n: int, lines: bool = False):
        self.ctx, self.n = ctx, n
        # code range k starts at code heads[k] and row starts[k]
        self.heads = ctx.q ** np.arange(n, dtype=np.int64) if lines else np.zeros(1, np.int64)
        self.starts = np.cumsum(self.heads) - self.heads
        self.shape = ((ctx.q ** n - 1) // (ctx.q - 1) if lines else ctx.q ** n, 1, n)

    def __getitem__(self, sl: slice) -> np.ndarray:
        rows = np.arange(*sl.indices(self.shape[0])[:2])
        k = np.searchsorted(self.starts, rows, side="right") - 1
        return digits(self.heads[k] + rows - self.starts[k], self.ctx.q, self.n)[:, None, :]


def _grid_blocks(ctx: FieldCtx, t: np.ndarray, stacks):
    """Restrict the last s = len(stacks) axes of t to every tuple of choices.

    stacks[i] is an (N_i, k_i, n_i) stack of bases (a vector is a one-row
    basis).  Yields blocks of shape (B,) + t.shape[:-s] + (k_1, ..., k_s),
    one row per tuple, in lexicographic order of the choice indices with the
    first stack slowest.  The enumeration is chunked on the first stack so no
    block holds more than GRID_BUDGET cells, counting the digits of the chosen
    bases; when even one of its choices is too many, recurse on each single
    choice.
    """
    s = len(stacks)
    if s == 0:
        yield t[None]
        return
    f = t.ndim - s
    fixed, first, rest = t.shape[:f], stacks[0], stacks[1:]
    cells = math.prod(fixed) * first.shape[1] * math.prod(b.shape[0] * b.shape[1] for b in rest)
    # a block holds its cells and the k_1 x n_1 digits of each chosen basis
    per = cells + first.shape[1] * first.shape[2]
    block = max(1, GRID_BUDGET // per) if cells else first.shape[0]  # k = 0: empty cells
    for start in range(0, first.shape[0], block):
        chosen = first[start:start + block]
        v = field_dot(ctx, np.moveaxis(t, f, -1), np.moveaxis(chosen, 2, 0))
        if cells > GRID_BUDGET:  # block is 1: recurse on the one fixed choice
            yield from _grid_blocks(ctx, np.moveaxis(v[..., 0, :], -1, f), rest)
            continue
        for b in rest:  # v: fixed + (n_i..n_s) + (B, k_1, N_2, k_2, ..)
            v = field_dot(ctx, np.moveaxis(v, f, -1), np.moveaxis(b[:], 2, 0))
        order = [f + 2 * i for i in range(s)] + list(range(f)) + [f + 2 * i + 1 for i in range(s)]
        n_tuples = len(chosen) * math.prod(b.shape[0] for b in rest)
        yield v.transpose(order).reshape((n_tuples,) + fixed + tuple(b.shape[1] for b in stacks))


def _weight_by_key(keys: np.ndarray, weights: np.ndarray):
    """The distinct keys, ascending, and the int64 sum of the weights of each."""
    order = np.argsort(keys)
    keys, weights = keys[order], weights[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[first], np.add.reduceat(weights, first)


def _value_histogram(p: MultilinearForm) -> np.ndarray:
    """How many points of the domain take each field value, as int64 counts.

    Every prefix (x_1..x_{d-1}) leaves a functional u on the last slot;
    the prefixes are counted per distinct u (keyed by its base-q code),
    then each distinct u is evaluated at every z and its values are
    counted with that weight.  Both enumerations run on _grid_blocks, so
    no step holds more than GRID_BUDGET cells, and nothing is sized
    q^{n_d}: there are at most min(q^{n_d}, q^{N - n_d}) distinct u.
    """
    ctx, q, n_last = p.ctx, p.ctx.q, p.dims[-1]
    place = q ** np.arange(n_last, dtype=np.int64)
    codes = weights = np.zeros(0, dtype=np.int64)
    prefixes = [_AllVectors(ctx, n) for n in p.dims[:-1]]
    for block in _grid_blocks(ctx, np.moveaxis(p.coeffs, -1, 0), prefixes):
        new = block.reshape(len(block), n_last) @ place
        codes, weights = _weight_by_key(np.concatenate([codes, new]),
                                        np.concatenate([weights, np.ones_like(new)]))
    hist = np.zeros(q, dtype=np.int64)
    for block in _grid_blocks(ctx, digits(codes, q, n_last), [_AllVectors(ctx, n_last)]):
        values = block.reshape(len(block), len(codes))
        v, w = _weight_by_key(values.ravel(), np.broadcast_to(weights, values.shape).ravel())
        hist[v] += w
    return hist


def character_sum(p: MultilinearForm, j: int = 1, cap: int = POINT_CAP) -> complex:
    """Normalized sum of psi_j(P(x)) over the whole domain, exactly from the
    histogram of the form's values."""
    total = capped("character-sum points", cap, p.ctx.q, sum(p.dims))
    return complex(_value_histogram(p) @ p.ctx.char_table(j)) / total


@dataclass(frozen=True)
class ZeroSetCount:
    count: int
    extension_degree: int
    ambient: int  # sum of dims[1:]


def zero_set_count(p: MultilinearForm, ext_e: int = 1, cap: int = POINT_CAP) -> ZeroSetCount:
    """Exact |Z(GF(Q))|, Q = q^ext_e, for Z = {(v2..vd) : slot-0 contraction vanishes}.

    For d >= 2, |Z| = sum over (v2..v_{d-1}) of Q^(n_d - rank M), where M is
    the n1 x n_d matrix left after contracting slots 2..d-1: the tuples with
    a given middle part are the kernel of M.  M is linear in each middle
    vector: a tuple with a zero vector leaves M = 0, and scaling keeps rank M,
    so only tuples of line representatives are ranked, prod_i (Q^n_i - 1)/(Q - 1)
    matrices, and |Z| = Q^n_d (Q^N - prod_i (Q^n_i - 1)) + (Q - 1)^(d-2) *
    (their sum), N = n2 + ... + n_{d-1}.  The cap bounds Q^N.
    """
    if ext_e < 1:
        raise InputError(f"extension degree must be >= 1, got {ext_e}")
    dims = p.dims
    ambient = sum(dims[1:])
    capped("zero-set count matrix ranks", cap, p.ctx.q, ext_e * sum(dims[1:-1]))
    ext, emb = p.ctx.extension(ext_e)
    big_q = ext.q
    coeffs = emb[p.coeffs]
    if p.d == 1:
        return ZeroSetCount(1 if not coeffs.any() else 0, ext_e, 0)
    hist = np.zeros(dims[-1] + 1, dtype=np.int64)
    mids = [_AllVectors(ext, n, lines=True) for n in dims[1:-1]]
    for block in _grid_blocks(ext, np.moveaxis(coeffs, -1, 1), mids):
        mats = block.reshape(len(block), dims[0], dims[-1])
        hist += np.bincount(batch_rank(ext, mats), minlength=hist.size)
    reps = sum(int(c) * big_q ** (dims[-1] - r) for r, c in enumerate(hist))
    nonzero = math.prod(big_q ** n - 1 for n in dims[1:-1])  # tuples with no zero vector
    count = (big_q ** dims[-1] * (big_q ** sum(dims[1:-1]) - nonzero)
             + (big_q - 1) ** (p.d - 2) * reps)
    return ZeroSetCount(count, ext_e, ambient)


def _check_counts(counts: Optional[dict[int, ZeroSetCount]]) -> dict[int, ZeroSetCount]:
    """The caller's memo {e: count over GF(q^e)}, or a new one; a count kept
    under another e is refused."""
    for e, z in (counts or {}).items():
        if z.extension_degree != e:
            raise InputError(f"the count kept under {e} has extension degree {z.extension_degree}")
    return {} if counts is None else counts


def _analytic_floor(z: ZeroSetCount, q: int) -> int:
    """The analytic floor: the least integer r with q^r |Z| >= q^ambient, the
    same from the count of every slot (d >= 2, so |Z| >= 1)."""
    return next(r for r in range(z.ambient + 1) if q ** r * z.count >= q ** z.ambient)


def _ladder_floor(p: MultilinearForm, counts: dict[int, ZeroSetCount], cap: int,
                  upper: int, price: list[int]) -> int:
    """The best analytic floor worth counting for, given _deepen's level
    prices: `upper` at once for d < 3 (rank subadditivity makes the least
    flattening rank the slice rank) or when level upper alone passes the cap
    (so a refused search takes no count); else from f = 1, for e = 1, 2, ...
    while f < upper, f = max(f, the floor over Q = q^e).  A count in `counts`
    is free; a new one is taken, and kept there, only while Q^N is within the
    cap (so it never raises) and its prod_i (Q^n_i - 1)/(Q - 1) matrices are
    no more than sum(price[f:upper]), the rank tests it could remove."""
    if p.d < 3 or price[upper] > cap:
        return upper
    q, mids = p.ctx.q, p.dims[1:-1]
    f, e = 1, 1
    while f < upper:
        if e not in counts:
            if (not within_cap(cap, q, e * sum(mids))
                    or math.prod((q ** (e * n) - 1) // (q ** e - 1) for n in mids)
                    > sum(price[f:upper])):
                break
            counts[e] = zero_set_count(p, e, cap=cap)
        f = max(f, _analytic_floor(counts[e], q ** e))
        e += 1
    return f


def analytic_rank_from_count(z: ZeroSetCount, q: int) -> float:
    """a = ambient - log_q |Z(GF(q))| from a count over GF(q); zero iff Z is everything."""
    if z.count == 0:  # only reachable for d = 1 and P nonzero
        return math.inf
    return z.ambient - math.log(z.count) / math.log(q)


def analytic_rank_count(p: MultilinearForm, cap: int = POINT_CAP) -> float:
    """a(P) = ambient - log_q |Z(GF(q))|."""
    return analytic_rank_from_count(zero_set_count(p, 1, cap=cap), p.ctx.q)


def analytic_rank_charsum(p: MultilinearForm, j: int = 1, cap: int = POINT_CAP) -> float:
    """-log_q of the normalized character sum magnitude over the full domain.

    Agrees with analytic_rank_count within 1e-9 for every multilinear form
    and does not depend on the character index j.  This is the route
    independent of the rank identity behind zero_set_count: it histograms
    the form's value at every point and ranks no matrix.  A nonzero form
    with d = 1 has no zeros, and both routes give math.inf.
    """
    mag = abs(character_sum(p, j, cap))
    if mag < 1e-12:
        if p.d == 1:  # a nonzero functional takes every value equally often: |Z| = 0
            return math.inf
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
    assert restrict(p, subs).is_zero(), "witness restriction must vanish on all basis tuples"
    return SubspaceWitness(tuple(subs), sum(s.codim for s in subs))


class SchmidtRank(NamedTuple):
    value: int
    exact: bool  # exact as a Schmidt rank: requires d <= 3 and an exact search


class SliceRank(NamedTuple):
    value: int
    witness: Optional[SubspaceWitness]
    exact: bool

    def schmidt(self, d: int) -> SchmidtRank:
        """As a Schmidt rank of a d-slot form: exact iff the search was and d <= 3."""
        return SchmidtRank(self.value, self.exact and d <= 3)


def _compositions(total: int, limits) -> list[tuple[int, ...]]:
    """All tuples c with sum(c) = total and 0 <= c_i <= limits[i], lex order:
    stars and bars, whose bar positions in lex order give the parts in lex
    order, so only the C(total + k - 1, k - 1) compositions are drawn."""
    k = len(limits)
    comps = (tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (total + k - 1,)))
             for bars in itertools.combinations(range(total + k - 1), k - 1))
    return [c for c in comps if all(ci <= n for ci, n in zip(c, limits))]


def _first_vanishing(ctx: FieldCtx, t: np.ndarray, stacks, c_last: int):
    """First choice tuple, in lexicographic order, at which t restricted by
    `stacks` (on its last len(stacks) axes) leaves a matrix of rank at most
    c_last against its last axis.

    Returns (index tuple, that n_last x cells matrix) or None.
    """
    n_last, offset = t.shape[-1], 0
    for block in _grid_blocks(ctx, np.moveaxis(t, -1, 0), stacks):
        mats = block.reshape(len(block), n_last, math.prod(block.shape[2:]))
        hit = np.flatnonzero(batch_rank(ctx, mats) <= c_last)
        if hit.size:
            return np.unravel_index(offset + hit[0], [b.shape[0] for b in stacks]), mats[hit[0]]
        offset += len(block)
    return None


def _greedy_upper(p: MultilinearForm) -> int:
    """Upper bound by repeatedly peeling one slice off the cheapest slot.

    At each step the slot with the smallest flattening rank is restricted
    to the kernel of the last nonzero row of rref(flattening^T), a hyperplane
    that holds the left kernel and the first r - 1 pivot rows, so it lowers
    that rank by exactly one; each step costs one slice by the codimension
    characterization of the slice rank.
    """
    ctx = p.ctx
    t = p.coeffs
    total = 0
    while t.any():
        reds = [rref(Matrix(ctx, np.moveaxis(t, ax, 0).reshape(t.shape[ax], -1).T))
                for ax in range(t.ndim)]
        ax = int(np.argmin([red.rank for red in reds]))
        red = reds[ax]
        h = kernel_basis(Matrix(ctx, red.matrix.data[red.rank - 1:red.rank]))
        t = restrict_axis_arr(ctx, t, ax, h.basis)
        total += 1
    return total


def _deepen(ctx: FieldCtx, t: np.ndarray, limits, floor, cap: int):
    """First hit of the least level r = sum(c), c_i <= limits[i], at which
    subspaces of codimension c_i on the slots before the last leave t a
    matrix of rank <= c_last against its last slot, as (r, stacks, index
    tuple, matrix).  Each level r up to upper, the least flattening rank of a
    slot that may be cut (it always hits), is planned once: its compositions,
    in lex order, and price[r], their rank tests, prod_{i<d-1} [n_i, n_i - c_i]_q
    summed over them.  Levels run from lower = min(floor(upper, price), upper),
    floor a proven bound on the value such as the analytic floor, subspaces in
    canonical order; past the cap, sum(price[lower:]) returns instead."""
    dims = t.shape
    upper = min((rref(Matrix(ctx, np.moveaxis(t, i, 0).reshape(n, -1))).rank
                 for i, n in enumerate(dims) if limits[i]), default=0)
    comps = [_compositions(r, limits) for r in range(upper + 1)]
    price = [sum(math.prod(gaussian_binomial(n, n - c, ctx.q) for n, c in zip(dims[:-1], comp))
                 for comp in level) for level in comps]
    lower = min(floor(upper, price), upper)
    total = sum(price[lower:])
    if total > cap:
        return total
    for r in range(lower, upper + 1):
        for comp in comps[r]:
            stacks = [subspace_bases(ctx, n, n - c) for n, c in zip(dims[:-1], comp)]
            hit = _first_vanishing(ctx, t, stacks, comp[-1])
            if hit is not None:
                return (r, stacks) + hit
    raise RuntimeError("rank search failed to terminate")  # unreachable


def slice_rank_exact(p: MultilinearForm, cap: int = SEARCH_CAP,
                     counts: Optional[dict[int, ZeroSetCount]] = None) -> SliceRank:
    """Least sum of slot codimensions over vanishing subspace tuples.

    _deepen with every slot cut up to its dimension, from _ladder_floor; the
    first witness wins, its last subspace the left kernel of the matrix that
    hit.  `counts` is the caller's memo {e: ZeroSetCount} of p (each of any
    slot; the floor is the same from every slot), to which the counts of
    slot 0 that pay for themselves are added.  Past the cap, a greedy bound
    returns non-exact.
    """
    ctx = p.ctx
    counts = _check_counts(counts)
    hit = _deepen(ctx, p.coeffs, p.dims,
                  lambda upper, price: _ladder_floor(p, counts, cap, upper, price), cap)
    if isinstance(hit, int):
        return SliceRank(_greedy_upper(p), None, False)
    r, stacks, idx, mat = hit
    subs = [Subspace(ctx, n, b[i]) for n, b, i in zip(p.dims, stacks, idx)]
    w = _make_witness(p, subs + [left_kernel_basis(Matrix(ctx, mat))])
    assert w.codim_sum == r
    return SliceRank(r, w, True)


def schmidt_rank(p: MultilinearForm, cap: int = SEARCH_CAP) -> SchmidtRank:
    """Slice rank, exact as Schmidt rank for d <= 3, an upper bound beyond."""
    return slice_rank_exact(p, cap=cap).schmidt(p.d)


def subspace_rank_exact(mats, cap: int = SEARCH_CAP) -> int:
    """Minimum codim(W1) + codim(W2) with every given matrix vanishing on
    W1 x W2 (d = 2; the input spans the space of forms), by the slice search
    of the (L, n1, n2) stack with its member slot never cut."""
    ctx, stack = stack_matrices(mats)  # (L, n1, n2)
    _, n1, n2 = stack.shape
    lower = int(batch_rank(ctx, stack).max())  # vanishing forces c1 + c2 >= rank(l) for each l
    hit = _deepen(ctx, stack, (0, n1, n2), lambda upper, price: lower, cap)
    if isinstance(hit, int):
        capped("subspace-rank search rank tests", cap, hit)  # hit is past the cap
    return hit[0]


def generic_max_rank(mats, ext_e: int = 1, samples: int = 0, seed: int = 0) -> int:
    """Max rank over the span, stabilized over extensions.

    Ranks every base-field combination when q^dim(span) is at most
    EXHAUSTIVE_SPAN_CAP, as max_rank_reduction does, and otherwise the basis;
    then `samples` seeded random combinations over GF(q^deg) for every
    deg = 1..ext_e.  The running maximum is returned, so the result is
    monotone nondecreasing in both ext_e and samples by construction; the
    arguments are checked by linalg.sampled_span.  With a large extension the
    result is the algebraic-closure value up to a per-sample failure
    probability of about (rank degeneracy degree) / q^deg; this is a
    heuristic, not a certificate.
    """
    ctx, _, basis = sampled_span(mats, ext_e, samples)
    dim_l = basis.shape[0]
    if dim_l == 0:
        return 0
    combos = span_coefficients(ctx, dim_l)  # None: too many, rank the basis
    best = int(span_ranks(ctx, np.eye(dim_l, dtype=np.int64) if combos is None else combos,
                          basis).max())
    if samples > 0:
        for deg in range(1, ext_e + 1):
            ext, emb = ctx.extension(deg)
            rng = np.random.default_rng(np.random.SeedSequence((seed, deg)))
            cf = rng.integers(0, ext.q, size=(samples, dim_l), dtype=np.int64)
            best = max(best, int(span_ranks(ext, cf, emb[basis]).max()))
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


def codim_estimate(p: MultilinearForm, e_max: int, cap: int = POINT_CAP,
                   counts: Optional[dict[int, ZeroSetCount]] = None) -> CodimEstimate:
    """Estimate from the counts at e = 1..e_max, read from `counts`, the
    caller's memo {e: ZeroSetCount} of p's slot 0 (as slice_rank_exact fills
    it), where it holds them, and added to it otherwise.  The sizes grow
    with e, so the levels stop before the first e >= 2 whose (q^e)^ambient
    points pass `cap`; the trace shows the levels used."""
    if e_max < 1:
        raise InputError(f"e_max must be >= 1, got {e_max}")
    if p.d < 2:
        raise InputError("codimension estimate needs at least two slots")
    counts = _check_counts(counts)
    trace = []
    logq = math.log(p.ctx.q)
    ambient = sum(p.dims[1:])
    for e in range(1, e_max + 1):
        if e > 1 and not within_cap(cap, p.ctx.q, e * ambient):
            break
        if e not in counts:
            counts[e] = zero_set_count(p, e, cap=cap)
        z = counts[e]
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
