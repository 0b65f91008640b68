"""Exact dense linear algebra over a FieldCtx.

Matrices and subspaces are immutable values.  A subspace is canonically
represented by the reduced row echelon basis of its row span, so equality
is a byte comparison and enumeration order is reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import InputError, capped, within_cap
from .gfq import FieldCtx, digits

SUBSPACE_CAP = 10 ** 7  # default refusal bound on enumerated subspace counts
EXHAUSTIVE_SPAN_CAP = 10 ** 5  # largest q^dim(span) whose elements are all enumerated
GRID_BUDGET = 1 << 22     # max grid cells materialized per vectorized step


def _as_field_array(ctx: FieldCtx, data, ndim: int) -> np.ndarray:
    arr = np.asarray(data, dtype=np.int64)
    if arr.ndim != ndim:
        raise InputError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= ctx.q):
        raise InputError(f"entries must lie in [0, {ctx.q})")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class Matrix:
    """Dense matrix over a finite field; rows x cols of element encodings."""

    __slots__ = ("ctx", "data")

    def __init__(self, ctx: FieldCtx, data):
        self.ctx = ctx
        self.data = _as_field_array(ctx, data, 2)

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "Matrix":
        return cls(ctx, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Matrix":
        return cls(ctx, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def transpose(self) -> "Matrix":
        return Matrix(self.ctx, self.data.T)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ctx != other.ctx or self.cols != other.rows:
            raise InputError("matrix product shape/field mismatch")
        return Matrix(self.ctx, field_dot(self.ctx, self.data, other.data))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ctx == other.ctx
                and self.data.shape == other.data.shape
                and np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash((self.ctx, self.data.shape, self.data.tobytes()))

    def __repr__(self):
        return f"Matrix({self.ctx!r}, {self.data.tolist()!r})"


def field_dot(ctx: FieldCtx, x, y) -> np.ndarray:
    """Field contraction of the last axis of x with the first axis of y.

    The semantics of np.tensordot(x, y, 1): the result has shape
    x.shape[:-1] + y.shape[1:].  Every contraction in the lab goes through
    here; move the contracted axis into place with np.moveaxis.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    k = x.shape[-1]
    shape = x.shape[:-1] + y.shape[1:]
    if ctx.e == 1:
        # explicit m and n, so that zero-size axes reshape too
        m, n = math.prod(x.shape[:-1]), math.prod(y.shape[1:])
        return ((x.reshape(m, k) @ y.reshape(k, n)) % ctx.p).reshape(shape)
    pad = (Ellipsis,) + (None,) * (y.ndim - 1)
    out = np.zeros(shape, dtype=np.int64)
    for i in range(k):
        xi = x[..., i]
        if xi.any():
            out = ctx.add_arr(out, ctx.mul_arr(xi[pad], y[i]))
    return out


def all_vectors(ctx: FieldCtx, n: int) -> np.ndarray:
    """Every vector of GF(q)^n, one per row: row r is the vector whose j-th
    coordinate is digit j of r in base q."""
    return digits(np.arange(ctx.q ** n), ctx.q, n)


def span_coefficients(ctx: FieldCtx, dim: int) -> Optional[np.ndarray]:
    """Every coefficient vector of GF(q)^dim, one per member of a span of that
    dimension, when q^dim is at most EXHAUSTIVE_SPAN_CAP; None otherwise."""
    return all_vectors(ctx, dim) if within_cap(EXHAUSTIVE_SPAN_CAP, ctx.q, dim) else None


def stack_matrices(mats) -> tuple[FieldCtx, np.ndarray]:
    """(field, (L, rows, cols) stack) of a nonempty list of matrices that
    share one field and one shape."""
    mats = list(mats)
    if not mats:
        raise InputError("need at least one matrix")
    ctx = mats[0].ctx
    shape = mats[0].data.shape
    if any(m.ctx != ctx or m.data.shape != shape for m in mats):
        raise InputError("all matrices must share field and shape")
    return ctx, np.stack([m.data for m in mats])


def span_basis(mats) -> tuple[FieldCtx, tuple[int, int], np.ndarray]:
    """(field, shape, basis) of the span of equal-shape matrices; the basis is
    the nonzero RREF rows of the flattened matrices, reshaped, (dim, rows, cols)."""
    ctx, stack = stack_matrices(mats)
    shape = stack.shape[1:]
    red = rref(Matrix(ctx, stack.reshape(len(stack), math.prod(shape))))
    return ctx, shape, red.matrix.data[:red.rank].reshape(red.rank, *shape)


def sampled_span(mats, ext_e: int, samples: int) -> tuple[FieldCtx, tuple[int, int], np.ndarray]:
    """span_basis(mats) for a search that draws `samples` members of the span
    over extensions of degree up to ext_e.  ext_e < 1, samples < 0 and more
    than EXHAUSTIVE_SPAN_CAP samples are refused first, before any draw."""
    if ext_e < 1 or samples < 0:
        raise InputError(f"need ext_e >= 1 and samples >= 0, got {ext_e} and {samples}")
    capped("samples", EXHAUSTIVE_SPAN_CAP, samples)  # never more members than exhausting
    return span_basis(mats)


def span_ranks(ctx: FieldCtx, coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Ranks of the span members coeffs[i] . basis, for an (N, dim) coefficient
    block and a (dim, rows, cols) basis, built and ranked in blocks of at most
    GRID_BUDGET member cells (one member when it alone is larger)."""
    block = max(1, GRID_BUDGET // max(1, math.prod(basis.shape[1:])))
    out = np.zeros(len(coeffs), dtype=np.int64)
    for s in range(0, len(coeffs), block):
        out[s:s + block] = batch_rank(ctx, field_dot(ctx, coeffs[s:s + block], basis))
    return out


class RrefResult(NamedTuple):
    matrix: "Matrix"
    rank: int
    pivots: tuple[int, ...]


def rref(m: Matrix) -> RrefResult:
    """Gauss-Jordan reduced row echelon form.

    Pivot choice is deterministic: leftmost eligible column, topmost
    nonzero row.
    """
    ctx = m.ctx
    a = m.data.copy()
    rows, cols = a.shape
    r = 0
    pivots = []
    for col in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        piv = int(a[r, col])
        if piv != 1:
            a[r] = ctx.mul_arr(a[r], np.int64(ctx.inv(piv)))
        fac = a[:, col].copy()
        fac[r] = 0
        if np.any(fac):
            a = ctx.sub_arr(a, ctx.mul_arr(fac[:, None], a[r][None, :]))
        pivots.append(col)
        r += 1
    return RrefResult(Matrix(ctx, a), r, tuple(pivots))


def rank(m: Matrix) -> int:
    return rref(m).rank


class Subspace:
    """Subspace of GF(q)^n, stored as the RREF basis of its row span."""

    __slots__ = ("ctx", "ambient", "basis")

    def __init__(self, ctx: FieldCtx, ambient: int, basis):
        self.ctx = ctx
        self.ambient = int(ambient)
        b = _as_field_array(ctx, basis, 2)
        if b.shape[1] != self.ambient:
            raise InputError("basis width must equal the ambient dimension")
        self.basis = b

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "Subspace":
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2:
            raise InputError("expected a 2-d array of spanning rows")
        red = rref(Matrix(ctx, arr))
        return cls(ctx, arr.shape[1], red.matrix.data[: red.rank])

    @classmethod
    def full(cls, ctx: FieldCtx, n: int) -> "Subspace":
        return cls(ctx, n, np.eye(n, dtype=np.int64))

    @classmethod
    def zero(cls, ctx: FieldCtx, n: int) -> "Subspace":
        return cls(ctx, n, np.zeros((0, n), dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def codim(self) -> int:
        return self.ambient - self.dim

    def contains_vectors(self, vectors) -> bool:
        v = np.asarray(vectors, dtype=np.int64).reshape(-1, self.ambient)
        stacked = np.vstack([self.basis, v])
        return rref(Matrix(self.ctx, stacked)).rank == self.dim

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ctx == other.ctx
                and self.ambient == other.ambient
                and self.basis.shape == other.basis.shape
                and np.array_equal(self.basis, other.basis))

    def __hash__(self):
        return hash((self.ctx, self.ambient, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, GF({self.ctx.q}))"


def kernel_basis(m: Matrix) -> Subspace:
    """Right kernel {v : M v = 0} as a canonical subspace of GF(q)^cols."""
    ctx = m.ctx
    red, rk, pivots = rref(m)
    n = m.cols
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return Subspace.zero(ctx, n)
    rows = np.zeros((len(free), n), dtype=np.int64)
    rows[np.arange(len(free)), free] = 1
    rows[:, list(pivots)] = ctx.neg_arr(red.data[:rk, free].T)
    return Subspace.from_rows(ctx, rows)


def left_kernel_basis(m: Matrix) -> Subspace:
    """Left kernel {u : u^T M = 0} as a canonical subspace of GF(q)^rows."""
    return kernel_basis(m.transpose())


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n (exact integer)."""
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


def _pivot_free_positions(pivots: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    pset = set(pivots)
    return [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, n) if c not in pset]


@functools.lru_cache(maxsize=None)
def _subspace_bases_cached(ctx: FieldCtx, n: int, k: int) -> np.ndarray:
    """All RREF bases of k-dim subspaces of GF(q)^n, shape (count, k, n).

    Order: pivot sets lexicographically, then free entries counting with
    the last free position fastest (matches itertools.product).
    """
    q = ctx.q
    if k == 0:
        return np.zeros((1, 0, n), dtype=np.int64)
    blocks = []
    for pivots in itertools.combinations(range(n), k):
        free = _pivot_free_positions(pivots, n)
        f = len(free)
        cnt = q ** f
        block = np.zeros((cnt, k, n), dtype=np.int64)
        for i, p in enumerate(pivots):
            block[:, i, p] = 1
        if f:
            vals = np.indices((q,) * f).reshape(f, -1).T
            for idx, (i, c) in enumerate(free):
                block[:, i, c] = vals[:, idx]
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def subspace_bases(ctx: FieldCtx, n: int, k: int, cap: int = SUBSPACE_CAP) -> np.ndarray:
    """Cached array of all canonical bases; refuses above the cap."""
    capped(f"{k}-dim subspaces of GF({ctx.q})^{n}", cap, gaussian_binomial(n, k, ctx.q))
    return _subspace_bases_cached(ctx, n, k)


def batch_rank(ctx: FieldCtx, mats: np.ndarray) -> np.ndarray:
    """Ranks of a stack of matrices (B, m, n), eliminated in lockstep with no
    row swaps: in each column the first free (not yet pivot) row nonzero there
    clears that column from the other free rows.  Row operations keep the rank,
    pivot rows end in echelon form and free rows zero: the pivots count rref's rank."""
    work = np.array(mats, dtype=np.int64)
    if work.ndim != 3:
        raise InputError("batch_rank expects a (batch, rows, cols) array")
    free = np.ones(work.shape[:2], dtype=bool)
    for col in range(work.shape[2]):
        if not free.any():
            break
        cand = (work[:, :, col] != 0) & free
        b = np.flatnonzero(cand.any(axis=1))
        p = np.argmax(cand[b], axis=1)
        free[b, p] = False
        fac = work[b, :, col] * free[b]
        keep = fac.any(axis=1)
        if keep.any():
            b, pivrow = b[keep], work[b[keep], p[keep]]
            fac = ctx.mul_arr(fac[keep], ctx.inv_arr(pivrow[:, col])[:, None])
            work[b] = ctx.sub_arr(work[b], ctx.mul_arr(fac[:, :, None], pivrow[:, None, :]))
    return work.shape[1] - free.sum(axis=1)
