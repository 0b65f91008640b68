"""Matrix pencils sA + tB: Kronecker singular blocks, rank profiles over
extensions, the kernel-image containment check, the radical restriction
check, and the max-rank reduction certificate for spans of matrices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, capped, json_int
from .forms import check_coeff_cap
from .gfq import FieldCtx, descriptor, field_from_descriptor
from .linalg import (Matrix, Subspace, batch_rank, field_dot, kernel_basis, rref,
                     sampled_span, span_coefficients, span_ranks)

PROFILE_CAP = 10 ** 6  # bound on projective points per rank profile


@dataclass(frozen=True)
class Pencil:
    a: Matrix
    b: Matrix

    def __post_init__(self):
        if self.a.ctx != self.b.ctx or self.a.data.shape != self.b.data.shape:
            raise InputError("pencil members must share field and shape")

    @property
    def ctx(self) -> FieldCtx:
        return self.a.ctx

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.data.shape


def kronecker_block(ctx: FieldCtx, kind: str, n: int) -> Pencil:
    """Singular Kronecker blocks.

    "Ln": the (n+1) x n pair with A e_i = f_i and B e_i = f_{i+1}.
    "Ln_transpose": the n x (n+1) pair with A = [I | 0] and B = [0 | I].
    """
    if n < 0:
        raise InputError(f"block size must be >= 0, got {n}")
    check_coeff_cap((n + 1, n))
    if kind == "Ln":
        a, b = np.eye(n + 1, n, dtype=np.int64), np.eye(n + 1, n, -1, dtype=np.int64)
    elif kind == "Ln_transpose":
        a, b = np.eye(n, n + 1, dtype=np.int64), np.eye(n, n + 1, 1, dtype=np.int64)
    else:
        raise InputError(f"unknown block kind {kind!r} (want Ln or Ln_transpose)")
    return Pencil(Matrix(ctx, a), Matrix(ctx, b))


@dataclass(frozen=True)
class RankProfile:
    """rank(sA + tB) at every projective point of the line over GF(q^e).

    Points are listed as (1, t) for each t in encoding order, then (0, 1);
    encodings refer to the extension context.
    """

    extension_degree: int
    field_order: int
    points: tuple[tuple[tuple[int, int], int], ...]


def _line_ranks(pencil: Pencil, ext_e: int, cap: int = PROFILE_CAP):
    """(ext, emb, ranks): rank(A + tB) for every t in GF(q^ext_e) in encoding
    order, then rank(B) at the point at infinity, from one batch_rank call.
    The cap is checked before the extension is built; rank does not change
    under field extension, so ranks[emb] are the ranks over the base field."""
    if ext_e < 1:
        raise InputError(f"extension degree must be >= 1, got {ext_e}")
    capped("pencil line affine points", cap - 1, pencil.ctx.q, ext_e)  # cap - 1: infinity
    ext, emb = pencil.ctx.extension(ext_e)
    ea, eb = emb[pencil.a.data], emb[pencil.b.data]
    ts = np.arange(ext.q, dtype=np.int64)
    members = ext.add_arr(ea[None], ext.mul_arr(ts[:, None, None], eb[None]))
    return ext, emb, batch_rank(ext, np.concatenate([members, eb[None]]))


def _kernel_image(field: FieldCtx, m: np.ndarray,
                  mats: np.ndarray) -> tuple[Subspace, Optional[Subspace]]:
    """(ker M, im M), with im M None unless every matrix of the (k, rows, cols)
    stack maps ker M into im M.  One rref of [M^T; l w for every l and w]: the
    containment holds exactly when its rank is rank M, and then its nonzero
    rows are the canonical basis of im M (RREF depends on the row span only)."""
    rows, cols = m.shape
    w = kernel_basis(Matrix(field, m))
    mapped = field_dot(field, w.basis, np.moveaxis(mats, 2, 0))  # l w, every l and w
    red = rref(Matrix(field, np.vstack([m.T, mapped.reshape(w.dim * len(mats), rows)])))
    ok = red.rank == cols - w.dim
    return w, Subspace(field, rows, red.matrix.data[:red.rank]) if ok else None


def rank_profile(pencil: Pencil, ext_e: int = 1, cap: int = PROFILE_CAP) -> RankProfile:
    ext, _, ranks = _line_ranks(pencil, ext_e, cap)
    pts = [((1, t), int(r)) for t, r in enumerate(ranks[:-1])] + [((0, 1), int(ranks[-1]))]
    return RankProfile(ext_e, ext.q, tuple(pts))


@dataclass(frozen=True)
class KernelImageReport:
    """Does bounded rank along the affine pencil line force B(ker A) <= im A?

    affine_hypothesis_base / _ext: rank(A + tB) <= rank(A) for every t in
    the base field / the degree-ext_e extension.  Over a field with more
    than min(rows, cols) * (degeneracy points) elements the hypothesis
    forces the conclusion; over small base fields it need not (the
    all-elements diagonal against the identity is the standard
    counterexample).
    """

    affine_hypothesis_base: bool
    affine_hypothesis_ext: bool
    conclusion: bool
    rank_a: int
    extension_degree: int


def kernel_image_check(pencil: Pencil, ext_e: int = 4) -> KernelImageReport:
    _, emb, ranks = _line_ranks(pencil, ext_e)
    rank_a = int(ranks[0])  # t = 0
    hyp_base = bool((ranks[emb] <= rank_a).all())
    hyp_ext = bool((ranks[:-1] <= rank_a).all())
    _, image = _kernel_image(pencil.ctx, pencil.a.data, pencil.b.data[None])
    return KernelImageReport(hyp_base, hyp_ext, image is not None, rank_a, ext_e)


@dataclass(frozen=True)
class RadicalRestrictionReport:
    """If rank(B + tC) stays at most rank(B) over the extension, C must vanish on
    left-radical x right-radical of B, i.e. C(ker B) <= im B (im B annihilates the
    left kernel): the kernel-image conclusion for the pencil (B, C)."""

    hypothesis: bool
    conclusion: bool
    passed: bool
    rank_b: int
    extension_degree: int


def radical_restriction_check(b: Matrix, c: Matrix, ext_e: int = 4) -> RadicalRestrictionReport:
    if b.ctx != c.ctx or b.data.shape != c.data.shape:
        raise InputError("the two matrices must share field and shape")
    rep = kernel_image_check(Pencil(b, c), ext_e)
    hyp, concl = rep.affine_hypothesis_ext, rep.conclusion
    return RadicalRestrictionReport(hyp, concl, (not hyp) or concl, rep.rank_a, ext_e)


@dataclass(frozen=True)
class MaxRankReduction:
    """Kernel/image pair of a maximal-rank element of a span of matrices.

    On success the pair (W', V') = (ker M, im M) of a rank-maximal M
    satisfies l(W') <= V' for every l in the span, certifying that the
    minimal vanishing codimension sum is at most 2 * max_rank over the
    witness field.  over_extension records whether the verified witness
    required extension coefficients.
    """

    success: bool
    max_rank: int
    kernel: Optional[Subspace]
    image: Optional[Subspace]
    over_extension: bool
    witness_field_degree: int
    tried_base: int
    tried_ext: int


def max_rank_reduction(mats, ext_e: int = 4, samples: int = 50, seed: int = 0) -> MaxRankReduction:
    """Search a span for a maximal-rank element whose (ker, im) pair absorbs
    the whole span.

    Base-field elements are enumerated exhaustively when q^dim(span) is at
    most EXHAUSTIVE_SPAN_CAP, otherwise sampled; `samples` extra combinations
    are drawn over GF(q^ext_e), and more than EXHAUSTIVE_SPAN_CAP of them are
    refused before any draw.  Verification prefers base-field witnesses; only
    when every maximal-rank base element fails is the extension consulted.
    """
    ctx, shape, basis = sampled_span(mats, ext_e, samples)
    dim_l = basis.shape[0]
    if dim_l == 0:
        full = Subspace.full(ctx, shape[1])
        zero = Subspace.zero(ctx, shape[0])
        return MaxRankReduction(True, 0, full, zero, False, 1, 1, 0)
    base_coeffs = span_coefficients(ctx, dim_l)
    if base_coeffs is None:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        base_coeffs = np.vstack([np.eye(dim_l, dtype=np.int64),
                                 rng.integers(0, ctx.q, size=(samples, dim_l), dtype=np.int64)])
    ext, emb = ctx.extension(ext_e)
    ext_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    ext_coeffs = ext_rng.integers(0, ext.q, size=(samples, dim_l), dtype=np.int64)
    sides = [(ctx, base_coeffs, basis), (ext, ext_coeffs, emb[basis])]
    ranks = [span_ranks(*side) for side in sides]
    rtilde = int(max(r.max(initial=0) for r in ranks))
    tried = [0, 0]  # base, extension
    for over_ext, ((field, coeffs, b), r) in enumerate(zip(sides, ranks)):
        for idx in np.flatnonzero(r == rtilde):
            tried[over_ext] += 1
            w, v = _kernel_image(field, field_dot(field, coeffs[idx], b), b)
            if v is not None:
                degree = ext_e if over_ext else 1
                return MaxRankReduction(True, rtilde, w, v, bool(over_ext), degree, *tried)
    return MaxRankReduction(False, rtilde, None, None, False, ext_e, *tried)


# -- serialization -------------------------------------------------------------

def pencil_to_obj(p: Pencil) -> dict:
    rows, cols = p.shape
    return {
        "field": descriptor(p.ctx),
        "rows": rows,
        "cols": cols,
        "A": [int(x) for x in p.a.data.reshape(-1)],
        "B": [int(x) for x in p.b.data.reshape(-1)],
    }


def pencil_from_obj(obj) -> Pencil:
    if not isinstance(obj, dict) or not {"field", "rows", "cols", "A", "B"} <= set(obj):
        raise InputError("pencil object needs keys field, rows, cols, A, B")
    ctx = field_from_descriptor(obj["field"])
    rows, cols = json_int(obj["rows"], "rows"), json_int(obj["cols"], "cols")
    if rows < 0 or cols < 0:
        raise InputError("rows and cols must be nonnegative integers")
    out = []
    for key in ("A", "B"):
        flat = obj[key]
        if not isinstance(flat, list) or len(flat) != rows * cols:
            raise InputError(f"{key} must be a list of length rows*cols")
        if any(not 0 <= json_int(x, f"{key} entry") < ctx.q for x in flat):
            raise InputError(f"{key} entries must be integers in [0, {ctx.q})")
        out.append(Matrix(ctx, np.array(flat, dtype=np.int64).reshape(rows, cols)))
    return Pencil(out[0], out[1])
