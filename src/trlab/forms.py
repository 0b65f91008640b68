"""Multilinear forms as dense coefficient tensors, plus polynomial functions.

A form P(v1, ..., vd) = sum c[i1..id] * v1[i1] * ... * vd[id] is stored as
a d-way int64 array of element encodings.  Slot indices are 0-based
everywhere (numpy axis convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, capped, json_int
from .gfq import FieldCtx, descriptor, digits, field_from_descriptor
from .linalg import Matrix, Subspace, field_dot

COEFF_CAP = 10 ** 7  # dense storage bound on prod(dims)


def check_coeff_cap(dims) -> None:
    """Refuse negative dims, and dense coefficients of these dims above
    COEFF_CAP, before allocating them."""
    if any(n < 0 for n in dims):
        raise InputError(f"dims must be >= 0, got {tuple(dims)}")
    capped("coefficient tensor size", COEFF_CAP, math.prod(dims))


class MultilinearForm:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.ndim < 1 or any(n < 1 for n in arr.shape):
            raise InputError("a form needs d >= 1 slots, each of dimension >= 1")
        check_coeff_cap(arr.shape)
        if arr.size and (arr.min() < 0 or arr.max() >= ctx.q):
            raise InputError(f"coefficients must lie in [0, {ctx.q})")
        self.ctx = ctx
        arr = arr.copy()
        arr.setflags(write=False)
        self.coeffs = arr

    @property
    def dims(self) -> tuple[int, ...]:
        return self.coeffs.shape

    @property
    def d(self) -> int:
        return self.coeffs.ndim

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __eq__(self, other):
        return (isinstance(other, MultilinearForm) and self.ctx == other.ctx
                and self.dims == other.dims
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.ctx, self.dims, self.coeffs.tobytes()))

    def __repr__(self):
        return f"MultilinearForm(GF({self.ctx.q}), dims={self.dims})"


def restrict_axis_arr(ctx: FieldCtx, t: np.ndarray, axis: int, basis: np.ndarray) -> np.ndarray:
    """Replace one axis by its restriction to the row span of `basis` (k x n)."""
    return np.moveaxis(field_dot(ctx, basis, np.moveaxis(t, axis, 0)), 0, axis)


def evaluate(p: MultilinearForm, *vectors) -> int:
    """Value of the defining multilinear sum at one point per slot."""
    if len(vectors) != p.d:
        raise InputError(f"expected {p.d} vectors, got {len(vectors)}")
    t = p.coeffs
    for slot, v in enumerate(vectors):
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (p.dims[slot],):
            raise InputError(f"slot {slot} expects a vector of length {p.dims[slot]}")
        t = field_dot(p.ctx, v, t)
    return int(t)


def contract(p: MultilinearForm, slot: int, v) -> MultilinearForm:
    """Fix one slot at a vector, producing a form of arity d-1."""
    if not (0 <= slot < p.d):
        raise InputError(f"slot {slot} out of range for arity {p.d}")
    if p.d == 1:
        raise InputError("cannot contract the last remaining slot; use evaluate")
    v = np.asarray(v, dtype=np.int64)
    if v.shape != (p.dims[slot],):
        raise InputError(f"slot {slot} expects a vector of length {p.dims[slot]}")
    return MultilinearForm(p.ctx, field_dot(p.ctx, v, np.moveaxis(p.coeffs, slot, 0)))


def flatten(p: MultilinearForm, slot: int) -> Matrix:
    """Matrix of shape n_slot x (product of the other dims).

    Columns follow the row-major order of the remaining slots.
    """
    if not (0 <= slot < p.d):
        raise InputError(f"slot {slot} out of range for arity {p.d}")
    moved = np.moveaxis(p.coeffs, slot, 0)
    return Matrix(p.ctx, moved.reshape(p.dims[slot], -1))


def restrict(p: MultilinearForm, subspaces) -> MultilinearForm:
    """Restrict each slot to a subspace (None keeps the slot whole)."""
    if len(subspaces) != p.d:
        raise InputError("one subspace (or None) per slot required")
    t = p.coeffs
    for axis, s in enumerate(subspaces):
        if s is None:
            continue
        if not isinstance(s, Subspace) or s.ambient != p.dims[axis] or s.ctx != p.ctx:
            raise InputError(f"slot {axis} restriction mismatch")
        t = restrict_axis_arr(p.ctx, t, axis, s.basis)
    return MultilinearForm(p.ctx, t) if t.size else _empty_ok(p.ctx, t)


def _empty_ok(ctx, t):
    # a zero-dimensional slot is a legitimate restriction result; bypass the
    # "each dim >= 1" constructor check while keeping the value immutable
    f = MultilinearForm.__new__(MultilinearForm)
    f.ctx = ctx
    arr = np.asarray(t, dtype=np.int64).copy()
    arr.setflags(write=False)
    f.coeffs = arr
    return f


def move_slot_first(p: MultilinearForm, slot: int) -> MultilinearForm:
    """Re-root the form so `slot` becomes slot 0 (order of the rest kept)."""
    if not (0 <= slot < p.d):
        raise InputError(f"slot {slot} out of range for arity {p.d}")
    return MultilinearForm(p.ctx, np.moveaxis(p.coeffs, slot, 0))


# -- generators -------------------------------------------------------------

def gen_diagonal(ctx: FieldCtx, n: int, d: int) -> MultilinearForm:
    """sum_i x1[i] x2[i] ... xd[i]."""
    if d < 1:
        raise InputError(f"a form needs d >= 1 slots, got {d}")
    capped("coefficient tensor size", COEFF_CAP, n, d)  # before the d-tuple of dims
    check_coeff_cap((n,) * d)
    c = np.zeros((n,) * d, dtype=np.int64)
    idx = np.arange(n)
    c[tuple(idx for _ in range(d))] = 1
    return MultilinearForm(ctx, c)


def gen_random(ctx: FieldCtx, dims, seed: int) -> MultilinearForm:
    """Uniform i.i.d. coefficients from a seeded generator (reproducible)."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    check_coeff_cap(dims)
    rng = np.random.default_rng(seed)
    c = rng.integers(0, ctx.q, size=tuple(dims), dtype=np.int64)
    return MultilinearForm(ctx, c)


def gen_rank_one(ctx: FieldCtx, covectors) -> MultilinearForm:
    """Product form l1(v1) * ... * ld(vd); coefficients are digit products."""
    vs = [np.asarray(v, dtype=np.int64) for v in covectors]
    if not vs:
        raise InputError("need at least one covector")
    check_coeff_cap([v.size for v in vs])
    cur = vs[0]
    for v in vs[1:]:
        cur = ctx.mul_arr(cur[..., None], v[(None,) * cur.ndim + (slice(None),)])
    return MultilinearForm(ctx, cur)


def gen_from_matrix(m: Matrix) -> MultilinearForm:
    """The bilinear form (u, v) -> u^T M v."""
    return MultilinearForm(m.ctx, m.data)


# -- polynomial functions (prime fields) ------------------------------------

@dataclass(frozen=True)
class PolynomialFn:
    """Polynomial function on GF(p)^n given by sparse terms.

    terms is a tuple of (exponent vector, coefficient); exponents are < p
    since x^p = x as a function on GF(p).
    """

    ctx: FieldCtx
    n: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        if self.ctx.e != 1:
            raise InputError("polynomial functions are supported over prime fields only")
        p = self.ctx.p
        for exps, coeff in self.terms:
            if len(exps) != self.n:
                raise InputError("each exponent vector must have length n")
            if any(not (0 <= e < p) for e in exps):
                raise InputError("exponents must lie in [0, p)")
            if not (0 <= coeff < p):
                raise InputError("coefficients must lie in [0, p)")

    def degree(self) -> int:
        degs = [sum(exps) for exps, coeff in self.terms if coeff % self.ctx.p]
        return max(degs, default=0)

    def evaluate(self, point) -> int:
        p = self.ctx.p
        x = [int(v) % p for v in point]
        if len(x) != self.n:
            raise InputError(f"expected a point of length {self.n}")
        acc = 0
        for exps, coeff in self.terms:
            t = coeff
            for xi, ei in zip(x, exps):
                if ei:
                    t = t * pow(xi, ei, p) % p
            acc = (acc + t) % p
        return acc

    def evaluate_all(self) -> np.ndarray:
        """Values on all p^n <= COEFF_CAP points, by base-p encoding of the point."""
        p, n = self.ctx.p, self.n
        npts = capped("polynomial table points", COEFF_CAP, p, n)
        coords = digits(np.arange(npts), p, n)
        out = np.zeros(npts, dtype=np.int64)
        for exps, coeff in self.terms:
            if coeff % p == 0:
                continue
            term = np.full(npts, coeff, dtype=np.int64)
            for j, ej in enumerate(exps):
                if ej:
                    term = term * self.ctx.pow_arr(coords[:, j], ej) % p
            out = (out + term) % p
        return out


def polarize(q: PolynomialFn, d: int) -> MultilinearForm:
    """Symmetric multilinear form attached to a degree-d polynomial.

    Qt(h1, ..., hd) = sum over subsets S of {1..d} of (-1)^(d-|S|) *
    Q(sum_{i in S} h_i).  Valid without division only when d < p, which is
    enforced; coefficients are extracted by evaluating on basis tuples.
    Terms of degree below d difference away, so degree(Q) <= d is allowed.
    """
    p, n = q.ctx.p, q.n
    if q.degree() > d:
        raise InputError(f"polynomial has degree {q.degree()}, expected at most {d}")
    if d >= p:
        raise InputError(f"polarization requires degree < characteristic ({d} >= {p})")
    vals = q.evaluate_all()
    check_coeff_cap((n,) * d)  # before the (d, n, ..., n) index grid
    # every digit of sum_{i in S} e_{idx[i]} is at most d < p, so the code of
    # that point is the plain sum of the p^{idx[i]}
    pw = p ** np.indices((n,) * d, dtype=np.int64)
    coeffs = np.zeros((n,) * d, dtype=np.int64)
    for s in range(1 << d):
        point = sum((pw[i] for i in range(d) if s >> i & 1), np.zeros_like(coeffs))
        coeffs += (-1) ** (d - bin(s).count("1")) * vals[point]
    return MultilinearForm(q.ctx, coeffs % p)


# -- serialization -----------------------------------------------------------

def tensor_to_obj(p: MultilinearForm) -> dict:
    """Tensor JSON object: coeffs row-major, last index fastest."""
    return {
        "field": descriptor(p.ctx),
        "dims": list(p.dims),
        "coeffs": [int(c) for c in p.coeffs.reshape(-1)],
    }


def tensor_from_obj(obj) -> MultilinearForm:
    if not isinstance(obj, dict) or not {"field", "dims", "coeffs"} <= set(obj):
        raise InputError("tensor object needs keys field, dims, coeffs")
    ctx = field_from_descriptor(obj["field"])
    dims = obj["dims"]
    if (not isinstance(dims, list) or not dims
            or any(json_int(n, "dims entry") < 1 for n in dims)):
        raise InputError("dims must be a nonempty list of positive integers")
    coeffs = obj["coeffs"]
    want = math.prod(dims)
    if not isinstance(coeffs, list) or len(coeffs) != want:
        raise InputError(f"coeffs must be a list of length {want}")
    if any(not 0 <= json_int(c, "coefficient") < ctx.q for c in coeffs):
        raise InputError(f"coefficients must be integers in [0, {ctx.q})")
    return MultilinearForm(ctx, np.array(coeffs, dtype=np.int64).reshape(dims))


def poly_to_obj(q: PolynomialFn) -> dict:
    return {
        "field": descriptor(q.ctx),
        "n": q.n,
        "terms": [{"exps": list(e), "coeff": c} for e, c in q.terms],
    }


def poly_from_obj(obj) -> PolynomialFn:
    if not isinstance(obj, dict) or not {"field", "n", "terms"} <= set(obj):
        raise InputError("polynomial object needs keys field, n, terms")
    ctx = field_from_descriptor(obj["field"])
    n = json_int(obj["n"], "n")
    if n < 1:
        raise InputError("n must be a positive integer")
    terms = []
    if not isinstance(obj["terms"], list):
        raise InputError("terms must be a list")
    for t in obj["terms"]:
        if not isinstance(t, dict) or not {"exps", "coeff"} <= set(t):
            raise InputError("each term needs exps and coeff")
        exps = t["exps"]
        if not isinstance(exps, list) or len(exps) != n:
            raise InputError("exps must be a list of length n")
        terms.append((tuple(json_int(e, "exponent") for e in exps),
                      json_int(t["coeff"], "coeff")))
    return PolynomialFn(ctx, n, tuple(terms))
