"""Independent brute-force oracles for cross-checking library results.

Everything here is deliberately naive: scalar field ops, itertools
enumeration, no shared code with the vectorized library paths beyond the
FieldCtx scalar arithmetic.  That arithmetic is the array arithmetic on one
element, so it is itself checked against digitwise_add, schoolbook_mul
and frobenius_trace, which work on digit lists and the modulus alone.
naive_dot is the scalar-loop reference for the library's one contraction
kernel, linalg.field_dot.  Six exceptions are former library routes
kept as faster references: enumerated_zero_set_count, the vectorized
zero-set enumeration (field_dot and all_vectors), for mid-size counts;
enumerated_value_histogram, the form's value at every point of the domain,
for mid-size character sums; recursive_slice_rank, the per-tuple
slice-rank search (canonical subspace order, one rref per tuple), which
pins the first-witness rule; greedy_hyperplanes, the greedy slice bound's
hyperplanes from a second rref and a left kernel, against the library's
one elimination per flattening; radical_restriction_vanishes, the
restriction of C to left kernel x kernel of B, against the pencil checks'
kernel-image containment; and gowers_norm_power_oracle, the U_d norm from
its defining average over all (x, h_1..h_d), against the library's
iterated-derivative route.
"""

import itertools

import numpy as np

from trlab.forms import MultilinearForm, restrict_axis_arr
from trlab.gfq import FieldCtx, digits
from trlab.linalg import (Matrix, Subspace, all_vectors, field_dot, kernel_basis,
                          left_kernel_basis, rref, subspace_bases)


def _digit_list(ctx: FieldCtx, a: int) -> list[int]:
    return [(int(a) // ctx.p ** j) % ctx.p for j in range(ctx.e)]


def _encode(ctx: FieldCtx, ds) -> int:
    return sum((d % ctx.p) * ctx.p ** j for j, d in enumerate(ds))


def schoolbook_mul(ctx: FieldCtx, a: int, b: int) -> int:
    """Long multiplication of the digit lists of a and b, then reduction by
    ctx.modulus one leading coefficient at a time; no table is read."""
    p, e, mod = ctx.p, ctx.e, ctx.modulus
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_digit_list(ctx, a)):
        for j, y in enumerate(_digit_list(ctx, b)):
            prod[i + j] += x * y
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k] % p
        for j in range(e + 1):
            prod[k - e + j] -= c * mod[j]
    return _encode(ctx, prod[:e])


def digitwise_add(ctx: FieldCtx, a: int, b: int) -> int:
    """Sum of the digit lists of a and b, digit by digit mod p."""
    return _encode(ctx, [x + y for x, y in zip(_digit_list(ctx, a), _digit_list(ctx, b))])


def frobenius_trace(ctx: FieldCtx, a: int) -> int:
    """a + a^p + ... + a^(p^(e-1)), each power by p schoolbook products."""
    acc, x = 0, int(a)
    for _ in range(ctx.e):
        acc = digitwise_add(ctx, acc, x)
        y = 1
        for _ in range(ctx.p):
            y = schoolbook_mul(ctx, y, x)
        x = y
    return acc


def naive_eval(p: MultilinearForm, vectors) -> int:
    """Monomial-sum evaluation: sum over all index tuples."""
    ctx = p.ctx
    acc = 0
    for idx in itertools.product(*(range(n) for n in p.dims)):
        term = int(p.coeffs[idx])
        for slot, i in enumerate(idx):
            term = ctx.mul(term, int(vectors[slot][i]))
        acc = ctx.add(acc, term)
    return acc


def naive_dot(ctx: FieldCtx, x, y) -> np.ndarray:
    """Last axis of x against first axis of y, one scalar add/mul at a time."""
    x, y = np.asarray(x), np.asarray(y)
    out = np.zeros(x.shape[:-1] + y.shape[1:], dtype=np.int64)
    for i in np.ndindex(*x.shape[:-1]):
        for j in np.ndindex(*y.shape[1:]):
            acc = 0
            for k in range(x.shape[-1]):
                acc = ctx.add(acc, ctx.mul(int(x[i + (k,)]), int(y[(k,) + j])))
            out[i + j] = acc
    return out


def naive_zero_set_count(p: MultilinearForm, ext_e: int = 1) -> int:
    """Loop over all tuples (v2..vd) over the extension; test every slot-0
    basis contraction via naive evaluation."""
    ext, emb = p.ctx.extension(ext_e)
    lifted = MultilinearForm(ext, emb[p.coeffs])
    dims = lifted.dims
    count = 0
    spaces = [list(itertools.product(range(ext.q), repeat=n)) for n in dims[1:]]
    basis = [tuple(1 if j == i else 0 for j in range(dims[0])) for i in range(dims[0])]
    for tail in itertools.product(*spaces):
        if all(naive_eval(lifted, (e,) + tail) == 0 for e in basis):
            count += 1
    return count


def enumerated_zero_set_count(p: MultilinearForm, ext_e: int = 1) -> int:
    """Contract slots 2..d with every vector tuple over the extension and
    count the tuples whose slot-0 functional is zero.  Materializes the
    whole (n1, Q^n2, ..., Q^nd) grid, so keep it to mid-size cases."""
    ext, emb = p.ctx.extension(ext_e)
    v = emb[p.coeffs]
    for n in p.dims[1:]:
        v = np.moveaxis(v, 1, -1)
        v = field_dot(ext, v, all_vectors(ext, n).T)
    return int((v == 0).all(axis=0).sum())


def enumerated_value_histogram(p: MultilinearForm) -> np.ndarray:
    """Contract every slot with every vector and count the values, as int64
    counts per field element.  Materializes the whole q^(n1+...+nd) grid,
    so keep it to mid-size cases."""
    v = p.coeffs
    for n in p.dims:
        v = field_dot(p.ctx, np.moveaxis(v, 0, -1), all_vectors(p.ctx, n).T)
    return np.bincount(v.reshape(-1), minlength=p.ctx.q)


def naive_charsum_rank(p: MultilinearForm, j: int = 1) -> float:
    """Direct full-domain character sum with scalar evaluation."""
    import cmath
    import math
    ctx = p.ctx
    total = 0 + 0j
    spaces = [list(itertools.product(range(ctx.q), repeat=n)) for n in p.dims]
    for point in itertools.product(*spaces):
        v = naive_eval(p, point)
        tr = ctx.trace(v)
        total += cmath.exp(2j * math.pi * j * tr / ctx.p)
    npts = ctx.q ** sum(p.dims)
    return -math.log(abs(total / npts)) / math.log(ctx.q)


def all_subspaces_bruteforce(ctx: FieldCtx, n: int, k: int) -> list[np.ndarray]:
    """Every k-dim subspace of GF(q)^n by canonicalizing all k x n matrices."""
    seen = {}
    for entries in itertools.product(range(ctx.q), repeat=k * n):
        m = np.array(entries, dtype=np.int64).reshape(k, n)
        red = rref(Matrix(ctx, m))
        if red.rank != k:
            continue
        basis = red.matrix.data[:k]
        seen.setdefault(basis.tobytes(), basis)
    return list(seen.values())


def _vanishes_on(p: MultilinearForm, bases) -> bool:
    """Restriction vanishes iff every basis tuple evaluates to zero."""
    ranges = [range(b.shape[0]) for b in bases]
    for pick in itertools.product(*ranges):
        vecs = [bases[slot][i] for slot, i in enumerate(pick)]
        if naive_eval(p, vecs) != 0:
            return False
    return True


def naive_slice_rank(p: MultilinearForm) -> int:
    """Minimum codim sum over ALL subspace tuples (full enumeration)."""
    ctx = p.ctx
    per_slot = []
    for n in p.dims:
        layers = {}
        for k in range(n + 1):
            layers[k] = all_subspaces_bruteforce(ctx, n, k)
        per_slot.append(layers)
    best = sum(p.dims)
    for dims_pick in itertools.product(*(range(n + 1) for n in p.dims)):
        codim = sum(n - k for n, k in zip(p.dims, dims_pick))
        if codim >= best:
            continue
        for bases in itertools.product(*(per_slot[s][k] for s, k in enumerate(dims_pick))):
            if _vanishes_on(p, list(bases)):
                best = codim
                break
    return best


def _recursive_search(p: MultilinearForm, comp):
    """Witness bases with codim(W_i) = comp[i], recursing slot by slot over
    canonical subspaces and ranking each restricted tensor against the last
    slot; the first tuple whose rank is at most comp[-1] wins."""
    ctx, dims, d = p.ctx, p.dims, p.d
    per_slot = [None if comp[i] == 0 else subspace_bases(ctx, dims[i], dims[i] - comp[i])
                for i in range(d - 1)]
    chosen = [None] * (d - 1)

    def finish(t):
        m = Matrix(ctx, t.reshape(-1, dims[-1]))
        if rref(m).rank > comp[-1]:
            return None
        bases = [np.eye(dims[j], dtype=np.int64) if chosen[j] is None else chosen[j]
                 for j in range(d - 1)]
        return bases + [kernel_basis(m).basis]

    def rec(i, t):
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


def recursive_slice_rank(p: MultilinearForm):
    """(value, witness bases) by iterative deepening from 0 over codimension
    compositions in lexicographic order, each searched per tuple."""
    slots = [range(n + 1) for n in p.dims]
    for r in range(sum(p.dims) + 1):
        for comp in sorted(c for c in itertools.product(*slots) if sum(c) == r):
            got = _recursive_search(p, comp)
            if got is not None:
                return r, got
    raise AssertionError("a full-codimension tuple always vanishes")


def greedy_hyperplanes(p: MultilinearForm) -> list[tuple[int, np.ndarray]]:
    """(slot, canonical hyperplane basis) of every step of the greedy slice
    bound, built the former way: the slot of least flattening rank r is cut
    to the span of the left kernel of its flattening and the unit vectors of
    the first r - 1 independent rows, reduced by a second rref."""
    ctx, t, steps = p.ctx, p.coeffs, []
    while t.any():
        flats = [np.moveaxis(t, ax, 0).reshape(t.shape[ax], -1) for ax in range(t.ndim)]
        ax = int(np.argmin([rref(Matrix(ctx, a)).rank for a in flats]))
        a = flats[ax]
        keep = np.eye(t.shape[ax], dtype=np.int64)[list(rref(Matrix(ctx, a.T)).pivots[:-1])]
        h = Subspace.from_rows(ctx, np.vstack([kernel_basis(Matrix(ctx, a.T)).basis, keep]))
        steps.append((ax, h.basis))
        t = restrict_axis_arr(ctx, t, ax, h.basis)
    return steps


def naive_subspace_rank(mats, ctx: FieldCtx) -> int:
    """Minimum codim(W1)+codim(W2) with every matrix vanishing on W1 x W2."""
    n1, n2 = mats[0].data.shape
    best = n1 + n2
    layers1 = {k: all_subspaces_bruteforce(ctx, n1, k) for k in range(n1 + 1)}
    layers2 = {k: all_subspaces_bruteforce(ctx, n2, k) for k in range(n2 + 1)}
    for k1 in range(n1 + 1):
        for k2 in range(n2 + 1):
            codim = (n1 - k1) + (n2 - k2)
            if codim >= best:
                continue
            hit = False
            for b1 in layers1[k1]:
                for b2 in layers2[k2]:
                    if all(_bilinear_vanishes(ctx, m.data, b1, b2) for m in mats):
                        hit = True
                        break
                if hit:
                    break
            if hit:
                best = codim
    return best


def _bilinear_vanishes(ctx, m, b1, b2) -> bool:
    for u in b1:
        for v in b2:
            acc = 0
            for i in range(m.shape[0]):
                if u[i]:
                    for j in range(m.shape[1]):
                        acc = ctx.add(acc, ctx.mul(ctx.mul(int(u[i]), int(m[i, j])), int(v[j])))
            if acc != 0:
                return False
    return True


def radical_restriction_vanishes(b: Matrix, c: Matrix) -> bool:
    """s_u C s_v^T = 0 for bases s_u of the left kernel and s_v of the kernel
    of B: C vanishes on left-radical x right-radical of B."""
    s_u, s_v = left_kernel_basis(b), kernel_basis(b)
    return not field_dot(b.ctx, field_dot(b.ctx, s_u.basis, c.data), s_v.basis.T).any()


def random_invertible(ctx: FieldCtx, n: int, rng) -> Matrix:
    while True:
        m = Matrix(ctx, rng.integers(0, ctx.q, size=(n, n), dtype=np.int64))
        if rref(m).rank == n:
            return m


def is_irreducible_oracle(coeffs, p: int) -> bool:
    """Trial division: a monic polynomial of degree e >= 1 (coefficients
    lowest degree first) is irreducible iff no monic polynomial of degree
    1..e//2 divides it."""
    e = len(coeffs) - 1
    for k in range(1, e // 2 + 1):
        for low in itertools.product(range(p), repeat=k):
            div, rem = list(low) + [1], list(coeffs)
            for top in range(e, k - 1, -1):  # clear rem[top] by a shifted monic div
                f = rem[top]
                for i in range(k + 1):
                    rem[top - k + i] = (rem[top - k + i] - f * div[i]) % p
            if not any(rem[:k]):
                return False
    return True


def polarization_value_oracle(q, hs) -> int:
    """Alternating-subset-sum value of the polarized form at given vectors."""
    p = q.ctx.p
    d = len(hs)
    acc = 0
    for s in range(1 << d):
        point = [0] * q.n
        bits = 0
        for i in range(d):
            if s >> i & 1:
                bits += 1
                for j in range(q.n):
                    point[j] = (point[j] + int(hs[i][j])) % p
        val = q.evaluate(point)
        if (d - bits) % 2:
            acc -= val
        else:
            acc += val
    return acc % p


def gowers_norm_power_oracle(q, d: int) -> float:
    """2^d-th power of the U_d norm of psi(Q) from the defining average: the
    d-fold multiplicative derivative of f = psi(Q) summed over every
    (x, h_1..h_d), one x at a time over all 2^d subsets with their conjugation
    parity, normalized by |V|^(d+1).  No size cap; keep the inputs small."""
    p, n = q.ctx.p, q.n
    npts = p ** n
    total = npts ** (d + 1)
    fvals = q.ctx.char_table(1)[q.evaluate_all()]
    # vector addition table on encoded points
    pts = np.arange(npts, dtype=np.int64)
    coords = digits(pts, p, n)
    vadd = np.zeros((npts, npts), dtype=np.int64)
    for j in range(n):
        vadd += (coords[:, None, j] + coords[None, :, j]) % p * p ** j
    axes = [pts.reshape((1,) * i + (npts,) + (1,) * (d - 1 - i)) for i in range(d)]
    total_sum = 0.0 + 0.0j
    for x in range(npts):
        acc = np.ones((npts,) * d, dtype=np.complex128)
        for s in range(1 << d):
            idx = np.int64(x)
            for i in range(d):
                if s >> i & 1:
                    idx = vadd[idx, axes[i]]
            f = fvals[idx]
            if (d - bin(s).count("1")) % 2:
                f = np.conj(f)
            acc = acc * f
        total_sum += acc.sum()
    return float((total_sum / total).real)
