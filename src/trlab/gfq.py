"""Exact arithmetic in GF(p^e): contexts, traces, additive characters.

Conventions used throughout the lab:

* An element of GF(p^e) is a canonical integer in [0, p^e).  The integer is
  the base-p encoding of the polynomial-basis coefficient vector, least
  significant coefficient first.  This is also the on-disk element format,
  so serialization is the identity.
* The modulus is always the lexicographically least monic irreducible of
  degree e over GF(p), "least" meaning the smallest integer encoding of the
  non-leading coefficient vector.  This makes towers reproducible across
  runs and platforms without polynomial tables.  Irreducibility is decided
  by a root test (degree e over GF(p) is irreducible iff there is no root
  in GF(p^k) for any k <= e/2) run with the array arithmetic of those
  smaller fields, so the contexts below are the only arithmetic here.
* Extensions of GF(q), q = p^e0, are always built directly over the prime
  field as GF(p^(e*e0)) together with an explicit embedding table for the
  base field (image of the base generator = the root of the base modulus
  with the smallest encoding).

Contexts are immutable after construction and safe to share across
threads; every operation is a pure function of its inputs.  Internal
memo caches (extensions, character tables) do not affect semantics.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InputError, capped, json_int

SIZE_CAP = 1 << 20       # largest field order the lab will construct
# dense q x q multiplication table up to this order, e >= 2, and for odd p
# also q x q addition and length-q negation tables; the digit path only above
FULL_TABLE_MAX = 1 << 10
# inverse table up to this order; it and the multiplication table are read
# off a log/exp table that is dropped after construction
LOG_TABLE_MAX = 1 << 16


def digits(x, base: int, n: int) -> np.ndarray:
    """Base-`base` digits of x, least significant first: shape x.shape + (n,)."""
    t = np.array(x, dtype=np.int64)
    out = np.empty(t.shape + (n,), dtype=np.int64)
    for j in range(n):
        out[..., j] = t % base
        t //= base
    return out


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _values(ctx: FieldCtx, coeffs) -> np.ndarray:
    """Values at every element of ctx of the polynomial with GF(p)
    coefficients `coeffs` (lowest degree first), by Horner's rule."""
    xs = np.arange(ctx.q, dtype=np.int64)
    val = np.zeros(ctx.q, dtype=np.int64)
    for c in reversed(coeffs):
        val = ctx.add_arr(ctx.mul_arr(val, xs), int(c))
    return val


def _linear_map(src: FieldCtx, dst: FieldCtx, x, images) -> np.ndarray:
    """The GF(p)-linear map sending the basis element alpha^j of src to
    images[j] in dst, applied to x: sum_j d_j(x) * images[j], with the d_j
    the digits of x, is an integer map on digit vectors mod p."""
    img = digits(np.asarray(images, dtype=np.int64), dst.p, dst.e)
    return ((digits(x, src.p, src.e) @ img) % dst.p) @ dst._pw


def _is_irreducible(coeffs, p: int) -> bool:
    """A monic polynomial of degree e over GF(p) is irreducible iff it has
    no root in GF(p^k) for any k <= e/2: an irreducible factor of degree k
    has its roots there, and a root there has a minimal polynomial of degree
    at most k dividing it.  The smaller fields are built (and cached) first."""
    e = len(coeffs) - 1
    return all((_values(field_new(p, k), coeffs) != 0).all() for k in range(1, e // 2 + 1))


def _least_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Smallest-encoding monic irreducible of degree e over GF(p)."""
    for enc in range(p ** e):
        cand = (*(int(c) for c in digits(enc, p, e)), 1)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class FieldCtx:
    """Arithmetic context for GF(p^e).

    The *_arr methods operate elementwise on numpy int64 arrays of canonical
    integer encodings and broadcast like ufuncs; they are the only arithmetic
    and back all enumeration kernels.  The scalar methods (add, mul, inv, ...)
    are the same methods applied to one element.  Prime fields add and
    multiply mod p and GF(2^e) adds by XOR; GF(p^e), e >= 2, reads its sums
    (odd p), negations (odd p) and products off dense tables up to order
    FULL_TABLE_MAX, and works on base-p digits above it.
    """

    __slots__ = (
        "p", "e", "q", "modulus",
        "_pw", "_xpow", "_tr", "_inv", "_mul_t", "_add_t", "_neg_t", "_char_cache", "_ext_cache",
    )

    def __init__(self, p: int, e: int):
        if not isinstance(p, int) or not isinstance(e, int):
            raise InputError("p and e must be integers")
        if e < 1:
            raise InputError(f"extension degree must be >= 1, got {e}")
        if p >= 2:  # capped before factoring: trial division then stops at 2^10
            q = capped("field order", SIZE_CAP, p, e)
        if p < 2 or _prime_factors(p) != [p]:
            raise InputError(f"{p} is not prime")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _least_irreducible(p, e)
        self._pw = np.array([p ** j for j in range(e)], dtype=np.int64)
        self._char_cache: dict[int, np.ndarray] = {}
        self._ext_cache: dict[int, tuple["FieldCtx", np.ndarray]] = {}

        # digits of x^k mod modulus for k < 2e - 1: reduces a product's convolution
        low = np.array(self.modulus[:e], dtype=np.int64)  # x^e = -low mod modulus
        xk, xpow = np.eye(1, e, dtype=np.int64)[0], []
        for _ in range(2 * e - 1):  # x^(k+1): shift x^k up one digit, fold its top back
            xpow.append(xk)
            xk = (np.concatenate(([0], xk[:-1])) - xk[-1] * low) % p
        self._xpow = np.array(xpow, dtype=np.int64)

        # the *_arr methods read the tables, so they exist before being built
        self._mul_t = self._inv = self._add_t = self._neg_t = None
        if p > 2 and e > 1 and q <= FULL_TABLE_MAX:  # read off the digit path itself
            xs = np.arange(q, dtype=np.int64)
            self._add_t, self._neg_t = self.add_arr(xs[:, None], xs), self.neg_arr(xs)
        if q <= LOG_TABLE_MAX:
            exp = self._exp_table()
            log = np.zeros(q, dtype=np.int64)
            log[exp] = np.arange(q - 1)
            inv = np.zeros(q, dtype=np.int64)
            inv[exp] = exp[-np.arange(q - 1) % (q - 1)]
            if e > 1 and q <= FULL_TABLE_MAX:  # mul_arr multiplies in GF(p) as x * y % p
                mul = np.zeros((q, q), dtype=np.int64)
                mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
                self._mul_t = mul
            self._inv = inv

        # trace(alpha^j) is the sum of the Frobenius conjugates alpha^(j p^i)
        # and lies in the prime subfield, whose encoding is the digit itself
        tr, conj = np.zeros(e, dtype=np.int64), self._pw
        for _ in range(e):
            tr, conj = self.add_arr(tr, conj), self.pow_arr(conj, p)
        assert (tr < p).all()
        self._tr = tr

    def _exp_table(self) -> np.ndarray:
        """g^0, ..., g^(q-2) for the least primitive element g, by doubling."""
        q = self.q
        exp, step = np.ones(1, dtype=np.int64), self._primitive()
        while exp.size < q - 1:
            # times step is GF(p)-linear: alpha^j goes to step * alpha^j
            times = _linear_map(self, self, exp[:q - 1 - exp.size], self.mul_arr(step, self._pw))
            exp = np.concatenate([exp, times])
            step = self.mul(step, step)
        return exp

    def _primitive(self) -> int:
        """Least generator of GF(q)*: no power (q-1)/l is 1, for l | q-1 prime."""
        q = self.q
        for lo in range(1, q, 64):
            cand = np.arange(lo, min(lo + 64, q), dtype=np.int64)
            ok = np.ones(cand.size, dtype=bool)
            for ell in _prime_factors(q - 1):
                ok &= self.pow_arr(cand, (q - 1) // ell) != 1
            if ok.any():
                return int(cand[ok][0])
        raise RuntimeError("no primitive element found")  # unreachable

    # -- scalar API: the array API on one element --------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_arr(a, b))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_arr(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.inv_arr(a))

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        return int(self.pow_arr(a, k))

    def trace(self, a: int) -> int:
        return int(self.trace_arr(a))

    # -- vectorized API (numpy int64 arrays, broadcasting) ----------------

    def add_arr(self, x, y):
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if self.p == 2:
            return x ^ y
        if self.e == 1:
            return (x + y) % self.p
        if self._add_t is not None:
            return self._add_t[x, y]
        s = (digits(x, self.p, self.e) + digits(y, self.p, self.e)) % self.p
        return s @ self._pw

    def neg_arr(self, x):
        x = np.asarray(x, dtype=np.int64)
        if self.p == 2:
            return x.copy()
        if self.e == 1:
            return (-x) % self.p
        if self._neg_t is not None:
            return self._neg_t[x]
        return ((-digits(x, self.p, self.e)) % self.p) @ self._pw

    def sub_arr(self, x, y):
        return self.add_arr(x, self.neg_arr(y))

    def mul_arr(self, x, y):
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if self.e == 1:
            return x * y % self.p
        if self._mul_t is not None:
            return self._mul_t[x, y]
        x, y = np.broadcast_arrays(x, y)
        p, e = self.p, self.e
        dx, dy = digits(x, p, e), digits(y, p, e)
        conv = np.zeros(x.shape + (2 * e - 1,), dtype=np.int64)
        for i in range(e):
            conv[..., i:i + e] += dx[..., i:i + 1] * dy
        return ((conv % p) @ self._xpow % p) @ self._pw

    def inv_arr(self, x):
        x = np.asarray(x, dtype=np.int64)
        if self._inv is not None:
            return self._inv[x]
        return self.pow_arr(x, self.q - 2)  # Fermat

    def pow_arr(self, x, k: int):
        """x^k elementwise for an integer k >= 0, by square-and-multiply over
        the bits of k, most significant first."""
        x = np.asarray(x, dtype=np.int64)
        if k == 0:
            return np.ones_like(x)
        r = x.copy()
        for bit in bin(k)[3:]:
            r = self.mul_arr(r, r)
            if bit == "1":
                r = self.mul_arr(r, x)
        return r

    def trace_arr(self, x):
        return (digits(x, self.p, self.e) @ self._tr) % self.p

    # -- characters --------------------------------------------------------

    def char_table(self, j: int = 1) -> np.ndarray:
        """Values of the additive character psi_j on every element.

        psi_j(x) = exp(2*pi*i * j * trace(x) / p); any j not divisible by p
        gives a nontrivial character.
        """
        j = int(j)
        if j % self.p == 0:
            raise InputError(f"character index {j} is divisible by {self.p} (trivial character)")
        jr = j % self.p
        if jr not in self._char_cache:
            roots = np.exp(2j * np.pi * np.arange(self.p) / self.p)
            tr = self.trace_arr(np.arange(self.q))
            self._char_cache[jr] = roots[(jr * tr) % self.p]
        return self._char_cache[jr]

    # -- extensions ---------------------------------------------------------

    def extension(self, k: int) -> tuple["FieldCtx", np.ndarray]:
        """GF(q^k) built directly over the prime field, plus the embedding table.

        Returns (ext_ctx, emb) where emb is a length-q int64 array with
        emb[x] = image of x in the extension.  The embedding sends the base
        generator to the smallest-encoding root of the base modulus in the
        extension, which makes towers deterministic.
        """
        if k < 1:
            raise InputError(f"extension degree must be >= 1, got {k}")
        if k == 1:
            return self, np.arange(self.q, dtype=np.int64)
        if k in self._ext_cache:
            return self._ext_cache[k]
        ext = field_new(self.p, self.e * k)
        if self.e == 1:
            emb = np.arange(self.q, dtype=np.int64)  # prime subfield encodes identically
        else:
            root = int(np.flatnonzero(_values(ext, self.modulus) == 0)[0])  # least root
            emb = _linear_map(self, ext, np.arange(self.q), [ext.pow(root, j) for j in range(self.e)])
        self._ext_cache[k] = (ext, emb)
        return ext, emb

    # -- misc ---------------------------------------------------------------

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.e}))" if self.e > 1 else f"FieldCtx(GF({self.p}))"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))


@functools.lru_cache(maxsize=None)
def field_new(p: int, e: int) -> FieldCtx:
    """Construct (and intern) the context for GF(p^e).

    The modulus is the lexicographically least monic irreducible of degree
    e, so equal (p, e) always give interchangeable contexts.
    """
    return FieldCtx(p, e)


def field_from_order(q: int) -> FieldCtx:
    """Context for GF(q) from a prime-power order."""
    if q < 2:
        raise InputError(f"field order must be >= 2, got {q}")
    capped("field order", SIZE_CAP, q)  # before factoring q by trial division
    facs = _prime_factors(q)
    if len(facs) != 1:
        raise InputError(f"{q} is not a prime power")
    p = facs[0]
    e = round(math.log(q, p))
    if p ** e != q:
        raise InputError(f"{q} is not a prime power")
    return field_new(p, e)


def descriptor(ctx: FieldCtx) -> dict:
    """Serializable field descriptor."""
    return {"p": ctx.p, "e": ctx.e}


def field_from_descriptor(obj) -> FieldCtx:
    if not isinstance(obj, dict) or set(obj) != {"p", "e"}:
        raise InputError("field descriptor must be an object with keys p and e")
    return field_new(json_int(obj["p"], "field p"), json_int(obj["e"], "field e"))
