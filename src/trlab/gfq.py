"""Exact arithmetic in GF(p^e): contexts, traces, additive characters.

Conventions used throughout the lab:

* An element of GF(p^e) is a canonical integer in [0, p^e).  The integer is
  the base-p encoding of the polynomial-basis coefficient vector, least
  significant coefficient first.  This is also the on-disk element format,
  so serialization is the identity.
* The modulus is always the lexicographically least monic irreducible of
  degree e over GF(p), "least" meaning the smallest integer encoding of the
  non-leading coefficient vector.  This makes towers reproducible across
  runs and platforms without polynomial tables.
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
FULL_TABLE_MAX = 1 << 10  # dense q x q multiplication table up to this order
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


# -- polynomial helpers over GF(p); coefficients are little-endian tuples --

def _poly_trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # mod is monic of degree e
    e = len(mod) - 1
    for k in range(len(out) - 1, e - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(e):
                out[k - e + j] = (out[k - e + j] - c * mod[j]) % p
    return _poly_trim(out[:e] if len(out) > e else out)


def _poly_powmod(a, k, mod, p):
    r = [1]
    b = _poly_trim(a)
    while k > 0:
        if k & 1:
            r = _poly_mulmod(r, b, mod, p)
        b = _poly_mulmod(b, b, mod, p)
        k >>= 1
    return r


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _poly_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                       for i in range(n)])


def _poly_rem(a, b, p):
    a = _poly_trim(a)[:]
    b = _poly_trim(b)
    if b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    binv = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and a != [0]:
        f = a[-1] * binv % p
        sh = len(a) - len(b)
        for i in range(len(b)):
            a[sh + i] = (a[sh + i] - f * b[i]) % p
        a = _poly_trim(a)
    return a


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b != [0]:
        a, b = b, _poly_rem(a, b, p)
    return a


def _is_irreducible(coeffs, p: int) -> bool:
    e = len(coeffs) - 1
    if e == 1:  # Rabin's test below compares with an unreduced x
        return True
    # Rabin's irreducibility test
    mod = list(coeffs)
    x = [0, 1]
    xq = _poly_powmod(x, p ** e, mod, p)
    if _poly_sub(xq, x, p) != [0]:
        return False
    for ell in _prime_factors(e):
        xk = _poly_powmod(x, p ** (e // ell), mod, p)
        g = _poly_gcd(mod, _poly_sub(xk, x, p), p)
        if len(g) > 1:
            return False
    return True


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
    are the same methods applied to one element.
    """

    __slots__ = (
        "p", "e", "q", "modulus",
        "_pw", "_xpow", "_tr", "_inv", "_mul_t", "_char_cache", "_ext_cache",
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
        xpow, xk = [], [1]
        for _ in range(2 * e - 1):
            xpow.append(xk + [0] * (e - len(xk)))
            xk = _poly_mulmod(xk, [0, 1], self.modulus, p)
        self._xpow = np.array(xpow, dtype=np.int64)

        # mul_arr and inv_arr read the tables, so they exist before being built
        self._mul_t = self._inv = None
        if q <= LOG_TABLE_MAX:
            exp = self._exp_table()
            log = np.zeros(q, dtype=np.int64)
            log[exp] = np.arange(q - 1)
            inv = np.zeros(q, dtype=np.int64)
            inv[exp] = exp[-np.arange(q - 1) % (q - 1)]
            if q <= FULL_TABLE_MAX:
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
            exp = np.concatenate([exp, self.mul_arr(exp[:q - 1 - exp.size], step)])
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

    def neg(self, a: int) -> int:
        return int(self.neg_arr(a))

    def sub(self, a: int, b: int) -> int:
        return int(self.sub_arr(a, b))

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

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis digit vector of an element, least significant first."""
        return tuple(digits(a, self.p, self.e).tolist())

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) != self.e or any(not (0 <= c < self.p) for c in cs):
            raise InputError("coefficient vector must have length e with entries in [0, p)")
        return int(sum(c * int(pj) for c, pj in zip(cs, self._pw)))

    def elements(self) -> range:
        return range(self.q)

    # -- vectorized API (numpy int64 arrays, broadcasting) ----------------

    def add_arr(self, x, y):
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if self.p == 2:
            return x ^ y
        if self.e == 1:
            return (x + y) % self.p
        x, y = np.broadcast_arrays(x, y)
        s = (digits(x, self.p, self.e) + digits(y, self.p, self.e)) % self.p
        return s @ self._pw

    def neg_arr(self, x):
        x = np.asarray(x, dtype=np.int64)
        if self.p == 2:
            return x.copy()
        if self.e == 1:
            return (-x) % self.p
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
            xs = np.arange(ext.q, dtype=np.int64)
            val = np.zeros(ext.q, dtype=np.int64)
            for c in reversed(self.modulus):  # Horner; coefficients lie in GF(p)
                val = ext.add_arr(ext.mul_arr(val, xs), int(c))
            roots = np.nonzero(val == 0)[0]
            assert roots.size == self.e, "modulus must split in the extension"
            root = int(roots[0])
            powers = [1]
            for _ in range(1, self.e):
                powers.append(ext.mul(powers[-1], root))
            # x = sum_j d_j alpha^j maps to sum_j d_j root^j; the d_j lie in
            # GF(p), so this is an integer map on digit vectors mod p
            img = digits(np.array(powers), self.p, ext.e)
            emb = ((digits(np.arange(self.q), self.p, self.e) @ img) % self.p) @ ext._pw
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


def trace(ctx: FieldCtx, x: int) -> int:
    """Absolute trace GF(p^e) -> GF(p), x + x^p + ... + x^(p^(e-1))."""
    return ctx.trace(x)


def char_psi(ctx: FieldCtx, j: int, x: int) -> complex:
    """psi_j(x) = exp(2*pi*i * j * trace(x) / p) for a nontrivial index j."""
    return complex(ctx.char_table(j)[x])


def descriptor(ctx: FieldCtx) -> dict:
    """Serializable field descriptor."""
    return {"p": ctx.p, "e": ctx.e}


def field_from_descriptor(obj) -> FieldCtx:
    if not isinstance(obj, dict) or set(obj) != {"p", "e"}:
        raise InputError("field descriptor must be an object with keys p and e")
    return field_new(json_int(obj["p"], "field p"), json_int(obj["e"], "field e"))
