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

from .errors import CapExceeded, InputError, json_int

SIZE_CAP = 1 << 20       # largest field order the lab will construct
FULL_TABLE_MAX = 1 << 10  # dense q x q multiplication table up to this order
# log/exp, inverse, trace and digit tables up to this order; log/exp only
# serve to build the inverse and multiplication tables
LOG_TABLE_MAX = 1 << 16


def digits(x, base: int, n: int) -> np.ndarray:
    """Base-`base` digits of x, least significant first: shape x.shape + (n,)."""
    t = np.array(x, dtype=np.int64)
    out = np.empty(t.shape + (n,), dtype=np.int64)
    for j in range(n):
        out[..., j] = t % base
        t //= base
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for f in small:
        if n % f == 0:
            return n == f
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic Miller-Rabin witnesses, valid far beyond the size cap
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    if e == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    if e <= 3:
        # degree 2 or 3: irreducible iff no roots in GF(p)
        for x in range(p):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % p
            if acc == 0:
                return False
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

    Scalar methods (add, mul, inv, ...) take and return canonical integer
    encodings.  The *_arr variants operate elementwise on numpy int64
    arrays and broadcast like ufuncs; they back all enumeration kernels.
    """

    __slots__ = (
        "p", "e", "q", "modulus",
        "_dig", "_pw", "_exp", "_log", "_inv", "_trace", "_red",
        "_mul_t", "_char_cache", "_ext_cache",
    )

    def __init__(self, p: int, e: int):
        if not isinstance(p, int) or not isinstance(e, int):
            raise InputError("p and e must be integers")
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        if e < 1:
            raise InputError(f"extension degree must be >= 1, got {e}")
        q = p ** e
        if q > SIZE_CAP:
            raise CapExceeded(f"field order {q} exceeds size cap {SIZE_CAP}", size=q)
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _least_irreducible(p, e)
        self._pw = np.array([p ** j for j in range(e)], dtype=np.int64)
        self._char_cache: dict[int, np.ndarray] = {}
        self._ext_cache: dict[int, tuple["FieldCtx", np.ndarray]] = {}

        if e > 1:
            # digit rows of x^(e+k) mod modulus, for reducing convolution overflow
            red = np.zeros((e - 1, e), dtype=np.int64)
            row = [(-c) % p for c in self.modulus[:e]]
            red[0] = row
            for k in range(1, e - 1):
                carry = row[-1]
                row = [0] + row[:-1]
                if carry:
                    row = [(row[j] + carry * red[0, j]) % p for j in range(e)]
                red[k] = row
            self._red = red
        else:
            self._red = None

        self._dig = digits(np.arange(q), p, e) if e > 1 and q <= LOG_TABLE_MAX else None

        if q <= LOG_TABLE_MAX:
            self._exp, self._log = self._build_logexp()
            inv = np.zeros(q, dtype=np.int64)
            if q > 1:
                nz = np.arange(1, q)
                inv[nz] = self._exp[(q - 1 - self._log[nz]) % (q - 1)]
            self._inv = inv
            self._trace = self._build_trace_table()
        else:
            self._exp = self._log = self._inv = self._trace = None

        if q <= FULL_TABLE_MAX:
            lg = self._log
            mul = np.zeros((q, q), dtype=np.int64)
            if q > 1:
                mul[1:, 1:] = self._exp[(lg[1:, None] + lg[None, 1:]) % (q - 1)]
            self._mul_t = mul
        else:
            self._mul_t = None

    # -- construction helpers -------------------------------------------

    def _mul_scalar_raw(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return a * b % p
        da = [(a // int(pp)) % p for pp in self._pw]
        db = [(b // int(pp)) % p for pp in self._pw]
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % p
        out = conv[:e]
        for k in range(e, 2 * e - 1):
            c = conv[k]
            if c:
                row = self._red[k - e]
                out = [(out[j] + c * int(row[j])) % p for j in range(e)]
        return int(sum(out[j] * int(self._pw[j]) for j in range(e)))

    def _pow_scalar_raw(self, a: int, k: int) -> int:
        r, b = 1, a
        while k > 0:
            if k & 1:
                r = self._mul_scalar_raw(r, b)
            b = self._mul_scalar_raw(b, b)
            k >>= 1
        return r

    def _build_logexp(self):
        q = self.q
        if q == 2:
            return np.array([1], dtype=np.int64), np.array([0, 0], dtype=np.int64)
        fac = _prime_factors(q - 1)
        g = None
        for cand in range(2, q):
            if all(self._pow_scalar_raw(cand, (q - 1) // ell) != 1 for ell in fac):
                g = cand
                break
        assert g is not None
        exp = np.empty(q - 1, dtype=np.int64)
        block = min(q - 1, 256)
        x = 1
        for i in range(block):
            exp[i] = x
            x = self._mul_scalar_raw(x, g)
        if block < q - 1:
            # multiplication by the fixed constant g^block is GF(p)-linear
            # on digit vectors; advance whole blocks at once
            gb = self._pow_scalar_raw(g, block)
            p, e = self.p, self.e
            m = np.empty((e, e), dtype=np.int64)
            for j in range(e):
                m[:, j] = digits(self._mul_scalar_raw(gb, int(self._pw[j])), p, e)
            pos = block
            while pos < q - 1:
                n = min(block, q - 1 - pos)
                dig = digits(exp[pos - block: pos - block + n], p, e)
                exp[pos: pos + n] = ((dig @ m.T) % p) @ self._pw
                pos += n
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        return exp, log

    def _trace_row(self) -> np.ndarray:
        """trace(alpha^j) for the polynomial basis, values in [0, p)."""
        p, e = self.p, self.e
        out = np.empty(e, dtype=np.int64)
        for j in range(e):
            b = int(self._pw[j])
            acc = 0
            x = b
            for _ in range(e):
                acc = self._add_scalar_raw(acc, x)
                x = self._pow_scalar_raw(x, p)
            # the trace lands in the prime subfield, whose encoding is the digit itself
            assert acc < p
            out[j] = acc
        return out

    def _add_scalar_raw(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        out = 0
        for j in range(e):
            pj = int(self._pw[j])
            out += (((a // pj) + (b // pj)) % p) * pj
        return out

    def _build_trace_table(self) -> np.ndarray:
        if self.e == 1:
            return np.arange(self.q, dtype=np.int64)
        row = self._trace_row()
        return (self._dig @ row) % self.p

    # -- scalar API -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add_scalar_raw(int(a), int(b))

    def neg(self, a: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return (-a) % p
        if p == 2:
            return int(a)
        out = 0
        for j in range(e):
            pj = int(self._pw[j])
            out += ((-(a // pj)) % p) * pj
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_t is not None:
            return int(self._mul_t[a, b])
        return self._mul_scalar_raw(int(a), int(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._inv is not None:
            return int(self._inv[a])
        return self._pow_scalar_raw(int(a), self.q - 2)

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        return self._pow_scalar_raw(int(a), k)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis digit vector of an element, least significant first."""
        return tuple(int((a // int(pj)) % self.p) for pj in self._pw)

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) != self.e or any(not (0 <= c < self.p) for c in cs):
            raise InputError("coefficient vector must have length e with entries in [0, p)")
        return int(sum(c * int(pj) for c, pj in zip(cs, self._pw)))

    def elements(self) -> range:
        return range(self.q)

    def trace(self, a: int) -> int:
        if self._trace is not None:
            return int(self._trace[a])
        acc, x = 0, int(a)
        for _ in range(self.e):
            acc = self._add_scalar_raw(acc, x)
            x = self._pow_scalar_raw(x, self.p)
        return acc

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
        dx, dy = digits(x, self.p, self.e), digits(y, self.p, self.e)
        e = self.e
        conv = np.zeros(x.shape + (2 * e - 1,), dtype=np.int64)
        for i in range(e):
            for j in range(e):
                conv[..., i + j] += dx[..., i] * dy[..., j]
        conv %= self.p
        out = conv[..., :e] + (conv[..., e:] @ self._red)
        return (out % self.p) @ self._pw

    def inv_arr(self, x):
        x = np.asarray(x, dtype=np.int64)
        if self._inv is not None:
            return self._inv[x]
        # Fermat: x^(q-2), square-and-multiply on arrays
        r = np.ones_like(x)
        b = x.copy()
        k = self.q - 2
        while k > 0:
            if k & 1:
                r = self.mul_arr(r, b)
            b = self.mul_arr(b, b)
            k >>= 1
        return r

    def trace_arr(self, x):
        x = np.asarray(x, dtype=np.int64)
        if self._trace is not None:
            return self._trace[x]
        row = self._trace_row()
        return (digits(x, self.p, self.e) @ row) % self.p

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
