"""Exact arithmetic in F_{p^n} with a deterministic element encoding.

An element a0 + a1*t + ... + a_{n-1}*t^{n-1} is encoded as the integer
index a0 + a1*p + ... + a_{n-1}*p^{n-1}.  A FieldCtx precomputes dense
add/mul/neg/inv/frobenius tables over the q = p^n indices, so that both
scalar arithmetic and the bulk array arithmetic used by linalg are plain
table lookups.  Tables are only built for q <= 2048, which covers every
field this package targets (F_9, F_25 and their quadratic extensions).

Each field is built and checked from its definition.  The modulus f is
irreducible when no monic polynomial of degree 1..n//2 divides it (trial
division).  Since a*b = sum_i a_i (t^i b), one table holds the digits of
t^i b, reduced mod f, for every element b and every i < n: mul reads
digit k of a*b from it as sum_i a_i (t^i b)_k mod p, and linalg's matrix
product packs it into float64 words (see linalg._matmul_idx).

The default modulus of each (p, n) is find_irreducible's answer, the
first monic irreducible in lexicographic order (t^2 + 1 for p = 3, t^2 + 2
for p = 5, t for n = 1); every modulus is checked at context creation.
"""

from __future__ import annotations

import operator
import weakref
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadParams,
    ContextMismatch,
    DegreeMismatch,
    DivisionByZero,
    FieldTooLarge,
    NotPrime,
    PrimeFieldElement,
    PrimeFieldOnly,
    ReducibleModulus,
)

# the largest field order with dense q x q tables, and the largest
# dimension kmod.regular_module builds
_TABLE_LIMIT = 2048

# Contexts the cache keeps alive, the most recently used.  The suites and
# the query files use at most 15: F_3, F_5 and the 3 + 10 monic irreducible
# quadratics over them.  A context near q = 2048 holds about 100 MB of
# tables.  The family modules kept in its _cache, each with its own derived
# data, refer back to it, so an evicted context is freed by the cycle
# collector: a walk over many fields that allocates little should call
# gc.collect() after dropping each one.
CTX_CACHE = 16


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Polynomial helpers over F_p (coefficient tuples, index = exponent).
# Used only for modulus validation and search; everything else runs on
# tables.


def _monics(p: int, n: int) -> Iterable[tuple]:
    """Every monic polynomial of degree n over F_p, lexicographic in the
    encoded index of its low coefficients a0 + a1*p + ..."""
    for low in range(p**n):
        yield tuple((low // p**i) % p for i in range(n)) + (1,)


def _ptrim(a: Sequence[int]) -> tuple:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _pmod(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            scale = (c * inv_lead) % p
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - scale * f[j]) % p
    return _ptrim(a[:df])


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic f over F_p by its definition: a reducible
    f of degree n has a monic factor of degree 1..n//2, so trial division
    by all of them decides it (at most 62 divisions for q <= 2048)."""
    n = len(f) - 1
    return all(_pmod(f, g, p) for k in range(1, n // 2 + 1) for g in _monics(p, k))


# ---------------------------------------------------------------------------


class FieldCtx:
    """Arithmetic context for F_{p^n}; its tables are immutable."""

    __slots__ = (
        "p", "n", "q", "modulus",
        "add", "sub", "mul", "neg", "inv", "frob", "proot",
        "texts", "_tdigits", "_cache",
        "__weakref__",
    )

    def __init__(self, p: int, n: int, modulus: Sequence[int]):
        _check_field(p, n)
        modulus = tuple(int(c) for c in modulus)
        bad = [c for c in modulus if not 0 <= c < p]
        if bad:
            raise BadParams(f"modulus coefficient {bad[0]} of {list(modulus)} outside 0..{p - 1}")
        if len(modulus) != n + 1:
            raise DegreeMismatch(
                f"modulus must have {n + 1} coefficients for degree {n}, got {len(modulus)}")
        if modulus[-1] != 1:
            raise DegreeMismatch("modulus must be monic")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"modulus {list(modulus)} factors over F_{p}")
        self.p, self.n, self.q, self.modulus = p, n, p ** n, modulus
        self._build_tables()
        # values other modules compute from the field (kmod._memo,
        # linalg._packed), freed with it
        self._cache: dict = {}

    def _build_tables(self) -> None:
        p, n, q = self.p, self.n, self.q
        idx = np.arange(q, dtype=np.int64)
        digits = np.empty((q, n), dtype=np.int64)
        for i in range(n):
            digits[:, i] = (idx // p**i) % p
        # element text of every index, the one spelling used in JSON and
        # reports: coefficient digits, low degree first, comma-separated
        self.texts = np.array([",".join(map(str, row)) for row in digits.tolist()],
                              dtype=object)
        self.texts.setflags(write=False)

        # add and mul are built one digit at a time, so no q x q x n array
        self.add = sum((digits[:, None, i] + digits[None, :, i]) % p * p**i for i in range(n))
        self.neg = ((-digits) % p) @ (p ** np.arange(n, dtype=np.int64))
        self.sub = self.add[:, self.neg]

        # the digits of t^i * b for every b, at [i, b]: t^i b = t * t^(i-1) b,
        # with t^n = -(f_0 + ... + f_(n-1) t^(n-1)); [0] holds the digits of b
        tn = np.array([(-c) % p for c in self.modulus[:-1]], dtype=np.int64)
        tdigits = np.zeros((n, q, n), dtype=np.int64)
        tdigits[0] = digits
        for i in range(1, n):
            prev = tdigits[i - 1]
            tdigits[i, :, 1:] = prev[:, :-1]
            tdigits[i] = (tdigits[i] + prev[:, -1:] * tn) % p
        self._tdigits = tdigits.astype(np.float64)
        self._tdigits.setflags(write=False)
        # digit k of a*b is sum_i a_i (t^i b)_k, an exact float64 product
        self.mul = sum((self._tdigits[0] @ self._tdigits[:, :, k] % p).astype(np.int64) * p**k
                       for k in range(n))

        # inverses by row scan of the multiplication table
        self.inv = np.zeros(q, dtype=np.int64)
        eq_one = self.mul == 1
        has = eq_one.any(axis=1)
        self.inv[has] = np.argmax(eq_one, axis=1)[has]

        # frobenius x -> x^p and its inverse permutation (p-th root)
        self.frob = np.array([self.pow_idx(a, p) for a in range(q)], dtype=np.int64)
        self.proot = np.argsort(self.frob).astype(np.int64)

    # -- scalar index arithmetic ------------------------------------------

    def pow_idx(self, a: int, e: int) -> int:
        if e < 0:
            if a == 0:
                raise DivisionByZero("inverse of zero")
            a, e = int(self.inv[a]), -e
        r, b = 1, a
        while e:
            if e & 1:
                r = int(self.mul[r, b])
            b = int(self.mul[b, b])
            e >>= 1
        return r

    def encode(self, coeffs: Sequence[int]) -> int:
        """The index of the element with these coefficients, low degree
        first, each read mod p.  A coefficient must be an integer (numpy
        integers and bools included): a float or any other value raises
        BadParams, where int() would truncate it."""
        if len(coeffs) > self.n:
            raise DegreeMismatch(
                f"{len(coeffs)} coefficients for extension degree {self.n}")
        idx = 0
        for i, c in enumerate(coeffs):
            try:
                c = operator.index(bool(c) if isinstance(c, np.bool_) else c)
            except TypeError:
                raise BadParams(f"field value {c!r} is not an integer") from None
            idx += (c % self.p) * self.p**i
        return idx

    def decode(self, idx: int) -> tuple:
        return tuple(int(d) for d in self._tdigits[0, idx])

    # -- element constructors ---------------------------------------------

    def el(self, value) -> "FieldElem":
        """Coerce an integer (reduced mod p, read as encode reads a
        coefficient), coefficient sequence, or text."""
        if isinstance(value, FieldElem):
            if value.ctx is not self and value.ctx != self:
                raise ContextMismatch("element from a different field context")
            return FieldElem(self, value.idx)
        if isinstance(value, str):
            return self.from_text(value)
        if isinstance(value, (list, tuple)):
            return FieldElem(self, self.encode(value))
        return FieldElem(self, self.encode((value,)))

    def from_text(self, text: str) -> "FieldElem":
        """Parse element text: comma-separated coefficient digits, low
        degree first, each in 0..p-1; any other digit raises BadParams."""
        try:
            parts = [int(s) for s in text.strip().split(",")]
        except ValueError:
            raise BadParams(f"cannot parse field element text {text!r}") from None
        bad = [c for c in parts if not 0 <= c < self.p]
        if bad:
            raise BadParams(f"digit {bad[0]} of element text {text!r} outside 0..{self.p - 1}")
        return FieldElem(self, self.encode(parts))

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def gen(self) -> "FieldElem":
        if self.n < 2:
            raise PrimeFieldOnly("prime field has no extension generator")
        return FieldElem(self, self.p)

    def elements(self) -> Iterable["FieldElem"]:
        return (FieldElem(self, i) for i in range(self.q))

    def in_prime_field_idx(self, idx: int) -> bool:
        return int(self.frob[idx]) == idx

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldCtx)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, n={self.n}, modulus={list(self.modulus)})"

    def __reduce__(self):
        return (ctx_new, (self.p, self.n, self.modulus))


class FieldElem:
    """An element of a FieldCtx, stored as its encoded index."""

    __slots__ = ("ctx", "idx")

    def __init__(self, ctx: FieldCtx, idx: int):
        self.ctx = ctx
        self.idx = int(idx)

    @property
    def coeffs(self) -> tuple:
        return self.ctx.decode(self.idx)

    def is_zero(self) -> bool:
        return self.idx == 0

    def in_prime_field(self) -> bool:
        return self.ctx.in_prime_field_idx(self.idx)

    def text(self) -> str:
        return self.ctx.texts[self.idx]

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.ctx != self.ctx:
                raise ContextMismatch("elements from different field contexts")
            return other
        return self.ctx.el(other)

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.add[self.idx, o.idx])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.sub[self.idx, o.idx])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.mul[self.idx, o.idx])

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg[self.idx])

    def inverse(self) -> "FieldElem":
        if self.idx == 0:
            raise DivisionByZero("inverse of zero")
        return FieldElem(self.ctx, self.ctx.inv[self.idx])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElem(self.ctx, self.ctx.pow_idx(self.idx, e))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.ctx == other.ctx and self.idx == other.idx
        if isinstance(other, int):
            return self.idx == (other % self.ctx.p)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.idx))

    def __bool__(self):
        return self.idx != 0

    def __repr__(self):
        return f"<{self.text()} in F_{self.ctx.q}>"


# ---------------------------------------------------------------------------
# Module-level operations


def ctx_new(p: int, n: int, modulus: Sequence[int]) -> FieldCtx:
    return _ctx_cached(int(p), int(n), tuple(int(c) for c in modulus))


# every live context: one that a caller still holds is returned again after
# the bounded cache dropped it, as the alpha.ctx is ctx check of curve_params needs
_CTX_LIVE = weakref.WeakValueDictionary()


@lru_cache(maxsize=CTX_CACHE)
def _ctx_cached(p: int, n: int, modulus: tuple) -> FieldCtx:
    ctx = _CTX_LIVE.get((p, n, modulus))
    if ctx is None:
        ctx = _CTX_LIVE[p, n, modulus] = FieldCtx(p, n, modulus)
    return ctx


def default_ctx(p: int, n: int = 2) -> FieldCtx:
    return ctx_new(p, n, find_irreducible(p, n))


def _check_field(p: int, n: int) -> None:
    """Refuse a p that is not prime, a degree n < 1 and a field too large
    for the dense tables, before any polynomial search or power of p.  A p
    above the limit is refused by size alone: trial division of a huge p
    would not finish."""
    if p <= _TABLE_LIMIT and not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if n < 1:
        raise DegreeMismatch(f"extension degree must be >= 1, got {n}")
    # p >= 2, so n >= bit_length(limit) already gives q > limit
    if p > _TABLE_LIMIT or n >= _TABLE_LIMIT.bit_length() or p ** n > _TABLE_LIMIT:
        raise FieldTooLarge(f"q = {p}^{n} exceeds the dense-table limit {_TABLE_LIMIT}")


@lru_cache(maxsize=None)
def find_irreducible(p: int, n: int) -> tuple:
    """First monic irreducible of degree n over F_p in lexicographic order;
    kept once per (p, n), since default_ctx asks for it on every call."""
    _check_field(p, n)
    for coeffs in _monics(p, n):
        if _is_irreducible(coeffs, p):
            return coeffs
    raise ReducibleModulus(f"no irreducible of degree {n} over F_{p}")  # unreachable


def frobenius(a: FieldElem) -> FieldElem:
    return FieldElem(a.ctx, a.ctx.frob[a.idx])


def pth_root(a: FieldElem) -> FieldElem:
    return FieldElem(a.ctx, a.ctx.proot[a.idx])


def beta_from_alpha(alpha: FieldElem) -> FieldElem:
    """beta = (-alpha)^(-1/p); rejects alpha in the prime field."""
    if alpha.in_prime_field():
        raise PrimeFieldElement(f"alpha = {alpha.text()} lies in F_{alpha.ctx.p}")
    return pth_root((-alpha).inverse())


def alpha_from_beta(beta: FieldElem) -> FieldElem:
    """alpha = -beta^(-p); rejects beta in the prime field."""
    if beta.in_prime_field():
        raise PrimeFieldElement(f"beta = {beta.text()} lies in F_{beta.ctx.p}")
    return -(frobenius(beta).inverse())


def enumerate_nonprime(ctx: FieldCtx):
    """All q - p elements outside the prime field, ascending encoded index."""
    if ctx.n < 2:
        raise PrimeFieldOnly("prime field has no elements outside itself")
    return [FieldElem(ctx, i) for i in range(ctx.q) if not ctx.in_prime_field_idx(i)]
