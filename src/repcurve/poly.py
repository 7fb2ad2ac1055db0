"""Dense polynomial arithmetic: univariate over any FieldCtx, bivariate
over the prime field, and the additive trace identity of the cover
family, with y symbolic (trace_polynomial) and at one element
(trace_sum)."""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import BadParams, ContextMismatch, OutOfRange, PrimeFieldOnly
from .ff import FieldCtx, FieldElem


class Poly1:
    """Univariate polynomial; coeffs[i] is the coefficient of X^i.

    Canonical: no trailing zeros, the zero polynomial has empty coeffs.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        idx = [_coef_idx(ctx, c) for c in coeffs]
        while idx and idx[-1] == 0:
            idx.pop()
        self.ctx = ctx
        self.coeffs = tuple(idx)

    @classmethod
    def _raw(cls, ctx: FieldCtx, idx_coeffs) -> "Poly1":
        # internal: coefficients are already encoded indices, skip the
        # prime-constant coercion applied to user input
        out = object.__new__(cls)
        idx = [int(c) for c in idx_coeffs]
        while idx and idx[-1] == 0:
            idx.pop()
        out.ctx = ctx
        out.coeffs = tuple(idx)
        return out

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly1":
        return cls(ctx, ())

    @classmethod
    def monomial(cls, ctx: FieldCtx, coef, exp: int) -> "Poly1":
        if exp < 0:
            raise OutOfRange("negative exponent")
        return cls(ctx, [0] * exp + [coef])

    @property
    def degree(self) -> int:
        # degree of 0 reported as -1
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> FieldElem:
        idx = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        return FieldElem(self.ctx, idx)

    def __add__(self, other: "Poly1") -> "Poly1":
        _chk(self, other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Poly1._raw(self.ctx, [self.ctx.add[x, y] for x, y in zip(a, b)])

    def __sub__(self, other: "Poly1") -> "Poly1":
        _chk(self, other)
        return self + Poly1._raw(other.ctx, [other.ctx.neg[c] for c in other.coeffs])

    def __mul__(self, other: "Poly1") -> "Poly1":
        _chk(self, other)
        if not self.coeffs or not other.coeffs:
            return Poly1.zero(self.ctx)
        ctx = self.ctx
        out = np.zeros(len(self.coeffs) + len(other.coeffs) - 1, dtype=np.int64)
        b = np.array(other.coeffs, dtype=np.int64)
        for i, ai in enumerate(self.coeffs):
            if ai:
                seg = out[i:i + len(b)]
                out[i:i + len(b)] = ctx.add[seg, ctx.mul[ai, b]]
        return Poly1._raw(ctx, out.tolist())

    def __pow__(self, e: int) -> "Poly1":
        return _power(self, e, Poly1(self.ctx, [1]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly1) and self.ctx == other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        return f"Poly1({list(self.coeffs)})"


class Poly2:
    """Bivariate polynomial over the prime field; grid[i, j] multiplies
    x^i y^j.  The grid keeps a tight bounding box."""

    __slots__ = ("ctx", "grid")

    def __init__(self, ctx: FieldCtx, grid):
        if ctx.n != 1:
            raise PrimeFieldOnly("bivariate polynomials live over the prime field")
        g = np.asarray(grid)
        # the rule of FieldCtx.encode: integers are read mod p, and a float
        # is refused, where a cast would truncate it
        if g.size and g.dtype.kind not in "biu":
            raise BadParams(f"bivariate coefficients of dtype {g.dtype} are not integers")
        g = g.astype(np.int64) % ctx.p
        if g.ndim != 2:
            g = g.reshape(1, -1) if g.size else np.zeros((0, 0), dtype=np.int64)
        # trim zero margins to the canonical bounding box
        while g.shape[0] and not g[-1].any():
            g = g[:-1]
        while g.shape[1] and not g[:, -1].any():
            g = g[:, :-1]
        if g.size == 0:
            g = np.zeros((0, 0), dtype=np.int64)
        self.ctx = ctx
        self.grid = g
        self.grid.setflags(write=False)

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly2":
        return cls(ctx, np.zeros((0, 0), dtype=np.int64))

    @classmethod
    def monomial(cls, ctx: FieldCtx, coef: int, ex: int, ey: int) -> "Poly2":
        g = np.zeros((ex + 1, ey + 1), dtype=np.int64)
        g[ex, ey] = ctx.encode((coef,))
        return cls(ctx, g)

    def is_zero(self) -> bool:
        return self.grid.size == 0

    def deg_y(self) -> int:
        max_j = -1
        for row in self.grid:
            nz = np.nonzero(row)[0]
            if nz.size:
                max_j = max(max_j, int(nz[-1]))
        return max_j

    def __add__(self, other: "Poly2") -> "Poly2":
        _chk(self, other)
        r = max(self.grid.shape[0], other.grid.shape[0])
        c = max(self.grid.shape[1], other.grid.shape[1])
        g = np.zeros((r, c), dtype=np.int64)
        g[: self.grid.shape[0], : self.grid.shape[1]] += self.grid
        g[: other.grid.shape[0], : other.grid.shape[1]] += other.grid
        return Poly2(self.ctx, g)

    def __neg__(self) -> "Poly2":
        return Poly2(self.ctx, (-self.grid) % self.ctx.p)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: "Poly2") -> "Poly2":
        _chk(self, other)
        if self.is_zero() or other.is_zero():
            return Poly2.zero(self.ctx)
        a, b = self.grid, other.grid
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                       dtype=np.int64)
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                if a[i, j]:
                    out[i:i + b.shape[0], j:j + b.shape[1]] += a[i, j] * b
                    out %= self.ctx.p
        return Poly2(self.ctx, out)

    def __pow__(self, e: int) -> "Poly2":
        return _power(self, e, Poly2.monomial(self.ctx, 1, 0, 0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly2) and self.ctx == other.ctx
                and self.grid.shape == other.grid.shape
                and bool(np.array_equal(self.grid, other.grid)))

    def __hash__(self):
        return hash((self.ctx, self.grid.shape, self.grid.tobytes()))

    def __repr__(self):
        return f"Poly2({self.grid.tolist()})"


def _coef_idx(ctx: FieldCtx, c) -> int:
    if isinstance(c, FieldElem):
        if c.ctx != ctx:
            raise ContextMismatch("coefficient from a different field context")
        return c.idx
    # bare integers are prime-subfield constants
    return ctx.encode((c,))


def _power(base, e: int, one):
    """base^e by square-and-multiply, starting from the unit one."""
    if e < 0:
        raise OutOfRange("negative exponent")
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _chk(a, b) -> None:
    if type(a) is not type(b):
        raise ContextMismatch(f"mixed operand kinds {type(a).__name__}/{type(b).__name__}")
    if a.ctx != b.ctx:
        raise ContextMismatch("polynomials over different field contexts")


def trace_polynomial(p: int, ctx: FieldCtx) -> Poly2:
    """Sum over all (i, j) in F_p x F_p of (x + i + j*y)^(p^2 - 1),
    expanded as a bivariate polynomial over F_p.

    By the multinomial theorem the coefficient of x^k y^l is
    (p^2 - 1)! / (k! l! m!) times (sum_i i^m)(sum_j j^l), with
    m = p^2 - 1 - k - l and 0^0 = 1."""
    if ctx.n != 1 or ctx.p != p:
        raise PrimeFieldOnly("trace polynomial needs the prime-field context")
    e = p * p - 1
    # power sums over F_p; pow(0, 0, p) is 1
    psum = [sum(pow(i, t, p) for i in range(p)) % p for t in range(e + 1)]
    g = np.zeros((e + 1, e + 1), dtype=np.int64)
    for k in range(e + 1):
        for l in range(e + 1 - k):
            g[k, l] = comb(e, k) * comb(e - k, l) % p * psum[e - k - l] * psum[l]
    return Poly2(ctx, g)


def shifted_power_sum(ctx: FieldCtx, values) -> Poly1:
    """Sum of (Z + c)^(p^2 - 1) over the listed values c (field indices),
    term by term: the coefficient of Z^k is C(p^2 - 1, k), by Lucas
    (-1)^(k0 + k1) mod p for the base-p digits k0, k1 of k, times the sum
    of c^(p^2-1-k) over the values (0^0 = 1)."""
    p = ctx.p
    e = p * p - 1
    c = np.asarray(values, dtype=np.int64)
    # powers[t] holds c^t for every c, column by column
    powers = np.empty((e + 1, c.size), dtype=np.int64)
    powers[0] = 1
    for t in range(1, e + 1):
        powers[t] = ctx.mul[powers[t - 1], c]
    sums = np.zeros(e + 1, dtype=np.int64)
    for col in powers.T:
        sums = ctx.add[sums, col]
    coeffs = [int(ctx.neg[sums[e - k]]) if (k % p + k // p) % 2 else int(sums[e - k])
              for k in range(e + 1)]
    return Poly1._raw(ctx, coeffs)


def trace_sum(b: FieldElem) -> tuple:
    """Both sides of the trace identity at one element b: shifted_power_sum
    over the p^2 values i + j*b, and the constant (b^p - b)^(p-1), as
    polynomials in Z over the field of b."""
    ctx = b.ctx
    p = ctx.p
    i, j = np.divmod(np.arange(p * p), p)
    expect_idx = ctx.pow_idx(ctx.sub[ctx.pow_idx(b.idx, p), b.idx], p - 1)
    return (shifted_power_sum(ctx, ctx.add[i, ctx.mul[j, b.idx]]),
            Poly1(ctx, (FieldElem(ctx, int(expect_idx)),)))
