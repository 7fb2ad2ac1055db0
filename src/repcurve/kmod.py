"""Representation engine for the elementary abelian group H = Z/p x Z/p
acting in characteristic p.

A module is a pair of commuting order-p matrices (the actions of fixed
generators sigma and tau) over a FieldCtx, held as one (2, d, d) stack.
The shifted generators sigma0 = sigma - 1 and tau0 = tau - 1 are
nilpotent and drive everything else: the vanishing filtration S_n,
degree functions, fixed spaces, Hom spaces, isomorphism and
indecomposability decisions, and Jordan types of the pencil
a*sigma0 + b*tau0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import wraps
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadDimension,
    BadParams,
    ContextMismatch,
    NotCommuting,
    NotInvariant,
    OrderViolation,
    OutOfRange,
    PrimeFieldElement,
    ShapeMismatch,
    Undecided,
    UnlabeledModule,
    ZeroVector,
)
from .ff import _TABLE_LIMIT, FieldCtx, FieldElem, ctx_new
from .linalg import (
    Mat,
    Subspace,
    _matmul_idx,
    _matpow_idx,
    _partitions,
    _rank_stack,
    _row_profile,
    field_rows,
    invert,
    kernel,
    nilpotent_partitions,
)

# ---------------------------------------------------------------------------
# Base-p digit combinatorics


def digits_p(n: int, p: int, width: Optional[int] = None) -> tuple:
    """Base-p digits of n, least significant first; at least one digit."""
    if p < 2:
        raise OutOfRange(f"digit base {p} below 2")
    if n < 0:
        raise OutOfRange("digits of a negative integer")
    out = []
    while n:
        out.append(n % p)
        n //= p
    if not out:
        out.append(0)
    if width is not None:
        out.extend([0] * (width - len(out)))
    return tuple(out)


def s_p(n: int, p: int) -> int:
    """Sum of base-p digits."""
    return sum(digits_p(n, p))


def binom_mod_p(n: int, i: int, p: int) -> int:
    """Binomial coefficient mod p via the digitwise product rule (Lucas)."""
    if p < 2:
        raise OutOfRange(f"digit base {p} below 2")
    if n < 0 or i < 0:
        raise OutOfRange("negative binomial arguments")
    if i > n:
        return 0
    out = 1
    while i and out:
        out = out * math.comb(n % p, i % p) % p
        n //= p
        i //= p
    return out


# ---------------------------------------------------------------------------
# HModule


_MISSING = object()


def _memo(fn):
    """Keep fn(owner, *args) in owner._cache under fn's name and the
    arguments, a field element by its idx: each cached value lives on the
    field context or module it is computed from, and is freed with it.  A
    field element of another field than the owner's raises ContextMismatch
    before the lookup, since its idx names an unrelated element here.  The
    key is looked up once; a sentinel marks a miss, since a cached value
    may be None."""
    name = fn.__name__

    @wraps(fn)
    def cached(owner, *args):
        ctx = getattr(owner, "ctx", owner)
        if any(isinstance(a, FieldElem) and a.ctx != ctx for a in args):
            raise ContextMismatch("parameter from a different field context")
        key = (name, *[a.idx if isinstance(a, FieldElem) else a for a in args])
        value = owner._cache.get(key, _MISSING)
        if value is _MISSING:
            value = owner._cache[key] = fn(owner, *args)
        return value

    return cached


def check_actions(ctx: FieldCtx, gens: np.ndarray) -> None:
    """Check that each (sigma, tau) generator stack of gens, shaped
    (..., 2, d, d), has sigma^p = tau^p = 1 and sigma tau = tau sigma:
    sigma^2, tau^2, sigma tau and tau sigma from one stacked product (gens
    broadcast against [gens, gens swapped]), then sigma^p and tau^p from one
    stacked power of the squares, however many pairs there are.  The first
    bad pair raises what HModule raises for it, sigma's order before tau's
    before commuting.  gens holds one module's HModule.gens, the two
    binomial_factors pairs that v_d checks, or a de Rham family's pieces."""
    squares, swapped = np.moveaxis(
        _matmul_idx(ctx, gens[..., None, :, :, :],
                    np.stack([gens, gens[..., ::-1, :, :]], axis=-4)), -4, 0)
    powers = _matpow_idx(ctx, squares, ctx.p // 2)
    if ctx.p % 2:
        powers = _matmul_idx(ctx, powers, gens)
    d = gens.shape[-1]
    bad_order = (powers != np.eye(d, dtype=np.int64)).any(axis=(-2, -1)).reshape(-1, 2)
    bad_commute = (swapped[..., 0, :, :] != swapped[..., 1, :, :]).any(axis=(-2, -1))
    bad = bad_order.any(axis=1) | bad_commute.reshape(-1)
    if bad.any():
        j = int(bad.argmax())
        for name, wrong in zip(("sigma", "tau"), bad_order[j]):
            if wrong:
                raise OrderViolation(f"{name} matrix does not have order dividing p")
        raise NotCommuting("generator matrices do not commute")


class HModule:
    """Two commuting order-p matrices over a shared field context, held as
    one read-only (2, dim, dim) int64 stack gens: gens[0] is sigma and
    gens[1] is tau.  Msigma and Mtau are Mat views of them, and gens0()
    the stack of the shifted generators.

    Every HModule was either checked or derived from checked modules.  The
    public constructor, which stacks the two matrices it is given, and
    module_from_json check sigma^p = tau^p = 1 and sigma tau = tau sigma
    (check_actions), and so do the trivial and regular modules through
    them; v_dr checks its one stack, vd_definition its one stack and v_d
    the two p x p binomial_factors pairs, once per (ctx, beta), and
    curvefam.dr_graded its distinct pieces in one stack.  The
    constructions that keep both relations whenever their inputs have
    them build through HModule._derived on a stack, which checks nothing:
    every v_d, a leading block of the tensor
    product of its factors; dual, direct_sum, sub_module_on and quotient,
    which each prove their subspace invariant; and the blocks of
    vd_definition that vdr_quotient and curvefam.hodge_check's model take.

    Immutable; derived data (filtration, End solve and split, word
    matrices, dual, the command line's JSON text) is kept on the instance
    by _memo.  labels and meta carry construction provenance used by
    label-aware operations and are not part of equality; a dim-0 module
    has no basis to label, so its labels are None.  The hash serializes
    gens once, on first use, and is kept in _hash.
    """

    __slots__ = ("ctx", "dim", "gens", "labels", "meta", "_cache", "_hash")

    def __init__(self, ctx: FieldCtx, Msigma: Mat, Mtau: Mat,
                 labels: Optional[Sequence[str]] = None,
                 meta: Optional[dict] = None):
        if Msigma.ctx != ctx or Mtau.ctx != ctx:
            raise ContextMismatch("generator matrices over a different context")
        if not Msigma.is_square() or not Mtau.is_square():
            raise ShapeMismatch("generator matrices must be square")
        if Msigma.rows != Mtau.rows:
            raise ShapeMismatch("generator matrices of different sizes")
        # Mat wraps its data unchecked: the entries are range-checked here
        d = Msigma.rows
        gens = field_rows(ctx, np.vstack([Msigma.data, Mtau.data]), d).reshape(2, d, d)
        check_actions(ctx, gens)
        self._fill(ctx, gens, labels, meta)

    @classmethod
    def _derived(cls, ctx: FieldCtx, gens: np.ndarray,
                 labels: Optional[Sequence[str]] = None,
                 meta: Optional[dict] = None) -> "HModule":
        """The module on a (2, d, d) stack already known to satisfy the
        relations: checked by the caller, or built from checked modules by
        a construction that keeps them.  Labels are validated; the stack
        is not checked."""
        M = cls.__new__(cls)
        M._fill(ctx, gens, labels, meta)
        return M

    def _fill(self, ctx: FieldCtx, gens: np.ndarray,
              labels: Optional[Sequence[str]] = None,
              meta: Optional[dict] = None) -> None:
        d = gens.shape[-1]
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != d:
                raise ShapeMismatch("label count does not match dimension")
            if len(set(labels)) != d:
                twice = next(lab for lab in labels if labels.count(lab) > 1)
                raise BadParams(f"basis label {twice!r} occurs more than once")
        gens.setflags(write=False)
        self.ctx = ctx
        self.dim = d
        self.gens = gens
        self.labels = labels or None
        self.meta = dict(meta) if meta else {}
        self._cache: dict = {}
        self._hash: Optional[int] = None

    @property
    def Msigma(self) -> Mat:
        return Mat(self.ctx, self.gens[0])

    @property
    def Mtau(self) -> Mat:
        return Mat(self.ctx, self.gens[1])

    # -- derived matrices ----------------------------------------------------

    @_memo
    def gens0(self) -> np.ndarray:
        """Read-only (2, dim, dim) stack of sigma0 and tau0, at the
        narrowest unsigned width that holds every index of the field: uint8
        up to q = 256, uint16 up to the dense-table limit."""
        G = self.ctx.sub[self.gens, np.eye(self.dim, dtype=np.int64)]
        G = G.astype(np.min_scalar_type(self.ctx.q - 1))
        G.setflags(write=False)
        return G

    @_memo
    def word_stack(self) -> np.ndarray:
        """Read-only (p^2, dim, dim) array holding sigma0^a tau0^b at
        a*p + b for 0 <= a, b < p, at the width of gens0(): it is the
        largest array a module keeps.  The powers of both generators come
        from p - 2 stacked products; they are the words with a = 0 or
        b = 0, and the (p - 1)^2 others come from one broadcast product,
        written into the narrow array."""
        ctx, p, d = self.ctx, self.ctx.p, self.dim

        def powers(G: np.ndarray) -> np.ndarray:  # (2, d, d) -> (p, 2, d, d)
            out = [np.broadcast_to(np.eye(d, dtype=np.int64), G.shape), G]
            while len(out) < p:
                out.append(_matmul_idx(ctx, out[-1], G))
            return np.stack(out)

        G = self.gens0()
        P = powers(G)
        W = np.empty((p, p, d, d), dtype=G.dtype)
        W[0], W[1:, 0] = P[:, 1], P[1:, 0]
        W[1:, 1:] = _matmul_idx(ctx, P[1:, None, 0], P[None, 1:, 1])
        W = W.reshape(p * p, d, d)
        W.setflags(write=False)
        return W

    def basis_vector(self, which) -> np.ndarray:
        """Standard basis vector by label, or by an index in 0..dim - 1:
        another int raises OutOfRange, any other value BadParams."""
        if isinstance(which, str):
            if self.labels is None:
                raise UnlabeledModule("module has no basis labels")
            if which not in self.labels:
                raise UnlabeledModule(f"no basis label {which!r}")
            which = self.labels.index(which)
        elif not isinstance(which, (int, np.integer)):
            raise BadParams(f"basis index {which!r} is not an integer")
        elif not 0 <= which < self.dim:
            raise OutOfRange(f"basis index {which} outside 0..{self.dim - 1}")
        v = np.zeros(self.dim, dtype=np.int64)
        v[which] = 1
        return v

    def __eq__(self, other) -> bool:
        return (isinstance(other, HModule) and self.ctx == other.ctx
                and self.dim == other.dim and np.array_equal(self.gens, other.gens))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx, self.dim, self.gens.tobytes()))
        return self._hash

    def __repr__(self):
        kind = self.meta.get("kind", "module")
        return f"HModule({kind}, dim {self.dim} over F_{self.ctx.q})"


# ---------------------------------------------------------------------------
# Stock modules


@_memo
def trivial_module(ctx: FieldCtx) -> HModule:
    """The one-dimensional module with trivial action, shared per context."""
    I = Mat.identity(ctx, 1)
    return HModule(ctx, I, I, labels=("u0",), meta={"kind": "trivial"})


@_memo
def regular_module(ctx: FieldCtx) -> HModule:
    """The group algebra acting on itself by left multiplication, shared
    per context.

    Basis indexed by group elements sigma^a tau^b at position a*p + b, so
    sigma and tau are the cyclic shift C of Z/p on the first and on the
    second index.  The label g<a><b> writes a and b at one width, so the
    labels stay distinct from p = 11 on.  Its p^2 x p^2 matrices are
    refused above the dense-table limit, as the fields are.
    """
    p = ctx.p
    if p * p > _TABLE_LIMIT:
        raise BadDimension(f"regular module dimension {p * p} exceeds the dense-table "
                           f"limit {_TABLE_LIMIT}")
    C = np.roll(np.eye(p, dtype=np.int64), 1, axis=0)  # e_a -> e_(a+1 mod p)
    I = np.eye(p, dtype=np.int64)
    S, T = np.kron(C, I), np.kron(I, C)
    w = len(str(p - 1))
    labels = tuple(f"g{a:0{w}}{b:0{w}}" for a in range(p) for b in range(p))
    return HModule(ctx, Mat(ctx, S), Mat(ctx, T), labels=labels,
                   meta={"kind": "regular"})


@_memo
def augmentation_ideal(ctx: FieldCtx) -> HModule:
    """Kernel of the coefficient-sum map on the regular module, with the
    induced action; dimension p^2 - 1.  Shared per context."""
    R = regular_module(ctx)
    ones = Mat(ctx, np.ones((1, R.dim), dtype=np.int64))
    W = kernel(ones)
    sub, _ = sub_module_on(R, W)
    sub.meta["kind"] = "augmentation"
    return sub


@_memo
def binomial_factors(ctx: FieldCtx, beta: FieldElem) -> np.ndarray:
    """Read-only (2, 2, p, p) stack of the (sigma, tau) pairs of
    v_d(p, beta^p) and v_d(p, beta), in this order: entry (i, n) is
    C(n, i) for sigma and C(n, i) gamma^(n-i) for tau at gamma = beta^p and
    beta, zero for i > n.  Shared per (ctx, beta)."""
    p = ctx.p
    pascal = np.array([[binom_mod_p(n, i, p) for n in range(p)] for i in range(p)],
                      dtype=np.int64)
    gap = np.maximum(np.arange(p)[None, :] - np.arange(p)[:, None], 0)
    out = np.empty((2, 2, p, p), dtype=np.int64)
    for pair, gamma in zip(out, (ctx.pow_idx(beta.idx, p), beta.idx)):
        powers = np.array([ctx.pow_idx(gamma, k) for k in range(p)], dtype=np.int64)
        pair[0], pair[1] = pascal, ctx.mul[pascal, powers[gap]]
    out.setflags(write=False)
    return out


@_memo
def binomial_table(ctx: FieldCtx, beta: FieldElem) -> np.ndarray:
    """Read-only (2, p^2, p^2) generator stack of v_d(p^2, beta): entry
    (i, n) is C(n, i) for sigma and C(n, i) beta^(n-i) for tau, zero for
    i > n.  By Lucas, with n = n1 p + n0 and i = i1 p + i0, C(n, i)
    beta^(n-i) is C(n1, i1) (beta^p)^(n1-i1) times C(n0, i0) beta^(n0-i0),
    so each generator is the field Kronecker product of its two
    binomial_factors: v_d(p^2, beta) = v_d(p, beta^p) (x) v_d(p, beta).
    Shared per (ctx, beta)."""
    pp = ctx.p ** 2
    F = binomial_factors(ctx, beta)
    G = ctx.mul[F[0][:, :, None, :, None], F[1][:, None, :, None, :]].reshape(2, pp, pp)
    G.setflags(write=False)
    return G


@_memo
def v_d(ctx: FieldCtx, d: int, beta: FieldElem) -> HModule:
    """Module on basis w_0..w_{d-1} with binomial action:
    sigma.w_n = sum_i C(n,i) w_i, tau.w_n = sum_i C(n,i) beta^(n-i) w_i.
    At d = p^2 it is the binomial table, a tensor product of the two
    binomial_factors pairs, which are checked here, once per (ctx, beta):
    a tensor product keeps sigma^p = tau^p = 1 and commuting.  Every
    smaller member is the leading d x d block of v_d(p^2): both matrices
    are upper triangular, so span(w_0..w_{d-1}) is invariant, and each
    member is derived.  Equal arguments over one context return the same
    shared module."""
    pp = ctx.p ** 2
    if not (1 <= d <= pp):
        raise BadDimension(f"dimension {d} outside 1..{pp}")
    if d < pp:
        G = v_d(ctx, pp, beta).gens
    else:
        _require_nonprime(ctx, beta)
        check_actions(ctx, binomial_factors(ctx, beta))
        G = binomial_table(ctx, beta)
    # v_d(p^2) shares the read-only table; a smaller member copies its block
    return HModule._derived(ctx, np.ascontiguousarray(G[:, :d, :d]),
                            labels=tuple(f"w{i}" for i in range(d)),
                            meta={"kind": "vd", "d": d, "beta": beta.idx})


def _vdr_index_sets(p: int, d: int) -> tuple:
    etas = [i for i in range(1, p * p) if i % p != 0 or i > d]
    omegas = [i for i in range(d) if i % p == p - 1]
    return etas, omegas


@_memo
def v_dr(ctx: FieldCtx, d: int, beta: FieldElem) -> HModule:
    """Quotient of v_d(p^2) (+) v_d(d) by the span of the diagonal vectors
    k_i = (w_i, 0) + i*(0, w_{i-1}), 0 <= i <= d, on the labeled basis
    {eta_i : p does not divide i, or i > d} u {w_i : i < d, i = -1 mod p}:
    built as the gamma = 1 dr_action read in these labels through
    vdr_label_map.  Its labels and matrices depend on d only through
    d // p, so every d of a class returns the one module built at the
    least member d - d % p, which its meta["d"] names.  Equal arguments
    over one context return the same shared module."""
    p = ctx.p
    if not (0 <= d <= p * p):
        raise BadDimension(f"parameter {d} outside 0..{p * p}")
    if d % p:
        return v_dr(ctx, d - d % p, beta)
    _require_nonprime(ctx, beta)
    one = ctx.el(1)
    labels, pos, scale = vdr_label_map(ctx, d, one)
    # Phi^-1 A Phi for the monomial map Phi: a gather and two scalings
    A = dr_action(ctx, d, beta, one)[:, pos[:, None], pos]
    G = ctx.mul[ctx.mul[ctx.inv[scale][:, None], A], scale]
    check_actions(ctx, G)
    return HModule._derived(ctx, G, labels=labels,
                            meta={"kind": "vdr", "d": d, "beta": beta.idx})


def _rewrite_scale(ctx: FieldCtx, d: int, gamma: FieldElem, i: np.ndarray) -> np.ndarray:
    """-i*gamma where eta_i rewrites to -i*gamma*w_{i-1} (i <= d), else 1."""
    return np.where(i <= d, ctx.mul[ctx.neg[i % ctx.p], gamma.idx], 1)


def dr_action(ctx: FieldCtx, d: int, beta: FieldElem, gamma: FieldElem) -> np.ndarray:
    """(2, dim, dim) generator stack of the de Rham piece on
    w_0..w_{d-1}, eta_{d+1}..eta_{p^2-1}, cut from the binomial table
    with no product: the w-columns are its leading columns; column n gives
    eta_n, its row i moved to position i - 1 and scaled by _rewrite_scale.
    At d = p^2 it is v_d(p^2)."""
    pp = ctx.p ** 2
    dim = max(d, pp - 1)
    scale = _rewrite_scale(ctx, d, gamma, np.arange(1, pp))[:, None]
    G = binomial_table(ctx, beta)
    A = np.zeros((2, dim, dim), dtype=np.int64)
    A[:, :, :d] = G[:, :dim, :d]
    A[:, :pp - 1, d:] = ctx.mul[scale, G[:, 1:, d + 1:]]
    return A


def vdr_label_map(ctx: FieldCtx, d: int, gamma: FieldElem) -> tuple:
    """(labels, pos, scale) of v_dr(d): the monomial map into the dr_action
    basis sending label k to scale[k] times basis vector pos[k], eta_i to
    position i - 1 and w_i to i, scaled by _rewrite_scale (gamma for w_i)."""
    etas, omegas = _vdr_index_sets(ctx.p, d)
    labels = tuple([f"eta{i}" for i in etas] + [f"w{i}" for i in omegas])
    idx = np.array(etas + omegas, dtype=np.int64)
    pos = idx - (np.arange(idx.size) < len(etas))
    return labels, pos, _rewrite_scale(ctx, d, gamma, idx)


@_memo
def vd_definition(ctx: FieldCtx, beta: FieldElem) -> np.ndarray:
    """Read-only (2, p^2, p^2) generator stack of v_d(p^2, beta) entry by
    entry from its definition, never from binomial_table, so the checks of
    the pieces cut from that table can compare with it: column n is
    sigma.w_n = sum_i C(n,i) w_i and tau.w_n = sum_i C(n,i) beta^(n-i) w_i,
    and the leading blocks G[:, :d, :d] give v_d(d).  It makes p^4 scalar
    calls, so it is shared per (ctx, beta) like binomial_table.  The stack
    is checked here, once: both generators are upper triangular, so every
    leading block and every block sum of them that vdr_quotient and
    curvefam.hodge_check build is a module derived from it."""
    p = ctx.p
    pp = p * p
    S = np.array([[binom_mod_p(n, i, p) for n in range(pp)] for i in range(pp)],
                 dtype=np.int64)
    T = np.array([[ctx.mul[S[i, n], ctx.pow_idx(beta.idx, n - i)] if i <= n else 0
                   for n in range(pp)] for i in range(pp)], dtype=np.int64)
    G = np.stack([S, T])
    G.setflags(write=False)
    check_actions(ctx, G)
    return G


@_memo
def vdr_quotient(ctx: FieldCtx, d: int, beta: FieldElem) -> HModule:
    """v_dr(d, beta) as the paper defines it, the quotient, to check v_dr
    and the de Rham pieces against: the sum v_d(p^2) (+) v_d(d) is one
    module, whose stack is block-diagonal in leading blocks of
    vd_definition(ctx, beta).  meta["proj"] is the quotient map.  Shared
    per (ctx, d, beta) like vd_definition, and built at each d itself,
    never at its class: the members of one v_dr class give distinct
    quotients, whose meta["d"] is their own d."""
    p = ctx.p
    pp = p * p
    _require_nonprime(ctx, beta)
    X = vd_definition(ctx, beta)
    A = np.zeros((2, pp + d, pp + d), dtype=np.int64)
    A[:, :pp, :pp] = X
    A[:, pp:, pp:] = X[:, :d, :d]
    D = HModule._derived(ctx, A)
    # row i is k_i = (w_i, 0) + i*(0, w_{i-1}); w_{p^2} is 0 in v_d(p^2)
    r = np.arange(d + 1)
    gens = np.zeros((d + 1, D.dim), dtype=np.int64)
    gens[r[r < pp], r[r < pp]] = 1
    gens[r[1:], pp + r[1:] - 1] = r[1:] % p
    K = Subspace.from_rows(ctx, D.dim, gens)
    etas, omegas = _vdr_index_sets(p, d)
    reps = np.zeros((len(etas) + len(omegas), D.dim), dtype=np.int64)
    reps[np.arange(len(reps)), etas + [pp + i for i in omegas]] = 1
    labels = [f"eta{i}" for i in etas] + [f"w{i}" for i in omegas]
    Q, P = quotient(D, K, reps=reps, labels=labels)
    Q.meta = {"kind": "vdr", "d": d, "beta": beta.idx, "proj": P.data}
    return Q


def _require_nonprime(ctx: FieldCtx, beta: FieldElem) -> None:
    if ctx.in_prime_field_idx(beta.idx):
        raise PrimeFieldElement("parameter must lie outside the prime field")


# ---------------------------------------------------------------------------
# Constructions: dual, sums, subs, quotients


@_memo
def dual(M: HModule) -> HModule:
    """Contragredient module: generators act by transpose inverse, the
    inverses sigma^(p-1) and tau^(p-1) from one stacked power; kept on M."""
    ctx = M.ctx
    inverses = _matpow_idx(ctx, M.gens, ctx.p - 1)
    labels = tuple(f"{l}*" for l in M.labels) if M.labels else None
    return HModule._derived(ctx, np.ascontiguousarray(inverses.transpose(0, 2, 1)),
                            labels=labels, meta={"kind": "dual", "of": M.meta.get("kind")})


def direct_sum(M: HModule, N: HModule) -> HModule:
    if M.ctx != N.ctx:
        raise ContextMismatch("summands over different field contexts")
    d = M.dim + N.dim
    G = np.zeros((2, d, d), dtype=np.int64)
    G[:, :M.dim, :M.dim] = M.gens
    G[:, M.dim:, M.dim:] = N.gens
    if M.labels and N.labels:
        if set(M.labels) & set(N.labels):
            labels = tuple(f"a.{l}" for l in M.labels) + tuple(f"b.{l}" for l in N.labels)
        else:
            labels = M.labels + N.labels
    else:
        labels = None
    return HModule._derived(M.ctx, G, labels=labels, meta={"kind": "sum"})


def sub_module_on(M: HModule, W: Subspace) -> tuple:
    """Module structure induced on an invariant subspace W; returns
    (module, embedding matrix whose columns are the basis of W).  The
    images of W's basis come from one product, their coordinates from one
    batched membership test, which raises NotInvariant if one leaves W."""
    if W.ctx != M.ctx:
        raise ContextMismatch("subspace over a different field context")
    if W.ambient != M.dim:
        raise ShapeMismatch("subspace ambient does not match module dimension")
    imgs = _matmul_idx(M.ctx, W.basis, M.gens.transpose(0, 2, 1)).reshape(2 * W.dim, M.dim)
    coords, inside = W.reduce_rows(imgs)
    if not inside.all():
        raise NotInvariant("subspace is not stable under the action")
    coords = coords.reshape(2, W.dim, W.dim).transpose(0, 2, 1)  # column j: g(w_j)
    sub = HModule._derived(M.ctx, np.ascontiguousarray(coords), meta={"kind": "sub"})
    return sub, Mat(M.ctx, W.basis.T.copy())


def sub_generated(M: HModule, vectors) -> tuple:
    """Smallest invariant subspace containing the vectors, with induced
    action: the span of every word sigma0^a tau0^b of M.word_stack()
    applied to every vector, from one product and one elimination, since
    the words span the group algebra.  Returns (module, embedding matrix)."""
    ctx = M.ctx
    V = field_rows(ctx, vectors, M.dim)
    imgs = _matmul_idx(ctx, V, M.word_stack().transpose(0, 2, 1))
    return sub_module_on(M, Subspace.from_rows(ctx, M.dim, np.vstack(imgs)))


def quotient(M: HModule, W: Subspace, reps=None, labels=None) -> tuple:
    """Quotient module by an invariant subspace; returns (module,
    projection matrix).  Optional reps fixes the coset basis; otherwise
    the standard vectors off W's pivots are used.  Optional labels name
    that basis.  With C = [W | reps] as columns, invertible, the rows of
    C^-1 g C below W are zero left of the reps exactly when W is
    invariant, and right of them they are the quotient action; the
    projection P is C^-1 below W."""
    if W.ctx != M.ctx:
        raise ContextMismatch("subspace over a different field context")
    if W.ambient != M.dim:
        raise ShapeMismatch("subspace ambient does not match module dimension")
    ctx, k = M.ctx, W.dim
    reps = (np.delete(np.eye(M.dim, dtype=np.int64), W.pivots, axis=0) if reps is None
            else field_rows(ctx, reps, M.dim))
    if len(reps) != M.dim - k:
        raise ShapeMismatch(f"need {M.dim - k} coset representatives, got {len(reps)}")
    C = np.vstack([W.basis, reps]).T.copy()
    Cinv = invert(Mat(ctx, C))
    if Cinv is None:
        raise ShapeMismatch("representatives do not complement the subspace")
    P = Mat(ctx, Cinv.data[k:].copy())
    G = _matmul_idx(ctx, P.data, _matmul_idx(ctx, M.gens, C))
    if G[:, :, :k].any():
        raise NotInvariant("quotient by a non-invariant subspace")
    Q = HModule._derived(ctx, np.ascontiguousarray(G[:, :, k:]), labels=labels,
                         meta={"kind": "quotient"})
    return Q, P


# ---------------------------------------------------------------------------
# Words and degree functions


def apply_word(M: HModule, word: tuple, v) -> np.ndarray:
    """Apply the monomial sigma0^a tau0^b, word = (a, b), to a vector;
    the word is the zero map once a or b >= p."""
    a, b = word
    if a < 0 or b < 0:
        raise OutOfRange("negative word exponents")
    p = M.ctx.p
    W = (M.word_stack()[a * p + b] if a < p and b < p
         else np.zeros((M.dim, M.dim), dtype=np.int64))
    return Mat(M.ctx, W).apply(v)


@_memo
def fixed_space(M: HModule) -> Subspace:
    """S_0: the joint kernel of sigma0 and tau0, from one elimination of
    the two stacked; T1, the cores and the splits read it without the
    word stack."""
    return kernel(Mat(M.ctx, M.gens0().reshape(2 * M.dim, M.dim)))


@_memo
def _flag(M: HModule) -> tuple:
    """(R, deg): rows of the words of degree >= 1, by descending degree
    deg, whose rows of degree >= n + 1 span the annihilator of S_n, the
    row space of the words of degree n + 1 (and so of all words of higher
    degree).  The nonzero word rows of M.word_stack() are stacked from
    degree 2p - 2 down, and R is those at their row rank profile
    (_row_profile): each row of R lies outside the span of the rows
    before it, so the flag takes dim M - dim S_0 pivot steps, in one
    elimination.  No row of degree 0 is kept: S_0 has dim M - len(R)."""
    p, d = M.ctx.p, M.dim
    deg = np.add.outer(np.arange(p), np.arange(p)).ravel()  # of the word at a*p + b
    order = np.argsort(-deg[1:], kind="stable") + 1  # the words of degree >= 1
    X = M.word_stack()[order].reshape(order.size * d, d)
    keep = X.any(axis=1)
    X, rowdeg = X[keep], np.repeat(deg[order], d)[keep]
    prof = _row_profile(M.ctx, X)
    R = X[prof]
    R.setflags(write=False)
    return R, rowdeg[prof]


@_memo
def filtration_dims(M: HModule) -> tuple:
    """dim S_n for n = 0, 1, ... up to the first S_n that is the whole
    module: dim M less the number of flag rows of degree >= n + 1, so
    dim S_0 = dim M - len(R) and each later level adds the flag rows of
    its degree."""
    R, deg = _flag(M)
    counts = np.bincount(deg, minlength=1)
    counts[0] = M.dim - len(R)
    return tuple(np.cumsum(counts).tolist())


def s_filtration(M: HModule) -> list:
    """Increasing subspaces S_0 <= S_1 <= ... up to the full module, S_n
    the joint kernel of the words sigma0^a tau0^b with a + b = n + 1.  Each
    level is formed on request, as the kernel of the flag rows of degree
    >= n + 1; the decisions read only filtration_dims and ddeg_rows.  It is
    not exported, and stays while perfbench binds it (ROADMAP item 1)."""
    R, deg = _flag(M)
    return [kernel(Mat(M.ctx, R[deg > n])) for n in range(len(filtration_dims(M)))]


def ddeg_rows(M: HModule, V) -> np.ndarray:
    """Degrees of the rows of V (k x dim): the least n with the row in
    S_n, and -1 for a zero row.  A row lies in S_n exactly when every flag
    row of degree >= n + 1 kills it, so its degree is that of the first
    flag row that does not: one product V R^T, and 0 for a nonzero row
    that no flag row hits.  The flag is built once for all rows; ddeg
    answers for one vector from its orbit, without it."""
    V = field_rows(M.ctx, V, M.dim)
    R, deg = _flag(M)
    # then a column hit by the nonzero rows (degree 0) and one by every
    # row, which gives the zero rows -1
    hit = np.hstack([_matmul_idx(M.ctx, V, R.T) != 0, V.any(axis=1, keepdims=True),
                     np.ones((len(V), 1), dtype=bool)])
    return np.append(deg, (0, -1))[hit.argmax(axis=1)]


def ddeg(M: HModule, v) -> int:
    """Least n with v in S_n; -1 for the zero vector.  v lies in S_n
    exactly when every word of degree n + 1 kills it, and then so does
    every word of higher degree: ddeg(v) is the largest a + b with
    sigma0^a tau0^b v != 0.  Read from the orbit of v: the tau0-chain
    [v, tau0 v, ...] up to its first zero column, then that block times
    sigma0 until it is zero; in each block the nonzero columns are a
    prefix, since tau0 maps a zero column to zero.  At most 2(p - 1)
    products of at most p columns, each g0 X as gX - X, and no word
    stack, flag or memo: ddeg_rows reads the flag for many rows at once."""
    ctx, p = M.ctx, M.ctx.p
    X = field_rows(ctx, [v], M.dim).T
    while X.shape[1] < p and X[:, -1].any():
        last = X[:, -1:]
        X = np.hstack([X, ctx.sub[_matmul_idx(ctx, M.gens[1], last), last]])
    best = -1
    for a in range(p):
        if a:
            X = ctx.sub[_matmul_idx(ctx, M.gens[0], X), X]
        X = X[:, X.any(axis=0)]  # the nonzero columns, a prefix
        if not X.size:
            break
        best = max(best, a + X.shape[1] - 1)
    return best


def label_degrees(M: HModule) -> np.ndarray:
    """Combinatorial degree of each basis label of a v_d or v_dr module:
    w_i has s_p(i); eta_i has s_p(i) - 1, minus the second base-p digit
    of d, which every d of one v_dr class shares, when p divides i.  Reads
    only the labels and meta["d"], never the filtration, so it can check
    ddeg_rows; the degree of a vector is the max over its nonzero entries."""
    if M.meta.get("kind") not in ("vd", "vdr"):
        raise UnlabeledModule("operation needs a module built by v_d or v_dr")
    p = M.ctx.p
    d1 = digits_p(M.meta["d"], p, width=2)[1]
    out = []
    for lab in M.labels:
        if lab.startswith("eta"):
            i = int(lab[3:])
            out.append(s_p(i, p) - 1 - (d1 if i % p == 0 else 0))
        else:
            out.append(s_p(int(lab[1:]), p))
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Hom spaces


@_memo
def _hom_source_data(M: HModule) -> dict:
    """Generator/relation presentation of M, kept on M.  The inverse of
    its evaluation submatrix E[:, piv] is read only by the map rebuild and
    kept apart by _hom_pivot_inverse, so dims-only callers never invert."""
    ctx = M.ctx
    p = ctx.p
    # the generators: standard basis vectors lifting a basis of M modulo
    # the image of the shifted generators; they generate M over the group
    # algebra
    imgs = M.gens0().transpose(0, 2, 1).reshape(2 * M.dim, M.dim)
    pivots = Subspace.from_rows(ctx, M.dim, imgs).pivots.tolist()
    gens = [c for c in range(M.dim) if c not in pivots]
    t = len(gens)
    # column i*p^2 + w: word w applied to generator i
    E = M.word_stack()[:, :, gens].transpose(1, 2, 0).reshape(M.dim, t * p * p)
    # the relations are the kernel of E, in RREF, each led by its lowest
    # term: word (a, b) of generator i at column i*p^2 + a*p + b, a free
    # column of E.  sigma0 and tau0 shift a term to (a + 1, b) and
    # (a, b + 1), which keeps the order of terms, so a word times a
    # relation is led by the word times its pivot while that is nonzero,
    # and the free columns are closed under both shifts.  Every relation is
    # then cut to zero by word multiples of the rows at the free columns
    # that are neither shift of another (a standard basis for the word
    # order): those rows generate the relations as a module, and over the
    # commutative group algebra their conditions on a map imply those of
    # every relation, so the kernel builds those rows alone
    lead = np.zeros(E.shape[1], dtype=bool)

    def generating(free: np.ndarray) -> np.ndarray:
        lead[:] = free  # every relation's lead, for piv below
        col = np.arange(free.size)
        a, b = col % (p * p) // p, col % p
        # a > 0 and b > 0 keep the rolls from wrapping
        shifted = ((a > 0) & np.roll(free, p)) | ((b > 0) & np.roll(free, 1))
        return free & ~shifted

    relgens = kernel(Mat(ctx, E), generating).basis
    # the columns of E that are not free are independent and span the
    # column space of E, so they give an invertible evaluation submatrix
    piv = np.nonzero(~lead)[0]
    return {"t": t, "E": E, "relgens": relgens, "piv": piv}


@_memo
def _hom_pivot_inverse(M: HModule) -> Mat:
    """Inverse of the evaluation submatrix E[:, piv] of M's presentation,
    which the map rebuild multiplies by."""
    src = _hom_source_data(M)
    EPinv = invert(Mat(M.ctx, src["E"][:, src["piv"]]))
    assert EPinv is not None
    return EPinv


def _hom_conditions(M: HModule, N: HModule) -> np.ndarray:
    """The conditions C that the generating relations of M impose on the
    generator images x = (x_1 .. x_t) in N^t of a map M -> N, as an
    (nrel dim N) x (t dim N) array: block (r, i) is sum_w rel_r[i, w] *
    word_w(N), all blocks from one product.  A map is determined by its
    generator images, so dim Hom(M, N) = t dim N - rank C; with no
    generating relation C has no row and Hom(M, N) is all of N^t."""
    src = _hom_source_data(M)
    t, rel = src["t"], src["relgens"]
    nw = M.ctx.p ** 2
    dN = N.dim
    nrel = rel.shape[0]
    blocks = _matmul_idx(M.ctx, rel.reshape(nrel * t, nw), N.word_stack().reshape(nw, dN * dN))
    return blocks.reshape(nrel, t, dN, dN).transpose(0, 2, 1, 3).reshape(nrel * dN, t * dN)


@_memo
def _hom_solve(M: HModule, N: HModule) -> Subspace:
    """The relation solve: the generator images in N^t of every map
    M -> N, as the kernel of _hom_conditions, kept on M per N.  End(M) is
    its (M, M) value, which hom_space(M, M) reuses and end_dim reads for a
    module neither cyclic nor cocyclic; the dims of two modules come from
    _hom_dims, with no kernel.  A condition matrix that _hom_dims kept for
    this solve is taken and dropped."""
    if M.ctx != N.ctx:
        raise ContextMismatch("modules over different field contexts")
    if M.dim == 0 or N.dim == 0:
        return Subspace.zero(M.ctx, 0)
    C = M._cache.pop(("_hom_conditions", N), None)
    return kernel(Mat(M.ctx, _hom_conditions(M, N) if C is None else C))


@_memo
def _hom_dims(M: HModule, N: HModule) -> tuple:
    """(dim Hom(M, N), dim Hom(N, M)), kept on M per N and, reversed, on N
    per M: the ranks of both condition matrices, zero-padded to one shape,
    from one stacked rank.  Padding adds zero rows and columns, which
    change no rank, and each dim is the column count of its own matrix
    less its rank.  When the two dims agree, step 5 of is_isomorphic may
    solve Hom(M, N): C(M, N) is kept on M until _hom_solve(M, N) takes it,
    so it is formed once.  Nothing is kept for N = M or for a solve
    already cached.  is_isomorphic, the one caller in the package, drops
    what is kept when step 4 answers NO, so no End dim is asked here; only
    a direct call, as test_hom_dim_forms_no_end_kernel makes, leaves
    C(M, N) kept on M."""
    if M.ctx != N.ctx:
        raise ContextMismatch("modules over different field contexts")
    if M.dim == 0 or N.dim == 0:
        return 0, 0
    conds = (_hom_conditions(M, N), _hom_conditions(N, M))
    stack = np.zeros((2, max(C.shape[0] for C in conds), max(C.shape[1] for C in conds)),
                     dtype=np.int64)
    for X, C in zip(stack, conds):
        X[:C.shape[0], :C.shape[1]] = C
    ranks = _rank_stack(M.ctx, stack)
    dims = tuple(int(C.shape[1] - r) for C, r in zip(conds, ranks))
    # the key _memo reads for _hom_dims(N, M)
    N._cache[("_hom_dims", M)] = dims[::-1]
    if M is not N and ("_hom_solve", N) not in M._cache and dims[0] == dims[1]:
        M._cache[("_hom_conditions", N)] = conds[0]
    return dims


def hom_space(M: HModule, N: HModule) -> Subspace:
    """Canonical basis of the space of module maps M -> N, as row-major
    vectorized dim(N) x dim(M) matrices, rebuilt from the relation solve
    _hom_solve(M, N), kept on M per N; hom_space(M, M) reuses the End
    solve that end_dim may have made.

    Solved through a generator/relation presentation of M: a map is a
    choice of images for the generators annihilating the relations that
    generate the relation module.  The rank of those conditions alone
    gives the dimension (_hom_dims); rebuilding the maps from the generator
    images costs up to about three times the relation solve
    (End(v_dr(5, 19)): 2.9 ms against 1.1 ms), so the package builds maps
    only for the isomorphism witness search and for End bases
    (end_algebra, read by the End/J split of is_indecomposable).
    """
    ctx = M.ctx
    sol = _hom_solve(M, N)
    amb = M.dim * N.dim
    if sol.dim == 0:
        return Subspace.zero(ctx, amb)
    # a map sends column j = i*p^2 + w of E to word w of N on image i, so
    # only the dim M pivot columns are needed: one stacked product of
    # small slices, pivot word on pivot image for every solution, then the
    # inverse of E on them (_hom_pivot_inverse) per map.  No slice is
    # large enough for BLAS to split it across threads.
    src = _hom_source_data(M)
    t, piv = src["t"], src["piv"]
    nw = ctx.p ** 2
    dN = N.dim
    S = sol.dim
    X = sol.basis.reshape(S, t, dN)[:, piv // nw, :].transpose(1, 2, 0)   # (dim M, dN, S)
    VP = _matmul_idx(ctx, N.word_stack()[piv % nw], X).transpose(2, 1, 0)  # (S, dN, dim M)
    Phi = _matmul_idx(ctx, VP, _hom_pivot_inverse(M).data)
    return Subspace.from_rows(ctx, amb, Phi.reshape(S, amb))


def _cyclic_or_cocyclic(M: HModule, s: int) -> bool:
    """Whether M, with socle S_0 of dim s, is cocyclic (s = 1) or cyclic
    (a top of dim t = 1, read from its presentation, which the Hom dims
    of M read too).  Then End(M) is local of dim dim M: a cyclic M is A/I
    over the commutative local group algebra A, so End(M) = A/I; a
    cocyclic M has a cyclic dual, and End(M) is the opposite of its End.
    The radical of End(M) kills the socle, and the identity does not, so
    its image in End(S_0) is the scalars."""
    return s == 1 or _hom_source_data(M)["t"] == 1


def end_dim(M: HModule) -> int:
    """dim End(M): dim M when M is cyclic or cocyclic, else from the
    cached relation solve; no map is built.  Its callers form the flag
    first, so the socle dim is at hand."""
    if _cyclic_or_cocyclic(M, filtration_dims(M)[0]):
        return M.dim
    return _hom_solve(M, M).dim


def end_algebra(M: HModule) -> tuple:
    """(hom_space(M, M), its basis as one read-only (g, dim M, dim M)
    view, g = dim End(M)).  The maps are rebuilt from the cached End
    solve, so End(M) is eliminated at most once per module; only
    _end_split, memoized itself, needs this basis, and not for a cyclic or
    cocyclic module."""
    H = hom_space(M, M)
    return H, H.basis.reshape(H.dim, M.dim, M.dim)


# ---------------------------------------------------------------------------
# Isomorphism testing


@dataclass(frozen=True)
class IsoDecision:
    verdict: str                    # "YES" | "NO"
    method: str
    witness: Optional[Mat] = None
    detail: dict = field(default_factory=dict)

    @property
    def isomorphic(self) -> bool:
        return self.verdict == "YES"

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "method": self.method}
        if self.witness is not None:
            out["witness"] = {"rows": self.witness.rows, "cols": self.witness.cols,
                              "entries": self.witness.to_lists()}
        if self.detail:
            out["detail"] = {k: v for k, v in self.detail.items()}
        return out


def _verify_witness(M: HModule, N: HModule, X: Mat) -> bool:
    """X is invertible, of full rank by _rank_stack, and X gens_M =
    gens_N X, both generators in one product per side."""
    if not X.is_square() or _rank_stack(M.ctx, X.data[None])[0] != X.rows:
        return False
    return np.array_equal(_matmul_idx(M.ctx, X.data, M.gens), _matmul_idx(M.ctx, N.gens, X.data))


@_memo
def is_isomorphic(M: HModule, N: HModule) -> IsoDecision:
    """Decision procedure, kept on M per N: the key is N's content, and
    every step reads only the matrices of M and N and values memoized on
    them by content, never labels or meta, so the decision is a function
    of content.  The checks run cheapest first:

    1. dimension: NO, "dim-mismatch";
    2. equal matrices: YES, "equal-matrices";
    3. the filtration dims, then the End dim: each is computed for both
       modules before the next one runs, and the first that differs
       decides NO, "profile-mismatch".  End goes last because the
       presentation it caches is reused by the Hom dims of step 4.
       The fixed-space dim of profile() is not compared, because it is
       the first filtration dim; nor is the Jordan multiset: steps 4 and
       5 decide every pair without it, and the scan costs more than
       either invariant;
    4. the dims of Hom(M, N), Hom(N, M) and both End algebras: NO,
       "hom-dim-mismatch" unless all four agree and are nonzero.  The two
       Hom dims come from one stacked rank of both condition matrices
       (_hom_dims, kept on both modules), the End dims are those step 3
       read (end_dim); no kernel of Hom(M, N) is formed
       here, and a NO drops the conditions _hom_dims kept for step 5;
    5. the map basis of Hom(M, N) (hom_space), rebuilt from its relation
       solve, the one Hom kernel of the decision, kept on M per N, and
       ranked in one stacked elimination: the first invertible element is
       a YES witness,
       "hom-basis".  Otherwise, if M or N is indecomposable (its End is
       local), NO, "hom-basis": an isomorphism psi gives Hom(M, N) =
       psi End(M) = End(N) psi, and psi J is a proper subspace, so every
       basis of it holds a unit.  Otherwise both are split into
       indecomposable summands along the Fitting splits of
       is_indecomposable and the summands are matched pairwise
       (Krull-Schmidt), "krull-schmidt"."""
    if M.ctx != N.ctx:
        raise ContextMismatch("modules over different field contexts")
    ctx = M.ctx
    if M.dim != N.dim:
        return IsoDecision("NO", "dim-mismatch",
                           detail={"dims": [M.dim, N.dim]})
    if M == N:
        return IsoDecision("YES", "equal-matrices", witness=Mat.identity(ctx, M.dim))
    if filtration_dims(M) != filtration_dims(N) or end_dim(M) != end_dim(N):
        return IsoDecision("NO", "profile-mismatch")
    h, h_back = _hom_dims(M, N)
    e, e2 = end_dim(M), end_dim(N)
    if not (h == h_back == e == e2):
        M._cache.pop(("_hom_conditions", N), None)
        return IsoDecision("NO", "hom-dim-mismatch",
                           detail={"hom": [h, h_back], "end": [e, e2]})
    H = hom_space(M, N)
    full = np.nonzero(_rank_stack(ctx, H.basis.reshape(h, N.dim, M.dim)) == M.dim)[0]
    if full.size:
        X = Mat(ctx, H.basis[full[0]].reshape(N.dim, M.dim).copy())
        return IsoDecision("YES", "hom-basis", witness=X,
                           detail={"hom_dim": h, "element": int(full[0])})
    for side, L in (("M", M), ("N", N)):
        dec = is_indecomposable(L)
        if dec.indecomposable:
            return IsoDecision("NO", "hom-basis",
                               detail={"hom_dim": h, "local": side,
                                       "certificate": dec.certificate})
    return _krull_schmidt(M, N)


def _summands(M: HModule) -> list:
    """Indecomposable summands of M as (module, embedding): the embedding
    is a dim(M) x dim(S) array whose columns are the basis of S in M.
    Splits recursively along the Fitting splits of the End/J scan."""
    split = None if fixed_space(M).dim == 1 else _end_split(M)[1]
    if split is None:
        return [(M, np.eye(M.dim, dtype=np.int64))]
    out = []
    for W in split:
        sub, E = sub_module_on(M, W)
        out += [(S, _matmul_idx(M.ctx, E.data, F)) for S, F in _summands(sub)]
    return out


def _krull_schmidt(M: HModule, N: HModule) -> IsoDecision:
    """Match the indecomposable summands of M and N pairwise.  By
    Krull-Schmidt M and N are isomorphic exactly when every summand of M
    finds a distinct isomorphic summand of N; since isomorphism is an
    equivalence, a greedy match never has to undo a choice.  A YES
    witness is assembled from the summand witnesses and checked."""
    ctx = M.ctx
    parts, others = _summands(M), _summands(N)
    detail = {"summand_dims": [[S.dim for S, _ in parts], [T.dim for T, _ in others]]}
    src, dst, blocks, taken = [], [], [], set()
    for S, E in parts:
        for j, (T, F) in enumerate(others):
            if j in taken:
                continue
            dec = is_isomorphic(S, T)
            if dec.isomorphic:
                src.append(E)
                dst.append(F)
                blocks.append(dec.witness.data)
                taken.add(j)
                break
        else:
            return IsoDecision("NO", "krull-schmidt", detail=detail)
    # X = [F_1 .. F_k] diag(X_1 .. X_k) [E_1 .. E_k]^-1
    D = np.zeros((M.dim, M.dim), dtype=np.int64)
    at = 0
    for B in blocks:
        D[at:at + B.shape[0], at:at + B.shape[0]] = B
        at += B.shape[0]
    P = invert(Mat(ctx, np.hstack(src)))
    X = Mat(ctx, np.hstack(dst)) @ Mat(ctx, D) @ P
    assert _verify_witness(M, N, X)
    return IsoDecision("YES", "krull-schmidt", witness=X, detail=detail)


# ---------------------------------------------------------------------------
# Indecomposability


@dataclass(frozen=True)
class IndecDecision:
    verdict: str                    # "INDECOMPOSABLE" | "DECOMPOSABLE"
    certificate: str                # "T1" | "T2" | "T3" | "T3-division"
    detail: dict = field(default_factory=dict)

    @property
    def indecomposable(self) -> bool:
        return self.verdict == "INDECOMPOSABLE"

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "certificate": self.certificate}
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


def _charpoly_stack(ctx: FieldCtx, A: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients of a stack of n x n matrices
    (k, n, n): row b holds [c_0 = 1, c_1, ..., c_n] of matrix b, c_j the
    coefficient of lambda^(n-j).  All k matrices are reduced to Hessenberg
    form together by similarity, each with its own pivot row, and the
    leading-minor recurrence then runs over the whole stack."""
    k, n = A.shape[0], A.shape[-1]
    H = A.copy()
    for j in range(n - 2):
        col = H[:, j + 1:, j] != 0
        piv = j + 1 + np.argmax(col, axis=1)
        swap = np.nonzero(col.any(axis=1) & (piv != j + 1))[0]
        if swap.size:  # exchange rows and columns j + 1 and piv
            perm = np.tile(np.arange(n), (swap.size, 1))
            perm[:, j + 1] = piv[swap]
            perm[np.arange(swap.size), piv[swap]] = j + 1
            H[swap] = H[swap[:, None, None], perm[:, :, None], perm[:, None, :]]
        f = ctx.mul[H[:, j + 2:, j], ctx.inv[H[:, j + 1, j]][:, None]]
        if not f.any():
            continue
        # rows r > j + 1 lose f_r * row j + 1; column j + 1 gains sum_r f_r * column r
        H[:, j + 2:] = ctx.sub[H[:, j + 2:], ctx.mul[f[:, :, None], H[:, j + 1, None, :]]]
        gain = _matmul_idx(ctx, H[:, :, j + 2:], f[:, :, None])[:, :, 0]
        H[:, :, j + 1] = ctx.add[H[:, :, j + 1], gain]
    # ascending coefficients of the leading m x m minors of (la*I - H)
    polys = [np.ones((k, 1), dtype=np.int64)]
    for m in range(1, n + 1):
        prev = polys[-1]
        cur = np.zeros((k, m + 1), dtype=np.int64)
        cur[:, 1:] = prev
        cur[:, :-1] = ctx.sub[cur[:, :-1], ctx.mul[H[:, m - 1, m - 1, None], prev]]
        run = np.ones(k, dtype=np.int64)
        for t in range(1, m):
            run = ctx.mul[run, H[:, m - t, m - t - 1]]
            if not run.any():
                break
            w = ctx.mul[H[:, m - 1 - t, m - 1], run]
            cur[:, :m - t] = ctx.sub[cur[:, :m - t], ctx.mul[w[:, None], polys[m - 1 - t]]]
        polys.append(cur)
    return polys[n][:, ::-1]


RADICAL_CHUNK = 32  # products per stacked charpoly; larger stacks raise the peak RSS


def algebra_radical(ctx: FieldCtx, mats: np.ndarray) -> Subspace:
    """Jacobson radical of the matrix algebra spanned by the (g, n, n)
    stack mats (assumed multiplicatively closed), in basis coordinates
    (Cohen-Ivanyos-Wales): repeatedly cut by the vanishing of the p^i-th
    characteristic coefficient of products z*y, made linear with p^i-th
    roots.  Level 0 is the trace form c_1(z*y) = -tr(z*y), one product;
    each later level takes the coefficient of all products from stacked
    charpolys.  _end_split passes the socle image of End(M), s x s with
    s <= 2 on the families; RADICAL_CHUNK stays for the full End algebras
    (dim 28, the stack of end_algebra) that the test references and
    perfbench/micro.py still pass."""
    g, n = mats.shape[0], mats.shape[-1]
    flat = mats.reshape(g, n * n)
    W = Subspace.full(ctx, g)
    lmax = 0
    while ctx.p ** (lmax + 1) <= n:
        lmax += 1
    for i in range(lmax + 1):
        if W.dim == 0:
            break
        h = W.dim
        Z = _matmul_idx(ctx, W.basis, flat)
        # S[j1, j2] = c_{p^i}(z_{j2} z_{j1})^(1/p^i): one equation per j1
        if i == 0:
            ZT = Z.reshape(h, n, n).transpose(0, 2, 1).reshape(h, n * n)
            S = ctx.neg[_matmul_idx(ctx, ZT, Z.T)]
        else:
            Z = Z.reshape(h, n, n)
            S = np.empty(h * h, dtype=np.int64)
            for lo in range(0, h * h, RADICAL_CHUNK):
                idx = np.arange(lo, min(lo + RADICAL_CHUNK, h * h))
                prods = _matmul_idx(ctx, Z[idx % h], Z[idx // h])
                S[idx] = _charpoly_stack(ctx, prods)[:, ctx.p ** i]
            for _ in range(i):
                S = ctx.proot[S]
            S = S.reshape(h, h)
        K = kernel(Mat(ctx, S))
        if K.dim == h:
            continue
        W = Subspace.from_rows(ctx, g, _matmul_idx(ctx, K.basis, W.basis))
    return W


SCAN_STACK = 64  # projective points per stacked power and rank in the split scan


def _projective_points(e: int, q: int):
    """The (q^e - 1)/(q - 1) points of P(F_q^e) as coefficient rows with
    first nonzero entry 1: the e basis vectors, then by growing support,
    supports in lexicographic order."""
    for k in range(1, e + 1):
        for support in itertools.combinations(range(e), k):
            for tail in itertools.product(range(1, q), repeat=k - 1):
                c = np.zeros(e, dtype=np.int64)
                c[list(support)] = (1,) + tail
                yield c


def _fitting_split(M: HModule, reps: np.ndarray) -> Optional[tuple]:
    """Scan the projective points x of the span of reps (flattened End
    elements spanning a complement of J = rad End(M)) for one that is
    neither nilpotent nor invertible: 0 < rank x^dim M < dim M.  The
    points go in stacks, the basis elements first, each stack raised to
    the power dim M and ranked at once.  Returns the Fitting split
    (kernel, image) of x^dim M at the first such point, or None when
    every point is nilpotent or invertible."""
    ctx, n = M.ctx, M.dim
    points = _projective_points(reps.shape[0], ctx.q)
    take = reps.shape[0]
    while True:
        coeffs = list(itertools.islice(points, take))
        if not coeffs:
            return None
        X = _matmul_idx(ctx, np.array(coeffs), reps).reshape(len(coeffs), n, n)
        F = _matpow_idx(ctx, X, n)
        ranks = _rank_stack(ctx, F)
        hit = np.nonzero((ranks > 0) & (ranks < n))[0]
        if hit.size:
            Fx = F[hit[0]]
            return kernel(Mat(ctx, Fx)), Subspace.from_rows(ctx, n, Fx.T.copy())
        take = SCAN_STACK


@_memo
def _end_split(M: HModule) -> tuple:
    """(dims of End(M), J, End/J and the socle image E', Fitting split or
    None), cached on M.  A cyclic or cocyclic module has them in closed
    form and no split (_cyclic_or_cocyclic), with no End basis formed.
    Otherwise E' is the image of the restriction End(M) ->
    End(soc M), soc M = fixed_space(M), of dim s; its kernel is nil (x in
    it is bijective on L = im x^dim M and kills soc L, so L = 0), so J is
    the preimage of J(E'), End/J = E'/J(E') and the radical runs on s x s
    matrices.  Every module map keeps the socle, so each restriction is
    read at the socle pivots with no membership test.  When e = dim End/J
    > 1 the projective points of the span of the e End basis elements off
    J's pivots are scanned; that span maps onto End/J, so every element of
    End/J is hit up to a scalar.  A semisimple algebra that is not a
    division algebra has an idempotent other than 0 and 1, whose lift is
    neither nilpotent nor invertible; so the scan finds a split exactly
    when End/J is not a division algebra."""
    ctx = M.ctx
    soc = fixed_space(M)
    s = soc.dim
    if _cyclic_or_cocyclic(M, s):
        # End(M) is local, of dim dim M, and its socle image the scalars
        return {"end_dim": M.dim, "radical_dim": M.dim - 1, "semisimple_dim": 1,
                "socle_dim": s, "socle_image_dim": 1, "socle_image_radical_dim": 0}, None
    Hend, E = end_algebra(M)
    g = Hend.dim
    # column j of x soc^T is x(v_j) for socle basis vector v_j, in soc M;
    # its coordinates, column j of x on soc M, are its entries at the pivots
    R = _matmul_idx(ctx, E, soc.basis.T)[:, soc.pivots, :]
    image = Subspace.from_rows(ctx, s * s, R.reshape(g, s * s))
    rad = algebra_radical(ctx, image.basis.reshape(image.dim, s, s))
    e = image.dim - rad.dim
    dims = {"end_dim": g, "radical_dim": g - e, "semisimple_dim": e, "socle_dim": s,
            "socle_image_dim": image.dim, "socle_image_radical_dim": rad.dim}
    split = None
    if e > 1:
        # J = kernel of x -> E'/J(E'): E' coordinates reduced by J(E'), off its pivots
        C = R.reshape(g, s * s)[:, image.pivots]
        C = ctx.sub[C, _matmul_idx(ctx, C[:, rad.pivots], rad.basis)]
        J = kernel(Mat(ctx, np.delete(C, rad.pivots, axis=1).T.copy()))
        split = _fitting_split(M, np.delete(Hend.basis, J.pivots, axis=0))
    return dims, split


def is_indecomposable(M: HModule) -> IndecDecision:
    """(T1) a one-dimensional fixed space: INDECOMPOSABLE.  Otherwise
    the radical J of End(M), from that of its socle image E', and the
    split scan of End/J (_end_split), whose dims (with socle_dim, dim E'
    and dim J(E')) are the T3 detail:
    (T2) a point that splits: DECOMPOSABLE, with the Fitting split as
    kernel and image rows; (T3) End/J one-dimensional: INDECOMPOSABLE;
    (T3-division) no point splits, so End/J is a division algebra and
    End(M) is local: INDECOMPOSABLE."""
    if M.dim < 1:
        raise BadDimension("decision needs a module of dimension >= 1")
    if fixed_space(M).dim == 1:
        return IndecDecision("INDECOMPOSABLE", "T1", detail={"fixed_dim": 1})
    dims, split = _end_split(M)
    if split is not None:
        ker, im = split
        # both bases as rows of element texts, as module_to_json
        # writes matrices, so a caller can check the split
        return IndecDecision("DECOMPOSABLE", "T2",
                             detail={"split_dims": [ker.dim, im.dim],
                                     "kernel": Mat(M.ctx, ker.basis).to_lists(),
                                     "image": Mat(M.ctx, im.basis).to_lists()})
    if dims["semisimple_dim"] == 1:
        return IndecDecision("INDECOMPOSABLE", "T3", detail=dict(dims))
    return IndecDecision("INDECOMPOSABLE", "T3-division", detail=dict(dims, simple_factors=1))


# ---------------------------------------------------------------------------
# Jordan types


@_memo
def jordan_scan(M: HModule) -> list:
    """Jordan types at all q + 1 points of P^1(F_q): (1, b) for every b in
    F_q, then (0, 1), each point a pair of encoded field indices.  The
    q + 1 pencil matrices are stacked and their partitions computed
    together.  sigma0 and tau0 commute, so in characteristic p every
    pencil member N has N^p = a^p sigma0^p + b^p tau0^p = 0, and the rank
    chain stops at N^(p-1)."""
    pts, stack = _pencil(M)
    return list(zip(pts, nilpotent_partitions(M.ctx, stack)))


def _pencil(M: HModule) -> tuple:
    """The q + 1 points of jordan_scan and the (q + 1, dim, dim) stack of
    the pencil members a*sigma0 + b*tau0 at them."""
    ctx = M.ctx
    pts = [(1, b) for b in range(ctx.q)] + [(0, 1)]
    a, b = np.array(pts, dtype=np.int64).T[:, :, None, None]
    G = M.gens0()
    return pts, ctx.add[ctx.mul[a, G[0]], ctx.mul[b, G[1]]]


@_memo
def vd_jordan_scans(ctx: FieldCtx, beta: FieldElem) -> dict:
    """jordan_scan(v_d(ctx, d, beta)) for every d in 1..p^2, from the
    pencil powers of v_d(p^2, beta) alone.  v_d(d) is the invariant span
    of w_0..w_{d-1}, so a pencil power N^j on it is the leading d x d
    block of N^j on v_d(p^2), and the first d columns of N^j are zero
    below that block: the rank of N^j on v_d(d) is the number of pivot
    columns below d in the column rank profile of N^j (Dumas, Pernet and
    Sultan, ISSAC 2013).  The profiles of the p - 1 nonzero powers at all
    q + 1 points come from one stacked elimination.  Each scan is also
    kept on its member, where jordan_scan's memo reads it."""
    p, pp = ctx.p, ctx.p ** 2
    pts, stack = _pencil(v_d(ctx, pp, beta))
    powers = [stack]
    while len(powers) < p - 1:
        powers.append(_matmul_idx(ctx, powers[-1], stack))
    # ranks[j - 1, k, d - 1]: the rank of N^j at point k on v_d(d)
    ranks = np.cumsum(_rank_stack(ctx, np.stack(powers), profile=True), axis=-1)
    chains = ranks.transpose(2, 1, 0).tolist()
    return {d: v_d(ctx, d, beta)._cache.setdefault(
                ("jordan_scan",), list(zip(pts, _partitions(d, chains[d - 1]))))
            for d in range(1, pp + 1)}


def generic_jordan_type(M: HModule) -> tuple:
    """Dominance-maximal Jordan type over the scanned projective line: the
    type whose prefix sums are the columnwise maximum of those of every
    scanned type, padded to length dim M."""
    types = sorted({t for _, t in jordan_scan(M)})
    sums = [list(itertools.accumulate(t + (0,) * (M.dim - len(t)))) for t in types]
    top = [max(col) for col in zip(*sums)]
    if top in sums:
        return types[sums.index(top)]
    raise Undecided(f"no dominance-maximum among scanned types {types}")


def constant_type_over_scan(M: HModule) -> bool:
    types = {t for _, t in jordan_scan(M)}
    return len(types) == 1


# ---------------------------------------------------------------------------
# Cores and profiles


def _case_ii_entries(M: HModule, u) -> bytes:
    """The entries of a nonzero u of M, as the bytes of its index array:
    the key under which its case-II modules are kept on M."""
    vec = field_rows(M.ctx, [u], M.dim)[0]
    if not vec.any():
        raise ZeroVector("core of the zero vector")
    return vec.tobytes()


@_memo
def _case_ii_module(M: HModule, entries: bytes, with_fixed: bool) -> HModule:
    """The submodule generated by the word image w = sigma0^(p-2)
    tau0^(p-2) u of the vector u with these entries, and by S_0 when
    with_fixed; kept on M per vector."""
    p = M.ctx.p
    w = apply_word(M, (p - 2, p - 2), np.frombuffer(entries, dtype=np.int64))
    return sub_generated(M, np.vstack([w, fixed_space(M).basis]) if with_fixed else [w])[0]


def case_ii_core(M: HModule, u) -> HModule:
    """The core: the submodule generated by the word image w of u."""
    return _case_ii_module(M, _case_ii_entries(M, u), False)


def case_ii_core_with_fixed(M: HModule, u) -> HModule:
    """The submodule generated by the word image w of u together with
    S_0, whose vectors generate only themselves; the core is not built."""
    return _case_ii_module(M, _case_ii_entries(M, u), True)


@dataclass(frozen=True)
class Profile:
    dim: int
    filtration_dims: tuple
    fixed_dim: int
    end_dim: int
    jordan_multiset: tuple

    def to_json(self) -> dict:
        # shallow: asdict would deep-copy the Jordan multiset, and the
        # JSON text of a tuple is that of the list
        return {f.name: getattr(self, f.name) for f in fields(self)}


def profile(M: HModule) -> Profile:
    """Isomorphism-invariant fingerprint; equality is necessary (not
    sufficient) for isomorphism.  After dim come the two invariants that
    step 3 of is_isomorphic compares, in its order, then two that are
    reported but decide nothing: the fixed space is S_0 of the
    filtration, so its dim is the first filtration dim, read from the
    flag; the Jordan multiset over P^1(F_q) is left to steps 4 and 5."""
    return Profile(dim=M.dim, filtration_dims=filtration_dims(M), end_dim=end_dim(M),
                   fixed_dim=filtration_dims(M)[0],
                   jordan_multiset=tuple(sorted(t for _, t in jordan_scan(M))))


# ---------------------------------------------------------------------------
# JSON


def module_to_json(M: HModule) -> dict:
    sigma, tau = M.ctx.texts[M.gens].tolist()
    return {
        "p": M.ctx.p,
        "n": M.ctx.n,
        "modulus": list(M.ctx.modulus),
        "dim": M.dim,
        "sigma": sigma,
        "tau": tau,
        "labels": list(M.labels) if M.labels else None,
    }


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(map(isinstance, x, itertools.repeat(str)))


@_memo
def _text_index(ctx: FieldCtx) -> dict:
    """The index of each of the q element texts ctx.texts spells."""
    return dict(zip(ctx.texts.tolist(), range(ctx.q)))


def module_from_json(obj: dict) -> HModule:
    """Inverse of module_to_json.  Input from outside is checked against
    that shape first: a missing key or a wrong type raises BadParams."""
    if not isinstance(obj, dict):
        raise BadParams("module JSON must be an object")
    missing = [k for k in ("p", "n", "modulus", "dim", "sigma", "tau") if k not in obj]
    if missing:
        raise BadParams(f"module JSON lacks key(s) {missing}")
    for k in ("p", "n", "dim"):
        if type(obj[k]) is not int:
            raise BadParams(f"module JSON: {k} must be an integer")
    modulus = obj["modulus"]
    if not isinstance(modulus, list) or any(type(c) is not int for c in modulus):
        raise BadParams("module JSON: modulus must be a list of integers")
    d = obj["dim"]
    if d < 0:
        raise BadParams("module JSON: dim must be >= 0")
    for k in ("sigma", "tau"):
        rows = obj[k]
        if not isinstance(rows, list) or not all(map(_is_str_list, rows)):
            raise BadParams(f"module JSON: {k} must be a list of rows of element texts")
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ShapeMismatch(f"module JSON: {k} grid does not match dim {d}")
    labels = obj.get("labels")
    if labels is not None and not _is_str_list(labels):
        raise BadParams("module JSON: labels must be null or a list of strings")
    ctx = ctx_new(obj["p"], obj["n"], tuple(modulus))
    entries = list(itertools.chain.from_iterable(obj["sigma"] + obj["tau"]))
    # another spelling than ctx.texts ("1", " 2,0") is parsed, in the order
    # of the entries, so the first bad entry is the one reported
    index = _text_index(ctx)
    data = np.fromiter((index[v] if v in index else ctx.from_text(v).idx for v in entries),
                       dtype=np.int64, count=len(entries))
    sigma, tau = (Mat(ctx, X) for X in data.reshape(2, d, d))
    return HModule(ctx, sigma, tau, labels=labels)
