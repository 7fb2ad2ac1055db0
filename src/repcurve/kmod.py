"""Representation engine for the elementary abelian group H = Z/p x Z/p
acting in characteristic p.

A module is a pair of commuting order-p matrices (the actions of fixed
generators sigma and tau) over a FieldCtx.  The shifted generators
sigma0 = sigma - 1 and tau0 = tau - 1 are nilpotent and drive everything
else: the vanishing filtration S_n, degree functions, fixed spaces,
Hom spaces, isomorphism and indecomposability decisions, and Jordan
types of the pencil a*sigma0 + b*tau0.
"""

from __future__ import annotations

import itertools
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
    ZeroPoint,
    ZeroVector,
)
from .ff import _TABLE_LIMIT, FieldCtx, FieldElem, ctx_new
from .linalg import (
    Mat,
    Subspace,
    _matmul_idx,
    _matpow_idx,
    _rank_stack,
    _rref_inplace,
    as_vector,
    invert,
    kernel,
    matpow,
    nilpotent_partitions,
)

# ---------------------------------------------------------------------------
# Base-p digit combinatorics


def digits_p(n: int, p: int, width: Optional[int] = None) -> tuple:
    """Base-p digits of n, least significant first; at least one digit."""
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
    """Binomial coefficient mod p via the digitwise product rule."""
    if n < 0 or i < 0:
        raise OutOfRange("negative binomial arguments")
    if i > n:
        return 0
    out = 1
    while n or i:
        nd, id_ = n % p, i % p
        if id_ > nd:
            return 0
        # small Pascal values fit in int; compute C(nd, id_) directly
        num, den = 1, 1
        for k in range(id_):
            num *= nd - k
            den *= k + 1
        out = (out * (num // den)) % p
        n //= p
        i //= p
    return out


# ---------------------------------------------------------------------------
# HModule


def _memo(fn):
    """Keep fn(owner, *args) in owner._cache under fn's name and the
    arguments, a field element by its idx: each cached value lives on the
    field context or module it is computed from, and is freed with it.  A
    field element of another field than the owner's raises ContextMismatch
    before the lookup, since its idx names an unrelated element here."""
    name = fn.__name__

    @wraps(fn)
    def cached(owner, *args):
        ctx = getattr(owner, "ctx", owner)
        if any(isinstance(a, FieldElem) and a.ctx != ctx for a in args):
            raise ContextMismatch("parameter from a different field context")
        key = (name, *[a.idx if isinstance(a, FieldElem) else a for a in args])
        if key not in owner._cache:
            owner._cache[key] = fn(owner, *args)
        return owner._cache[key]

    return cached


def _square_pair(ctx: FieldCtx, Msigma: Mat, Mtau: Mat) -> int:
    """The common dim of two square generator matrices over ctx."""
    if Msigma.ctx != ctx or Mtau.ctx != ctx:
        raise ContextMismatch("generator matrices over a different context")
    if not Msigma.is_square() or not Mtau.is_square():
        raise ShapeMismatch("generator matrices must be square")
    if Msigma.rows != Mtau.rows:
        raise ShapeMismatch("generator matrices of different sizes")
    return Msigma.rows


def check_actions(ctx: FieldCtx, gens: np.ndarray) -> None:
    """Check that each (sigma, tau) pair of the stack gens, shaped
    (..., 2, d, d), has sigma^p = tau^p = 1 and sigma tau = tau sigma: all
    p-th powers from one stacked power, sigma tau and tau sigma from one
    stacked product, however many pairs there are.  The first bad pair
    raises what HModule raises for it, sigma's order before tau's before
    commuting."""
    powers = _matpow_idx(ctx, gens, ctx.p)
    swapped = _matmul_idx(ctx, gens, gens[..., ::-1, :, :])
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
    """Two commuting order-p matrices over a shared field context.

    Immutable; derived data (filtration, End solve and split, word
    matrices, dual) is kept on the instance by _memo.  labels and meta carry
    construction provenance used by label-aware operations and are not
    part of equality.
    """

    __slots__ = ("ctx", "dim", "Msigma", "Mtau", "labels", "meta", "_cache")

    def __init__(self, ctx: FieldCtx, Msigma: Mat, Mtau: Mat,
                 labels: Optional[Sequence[str]] = None,
                 meta: Optional[dict] = None):
        _square_pair(ctx, Msigma, Mtau)
        check_actions(ctx, np.stack([Msigma.data, Mtau.data]))
        self._fill(ctx, Msigma, Mtau, labels, meta)

    @classmethod
    def batch(cls, ctx: FieldCtx, specs: Sequence[tuple]) -> list:
        """[HModule(ctx, *spec) for spec in specs] for (Msigma, Mtau,
        labels, meta) specs, with the group-action checks of all pairs in
        one check_actions chain: each pair sits in the leading block of an
        identity-padded stack at the largest dim, and an identity block
        changes neither an order nor commuting.  Context and shape errors
        are raised for each spec first, then the action error of the first
        bad pair, then label errors; an empty batch checks nothing."""
        dims = [_square_pair(ctx, S, T) for S, T, *_ in specs]
        if specs:
            top = max(dims)
            gens = np.empty((len(specs), 2, top, top), dtype=np.int64)
            gens[:] = np.eye(top, dtype=np.int64)
            for G, (S, T, *_), d in zip(gens, specs, dims):
                G[0, :d, :d], G[1, :d, :d] = S.data, T.data
            check_actions(ctx, gens)
        out = []
        for spec in specs:
            M = cls.__new__(cls)
            M._fill(ctx, *spec)
            out.append(M)
        return out

    def _fill(self, ctx: FieldCtx, Msigma: Mat, Mtau: Mat,
              labels: Optional[Sequence[str]] = None,
              meta: Optional[dict] = None) -> None:
        d = Msigma.rows
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != d:
                raise ShapeMismatch("label count does not match dimension")
            if len(set(labels)) != d:
                twice = next(lab for lab in labels if labels.count(lab) > 1)
                raise BadParams(f"basis label {twice!r} occurs more than once")
        self.ctx = ctx
        self.dim = d
        self.Msigma = Msigma
        self.Mtau = Mtau
        self.labels = labels
        self.meta = dict(meta) if meta else {}
        self._cache: dict = {}

    # -- derived matrices ----------------------------------------------------

    @_memo
    def sigma0(self) -> Mat:
        return self.Msigma - Mat.identity(self.ctx, self.dim)

    @_memo
    def tau0(self) -> Mat:
        return self.Mtau - Mat.identity(self.ctx, self.dim)

    @_memo
    def word_stack(self) -> np.ndarray:
        """Read-only (p^2, dim, dim) array holding sigma0^a tau0^b at
        a*p + b for 0 <= a, b < p.  The powers of both generators come
        from p - 2 stacked products; they are the words with a = 0 or
        b = 0, and the (p - 1)^2 others come from one broadcast product."""
        ctx, p, d = self.ctx, self.ctx.p, self.dim

        def powers(G: np.ndarray) -> np.ndarray:  # (2, d, d) -> (p, 2, d, d)
            out = [np.broadcast_to(np.eye(d, dtype=np.int64), G.shape), G]
            while len(out) < p:
                out.append(_matmul_idx(ctx, out[-1], G))
            return np.stack(out)

        P = powers(np.stack([self.sigma0().data, self.tau0().data]))
        W = np.empty((p, p, d, d), dtype=np.int64)
        W[0], W[1:, 0] = P[:, 1], P[1:, 0]
        W[1:, 1:] = _matmul_idx(ctx, P[1:, None, 0], P[None, 1:, 1])
        W = W.reshape(p * p, d, d)
        W.setflags(write=False)
        return W

    def basis_vector(self, which) -> np.ndarray:
        """Standard basis vector by index or label."""
        if isinstance(which, str):
            if self.labels is None:
                raise UnlabeledModule("module has no basis labels")
            if which not in self.labels:
                raise UnlabeledModule(f"no basis label {which!r}")
            which = self.labels.index(which)
        v = np.zeros(self.dim, dtype=np.int64)
        v[which] = 1
        return v

    def __eq__(self, other) -> bool:
        return (isinstance(other, HModule) and self.ctx == other.ctx
                and self.Msigma == other.Msigma and self.Mtau == other.Mtau)

    def __hash__(self):
        return hash((self.ctx, self.Msigma, self.Mtau))

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
def binomial_table(ctx: FieldCtx, beta: FieldElem) -> tuple:
    """Read-only p^2 x p^2 matrices (S, T) of v_d(p^2, beta): entry (i, n)
    is C(n, i) for S and C(n, i) beta^(n-i) for T, zero for i > n.  By
    Lucas, S is the Kronecker square of the p x p Pascal table mod p;
    shared per (ctx, beta)."""
    p = ctx.p
    pp = p * p
    pascal = np.array([[binom_mod_p(n, i, p) for n in range(p)] for i in range(p)],
                      dtype=np.int64)
    S = np.kron(pascal, pascal) % p
    powers = np.ones(pp, dtype=np.int64)
    for k in range(1, pp):
        powers[k] = ctx.mul[powers[k - 1], beta.idx]
    gap = np.arange(pp)[None, :] - np.arange(pp)[:, None]
    T = ctx.mul[S, powers[np.maximum(gap, 0)]]
    S.setflags(write=False)
    T.setflags(write=False)
    return S, T


@_memo
def v_d(ctx: FieldCtx, d: int, beta: FieldElem) -> HModule:
    """Module on basis w_0..w_{d-1} with binomial action:
    sigma.w_n = sum_i C(n,i) w_i, tau.w_n = sum_i C(n,i) beta^(n-i) w_i.
    Equal arguments over one context return the same shared module."""
    return HModule(ctx, *_vd_spec(ctx, d, beta))


def _vd_spec(ctx: FieldCtx, d: int, beta: FieldElem) -> tuple:
    """(Msigma, Mtau, labels, meta) of v_d(ctx, d, beta)."""
    p = ctx.p
    if not (1 <= d <= p * p):
        raise BadDimension(f"dimension {d} outside 1..{p * p}")
    _require_nonprime(ctx, beta)
    S, T = binomial_table(ctx, beta)
    labels = tuple(f"w{i}" for i in range(d))
    return (Mat(ctx, S[:d, :d].copy()), Mat(ctx, T[:d, :d].copy()), labels,
            {"kind": "vd", "d": d, "beta": beta.idx})


def v_d_family(ctx: FieldCtx, ds: Sequence[int], beta: FieldElem) -> list:
    """[v_d(ctx, d, beta) for d in ds]; the members not yet shared are
    built by one HModule.batch and kept where v_d finds them."""
    new = [d for d in dict.fromkeys(ds) if ("v_d", d, beta.idx) not in ctx._cache]
    for d, M in zip(new, HModule.batch(ctx, [_vd_spec(ctx, d, beta) for d in new])):
        # the key _memo reads for v_d(ctx, d, beta)
        ctx._cache[("v_d", d, beta.idx)] = M
    return [v_d(ctx, d, beta) for d in ds]


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
    S, T = (Mat(ctx, ctx.mul[ctx.mul[ctx.inv[scale][:, None], A[np.ix_(pos, pos)]], scale])
            for A in dr_action(ctx, d, beta, one))
    return HModule(ctx, S, T, labels=labels, meta={"kind": "vdr", "d": d, "beta": beta.idx})


def _rewrite_scale(ctx: FieldCtx, d: int, gamma: FieldElem, i: np.ndarray) -> np.ndarray:
    """-i*gamma where eta_i rewrites to -i*gamma*w_{i-1} (i <= d), else 1."""
    return np.where(i <= d, ctx.mul[ctx.neg[i % ctx.p], gamma.idx], 1)


def dr_action(ctx: FieldCtx, d: int, beta: FieldElem, gamma: FieldElem) -> tuple:
    """(S, T) of the de Rham piece on w_0..w_{d-1}, eta_{d+1}..eta_{p^2-1},
    cut from the binomial table with no product: the w-columns are its
    leading columns; column n gives eta_n, its row i moved to position
    i - 1 and scaled by _rewrite_scale.  At d = p^2 it is v_d(p^2)."""
    pp = ctx.p ** 2
    dim = max(d, pp - 1)
    scale = _rewrite_scale(ctx, d, gamma, np.arange(1, pp))[:, None]
    out = []
    for table in binomial_table(ctx, beta):
        A = np.zeros((dim, dim), dtype=np.int64)
        A[:, :d] = table[:dim, :d]
        A[:pp - 1, d:] = ctx.mul[scale, table[1:, d + 1:]]
        out.append(A)
    return tuple(out)


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
def vd_definition(ctx: FieldCtx, beta: FieldElem) -> tuple:
    """Read-only (S, T) of v_d(p^2, beta) entry by entry from its
    definition, never from binomial_table, so the checks of the pieces cut
    from that table can compare with it: column n is sigma.w_n = sum_i
    C(n,i) w_i and tau.w_n = sum_i C(n,i) beta^(n-i) w_i, and the leading
    d x d blocks give v_d(d).  It makes p^4 scalar calls, so it is shared
    per (ctx, beta) like binomial_table."""
    p = ctx.p
    pp = p * p
    S = np.array([[binom_mod_p(n, i, p) for n in range(pp)] for i in range(pp)],
                 dtype=np.int64)
    T = np.array([[ctx.mul[S[i, n], ctx.pow_idx(beta.idx, n - i)] if i <= n else 0
                   for n in range(pp)] for i in range(pp)], dtype=np.int64)
    for X in (S, T):
        X.setflags(write=False)
    return S, T


def vdr_quotient(ctx: FieldCtx, d: int, beta: FieldElem) -> HModule:
    """v_dr(d, beta) as the paper defines it, the quotient, built afresh
    on every call to check v_dr and the de Rham pieces against: the sum
    v_d(p^2) (+) v_d(d) is one module, block-diagonal in leading blocks of
    vd_definition(ctx, beta).  meta["proj"] is the quotient map."""
    p = ctx.p
    pp = p * p
    _require_nonprime(ctx, beta)
    blocks = []
    for X in vd_definition(ctx, beta):
        A = np.zeros((pp + d, pp + d), dtype=np.int64)
        A[:pp, :pp] = X
        A[pp:, pp:] = X[:d, :d]
        blocks.append(Mat(ctx, A))
    D = HModule(ctx, *blocks)
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
    if beta.ctx != ctx:
        raise ContextMismatch("parameter from a different field context")
    if ctx.in_prime_field_idx(beta.idx):
        raise PrimeFieldElement("parameter must lie outside the prime field")


# ---------------------------------------------------------------------------
# Constructions: dual, sums, subs, quotients


@_memo
def dual(M: HModule) -> HModule:
    """Contragredient module: generators act by transpose inverse; kept
    on M."""
    p = M.ctx.p
    Sd = matpow(M.Msigma, p - 1).transpose()
    Td = matpow(M.Mtau, p - 1).transpose()
    labels = tuple(f"{l}*" for l in M.labels) if M.labels else None
    return HModule(M.ctx, Sd, Td, labels=labels,
                   meta={"kind": "dual", "of": M.meta.get("kind")})


def direct_sum(M: HModule, N: HModule) -> HModule:
    if M.ctx != N.ctx:
        raise ContextMismatch("summands over different field contexts")
    ctx = M.ctx
    d = M.dim + N.dim

    def block(A: Mat, B: Mat) -> Mat:
        out = np.zeros((d, d), dtype=np.int64)
        out[: M.dim, : M.dim] = A.data
        out[M.dim :, M.dim :] = B.data
        return Mat(ctx, out)

    if M.labels and N.labels:
        if set(M.labels) & set(N.labels):
            labels = tuple(f"a.{l}" for l in M.labels) + tuple(f"b.{l}" for l in N.labels)
        else:
            labels = M.labels + N.labels
    else:
        labels = None
    return HModule(ctx, block(M.Msigma, N.Msigma), block(M.Mtau, N.Mtau),
                   labels=labels, meta={"kind": "sum"})


def _action_coords(M: HModule, W: Subspace, message: str) -> np.ndarray:
    """Coordinates in W's basis of sigma and tau applied to W's basis:
    (2, dim W, dim W), row j of block g holding g(w_j).  One product for
    all images and one batched membership test; raises NotInvariant with
    message when an image leaves W."""
    if W.ambient != M.dim:
        raise ShapeMismatch("subspace ambient does not match module dimension")
    gens = np.stack([M.Msigma.data.T, M.Mtau.data.T])
    imgs = _matmul_idx(M.ctx, W.basis, gens).reshape(2 * W.dim, M.dim)
    coords, inside = W.reduce_rows(imgs)
    if not inside.all():
        raise NotInvariant(message)
    return coords.reshape(2, W.dim, W.dim)


def sub_module_on(M: HModule, W: Subspace) -> tuple:
    """Module structure induced on an invariant subspace W; returns
    (module, embedding matrix whose columns are the basis of W)."""
    ctx = M.ctx
    coords = _action_coords(M, W, "subspace is not stable under the action")
    E = Mat(ctx, W.basis.T.copy())
    sub = HModule(ctx, Mat(ctx, coords[0].T.copy()), Mat(ctx, coords[1].T.copy()),
                  meta={"kind": "sub"})
    return sub, E


def _rows(M: HModule, vectors) -> np.ndarray:
    """The vectors as the rows of a (k, dim M) index array; ShapeMismatch
    when one of them has another length."""
    rows = [as_vector(M.ctx, v) for v in vectors]
    bad = [r.shape for r in rows if r.shape != (M.dim,)]
    if bad:
        raise ShapeMismatch(f"vector of shape {bad[0]} for a module of dim {M.dim}")
    return np.array(rows, dtype=np.int64).reshape(len(rows), M.dim)


def sub_generated(M: HModule, vectors) -> tuple:
    """Smallest invariant subspace containing the vectors, with induced
    action: the span of every word sigma0^a tau0^b of M.word_stack()
    applied to every vector, from one product and one elimination, since
    the words span the group algebra.  Returns (module, embedding matrix)."""
    ctx = M.ctx
    V = _rows(M, vectors)
    imgs = _matmul_idx(ctx, V, M.word_stack().transpose(0, 2, 1))
    return sub_module_on(M, Subspace.from_rows(ctx, M.dim, np.vstack(imgs)))


def quotient(M: HModule, W: Subspace, reps=None, labels=None) -> tuple:
    """Quotient module by an invariant subspace; returns (module,
    projection matrix).  Optional reps fixes the coset basis; otherwise
    the standard vectors complementary to W's pivots are used.  Optional
    labels name that basis."""
    ctx = M.ctx
    _action_coords(M, W, "quotient by a non-invariant subspace")
    qdim = M.dim - W.dim
    if reps is None:
        pivots = W.pivots.tolist()
        free = [c for c in range(M.dim) if c not in pivots]
        reps_arr = np.zeros((qdim, M.dim), dtype=np.int64)
        for k, f in enumerate(free):
            reps_arr[k, f] = 1
    else:
        reps_arr = _rows(M, reps)
        if len(reps) != qdim:
            raise ShapeMismatch(f"need {qdim} coset representatives, got {len(reps)}")
    # C = [basis of W | reps] as columns must be invertible
    C = Mat(ctx, np.vstack([W.basis, reps_arr]).T.copy())
    Cinv = invert(C)
    if Cinv is None:
        raise ShapeMismatch("representatives do not complement the subspace")
    P = Mat(ctx, Cinv.data[W.dim :, :].copy())  # qdim x ambient projection
    R = Mat(ctx, reps_arr.T.copy())
    Aq = P @ M.Msigma @ R
    Bq = P @ M.Mtau @ R
    assert P @ R == Mat.identity(ctx, qdim)
    Q = HModule(ctx, Aq, Bq, labels=labels, meta={"kind": "quotient"})
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
    return Mat(M.ctx, W).apply(as_vector(M.ctx, v))


@_memo
def fixed_space(M: HModule) -> Subspace:
    """S_0: the joint kernel of sigma0 and tau0, from one elimination of
    the two stacked; T1, the cores and the splits read it without the
    word stack."""
    return kernel(Mat(M.ctx, np.vstack([M.sigma0().data, M.tau0().data])))


@_memo
def _flag(M: HModule) -> tuple:
    """(R, deg): a basis of the row vectors, as the rows of R by
    descending degree deg, whose rows of degree >= n + 1 span the
    annihilator of S_n, the row space of the words of degree n + 1 (and
    so of all words of higher degree).  The word blocks of M.word_stack()
    are walked from degree 2p - 2 down; each, less its zero rows, is
    reduced by the RREF basis B of the blocks before it, and its new pivot
    rows are its rows of R, which B then takes in by back-substitution.
    The degree-0 block is the identity, whose rows reduce to the unit rows
    off the pivots of B: so the flag takes dim M - dim S_0 pivot steps."""
    ctx, p, d = M.ctx, M.ctx.p, M.dim
    W = M.word_stack()
    deg = np.add.outer(np.arange(p), np.arange(p)).ravel()  # of the word at a*p + b
    live = W.reshape(p * p, -1).any(axis=1)
    B, piv, rows, degs = None, [], [], []
    for e in range(int(deg[live].max(initial=0)), 0, -1):
        X = W[live & (deg == e)].reshape(-1, d)
        X = X[X.any(axis=1)]
        if B is not None:
            X = ctx.sub[X, _matmul_idx(ctx, X[:, piv], B)]
        new = _rref_inplace(ctx, X)
        if not new:
            continue
        N = X[: len(new)]
        if B is None:
            B = N
        elif e > 1:  # the identity block reads only the pivots
            B = np.vstack([ctx.sub[B, _matmul_idx(ctx, B[:, new], N)], N])
        piv += new
        rows.append(N)
        degs += [e] * len(new)
    free = np.ones(d, dtype=bool)
    free[piv] = False
    rows.append(np.eye(d, dtype=np.int64)[free])
    degs += [0] * int(free.sum())
    R = np.vstack(rows)
    R.setflags(write=False)
    return R, np.array(degs, dtype=np.int64)


@_memo
def filtration_dims(M: HModule) -> tuple:
    """dim S_n for n = 0, 1, ... up to the first S_n that is the whole
    module: dim M less the number of flag rows of degree >= n + 1, that is
    the number of flag rows of degree <= n."""
    return tuple(np.cumsum(np.bincount(_flag(M)[1], minlength=1)).tolist())


def s_filtration(M: HModule) -> list:
    """Increasing subspaces S_0 <= S_1 <= ... up to the full module, S_n
    the joint kernel of the words sigma0^a tau0^b with a + b = n + 1.  Each
    level is formed on request, as the kernel of the flag rows of degree
    >= n + 1; the decisions read only filtration_dims and ddeg_rows."""
    R, deg = _flag(M)
    return [kernel(Mat(M.ctx, R[deg > n])) for n in range(len(filtration_dims(M)))]


def ddeg_rows(M: HModule, V) -> np.ndarray:
    """Degrees of the rows of V (k x dim): the least n with the row in
    S_n, and -1 for a zero row.  A row lies in S_n exactly when every flag
    row of degree >= n + 1 kills it, so its degree is that of the first
    flag row that does not: one product V R^T.  The flag is built once for
    all rows; ddeg answers for one vector from its orbit, without it."""
    V = np.asarray(V, dtype=np.int64)
    if V.ndim != 2 or V.shape[1] != M.dim:
        raise ShapeMismatch(f"rows of shape {V.shape} for a module of dim {M.dim}")
    R, deg = _flag(M)
    # a last column that every row hits gives the zero rows -1
    hit = np.hstack([_matmul_idx(M.ctx, V, R.T) != 0, np.ones((len(V), 1), dtype=bool)])
    return np.append(deg, -1)[hit.argmax(axis=1)]


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
    X = as_vector(ctx, v)
    if X.shape != (M.dim,):
        raise ShapeMismatch(f"vector of shape {X.shape} for a module of dim {M.dim}")
    X = X[:, None]
    while X.shape[1] < p and X[:, -1].any():
        last = X[:, -1:]
        X = np.hstack([X, ctx.sub[_matmul_idx(ctx, M.Mtau.data, last), last]])
    best = -1
    for a in range(p):
        if a:
            X = ctx.sub[_matmul_idx(ctx, M.Msigma.data, X), X]
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


def ddeg_prime(M: HModule, v) -> int:
    """Combinatorial degree of one vector of a v_dr module: the max of
    label_degrees over its nonzero entries, -1 for the zero vector."""
    if M.meta.get("kind") != "vdr":
        raise UnlabeledModule("operation needs a module built by v_dr")
    vec = _rows(M, [v])[0]
    return int(np.where(vec != 0, label_degrees(M), -1).max())


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
    imgs = np.vstack([M.sigma0().data.T, M.tau0().data.T])
    pivots = Subspace.from_rows(ctx, M.dim, imgs).pivots.tolist()
    gens = [c for c in range(M.dim) if c not in pivots]
    t = len(gens)
    # column i*p^2 + w: word w applied to generator i
    E = M.word_stack()[:, :, gens].transpose(1, 2, 0).reshape(M.dim, t * p * p)
    rel = kernel(Mat(ctx, E))
    # the columns of E that are not kernel pivots are independent and span
    # the column space of E, so they give an invertible evaluation submatrix
    outside = np.ones(E.shape[1], dtype=bool)
    outside[rel.pivots] = False
    piv = np.nonzero(outside)[0]
    # sigma0 and tau0 shift the word index (a, b) of a relation to (a + 1, b)
    # and (a, b + 1); the relations at rel's pivots outside those of
    # sigma0*rel + tau0*rel span rel modulo it, so they generate rel as a
    # module, and over the commutative group algebra their conditions on a
    # map imply those of every relation
    R = rel.basis.reshape(rel.dim, t, p, p)
    shifted = np.zeros((2,) + R.shape, dtype=np.int64)
    shifted[0, :, :, 1:, :] = R[:, :, :-1, :]
    shifted[1, :, :, :, 1:] = R[:, :, :, :-1]
    J = Subspace.from_rows(ctx, rel.ambient, shifted.reshape(2 * rel.dim, rel.ambient))
    relgens = rel.basis[~np.isin(rel.pivots, J.pivots)]
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
    its (M, M) value, which end_dim reads and hom_space(M, M) reuses; the
    dims of two modules come from _hom_dims, with no kernel."""
    if M.ctx != N.ctx:
        raise ContextMismatch("modules over different field contexts")
    if M.dim == 0 or N.dim == 0:
        return Subspace.zero(M.ctx, 0)
    return kernel(Mat(M.ctx, _hom_conditions(M, N)))


@_memo
def _hom_dims(M: HModule, N: HModule) -> tuple:
    """(dim Hom(M, N), dim Hom(N, M)), kept on M per N and, reversed, on N
    per M: the ranks of both condition matrices, zero-padded to one shape,
    from one stacked rank.  Padding adds zero rows and columns, which
    change no rank, and each dim is the column count of its own matrix
    less its rank."""
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
    return dims


def hom_dim(M: HModule, N: HModule) -> int:
    """dim Hom(M, N), from the stacked rank of _hom_dims, which gives
    dim Hom(N, M) with it and keeps both: no kernel is formed and no map
    is built."""
    return _hom_dims(M, N)[0]


def hom_space(M: HModule, N: HModule) -> Subspace:
    """Canonical basis of the space of module maps M -> N, as row-major
    vectorized dim(N) x dim(M) matrices, rebuilt from the relation solve
    _hom_solve(M, N), kept on M per N; hom_space(M, M) reuses the End
    solve of end_dim.

    Solved through a generator/relation presentation of M: a map is a
    choice of images for the generators annihilating the relations that
    generate the relation module.  The rank of those conditions alone
    gives the dimension (hom_dim); rebuilding the maps from the generator
    images costs up to about three times the relation solve
    (End(v_dr(5, 19)): 2.9 ms against 1.1 ms), so the package builds maps
    only for the isomorphism witness search and for End bases
    (end_algebra, read by indecomposability tiers T2/T3).
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


def end_dim(M: HModule) -> int:
    """dim End(M) from the cached relation solve; no map is built."""
    return _hom_solve(M, M).dim


def end_algebra(M: HModule) -> tuple:
    """(hom_space(M, M), the same basis reshaped to matrices: read-only
    views of its rows).  The maps are rebuilt from the End solve that
    end_dim caches, so End(M) is eliminated once per module; only
    _end_split, memoized itself, needs this basis."""
    H = hom_space(M, M)
    return H, [Mat(M.ctx, row.reshape(M.dim, M.dim)) for row in H.basis]


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
    if invert(X) is None:
        return False
    return (X @ M.Msigma == N.Msigma @ X) and (X @ M.Mtau == N.Mtau @ X)


def is_isomorphic(M: HModule, N: HModule) -> IsoDecision:
    """Decision procedure.  The checks run cheapest first:

    1. dimension: NO, "dim-mismatch";
    2. equal matrices: YES, "equal-matrices";
    3. the invariants of ISO_INVARIANTS, in its order: filtration dims,
       End dim.  Each is computed for both modules before the next one
       runs, and the first that differs decides NO, "profile-mismatch".
       The fixed-space dim of profile() is not compared, because it is
       the first filtration dim; nor is the Jordan multiset: steps 4 and
       5 decide every pair without it, and the scan costs more than
       either invariant;
    4. the dims of Hom(M, N), Hom(N, M) and both End algebras: NO,
       "hom-dim-mismatch" unless all four agree and are nonzero.  The two
       Hom dims come from one stacked rank of both condition matrices
       (_hom_dims, kept on both modules), the End dims from the End
       solves step 3 cached (end_dim); no kernel of Hom(M, N) is formed
       here;
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
    if M.Msigma == N.Msigma and M.Mtau == N.Mtau:
        return IsoDecision("YES", "equal-matrices", witness=Mat.identity(ctx, M.dim))
    for _, inv in ISO_INVARIANTS:
        if inv(M) != inv(N):
            return IsoDecision("NO", "profile-mismatch")
    h, h_back = _hom_dims(M, N)
    e, e2 = end_dim(M), end_dim(N)
    if not (h == h_back == e == e2):
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
    parts, left = _summands(M), _summands(N)
    detail = {"summand_dims": [[S.dim for S, _ in parts], [T.dim for T, _ in left]]}
    src, dst, blocks = [], [], []
    for S, E in parts:
        for j, (T, F) in enumerate(left):
            dec = is_isomorphic(S, T)
            if dec.isomorphic:
                src.append(E)
                dst.append(F)
                blocks.append(dec.witness.data)
                del left[j]
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


def algebra_radical(ctx: FieldCtx, mats: Sequence[Mat]) -> Subspace:
    """Jacobson radical of the matrix algebra spanned by mats (assumed
    multiplicatively closed), in basis coordinates (Cohen-Ivanyos-Wales):
    repeatedly cut by the vanishing of the p^i-th characteristic
    coefficient of products z*y, made linear with p^i-th roots.  Level 0
    is the trace form c_1(z*y) = -tr(z*y), one product; each later level
    takes the coefficient of all products from stacked charpolys.
    _end_split passes the socle image of End(M), s x s with s <= 2 on the
    families; RADICAL_CHUNK stays for the full End algebras (dim 28) that
    the test references and perfbench/micro.py still pass."""
    g = len(mats)
    n = mats[0].rows if g else 0
    flat = np.array([X.data.reshape(-1) for X in mats], dtype=np.int64).reshape(g, n * n)
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
    None), cached on M.  E' is the image of the restriction End(M) ->
    End(soc M), soc M = fixed_space(M), of dim s; its kernel is nil (x in
    it is bijective on L = im x^dim M and kills soc L, so L = 0), so J is
    the preimage of J(E'), End/J = E'/J(E') and the radical runs on s x s
    matrices.  When e = dim End/J > 1 the projective points of the span of
    the e End basis elements off J's pivots are scanned; that span maps
    onto End/J, so every element of End/J is hit up to a scalar.  A
    semisimple algebra that is not a division algebra has an idempotent
    other than 0 and 1, whose lift is neither nilpotent nor invertible; so
    the scan finds a split exactly when End/J is not a division algebra."""
    ctx = M.ctx
    Hend, _ = end_algebra(M)
    soc = fixed_space(M)
    g, n, s = Hend.dim, M.dim, soc.dim
    # row (x, j) is x(v_j) for socle basis vector v_j, whose
    # coordinates are column j of x on soc M
    Y = _matmul_idx(ctx, Hend.basis.reshape(g, n, n), soc.basis.T).transpose(0, 2, 1)
    R = soc.reduce_rows(Y.reshape(g * s, n))[0].reshape(g, s, s).transpose(0, 2, 1)
    image = Subspace.from_rows(ctx, s * s, R.reshape(g, s * s))
    rad = algebra_radical(ctx, [Mat(ctx, row.reshape(s, s)) for row in image.basis])
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


TIERS = ("T1", "T2", "T3")


def is_indecomposable(M: HModule, tiers: tuple = TIERS) -> IndecDecision:
    """(T1) a one-dimensional fixed space: INDECOMPOSABLE.  Otherwise
    the radical J of End(M), from that of its socle image E', and the
    split scan of End/J (_end_split), whose dims (with socle_dim, dim E'
    and dim J(E')) are the T3 detail:
    (T2) a point that splits: DECOMPOSABLE, with the Fitting split as
    kernel and image rows; (T3) End/J one-dimensional: INDECOMPOSABLE;
    (T3-division) no point splits, so End/J is a division algebra and
    End(M) is local: INDECOMPOSABLE.  tiers restricts the certificates
    that may be returned, e.g. ("T3",) skips T1; T2 and T3 share the one
    End/J computation, and T2 alone can only answer DECOMPOSABLE."""
    if M.dim < 1:
        raise BadDimension("decision needs a module of dimension >= 1")
    unknown = [t for t in tiers if t not in TIERS]
    if unknown or not tiers:
        raise BadParams(f"unknown tier(s) {unknown}; valid tiers are {list(TIERS)}")
    if "T1" in tiers and fixed_space(M).dim == 1:
        return IndecDecision("INDECOMPOSABLE", "T1", detail={"fixed_dim": 1})
    if "T2" in tiers or "T3" in tiers:
        dims, split = _end_split(M)
        if split is not None:
            ker, im = split
            # both bases as rows of element texts, as module_to_json
            # writes matrices, so a caller can check the split
            return IndecDecision("DECOMPOSABLE", "T2",
                                 detail={"split_dims": [ker.dim, im.dim],
                                         "kernel": Mat(M.ctx, ker.basis).to_lists(),
                                         "image": Mat(M.ctx, im.basis).to_lists()})
        if "T3" in tiers:
            if dims["semisimple_dim"] == 1:
                return IndecDecision("INDECOMPOSABLE", "T3", detail=dict(dims))
            return IndecDecision("INDECOMPOSABLE", "T3-division",
                                 detail=dict(dims, simple_factors=1))
    raise Undecided("restricted tiers reached no decision")


# ---------------------------------------------------------------------------
# Jordan types


def jordan_type_at(M: HModule, a, b) -> tuple:
    """Partition of the nilpotent pencil member a*sigma0 + b*tau0, read
    from jordan_scan at its projective point: (1, b/a), or (0, 1) when
    a = 0.  A nonzero multiple of a nilpotent matrix has the same Jordan
    type.  a and b are integers (read mod p) or elements of M's field."""
    ctx = M.ctx
    ai, bi = ctx.el(a).idx, ctx.el(b).idx
    if ai == 0 and bi == 0:
        raise ZeroPoint("pencil point (0, 0) is excluded")
    return jordan_scan(M)[int(ctx.mul[bi, ctx.inv[ai]]) if ai else ctx.q][1]


@_memo
def jordan_scan(M: HModule) -> list:
    """Jordan types at all q + 1 points of P^1(F_q): (1, b) for every b in
    F_q, then (0, 1), each point a pair of encoded field indices.  The
    q + 1 pencil matrices are stacked and their partitions computed
    together.  sigma0 and tau0 commute, so in characteristic p every
    pencil member N has N^p = a^p sigma0^p + b^p tau0^p = 0, and the rank
    chain stops at N^(p-1)."""
    ctx = M.ctx
    pts = [(1, b) for b in range(ctx.q)] + [(0, 1)]
    a, b = np.array(pts, dtype=np.int64).T[:, :, None, None]
    stack = ctx.add[ctx.mul[a, M.sigma0().data], ctx.mul[b, M.tau0().data]]
    return list(zip(pts, nilpotent_partitions(ctx, stack)))


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


def _case_ii_word(M: HModule, u) -> np.ndarray:
    """The word image w = sigma0^(p-2) tau0^(p-2) u of a nonzero u."""
    vec = as_vector(M.ctx, u)
    if not vec.any():
        raise ZeroVector("core of the zero vector")
    return apply_word(M, (M.ctx.p - 2, M.ctx.p - 2), vec)


def case_ii_core(M: HModule, u) -> HModule:
    """The core: the submodule generated by the word image w of u."""
    return sub_generated(M, [_case_ii_word(M, u)])[0]


def case_ii_core_with_fixed(M: HModule, u) -> HModule:
    """The submodule generated by the word image w of u together with
    S_0, whose vectors generate only themselves; the core is not built."""
    return sub_generated(M, np.vstack([_case_ii_word(M, u), fixed_space(M).basis]))[0]


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


# The invariants that step 3 of is_isomorphic compares, cheapest first,
# stopping at the first that differs.  End goes last because the
# presentation it caches is reused by the Hom dims of step 4.  The lambdas
# look up the functions by their global names at each call, so a wrapper
# installed on the module sees them.
ISO_INVARIANTS = (
    ("filtration_dims", lambda M: filtration_dims(M)),
    ("end_dim", lambda M: end_dim(M)),
)

# The invariants of a Profile after dim: those of the decision, and two
# that are reported but decide nothing.  The fixed space is S_0 of the
# filtration, so its dim is the first filtration dim, read from the flag;
# the Jordan multiset over P^1(F_q) is left to steps 4 and 5.
PROFILE_INVARIANTS = ISO_INVARIANTS + (
    ("fixed_dim", lambda M: filtration_dims(M)[0]),
    ("jordan_multiset", lambda M: tuple(sorted(t for _, t in jordan_scan(M)))),
)


def profile(M: HModule) -> Profile:
    """Isomorphism-invariant fingerprint; equality is necessary (not
    sufficient) for isomorphism."""
    return Profile(dim=M.dim, **{name: inv(M) for name, inv in PROFILE_INVARIANTS})


# ---------------------------------------------------------------------------
# JSON


def module_to_json(M: HModule) -> dict:
    return {
        "p": M.ctx.p,
        "n": M.ctx.n,
        "modulus": list(M.ctx.modulus),
        "dim": M.dim,
        "sigma": M.Msigma.to_lists(),
        "tau": M.Mtau.to_lists(),
        "labels": list(M.labels) if M.labels else None,
    }


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(map(isinstance, x, itertools.repeat(str)))


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
    # each distinct text is parsed once, in the order of the entries, so
    # the first bad entry is still the one reported
    texts = dict.fromkeys(itertools.chain.from_iterable(obj["sigma"] + obj["tau"]))
    idx = {v: ctx.from_text(v).idx for v in texts}

    def grid(rows) -> Mat:
        data = np.fromiter(map(idx.__getitem__, itertools.chain.from_iterable(rows)),
                           dtype=np.int64, count=d * d)
        return Mat(ctx, data.reshape(d, d))

    return HModule(ctx, grid(obj["sigma"]), grid(obj["tau"]),
                   labels=labels)
