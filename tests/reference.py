"""Reference implementations the tests compare the package against.

Each helper answers a question the package answers another way, from the
definition and without the package's batching: the filtration from joint
kernels of words, Hom spaces from Kronecker products, membership by
reduction, sums, intersections and preimages by kernels, generated
submodules by closure under the generators, v_dr classes through the
paper's quotient, polynomial values by Horner's rule, a graded family's
JSON with every piece encoded in place, Jordan partitions from one rank
per power, the dominance order by prefix sums, the trace identities by
raising each linear form to the power p^2 - 1, and matrix powers one
factor at a time.  conjugate and conjugate_by write a module in another
basis, so a test cannot read the answer off coordinate vectors.
presented_modules names the modules on which the presentation and the
End of a cyclic or cocyclic module are compared with the general path.
record is the one call recorder of the work-count tests.
"""

import random
import sys
from typing import Optional, Sequence

import numpy as np

from repcurve import kmod as km
from repcurve.errors import (ContextMismatch, OutOfRange, RepcurveError, ShapeMismatch,
                             UnlabeledModule)
from repcurve.ff import FieldCtx, FieldElem, default_ctx
from repcurve.linalg import Mat, Subspace, _matmul_idx, field_rows, invert, kernel, rank
from repcurve.poly import Poly1, Poly2


# the code of every wrapper km._memo makes
_MEMO_CODE = km._memo(lambda owner: owner).__code__


def record(monkeypatch, fn, measure=None) -> list:
    """Record each call of fn made through any repcurve module: fn is
    rebound, by identity as perfbench/tracer.py does, at every attribute
    of a loaded repcurve.* module that is fn, and on every class there
    whose method, classmethod or staticmethod it is.  Each call appends
    its args to the returned list, in the order the calls start, and a
    call that returns puts measure(args, result) in their place when
    measure is given.  A km._memo function is rewrapped around
    its __wrapped__ under km._memo with the same name, so the list holds
    its computed values only and each kept value still hits.  fn is the
    current binding, so a second recorder on one function counts as well
    as the first; monkeypatch.undo() puts every original back."""
    target = getattr(fn, "__func__", fn)
    inner = fn.__wrapped__ if getattr(fn, "__code__", None) is _MEMO_CODE else target
    out = []

    def recorded(*args, **kwargs):
        at = len(out)
        out.append(args)
        result = inner(*args, **kwargs)
        if measure is not None:
            out[at] = measure(args, result)
        return result

    recorded.__name__ = fn.__name__
    wrapper = km._memo(recorded) if inner is not target else recorded
    bound = 0
    for name, mod in list(sys.modules.items()):
        if name != "repcurve" and not name.startswith("repcurve."):
            continue
        for key, val in list(vars(mod).items()):
            if val is fn:
                monkeypatch.setattr(mod, key, wrapper)
                bound += 1
            elif isinstance(val, type) and val.__module__ == name:
                for attr, entry in list(vars(val).items()):
                    kind = type(entry) if isinstance(entry, (classmethod, staticmethod)) else None
                    if (entry.__func__ if kind else entry) is target:
                        monkeypatch.setattr(val, attr, kind(wrapper) if kind else wrapper)
                        bound += 1
    if not bound:
        raise LookupError(f"{fn!r} is bound in no repcurve module")
    return out


class NotNilpotent(RepcurveError):
    """nilpotent_partition was given a matrix with N^d != 0."""


def _check_ambient(U: Subspace, W: Subspace) -> None:
    if U.ctx != W.ctx:
        raise ContextMismatch("subspaces over different field contexts")
    if U.ambient != W.ambient:
        raise ShapeMismatch(f"ambient {U.ambient} vs {W.ambient}")


def subspace_sum(U: Subspace, W: Subspace) -> Subspace:
    _check_ambient(U, W)
    return Subspace.from_rows(U.ctx, U.ambient, np.vstack([U.basis, W.basis]))


def subspace_intersect(U: Subspace, W: Subspace) -> Subspace:
    """Zassenhaus-free intersection: solve a*Bu = b*Bw via a joint kernel."""
    _check_ambient(U, W)
    ctx = U.ctx
    if U.dim == 0 or W.dim == 0:
        return Subspace.zero(ctx, U.ambient)
    stacked = np.hstack([U.basis.T, ctx.neg[W.basis.T]])
    K = kernel(Mat(ctx, stacked))
    if K.dim == 0:
        return Subspace.zero(ctx, U.ambient)
    coefsU = K.basis[:, : U.dim]
    vecs = _matmul_idx(ctx, coefsU, U.basis)
    return Subspace.from_rows(ctx, U.ambient, vecs)


def preimage(A: Mat, W: Subspace) -> Subspace:
    """{x : A x in W}."""
    if A.rows != W.ambient:
        raise ShapeMismatch("map target does not match subspace ambient")
    ctx = A.ctx
    if W.dim == W.ambient:
        return Subspace.full(ctx, A.cols)
    ann = kernel(Mat(ctx, W.basis)) if W.dim else Subspace.full(ctx, W.ambient)
    D = ann.basis  # rows y with y . w = 0 for every w in W
    DA = _matmul_idx(ctx, D, A.data)
    return kernel(Mat(ctx, DA))


def word_matrix(M: km.HModule, a: int, b: int) -> Mat:
    """Matrix of sigma0^a tau0^b (a, b >= 0); the zero matrix once a or
    b >= p."""
    p = M.ctx.p
    if a >= p or b >= p:
        return Mat(M.ctx, np.zeros((M.dim, M.dim), dtype=np.int64))
    return Mat(M.ctx, M.word_stack()[a * p + b])


def s_filtration_direct(M: km.HModule) -> list:
    """The filtration from its definition: S_n is the joint kernel of all
    products sigma0^i tau0^j with i + j = n + 1."""
    fil = []
    n = 0
    while True:
        space = Subspace.full(M.ctx, M.dim)
        for i in range(n + 2):
            space = subspace_intersect(space, kernel(word_matrix(M, i, n + 1 - i)))
        fil.append(space)
        if space.dim == M.dim:
            return fil
        n += 1


def sub_generated_closure(M: km.HModule, vectors) -> Subspace:
    """The submodule the vectors generate, as a closure: add the images of
    the span under sigma and tau until its dimension stops growing."""
    ctx = M.ctx
    W = Subspace.from_rows(ctx, M.dim, field_rows(ctx, vectors, M.dim))
    while W.dim:
        imgs_s = _matmul_idx(ctx, M.Msigma.data, W.basis.T).T
        imgs_t = _matmul_idx(ctx, M.Mtau.data, W.basis.T).T
        W2 = Subspace.from_rows(ctx, M.dim, np.vstack([W.basis, imgs_s, imgs_t]))
        if W2.dim == W.dim:
            break
        W = W2
    return W


def _vdr_class(M: km.HModule, column: int) -> np.ndarray:
    if "proj" not in M.meta:
        raise UnlabeledModule("needs the quotient model km.vdr_quotient")
    return M.meta["proj"][:, column].copy()


def vdr_eta(M: km.HModule, i: int) -> np.ndarray:
    """Class in the quotient model km.vdr_quotient of the first-block
    basis vector w_i, for any 0 <= i < p^2, read through the quotient map."""
    pp = M.ctx.p ** 2
    if not (0 <= i < pp):
        raise OutOfRange(f"eta index {i} outside 0..{pp - 1}")
    return _vdr_class(M, i)


def vdr_omega(M: km.HModule, j: int) -> np.ndarray:
    """Class in the quotient model of the second-block basis vector w_j."""
    d = M.meta["d"]
    if not (0 <= j < d):
        raise OutOfRange(f"omega index {j} outside 0..{d - 1}")
    return _vdr_class(M, M.ctx.p ** 2 + j)


def vdr_label_matrix(ctx, d: int, gamma: FieldElem) -> Mat:
    """The monomial map of km.vdr_label_map as a matrix: it intertwines
    v_dr(d, beta) with the de Rham piece over (beta, gamma)."""
    _, pos, scale = km.vdr_label_map(ctx, d, gamma)
    F = np.zeros((pos.size, pos.size), dtype=np.int64)
    F[pos, np.arange(pos.size)] = scale
    return Mat(ctx, F)


def field_kron(X: Mat, Y: Mat) -> Mat:
    """Kronecker product over the field."""
    prod = X.ctx.mul[X.data[:, None, :, None], Y.data[None, :, None, :]]
    return Mat(X.ctx, prod.reshape(X.rows * Y.rows, X.cols * Y.cols))


def intertwiner_space(As: Sequence[Mat], Bs: Sequence[Mat]) -> Subspace:
    """Canonical basis of {X : X A_k = B_k X for all k}, as row-major
    vectorizations of the b x a matrices X: the kernel of the stacked
    conditions (I_b kron A_k^T - B_k kron I_a) vec(X) = 0."""
    ctx, a, b = As[0].ctx, As[0].rows, Bs[0].rows
    if a * b == 0:
        return Subspace.zero(ctx, 0)
    Ia, Ib = Mat.identity(ctx, a), Mat.identity(ctx, b)
    C = np.vstack([ctx.sub[field_kron(Ib, Mat(ctx, A.data.T)).data, field_kron(B, Ia).data]
                   for A, B in zip(As, Bs)])
    return kernel(Mat(ctx, C))


def hom_maps_one_product(M: km.HModule, N: km.HModule) -> Subspace:
    """Hom(M, N) rebuilt from the relation solve by applying every word of
    N to every generator image in one product, then reading the columns at
    the pivots of the presentation and multiplying by its pivot inverse as
    one (S dim N) x dim M product."""
    ctx = M.ctx
    sol = km._hom_solve(M, N)
    amb = M.dim * N.dim
    if sol.dim == 0:
        return Subspace.zero(ctx, amb)
    src = km._hom_source_data(M)
    t, piv = src["t"], src["piv"]
    nw, dN, S = ctx.p ** 2, N.dim, sol.dim
    X = sol.basis.reshape(S * t, dN).T
    Y = _matmul_idx(ctx, N.word_stack().reshape(nw * dN, dN), X).reshape(nw, dN, S, t)
    VP = Y[piv % nw, :, :, piv // nw].transpose(2, 1, 0)
    Phi = _matmul_idx(ctx, VP.reshape(S * dN, M.dim), km._hom_pivot_inverse(M).data)
    return Subspace.from_rows(ctx, amb, Phi.reshape(S, amb))


def contains(S: Subspace, v: np.ndarray) -> bool:
    return S.reduce(v) is not None


def contains_space(S: Subspace, T: Subspace) -> bool:
    return bool(S.reduce_rows(T.basis)[1].all())


def poly1_eval(f, x: FieldElem) -> FieldElem:
    """Value of a Poly1 at x in the coefficient field."""
    if x.ctx != f.ctx:
        raise ContextMismatch("evaluation point in another field")
    acc = 0
    for c in reversed(f.coeffs):
        acc = int(f.ctx.add[f.ctx.mul[acc, x.idx], c])
    return FieldElem(f.ctx, acc)


def poly2_eval(f, x0: FieldElem, y0: FieldElem) -> FieldElem:
    """Value of a Poly2 at a point of its prime field."""
    ctx = f.ctx
    acc = 0
    for row in f.grid[::-1]:
        inner = 0
        for c in row[::-1].tolist():
            inner = int(ctx.add[ctx.mul[inner, y0.idx], c])
        acc = int(ctx.add[ctx.mul[acc, x0.idx], inner])
    return FieldElem(ctx, acc)


def poly2_deg_x(f) -> int:
    return f.grid.shape[0] - 1


def conjugate_by(M: km.HModule, P: Mat) -> Optional[km.HModule]:
    """M written in the basis P, P sigma P^-1 and P tau P^-1 through the
    checked public constructor, or None when P is singular."""
    Pinv = invert(P)
    if Pinv is None:
        return None
    return km.HModule(M.ctx, P @ M.Msigma @ Pinv, P @ M.Mtau @ Pinv)


def conjugate(M: km.HModule, rng: random.Random) -> km.HModule:
    """M written in a random basis of F_q^dim, one rng.randrange(q) per
    entry, drawn again until it is invertible."""
    ctx = M.ctx
    while True:
        N = conjugate_by(M, Mat(ctx, np.array([[rng.randrange(ctx.q) for _ in range(M.dim)]
                                               for _ in range(M.dim)], dtype=np.int64)))
        if N is not None:
            return N


def trace_polynomial_by_powers(p: int, ctx: FieldCtx) -> Poly2:
    """Sum over all (i, j) in F_p x F_p of (x + i + j*y)^(p^2 - 1), each
    linear form raised by square-and-multiply."""
    e = p * p - 1
    total = Poly2.zero(ctx)
    for i in range(p):
        for j in range(p):
            # linear form x + i + j*y
            g = np.zeros((2, 2), dtype=np.int64)
            g[1, 0] = 1
            g[0, 0] = i
            g[0, 1] = j
            total = total + Poly2(ctx, g) ** e
    return total


def shifted_power_sum_by_powers(ctx: FieldCtx, values) -> Poly1:
    """Sum of (Z + c)^(p^2 - 1) over the listed field indices c, each
    linear form raised by square-and-multiply."""
    total = Poly1(ctx, ())
    for c in values:
        total = total + Poly1(ctx, (FieldElem(ctx, int(c)), 1)) ** (ctx.p * ctx.p - 1)
    return total


def trace_sum_by_powers(b: FieldElem) -> Poly1:
    """Sum over all prime-field pairs (i, j) of (Z + i + j*b)^(p^2 - 1),
    each linear form raised by square-and-multiply."""
    ctx = b.ctx
    p = ctx.p
    return shifted_power_sum_by_powers(
        ctx, [ctx.add[i, ctx.mul[j, b.idx]] for i in range(p) for j in range(p)])


def graded_to_json(gm) -> dict:
    """A graded family as one JSON object, each piece converted where it
    sits; `build holo|dr` writes json.dumps(sort_keys=True, indent=2) of
    this plus a newline."""
    return {
        "kind": gm.kind,
        "p": gm.params.p,
        "m": gm.params.m,
        "alpha": gm.params.alpha.text(),
        "beta": gm.params.beta.text(),
        "pieces": {str(c): km.module_to_json(mod) for c, mod in gm.pieces.items()},
    }


def matpow(A: Mat, e: int) -> Mat:
    """A^e for e >= 0 from its definition: e products from the identity,
    one factor at a time."""
    out = Mat.identity(A.ctx, A.rows)
    for _ in range(e):
        out = out @ A
    return out


def nilpotent_partition(N: Mat) -> tuple:
    """Jordan partition of a nilpotent matrix from its rank chain, one
    matpow and one rank per power: j occurs (r_(j-1) - r_j) - (r_j -
    r_(j+1)) times, r_j = rank N^j.  Raises NotNilpotent when N^d != 0."""
    d = N.rows
    chain = [d]
    while chain[-1] and len(chain) <= d:
        chain.append(rank(matpow(N, len(chain))))
    if chain[-1]:
        raise NotNilpotent(f"matrix is not nilpotent (rank chain {chain})")
    sizes = []
    for j in range(1, len(chain)):
        longer = (chain[j] - chain[j + 1]) if j + 1 < len(chain) else 0
        sizes += [j] * ((chain[j - 1] - chain[j]) - longer)
    return tuple(sorted(sizes, reverse=True))


def dominance_compare(lam: tuple, mu: tuple) -> Optional[int]:
    """1 if lam strictly dominates mu, -1 if mu dominates lam, 0 if equal,
    None if incomparable (prefix-sum order; both must partition the same
    total)."""
    if sum(lam) != sum(mu):
        raise ShapeMismatch("partitions of different totals")
    if lam == mu:
        return 0
    L = max(len(lam), len(mu))
    ge = le = True
    sa = sb = 0
    for k in range(L):
        sa += lam[k] if k < len(lam) else 0
        sb += mu[k] if k < len(mu) else 0
        if sa < sb:
            ge = False
        if sa > sb:
            le = False
    if ge:
        return 1
    if le:
        return -1
    return None


def presented_modules() -> dict:
    """name -> builder of v_d and v_dr at p = 3, 5 and 7, each also
    dualized, the regular module, the augmentation ideal, direct sums and
    modules in a random basis (conjugate, seeded by their name).  Each
    builder makes its module when called, so a test starts from a module
    with nothing cached on it.  They cover cyclic and cocyclic modules with
    a socle or top of dim 2, modules with both of dim 2, and relation
    counts above the minimal one."""
    out = {}
    for p, vd, vdr in ((3, range(1, 10), range(0, 10)), (5, (4, 6, 12, 19), (1, 12, 24)),
                       (7, (8, 20), (1, 9))):
        ctx = default_ctx(p)
        t = ctx.gen()
        for kind, build, ds in (("vd", km.v_d, vd), ("vdr", km.v_dr, vdr)):
            for d in ds:
                out[f"p{p}/{kind}{d}"] = lambda b=build, c=ctx, d=d, t=t: b(c, d, t)
                out[f"p{p}/dual-{kind}{d}"] = lambda b=build, c=ctx, d=d, t=t: km.dual(b(c, d, t))
        if p < 7:
            out[f"p{p}/regular"] = lambda c=ctx: km.regular_module(c)
            out[f"p{p}/aug"] = lambda c=ctx: km.augmentation_ideal(c)
            out[f"p{p}/dual-aug"] = lambda c=ctx: km.dual(km.augmentation_ideal(c))
    C3, C5 = default_ctx(3), default_ctx(5)
    T3, T5 = C3.gen(), C5.gen()
    out.update({
        "p3/vd3+vd3": lambda: km.direct_sum(km.v_d(C3, 3, T3), km.v_d(C3, 3, T3)),
        "p3/vd2+dual-vdr1": lambda: km.direct_sum(km.v_d(C3, 2, T3), km.dual(km.v_dr(C3, 1, T3))),
        "p3/vd4+trivial": lambda: km.direct_sum(km.v_d(C3, 4, T3), km.trivial_module(C3)),
        "p5/vd4+vd6": lambda: km.direct_sum(km.v_d(C5, 4, T5), km.v_d(C5, 6, T5)),
    })
    for name in ("p3/vd5", "p3/vdr1", "p3/vdr4", "p3/vdr8", "p3/dual-aug", "p5/vd12"):
        out[name.replace("/", "/conj-")] = (
            lambda build=out[name], name=name: conjugate(build(), random.Random(name)))
    return out
