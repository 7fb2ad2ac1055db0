"""Reference implementations the tests compare the package against.

Each helper answers a question the package answers another way, from the
definition and without the package's batching: the filtration from joint
kernels of words, Hom spaces from Kronecker products, membership by
reduction, polynomial values by Horner's rule, a graded family's JSON
with every piece encoded in place.
"""

from typing import Sequence

import numpy as np

from repcurve import kmod as km
from repcurve.errors import ContextMismatch, OutOfRange
from repcurve.ff import FieldElem
from repcurve.linalg import Mat, Subspace, kernel, subspace_intersect


def word_matrix(M: km.HModule, a: int, b: int) -> Mat:
    """Matrix of sigma0^a tau0^b (a, b >= 0); the zero matrix once a or
    b >= p."""
    p = M.ctx.p
    if a >= p or b >= p:
        return Mat.zeros(M.ctx, M.dim, M.dim)
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


def _vdr_class(M: km.HModule, column: int) -> np.ndarray:
    e = np.zeros(M.meta["proj"].shape[1], dtype=np.int64)
    e[column] = 1
    return Mat(M.ctx, M.meta["proj"]).apply(e)


def vdr_eta(M: km.HModule, i: int) -> np.ndarray:
    """Class in a v_dr module of the first-block basis vector w_i, for any
    0 <= i < p^2, read through the quotient map."""
    km._require_vdr(M)
    pp = M.meta["blocks"][0]
    if not (0 <= i < pp):
        raise OutOfRange(f"eta index {i} outside 0..{pp - 1}")
    return _vdr_class(M, i)


def vdr_omega(M: km.HModule, j: int) -> np.ndarray:
    """Class in a v_dr module of the second-block basis vector w_j."""
    km._require_vdr(M)
    pp, d = M.meta["blocks"]
    if not (0 <= j < d):
        raise OutOfRange(f"omega index {j} outside 0..{d - 1}")
    return _vdr_class(M, pp + j)


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
    C = np.vstack([(field_kron(Ib, A.transpose()) - field_kron(B, Ia)).data
                   for A, B in zip(As, Bs)])
    return kernel(Mat(ctx, C))


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
