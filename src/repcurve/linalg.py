"""Exact dense linear algebra over a FieldCtx.

Matrices store encoded element indices in 2-D numpy integer arrays of
any width; all row operations go through the context's lookup tables, so
elimination is vectorized while staying exact.  Every elimination takes
its working copy in int64, where the table offsets f*q + b are formed, so
a narrow (uint8 or uint16) array reads like its int64 original.
Subspaces are always kept in reduced row echelon form (fixed pivot rule:
first nonzero entry, scanning top to bottom then left to right), which
makes equality bit-exact.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ContextMismatch, OutOfRange, ShapeMismatch
from .ff import CTX_CACHE, FieldCtx


def field_rows(ctx: FieldCtx, rows, width: Optional[int] = None) -> np.ndarray:
    """The caller's rows as a fresh (k, width) int64 array of encoded
    indices; width is that of the first row when not given.  A row given
    as an integer numpy array (or all of them, as one 2-D one) is taken as
    encoded and must lie in 0..q - 1, else OutOfRange; any other row is
    read entry by entry through ctx.el.  A row of another width, or a
    scalar where a row or the rows belong, raises ShapeMismatch.  Every
    caller entrance of linalg and kmod reads its field data through here;
    Mat(ctx, data) wraps the package's own."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "iu":
        out = rows.astype(np.int64)
        if width is not None and out.shape[1] != width:
            raise ShapeMismatch(f"rows of shape {out.shape} where length {width} is needed")
    else:
        if not np.iterable(rows):
            raise ShapeMismatch(f"rows expected, not {type(rows).__name__}")
        out = [r if np.isscalar(r) or isinstance(r, np.ndarray) and r.dtype.kind in "iu"
               else [ctx.el(v).idx for v in r] for r in rows]
        if width is None:
            width = np.size(out[0]) if out else 0
        bad = next((np.shape(r) for r in out if np.shape(r) != (width,)), None)
        if bad is not None:
            raise ShapeMismatch(f"row of shape {bad} where length {width} is needed")
        out = np.array(out, dtype=np.int64).reshape(len(out), width)
    if out.size and (out.min() < 0 or out.max() >= ctx.q):
        raise OutOfRange(f"entry outside the element indices 0..{ctx.q - 1}")
    return out


class Mat:
    """Dense matrix over a FieldCtx.  Immutable by convention.  Mat(ctx,
    data) wraps encoded data as it is, unchecked and at its own integer
    width; caller data enters through from_rows, as int64."""

    __slots__ = ("ctx", "data")

    def __init__(self, ctx: FieldCtx, data: np.ndarray):
        if data.ndim != 2:
            raise ShapeMismatch("matrix data must be 2-D")
        self.ctx = ctx
        self.data = data if data.dtype.kind in "iu" else data.astype(np.int64)
        self.data.setflags(write=False)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "Mat":
        return cls(ctx, field_rows(ctx, rows))

    @classmethod
    def identity(cls, ctx: FieldCtx, dim: int) -> "Mat":
        d = np.zeros((dim, dim), dtype=np.int64)
        if dim:
            np.fill_diagonal(d, 1)
        return cls(ctx, d)

    # -- shape ---------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ctx != other.ctx:
            raise ContextMismatch("matrices over different field contexts")
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.data.shape} by {other.data.shape}")
        return Mat(self.ctx, _matmul_idx(self.ctx, self.data, other.data))

    def apply(self, v) -> np.ndarray:
        """Matrix times column vector, read by field_rows."""
        return _matmul_idx(self.ctx, self.data, field_rows(self.ctx, [v], self.cols).T)[:, 0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat) and self.ctx == other.ctx
                and self.data.shape == other.data.shape
                and bool(np.array_equal(self.data, other.data)))

    def __hash__(self):
        # equal matrices of two widths hash alike
        return hash((self.ctx, self.data.shape, self.data.astype(np.int64, copy=False).tobytes()))

    def to_lists(self) -> list:
        return self.ctx.texts[self.data].tolist()

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over F_{self.ctx.q})"


# the bits of a float64 significand: integers below 2^53 are exact
WORD_BITS = 53
# slot sums of this many bits or fewer are reduced mod p by _mod_table
MOD_TABLE_BITS = 16


@lru_cache(maxsize=CTX_CACHE)
def _mod_table(p: int) -> np.ndarray:
    """x mod p for every x < 2^MOD_TABLE_BITS (128 KB), one read-only table
    per p, shared by the fields of characteristic p.  It is uint16, which
    holds every index of a field with dense tables, so digits are combined
    into indices in the same dtype."""
    table = np.arange(1 << MOD_TABLE_BITS, dtype=np.uint16) % p
    table.setflags(write=False)
    return table


def _packed(ctx: FieldCtx, S: int) -> tuple:
    """The digits of t^i b packed S bits a slot: one (q, n) float64 table
    per group of WORD_BITS // S digits, whose entry [b, i] holds digit
    k0 + s of t^i b in slot s, at 2^(S s), for the group's first digit k0;
    kept in ctx._cache per S."""
    key = ("_packed", S)
    tables = ctx._cache.get(key)
    if tables is None:
        width = WORD_BITS // S
        weights = 2.0 ** (S * np.arange(width))
        tables = tuple(np.ascontiguousarray((ctx._tdigits[:, :, k:k + width]
                                             @ weights[:ctx.n - k]).T)
                       for k in range(0, ctx.n, width))
        for table in tables:
            table.setflags(write=False)
        ctx._cache[key] = tables
    return tables


def _matmul_idx(ctx: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product of encoded-index arrays; leading axes broadcast as
    with ``@``.

    A[r, j] B[j, c] is sum_i a_i (t^i B[j, c]) for the digits a_i of
    A[r, j].  So one float64 matmul of A's digits, laid out (..., r,
    (j, i)), by the table of t^i b packed at B (_packed), laid out
    (..., (j, i), c), sums every digit of every entry at once: slot k of
    result word (r, c) is digit k of entry (r, c) before reduction mod p,
    a sum of k n terms of at most (p-1)^2 for A of k columns.  S is the bit
    length of k n (p-1)^2, so no slot carries into the next, and a word
    holds WORD_BITS // S slots, so it stays below 2^53 and exact; a field
    with more digits takes one matmul per group of slots.  Each slot is
    read with a shift and a mask and reduced by _mod_table, or by % p when
    S exceeds MOD_TABLE_BITS (large prime fields only).
    """
    p, n = ctx.p, ctx.n
    kn = A.shape[-1] * n
    S = max(1, (kn * (p - 1) ** 2).bit_length())
    tables, width = _packed(ctx, S), WORD_BITS // S
    modp = _mod_table(p) if S <= MOD_TABLE_BITS else None
    X = ctx._tdigits[0].take(A, axis=0)
    X = X.reshape(X.shape[:-2] + (kn,))                          # (..., r, (j, i))
    out = None
    for k0 in reversed(range(0, n, width)):
        Y = tables[k0 // width].take(B.swapaxes(-1, -2), axis=0)  # (..., c, j, i)
        W = X @ Y.reshape(Y.shape[:-2] + (kn,)).swapaxes(-1, -2)
        del Y  # the gather is not needed past the product: free it before the copy
        W = W.astype(np.int64)
        top = min(width, n - k0) - 1
        # Horner from the top digit, out = sum_k digit_k p^k; the top slot
        # of a word needs no mask and slot 0 no shift
        for s in range(top, -1, -1):
            slot = W >> (S * s) if s else W
            if s < top:
                slot &= (1 << S) - 1
            digit = slot % p if modp is None else modp.take(slot)
            if out is None:
                out = digit
            else:
                out *= p
                out += digit
    return out.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# Elimination


def _rref_inplace(ctx: FieldCtx, M: np.ndarray) -> list:
    """Reduce M, an int64 working copy, to RREF in place; returns the
    pivot column list.

    Row r is zero left of its pivot column c, so each step touches only
    columns c.. of the rows with a nonzero entry in column c.  The update
    a - f*b is two gathers from the flattened q x q tables:
    x = mul[f*q + b], then sub[a*q + x]."""
    rows, cols = M.shape
    q = ctx.q
    sub, mul = ctx.sub.reshape(-1), ctx.mul.reshape(-1)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # fixed pivot rule: first nonzero scanning top to bottom
        nz = M[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        inv = int(ctx.inv[M[r, c]])
        if inv != 1:
            M[r, c:] = mul.take(inv * q + M[r, c:])
        M[r, c] = 0  # the pivot row itself is not updated
        upd = M[:, c].nonzero()[0]
        M[r, c] = 1
        if upd.size:
            prod = mul.take(M[upd, c, None] * q + M[r, c:])
            M[upd, c:] = sub.take(M[upd, c:] * q + prod)
        pivots.append(c)
        r += 1
    return pivots


def _row_profile(ctx: FieldCtx, X: np.ndarray) -> np.ndarray:
    """Row rank profile of X: the indices k of the rows of X outside the
    span of rows 0..k-1, from one forward elimination of a copy of X^T
    (Dumas, Pernet and Sultan, ISSAC 2013).  Each step jumps to the next
    column with a nonzero entry, takes its first nonzero row as pivot and
    clears that column in the rows below it with the two flat gathers of
    _rref_inplace; no later step reads the pivot row, so it is zeroed.
    No row swap, no back-substitution, and X, of any integer width, is
    never written."""
    q = ctx.q
    sub, mul = ctx.sub.reshape(-1), ctx.mul.reshape(-1)
    T = X.T.astype(np.int64, order="C")
    out, c = [], 0
    while len(out) < T.shape[0] and c < T.shape[1]:
        nz = T[:, c:].any(axis=0)
        j = int(nz.argmax())
        if not nz[j]:
            break
        c += j
        col = T[:, c]
        rows = col.nonzero()[0]
        r, upd = rows[0], rows[1:]
        if upd.size:
            prow = T[r, c:]
            inv = ctx.inv[prow[0]]
            if inv != 1:
                prow = mul.take(inv * q + prow)
            prod = mul.take(col[upd, None] * q + prow)
            T[upd, c:] = sub.take(T[upd, c:] * q + prod)
        T[r] = 0
        out.append(c)
        c += 1
    return np.array(out, dtype=np.int64)


def rank(A: Mat) -> int:
    M = A.data.astype(np.int64)
    return len(_rref_inplace(A.ctx, M))


def kernel(A: Mat, select=None) -> "Subspace":
    """Canonical basis of {x : A x = 0}, from one elimination.

    A is reduced with its columns reversed.  The kernel vector of each
    free column f there has its last nonzero entry, a 1, at f, and zeros
    at the other free columns; read back in the original column order,
    these vectors (taken by descending f) are already the RREF basis,
    each led by its free column.  With select, a function of the (cols,)
    mask of the free columns, only the rows led by the free columns of
    the mask it returns are built: the span of part of the basis, in
    RREF, at the cost of the elimination and those rows alone."""
    ctx = A.ctx
    n = A.cols
    M = A.data[:, ::-1].astype(np.int64)
    pivots = _rref_inplace(ctx, M)
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    if select is not None:
        free &= select(free[::-1].copy())[::-1]
    free = np.nonzero(free)[0][::-1]
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = ctx.neg[M[: len(pivots), free].T]
    return Subspace(ctx, n, basis[:, ::-1].copy())


def solve_matrix(A: Mat, B: Mat) -> Optional[Mat]:
    """Any X with A X = B, or None (columnwise simultaneous solve)."""
    if A.ctx != B.ctx:
        raise ContextMismatch("matrices over different field contexts")
    if A.rows != B.rows:
        raise ShapeMismatch("A and B must have the same number of rows")
    ctx = A.ctx
    aug = np.hstack([A.data, B.data], dtype=np.int64)
    pivots = _rref_inplace(ctx, aug)
    acols = A.cols
    if any(pc >= acols for pc in pivots):
        return None
    X = np.zeros((acols, B.cols), dtype=np.int64)
    for j, pc in enumerate(pivots):
        X[pc] = aug[j, acols:]
    return Mat(ctx, X)


def invert(A: Mat) -> Optional[Mat]:
    if not A.is_square():
        raise ShapeMismatch("inverse of a non-square matrix")
    return solve_matrix(A, Mat.identity(A.ctx, A.rows))


def _matpow_idx(ctx: FieldCtx, A: np.ndarray, e: int) -> np.ndarray:
    """e-th power (e >= 0) of each square matrix in a stack (..., d, d),
    by repeated squaring; the product starts from the first factor, not
    from the identity."""
    if e == 0:
        return np.broadcast_to(np.eye(A.shape[-1], dtype=np.int64), A.shape).copy()
    result = None
    while True:
        if e & 1:
            result = A if result is None else _matmul_idx(ctx, result, A)
        e >>= 1
        if not e:
            return result
        A = _matmul_idx(ctx, A, A)


# ---------------------------------------------------------------------------
# Subspaces


class Subspace:
    """A subspace of F_q^ambient, stored as a canonical RREF basis.

    The basis must be in RREF: the pivot columns are read once, and the
    coordinates of any vector of the subspace are its entries there.
    """

    __slots__ = ("ctx", "ambient", "basis", "pivots")

    def __init__(self, ctx: FieldCtx, ambient: int, basis: np.ndarray):
        self.ctx = ctx
        self.ambient = int(ambient)
        self.basis = basis.astype(np.int64, copy=False)
        self.basis.setflags(write=False)
        self.pivots = (np.argmax(self.basis != 0, axis=1) if self.ambient
                       else np.zeros(0, dtype=np.int64))

    @classmethod
    def from_rows(cls, ctx: FieldCtx, ambient: int, rows) -> "Subspace":
        M = field_rows(ctx, rows, ambient)
        pivots = _rref_inplace(ctx, M)
        return cls(ctx, ambient, M[: len(pivots)].copy())

    @classmethod
    def zero(cls, ctx: FieldCtx, ambient: int) -> "Subspace":
        return cls(ctx, ambient, np.zeros((0, ambient), dtype=np.int64))

    @classmethod
    def full(cls, ctx: FieldCtx, ambient: int) -> "Subspace":
        return cls(ctx, ambient, Mat.identity(ctx, ambient).data)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reduce_rows(self, V: np.ndarray) -> tuple:
        """Coordinates of the rows of V (k x ambient) in the basis, and a
        boolean mask of the rows that lie in the subspace.  Coordinates of
        rows outside are their entries at the pivots."""
        V = field_rows(self.ctx, V, self.ambient)
        coords = V[:, self.pivots]
        inside = (_matmul_idx(self.ctx, coords, self.basis) == V).all(axis=1)
        return coords, inside

    def reduce(self, v) -> Optional[np.ndarray]:
        """Coordinates of v in the basis, or None if v is outside."""
        coords, inside = self.reduce_rows([v])
        return coords[0] if inside[0] else None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ctx == other.ctx
                and self.ambient == other.ambient
                and self.basis.shape == other.basis.shape
                and bool(np.array_equal(self.basis, other.basis)))

    def __hash__(self):
        return hash((self.ctx, self.ambient, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F_{self.ctx.q}^{self.ambient})"


# ---------------------------------------------------------------------------
# Nilpotent partitions


def _rank_stack(ctx: FieldCtx, A: np.ndarray, profile: bool = False) -> np.ndarray:
    """Ranks of a stack of matrices (..., rows, cols) by one elimination
    over all of them: column by column, each matrix takes its own pivot
    (first nonzero entry among its rows not yet used as pivots) and clears
    that column in its other unused rows.  Zero matrices are skipped and
    the live ones copied, in int64, so A is never written.  With profile,
    the result is instead each matrix's column rank profile, a (..., cols)
    mask of its pivot columns, read after the loop: a pivot row is zero
    left of its pivot and never updated again, so its first nonzero entry
    is its pivot column.  Summed over the last axis it is the ranks.

    The live rows are kept as one flat (matrix, row) list.  Each step
    touches only the unused rows with a nonzero entry in column c, found
    by one nonzero(); the first of them in each matrix is its pivot row,
    and the others read their matrix's scaled pivot row through a
    per-matrix slot index.  The update is the two flat gathers of
    _rref_inplace."""
    q = ctx.q
    sub, mul = ctx.sub.reshape(-1), ctx.mul.reshape(-1)
    lead, (rows, cols) = A.shape[:-2], A.shape[-2:]
    A = A.reshape((math.prod(lead), rows, cols))
    ranks = np.zeros(A.shape[0], dtype=np.int64)
    live = np.nonzero(A.reshape(A.shape[0], -1).any(axis=1))[0]
    R = A[live].reshape(live.size * rows, cols).astype(np.int64, copy=False)
    unused = np.ones(R.shape[0], dtype=bool)
    slot = np.zeros(live.size, dtype=np.int64)
    for c in range(cols):
        cand = ((R[:, c] != 0) & unused).nonzero()[0]
        if cand.size == 0:
            continue
        mat = cand // rows
        first = np.ones(cand.size, dtype=bool)
        first[1:] = mat[1:] != mat[:-1]
        piv = cand[first]
        unused[piv] = False
        rest = ~first
        upd = cand[rest]
        if upd.size:
            prow = R[piv, c:]
            prow = mul.take(ctx.inv[prow[:, 0], None] * q + prow)
            slot[mat[first]] = np.arange(piv.size)
            prod = mul.take(R[upd, c, None] * q + prow[slot[mat[rest]]])
            R[upd, c:] = sub.take(R[upd, c:] * q + prod)
    if profile:
        pivots = np.zeros((A.shape[0], cols), dtype=bool)
        piv = (~unused).nonzero()[0]
        if piv.size:
            pivots[live[piv // rows], (R[piv] != 0).argmax(axis=1)] = True
        return pivots.reshape((*lead, cols))
    ranks[live] = rows - unused.reshape(live.size, rows).sum(axis=1)
    return ranks.reshape(lead)


def _partitions(d: int, chains) -> list:
    """Jordan partitions of nilpotent d x d matrices, each from its rank
    chain: the ranks of N, N^2, ..., the power after the last one given
    being zero.  Equal chains, the common case over a pencil, are read
    once."""
    chains = [tuple(chain) for chain in chains]
    types = {}
    for chain in set(chains):
        full = [d, *chain, 0]
        # at_least[j-1] = #{blocks of size >= j} = rank N^(j-1) - rank N^j
        at_least = [full[j - 1] - full[j] for j in range(1, len(full))] + [0]
        partition = []
        for j in range(len(full) - 1, 0, -1):
            partition += [j] * (at_least[j - 1] - at_least[j])
        assert sum(partition) == d, (partition, full)
        types[chain] = tuple(partition)
    return [types[chain] for chain in chains]


def nilpotent_partitions(ctx: FieldCtx, stack: np.ndarray) -> list:
    """Jordan partitions of a stack of d x d matrices (k, d, d) with
    N^p = 0, p the characteristic (every pencil member of a module), from
    their rank chains: the powers of all k matrices are taken together,
    and the ranks of all the powers come from one stacked elimination.
    N^min(d, p) is zero, so the chain stops at N^(min(d, p) - 1)."""
    k, d = stack.shape[0], stack.shape[-1]
    if d == 0:
        return [()] * k
    top = min(d, ctx.p) - 1
    powers = [stack]
    while len(powers) < top and powers[-1].any():
        powers.append(_matmul_idx(ctx, powers[-1], stack))
    ranks = _rank_stack(ctx, np.stack(powers)).reshape(len(powers), k)
    # the power after the last one formed is zero
    return _partitions(d, ranks.T.tolist())
