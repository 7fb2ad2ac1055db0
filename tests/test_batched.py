"""Batched primitives against row-by-row references, plus call-count
guards that keep them batched."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repcurve import cli, ff
from repcurve import kmod as km
from repcurve import linalg
from repcurve.errors import ShapeMismatch
from repcurve.ff import default_ctx
from repcurve.linalg import Mat, Subspace, invert, kernel, nilpotent_partitions, rank
from repcurve.suites import run_suite
from reference import (conjugate_by, contains, contains_space, hom_maps_one_product,
                       intertwiner_space, nilpotent_partition, record, s_filtration_direct,
                       sub_generated_closure, word_matrix)

C2 = default_ctx(2)
C3 = default_ctx(3)
C5 = default_ctx(5)
CTX = {2: C2, 3: C3, 5: C5}
FIELDS = st.sampled_from([C3, C5])


def reduce_one_by_one(S: Subspace, v: np.ndarray):
    """Coordinates by eliminating v against the basis rows in order, or
    None if a nonzero remainder is left."""
    ctx = S.ctx
    v = v.copy()
    coords = np.zeros(S.dim, dtype=np.int64)
    for i, row in enumerate(S.basis):
        c = int(v[int(np.argmax(row != 0))])
        if c:
            coords[i] = c
            v = ctx.sub[v, ctx.mul[c, row]]
    return None if v.any() else coords


def rand_rows(ctx, rng, k, n):
    return np.array([[rng.randrange(ctx.q) for _ in range(n)] for _ in range(k)],
                    dtype=np.int64).reshape(k, n)


def schoolbook_matmul(ctx, A, B):
    """sum_j A[..., r, j] B[..., j, c] by the field's add and mul tables,
    one j at a time, leading axes broadcast."""
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    out = np.zeros(lead + (A.shape[-2], B.shape[-1]), dtype=np.int64)
    for j in range(A.shape[-1]):
        out = ctx.add[out, ctx.mul[A[..., :, j, None], B[..., None, j, :]]]
    return out


# the fields of the kernel tests: slots of one to four digits in one word,
# F_1024's ten digits in two words (one gemm each), and F_257, whose slots
# are wider than the mod table at any k >= 1, so they are reduced by % p
KERNEL_FIELDS = [(3, 1), (3, 2), (5, 2), (7, 2), (2, 3), (3, 4), (5, 3), (2, 10), (257, 1)]
LEADS = [((), ()), ((3,), ()), ((), (2,)), ((2, 1), (3,)), ((1, 3), (2, 1)), ((4,), (4,))]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 10**6), st.sampled_from(LEADS),
       st.integers(0, 5), st.integers(0, 30), st.integers(0, 5))
def test_matmul_matches_schoolbook(field, seed, leads, rows, k, cols):
    """_matmul_idx is the schoolbook product on random entries, with
    broadcast leading axes and k = 0, and leaves its arguments unchanged."""
    ctx = default_ctx(*field)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, ctx.q, leads[0] + (rows, k))
    B = rng.integers(0, ctx.q, leads[1] + (k, cols))
    before = A.copy(), B.copy()
    got = linalg._matmul_idx(ctx, A, B)
    assert got.dtype == np.int64
    assert np.array_equal(got, schoolbook_matmul(ctx, A, B))
    assert np.array_equal(A, before[0]) and np.array_equal(B, before[1])


@pytest.mark.parametrize("field", KERNEL_FIELDS + [(2039, 1)])
def test_matmul_is_exact_at_the_table_bound(field):
    """Entries whose digits are all p - 1, in a product of the largest k
    whose slot sums the mod table reduces, where a slot sum of a prime
    field reaches its bound k (p - 1)^2, and of k + 1, whose sums are
    reduced by % p; then random entries at both.  F_2039's slots are
    always reduced by % p."""
    ctx = default_ctx(*field)
    k = ((1 << linalg.MOD_TABLE_BITS) - 1) // (ctx.n * (ctx.p - 1) ** 2)
    rng = np.random.default_rng(k)
    for width in (k, k + 1):
        for A, B in ((np.full((2, width), ctx.q - 1), np.full((width, 3), ctx.q - 1)),
                     (rng.integers(0, ctx.q, (2, width)), rng.integers(0, ctx.q, (width, 3)))):
            assert np.array_equal(linalg._matmul_idx(ctx, A, B), schoolbook_matmul(ctx, A, B))
    if field == (2039, 1):
        # drop the 160 MB of F_2039's tables, which no later test needs
        ff._ctx_cached.cache_clear()


def ref_rref_inplace(ctx, M):
    """Reference elimination: linalg._rref_inplace as it was before its
    updates became flat gathers on the changed rows only.  Every row of
    columns c.. is updated with two 2-D gathers, sub[A, mul[f, b]]."""
    rows, cols = M.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        inv = int(ctx.inv[M[r, c]])
        if inv != 1:
            M[r] = ctx.mul[inv, M[r]]
        factors = M[:, c].copy()
        factors[r] = 0
        if factors.any():
            M[:, c:] = ctx.sub[M[:, c:], ctx.mul[factors[:, None], M[r, c:]]]
        pivots.append(c)
        r += 1
    return pivots


def ref_rank_stack(ctx, A):
    """Reference stacked ranks: linalg._rank_stack with the 2-D gathers
    it made before its updates became flat gathers."""
    lead, (rows, cols) = A.shape[:-2], A.shape[-2:]
    A = A.reshape((math.prod(lead), rows, cols))
    ranks = np.zeros(A.shape[0], dtype=np.int64)
    live = np.nonzero(A.reshape(A.shape[0], -1).any(axis=1))[0]
    A = A[live]
    unused = np.ones(A.shape[:2], dtype=bool)
    for c in range(cols):
        cand = (A[:, :, c] != 0) & unused
        has = np.nonzero(cand.any(axis=1))[0]
        if has.size == 0:
            continue
        pr = np.argmax(cand[has], axis=1)
        prow = A[has, pr, c:]
        prow = ctx.mul[ctx.inv[prow[:, 0]][:, None], prow]
        factors = np.where(cand[has], A[has, :, c], 0)
        factors[np.arange(has.size), pr] = 0
        A[has, :, c:] = ctx.sub[A[has, :, c:], ctx.mul[factors[:, :, None], prow[:, None, :]]]
        unused[has, pr] = False
        ranks[live[has]] += 1
    return ranks.reshape(lead)


def rand_sparse(ctx, rng, rows, cols):
    """A rows x cols matrix of random rank, then with some rows and some
    columns zeroed, so that many row updates have a zero factor."""
    r = rng.randrange(min(rows, cols) + 1)
    A = linalg._matmul_idx(ctx, rand_rows(ctx, rng, rows, r), rand_rows(ctx, rng, r, cols))
    A[[i for i in range(rows) if rng.random() < 0.3]] = 0
    A[:, [j for j in range(cols) if rng.random() < 0.3]] = 0
    return A


def rand_subspace(ctx, rng, amb, kind):
    if kind == "zero":
        return Subspace.zero(ctx, amb)
    if kind == "full":
        return Subspace.full(ctx, amb)
    r = rng.randrange(amb + 1)
    # rank-deficient spanning sets exercise the RREF canonical form
    rows = linalg._matmul_idx(ctx, rand_rows(ctx, rng, rng.randrange(r + 2), r),
                              rand_rows(ctx, rng, r, amb))
    return Subspace.from_rows(ctx, amb, rows)


def batch_for(S, rng, k):
    """k rows: a mix of members of S and arbitrary vectors."""
    ctx = S.ctx
    rows = []
    for _ in range(k):
        if S.dim and rng.random() < 0.5:
            rows.append(linalg._matmul_idx(ctx, rand_rows(ctx, rng, 1, S.dim), S.basis)[0])
        else:
            rows.append(rand_rows(ctx, rng, 1, S.ambient)[0])
    return np.array(rows, dtype=np.int64).reshape(k, S.ambient)


@settings(max_examples=60, deadline=None)
@given(FIELDS, st.integers(0, 10**6), st.integers(1, 7), st.integers(0, 6),
       st.sampled_from(["zero", "full", "random", "random"]))
def test_reduce_rows_matches_row_by_row(ctx, seed, amb, k, kind):
    rng = random.Random(seed)
    S = rand_subspace(ctx, rng, amb, kind)
    V = batch_for(S, rng, k)
    coords, inside = S.reduce_rows(V)
    assert coords.shape == (k, S.dim) and inside.shape == (k,)
    for v, c, ins in zip(V, coords, inside):
        want = reduce_one_by_one(S, v)
        assert ins == (want is not None)
        if want is not None:
            assert np.array_equal(c, want)
            assert np.array_equal(S.reduce(v), want)
        else:
            assert S.reduce(v) is None
        assert contains(S, v) == ins
    assert contains_space(S, Subspace.from_rows(ctx, amb, V)) == bool(inside.all())


def _module(ctx, kind, d):
    t = ctx.gen()
    return km.v_d(ctx, d, t) if kind == "vd" else km.v_dr(ctx, d, t)


@settings(max_examples=25, deadline=None)
@given(FIELDS, st.integers(0, 10**6), st.sampled_from(["vd", "vdr"]),
       st.integers(0, 25), st.integers(0, 12))
def test_ddeg_rows_matches_per_vector(ctx, seed, kind, d, k):
    pp = ctx.p ** 2
    d = d % pp + (1 if kind == "vd" else 0)
    M = _module(ctx, kind, d)
    rng = random.Random(seed)
    V = rand_rows(ctx, rng, k, M.dim)
    if k:
        V[0] = 0  # a zero row reads -1
    fil = km.s_filtration(M)
    want = [-1 if not v.any() else
            min(n for n, S in enumerate(fil) if reduce_one_by_one(S, v) is not None)
            for v in V]
    got = km.ddeg_rows(M, V)
    assert got.tolist() == want
    assert [km.ddeg(M, v) for v in V] == want


@settings(max_examples=40, deadline=None)
@given(FIELDS, st.integers(0, 10**6), st.integers(0, 6), st.integers(0, 6),
       st.integers(1, 5))
def test_stacked_ranks_match_rank(ctx, seed, rows, cols, k):
    rng = random.Random(seed)
    r = rng.randrange(min(rows, cols) + 1)
    stack = np.stack([linalg._matmul_idx(ctx, rand_rows(ctx, rng, rows, r),
                                         rand_rows(ctx, rng, r, cols))
                      for _ in range(k)])
    want = [len(ref_rref_inplace(ctx, A.copy())) for A in stack]
    assert linalg._rank_stack(ctx, stack).tolist() == want
    assert linalg._rank_stack(ctx, stack.reshape(1, k, rows, cols)).tolist() == [want]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(3, 2), (5, 2), (7, 2), (2, 10)]), st.integers(0, 10**6),
       st.integers(0, 7), st.integers(0, 7), st.integers(1, 4), st.booleans())
def test_elimination_kernels_match_references(field, seed, rows, cols, k, all_zero):
    """_rref_inplace gives the pivots and the reduced matrix of the
    reference, and _rank_stack its ranks, over q = 9, 25, 49 and 1024, on
    matrices with zero rows and columns, empty shapes and stacks of zero
    matrices."""
    ctx = default_ctx(*field)
    rng = random.Random(seed)
    stack = np.stack([rand_sparse(ctx, rng, rows, cols) for _ in range(k)])
    if all_zero:
        stack[:] = 0
    for A in stack:
        got, want = A.copy(), A.copy()
        assert linalg._rref_inplace(ctx, got) == ref_rref_inplace(ctx, want)
        assert np.array_equal(got, want)
    want = ref_rank_stack(ctx, stack.copy())
    assert np.array_equal(linalg._rank_stack(ctx, stack.copy()), want)
    assert np.array_equal(linalg._rank_stack(ctx, stack.reshape(1, k, rows, cols)),
                          want.reshape(1, k))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 2), (5, 2), (7, 2), (2, 10)]), st.integers(0, 10**6),
       st.integers(0, 7), st.integers(0, 7), st.integers(1, 4), st.booleans())
def test_rank_stack_leaves_its_argument_unchanged(field, seed, rows, cols, k, writable):
    """The callers rank stacks they read afterwards: step 5 of
    is_isomorphic a read-only view of the Hom basis, _fitting_split the
    powers it then splits."""
    ctx = default_ctx(*field)
    rng = random.Random(seed)
    stack = np.stack([rand_sparse(ctx, rng, rows, cols) for _ in range(k)])
    before = stack.copy()
    stack.setflags(write=writable)
    linalg._rank_stack(ctx, stack)
    assert np.array_equal(stack, before)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 2), (5, 2), (7, 2), (2, 10)]), st.integers(0, 10**6),
       st.integers(0, 7), st.integers(0, 7), st.integers(1, 4))
def test_rank_stack_profile_is_the_column_rank_profile(field, seed, rows, cols, k):
    """With profile, _rank_stack marks exactly the columns c of each matrix
    A with rank A[:, :c+1] > rank A[:, :c], and the marks sum to its rank."""
    ctx = default_ctx(*field)
    rng = random.Random(seed)
    stack = np.stack([rand_sparse(ctx, rng, rows, cols) for _ in range(k)])
    want = [[ref_rank(ctx, A[:, :c + 1]) > ref_rank(ctx, A[:, :c]) for c in range(cols)]
            for A in stack]
    got = linalg._rank_stack(ctx, stack, profile=True)
    assert got.tolist() == want
    assert np.array_equal(got.sum(axis=-1), linalg._rank_stack(ctx, stack))
    assert linalg._rank_stack(ctx, stack[None], profile=True).tolist() == [want]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("beta", ["0,1", "1,1"])
def test_vd_family_scans_match_jordan_scan(p, beta):
    """The scans of every v_d member read from the column rank profiles of
    v_d(p^2)'s pencil powers are the members' own scans, computed afresh
    (the family keeps its scans where jordan_scan's memo reads them)."""
    ctx = default_ctx(p)
    beta = ctx.from_text(beta)
    scans = km.vd_jordan_scans(ctx, beta)
    assert list(scans) == list(range(1, p * p + 1))
    for d, scan in scans.items():
        member = km.v_d(ctx, d, beta)
        assert scan == km.jordan_scan.__wrapped__(member), d
        assert km.jordan_scan(member) is scan


def rand_nilpotent(ctx, rng, d):
    """A random d x d matrix with N^p = 0, p the characteristic, as every
    pencil member of a module has: Jordan blocks of random sizes at most
    p, conjugated by a random invertible matrix."""
    J = np.zeros((d, d), dtype=np.int64)
    i = 0
    while i < d:
        size = rng.randint(1, min(ctx.p, d - i))
        J[i + np.arange(size - 1), i + 1 + np.arange(size - 1)] = 1
        i += size
    while True:
        P = Mat(ctx, rand_rows(ctx, rng, d, d))
        Pinv = invert(P)
        if Pinv is not None:
            return (P @ Mat(ctx, J) @ Pinv).data


@settings(max_examples=40, deadline=None)
@given(FIELDS, st.integers(0, 10**6), st.integers(1, 7), st.integers(1, 6))
def test_stacked_partitions_match_single(ctx, seed, d, k):
    rng = random.Random(seed)
    stack = np.stack([rand_nilpotent(ctx, rng, d) for _ in range(k)])
    assert nilpotent_partitions(ctx, stack) == [nilpotent_partition(Mat(ctx, N)) for N in stack]


# the last three are the shapes of the query plan's slowest scans: v_dr(5, 25)
# is the regular member, of type (5, 5, 5, 5, 5) at every point
@pytest.mark.parametrize("p,kind,d", [(3, "vd", 5), (3, "vdr", 4), (5, "vd", 12),
                                      (5, "vdr", 12), (5, "vdr", 25), (5, "vd", 25)])
def test_jordan_scan_matches_pointwise(p, kind, d):
    ctx = CTX[p]
    M = _module(ctx, kind, d)
    S0, T0 = M.gens0()
    for (a, b), t in km.jordan_scan(M):
        N = ctx.add[ctx.mul[a, S0], ctx.mul[b, T0]]
        assert t == nilpotent_partition(Mat(ctx, N))


def test_scan_stops_at_the_power_below_p(monkeypatch):
    # every pencil member of v_dr(5, 25) has type (5, 5, 5, 5, 5): N^4 != 0
    # and N^5 = 0, which the chain knows without forming it, so it takes
    # the 3 products N^2, N^3, N^4; on v_d(5, 3), of dimension d = 3 < p,
    # it stops at N^(d-1) after 1
    M = _module(C5, "vdr", 25)
    S0, T0 = M.gens0()
    stack = np.stack([S0, T0, C5.add[S0, T0]])
    expected = [nilpotent_partition(Mat(C5, N)) for N in stack]
    small = _module(C5, "vd", 3)
    products = record(monkeypatch, linalg._matmul_idx)
    assert nilpotent_partitions(C5, stack) == expected == [(5,) * 5] * 3
    assert len(products) == 3
    assert {t for _, t in km.jordan_scan(M)} == {(5,) * 5}
    assert len(products) == 3 + 3
    km.jordan_scan(small)
    assert len(products) == 3 + 3 + 1


@pytest.mark.parametrize("p,kind,d", [(3, "vd", 5), (3, "vdr", 4), (5, "vd", 7), (5, "vdr", 12)])
def test_jordan_type_at_matches_rank_chain(p, kind, d):
    """The type jordan_scan gives at the projective point of (a, b),
    (1, b/a), or (0, 1) when a = 0, is the rank-chain partition of
    a*sigma0 + b*tau0 itself at every (a, b) != (0, 0) of F_q^2: a nonzero
    multiple of a nilpotent matrix has the same Jordan type."""
    ctx = CTX[p]
    M = _module(ctx, kind, d)
    S0, T0 = M.gens0()
    scan = km.jordan_scan(M)
    for a in range(ctx.q):
        for b in range(ctx.q):
            if a or b:
                k = int(ctx.mul[b, ctx.inv[a]]) if a else ctx.q
                point, got = scan[k]
                assert point == ((1, k) if a else (0, 1))
                want = nilpotent_partition(Mat(ctx, ctx.add[ctx.mul[a, S0], ctx.mul[b, T0]]))
                assert got == want, (a, b)


def _hom_pair(ctx, rng):
    """Two small modules: v_d or v_dr over F_9, v_d over F_25, at random
    dimensions and twists (sometimes the same module twice)."""
    def pick():
        if ctx.p == 3 and rng.random() < 0.5:
            return km.v_dr(ctx, rng.randrange(10), ctx.gen())
        t = ctx.gen() + rng.randrange(ctx.p)
        return km.v_d(ctx, rng.randrange(1, 10), t)
    M = pick()
    return M, (M if rng.random() < 0.2 else pick())


@settings(max_examples=20, deadline=None)
@given(FIELDS, st.integers(0, 10**6))
def test_hom_space_matches_intertwiners(ctx, seed):
    M, N = _hom_pair(ctx, random.Random(seed))
    H = km.hom_space(M, N)
    ref = intertwiner_space([M.Msigma, M.Mtau], [N.Msigma, N.Mtau])
    assert H.dim == ref.dim
    for row in H.basis:
        X = Mat(ctx, row.reshape(N.dim, M.dim).copy())
        assert X @ M.Msigma == N.Msigma @ X
        assert X @ M.Mtau == N.Mtau @ X


def _hom_grid(ctx):
    """Modules for the rebuild grid: v_d, v_dr and a dual, direct sums
    with two or more generators, the regular module (no relations) and the
    zero module (Hom = 0 with every other)."""
    t = ctx.gen()
    p = ctx.p
    vdr = km.v_dr(ctx, p + 2, t)
    zero = Mat.identity(ctx, 0)
    return [km.v_d(ctx, 1, t), km.v_d(ctx, p + 1, t), km.v_d(ctx, p * p, t + 1),
            km.v_dr(ctx, 2, t), vdr, km.dual(vdr), km.augmentation_ideal(ctx),
            km.direct_sum(km.v_d(ctx, p + 1, t), km.v_d(ctx, 2, t + 1)),
            km.direct_sum(km.v_d(ctx, 1, t), km.v_dr(ctx, p, t)),
            km.regular_module(ctx), km.HModule(ctx, zero, zero)]


@pytest.mark.parametrize("p", [3, 5])
def test_hom_rebuild_matches_one_product_reference(p):
    """The rebuild reads only the pivot (word, generator) pairs; the
    reference applies every word to every image in one product.  Same
    arithmetic, so the canonical bases are the same arrays."""
    ctx = CTX[p]
    grid = _hom_grid(ctx)
    assert max(km._hom_source_data(M)["t"] for M in grid if M.dim) >= 2
    assert km._hom_source_data(km.regular_module(ctx))["relgens"].shape[0] == 0
    zero_homs = 0
    for M in grid:
        for N in grid:
            H, ref = km.hom_space(M, N), hom_maps_one_product(M, N)
            assert H.ambient == ref.ambient == M.dim * N.dim
            assert np.array_equal(H.basis, ref.basis)
            zero_homs += H.dim == 0
    assert zero_homs == 2 * len(grid) - 1


# OpenBLAS splits a float64 gemm across its threads once it is large
# enough, and a split product whose threads have gone idle stalls.  On a
# 2-vCPU x86_64 host (OpenBLAS 0.3.31), one gemm after a 10 ms pause took
# about 0.13 ms at 786,432 multiply-adds and 8-10 ms at 1,024,128 and
# above (other runs there: about 20 us at 786,432, 6-8 ms at 1,040,384); in
# structure/p5 the one-product Hom rebuild (reference.hom_maps_one_product)
# made products of 1,382,400 to 1,612,800 per slice that took about 14 ms
# each.  2^19 stays below every fast size seen.
GEMM_SLICE_LIMIT = 1 << 19


@pytest.mark.parametrize("suite", ["structure", "indec"])
def test_no_product_is_large_enough_to_split(monkeypatch, suite):
    """Each _matmul_idx slice is one gemm of rows x n*k by n*k x cols per
    group of packed digit slots, and nothing else; it may not reach
    GEMM_SLICE_LIMIT."""
    shapes = record(monkeypatch, linalg._matmul_idx,
                    lambda args, _: (args[0].n, args[1].shape, args[2].shape))
    assert run_suite(suite, (5,))["exit"] == 0
    assert [(A, B) for n, A, B in shapes if A[-2] * n * A[-1] * B[-1] >= GEMM_SLICE_LIMIT] == []


@pytest.mark.parametrize("p,kind,d", [(3, "vd", 9), (5, "vd", 23), (5, "vdr", 12)])
def test_ddeg_rows_one_product_per_level(monkeypatch, p, kind, d):
    # with the flag cached, all levels take one product V R^T
    ctx = CTX[p]
    M = _module(ctx, kind, d)
    km._flag(M)
    V = rand_rows(ctx, random.Random(d), 200, M.dim)
    calls = record(monkeypatch, linalg._matmul_idx)
    km.ddeg_rows(M, V)
    assert len(calls) == 1


@pytest.mark.parametrize("p,kind,d,ask,products", [
    (5, "vdr", 12, ["--label", "eta24"], 8),
    (5, "vdr", 12, ["--label", "eta1"], 2),
    (5, "vdr", 12, ["--vector", ";".join(["1,0"] * 24)], 8),
    (3, "vd", 7, ["--label", "w5"], 4),
    (3, "vd", 7, ["--vector", ";".join(["1,1"] * 7)], 4),
])
def test_query_ddeg_reads_the_orbit(monkeypatch, capsys, tmp_path, p, kind, d, ask, products):
    # a cold query ddeg builds no flag and no word stack: no elimination and
    # no row profile, nothing left on the module, and at most 2(p - 1) products beyond
    # those of reading the module file (eta1 has degree 0: its chain and
    # its first sigma0 block are zero after one product each)
    path = str(tmp_path / "m.json")
    assert cli.main(["build", kind, "--p", str(p), "--d", str(d), "--beta", "0,1",
                     "--out", path]) == 0
    read = cli._load_module
    loaded = record(monkeypatch, read, lambda args, M: M)
    steps = [record(monkeypatch, fn) for fn in (linalg._rref_inplace, linalg._row_profile)]
    calls = record(monkeypatch, linalg._matmul_idx)
    read(path)
    construction = len(calls)
    calls.clear()
    assert cli.main(["query", "ddeg", path, *ask]) == 0
    capsys.readouterr()
    (M,) = loaded
    assert steps == [[], []] and M._cache == {}
    assert len(calls) - construction == products <= 2 * (p - 1)


@pytest.mark.parametrize("p,d", [(3, 4), (5, 12)])
def test_hom_space_products_do_not_grow_with_solutions(monkeypatch, p, d):
    ctx = CTX[p]
    M = km.v_dr(ctx, d, ctx.gen())
    km._hom_source_data(M)  # presentation and word matrices are cached
    M.word_stack()
    calls = record(monkeypatch, linalg._matmul_idx)
    H = km.hom_space(M, M)
    assert H.dim > 1
    # one product builds the relations; rebuilding every solution takes two
    # (pivot words on pivot images, then the pivot inverse, which this first
    # rebuild inverts and caches with the presentation), within p^2 + 1
    assert len(calls) <= 3 <= ctx.p ** 2 + 1


def rand_rank(ctx, rng, rows, cols, r):
    """A rows x cols matrix of rank r (r <= min(rows, cols))."""
    while True:
        A = linalg._matmul_idx(ctx, rand_rows(ctx, rng, rows, r), rand_rows(ctx, rng, r, cols))
        if rank(Mat(ctx, A)) == r:
            return A


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([C2, C3, C5]), st.integers(0, 10**6), st.integers(0, 7),
       st.integers(0, 7), st.sampled_from(["zero", "full", "low", "any"]))
def test_kernel_is_canonical_rref(ctx, seed, rows, cols, kind):
    rng = random.Random(seed)
    top = min(rows, cols)
    if kind == "zero":
        A = np.zeros((rows, cols), dtype=np.int64)
    elif kind == "any":
        A = rand_rows(ctx, rng, rows, cols)
    else:
        A = rand_rank(ctx, rng, rows, cols, top if kind == "full" else rng.randrange(top + 1))
    K = kernel(Mat(ctx, A))
    assert K.ambient == cols and K.basis.shape == (K.dim, cols)
    assert K == Subspace.from_rows(ctx, cols, K.basis)
    assert not linalg._matmul_idx(ctx, A, K.basis.T).any()
    assert K.dim == cols - rank(Mat(ctx, A))


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 4), (4, 0), (3, 3)])
def test_kernel_of_empty_and_zero_shapes(rows, cols):
    K = kernel(Mat(C3, np.zeros((rows, cols), dtype=np.int64)))
    assert K == Subspace.full(C3, cols)
    assert K.pivots.tolist() == list(range(cols))


def charpoly_reference(A: Mat) -> list:
    """Characteristic polynomial [c_0 = 1, c_1, ..., c_n] of one matrix,
    c_k the coefficient of lambda^(n-k): scalar Hessenberg reduction and
    leading-minor recurrence, one entry at a time."""
    ctx = A.ctx
    n = A.rows
    H = A.data.copy()
    for j in range(n - 2):
        piv = None
        for r in range(j + 1, n):
            if H[r, j]:
                piv = r
                break
        if piv is None:
            continue
        if piv != j + 1:
            H[[j + 1, piv]] = H[[piv, j + 1]]
            H[:, [j + 1, piv]] = H[:, [piv, j + 1]]
        inv = int(ctx.inv[H[j + 1, j]])
        for r in range(j + 2, n):
            f = int(ctx.mul[H[r, j], inv])
            if f:
                H[r] = ctx.sub[H[r], ctx.mul[f, H[j + 1]]]
                H[:, j + 1] = ctx.add[H[:, j + 1], ctx.mul[f, H[:, r]]]
    polys = [[1]]
    for k in range(1, n + 1):
        hkk = int(H[k - 1, k - 1])
        prev = polys[k - 1]
        cur = [0] * (k + 1)
        for d_, c in enumerate(prev):
            cur[d_ + 1] = int(ctx.add[cur[d_ + 1], c])
            cur[d_] = int(ctx.sub[cur[d_], ctx.mul[hkk, c]])
        run = 1
        for m in range(1, k):
            run = int(ctx.mul[run, H[k - m, k - m - 1]])
            if run == 0:
                break
            w = int(ctx.mul[H[k - 1 - m, k - 1], run])
            if w:
                pm = polys[k - 1 - m]
                for d_, c in enumerate(pm):
                    cur[d_] = int(ctx.sub[cur[d_], ctx.mul[w, c]])
        polys.append(cur)
    full = polys[n]
    return [full[n - k] for k in range(n + 1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 10**6), st.integers(0, 14),
       st.integers(1, 6))
def test_charpoly_stack_matches_scalar(p, seed, n, k):
    ctx = CTX[p]
    rng = np.random.default_rng(seed)
    # mostly zero entries: pivots often sit below the subdiagonal, so the
    # reduction has to exchange rows and columns
    stack = rng.integers(0, ctx.q, (k, n, n)) * (rng.random((k, n, n)) < 0.25)
    got = km._charpoly_stack(ctx, stack)
    assert got.shape == (k, n + 1)
    assert [row.tolist() for row in got] == [charpoly_reference(Mat(ctx, A)) for A in stack]


def radical_reference(ctx, mats) -> Subspace:
    """Cohen-Ivanyos-Wales radical with one scalar charpoly per product."""
    g, n = mats.shape[0], mats.shape[-1]
    W = Subspace.full(ctx, g)
    lmax = 0
    while ctx.p ** (lmax + 1) <= n:
        lmax += 1
    for i in range(lmax + 1):
        if W.dim == 0:
            break
        flat = mats.reshape(g, n * n)
        cur = linalg._matmul_idx(ctx, W.basis, flat).reshape(W.dim, n, n)
        S = np.zeros((W.dim, W.dim), dtype=np.int64)
        for j1, y in enumerate(cur):
            for j2, z in enumerate(cur):
                c = charpoly_reference(Mat(ctx, linalg._matmul_idx(ctx, z, y)))[ctx.p ** i]
                for _ in range(i):
                    c = int(ctx.proot[c])
                S[j1, j2] = c
        K = kernel(Mat(ctx, S))
        if K.dim < W.dim:
            W = Subspace.from_rows(ctx, g, linalg._matmul_idx(ctx, K.basis, W.basis))
    return W


@pytest.mark.parametrize("p,d", [(3, d) for d in range(10)] + [(5, 5), (5, 12), (5, 19)])
def test_algebra_radical_matches_scalar_path(p, d):
    ctx = CTX[p]
    _, mats = km.end_algebra(km.v_dr(ctx, d, ctx.gen()))
    assert km.algebra_radical(ctx, mats) == radical_reference(ctx, mats)


def conjugated_module(ctx, rng, kind, d):
    """A family member (or a dual, or a direct sum of two) in a random
    basis, so the filtration is not read off coordinate vectors."""
    t = ctx.gen() + rng.randrange(ctx.p)
    if kind == "dual":
        M = km.dual(km.v_d(ctx, d, t))
    elif kind == "sum":
        M = km.direct_sum(km.v_d(ctx, d, t), km.v_d(ctx, rng.randrange(1, d + 1), t))
    else:
        M = km.v_dr(ctx, d, t) if kind == "vdr" else km.v_d(ctx, d, t)
    while True:
        N = conjugate_by(M, Mat(ctx, rand_rows(ctx, rng, M.dim, M.dim)))
        if N is not None:
            return N


@settings(max_examples=30, deadline=None)
@given(FIELDS, st.integers(0, 10**6), st.sampled_from(["vd", "vdr", "dual", "sum"]),
       st.integers(1, 12))
def test_s_filtration_matches_direct(ctx, seed, kind, d):
    M = conjugated_module(ctx, random.Random(seed), kind, min(d, ctx.p ** 2))
    fil = km.s_filtration(M)
    assert fil == s_filtration_direct(M)
    assert km.fixed_space(M) == fil[0]


# F_256 holds the top uint8 index 255 and F_289 is the first field whose
# word stacks are uint16
FLAG_FIELDS = [default_ctx(2, 2), default_ctx(2, 3), C3, C5, default_ctx(7),
               default_ctx(2, 8), default_ctx(17, 2)]


def ref_rank(ctx, X):
    return len(ref_rref_inplace(ctx, X.copy()))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FLAG_FIELDS + [default_ctx(3, 3)]), st.integers(0, 10**6),
       st.sampled_from([(0, 0), (0, 5), (5, 0), (24, 300), "small"]),
       st.sampled_from(["random", "zero", "dependent"]))
def test_row_profile_matches_rank_increments(ctx, seed, shape, fill):
    """_row_profile returns exactly the k with rank X[:k+1] > rank X[:k],
    and leaves X as it was.  Dependent draws repeat rows, zero some and
    put in combinations of earlier rows."""
    rng = random.Random(seed)
    k, n = (rng.randrange(13), rng.randrange(1, 13)) if shape == "small" else shape
    X = rand_rows(ctx, rng, k, n) if fill != "zero" else np.zeros((k, n), dtype=np.int64)
    if fill == "dependent":
        for i in range(1, k):
            a, b = rng.randrange(i), rng.randrange(i)
            pick = rng.randrange(4)
            if pick == 0:
                X[i] = X[a]
            elif pick == 1:
                X[i] = 0
            elif pick == 2:
                f, g = rng.randrange(ctx.q), rng.randrange(ctx.q)
                X[i] = ctx.add[ctx.mul[f, X[a]], ctx.mul[g, X[b]]]
    before = X.copy()
    want = [i for i in range(k) if ref_rank(ctx, X[:i + 1]) > ref_rank(ctx, X[:i])]
    assert linalg._row_profile(ctx, X).tolist() == want
    assert np.array_equal(X, before)


@pytest.mark.parametrize("build,dims", [
    (lambda: km.HModule(C3, Mat.identity(C3, 0), Mat.identity(C3, 0)), (0,)),
    (lambda: km.trivial_module(C3), (1,)),
    (lambda: km.regular_module(C2), (1, 3, 4)),
    (lambda: km.direct_sum(km.direct_sum(*[km.trivial_module(C3)] * 2), km.trivial_module(C3)),
     (3,)),
], ids=["zero", "trivial", "regular-p2", "trivial3"])
def test_flag_edge_modules(build, dims):
    # dim 0, dim 1, the regular module at p = 2, and a module whose S_0 is
    # all of it: the flag has dim M - dim S_0 rows, none of them of degree 0
    M = build()
    fil = s_filtration_direct(M)
    assert km.filtration_dims(M) == dims == tuple(S.dim for S in fil)
    assert km.s_filtration(M) == fil
    R, deg = km._flag(M)
    assert R.shape == (M.dim - dims[0], M.dim) and (deg > 0).all()
    # a zero row reads -1 and a nonzero S_0 row 0; every basis row of
    # every level reads the first level holding it
    V = np.vstack([np.zeros((1, M.dim), dtype=np.int64)] + [S.basis for S in fil])
    want = [-1] + [next(n for n, S in enumerate(fil) if S.reduce(v) is not None)
                   for v in V[1:]]
    assert km.ddeg_rows(M, V).tolist() == want
    assert km.ddeg_rows(M, fil[0].basis).tolist() == [0] * dims[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FLAG_FIELDS), st.integers(0, 10**6),
       st.sampled_from(["vd", "vdr", "dual", "sum", "sub", "zero"]), st.integers(1, 49))
def test_flag_matches_direct(ctx, seed, kind, d):
    """The flag's dims, its first dim as the fixed-space dim, ddeg_rows and
    the levels s_filtration forms on request equal the filtration from its
    definition, on a module in a random basis; so does ddeg, row by row,
    which reads the orbit and not the flag.  The rows tested are random,
    pushed down by random words, and every basis row of every level, so
    each degree comes up; one is zero.  At p = 7 the family modules are
    v_d of dim at most 16, since v_dr has dim 48 there."""
    rng = random.Random(seed)
    p, t = ctx.p, ctx.gen() + rng.randrange(ctx.p)
    d = 1 + (d - 1) % min(p * p, 16)
    if kind == "zero":
        M = km.sub_generated(km.v_d(ctx, d, t), [np.zeros(d, dtype=np.int64)])[0]
    elif kind == "vdr" and p < 7:
        M = km.v_dr(ctx, d, t)
    elif kind == "sub":
        N = km.v_d(ctx, d, t)
        u = word_matrix(N, rng.randrange(p), rng.randrange(p)).apply(rand_rows(ctx, rng, 1, d)[0])
        M = km.sub_generated(N, [u])[0]
    else:
        M = km.v_d(ctx, d, t)
        if kind == "dual":
            M = km.dual(M)
        elif kind == "sum":
            M = km.direct_sum(M, km.v_dr(ctx, rng.randrange(p * p), t) if p < 7
                              else km.v_d(ctx, rng.randrange(1, 8), t))
    if M.dim:
        N = conjugate_by(M, Mat(ctx, rand_rows(ctx, rng, M.dim, M.dim)))
        M = M if N is None else N
    fil = s_filtration_direct(M)
    dims = km.filtration_dims(M)
    assert dims == tuple(S.dim for S in fil)
    assert dims[0] == km.fixed_space(M).dim
    assert km.s_filtration(M) == fil
    V = rand_rows(ctx, rng, 6, M.dim)
    for row in V[1:3]:
        row[:] = word_matrix(M, rng.randrange(p), rng.randrange(p)).apply(row)
    V[0] = 0
    V = np.vstack([V] + [S.basis for S in fil])
    inside = np.array([S.reduce_rows(V)[1] for S in fil])  # the last level is all of M
    want = np.where(V.any(axis=1), inside.argmax(axis=0), -1)
    assert km.ddeg_rows(M, V).tolist() == want.tolist()
    assert [km.ddeg(M, v) for v in V] == want.tolist()
    with pytest.raises(ShapeMismatch):
        km.ddeg(M, np.zeros(M.dim + 1, dtype=np.int64))


@settings(max_examples=30, deadline=None)
@given(FIELDS, st.integers(0, 10**6), st.sampled_from(["vd", "vdr", "dual", "sum"]),
       st.integers(1, 12), st.integers(1, 3))
def test_sub_generated_matches_closure(ctx, seed, kind, d, k):
    """sub_generated, one product with the word stack, spans the same
    subspace and induces the same module as closing the span under sigma
    and tau; vectors are pushed down by random words so that proper
    submodules come up, and one may be zero."""
    rng = random.Random(seed)
    M = conjugated_module(ctx, rng, kind, min(d, ctx.p ** 2))
    V = rand_rows(ctx, rng, k, M.dim)
    for row in V:
        row[:] = word_matrix(M, rng.randrange(ctx.p), rng.randrange(ctx.p)).apply(row)
    if rng.random() < 0.3:
        V[rng.randrange(k)] = 0
    sub, E = km.sub_generated(M, V)
    W = sub_generated_closure(M, V)
    assert np.array_equal(E.data.T, W.basis)
    assert sub == km.sub_module_on(M, W)[0]


@pytest.mark.parametrize("p,kind,d", [(3, "vd", 9), (3, "vdr", 4), (5, "vd", 23), (5, "vdr", 12)])
def test_flag_takes_at_most_dim_pivot_steps(monkeypatch, p, kind, d):
    # one row rank profile of all word rows of degree >= 1, whose pivot
    # steps are the flag rows: dim M - dim S_0 steps in one call, and no
    # _rref_inplace call
    ctx = CTX[p]
    M = _module(ctx, kind, d)
    M = km.HModule(ctx, M.Msigma, M.Mtau)  # a flag of its own, not the shared module's
    eliminations = record(monkeypatch, linalg._rref_inplace)
    steps = record(monkeypatch, linalg._row_profile, lambda args, rows: len(rows))
    R, _ = km._flag(M)
    dims = km.filtration_dims(M)
    assert eliminations == [] and not hasattr(km, "_rref_inplace")
    assert steps == [len(R)] == [M.dim - dims[0]]
    assert 0 < len(R) < M.dim


@pytest.mark.parametrize("p,d", [(3, 4), (5, 12)])
def test_algebra_radical_charpolys_are_stacked(monkeypatch, p, d):
    ctx = CTX[p]
    _, mats = km.end_algebra(km.v_dr(ctx, d, ctx.gen()))
    g, n = mats.shape[0], mats.shape[-1]
    levels = int(math.log(n, p) + 1e-9)
    calls = record(monkeypatch, km._charpoly_stack)
    km.algebra_radical(ctx, mats)
    # every level above 0 takes its g'^2 <= g^2 products in stacks of at
    # most RADICAL_CHUNK; level 0 is the trace form and takes none
    sizes = [A.shape[0] for _, A in calls]
    assert 0 < len(sizes) <= levels * math.ceil(g * g / km.RADICAL_CHUNK)
    assert max(sizes) <= km.RADICAL_CHUNK
