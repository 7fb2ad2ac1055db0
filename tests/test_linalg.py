import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repcurve.errors import ContextMismatch, ShapeMismatch
from repcurve.ff import default_ctx
from repcurve.linalg import (Mat, Subspace, _matpow_idx, _rank_stack, _row_profile, invert,
                             kernel, rank, solve_matrix)
from reference import (contains, contains_space, nilpotent_partition, preimage,
                       subspace_intersect, subspace_sum)

CTX = default_ctx(3)


def rand_mat(rng, rows, cols):
    data = np.array([[rng.randrange(CTX.q) for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64)
    return Mat(CTX, data)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_rank_plus_nullity(seed, n):
    import random
    A = rand_mat(random.Random(seed), n, n)
    assert rank(A) + kernel(A).dim == n


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_inverse_roundtrip(seed, n):
    import random
    A = rand_mat(random.Random(seed), n, n)
    X = invert(A)
    if X is None:
        assert rank(A) < n
    else:
        assert X @ A == Mat.identity(CTX, n)
        assert A @ X == Mat.identity(CTX, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_solve_consistency(seed):
    import random
    rng = random.Random(seed)
    A = rand_mat(rng, 4, 3)
    x = np.array([rng.randrange(CTX.q) for _ in range(3)], dtype=np.int64)
    b = Mat(CTX, A.apply(x)[:, None])
    y = solve_matrix(A, b)
    assert y is not None
    assert A @ y == b


def test_rref_is_idempotent_and_pivoted():
    import random
    rng = random.Random(7)
    A = rand_mat(rng, 5, 4)
    W = Subspace.from_rows(CTX, 4, A.data)
    assert Subspace.from_rows(CTX, 4, W.basis) == W and W.dim == rank(A)
    for r, row in enumerate(W.basis):
        c = int(np.flatnonzero(row)[0])
        assert row[c] == 1
        col = W.basis[:, c].copy()
        col[r] = 0
        assert not col.any()


def test_solve_matrix_none_for_inconsistent():
    A = Mat(CTX, np.array([[1, 0], [0, 0]], dtype=np.int64))
    B = Mat(CTX, np.array([[0, 0], [1, 0]], dtype=np.int64))
    assert solve_matrix(A, B) is None


def test_solve_matrix_refuses_a_right_side_over_another_field():
    # the indices 3 and 8 of F_9 name other elements of F_25
    F25 = default_ctx(5)
    with pytest.raises(ContextMismatch):
        solve_matrix(Mat.identity(F25, 2), Mat(CTX, np.array([[3], [8]], dtype=np.int64)))


@pytest.mark.parametrize("ctx", [default_ctx(2, 8), default_ctx(17, 2)], ids=["F256", "F289"])
@pytest.mark.parametrize("seed", range(4))
def test_a_narrow_copy_eliminates_like_its_int64_original(ctx, seed):
    # the word stacks of kmod reach the eliminations at uint8 (q <= 256) or
    # uint16; each elimination widens its own working copy, since the table
    # offsets f*q + b overflow a narrow array.  Rows 6 and 7 combine earlier
    # rows, so the kernel, the profile and the stacked ranks see dependent
    # rows, and every draw holds the top index q - 1
    rng = np.random.default_rng(seed)
    A = rng.integers(ctx.q, size=(8, 10))
    A[0, 0] = ctx.q - 1
    A[6] = ctx.add[ctx.mul[rng.integers(1, ctx.q), A[1]], ctx.mul[ctx.q - 1, A[4]]]
    A[7] = ctx.mul[rng.integers(1, ctx.q), A[6]]
    N = A.astype(np.min_scalar_type(ctx.q - 1))
    before = N.copy()
    assert N.dtype == (np.uint8 if ctx.q <= 256 else np.uint16)
    assert kernel(Mat(ctx, N)) == kernel(Mat(ctx, A)) and kernel(Mat(ctx, A)).dim == 4
    assert rank(Mat(ctx, N)) == rank(Mat(ctx, A)) == 6
    assert np.array_equal(_row_profile(ctx, N), _row_profile(ctx, A))
    # one invertible square and one that is not
    inverses = [invert(Mat(ctx, square)) for square in (A[:6, :6], A[2:, 4:])]
    assert inverses[0] is not None and inverses[1] is None
    assert [invert(Mat(ctx, N[:6, :6])), invert(Mat(ctx, N[2:, 4:]))] == inverses
    stack = A.reshape(2, 4, 10)
    assert np.array_equal(_rank_stack(ctx, stack.astype(N.dtype)), _rank_stack(ctx, stack))
    assert np.array_equal(_rank_stack(ctx, N.reshape(2, 4, 10), profile=True),
                          _rank_stack(ctx, stack, profile=True))
    assert np.array_equal(N, before)


def test_matmul_shape_check():
    A = Mat(CTX, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ShapeMismatch):
        _ = A @ A


def test_matpow_against_repeated_product():
    import random
    A = rand_mat(random.Random(3), 4, 4)
    P = Mat.identity(CTX, 4)
    for e in range(5):
        assert np.array_equal(_matpow_idx(CTX, A.data, e), P.data)
        P = P @ A


def test_subspace_reduce_and_contains():
    rows = np.array([[1, 0, 2, 0], [0, 0, 1, 1]], dtype=np.int64)
    W = Subspace.from_rows(CTX, 4, rows)
    assert W.dim == 2
    v = CTX.add[rows[0], CTX.mul[4, rows[1]]]  # combination with coeff idx 4
    assert contains(W, v)
    coords = W.reduce(v)
    assert coords is not None and len(coords) == 2
    assert not contains(W, np.array([0, 1, 0, 0], dtype=np.int64))
    assert W.reduce(np.array([0, 1, 0, 0], dtype=np.int64)) is None
    # one row of every entry kind: t, the text 1 + 2t, the coefficients of
    # 2 + t, and an int reduced mod p
    mixed = [CTX.gen(), "1,2", (2, 1), 4]
    want = np.array([[3, 7, 5, 1]], dtype=np.int64)
    assert Subspace.from_rows(CTX, 4, [mixed]) == Subspace.from_rows(CTX, 4, want)
    assert np.array_equal(Mat.from_rows(CTX, [mixed]).data, want)
    with pytest.raises(ContextMismatch):
        Subspace.from_rows(CTX, 4, [[default_ctx(5).gen(), 0, 0, 0]])


def test_sum_and_intersection_dimension_formula():
    import random
    rng = random.Random(11)
    for _ in range(20):
        U = Subspace.from_rows(CTX, 5, rand_mat(rng, 2, 5).data)
        W = Subspace.from_rows(CTX, 5, rand_mat(rng, 3, 5).data)
        s = subspace_sum(U, W)
        i = subspace_intersect(U, W)
        assert s.dim + i.dim == U.dim + W.dim
        assert contains_space(s, U) and contains_space(s, W)
        assert contains_space(U, i) and contains_space(W, i)


def test_preimage():
    # N maps e1 -> 0, e2 -> e1; preimage of span(e1) is everything
    N = Mat(CTX, np.array([[0, 1], [0, 0]], dtype=np.int64))
    W = Subspace.from_rows(CTX, 2, np.array([[1, 0]], dtype=np.int64))
    assert preimage(N, W).dim == 2
    Z = Subspace.zero(CTX, 2)
    assert preimage(N, Z).dim == 1


def test_nilpotent_partition_known_shapes():
    # single Jordan block of size 3
    J = Mat(CTX, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.int64))
    assert nilpotent_partition(J) == (3,)
    Z = Mat(CTX, np.zeros((3, 3), dtype=np.int64))
    assert nilpotent_partition(Z) == (1, 1, 1)
    B = Mat(CTX, np.array([[0, 1, 0, 0], [0, 0, 0, 0],
                           [0, 0, 0, 1], [0, 0, 0, 0]], dtype=np.int64))
    assert nilpotent_partition(B) == (2, 2)
