import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repcurve.errors import ContextMismatch, ShapeMismatch
from repcurve.ff import default_ctx
from repcurve.linalg import (Mat, Subspace, _matpow_idx, invert, kernel, rank, rref, solve,
                             solve_matrix)
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
    b = A.apply(x)
    y = solve(A, b)
    assert y is not None
    assert np.array_equal(A.apply(y), b)


def test_rref_is_idempotent_and_pivoted():
    import random
    rng = random.Random(7)
    A = rand_mat(rng, 5, 4)
    R, rk = rref(A)
    R2, rk2 = rref(R)
    assert R == R2 and rk == rk2
    for r in range(R.data.shape[0]):
        row = R.data[r]
        if r >= rk:
            assert not row.any()
            continue
        c = int(np.flatnonzero(row)[0])
        assert row[c] == 1
        col = R.data[:, c].copy()
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


def test_matmul_shape_check():
    A = Mat.zeros(CTX, 2, 3)
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
    Z = Mat.zeros(CTX, 3, 3)
    assert nilpotent_partition(Z) == (1, 1, 1)
    B = Mat(CTX, np.array([[0, 1, 0, 0], [0, 0, 0, 0],
                           [0, 0, 0, 1], [0, 0, 0, 0]], dtype=np.int64))
    assert nilpotent_partition(B) == (2, 2)
