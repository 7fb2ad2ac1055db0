"""Isomorphism and indecomposability decision procedures."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repcurve.errors import ContextMismatch, Undecided
from repcurve.ff import default_ctx, enumerate_nonprime
from repcurve.kmod import (HModule, augmentation_ideal, direct_sum, dual,
                           end_algebra, hom_space, is_indecomposable, is_isomorphic,
                           profile, regular_module, s_filtration, trivial_module,
                           v_d, v_dr)
from repcurve.linalg import Mat, Subspace, intertwiner_space, invert

C3 = default_ctx(3)
T = C3.gen()


def check_witness(dec, M, N):
    X = dec.witness
    assert X is not None
    assert X @ M.Msigma == N.Msigma @ X
    assert X @ M.Mtau == N.Mtau @ X
    assert invert(X) is not None


def test_equal_modules_identity_witness():
    M = v_d(C3, 4, T)
    dec = is_isomorphic(M, v_d(C3, 4, T))
    assert dec.verdict == "YES" and dec.method == "equal-matrices"
    check_witness(dec, M, M)


def test_dim_mismatch_short_circuits():
    dec = is_isomorphic(v_d(C3, 4, T), v_d(C3, 5, T))
    assert dec.verdict == "NO" and dec.method == "dim-mismatch"


def test_different_twists_not_isomorphic():
    dec = is_isomorphic(v_d(C3, 5, T), v_d(C3, 5, T + 1))
    assert dec.verdict == "NO"
    assert dec.witness is None


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatch):
        is_isomorphic(v_d(C3, 2, T), v_d(default_ctx(5), 2, default_ctx(5).gen()))


@pytest.mark.parametrize("d", range(0, 9))
def test_vdr_duality_with_verified_witness(d):
    A = dual(v_dr(C3, d, T))
    B = v_dr(C3, 8 - d, T)
    dec = is_isomorphic(A, B, seed=1)
    assert dec.verdict == "YES"
    check_witness(dec, A, B)


def test_max_members_are_group_algebra_objects():
    dec = is_isomorphic(v_d(C3, 9, T), regular_module(C3))
    assert dec.verdict == "YES"
    check_witness(dec, v_d(C3, 9, T), regular_module(C3))
    dec = is_isomorphic(v_d(C3, 8, T), augmentation_ideal(C3))
    assert dec.verdict == "YES"


def test_digit_class_collapse():
    # same leading base-3 digit of d gives the same quotient member
    dec = is_isomorphic(v_dr(C3, 3, T), v_dr(C3, 5, T), seed=2)
    assert dec.verdict == "YES"
    check_witness(dec, v_dr(C3, 3, T), v_dr(C3, 5, T))
    assert is_isomorphic(v_dr(C3, 2, T), v_dr(C3, 5, T)).verdict == "NO"


def test_hom_and_end_dimensions():
    M = v_d(C3, 5, T)
    assert hom_space(M, M).dim == end_algebra(M)[0].dim
    # maps between distinct twists factor through trivial layers,
    # so the hom dim drops below the endomorphism dim
    for d in (2, 5):
        A, B = v_d(C3, d, T), v_d(C3, d, T + 1)
        assert hom_space(A, B).dim < hom_space(A, A).dim
    assert hom_space(v_d(C3, 2, T), v_d(C3, 2, T + 1)).dim == 1


def test_isomorphism_is_seed_stable():
    A = dual(v_dr(C3, 4, T))
    B = v_dr(C3, 4, T)
    d1 = is_isomorphic(A, B, seed=0)
    d2 = is_isomorphic(A, B, seed=0)
    assert d1.verdict == d2.verdict == "YES"
    assert d1.witness == d2.witness
    assert is_isomorphic(A, B, seed=99).verdict == "YES"


def test_filtration_separated_pair_skips_end_and_scan():
    # the top base-5 digits of 7 and 12 differ, and so do the filtrations
    C5 = default_ctx(5)
    M, N = v_dr(C5, 7, C5.gen()), v_dr(C5, 12, C5.gen())
    dec = is_isomorphic(M, N)
    assert (dec.verdict, dec.method) == ("NO", "profile-mismatch")
    for X in (M, N):
        assert "jscan" not in X._cache and "end" not in X._cache
    assert [s.dim for s in s_filtration(M)] != [s.dim for s in s_filtration(N)]


BETAS = enumerate_nonprime(C3)


def conjugate(M, rng):
    """M written in a random basis of F_9^dim."""
    while True:
        P = Mat(C3, np.array([[rng.randrange(C3.q) for _ in range(M.dim)]
                              for _ in range(M.dim)], dtype=np.int64))
        Pinv = invert(P)
        if Pinv is not None:
            return HModule(C3, P @ M.Msigma @ Pinv, P @ M.Mtau @ Pinv)


@st.composite
def modules(draw, dim):
    """v_d, v_dr (dim 8 only) or a sum of two v_d of dimension dim, then
    perhaps dualized and perhaps conjugated into a random basis."""
    beta = draw(st.sampled_from(BETAS))
    kind = draw(st.sampled_from(("vd", "vdr", "sum") if dim == 8 else ("vd", "sum")))
    if kind == "vd":
        M = v_d(C3, dim, beta)
    elif kind == "vdr":
        M = v_dr(C3, draw(st.integers(0, 8)), beta)
    else:
        a = draw(st.integers(1, dim - 1))
        M = direct_sum(v_d(C3, a, beta), v_d(C3, dim - a, draw(st.sampled_from(BETAS))))
    if draw(st.booleans()):
        M = dual(M)
    if draw(st.booleans()):
        M = conjugate(M, random.Random(draw(st.integers(0, 2**32))))
    return M


@st.composite
def equal_dim_pairs(draw):
    dim = draw(st.sampled_from((4, 8)))
    M = draw(modules(dim))
    if draw(st.integers(0, 3)) == 0:
        return M, conjugate(M, random.Random(draw(st.integers(0, 2**32))))
    return M, draw(modules(dim))


def reference_isomorphic(M, N, rng) -> bool:
    """Whether one of 64 random elements of Hom(M, N), taken from the
    Kronecker-product solve, is invertible.  When M and N are isomorphic
    with at most two indecomposable summands, more than 3/4 of Hom(M, N)
    is invertible over F_9, so an isomorphism is missed with odds below
    1e-38."""
    H = intertwiner_space([M.Msigma, M.Mtau], [N.Msigma, N.Mtau])
    for _ in range(64):
        X = np.zeros(H.ambient, dtype=np.int64)
        for row in H.basis:
            X = C3.add[X, C3.mul[rng.randrange(C3.q), row]]
        if invert(Mat(C3, X.reshape(N.dim, M.dim))) is not None:
            return True
    return False


@settings(max_examples=40, deadline=None)
@given(equal_dim_pairs(), st.integers(0, 2**32))
def test_iso_method_and_verdict_match_references(pair, seed):
    M, N = pair
    dec = is_isomorphic(M, N)
    same_matrices = M.Msigma == N.Msigma and M.Mtau == N.Mtau
    assert (dec.method == "profile-mismatch") == (profile(M) != profile(N)
                                                  and not same_matrices)
    assert dec.isomorphic == reference_isomorphic(M, N, random.Random(seed))
    if dec.isomorphic:
        check_witness(dec, M, N)


@pytest.mark.parametrize("d", range(1, 10))
def test_vd_indecomposable_via_fixed_space(d):
    dec = is_indecomposable(v_d(C3, d, T))
    assert dec.verdict == "INDECOMPOSABLE" and dec.certificate == "T1"


@pytest.mark.parametrize("d", range(0, 10))
def test_vdr_indecomposable_via_radical(d):
    dec = is_indecomposable(v_dr(C3, d, T), tiers=("T3",))
    assert dec.verdict == "INDECOMPOSABLE" and dec.certificate == "T3"
    assert dec.detail["semisimple_dim"] == 1


def test_restricted_tiers_can_refuse():
    # the quotient member has a 2-dimensional fixed space, so T1 alone
    # reaches no decision
    with pytest.raises(Undecided):
        is_indecomposable(v_dr(C3, 4, T), tiers=("T1",))


def check_split(M, dec):
    """The T2 certificate is JSON data: two bases, as rows of element
    texts, of complementary sigma- and tau-invariant subspaces."""
    assert dec.verdict == "DECOMPOSABLE" and dec.certificate == "T2"
    assert json.loads(json.dumps(dec.to_json())) == dec.to_json()
    ker = Subspace.from_rows(M.ctx, M.dim, Mat.from_rows(M.ctx, dec.detail["kernel"]).data)
    im = Subspace.from_rows(M.ctx, M.dim, Mat.from_rows(M.ctx, dec.detail["image"]).data)
    assert [ker.dim, im.dim] == dec.detail["split_dims"]
    assert 0 < ker.dim < M.dim
    assert Subspace.from_rows(M.ctx, M.dim, np.vstack([ker.basis, im.basis])).dim == M.dim
    for W in (ker, im):
        for g in (M.Msigma, M.Mtau):
            assert W.reduce_rows((g @ Mat(M.ctx, W.basis.T.copy())).data.T)[1].all()


def test_decomposable_detected_with_split():
    M = direct_sum(v_d(C3, 2, T), trivial_module(C3))
    check_split(M, is_indecomposable(M))
    N = direct_sum(v_d(C3, 3, T), v_d(C3, 3, T))
    check_split(N, is_indecomposable(N))


def test_decomposable_pair_of_twists():
    M = direct_sum(v_d(C3, 2, T), v_d(C3, 2, T + 1))
    assert is_indecomposable(M, tiers=("T3",)).verdict == "DECOMPOSABLE"
