"""Constructors, filtrations, degrees, Jordan data, cores, JSON."""

import numpy as np
import pytest

from repcurve import curvefam as cf
from repcurve import kmod as km
from repcurve.errors import (BadDimension, ContextMismatch, NotInvariant,
                             PrimeFieldElement, ShapeMismatch, Undecided, UnlabeledModule,
                             ZeroPoint, ZeroVector)
from repcurve.ff import default_ctx, frobenius
from repcurve.kmod import (HModule, apply_word, augmentation_ideal,
                           binom_mod_p, case_ii_core, constant_type_over_scan,
                           ddeg, ddeg_prime, digits_p, direct_sum, dual, fixed_space,
                           generic_jordan_type, hom_space, jordan_scan,
                           jordan_type_at,
                           module_from_json, module_to_json, profile,
                           quotient, regular_module, s_filtration, s_p,
                           sub_generated, sub_module_on, trivial_module, v_d,
                           v_dr, vdr_quotient)
from repcurve.linalg import Mat, Subspace
from reference import (contains_space, dominance_compare, matpow, s_filtration_direct, vdr_eta,
                       vdr_omega)

C3 = default_ctx(3)
C5 = default_ctx(5)
T3 = C3.gen()
T5 = C5.gen()


def test_digit_helpers():
    assert digits_p(11, 3) == (2, 0, 1)
    assert digits_p(12, 5, width=2) == (2, 2)
    assert s_p(8, 3) == 4
    assert s_p(0, 3) == 0
    # Lucas: C(7,2) mod 3 via digits (1,2) choose (2,0)
    assert binom_mod_p(7, 2, 3) == (binom_mod_p(1, 2, 3) * binom_mod_p(2, 0, 3)) % 3


@pytest.mark.parametrize("ctx,beta", [(C3, "0,1"), (C3, "1,2"), (C5, "0,1"), (C5, "2,3")],
                         ids=["F9-t", "F9-1+2t", "F25-t", "F25-2+3t"])
@pytest.mark.parametrize("which", ["d=1", "d=p", "d=p^2-1", "d=p^2"])
def test_vd_action_is_binomial_and_order_p(ctx, beta, which):
    # entries against the scalar formula, independent of the shared table
    p = ctx.p
    beta = ctx.from_text(beta)
    d = {"d=1": 1, "d=p": p, "d=p^2-1": p * p - 1, "d=p^2": p * p}[which]
    M = v_d(ctx, d, beta)
    S, T = M.Msigma, M.Mtau
    assert S @ T == T @ S
    assert matpow(S, p) == Mat.identity(ctx, M.dim)
    assert matpow(T, p) == Mat.identity(ctx, M.dim)
    for n in range(M.dim):
        for i in range(M.dim):
            c = binom_mod_p(n, i, p)
            assert S.data[i, n] == c
            want = ctx.mul[c, ctx.pow_idx(beta.idx, n - i)] if i <= n else 0
            assert T.data[i, n] == want


def test_vd_validation():
    with pytest.raises(BadDimension):
        v_d(C3, 0, T3)
    with pytest.raises(BadDimension):
        v_d(C3, 10, T3)
    with pytest.raises(PrimeFieldElement):
        v_d(C3, 4, C3.el(2))


def test_named_modules():
    R = regular_module(C3)
    assert R.dim == 9 and fixed_space(R).dim == 1
    A = augmentation_ideal(C3)
    assert A.dim == 8 and fixed_space(A).dim == 1
    assert trivial_module(C3).dim == 1


@pytest.mark.parametrize("d", range(0, 10))
def test_vdr_dimension_and_labels(d):
    M = v_dr(C3, d, T3)
    assert M.dim == (9 if d == 9 else 8)
    etas = [int(l[3:]) for l in M.labels if l.startswith("eta")]
    ws = [int(l[1:]) for l in M.labels if not l.startswith("eta")]
    assert etas == [i for i in range(1, 9) if i % 3 != 0 or i > d]
    assert ws == [i for i in range(d) if i % 3 == 2]


def test_vdr_rewriting_relations():
    # eta_0 and eta_{p|i, i <= d} die; w-classes equal -1/i times eta_i.
    # The classes are read through the paper's quotient map, and v_dr has
    # the same matrices and labels
    M = vdr_quotient(C3, 5, T3)
    N = v_dr(C3, 5, T3)
    assert M == N and M.labels == N.labels
    assert not vdr_eta(M, 0).any()
    assert not vdr_eta(M, 3).any()
    assert np.array_equal(vdr_eta(M, 2), M.basis_vector("eta2"))
    lhs = vdr_omega(M, 1)
    rhs = M.ctx.mul[(-(M.ctx.el(2).inverse())).idx, M.basis_vector("eta2")]
    assert np.array_equal(lhs, rhs)


def test_dual_and_direct_sum_dims():
    M = v_d(C3, 5, T3)
    D = dual(M)
    assert D.dim == 5
    assert dual(dual(M)).Msigma == M.Msigma
    S = direct_sum(M, trivial_module(C3))
    assert S.dim == 6
    assert fixed_space(S).dim == 2
    # a sum with an unlabeled summand has no labels, in either order
    N = HModule(C3, Mat.identity(C3, 1), Mat.identity(C3, 1))
    assert N.labels is None
    assert direct_sum(M, N).labels is None and direct_sum(N, M).labels is None


def test_sub_quotient_roundtrip():
    M = v_d(C3, 6, T3)
    fil = s_filtration(M)
    W = fil[1]
    sub, E = sub_module_on(M, W)
    assert sub.dim == W.dim
    # embedding intertwines the actions
    assert M.Msigma @ E == E @ sub.Msigma
    Q, proj = quotient(M, W)
    assert Q.dim == M.dim - W.dim
    assert Q.Msigma @ proj == proj @ M.Msigma
    bad = Subspace.from_rows(C3, 6, np.eye(1, 6, 1, dtype=np.int64))
    with pytest.raises(NotInvariant):
        sub_module_on(M, bad)


def _projection_times_basis_change(ctx, Q, P, W, reps):
    """P C for C = [W | reps] as columns, and the [0 | I] it should be."""
    C = Mat(ctx, np.vstack([W.basis, reps]).T.copy())
    want = np.hstack([np.zeros((Q.dim, W.dim), dtype=np.int64), np.eye(Q.dim, dtype=np.int64)])
    return (P @ C).data, want


def test_quotient_projection_inverts_the_basis_change():
    # default reps: the standard vectors off W's pivots
    M = v_d(C3, 6, T3)
    W = s_filtration(M)[1]
    Q, P = quotient(M, W)
    reps = np.delete(np.eye(M.dim, dtype=np.int64), W.pivots, axis=0)
    got, want = _projection_times_basis_change(C3, Q, P, W, reps)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("ctx,d", [(C3, 5), (C3, 9), (C5, 12)])
def test_vdr_quotient_projection_inverts_the_basis_change(ctx, d):
    # K is spanned by k_i = (w_i, 0) + i (0, w_(i-1)) for 0 <= i <= d, with
    # w_(p^2) = 0, and the reps are the standard vectors the labels name:
    # eta_i at i and w_i at p^2 + i
    pp = ctx.p ** 2
    Q = vdr_quotient(ctx, d, ctx.gen())
    K = np.zeros((d + 1, pp + d), dtype=np.int64)
    for i in range(d + 1):
        if i < pp:
            K[i, i] = 1
        if i:
            K[i, pp + i - 1] = i % ctx.p
    W = Subspace.from_rows(ctx, pp + d, K)
    cols = [int(lab[3:]) if lab.startswith("eta") else pp + int(lab[1:]) for lab in Q.labels]
    reps = np.eye(pp + d, dtype=np.int64)[cols]
    got, want = _projection_times_basis_change(ctx, Q, Mat(ctx, Q.meta["proj"]), W, reps)
    assert np.array_equal(got, want)


def test_quotient_errors():
    M = v_d(C3, 6, T3)
    W = s_filtration(M)[1]
    eye = np.eye(M.dim, dtype=np.int64)
    # the span of w1 is not invariant; the other standard vectors complement it
    bad = Subspace.from_rows(C3, 6, eye[[1]])
    with pytest.raises(NotInvariant, match="quotient by a non-invariant subspace"):
        quotient(M, bad, reps=eye[[0, 2, 3, 4, 5]])
    # reps holding a vector of W do not complement it, whether W is
    # invariant or not: the change of basis is tested first
    reps = np.delete(eye, W.pivots, axis=0)
    reps[0] = W.basis[0]
    with pytest.raises(ShapeMismatch, match="do not complement"):
        quotient(M, W, reps=reps)
    with pytest.raises(ShapeMismatch, match="do not complement"):
        quotient(M, bad, reps=eye[[1, 2, 3, 4, 5]])
    with pytest.raises(ShapeMismatch, match="ambient"):
        quotient(M, Subspace.from_rows(C3, 5, eye[[0], :5]))


@pytest.mark.parametrize("construction", [sub_module_on, quotient])
def test_subspace_over_another_field_is_refused(construction):
    # the F_9 fixed space of v_d(3, 5) has the ambient of v_d(5, 5) over F_25
    W = fixed_space(v_d(C3, 5, T3))
    with pytest.raises(ContextMismatch):
        construction(v_d(C5, 5, T5), W)


def test_sub_generated_spans():
    # generated span of w_n is the digit-dominance cone under n
    M = v_d(C3, 7, T3)
    sub6, _ = sub_generated(M, [M.basis_vector("w6")])
    assert sub6.dim == 3  # 6 = (2,0) base 3 dominates 0, 3, 6
    sub5, _ = sub_generated(M, [M.basis_vector("w5")])
    assert sub5.dim == 6  # 5 = (1,2) base 3 dominates 0..5
    both, _ = sub_generated(M, [M.basis_vector("w5"), M.basis_vector("w6")])
    assert both.dim == 7
    # 8 = (2,2) base 3 dominates every smaller index
    N = v_d(C3, 9, T3)
    whole, _ = sub_generated(N, [N.basis_vector("w8")])
    assert whole.dim == 9


@pytest.mark.parametrize("d", range(1, 10))
def test_filtration_matches_digit_counts(d):
    M = v_d(C3, d, T3)
    dims = [s.dim for s in s_filtration(M)]
    top = max(s_p(i, 3) for i in range(d))
    assert dims == [sum(1 for i in range(d) if s_p(i, 3) <= n)
                    for n in range(top + 1)]


@pytest.mark.parametrize("d", [1, 4, 8, 9])
def test_filtration_two_definitions_agree(d):
    # preimage recursion vs joint kernels of all length-(n+1) words
    M = v_d(C3, d, T3)
    a = s_filtration(M)
    b = s_filtration_direct(M)
    assert [s.dim for s in a] == [s.dim for s in b]
    for u, w in zip(a, b):
        assert contains_space(u, w) and contains_space(w, u)


def test_ddeg_on_labels():
    M = v_d(C3, 9, T3)
    assert ddeg(M, M.basis_vector("w0")) == 0
    assert ddeg(M, M.basis_vector("w8")) == 4
    assert ddeg(M, np.zeros(9, dtype=np.int64)) == -1


@pytest.mark.parametrize("ctx,beta,d",
                         [(C3, T3, d) for d in range(0, 10)]
                         + [(C5, T5, d) for d in range(0, 26)],
                         ids=[str(d) for d in range(0, 10)]
                         + [f"p5-{d}" for d in range(0, 26)])
def test_ddeg_prime_agrees(ctx, beta, d):
    import random
    rng = random.Random(d)
    M = v_dr(ctx, d, beta)
    zero = np.zeros(M.dim, dtype=np.int64)
    assert ddeg(M, zero) == ddeg_prime(M, zero) == -1
    # each basis vector checks its label's degree alone; in a random
    # vector the largest label degree hides the others
    for v in np.eye(M.dim, dtype=np.int64):
        assert ddeg(M, v) == ddeg_prime(M, v)
    for _ in range(50):
        v = np.array([rng.randrange(ctx.q) for _ in range(M.dim)], dtype=np.int64)
        assert ddeg(M, v) == ddeg_prime(M, v)
    # the eta rule needs the v_dr labels; a v_d module is refused
    with pytest.raises(UnlabeledModule):
        ddeg_prime(v_d(ctx, 2, beta), np.ones(2, dtype=np.int64))


def test_fixed_space_dims_for_vdr():
    # two-dimensional until d reaches p^2 - p, then one-dimensional
    for d in range(0, 10):
        want = 2 if d < 6 else 1
        assert fixed_space(v_dr(C3, d, T3)).dim == want


def test_word_application():
    M = v_d(C3, 5, T3)
    v = M.basis_vector("w4")
    u = apply_word(M, (1, 1), v)
    S0, T0 = (Mat(C3, X) for X in M.gens0())
    w = S0.apply(T0.apply(v))
    assert np.array_equal(u, w)
    assert not apply_word(M, (3, 0), v).any()  # sigma0^3 = 0


def test_jordan_types():
    M = v_d(C3, 5, T3)
    assert jordan_type_at(M, 1, 0) == (3, 2)
    assert generic_jordan_type(M) == (3, 2)
    assert len(jordan_scan(M)) == 10
    # the pencil drops rank at b = -1/beta = t, a point outside F_3
    assert not constant_type_over_scan(M)
    assert dict(jordan_scan(M))[(1, T3.idx)] == (2, 2, 1)
    with pytest.raises(ZeroPoint):
        jordan_type_at(M, 0, 0)
    assert dominance_compare((3, 2), (3, 1, 1)) == 1
    assert dominance_compare((2, 2, 2), (3, 3)) == -1
    assert dominance_compare((3, 3), (3, 3)) == 0
    assert dominance_compare((4, 1, 1), (3, 3)) is None


def _dominance_maximum(types) -> tuple:
    top = [t for t in types if all(dominance_compare(t, u) in (0, 1) for u in types)]
    assert len(top) == 1
    return top[0]


@pytest.mark.parametrize("ctx,kind,d",
                         [(C3, "vd", d) for d in range(1, 10)]
                         + [(C3, "vdr", d) for d in range(0, 10)]
                         + [(C5, "vd", 7), (C5, "vd", 23), (C5, "vdr", 12)])
def test_generic_type_is_the_dominance_maximum(ctx, kind, d):
    # every v_d and v_dr at p = 3 and the p = 5 members of the jordan suite
    M = (v_d if kind == "vd" else v_dr)(ctx, d, ctx.gen())
    types = {t for _, t in jordan_scan(M)}
    assert generic_jordan_type(M) == _dominance_maximum(types)


def test_generic_type_of_incomparable_types_is_undecided(monkeypatch):
    M = v_d(C3, 6, T3)
    monkeypatch.setattr(km, "jordan_scan", lambda N: [((1, 0), (4, 1, 1)), ((0, 1), (3, 3))])
    with pytest.raises(Undecided, match="no dominance-maximum"):
        generic_jordan_type(M)


@pytest.mark.parametrize("b", ["0,1", "3,3"], ids=["t", "3+3t"])
def test_jordan_type_refuses_a_point_of_another_field(b):
    # F_25 points on a module over F_9: (1, t) would read an unrelated F_9
    # index and (1, 3 + 3t) one past the scan
    M = v_d(C3, 5, T3)
    with pytest.raises(ContextMismatch):
        jordan_type_at(M, 1, C5.from_text(b))
    with pytest.raises(ContextMismatch):
        jordan_type_at(M, C5.from_text(b), 1)


def test_jordan_scan_covers_extension_points():
    # on v_d(2), a*sigma0 + b*tau0 sends w1 to (a + b*beta) w0, so the type
    # drops to (1, 1) exactly at (1, -1/beta)
    M = v_d(C3, 2, T3)
    special = -(T3.inverse())
    assert jordan_type_at(M, 1, special) == (1, 1)
    scan = jordan_scan(M)
    assert [pt for pt, t in scan if t != (2,)] == [(1, special.idx)]
    assert {t for _, t in scan} == {(1, 1), (2,)}
    assert generic_jordan_type(M) == (2,)


def test_case_ii_core_vd():
    M = v_d(C3, 8, T3)
    core = case_ii_core(M, M.basis_vector("w5"))
    assert core.dim == 2
    assert fixed_space(M).dim == 1
    with pytest.raises(ZeroVector):
        case_ii_core(M, np.zeros(8, dtype=np.int64))


def test_core_twist_matches_negated_parameter():
    from repcurve.kmod import is_isomorphic
    M = v_d(C3, 7, T3)
    core = case_ii_core(M, M.basis_vector("w5"))
    assert is_isomorphic(core, v_d(C3, 2, -T3)).isomorphic
    N = v_dr(C3, 4, T3)
    ncore = case_ii_core(N, N.basis_vector("eta8"))
    assert ncore.dim == 2 and fixed_space(N).dim == 2
    assert is_isomorphic(ncore, v_d(C3, 2, -frobenius(T3))).isomorphic


def test_profile_coarseness_vs_hom_separation():
    A = v_d(C3, 5, T3)
    B = v_d(C3, 5, T3 + 1)
    assert profile(A) == profile(A)
    # the coarse profile collides for distinct twists; hom dims separate them
    assert profile(A) == profile(B)
    assert hom_space(A, B).dim < hom_space(A, A).dim
    assert profile(A) != profile(v_d(C3, 6, T3))


def test_module_json_roundtrip():
    M = v_dr(C5, 7, T5)
    obj = module_to_json(M)
    back = module_from_json(obj)
    assert back.Msigma == M.Msigma and back.Mtau == M.Mtau
    assert back.labels == M.labels


def test_module_json_roundtrip_keeps_gens_and_labels_at_every_dim():
    # a dim-0 module has no basis to label, so its labels are None however
    # it is built, and it reads back from JSON as it was written
    empty = {**module_to_json(v_d(C3, 2, T3)), "dim": 0, "sigma": [], "tau": [],
             "labels": []}
    mods = [cf._zero_module(C3), module_from_json(empty), v_d(C3, 4, T3),
            v_dr(C3, 4, T3), direct_sum(v_d(C3, 2, T3), v_dr(C3, 1, T3))]
    assert [M.labels is None for M in mods] == [True, True, False, False, False]
    for M in mods:
        back = module_from_json(module_to_json(M))
        assert np.array_equal(back.gens, M.gens) and back.labels == M.labels


@pytest.mark.parametrize("call", [
    lambda M: ddeg_prime(M, [1]),
    lambda M: ddeg_prime(M, [1, 0]),
    lambda M: sub_generated(M, [[1, 0]]),
    lambda M: quotient(M, fixed_space(M), reps=[[1, 0]] * 3),
], ids=["ddeg_prime-short", "ddeg_prime", "sub_generated", "quotient"])
def test_vectors_of_the_wrong_length_are_refused(call):
    M = v_dr(C3, 4, T3)
    assert M.dim == 8
    with pytest.raises(ShapeMismatch):
        call(M)


def test_unlabeled_basis_vector():
    M = HModule(C3, Mat.identity(C3, 2), Mat.identity(C3, 2))
    with pytest.raises(UnlabeledModule):
        M.basis_vector("w0")
