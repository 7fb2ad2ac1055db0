"""Caller data is refused, never misread: every entrance that takes field
rows, and the curve and digit functions, raise a package error for an
entry outside 0..q - 1, a row of the wrong width, an exponent m with
m <= 0 or p | m, and a digit base below 2, where numpy would otherwise
read -1 as element q - 1 or index past its tables; every entrance that
takes field values refuses a non-integer, where int() would truncate it.
The library's other refusals (across fields, of the wrong shape, of a
negative argument) are one table, each row with the class it raises."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repcurve import curvefam as cf
from repcurve import kmod as km
from repcurve.errors import (BadDimension, BadParams, ContextMismatch, DegreeMismatch,
                             DivisionByZero, OutOfRange, PrimeFieldElement, PrimeFieldOnly,
                             ShapeMismatch, UnlabeledModule)
from repcurve.ff import alpha_from_beta, ctx_new, default_ctx, enumerate_nonprime
from repcurve.linalg import Mat, Subspace, field_rows, invert, solve, solve_matrix
from repcurve.poly import Poly1, Poly2
from repcurve.suites import run_suite

CTX = default_ctx(3)  # F_9, where the encoded and the el readings of 4 differ
F3 = default_ctx(3, 1)
Q = CTX.q
M = km.v_dr(CTX, 5, CTX.gen())
D = M.dim

# each entrance fed one bad row v (as rows, a list or a 2-D array: one row
# of them, or v itself where it takes one vector)
ENTRANCES = {
    "Mat.from_rows": lambda v, rows: Mat.from_rows(CTX, [np.zeros(D, dtype=np.int64), v]),
    "Mat.apply": lambda v, rows: Mat.identity(CTX, D).apply(v),
    "solve": lambda v, rows: solve(Mat.identity(CTX, D), v),
    "Subspace.from_rows": lambda v, rows: Subspace.from_rows(CTX, D, rows),
    "Subspace.reduce": lambda v, rows: Subspace.full(CTX, D).reduce(v),
    "Subspace.reduce_rows": lambda v, rows: Subspace.full(CTX, D).reduce_rows(rows),
    "HModule": lambda v, rows: km.HModule(CTX, Mat(CTX, _with_row0(v)), Mat.identity(CTX, D)),
    "sub_generated": lambda v, rows: km.sub_generated(M, rows),
    "quotient": lambda v, rows: km.quotient(M, Subspace.zero(CTX, D),
                                            reps=[v, *np.eye(D, dtype=np.int64)[1:]]),
    "apply_word": lambda v, rows: km.apply_word(M, (0, 0), v),
    "ddeg": lambda v, rows: km.ddeg(M, v),
    "ddeg_rows": lambda v, rows: km.ddeg_rows(M, rows),
    "ddeg_prime": lambda v, rows: km.ddeg_prime(M, v),
    "case_ii_core": lambda v, rows: km.case_ii_core(M, v),
    "case_ii_core_with_fixed": lambda v, rows: km.case_ii_core_with_fixed(M, v),
}

CURVE = {
    "dd": lambda p, m: cf.dd(p, m, 1),
    "index_I": lambda p, m: cf.index_I(p, m, 1),
    "index_J": lambda p, m: cf.index_J(p, m, 1),
    "curve_params": lambda p, m: cf.curve_params(default_ctx(p), m, default_ctx(p).gen()),
    "ramification_profile": cf.ramification_profile,
    "genus": cf.genus,
    "valuation_table": cf.valuation_table,
    "semigroup_gap_count": cf.semigroup_gap_count,
    "rr_basis": lambda p, m: cf.rr_basis(p, m, 5),
}

DIGITS = {
    "digits_p": lambda n, i, base: km.digits_p(n, base),
    "s_p": lambda n, i, base: km.s_p(n, base),
    "binom_mod_p": lambda n, i, base: km.binom_mod_p(n, i, base),
}


# each entrance fed one non-integer field value x: a float, a numpy float
# or a coefficient list holding a float
NON_INTEGERS = {"float": 2.5, "np.float64": np.float64(1.5), "list-with-float": [1, 0.5]}
VALUE_ENTRANCES = {
    "FieldCtx.el": lambda x: CTX.el(x),
    "FieldCtx.encode": lambda x: CTX.encode(x if isinstance(x, list) else [x]),
    "field_rows": lambda x: field_rows(CTX, [[0, x]], 2),
    "ddeg": lambda x: km.ddeg(M, [x] + [0] * (D - 1)),
    "Poly1": lambda x: Poly1(CTX, [1, x]),
    "Poly2": lambda x: Poly2(F3, [x] if isinstance(x, list) else [[1, x]]),
    "Poly2.monomial": lambda x: Poly2.monomial(F3, x, 0, 1),
}

# each library refusal that the suites and the CLI never reach, with the
# class it raises; F_25 is the other field
C5 = default_ctx(5)
M5 = km.trivial_module(C5)
I2, I3 = Mat.identity(CTX, 2), Mat.identity(CTX, 3)
REFUSALS = {
    "digits_p-negative": (lambda: km.digits_p(-1, 3), OutOfRange),
    "binom_mod_p-negative": (lambda: km.binom_mod_p(-1, 0, 3), OutOfRange),
    "HModule-other-field": (lambda: km.HModule(CTX, Mat.identity(C5, 1), Mat.identity(C5, 1)),
                            ContextMismatch),
    "HModule-non-square": (lambda: km.HModule(CTX, Mat(CTX, np.zeros((1, 2), dtype=np.int64)),
                                              Mat(CTX, np.zeros((1, 2), dtype=np.int64))),
                           ShapeMismatch),
    "HModule-two-sizes": (lambda: km.HModule(CTX, I2, I3), ShapeMismatch),
    "direct_sum-fields": (lambda: km.direct_sum(M, M5), ContextMismatch),
    "sub_module_on-fields": (lambda: km.sub_module_on(M, Subspace.full(C5, D)), ContextMismatch),
    "hom_space-fields": (lambda: km.hom_space(M, M5), ContextMismatch),
    "hom_dim-fields": (lambda: km.hom_dim(M, M5), ContextMismatch),
    "is_isomorphic-fields": (lambda: km.is_isomorphic(M, M5), ContextMismatch),
    "sub_module_on-ambient": (lambda: km.sub_module_on(M, Subspace.zero(CTX, D + 1)),
                              ShapeMismatch),
    "quotient-ambient": (lambda: km.quotient(M, Subspace.zero(CTX, D + 1)), ShapeMismatch),
    "quotient-few-reps": (lambda: km.quotient(M, Subspace.zero(CTX, D),
                                              reps=np.eye(D, dtype=np.int64)[1:]),
                          ShapeMismatch),
    "apply_word-negative": (lambda: km.apply_word(M, (-1, 0), np.eye(D, dtype=np.int64)[0]),
                            OutOfRange),
    "is_indecomposable-zero": (lambda: km.is_indecomposable(
        km.quotient(M, Subspace.full(CTX, D))[0]), BadDimension),
    "module_from_json-list": (lambda: km.module_from_json([]), BadParams),
    "module_from_json-dim": (lambda: km.module_from_json({**km.module_to_json(M), "dim": -1}),
                             BadParams),
    "Mat-1d": (lambda: Mat(CTX, np.zeros(3, dtype=np.int64)), ShapeMismatch),
    "Mat+fields": (lambda: I2 + Mat.identity(C5, 2), ContextMismatch),
    "Mat+shapes": (lambda: I2 + I3, ShapeMismatch),
    "Mat@shapes": (lambda: I2 @ I3, ShapeMismatch),
    "solve_matrix-rows": (lambda: solve_matrix(I2, I3), ShapeMismatch),
    "solve_matrix-fields": (lambda: solve_matrix(I2, Mat.identity(C5, 2)), ContextMismatch),
    "invert-non-square": (lambda: invert(Mat(CTX, np.zeros((2, 3), dtype=np.int64))),
                          ShapeMismatch),
    "field_rows-width": (lambda: field_rows(CTX, np.zeros((2, 3), dtype=np.int64), 2),
                         ShapeMismatch),
    "ctx_new-not-monic": (lambda: ctx_new(3, 2, (1, 0, 2)), DegreeMismatch),
    "FieldCtx.encode-degree": (lambda: CTX.encode([0, 0, 1]), DegreeMismatch),
    "gen-prime-field": (lambda: F3.gen(), PrimeFieldOnly),
    "enumerate_nonprime-prime-field": (lambda: enumerate_nonprime(F3), PrimeFieldOnly),
    "alpha_from_beta-prime": (lambda: alpha_from_beta(CTX.el(1)), PrimeFieldElement),
    "pow_idx-inverse-of-zero": (lambda: CTX.pow_idx(0, -1), DivisionByZero),
    "basis_vector-label": (lambda: M.basis_vector("nope"), UnlabeledModule),
    "Poly1.monomial-negative": (lambda: Poly1.monomial(CTX, 1, -1), OutOfRange),
    "Poly1+Poly2": (lambda: Poly1(F3, [1]) + Poly2(F3, [[1]]), ContextMismatch),
    "Poly1+fields": (lambda: Poly1(CTX, [1]) + Poly1(C5, [1]), ContextMismatch),
    "Poly1-coefficient-field": (lambda: Poly1(CTX, [C5.el(1)]), ContextMismatch),
    # the command line offers only the known suites
    "run_suite-unknown": (lambda: run_suite("nope"), BadParams),
}


def _with_row0(v: np.ndarray) -> np.ndarray:
    """The identity of size len(v) with v as row 0: a sigma of the wrong
    size against tau when v has the wrong width."""
    S = np.eye(len(v), dtype=np.int64)
    S[0] = v
    return S


@st.composite
def bad_rows(draw):
    """(v, rows, error): a row v with one entry q + 0..5 or negative, or of
    length D -+ 1, and the rows holding it, a list or a 2-D array."""
    kind = draw(st.sampled_from(["big", "negative", "width"]))
    n = D + draw(st.sampled_from([-1, 1])) if kind == "width" else D
    v = np.array(draw(st.lists(st.integers(0, Q - 1), min_size=n, max_size=n)), dtype=np.int64)
    v[draw(st.integers(0, n - 1))] = {
        "big": Q + draw(st.integers(0, 5)),
        "negative": -draw(st.integers(1, 2 * Q)),
        "width": 1 + draw(st.integers(0, Q - 2)),  # nonzero, so no core refuses it first
    }[kind]
    others = np.eye(D, dtype=np.int64)[:draw(st.integers(0, 2))]
    if kind == "width" or draw(st.booleans()):
        rows = [*others, v]
    else:
        rows = np.vstack([others, v])
    return v, rows, ShapeMismatch if kind == "width" else OutOfRange


@pytest.mark.parametrize("name", ENTRANCES)
@settings(max_examples=25, deadline=None)
@given(case=bad_rows())
def test_bad_field_rows_are_refused(name, case):
    v, rows, error = case
    with pytest.raises(error):
        ENTRANCES[name](v, rows)


@pytest.mark.parametrize("name", CURVE)
@settings(max_examples=15, deadline=None)
@given(p=st.sampled_from([3, 5]), k=st.integers(-6, 6))
def test_exponents_off_the_family_are_refused(name, p, k):
    m = p * k if k > 0 else k  # p | m, or m <= 0
    with pytest.raises(BadParams):
        CURVE[name](p, m)


@pytest.mark.parametrize("name", DIGITS)
@settings(max_examples=15, deadline=None)
@given(base=st.sampled_from([1, 0, -3]), n=st.integers(0, 50), i=st.integers(0, 50))
def test_digit_bases_below_two_are_refused(name, base, n, i):
    with pytest.raises(OutOfRange):
        DIGITS[name](n, i, base)


@pytest.mark.parametrize("value", NON_INTEGERS)
@pytest.mark.parametrize("name", VALUE_ENTRANCES)
def test_non_integer_field_values_are_refused(name, value):
    with pytest.raises(BadParams):
        VALUE_ENTRANCES[name](NON_INTEGERS[value])


def test_numpy_integers_and_bools_are_read_as_integers():
    assert CTX.el(np.int64(5)) == CTX.el(2) and CTX.el(np.uint8(4)) == CTX.el(1)
    assert CTX.el(np.True_) == CTX.el(True) == CTX.el(1)
    assert CTX.encode([np.int8(-1), np.bool_(True)]) == CTX.encode([2, 1])
    assert field_rows(CTX, [[np.int64(4), np.False_]], 2).tolist() == [[1, 0]]
    assert Poly1(CTX, [np.int64(4)]) == Poly1(CTX, [1])
    assert Poly2(F3, np.array([[True, False, 4]])) == Poly2(F3, [[1, 0, 1]])


def test_integer_array_rows_stay_encoded_and_other_rows_go_through_el():
    v = [0, 4, 7, 1]  # index 4 is t + 1 over F_9, while el(4) = 4 mod 3 = 1
    by_el = [[CTX.el(x).idx for x in v]]
    assert by_el != [v]
    assert Mat.from_rows(CTX, np.array([v])).data.tolist() == [v]
    assert Mat.from_rows(CTX, [np.array(v)]).data.tolist() == [v]
    assert Mat.from_rows(CTX, [v]).data.tolist() == by_el
    full = Subspace.full(CTX, len(v))
    assert full.reduce(np.array(v)).tolist() == v
    assert full.reduce(v).tolist() == by_el[0]


def test_a_flat_vector_or_a_scalar_where_rows_belong_is_refused():
    v = np.ones(D, dtype=np.int64)
    for rows in (v, list(v), v.tolist(), 5, None):
        with pytest.raises(ShapeMismatch):
            km.sub_generated(M, rows)
        with pytest.raises(ShapeMismatch):
            Subspace.from_rows(CTX, D, rows)


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusals_raise_their_class(name):
    call, error = REFUSALS[name]
    with pytest.raises(error):
        call()
