import random

import pytest
from hypothesis import given, settings, strategies as st

from repcurve.errors import OutOfRange, PrimeFieldOnly
from repcurve.ff import FieldElem, default_ctx, enumerate_nonprime
from repcurve.poly import Poly1, Poly2, shifted_power_sum, trace_polynomial, trace_sum
from reference import (poly1_eval, poly2_deg_x, poly2_eval, shifted_power_sum_by_powers,
                       trace_polynomial_by_powers, trace_sum_by_powers)

C9 = default_ctx(3)
C3 = default_ctx(3, 1)


def test_bare_int_coefficients_are_prime_constants():
    # constructor convention: plain ints reduce mod p, so 4 means 1
    f = Poly1(C9, (4, 1))
    assert f.coeff(0) == C9.one
    assert f.coeff(1) == C9.one


def test_extension_coefficients_survive_arithmetic():
    # regression: products used to mangle coefficients outside the
    # prime field by re-coercing encoded values
    t = C9.gen()
    f = Poly1(C9, (t, 1))  # x + t
    sq = f * f
    assert sq.coeff(0) == t * t
    assert sq.coeff(1) == t + t
    assert sq.coeff(2) == C9.one
    g = f ** 8
    assert g.coeff(0) == t ** 8 == C9.one


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=5),
       st.lists(st.integers(0, 8), min_size=1, max_size=5))
def test_poly1_mul_agrees_with_pointwise_eval(a, b):
    f = Poly1(C9, tuple(FieldElem(C9, i) for i in a))
    g = Poly1(C9, tuple(FieldElem(C9, i) for i in b))
    h = f * g
    s = f + g
    d = f - g
    for x in C9.elements():
        fx, gx = poly1_eval(f, x), poly1_eval(g, x)
        assert poly1_eval(h, x) == fx * gx
        assert poly1_eval(s, x) == fx + gx
        assert poly1_eval(d, x) == fx - gx


def test_poly1_degree_and_trim():
    z = Poly1.zero(C9)
    assert z.degree == -1
    f = Poly1(C9, (1, 0, 0))
    assert f.degree == 0
    assert Poly1.monomial(C9, C9.gen(), 3).degree == 3


def test_poly1_pow_validation():
    f = Poly1(C9, (1, 1))
    with pytest.raises(OutOfRange):
        f ** -1
    assert f ** 0 == Poly1(C9, (1,))


def test_poly2_requires_prime_field():
    with pytest.raises(PrimeFieldOnly):
        Poly2.zero(C9)


def test_poly2_expand_matches_eval():
    x = Poly2.monomial(C3, 1, 1, 0)
    y = Poly2.monomial(C3, 1, 0, 1)
    f = (x + y) ** 4 - x * y
    for a in C3.elements():
        for b in C3.elements():
            want = (a + b) ** 4 - a * b
            assert poly2_eval(f, a, b) == want


def test_poly2_neg_sub():
    y = Poly2.monomial(C3, 1, 0, 1)
    assert y - y == Poly2.zero(C3)
    assert -(-y) == y


def test_frobenius_kernel_polynomial_text():
    y = Poly2.monomial(C3, 1, 0, 1)
    g = y ** 3 - y
    # vanishes exactly on the prime field
    for b in C3.elements():
        assert poly2_eval(g, C3.zero, b).is_zero()


@pytest.mark.parametrize("p", [3, 5])
def test_trace_polynomial_closed_form(p):
    ctx = default_ctx(p, 1)
    y = Poly2.monomial(ctx, 1, 0, 1)
    got = trace_polynomial(p, ctx)
    assert got == (y ** p - y) ** (p - 1)
    # constant in x: expanding kills every positive x-power
    assert poly2_deg_x(got) <= 0


def test_trace_polynomial_rejects_extension_context():
    with pytest.raises(PrimeFieldOnly):
        trace_polynomial(3, C9)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_trace_polynomial_matches_the_powers(p):
    ctx = default_ctx(p, 1)
    assert trace_polynomial(p, ctx) == trace_polynomial_by_powers(p, ctx)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (7, 2), (3, 3)])
def test_trace_sum_matches_the_powers(p, n):
    ctx = default_ctx(p, n)
    betas = enumerate_nonprime(ctx)
    assert len(betas) == ctx.q - p
    for b in betas:
        assert trace_sum(b)[0] == trace_sum_by_powers(b), b.text()


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_shifted_power_sum_matches_the_powers(p, n):
    # over an F_p-subspace every coefficient of Z^k with k >= 1 vanishes;
    # seeded lists with repeats are not subspaces, so the Lucas signs show,
    # and the list [0] reads 0^0
    ctx = default_ctx(p, n)
    rng = random.Random(100 * p + n)
    lists = [[0]] + [[rng.randrange(ctx.q) for _ in range(rng.randrange(1, 2 * p))]
                     for _ in range(20)]
    negated = 0
    for values in lists:
        want = shifted_power_sum_by_powers(ctx, values)
        assert shifted_power_sum(ctx, values) == want, values
        negated += any(c and (k % p + k // p) % 2 for k, c in enumerate(want.coeffs))
    assert negated >= 10
