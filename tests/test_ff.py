import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repcurve import ff
from repcurve.curvefam import curve_params

from repcurve.errors import (ContextMismatch, DegreeMismatch, DivisionByZero,
                             FieldTooLarge, NotPrime, PrimeFieldElement,
                             ReducibleModulus)
from repcurve.ff import (FieldCtx, FieldElem, _is_irreducible, alpha_from_beta,
                         beta_from_alpha, ctx_new, default_ctx,
                         enumerate_nonprime, find_irreducible, frobenius,
                         pth_root)


def test_default_contexts():
    c3 = default_ctx(3)
    assert (c3.p, c3.n, c3.q) == (3, 2, 9)
    assert c3.modulus == (1, 0, 1)
    c5 = default_ctx(5)
    assert (c5.p, c5.n, c5.q) == (5, 2, 25)
    assert c5.modulus == (2, 0, 1)
    # contexts are cached by parameters
    assert default_ctx(3) is default_ctx(3)


def test_context_cache_is_bounded():
    # more contexts than the bound: the degree-one moduli t + c of F_17 and F_19
    held = default_ctx(3)
    made = [ctx_new(p, 1, (c, 1)) for p in (17, 19) for c in range(p)]
    assert len(made) > ff.CTX_CACHE
    assert ff._ctx_cached.cache_info().currsize <= ff.CTX_CACHE
    # a context still held is returned again, whether the cache kept it or not
    assert ctx_new(19, 1, (18, 1)) is made[-1]
    assert default_ctx(3) is held
    assert curve_params(held, 2, default_ctx(3).gen()).ctx is held
    # one that nobody holds and the cache dropped is freed
    first = weakref.ref(made[0])
    del made
    gc.collect()
    assert first() is None
    assert ctx_new(17, 1, (0, 1)) == FieldCtx(17, 1, (0, 1))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 2), (5, 2), (7, 3), (2, 10)])
def test_text_table_spells_every_digit_vector(p, n):
    ctx = default_ctx(p, n)
    assert len(ctx.texts) == ctx.q and not ctx.texts.flags.writeable
    for i in range(ctx.q):
        text = ",".join(map(str, ctx.decode(i)))
        assert ctx.texts[i] == FieldElem(ctx, i).text() == text
        assert ctx.from_text(text).idx == i


def test_context_validation():
    with pytest.raises(NotPrime):
        ctx_new(4, 2, (1, 0, 1))
    with pytest.raises(ReducibleModulus):
        ctx_new(3, 2, (2, 0, 1))  # x^2 + 2 = (x+1)(x+2) over F_3


@pytest.mark.parametrize("p,n,error", [(-3, 2, NotPrime), (4, 2, NotPrime),
                                        (3, 0, DegreeMismatch),
                                        (2, 12, FieldTooLarge),
                                        (3, 10**9, FieldTooLarge),
                                        (10**18 + 3, 1, FieldTooLarge)])
def test_default_context_refused_before_search(p, n, error):
    # default_ctx searches for a modulus before FieldCtx sees p and n: the
    # search must refuse them itself, or a negative p loops forever in it;
    # a huge p is refused by size before a primality test that would not end
    with pytest.raises(error):
        default_ctx(p, n)


def test_find_irreducible_agrees_with_defaults():
    assert find_irreducible(3, 2) == (1, 0, 1)
    assert find_irreducible(5, 2) == (2, 0, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_default_modulus_is_the_first_irreducible(p):
    # the default of every (p, n) is the search's first answer, t at n = 1
    assert default_ctx(p, 1).modulus == (0, 1)
    n = 1
    while p ** n <= 343:
        assert default_ctx(p, n).modulus == find_irreducible(p, n)
        n += 1


def _monics(p, n):
    """Every monic polynomial of degree n over F_p, coefficients low degree
    first, in the order find_irreducible searches them."""
    return [tuple((low // p**i) % p for i in range(n)) + (1,) for low in range(p**n)]


def _pmul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


@pytest.mark.parametrize("p,top", [(2, 4), (3, 4), (5, 3), (2, 6), (3, 5)])
def test_irreducible_exactly_when_no_monic_factorization(p, top):
    # a reducible f of degree n may have no monic factor below degree n//2:
    # two irreducible quadratics (n = 4), a quadratic times a cubic (n = 5)
    # or two irreducible cubics (n = 6), so trial division must reach n//2
    for n in range(1, top + 1):
        products = {_pmul(f, g, p) for k in range(1, n // 2 + 1)
                    for f in _monics(p, k) for g in _monics(p, n - k)}
        irreducible = [f for f in _monics(p, n) if f not in products]
        assert [f for f in _monics(p, n) if _is_irreducible(f, p)] == irreducible
        assert find_irreducible(p, n) == irreducible[0]


def _schoolbook_mul(ctx):
    """The q x q product table of ctx from the digit vectors: polynomial
    product, then the remainder mod the modulus by long division."""
    p, n, f = ctx.p, ctx.n, ctx.modulus
    out = np.zeros((ctx.q, ctx.q), dtype=np.int64)
    for a in range(ctx.q):
        for b in range(ctx.q):
            prod = list(_pmul(ctx.decode(a), ctx.decode(b), p))
            for top in range(len(prod) - 1, n - 1, -1):
                c = prod[top]
                for j in range(n + 1):
                    prod[top - n + j] = (prod[top - n + j] - c * f[j]) % p
            out[a, b] = ctx.encode(prod[:n])
    return out


@pytest.mark.parametrize("p,n,modulus", [
    (2, 3, None), (2, 4, None), (2, 4, (1, 1, 1, 1, 1)),
    (3, 3, None), (3, 3, (2, 2, 0, 1)), (7, 2, None), (5, 3, None)])
def test_mul_table_is_the_schoolbook_product(p, n, modulus):
    # beside the default moduli (None): t^4 + t^3 + t^2 + t + 1, in whose
    # field t has order 5, not 15 as under t^4 + t + 1, and t^3 + 2t + 2
    ctx = ctx_new(p, n, modulus or find_irreducible(p, n))
    assert np.array_equal(ctx.mul, _schoolbook_mul(ctx))


def test_generator_and_text_roundtrip():
    ctx = default_ctx(3)
    t = ctx.gen()
    assert t.coeffs == (0, 1)
    assert t.text() == "0,1"
    assert ctx.from_text("2,1") == ctx.el((2, 1))
    for a in ctx.elements():
        assert ctx.from_text(a.text()) == a


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_laws_p5(i, j, k):
    ctx = default_ctx(5)
    a, b, c = FieldElem(ctx, i), FieldElem(ctx, j), FieldElem(ctx, k)
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a - a == ctx.zero
    if not b.is_zero():
        assert (a / b) * b == a


@pytest.mark.parametrize("p", [3, 5])
def test_multiplicative_order(p):
    ctx = default_ctx(p)
    for a in ctx.elements():
        if not a.is_zero():
            assert a ** (ctx.q - 1) == ctx.one


@pytest.mark.parametrize("p", [3, 5])
def test_frobenius_is_additive_and_pth_power(p):
    ctx = default_ctx(p)
    for a in ctx.elements():
        assert frobenius(a) == a ** p
        assert pth_root(frobenius(a)) == a
    t = ctx.gen()
    u = t + 1
    assert frobenius(t + u) == frobenius(t) + frobenius(u)


def test_division_by_zero():
    ctx = default_ctx(3)
    with pytest.raises(DivisionByZero):
        ctx.one / ctx.zero
    with pytest.raises(DivisionByZero):
        ctx.zero.inverse()


@pytest.mark.parametrize("p,count", [(3, 6), (5, 20)])
def test_enumerate_nonprime(p, count):
    ctx = default_ctx(p)
    outside = list(enumerate_nonprime(ctx))
    assert len(outside) == count
    for b in outside:
        assert not b.in_prime_field()


@pytest.mark.parametrize("p", [3, 5])
def test_alpha_beta_inverse_pair(p):
    # defining relation: 1 + alpha * beta^p = 0
    ctx = default_ctx(p)
    for b in enumerate_nonprime(ctx):
        a = alpha_from_beta(b)
        assert ctx.one + a * b ** p == ctx.zero
        assert beta_from_alpha(a) == b


def test_beta_from_prime_alpha_rejected():
    ctx = default_ctx(3)
    # prime-field alpha gives prime-field beta, which the family excludes
    with pytest.raises(PrimeFieldElement):
        beta_from_alpha(ctx.el(2))


def test_cross_context_arithmetic_rejected():
    a = default_ctx(3).gen()
    b = default_ctx(5).gen()
    with pytest.raises(ContextMismatch):
        _ = a + b


def test_elements_equal_only_elements_and_hash_alike():
    # over F_9, 1 and 4 both reduce to the element 1, which must then equal
    # neither: an element equal to an int would have to hash as the int,
    # and 1 != 4
    ctx = default_ctx(3)
    one = FieldElem(ctx, 1)
    assert one != 1 and one != 4 and not one == 1
    assert len({one, 1}) == 2
    same = FieldElem(FieldCtx(3, 2, (1, 0, 1)), 1)
    assert one == same and hash(one) == hash(same) and len({one, same}) == 1
    assert one == ctx.el(4) and one != FieldElem(default_ctx(3, 1), 1)


def test_subtraction_table_consistency():
    ctx = default_ctx(3)
    for a in ctx.elements():
        for b in ctx.elements():
            assert a - b == a + (-b)
