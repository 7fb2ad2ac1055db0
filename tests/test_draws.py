"""The filtration suite's random vectors: `suites._random_rows` draws one
getrandbits stream and must give the vectors of the one-randrange-per-entry
loop, bit for bit. A passing ddeg case prints only "200 vectors", so the
pinned report digests cannot see a changed draw; this test is the guard."""

import random

import numpy as np
import pytest

from repcurve.ff import default_ctx
from repcurve.suites import _random_rows
from reference import random_vector

# q as (p, n); for the powers of two k = q.bit_length() is one more than
# log2 q, so randrange rejects about half the words
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4),
          (5, 2), (3, 3), (7, 2), (5, 3)]


class CountingRandom(random.Random):
    """A Random that counts its getrandbits calls."""
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("p,n", FIELDS, ids=[f"q{p ** n}" for p, n in FIELDS])
def test_random_rows_match_the_randrange_loop(p, n):
    ctx = default_ctx(p, n)
    for dim in (1, 2, 5, 24, 49):
        for count in (1, 200):
            for seed in range(5):
                got = _random_rows(ctx, dim, count, random.Random(seed))
                rng = random.Random(seed)
                want = np.array([random_vector(ctx, dim, rng) for _ in range(count)])
                assert got.dtype == want.dtype and got.shape == (count, dim)
                assert np.array_equal(got, want), (ctx.q, dim, count, seed)


def test_random_rows_drop_zero_rows_inside_the_stream():
    # over F_2 in dimension 1 about half the draws are the zero vector:
    # the 200 kept rows are all ones and span more than 200 draws
    ctx = default_ctx(2, 1)
    for seed in range(5):
        rows = _random_rows(ctx, 1, 200, random.Random(seed))
        rng = random.Random(seed)
        assert (rows == 1).all()
        assert 0 in [rng.randrange(2) for _ in range(200)]


def test_random_rows_top_up_keeps_the_stream():
    # a draw that falls short of count rows takes more words and carries
    # the values of a part row over; some of these seeds must take that path
    ctx = default_ctx(2, 2)
    topped_up = 0
    for seed in range(20):
        rng = CountingRandom(seed)
        got = _random_rows(ctx, 5, 200, rng)
        topped_up += rng.calls > 1
        ref = random.Random(seed)
        assert np.array_equal(got, [random_vector(ctx, 5, ref) for _ in range(200)]), seed
    assert topped_up
