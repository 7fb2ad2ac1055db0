"""The filtration suite's random vectors: `suites._random_rows` reads
32-bit words of one seeded stream mod q and draws all-zero rows again.
A passing ddeg case prints only "200 vectors", so these are the
properties its check relies on: a rerun draws the same rows, every row
is a nonzero vector over the field, and the draw reaches every element."""

import random

import numpy as np
import pytest

from repcurve.ff import default_ctx
from repcurve.suites import _random_rows

# q as (p, n), from F_2 to F_125; F_9, F_25 and F_49 are the suites' fields
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4),
          (5, 2), (3, 3), (7, 2), (5, 3)]
IDS = [f"q{p ** n}" for p, n in FIELDS]


class CountingRandom(random.Random):
    """A Random that counts its getrandbits calls."""
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("p,n", FIELDS, ids=IDS)
def test_random_rows_are_seeded_nonzero_field_rows(p, n):
    ctx = default_ctx(p, n)
    for dim in (1, 2, 5, 24):
        for count in (1, 200):
            for seed in range(5):
                rows = _random_rows(ctx, dim, count, random.Random(seed))
                assert rows.dtype == np.int64 and rows.shape == (count, dim)
                assert rows.any(axis=1).all(), (ctx.q, dim, count, seed)
                assert ((rows >= 0) & (rows < ctx.q)).all()
                assert np.array_equal(rows, _random_rows(ctx, dim, count, random.Random(seed)))


@pytest.mark.parametrize("p,n", FIELDS, ids=IDS)
def test_random_rows_reach_every_field_element(p, n):
    ctx = default_ctx(p, n)
    rows = _random_rows(ctx, 24, 200, random.Random(0))
    assert np.array_equal(np.unique(rows), np.arange(ctx.q))


def test_random_rows_drop_zero_rows_inside_the_stream():
    # over F_2 in dimension 1 about half the draws are the zero vector:
    # the 200 kept rows are all ones and take more than one draw
    ctx = default_ctx(2, 1)
    for seed in range(5):
        rng = CountingRandom(seed)
        rows = _random_rows(ctx, 1, 200, rng)
        assert (rows == 1).all() and rng.calls > 1


def test_random_rows_top_up_keeps_the_stream():
    # in dimension 1 a draw of 200 entries holds a zero for most seeds;
    # the missing rows take another getrandbits call of the same stream
    for p, n in ((3, 2), (5, 2), (7, 2)):
        ctx = default_ctx(p, n)
        topped_up = 0
        for seed in range(5):
            rng = CountingRandom(seed)
            rows = _random_rows(ctx, 1, 200, rng)
            topped_up += rng.calls > 1
            assert np.array_equal(rows, _random_rows(ctx, 1, 200, random.Random(seed)))
        assert topped_up, ctx.q
