"""Microbenchmarks of the primitives the verification harness spends its
time in, each reported as the median over repeats (tracing off)."""

import statistics
import time

import numpy as np

REPEATS = 9


def _median_time(fn, prepare=None, inner=1, repeats=REPEATS):
    """Median seconds per call; prepare() builds a fresh argument outside
    the timed region when the callee caches on it."""
    samples = []
    for _ in range(repeats):
        arg = prepare() if prepare else None
        t0 = time.perf_counter()
        for _ in range(inner):
            fn(arg)
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


def run():
    from repcurve import ff, kmod, linalg

    ctx = ff.default_ctx(5)
    rng = np.random.default_rng(0)
    A = linalg.Mat(ctx, rng.integers(0, ctx.q, (24, 24)))
    B = linalg.Mat(ctx, rng.integers(0, ctx.q, (24, 24)))
    v = rng.integers(0, ctx.q, 24)
    t = ctx.gen()

    def vdr12():
        return kmod.v_dr(ctx, 12, t)

    M = vdr12()
    mats = kmod.end_algebra(M)[1]
    us, ms = 1e6, 1e3
    return {
        "micro.matmul24_us": us * _median_time(lambda _: A @ B, inner=50),
        "micro.matvec24_us": us * _median_time(lambda _: A.apply(v), inner=100),
        "micro.rank24_us": us * _median_time(lambda _: linalg.rank(A), inner=20),
        "micro.hom_space_vdr5_12_ms":
            ms * _median_time(lambda N: kmod.hom_space(N, N), prepare=vdr12, repeats=5),
        "micro.algebra_radical_vdr5_12_ms":
            ms * _median_time(lambda _: kmod.algebra_radical(ctx, mats), repeats=3),
        "micro.jordan_scan_vdr5_12_ms":
            ms * _median_time(kmod.jordan_scan, prepare=vdr12, repeats=5),
    }
