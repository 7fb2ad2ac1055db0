"""Named verification suites over the module families and the cover family.

Each suite is a deterministic list of cases; a case is a pure function
of the case seed returning (ok, certificate) where ok is True, False, or
"report" for informational rows that never gate the exit code.  Each kind
of claim that several cases make is checked by one helper (_iso_case,
_indec_case, _ddeg_case, ...) taking module thunks, so a module is built
when its case runs.  Per-case randomness is
seeded by sha256 of the global seed and the case id, so a rerun with the
same seed is byte-identical (timings are opt-in and off by default).
"""

import hashlib
import json
import random
import time
import traceback
from functools import partial
from typing import Callable, List, Tuple

import numpy as np

from . import curvefam as cf
from . import kmod as km
from .errors import BadParams, RepcurveError
from .ff import FieldCtx, default_ctx, enumerate_nonprime, frobenius
from .linalg import _matmul_idx, _rank_stack
from .poly import Poly2, trace_polynomial, trace_sum

ARTIFACT_VERSION = "0.1.0"

# the default selection, the primes of the curve grid, and the primes a
# suite may run at: 7 is an opt-in run of the lists derived from p
SUITE_PRIMES = cf.GRID_PRIMES
ADMITTED_PRIMES = SUITE_PRIMES + (7,)

Case = Tuple[str, Callable[[int], Tuple[object, str]]]


def case_seed(seed: int, case_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{case_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sample(p: int, every, sample):
    """The one sampling rule of the suites: p = 3 runs every member of a
    range, and a larger p the fixed sample of it written in p.  cores and
    hodge give the empty sample, so they run at p = 3 alone."""
    return every if p == 3 else sample


# ---------------------------------------------------------------------------
# identities


def _suite_identities(p: int, seed: int) -> List[Case]:
    ctx = default_ctx(p)
    cases: List[Case] = []

    def poly_case(_s):
        pf = default_ctx(p, 1)
        got = trace_polynomial(p, pf)
        y = Poly2.monomial(pf, 1, 0, 1)
        want = (y ** p - y) ** (p - 1)
        ok = got == want
        return ok, f"deg_y={got.deg_y()}"

    cases.append((f"identities/p{p}/trace-polynomial", poly_case))

    def beta_case(b, _s):
        total, want = trace_sum(b)
        return total == want, f"constant={want.coeff(0).text()}"

    for b in enumerate_nonprime(ctx):
        cases.append((f"identities/p{p}/trace/{b.text()}", partial(beta_case, b)))
    return cases


# ---------------------------------------------------------------------------
# combinatorics


def _suite_combinatorics(p: int, seed: int) -> List[Case]:
    pp = p * p

    def rh(m, _s):
        rp = cf.ramification_profile(p, m)
        ok = (rp.different_exponent == (pp - 1) * (m + 1)
              and 2 * rp.genus - 2 == -2 * pp + rp.different_exponent)
        return ok, f"g={rp.genus},d_P={rp.different_exponent}"

    def gaps(m, _s):
        g = cf.genus(p, m)
        n = cf.semigroup_gap_count(p, m)
        return n == g, f"gaps={n}"

    def dd_sum(m, _s):
        g = cf.genus(p, m)
        s = sum(cf.dd(p, m, c) for c in range(1, m))
        return s == g, f"sum={s}"

    def dd_refl(m, _s):
        ok = all(cf.dd(p, m, c) + cf.dd(p, m, m - c) == pp - 1
                 for c in range(1, m))
        return ok, f"pairs={m - 1}"

    def mirror(m, _s):
        ok = all(
            tuple(sorted(pp - 1 - i for i in cf.index_I(p, m, c)))
            == cf.index_J(p, m, c)
            for c in range(1, m))
        return ok, "i->p^2-1-i"

    def rr(m, _s):
        g = cf.genus(p, m)
        ok = all(len(cf.rr_basis(p, m, g2)) == g2 - g
                 for g2 in (2 * g, 2 * g + 1, 2 * g + 7))
        return ok, f"deltas=({2*g},{2*g+1},{2*g+7})"

    def vals(m, _s):
        t = cf.valuation_table(p, m)
        ok = (t["z0"] == t["z1"] == -m * p and t["x"] == -pp
              and t["dx"] == (pp - 1) * (m + 1) - 2 * pp and t["z"] == -m)
        return ok, f"dx={t['dx']}"

    checks = (("rh", rh), ("gap-count", gaps), ("dd-sum", dd_sum),
              ("dd-reflection", dd_refl), ("index-mirror", mirror),
              ("rr-count", rr), ("valuations", vals))
    return [(f"combinatorics/p{p}/m{m}/{name}", partial(check, m))
            for m in cf.GRID_EXPONENTS if m % p for name, check in checks]


# ---------------------------------------------------------------------------
# filtration


def _random_rows(ctx: FieldCtx, dim: int, count: int, rng: random.Random) -> np.ndarray:
    """count nonzero vectors of length dim over ctx, as the rows of one
    array: each entry is one 32-bit word of rng mod q (biased by less
    than q / 2^32), and all-zero rows are dropped and drawn again."""
    rows = np.zeros((0, dim), dtype=np.int64)
    while len(rows) < count:
        m = (count - len(rows)) * dim
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        block = (words % ctx.q).astype(np.int64).reshape(-1, dim)
        rows = np.vstack([rows, block[block.any(axis=1)]])
    return rows


def _sn_dims_case(build):
    """S_n has the dimension of the span of the labels of degree <= n."""
    def run(_s):
        M = build()
        deg = km.label_degrees(M)
        want = [int((deg <= n).sum()) for n in range(deg.max() + 1)]
        got = list(km.filtration_dims(M))
        return got == want, f"dims={got}"
    return run


def _ddeg_case(build):
    """ddeg_rows on 200 seeded nonzero vectors, then on every basis vector
    (a random vector's degree is set by its top labels), equals the largest
    label degree on each vector's support; the certificate names the first
    vector whose degree is wrong."""
    def run(s):
        M = build()
        V = np.vstack([_random_rows(M.ctx, M.dim, 200, random.Random(s)),
                       np.eye(M.dim, dtype=np.int64)])
        want = np.where(V != 0, km.label_degrees(M), -1).max(axis=1)
        bad = np.nonzero(km.ddeg_rows(M, V) != want)[0]
        if bad.size:
            return False, f"bad vector {V[bad[0]].tolist()}"
        return True, "200 vectors"
    return run


def _suite_filtration(p: int, seed: int) -> List[Case]:
    ctx = default_ctx(p)
    t = ctx.gen()
    pp = p * p
    cases: List[Case] = []
    for d in range(1, pp + 1):
        vd = partial(km.v_d, ctx, d, t)
        cases.append((f"filtration/p{p}/vd{d:02d}/sn-dims", _sn_dims_case(vd)))
        cases.append((f"filtration/p{p}/vd{d:02d}/ddeg-random", _ddeg_case(vd)))
    for d in range(0, pp + 1):
        cases.append((f"filtration/p{p}/vdr{d:02d}/ddeg-prime",
                      _ddeg_case(partial(km.v_dr, ctx, d, t))))
    return cases


# ---------------------------------------------------------------------------
# structure


def _iso_case(build_a, build_b, expect: str):
    """is_isomorphic on the two built modules gives expect ("YES" or
    "NO"); the certificate is the deciding method."""
    def run(_s):
        dec = km.is_isomorphic(build_a(), build_b())
        return dec.verdict == expect, dec.method
    return run


def _suite_structure(p: int, seed: int) -> List[Case]:
    ctx = default_ctx(p)
    t = ctx.gen()
    pp = p * p
    cases: List[Case] = []
    pre = f"structure/p{p}"
    cases.append((f"{pre}/vd-max-regular",
                  _iso_case(partial(km.v_d, ctx, pp, t),
                            partial(km.regular_module, ctx), "YES")))
    cases.append((f"{pre}/vd-submax-aug",
                  _iso_case(partial(km.v_d, ctx, pp - 1, t),
                            partial(km.augmentation_ideal, ctx), "YES")))
    cases.append((f"{pre}/vd-one-trivial",
                  _iso_case(partial(km.v_d, ctx, 1, t),
                            partial(km.trivial_module, ctx), "YES")))
    # the samples of 0..p^2-1 (dual pairs), 0..p-1 (small), p^2-p..p^2-1
    # (large) and of the pairs d1 < d2 < p^2 with equal top base-p digit;
    # mid is the self-dual member, and mid + 1 shares its top digit
    mid = (pp - 1) // 2
    dual_pairs = _sample(p, range(0, pp), (p, mid))
    small = _sample(p, range(0, p), (0, p - 1))
    large = _sample(p, range(pp - p, pp), (pp - p, pp - 1))
    digit_classes = _sample(p, [(a, b) for lo in range(0, pp, p) for a in range(lo, lo + p)
                                for b in range(a + 1, lo + p)], [(mid, mid + 1)])
    for d in dual_pairs:
        cases.append((f"{pre}/vdr{d:02d}-dual",
                      _iso_case(lambda d=d: km.dual(km.v_dr(ctx, d, t)),
                                partial(km.v_dr, ctx, pp - 1 - d, t), "YES")))
    for d in small:
        cases.append((f"{pre}/vdr{d:02d}-codim-one",
                      _iso_case(partial(km.v_dr, ctx, d, t),
                                lambda: km.dual(km.augmentation_ideal(ctx)), "YES")))
    for d in large:
        cases.append((f"{pre}/vdr{d:02d}-aug",
                      _iso_case(partial(km.v_dr, ctx, d, t),
                                partial(km.augmentation_ideal, ctx), "YES")))
    cases.append((f"{pre}/vdr{pp:02d}-regular",
                  _iso_case(partial(km.v_dr, ctx, pp, t),
                            partial(km.regular_module, ctx), "YES")))
    # d2 from the paper's quotient: v_dr(d2) is the very module v_dr(d1)
    for d1, d2 in digit_classes:
        cases.append((f"{pre}/vdr-digit-{d1:02d}-{d2:02d}",
                      _iso_case(partial(km.v_dr, ctx, d1, t),
                                partial(km.vdr_quotient, ctx, d2, t), "YES")))
    return cases


# ---------------------------------------------------------------------------
# indec


def _indec_case(build, cert: str):
    """is_indecomposable on the built module answers INDECOMPOSABLE with
    certificate cert."""
    def run(_s):
        dec = km.is_indecomposable(build())
        return (dec.verdict == "INDECOMPOSABLE"
                and dec.certificate == cert), dec.certificate
    return run


def _local_end_case(build):
    """The End/J split of the built module (_end_split), which
    is_indecomposable reads after T1: no split and End/J one-dimensional,
    so End is local, the T3 certificate, read even where the fixed space
    is one-dimensional."""
    def run(_s):
        dims, split = km._end_split(build())
        ok = split is None and dims["semisimple_dim"] == 1
        return ok, "T3" if ok else f"semisimple_dim={dims['semisimple_dim']}"
    return run


def _suite_indec(p: int, seed: int) -> List[Case]:
    ctx = default_ctx(p)
    t = ctx.gen()
    pp = p * p
    cases: List[Case] = []
    # the vdr sample is the two ends of p..p^2-p-1 and its middle; no vd
    # member is sampled
    for d in _sample(p, range(1, pp + 1), ()):
        cases.append((f"indec/p{p}/vd{d:02d}",
                      _indec_case(partial(km.v_d, ctx, d, t), "T1")))
    for d in _sample(p, range(0, pp + 1), (p, (pp - 1) // 2, pp - p - 1)):
        cases.append((f"indec/p{p}/vdr{d:02d}",
                      _local_end_case(partial(km.v_dr, ctx, d, t))))
    return cases


# ---------------------------------------------------------------------------
# classification


def _every_vdr_pair(p: int, betas: list, seed: int) -> list:
    """(name, d1, b1, d2, b2) of every pair of v_dr members with
    p <= d < p^2 - p, itself included."""
    mods = [(d, b) for d in range(p, p * p - p) for b in betas]
    return [(f"d{d1}-{b1.text()}-vs-d{d2}-{b2.text()}", d1, b1, d2, b2)
            for i, (d1, b1) in enumerate(mods) for d2, b2 in mods[i:]]


def _sampled_vdr_pairs(p: int, betas: list, seed: int) -> list:
    """The sample of those pairs: 40 seeded contrapositive pairs, whose
    distinct top digit or distinct beta forces NO, and three pairs of one
    class for the YES direction."""
    rng = random.Random(case_seed(seed, f"classification/p{p}/pair-list"))
    pairs = []
    while len(pairs) < 40:
        d1, d2 = rng.randrange(p, p * p - p), rng.randrange(p, p * p - p)
        b1, b2 = rng.choice(betas), rng.choice(betas)
        if d1 // p != d2 // p or b1.idx != b2.idx:
            pairs.append((f"pair{len(pairs):02d}/d{d1}-{b1.text()}-vs-d{d2}-{b2.text()}",
                          d1, b1, d2, b2))
    return pairs + [(f"same-class-d{d1}-d{d2}", d1, betas[0], d2, betas[0])
                    for d1, d2 in ((2 * p, 2 * p + 1), (2 * p + 1, 2 * p + 3),
                                   (3 * p + 1, 3 * p + 4))]


def _suite_classification(p: int, seed: int) -> List[Case]:
    ctx = default_ctx(p)
    pre = f"classification/p{p}"
    cases: List[Case] = []
    betas = list(enumerate_nonprime(ctx))
    # every vd member with 1 < d < p^2 - 1 against itself and every other
    # beta; no vd member is sampled
    for d in _sample(p, range(2, p * p - 1), ()):
        for i, b1 in enumerate(betas):
            for b2 in betas[i + 1:]:
                cases.append((f"{pre}/vd/d{d}/{b1.text()}-vs-{b2.text()}",
                              _iso_case(partial(km.v_d, ctx, d, b1),
                                        partial(km.v_d, ctx, d, b2), "NO")))
            cases.append((f"{pre}/vd/d{d}/{b1.text()}-self",
                          _iso_case(partial(km.v_d, ctx, d, b1),
                                    partial(km.v_d, ctx, d, b1), "YES")))
    # equal top digit and beta give one v_dr module: YES pairs of distinct
    # d take d2 from the paper's quotient
    pairs = _sample(p, _every_vdr_pair, _sampled_vdr_pairs)(p, betas, seed)
    for name, d1, b1, d2, b2 in pairs:
        same = d1 // p == d2 // p and b1.idx == b2.idx
        second = km.vdr_quotient if same and d1 != d2 else km.v_dr
        cases.append((f"{pre}/vdr/{name}",
                      _iso_case(partial(km.v_dr, ctx, d1, b1), partial(second, ctx, d2, b2),
                                "YES" if same else "NO")))
    return cases


# ---------------------------------------------------------------------------
# cores


def _suite_cores(p: int, seed: int) -> List[Case]:
    ctx = default_ctx(p)
    pp = p * p
    t = ctx.gen()

    def core_matches(core, want):
        dec = km.is_isomorphic(core, want)
        return dec.verdict == "YES", f"dim={core.dim},{dec.method}"

    def vd_core(d, b, _s):
        M = km.v_d(ctx, d, b)
        core = km.case_ii_core(M, M.basis_vector(f"w{pp - p - 1}"))
        return core_matches(core, km.v_d(ctx, 2, -b))

    def vdr_core(d, b, _s):
        M = km.v_dr(ctx, d, b)
        N = km.case_ii_core_with_fixed(M, M.basis_vector(f"eta{pp - 1}"))
        return core_matches(N, km.direct_sum(km.v_d(ctx, 2, -frobenius(b)),
                                             km.trivial_module(ctx)))

    def vdr_boundary(d, b, _s):
        # the fixed space drops to dim 1 and is absorbed, so the trivial
        # summand disappears; reported, not gated
        M = km.v_dr(ctx, d, b)
        u = M.basis_vector(f"eta{pp - 1}")
        core, N = km.case_ii_core(M, u), km.case_ii_core_with_fixed(M, u)
        dec = km.is_isomorphic(core, km.v_d(ctx, 2, -frobenius(b)))
        return "report", f"N-dim={N.dim},core-matches-rank-two={dec.verdict}"

    cases: List[Case] = []
    for b in _sample(p, (t, t + 1), ()):
        cases += [(f"cores/p{p}/vd{d}/{b.text()}", partial(vd_core, d, b))
                  for d in range(pp - p, pp + 1)]
        cases += [(f"cores/p{p}/vdr{d}/{b.text()}", partial(vdr_core, d, b))
                  for d in range(p, pp - p)]
        cases += [(f"cores/p{p}/vdr{d}-boundary/{b.text()}", partial(vdr_boundary, d, b))
                  for d in range(pp - p, pp + 1)]
    return cases


# ---------------------------------------------------------------------------
# jordan


def _generic_jordan_case(build, want: tuple):
    """The generic Jordan type of the built module is want."""
    def run(_s):
        got = km.generic_jordan_type(build())
        return got == want, f"type={list(got)}"
    return run


def _suite_jordan(p: int, seed: int) -> List[Case]:
    ctx = default_ctx(p)
    t = ctx.gen()
    pp = p * p
    cases: List[Case] = []
    # the vd sample is two members whose last block is partial (p + 2 and
    # p^2 - 2), the vdr sample the self-dual member
    for d in _sample(p, range(1, pp + 1), (p + 2, pp - 2)):
        want = tuple(sorted([p] * (d // p) + ([d % p] if d % p else []), reverse=True))
        cases.append((f"jordan/p{p}/vd{d:02d}/generic",
                      _generic_jordan_case(partial(km.v_d, ctx, d, t), want)))
    for d in _sample(p, range(0, pp + 1), ((pp - 1) // 2,)):
        # dimension p^2 - 1 for d < p^2; the d = p^2 member is regular
        if d == pp:
            want = tuple([p] * p)
        else:
            want = tuple(sorted([p] * (p - 1) + [p - 1], reverse=True))
        cases.append((f"jordan/p{p}/vdr{d:02d}/generic",
                      _generic_jordan_case(partial(km.v_dr, ctx, d, t), want)))

    def scan_points(_s):
        M = km.v_d(ctx, 2, t)
        n = len(km.jordan_scan(M))
        return n == ctx.q + 1, f"points={n}"

    cases.append((f"jordan/p{p}/scan-points", scan_points))

    def nonconstant(_s):
        # the scans of all v_d members, from v_d(p^2)'s column rank profiles
        vd = [d for d, scan in km.vd_jordan_scans(ctx, t).items()
              if len({ty for _, ty in scan}) > 1]
        vdr = [d for d in range(0, pp + 1)
               if not km.constant_type_over_scan(km.v_dr(ctx, d, t))]
        return "report", f"non-constant vd at d={vd}, vdr at d={vdr}"

    cases.append((f"jordan/p{p}/nonconstant-survey", nonconstant))
    return cases


# ---------------------------------------------------------------------------
# holo / dr / hodge


def _cross_grid(p: int) -> tuple:
    """The exponents whose graded pieces holo and dr cross-check: the
    smallest grid exponent and p^2 + 1 at p = 3, and p^2 + 1 alone in the
    sample."""
    return _sample(p, (2, p * p + 1), (p * p + 1,))


@km._memo
def _family(ctx: FieldCtx, kind: str, m: int):
    """The graded family of kind ("holo" or "dr") at exponent m, alpha the
    generator of ctx, kept on the field context as vdr_quotient is: the
    holo, dr and hodge suites and a second run read one build.  The builder
    is read from curvefam at each call, so a replacement put there runs."""
    build = cf.holo_graded if kind == "holo" else cf.dr_graded
    return build(cf.curve_params(ctx, m, ctx.gen()))


def _graded_suite(p: int, name: str, kind: str, exponents, total, piece_check) -> List[Case]:
    """The cases of suite name over the family of kind at each exponent:
    the total dimension of the family gm is total(gm) unless total is
    None, and piece c passes piece_check(gm, c)."""
    ctx = default_ctx(p)

    def total_case(m, _s):
        gm = _family(ctx, kind, m)
        return gm.total_dim() == total(gm), f"total={gm.total_dim()}"

    def piece_case(m, c, _s):
        return piece_check(_family(ctx, kind, m), c)

    cases: List[Case] = []
    for m in exponents:
        if total is not None:
            cases.append((f"{name}/p{p}/m{m:02d}/total", partial(total_case, m)))
        cases += [(f"{name}/p{p}/m{m:02d}/c{c:02d}", partial(piece_case, m, c))
                  for c in range(1, m)]
    return cases


def _suite_holo(p: int, seed: int) -> List[Case]:
    def piece_check(gm, c):
        params, piece = gm.params, gm.piece(c)
        d = cf.dd(p, params.m, c)
        initial = cf.index_I(p, params.m, c) == tuple(range(d))
        if d == 0:
            return initial and piece.dim == 0, "empty"
        # against the definition of v_d, not the binomial table the
        # pieces are cut from
        D = km.vd_definition(params.ctx, params.beta)
        ok = initial and np.array_equal(piece.gens, D[:, :d, :d])
        return ok, f"dim={d},entrywise"

    return _graded_suite(p, "holo", "holo", _cross_grid(p),
                         lambda gm: cf.genus(p, gm.params.m), piece_check)


def _suite_dr(p: int, seed: int) -> List[Case]:
    pp = p * p

    def piece_check(gm, c):
        # against the paper's quotient, not v_dr, which shares the piece's
        # construction; vdr_quotient keeps one per (field, d, beta), so a d
        # repeated across m reads it
        params, piece = gm.params, gm.piece(c)
        d = piece.meta["d"]
        model = km.vdr_quotient(params.ctx, d, params.beta)
        _, pos, scale = km.vdr_label_map(params.ctx, d, params.gamma)
        F = np.zeros((piece.dim, model.dim), dtype=np.int64)
        F[pos, np.arange(model.dim)] = scale
        ok = (np.array_equal(_matmul_idx(params.ctx, F, model.gens),
                             _matmul_idx(params.ctx, piece.gens, F))
              and _rank_stack(params.ctx, F[None])[0] == piece.dim == model.dim)
        return ok, f"d={d},intertwiner"

    return _graded_suite(p, "dr", "dr", _cross_grid(p),
                         lambda gm: (gm.params.m - 1) * (pp - 1), piece_check)


def _suite_hodge(p: int, seed: int) -> List[Case]:
    def piece_check(gm, c):
        rep = cf.hodge_check(gm, c)
        return rep["verdict"], f"sub={rep['sub_dim']},quot={rep['quotient_dim']}"

    return _graded_suite(p, "hodge", "dr", _sample(p, _cross_grid(p), ()), None, piece_check)


# ---------------------------------------------------------------------------
# registry, runner, claims


_BUILDERS = {
    "identities": _suite_identities,
    "combinatorics": _suite_combinatorics,
    "filtration": _suite_filtration,
    "structure": _suite_structure,
    "indec": _suite_indec,
    "classification": _suite_classification,
    "cores": _suite_cores,
    "jordan": _suite_jordan,
    "holo": _suite_holo,
    "dr": _suite_dr,
    "hodge": _suite_hodge,
}

SUITE_NAMES = tuple(_BUILDERS)


def build_cases(suite: str, p_values, seed: int) -> List[Case]:
    names = SUITE_NAMES if suite == "all" else (suite,)
    if suite != "all" and suite not in _BUILDERS:
        raise BadParams(f"unknown suite {suite!r}")
    unsupported = [p for p in p_values if p not in ADMITTED_PRIMES]
    if unsupported:
        raise BadParams(f"suites run at p in {list(ADMITTED_PRIMES)}, not at {unsupported}")
    cases: List[Case] = []
    for name in names:
        for p in p_values:
            cases.extend(_BUILDERS[name](p, seed))
    if not cases:
        raise BadParams(f"suite {suite!r} has no cases at p = {list(p_values)}")
    cases.sort(key=lambda c: c[0])
    ids = [c[0] for c in cases]
    assert len(ids) == len(set(ids)), "duplicate case ids"
    return cases


def run_suite(suite: str, p_values=(3,), seed: int = 0,
              timings: bool = False) -> dict:
    """Execute a suite and return the report dict; report["exit"] is 0
    when every gating case passed, 1 otherwise."""
    cases = build_cases(suite, tuple(p_values), seed)

    def execute(item):
        cid, fn = item
        t0 = time.perf_counter()
        try:
            ok, cert = fn(case_seed(seed, cid))
        except RepcurveError as e:
            ok, cert = False, f"error:{type(e).__name__}:{e}"
        except Exception as e:  # a bug fails its case alone; the report survives
            traceback.print_exc()
            ok, cert = False, f"error:{type(e).__name__}:{e}"
        ms = round((time.perf_counter() - t0) * 1000.0, 3) if timings else None
        if ok == "report":
            verdict = "report-only"
        else:
            verdict = "pass" if ok else "fail"
        return {"case": cid, "verdict": verdict, "certificate": cert, "ms": ms}

    results = [execute(c) for c in cases]
    counts = {"pass": 0, "fail": 0, "report-only": 0}
    for r in results:
        counts[r["verdict"]] += 1
    return {
        "suite": suite,
        "p_values": list(p_values),
        "grid": [[p, m] for p in sorted(p_values) for m in cf.GRID_EXPONENTS if m % p],
        "seed": seed,
        "artifact_version": ARTIFACT_VERSION,
        "cases": results,
        "counts": counts,
        "exit": 0 if counts["fail"] == 0 else 1,
    }


def report_to_json(report) -> str:
    """The JSON text of a report, of the claims and of a query answer:
    sorted keys, indent 2 and a final newline.  build output is written
    by cli._module_text, with the same bytes."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_to_markdown(report: dict) -> str:
    lines = [
        f"# suite `{report['suite']}`",
        "",
        f"- p values: {report['p_values']}",
        f"- seed: {report['seed']}",
        f"- version: {report['artifact_version']}",
        f"- counts: {report['counts']['pass']} pass, "
        f"{report['counts']['fail']} fail, "
        f"{report['counts']['report-only']} report-only",
        "",
        "| case | verdict | certificate | ms |",
        "|---|---|---|---|",
    ]
    for r in report["cases"]:
        ms = "" if r["ms"] is None else str(r["ms"])
        lines.append(f"| {r['case']} | {r['verdict']} | {r['certificate']} | {ms} |")
    return "\n".join(lines) + "\n"


CLAIMS = (
    ("identities", "trace/<beta>",
     "summing (Z + i + j*b)^(p^2-1) over all prime-field pairs (i, j) gives the"
     " nonzero constant (b^p - b)^(p-1), for each extension element b"),
    ("identities", "trace-polynomial",
     "the same sum with b symbolic expands to the bivariate constant-in-x"
     " polynomial (y^p - y)^(p-1)"),
    ("combinatorics", "rh",
     "ramification jumps at 0..m give different exponent (p^2-1)(m+1) and the"
     " genus (p^2-1)(m-1)/2 fits the discrete genus-degree identity"),
    ("combinatorics", "gap-count",
     "the numerical semigroup generated by p^2 and m has exactly genus-many gaps"),
    ("combinatorics", "dd-sum", "the graded dimensions dd(c) sum to the genus"),
    ("combinatorics", "dd-reflection", "dd(c) + dd(m-c) = p^2 - 1 for every c"),
    ("combinatorics", "index-mirror",
     "i -> p^2 - 1 - i is a bijection between the two index families"),
    ("combinatorics", "rr-count",
     "the monomial basis of functions with bounded pole order has delta - g"
     " elements once delta reaches twice the genus"),
    ("combinatorics", "valuations",
     "the five standard valuations match their closed forms"),
    ("filtration", "sn-dims",
     "the vanishing-order filtration of the d-dimensional family member has"
     " the dimensions predicted by counting digit sums"),
    ("filtration", "ddeg-random",
     "the degree function equals the maximal digit sum over the support, on"
     " seeded random vectors and on every basis vector"),
    ("filtration", "ddeg-prime",
     "the two degree functions on the quotient family agree on seeded random"
     " vectors and on every basis vector"),
    ("structure", "vd-max-regular", "the p^2-dimensional member is the regular module"),
    ("structure", "vd-submax-aug",
     "the (p^2-1)-dimensional member is the augmentation ideal"),
    ("structure", "vd-one-trivial", "the 1-dimensional member is trivial"),
    ("structure", "vdr<d>-dual",
     "dualizing the quotient family reflects the parameter to p^2 - 1 - d"),
    ("structure", "vdr<d>-codim-one",
     "below parameter p the quotient member is the dual augmentation ideal"),
    ("structure", "vdr<d>-aug",
     "from parameter p^2 - p on, the quotient member is the augmentation ideal"),
    ("structure", "vdr-digit-<d1>-<d2>",
     "equal leading base-p digits give isomorphic quotient members"),
    ("indec", "vd<d>",
     "every d-dimensional member is indecomposable (one-dimensional fixed space)"),
    ("indec", "vdr<d>",
     "every quotient member is indecomposable (local endomorphism ring)"),
    ("classification", "vd pairs",
     "two d-dimensional members with 1 < d < p^2 - 1 are isomorphic exactly"
     " when their twist parameters agree"),
    ("classification", "vdr pairs",
     "two quotient members with p <= d < p^2 - p are isomorphic exactly when"
     " the leading digits and the twist parameters agree"),
    ("cores", "vd<d>",
     "the word-image core of the top filtration generator is the 2-dimensional"
     " member at the negated twist"),
    ("cores", "vdr<d>",
     "the core plus fixed space is the 2-dimensional member at the negated"
     " Frobenius twist, plus a trivial summand, for p <= d < p^2 - p"),
    ("cores", "vdr<d>-boundary",
     "at and past p^2 - p the fixed space collapses into the core and the"
     " trivial summand disappears (reported, not gated)"),
    ("jordan", "vd<d>/generic",
     "the generic Jordan type of the d-dimensional member is floor(d/p) full"
     " blocks plus one block of size d mod p"),
    ("jordan", "vdr<d>/generic",
     "the generic Jordan type of the quotient member is p-1 full blocks plus"
     " one of size p-1"),
    ("jordan", "nonconstant-survey",
     "which d give a non-constant Jordan type over the scanned pencil is"
     " reported per run"),
    ("holo", "c<c>",
     "each graded piece of the regular-differentials module equals the"
     " d-dimensional family member entrywise at d = dd(c)"),
    ("dr", "c<c>",
     "each mixed graded piece is identified with the quotient family member"
     " at d = dd(m-c) by an explicit scaled label map, verified as a matrix"
     " identity"),
    ("hodge", "c<c>",
     "the w-span is an invariant subspace matching the regular-differentials"
     " piece, and the quotient matches the dual of the dd(c)-dimensional"
     " member under index reversal"),
)
