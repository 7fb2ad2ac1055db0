"""Invariants of a two-parameter family of (Z/p x Z/p)-covers of the line.

Everything geometric enters through integer shadows: ramification jumps,
valuations at the unique ramified point, a numerical semigroup, and index
sets cut out by lattice inequalities.  The graded pieces of the two
cohomology-style spaces are assembled as explicit (2, d, d) stacks of
commuting generator matrices over the coefficient field: a holomorphic
piece is the family member v_d, and a de Rham piece is kmod.dr_action,
the construction v_dr shares, which the dr suite checks against the
paper's quotient by a scaled label map.
"""

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .errors import BadParams, ContextMismatch, OutOfRange
from .ff import FieldCtx, FieldElem, beta_from_alpha
from .kmod import HModule, _memo, check_actions, dr_action, dual, v_d, vd_definition

# test grid fixed by configuration; second component drops multiples of p
GRID_PRIMES = (3, 5)
GRID_EXPONENTS = (2, 4, 7, 10, 26)
# largest exponent curve_params accepts: the graded families grow with m
# (m - 1 pieces, genus (p^2 - 1)(m - 1)/2), and m in the thousands takes
# seconds per build
MAX_EXPONENT = 100


# ---------------------------------------------------------------------------
# Index combinatorics


def _check_exponent(p: int, m: int) -> None:
    """The family's exponent rule, m >= 1 and p not dividing m, which every
    function of (p, m) here checks first: for p | m the semigroup <p^2, m>
    has infinitely many gaps and the graded pieces are not the family's."""
    if m < 1 or m % p == 0:
        raise BadParams(f"exponent m={m} must be positive and prime to p={p}")


def dd(p: int, m: int, c: int) -> int:
    """Dimension function of the graded pieces: p^2 - ceil((p^2*c + 1)/m)."""
    _check_exponent(p, m)
    if not (1 <= c <= m - 1):
        raise OutOfRange(f"index {c} outside 1..{m - 1}")
    pp = p * p
    return pp - (pp * c + m) // m


def index_I(p: int, m: int, c: int) -> tuple:
    """Indices i < p^2 with m*i + p^2*c < m*(p^2 - 1), increasing.

    Always the initial segment 0..dd(c)-1.  Once the condition fails it
    fails for every larger i, so asserting that it holds at dd(c) - 1 and
    fails at dd(c) shows the two descriptions equal, which pins the
    ceiling arithmetic in dd.
    """
    d = dd(p, m, c)  # refuses a bad exponent or c outside 1..m-1
    pp = p * p
    assert m * (d - 1) + pp * c < m * (pp - 1) <= m * d + pp * c
    return tuple(range(d))


def index_J(p: int, m: int, c: int) -> tuple:
    """Indices i <= p^2 - 1 with p^2*c/m < i, increasing.

    Mirror image of index_I under i -> p^2 - 1 - i: the final segment of
    dd(c) indices.  Once the strict rational inequality, kept in
    integers, holds it holds for every larger i, so it is asserted to hold
    at p^2 - dd(c) and to fail just below.
    """
    d = dd(p, m, c)  # refuses a bad exponent or c outside 1..m-1
    pp = p * p
    assert m * (pp - d - 1) <= pp * c < m * (pp - d)
    return tuple(range(pp - d, pp))


# ---------------------------------------------------------------------------
# Curve-level numerics


@dataclass(frozen=True)
class CurveParams:
    """Parameters of one member of the family, with the derived constants.

    beta is the p-th root of -1/alpha; gamma = m*(1 + alpha*beta) is the
    scaling constant of the eta-to-omega rewriting and is nonzero exactly
    because alpha (equivalently beta) lies outside the prime field.
    """

    ctx: FieldCtx
    m: int
    alpha: FieldElem
    beta: FieldElem
    gamma: FieldElem

    @property
    def p(self) -> int:
        return self.ctx.p


def curve_params(ctx: FieldCtx, m: int, alpha: FieldElem) -> CurveParams:
    if alpha.ctx is not ctx:
        raise ContextMismatch("alpha from a different field context")
    p = ctx.p
    _check_exponent(p, m)
    if m > MAX_EXPONENT:
        raise BadParams(f"exponent m={m} above the limit {MAX_EXPONENT}")
    beta = beta_from_alpha(alpha)  # rejects alpha in the prime field
    gamma = (FieldElem(ctx, 1) + alpha * beta) * FieldElem(ctx, m % p)
    assert gamma.idx != 0
    return CurveParams(ctx, m, alpha, beta, gamma)


@dataclass(frozen=True)
class RamificationProfile:
    group_orders: tuple  # orders of the higher ramification groups, 0..m+1
    different_exponent: int
    genus: int


def ramification_profile(p: int, m: int) -> RamificationProfile:
    """Jump data at the unique ramified point: the full group in every
    index 0..m, trivial beyond; the different exponent and the genus
    follow, and the discrete Riemann-Hurwitz identity is asserted."""
    _check_exponent(p, m)
    pp = p * p
    orders = tuple([pp] * (m + 1) + [1])
    d_point = sum(o - 1 for o in orders)
    assert d_point == (pp - 1) * (m + 1)
    g2 = -2 * pp + d_point + 2
    assert g2 % 2 == 0 and g2 >= 0
    g = g2 // 2
    assert 2 * g - 2 == -2 * pp + d_point
    return RamificationProfile(orders, d_point, g)


def genus(p: int, m: int) -> int:
    return ramification_profile(p, m).genus


def valuation_table(p: int, m: int) -> Dict[str, int]:
    """Pole/zero orders at the ramified point of the five standard
    functions and forms: the two tower coordinates, the base coordinate,
    its differential, and the diagonal coordinate z."""
    _check_exponent(p, m)
    pp = p * p
    return {
        "z0": -m * p,
        "z1": -m * p,
        "x": -pp,
        "dx": (pp - 1) * (m + 1) - 2 * pp,
        "z": -m,
    }


def semigroup_gap_count(p: int, m: int) -> int:
    """Number of nonnegative integers not of the form a*p^2 + b*m.

    Computed by sieving up to the conductor; agrees with the genus for
    every coprime pair, which the suites assert.
    """
    _check_exponent(p, m)
    pp = p * p
    # conductor of <p^2, m> is (p^2-1)(m-1); sieve one past it
    bound = (pp - 1) * (m - 1) + 1
    hit = np.zeros(bound, dtype=bool)
    if bound > 0:
        hit[0] = True
    for n in range(1, bound):
        if n >= pp and hit[n - pp]:
            hit[n] = True
        elif n >= m and hit[n - m]:
            hit[n] = True
    return int(np.count_nonzero(~hit))


def rr_basis(p: int, m: int, delta: int) -> tuple:
    """Monomial exponent pairs (i, c) with 0 <= i < p^2, c >= 0 and
    m*i + p^2*c < delta; for delta past twice the genus the count is
    delta - genus."""
    _check_exponent(p, m)
    pp = p * p
    out = []
    for i in range(pp):
        if m * i >= delta:
            break
        cmax = (delta - 1 - m * i) // pp
        out.extend((i, c) for c in range(cmax + 1))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Graded module assembly


@dataclass
class GradedModule:
    params: CurveParams
    kind: str  # "holo" or "dr"
    pieces: Dict[int, HModule] = field(default_factory=dict)

    def piece(self, c: int) -> HModule:
        if c not in self.pieces:
            raise OutOfRange(f"no graded piece at index {c}")
        return self.pieces[c]

    def total_dim(self) -> int:
        return sum(mod.dim for mod in self.pieces.values())


@_memo
def _zero_module(ctx: FieldCtx) -> HModule:
    """The zero module, shared per context; its (2, 0, 0) stack holds both
    relations vacuously, so it is derived."""
    return HModule._derived(ctx, np.zeros((2, 0, 0), dtype=np.int64), meta={"kind": "zero"})


def holo_graded(params: CurveParams) -> GradedModule:
    """Graded space of everywhere-regular differentials, one module per
    nontrivial character index c of the prime-to-p cyclic action.  Piece
    c has basis w_i over index_I(c), the initial segment 0..dd(c)-1, so it
    is the shared family member v_d at d = dd(c), and the shared zero
    module when dd(c) = 0; v_d checks the factors of its beta once, and
    derives every member.  The dimension count across pieces reproduces
    the genus."""
    p, m = params.p, params.m
    dims = [len(index_I(p, m, c)) for c in range(1, m)]
    members = {d: v_d(params.ctx, d, params.beta) if d else _zero_module(params.ctx)
               for d in dict.fromkeys(dims)}
    gm = GradedModule(params, "holo", {c: members[d] for c, d in enumerate(dims, 1)})
    assert gm.total_dim() == genus(p, m)
    return gm


def dr_graded(params: CurveParams) -> GradedModule:
    """Graded first hypercohomology of the family member: piece c mixes
    the regular differentials at character m-c (labels w_i) with the tail
    cocycle classes at character c (labels eta_i).  Out-of-range eta
    labels rewrite to -i*gamma*w_{i-1}: the piece is dr_action at
    d = dd(m-c) with the curve's gamma, which at gamma = 1 builds v_dr(d),
    so vdr_label_map identifies it with v_dr(d).  Pieces with equal index
    sets are one shared module; the distinct ones, all of dim p^2 - 1,
    are checked by one check_actions on their stacked gens and derived.
    An empty family (m = 1) checks nothing."""
    p, m = params.p, params.m
    keys = [(index_I(p, m, m - c), index_J(p, m, c)) for c in range(1, m)]
    distinct = list(dict.fromkeys(keys))
    # the two independently derived index sets must tile 0..p^2-1 minus {d}
    assert all(eta == tuple(range(len(omega) + 1, p * p)) for omega, eta in distinct)
    gens = [dr_action(params.ctx, len(omega), params.beta, params.gamma) for omega, _ in distinct]
    if gens:
        check_actions(params.ctx, np.stack(gens))
    built = {}
    for (omega, eta), G in zip(distinct, gens):
        labels = [f"w{i}" for i in omega] + [f"eta{i}" for i in eta]
        built[omega, eta] = HModule._derived(params.ctx, G, labels,
                                             {"kind": "dr_piece", "d": len(omega)})
    gm = GradedModule(params, "dr", {c: built[key] for c, key in enumerate(keys, 1)})
    assert gm.total_dim() == (m - 1) * (p ** 2 - 1)
    return gm


def hodge_check(gm: GradedModule, c: int) -> dict:
    """Two-step filtration of piece c of the de Rham family gm, as
    dr_graded builds and checks it: the w-span is an invariant subspace
    matching the regular-differential piece at index m-c entrywise, and
    the quotient on the eta-classes matches the dual of the degree-dd(c)
    member under the index reversal i -> p^2 - 1 - i.  Both models are
    blocks of kmod.vd_definition(ctx, beta), never of the binomial table
    the piece is cut from.  Both identifications are matrix identities;
    the report carries the dimensions and verdicts."""
    if gm.kind != "dr":
        raise BadParams(f"the Hodge check reads a dr family, not {gm.kind}")
    params = gm.params
    ctx = params.ctx
    p, m = params.p, params.m
    pp = p * p
    piece = gm.piece(c)
    d = piece.meta["d"]  # dimension of the w-block
    e = pp - 1 - d  # dimension of the quotient
    D = vd_definition(ctx, params.beta)

    # the w-block occupies the leading coordinates, so the invariant
    # subspace is spanned by leading standard vectors and the induced
    # matrices are the leading principal blocks
    sub_ok = True
    if d > 0:
        sub_ok = (np.array_equal(piece.gens[:, :d, :d], D[:, :d, :d])
                  and not piece.gens[:, d:, :d].any())

    # quotient by the w-block in eta coordinates: trailing principal block;
    # the class of eta_{p^2-1-j} is the j-th dual basis vector, so the
    # block is the dual model with rows and columns reversed
    quot_ok = True
    if e > 0:
        model_q = dual(HModule._derived(ctx, D[:, :e, :e]))
        quot_ok = np.array_equal(piece.gens[:, d:, d:], model_q.gens[:, ::-1, ::-1])

    return {
        "check": "hodge",
        "p": p,
        "m": m,
        "c": c,
        "sub_dim": d,
        "quotient_dim": e,
        "dims_exact": d + e == piece.dim,
        "sub_identity": bool(sub_ok),
        "quotient_identity": bool(quot_ok),
        "verdict": bool(sub_ok and quot_ok and d + e == piece.dim),
    }
