"""Family invariants: index combinatorics, ramification, graded pieces."""

import json

import pytest

import repcurve.cli as cli
import repcurve.curvefam as cf
import repcurve.kmod as km
from repcurve.curvefam import (curve_params, dd, dr_graded,
                               genus, hodge_check, holo_graded, index_I,
                               index_J, ramification_profile, rr_basis,
                               semigroup_gap_count, valuation_table)
from repcurve.errors import BadParams, ContextMismatch, OutOfRange
from repcurve.ff import FieldCtx, default_ctx, enumerate_nonprime
from repcurve.kmod import module_from_json, v_d, vdr_quotient
from repcurve.linalg import Subspace, invert
from repcurve.poly import trace_sum
from repcurve.suites import run_suite

from reference import graded_to_json, record, vdr_label_matrix

C3 = default_ctx(3)
C5 = default_ctx(5)
# the configured curve grid: every exponent prime to each grid prime
GRID = tuple((p, m) for p in cf.GRID_PRIMES for m in cf.GRID_EXPONENTS if m % p)


def test_default_grid_excludes_divisible_exponents():
    # the grid a report at the default primes names, which the tests here run
    grid = run_suite("combinatorics", cf.GRID_PRIMES)["grid"]
    assert [3, 2] in grid and [5, 2] in grid
    assert all(m % p for p, m in grid)
    assert len(grid) == 9
    assert grid == [list(pm) for pm in GRID]


def test_dd_closed_form_and_reflection():
    assert [dd(3, 10, c) for c in range(1, 10)] == [8, 7, 6, 5, 4, 3, 2, 1, 0]
    assert dd(3, 2, 1) == 4
    for p, m in GRID:
        for c in range(1, m):
            assert dd(p, m, c) + dd(p, m, m - c) == p * p - 1
    with pytest.raises(OutOfRange):
        dd(3, 10, 0)
    with pytest.raises(OutOfRange):
        dd(3, 10, 10)


def test_index_sets_partition_and_mirror():
    for p, m in GRID:
        for c in range(1, m):
            I = index_I(p, m, c)
            J = index_J(p, m, c)
            assert I == tuple(range(dd(p, m, c)))
            assert len(J) == dd(p, m, c)
            assert tuple(sorted(p * p - 1 - i for i in I)) == J


def test_ramification_profile():
    rp = ramification_profile(3, 10)
    assert rp.group_orders == tuple([9] * 11 + [1])
    assert rp.different_exponent == 88
    assert rp.genus == 36
    assert genus(3, 2) == 4
    assert genus(5, 2) == 12


@pytest.mark.parametrize("p,m", GRID)
def test_gap_count_equals_genus(p, m):
    assert semigroup_gap_count(p, m) == genus(p, m)


def test_valuation_table():
    t = valuation_table(3, 10)
    assert t == {"z0": -30, "z1": -30, "x": -9, "dx": 70, "z": -10}


def test_rr_basis_counts():
    assert rr_basis(3, 10, 1) == ((0, 0),)
    # pole orders sit in the semigroup generated by m and p^2, bound strict
    assert len(rr_basis(3, 10, 10)) == 2
    assert len(rr_basis(3, 10, 20)) == 5
    g = genus(3, 10)
    assert len(rr_basis(3, 10, 2 * g)) == g
    for extra in (1, 7):
        assert len(rr_basis(3, 10, 2 * g + extra)) == g + extra


def test_curve_params_validation():
    t = C3.gen()
    with pytest.raises(BadParams):
        curve_params(C3, 9, t)  # p | m
    with pytest.raises(BadParams):
        curve_params(C3, 0, t)
    with pytest.raises(ContextMismatch):
        curve_params(C3, 2, C5.gen())
    params = curve_params(C3, 2, t)
    assert not params.gamma.is_zero()
    assert C3.one + params.alpha * params.beta ** 3 == C3.zero


def test_holo_graded_matches_family_members():
    params = curve_params(C3, 10, C3.gen())
    gm = holo_graded(params)
    assert gm.total_dim() == genus(3, 10)
    dims = [gm.piece(c).dim for c in range(1, 10)]
    assert dims == [8, 7, 6, 5, 4, 3, 2, 1, 0]
    piece = gm.piece(3)
    model = v_d(C3, 6, params.beta)
    assert piece.Msigma == model.Msigma and piece.Mtau == model.Mtau


def test_single_piece_small_exponent():
    params = curve_params(C3, 2, C3.gen())
    gm = holo_graded(params)
    assert gm.total_dim() == 4
    model = v_d(C3, 4, params.beta)
    assert gm.piece(1).Msigma == model.Msigma


def test_dr_graded_pieces_match_the_quotient():
    params = curve_params(C3, 10, C3.gen())
    gm = dr_graded(params)
    assert gm.total_dim() == 9 * 8
    for c in range(1, 10):
        piece = gm.piece(c)
        assert piece.dim == 8
        d = piece.meta["d"]
        assert d == dd(3, 10, 10 - c)
        Phi = vdr_label_matrix(C3, d, params.gamma)
        model = vdr_quotient(C3, d, params.beta)
        assert Phi @ model.Msigma == piece.Msigma @ Phi
        assert Phi @ model.Mtau == piece.Mtau @ Phi
        assert invert(Phi) is not None


@pytest.mark.parametrize("kind", ["holo", "dr"])
@pytest.mark.parametrize("p,m", [(3, 100), (5, 26)])
def test_each_distinct_piece_is_built_once(monkeypatch, kind, p, m):
    ctx = default_ctx(p)
    calls = {fn.__name__: record(monkeypatch, fn) for fn in (index_I, index_J, cf.dr_action)}
    params = curve_params(ctx, m, ctx.gen())
    gm = holo_graded(params) if kind == "holo" else dr_graded(params)
    # the index sets, and with them their asserts, are computed for every c
    assert len(calls["index_I"]) == m - 1
    assert len(calls["index_J"]) == (m - 1 if kind == "dr" else 0)
    keys = {c: (index_I(p, m, c) if kind == "holo"
                else (index_I(p, m, m - c), index_J(p, m, c)))
            for c in range(1, m)}
    distinct = set(keys.values())
    assert len(distinct) <= p * p
    # one dr_action stack per distinct de Rham piece
    assert len(calls["dr_action"]) == (len(distinct) if kind == "dr" else 0)
    assert len({id(piece) for piece in gm.pieces.values()}) == len(distinct)
    for c in range(1, m):
        for c2 in range(1, m):
            assert (gm.piece(c) is gm.piece(c2)) == (keys[c] == keys[c2])
    for c, piece in gm.pieces.items():
        if kind == "holo":
            # a holomorphic piece is the shared family member itself
            d = piece.dim
            assert d == dd(p, m, c)
            if d:
                assert piece is v_d(ctx, d, params.beta)
        else:
            d = piece.meta["d"]
            assert d == dd(p, m, m - c)
            Phi = vdr_label_matrix(ctx, d, params.gamma)
            model = vdr_quotient(ctx, d, params.beta)
            assert Phi @ model.Msigma == piece.Msigma @ Phi
            assert Phi @ model.Mtau == piece.Mtau @ Phi


@pytest.mark.parametrize("kind", ["holo", "dr"])
@pytest.mark.parametrize("p,m", [(3, 100), (5, 26)])
def test_each_distinct_piece_is_encoded_once(monkeypatch, capsys, kind, p, m):
    # a build writes one text per shared piece object, kept on the piece,
    # and reuses it under each of its keys.  Graded builds elsewhere in the
    # tests run over the default fields, so over this one no piece's text
    # is kept from before: every miss of the writer's memo is counted
    modulus = {3: "2,2,1", 5: "1,1,1"}[p]
    encoded = record(monkeypatch, cli._module_text, lambda args, _: args[0])
    assert cli.main(["build", kind, "--p", str(p), "--m", str(m), "--modulus", modulus,
                     "--alpha", "0,1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["pieces"]) == m - 1
    distinct = {(index_I(p, m, c) if kind == "holo"
                 else (index_I(p, m, m - c), index_J(p, m, c)))
                for c in range(1, m)}
    assert len({id(M) for M in encoded}) == len(encoded) == len(distinct)


def test_graded_builds_make_no_per_entry_scalar_calls(monkeypatch):
    # every piece and its family model is a block of one binomial table per
    # (field, beta), so the scalar calls do not grow with the entries
    p, m = 5, 26
    params = curve_params(C5, m, C5.gen())
    binoms = record(monkeypatch, km.binom_mod_p)
    powers = record(monkeypatch, FieldCtx.pow_idx)
    holo_graded(params)
    dr_graded(params)
    assert len(binoms) <= p ** 4
    assert len(powers) <= p ** 2


def test_vdr_and_dr_pieces_build_no_quotient(monkeypatch):
    # both are cut from the binomial table; only the quotient model that
    # checks them takes a quotient and an inversion, and it derives two
    # modules from the checked definition pair, the block-diagonal sum and
    # the quotient, and checks neither
    calls = [record(monkeypatch, fn)
             for fn in (km.quotient, km.invert, Subspace.from_rows, km.dr_action)]
    gm = dr_graded(curve_params(C5, 26, C5.gen()))
    # one dr_action stack per distinct de Rham piece, and no v_dr, which
    # would take its own
    stacks = len({id(piece) for piece in gm.pieces.values()})
    assert list(map(len, calls)) == [0, 0, 0, stacks]
    # the p members of a class d // p are one module, built once
    for d in range(26):
        km.v_dr(C5, d, C5.gen())
    assert list(map(len, calls)) == [0, 0, 0, stacks + 6]
    built, derived = (record(monkeypatch, fn) for fn in (km.HModule.__init__,
                                                         km.HModule._derived))
    km.vdr_quotient(C5, 12, C5.gen())
    assert all(calls[:3]) and len(derived) == 2 and built == []


@pytest.mark.parametrize("c,sub,quot", [(1, 0, 8), (5, 4, 4), (9, 8, 0)])
def test_hodge_split_dimensions(c, sub, quot):
    rep = hodge_check(dr_graded(curve_params(C3, 10, C3.gen())), c)
    assert rep["verdict"]
    assert (rep["sub_dim"], rep["quotient_dim"]) == (sub, quot)
    assert rep["sub_identity"] and rep["quotient_identity"]


def test_hodge_range_check():
    gm = dr_graded(curve_params(C3, 2, C3.gen()))
    with pytest.raises(OutOfRange):
        hodge_check(gm, 2)
    with pytest.raises(BadParams):
        hodge_check(holo_graded(gm.params), 1)


@pytest.mark.parametrize("p", [3, 5])
def test_trace_identity_all_betas(p):
    ctx = default_ctx(p)
    betas = enumerate_nonprime(ctx)
    assert len(betas) == ctx.q - p
    for b in betas:
        total, want = trace_sum(b)
        assert total == want and want.coeff(0).idx != 0


def test_graded_json_pieces_roundtrip():
    params = curve_params(C3, 4, C3.gen())
    gm = dr_graded(params)
    obj = graded_to_json(gm)
    assert obj["kind"] == "dr" and set(obj["pieces"]) == {"1", "2", "3"}
    back = module_from_json(obj["pieces"]["2"])
    assert back.Msigma == gm.piece(2).Msigma
