"""reference.record, the call recorder every work-count test goes
through: it binds by identity, so a call through any repcurve module's
name for the function is counted, and it leaves no binding behind."""

import numpy as np
import pytest

import repcurve
from repcurve import curvefam as cf
from repcurve import kmod as km
from repcurve import linalg, suites
from repcurve.ff import FieldCtx, default_ctx
from repcurve.linalg import Subspace
from reference import record

C3 = default_ctx(3)
A = np.eye(2, dtype=np.int64)


def test_every_binding_is_rebound(monkeypatch):
    products = record(monkeypatch, linalg._matmul_idx)
    assert linalg._matmul_idx is km._matmul_idx is suites._matmul_idx
    for mod in (linalg, km, suites):
        mod._matmul_idx(C3, A, A)
    assert len(products) == 3
    checks = record(monkeypatch, km.check_actions)
    assert km.check_actions is cf.check_actions
    cf.check_actions(C3, np.stack([A, A]))
    # a method and a classmethod are rebound on their class
    powers, rows = record(monkeypatch, FieldCtx.pow_idx), record(monkeypatch, Subspace.from_rows)
    C3.pow_idx(2, 3)
    Subspace.from_rows(C3, 2, A)
    assert len(checks) == len(powers) == len(rows) == 1
    assert rows[0][:3] == (Subspace, C3, 2)


def test_an_alias_in_another_module_is_counted(monkeypatch):
    # a name another module takes for the function, as `from .linalg import
    # _matmul_idx` in curvefam would, is rebound with the rest
    monkeypatch.setattr(cf, "_matmul_idx", linalg._matmul_idx, raising=False)
    products = record(monkeypatch, linalg._matmul_idx)
    cf._matmul_idx(C3, A, A)
    assert len(products) == 1


def test_two_recorders_on_one_function_both_count(monkeypatch):
    first = record(monkeypatch, linalg._matmul_idx)
    second = record(monkeypatch, linalg._matmul_idx, lambda args, out: out.shape)
    km._matmul_idx(C3, A, A)
    assert len(first) == 1 and second == [(2, 2)]
    M = km.v_d(C3, 3, C3.gen())
    spaces = [record(monkeypatch, km.fixed_space) for _ in range(2)]
    km.fixed_space(M)
    assert spaces == [[(M,)], [(M,)]]


def test_a_memo_records_its_misses_and_keeps_its_hits(monkeypatch):
    M, N = km.v_d(C3, 3, C3.gen()), km.v_d(C3, 4, C3.gen())
    kept = km.fixed_space(M)
    spaces = record(monkeypatch, km.fixed_space)
    assert km.fixed_space(M) is kept and repcurve.fixed_space(M) is kept
    assert spaces == []
    fresh = km.fixed_space(N)
    assert km.fixed_space(N) is fresh and spaces == [(N,)]


def test_undo_puts_every_original_back():
    fns = (linalg._matmul_idx, km.check_actions, km.fixed_space)
    sites = [(mod, key, val) for mod in (repcurve, linalg, km, cf, suites)
             for key, val in vars(mod).items() if any(val is fn for fn in fns)]
    entries = (vars(FieldCtx)["pow_idx"], vars(Subspace)["from_rows"])
    with pytest.MonkeyPatch.context() as mp:
        for fn in (*fns, FieldCtx.pow_idx, Subspace.from_rows):
            record(mp, fn)
        assert not any(getattr(mod, key) is val for mod, key, val in sites)
        assert vars(FieldCtx)["pow_idx"] is not entries[0]
    assert len(sites) >= 7 and all(getattr(mod, key) is val for mod, key, val in sites)
    assert vars(FieldCtx)["pow_idx"] is entries[0] and vars(Subspace)["from_rows"] is entries[1]


def test_a_function_no_module_binds_is_refused(monkeypatch):
    with pytest.raises(LookupError):
        record(monkeypatch, lambda: None)
