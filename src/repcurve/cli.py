"""Command line front end.

Subcommands: build (emit module or graded-family JSON), query (isomorphism,
indecomposability, Jordan data, profile, degree), verify (run a named
verification suite and report), claims (print what each suite checks).
Exit codes: 0 success / all gating cases pass, 1 a verification case
failed, 2 usage or validation error, 3 an internal error (a bug).  Errors
are emitted to stderr as a one-line JSON record {"error": code,
"message": text}; an internal error's code is "InternalError" and its
record also names the exception type and where it was raised.
"""

import argparse
import ctypes
import json
import os
import sys
import traceback
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from . import curvefam as cf
from . import kmod as km
from .errors import BadParams, RepcurveError, ShapeMismatch
from .ff import FieldElem, ctx_new, default_ctx
from .suites import (ADMITTED_PRIMES, ARTIFACT_VERSION, CLAIMS, SUITE_NAMES, SUITE_PRIMES,
                     report_to_json, report_to_markdown, run_suite)

QUERY_KINDS = ("iso", "indec", "jordan", "profile", "ddeg")


def _parse_modulus(text: str) -> tuple:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise RepcurveError(f"modulus must be comma-separated integers, got {text!r}")


def _ctx_from_args(args):
    if args.modulus is not None:
        return ctx_new(args.p, args.n, _parse_modulus(args.modulus))
    return default_ctx(args.p, args.n)


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(payload)
        except OSError as e:
            raise RepcurveError(f"cannot write {out}: {e.strerror}")
    else:
        sys.stdout.write(payload)


def _list_text(items, pad: str) -> str:
    """json.dumps(indent=2) of a non-empty list at indent pad, from the
    items' own texts."""
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _object_text(fields, pad: str) -> str:
    """json.dumps(indent=2) of an object at indent pad, from (key, value
    text) pairs already in key order; keys need no escaping."""
    if not fields:
        return "{}"
    inner = pad + "  "
    body = ",\n".join(f'{inner}"{k}": {v}' for k, v in fields)
    return f"{{\n{body}\n{pad}}}"


@km._memo
def _module_text(M: km.HModule, pad: str = "") -> str:
    """json.dumps(km.module_to_json(M), sort_keys=True, indent=2), written
    at indent pad from FieldCtx.texts and kept on M per pad, so a shared
    piece is written once.  Element texts are digits and commas: each
    matrix is one join over its rows, each row one join of its quoted
    entries.  Only the labels go through the JSON encoder's string
    escape."""
    ctx, in1 = M.ctx, pad + "  "
    in2 = in1 + "  "
    in3 = in2 + "  "
    # a matrix at in1 with its rows at in2 and their entries at in3
    head, entry, row, tail = (f'[\n{in2}[\n{in3}"', f'",\n{in3}"',
                              f'"\n{in2}],\n{in2}[\n{in3}"', f'"\n{in2}]\n{in1}]')
    sigma, tau = (head + row.join(map(entry.join, rows)) + tail if rows else "[]"
                  for rows in ctx.texts[M.gens].tolist())
    labels = (_list_text([encode_basestring_ascii(s) for s in M.labels], in1) if M.labels
              else "null")
    return _object_text((
        ("dim", M.dim),
        ("labels", labels),
        ("modulus", _list_text([str(c) for c in ctx.modulus], in1)),
        ("n", ctx.n),
        ("p", ctx.p),
        ("sigma", sigma),
        ("tau", tau),
    ), pad)


def _dump_graded(gm: cf.GradedModule) -> str:
    """report_to_json of the graded family's JSON object.  Equal pieces
    are one shared module object, whose text _module_text keeps, so each
    is written once at the pieces' depth and reused under each of its
    keys, which come in string order ("1", "10", ..., "2")."""
    pieces = [(c, _module_text(mod, "    "))
              for c, mod in sorted(gm.pieces.items(), key=lambda item: str(item[0]))]
    params = gm.params
    return _object_text((
        ("alpha", json.dumps(params.alpha.text())),
        ("beta", json.dumps(params.beta.text())),
        ("kind", json.dumps(gm.kind)),
        ("m", params.m),
        ("p", params.p),
        ("pieces", _object_text(pieces, "  ")),
    ), "") + "\n"


def _load_module(path: str) -> km.HModule:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise RepcurveError(f"cannot read {path}: {e.strerror}")
    except ValueError as e:  # bad JSON, bytes not UTF-8, or an over-long integer
        raise RepcurveError(f"{path} is not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise RepcurveError(f"{path} does not hold a module object")
    return km.module_from_json(obj)


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise RepcurveError(f"build {args.kind} needs {flags}")


# stock kind -> kmod constructor; builders are looked up on their module
# at each call, so a wrapper rebound there (perfbench's tracer) sees them
_STOCK = {"regular": "regular_module", "aug": "augmentation_ideal",
          "trivial": "trivial_module"}
BUILD_KINDS = ("vd", "vdr", *_STOCK, "holo", "dr")


def cmd_build(args) -> int:
    for flag, kinds in (("d", "vd|vdr"), ("beta", "vd|vdr"),
                        ("m", "holo|dr"), ("alpha", "holo|dr")):
        if getattr(args, flag) is not None and args.kind not in kinds.split("|"):
            raise BadParams(f"--{flag} applies to build {kinds} only, not {args.kind}")
    ctx = _ctx_from_args(args)
    if args.kind in ("vd", "vdr"):
        _require(args, ("d", "beta"))
        build = km.v_d if args.kind == "vd" else km.v_dr
        payload = _module_text(build(ctx, args.d, ctx.from_text(args.beta))) + "\n"
    elif args.kind in ("holo", "dr"):
        _require(args, ("m", "alpha"))
        build = cf.holo_graded if args.kind == "holo" else cf.dr_graded
        payload = _dump_graded(build(cf.curve_params(ctx, args.m, ctx.from_text(args.alpha))))
    else:
        payload = _module_text(getattr(km, _STOCK[args.kind])(ctx)) + "\n"
    _emit(payload, args.out)
    return 0


def _query_ddeg(args, M: km.HModule) -> dict:
    if (args.label is None) == (args.vector is None):
        raise RepcurveError("ddeg needs exactly one of --label or --vector")
    if args.label is not None:
        v = M.basis_vector(args.label)
        shown = args.label
    else:
        parts = args.vector.split(";") if args.vector else []
        if len(parts) != M.dim:
            raise ShapeMismatch(
                f"vector has {len(parts)} components, module has dim {M.dim}")
        v = np.array([M.ctx.from_text(t).idx for t in parts], dtype=np.int64)
        shown = args.vector
    return {"input": shown, "ddeg": km.ddeg(M, v)}


def cmd_query(args) -> int:
    for flag, kind in (("label", "ddeg"), ("vector", "ddeg")):
        if getattr(args, flag) is not None and args.kind != kind:
            raise BadParams(f"--{flag} applies to query {kind} only, not {args.kind}")
    if args.kind == "iso":
        if len(args.modules) != 2:
            raise RepcurveError("iso needs exactly two module files")
        A, B = map(_load_module, args.modules)
        dec = km.is_isomorphic(A, B)
        payload = dec.to_json()
    else:
        if len(args.modules) != 1:
            raise RepcurveError(f"{args.kind} needs exactly one module file")
        M = _load_module(args.modules[0])
        if args.kind == "indec":
            payload = km.is_indecomposable(M).to_json()
        elif args.kind == "jordan":
            scan = [{"point": [FieldElem(M.ctx, a).text() if a else "0",
                               FieldElem(M.ctx, b).text()],
                     "type": list(t)}
                    for (a, b), t in km.jordan_scan(M)]
            payload = {"generic": list(km.generic_jordan_type(M)),
                       "scan": scan,
                       "constant": km.constant_type_over_scan(M)}
        elif args.kind == "profile":
            payload = km.profile(M).to_json()
        else:
            payload = _query_ddeg(args, M)
    _emit(report_to_json(payload), args.out)
    return 0


def cmd_verify(args) -> int:
    p_values = tuple(dict.fromkeys(args.p)) if args.p else SUITE_PRIMES
    report = run_suite(args.suite, p_values, seed=args.seed, timings=args.timings)
    payload = (report_to_markdown(report) if args.format == "md"
               else report_to_json(report))
    _emit(payload, args.out)
    return report["exit"]


def cmd_claims(args) -> int:
    if args.format == "json":
        payload = report_to_json([{"suite": s, "cases": c, "claim": t} for s, c, t in CLAIMS])
    else:
        lines = ["| suite | cases | claim |", "|---|---|---|"]
        lines += [f"| {s} | {c} | {t} |" for s, c, t in CLAIMS]
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.out)
    return 0


def _add_ctx_flags(sub) -> None:
    sub.add_argument("--p", type=int, required=True, help="prime")
    sub.add_argument("--n", type=int, default=2, help="extension degree (default 2)")
    sub.add_argument("--modulus", type=str, default=None,
                     help="comma-separated coefficients, low degree first")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repcurve",
        description="exact verification toolkit for a family of modular"
                    " representations attached to a family of curves")
    ap.add_argument("--version", action="version", version=ARTIFACT_VERSION)
    subs = ap.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="construct a module or graded family as JSON")
    b.add_argument("kind", choices=BUILD_KINDS)
    _add_ctx_flags(b)
    b.add_argument("--d", type=int, default=None, help="module parameter")
    b.add_argument("--beta", type=str, default=None,
                   help="twist parameter, element text like 0,1")
    b.add_argument("--m", type=int, default=None, help="branching exponent")
    b.add_argument("--alpha", type=str, default=None,
                   help="family parameter, element text like 0,1")
    b.add_argument("--out", type=str, default=None)
    b.set_defaults(fn=cmd_build)

    q = subs.add_parser("query", help="run a decision procedure on module JSON")
    q.add_argument("kind", choices=QUERY_KINDS)
    q.add_argument("modules", nargs="+", help="module JSON file(s)")
    q.add_argument("--label", type=str, default=None, help="basis label (ddeg only)")
    q.add_argument("--vector", type=str, default=None,
                   help="semicolon-separated element texts (ddeg only)")
    q.add_argument("--out", type=str, default=None)
    q.set_defaults(fn=cmd_query)

    v = subs.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITE_NAMES + ("all",))
    v.add_argument("--p", type=int, action="append", default=None,
                   help="prime to run at, one of " + ", ".join(map(str, ADMITTED_PRIMES))
                        + "; repeatable; default " + " and ".join(map(str, SUITE_PRIMES))
                        + "; p = 3 runs every case, a larger p a sample written in p,"
                          " and cores and hodge run at p = 3 alone")
    v.add_argument("--seed", type=int, default=0, help="global seed (default 0)")
    v.add_argument("--format", choices=("json", "md"), default="json")
    v.add_argument("--timings", action="store_true",
                   help="record wall-clock ms per case (off for bytewise determinism)")
    v.add_argument("--out", type=str, default=None)
    v.set_defaults(fn=cmd_verify)

    c = subs.add_parser("claims", help="print the claim checked by each suite")
    c.add_argument("--format", choices=("json", "md"), default="md")
    c.add_argument("--out", type=str, default=None)
    c.set_defaults(fn=cmd_claims)
    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later main call;
    parse_args keeps no state between calls."""
    return build_parser()


@lru_cache(maxsize=None)
def _heap_policy() -> None:
    """Once per process: keep numpy temporaries on the glibc heap.  With the
    default dynamic mmap threshold every 128 KiB - 2 MiB temporary is
    mapped and faulted in afresh on each call; 32 MiB (M_MMAP_THRESHOLD)
    and a 64 MiB trim threshold (M_TRIM_THRESHOLD) are the ceiling glibc's
    own dynamic rule reaches on 64-bit.  Without glibc's mallopt this does
    nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _heap_policy()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except RepcurveError as e:
        record = {"error": e.code, "message": str(e)}
        code = 2
    except Exception as e:  # a bug: never exit 1, which means a case failed
        frame = traceback.extract_tb(e.__traceback__)[-1]
        record = {"error": "InternalError", "type": type(e).__name__, "message": str(e),
                  "where": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"}
        code = 3
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
