"""Spans around the public functions of each repcurve layer, installed
from outside the package and removed again after the traced pass.

A function is rebound at every import site: each ``repcurve.*`` module
attribute that is the same object as the original is replaced, so
``from .linalg import kernel`` in ``kmod`` is traced as well as
``linalg.kernel``.  Spans (name, start, end, parent, op) are kept in
flat arrays in memory and written when the run ends.  A target that no
longer exists is skipped and named on stderr, so the untraced benchmark
never depends on these internals.
"""

import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("ff", "linalg", "poly", "kmod", "curvefam", "suites", "cli")

# span name -> (defining module, attribute); "Class.method" patches the class.
FUNCTIONS = (
    ("ff.ctx_new", "ff", "ctx_new"),
    ("ff.pow_idx", "ff", "FieldCtx.pow_idx"),
    ("ff.embed_map", "ff", "embed_map"),
    ("linalg.matmul", "linalg", "_matmul_idx"),
    ("linalg.rref", "linalg", "_rref_inplace"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.kernel", "linalg", "kernel"),
    ("linalg.nilpotent_partition", "linalg", "nilpotent_partition"),
    ("linalg.reduce", "linalg", "Subspace.reduce"),
    ("linalg.invert", "linalg", "invert"),
    ("poly.pow", "poly", "Poly1.__pow__"),
    ("poly.pow", "poly", "Poly2.__pow__"),
    ("kmod.build", "kmod", "v_d"),
    ("kmod.build", "kmod", "v_dr"),
    ("kmod.hom_space", "kmod", "hom_space"),
    ("kmod.end_algebra", "kmod", "end_algebra"),
    ("kmod.algebra_radical", "kmod", "algebra_radical"),
    ("kmod.jordan_scan", "kmod", "jordan_scan"),
    ("kmod.s_filtration", "kmod", "s_filtration"),
    ("kmod.ddeg", "kmod", "ddeg"),
    ("kmod.profile", "kmod", "profile"),
    ("kmod.is_isomorphic", "kmod", "is_isomorphic"),
    ("kmod.is_indecomposable", "kmod", "is_indecomposable"),
    ("kmod.witness_check", "kmod", "_verify_witness"),
    ("curvefam.dr_graded", "curvefam", "dr_graded"),
    ("curvefam.holo_graded", "curvefam", "holo_graded"),
    ("curvefam.hodge_check", "curvefam", "hodge_check"),
    ("suites.build", "suites", "build_cases"),
    ("cli.main", "cli", "main"),
    ("cli.module_load", "kmod", "module_from_json"),
)

SUITE_PRIMES = tuple(
    f"{s}.p{p}" for s in ("identities", "combinatorics", "filtration", "structure",
                          "indec", "classification", "cores", "jordan", "holo",
                          "dr", "hodge")
    for p in (3, 5) if not (s in ("cores", "hodge") and p == 5))
ISO_METHODS = ("dim-mismatch", "equal-matrices", "profile-mismatch",
               "hom-dim-mismatch", "random-combination", "exhaustive-scan",
               "scalar-extension")
INDEC_CERTS = ("T1", "T2", "T3", "T3-division")
TIMED = ("ff.ctx_new", "linalg.matmul", "linalg.rref", "linalg.kernel",
         "linalg.nilpotent_partition", "linalg.reduce", "linalg.invert",
         "kmod.build", "kmod.hom_space", "kmod.end_algebra",
         "kmod.algebra_radical", "kmod.jordan_scan", "kmod.s_filtration",
         "kmod.ddeg", "kmod.profile", "kmod.is_isomorphic",
         "kmod.is_indecomposable", "curvefam.dr_graded",
         "curvefam.holo_graded", "curvefam.hodge_check")
COUNTED = ("ff.ctx_new", "ff.pow_idx", "ff.embed_map", "linalg.matmul",
           "linalg.rref", "linalg.rank", "linalg.kernel",
           "linalg.nilpotent_partition", "linalg.reduce", "linalg.invert",
           "poly.pow", "kmod.build", "kmod.hom_space", "kmod.end_algebra",
           "kmod.algebra_radical", "kmod.jordan_scan", "kmod.s_filtration",
           "kmod.ddeg", "kmod.profile", "kmod.is_isomorphic",
           "kmod.is_indecomposable", "curvefam.dr_graded",
           "curvefam.holo_graded", "curvefam.hodge_check", "cli.main")
MICRO = ("micro.matmul24_us", "micro.matvec24_us", "micro.rank24_us",
         "micro.hom_space_vdr5_12_ms", "micro.algebra_radical_vdr5_12_ms",
         "micro.jordan_scan_vdr5_12_ms")


def per_layer_names():
    """(metric name, unit) of every per-layer metric, in output order."""
    out = []
    for name in COUNTED:
        out.append((f"{name}.calls", "count"))
        if name in TIMED:
            out.append((f"{name}.ms", "ms"))
    out += [("linalg.matmul.macs", "count"), ("linalg.rref.cells", "count"),
            ("kmod.build.distinct_ratio", "ratio"),
            ("kmod.end_algebra.hit_ratio", "ratio"),
            ("kmod.witness_checks", "count"), ("kmod.witness_yield", "ratio"),
            ("cli.module_load.ms", "ms")]
    out += [(f"kmod.is_isomorphic.method.{m}", "count") for m in ISO_METHODS]
    out += [(f"kmod.is_indecomposable.cert.{c}", "count") for c in INDEC_CERTS]
    out += [(f"suites.{sp}.ms", "ms") for sp in SUITE_PRIMES]
    out += [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    out += [(m, "us" if m.endswith("_us") else "ms") for m in MICRO]
    out += [("trace.overhead_s", "s"), ("trace.spans", "count"),
            ("trace.count_mismatches", "count")]
    return out


def _resolve(module, attr):
    """(owner object, attribute name, current value) or None if gone."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.names = []          # span name per name id
        self._ids = {}
        self.op = "setup"        # current operation, set by the workload loop
        self.ops = []
        self._op_ids = {}
        self.t0, self.t1 = array("d"), array("d")
        self.name_id, self.parent, self.op_id = array("i"), array("i"), array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self._stack, self._active = [], Counter()
        self.counts = Counter()  # computed counts and decision tallies
        self.build_keys = set()
        self._patches = []

    def _id(self, table, ids, key):
        if key not in ids:
            ids[key] = len(table)
            table.append(key)
        return ids[key]

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(args, result) adds counts."""
        nid = self._id(self.names, self._ids, name)

        def traced(*args, **kwargs):
            i = len(self.t0)
            self.t0.append(0.0)
            self.t1.append(0.0)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_id.append(self._id(self.ops, self._op_ids, self.op))
            self.outer.append(self._active[nid] == 0)
            self._active[nid] += 1
            self._stack.append(i)
            self.t0[i] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[i] = time.perf_counter()
                self._stack.pop()
                self._active[nid] -= 1
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- count hooks -------------------------------------------------------

    def _macs(self, args, result):
        A, B = args[1], args[2]
        self.counts["linalg.matmul.macs"] += A.shape[0] * A.shape[1] * B.shape[1]

    def _cells(self, args, result):
        self.counts["linalg.rref.cells"] += args[1].size

    def _build(self, args, result):
        ctx, d, beta = args[:3]
        self.build_keys.add((result.meta.get("kind"), ctx.p, ctx.n,
                             tuple(ctx.modulus), d, beta.idx))

    def _iso(self, args, result):
        self.counts[f"kmod.is_isomorphic.method.{result.method}"] += 1

    def _indec(self, args, result):
        self.counts[f"kmod.is_indecomposable.cert.{result.certificate}"] += 1

    def _witness(self, args, result):
        self.counts["kmod.witness_yes"] += bool(result)

    def _cases(self, result):
        """Give every case of a built case list its own suite x prime span
        and make its id the current op."""
        def case_span(cid, fn):
            suite, prime = cid.split("/")[:2]
            inner = self.span(f"suites.{suite}.{prime}", fn)

            def run(*a, **k):
                before, self.op = self.op, cid
                try:
                    return inner(*a, **k)
                finally:
                    self.op = before
            return run
        return [(cid, case_span(cid, fn)) for cid, fn in result]

    # -- install / remove --------------------------------------------------

    def install(self, package):
        mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                if name == package or name.startswith(package + ".")}
        after = {"linalg.matmul": self._macs, "linalg.rref": self._cells,
                 "kmod.build": self._build, "kmod.is_isomorphic": self._iso,
                 "kmod.is_indecomposable": self._indec,
                 "kmod.witness_check": self._witness}
        for name, modname, attr in FUNCTIONS:
            found = _resolve(mods[modname], attr) if modname in mods else None
            if found is None:
                sys.stderr.write(f"trace: {modname}.{attr} not found, {name} not traced\n")
                continue
            owner, aname, fn = found
            if name == "suites.build":
                wrapped = self._wrap_build(fn)
            else:
                wrapped = self.span(name, fn, after.get(name))
            if isinstance(owner, type):
                self._patch(owner, aname, fn, wrapped)
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, fn, wrapped)

    def _wrap_build(self, fn):
        spanned = self.span("suites.build", fn)

        def build(*args, **kwargs):
            return self._cases(spanned(*args, **kwargs))
        return build

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def remove(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def arrays(self):
        return {"t0": np.frombuffer(self.t0, dtype=np.float64),
                "t1": np.frombuffer(self.t1, dtype=np.float64),
                "name": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op_id, dtype=np.int32),
                "outer": np.frombuffer(self.outer, dtype=np.int8)}

    def self_times(self):
        a = self.arrays()
        dur = a["t1"] - a["t0"]
        child = np.zeros_like(dur)
        has = a["parent"] >= 0
        np.add.at(child, a["parent"][has], dur[has])
        return a, dur, dur - child

    def metrics(self):
        """Per-layer metrics (without micro and trace.*) from the spans."""
        a, dur, own = self.self_times()
        nnames = len(self.names)
        calls = np.bincount(a["name"], minlength=nnames)
        outer_ms = np.bincount(a["name"], weights=dur * (a["outer"] == 1),
                               minlength=nnames) * 1000.0
        own_ms = np.bincount(a["name"], weights=own, minlength=nnames) * 1000.0
        by_name = {n: (int(calls[i]), float(outer_ms[i]), float(own_ms[i]))
                   for i, n in enumerate(self.names)}
        out = {}
        for name in COUNTED:
            out[f"{name}.calls"] = by_name.get(name, (0, 0.0, 0.0))[0]
            if name in TIMED:
                out[f"{name}.ms"] = by_name.get(name, (0, 0.0, 0.0))[1]
        builds = out["kmod.build.calls"]
        out["kmod.build.distinct_ratio"] = len(self.build_keys) / builds if builds else 0.0
        ends = out["kmod.end_algebra.calls"]
        computed = 0
        if ends and "kmod.hom_space" in self._ids:
            hom = a["parent"][a["name"] == self._ids["kmod.hom_space"]]
            hom = hom[hom >= 0]
            computed = int(np.count_nonzero(
                a["name"][np.unique(hom)] == self._ids["kmod.end_algebra"]))
        out["kmod.end_algebra.hit_ratio"] = 1.0 - computed / ends if ends else 0.0
        checks = by_name.get("kmod.witness_check", (0, 0.0, 0.0))[0]
        out["kmod.witness_checks"] = checks
        out["kmod.witness_yield"] = self.counts["kmod.witness_yes"] / checks if checks else 0.0
        out["linalg.matmul.macs"] = self.counts["linalg.matmul.macs"]
        out["linalg.rref.cells"] = self.counts["linalg.rref.cells"]
        out["cli.module_load.ms"] = by_name.get("cli.module_load", (0, 0.0, 0.0))[1]
        for m in ISO_METHODS:
            out[f"kmod.is_isomorphic.method.{m}"] = self.counts[f"kmod.is_isomorphic.method.{m}"]
        for c in INDEC_CERTS:
            out[f"kmod.is_indecomposable.cert.{c}"] = self.counts[f"kmod.is_indecomposable.cert.{c}"]
        for sp in SUITE_PRIMES:
            out[f"suites.{sp}.ms"] = by_name.get(f"suites.{sp}", (0, 0.0, 0.0))[1]
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(v[2] for n, v in by_name.items()
                                          if n.split(".")[0] == layer)
        return out

    def top_primitives(self, k=3):
        """For each suite x prime, the k primitives with the most self time
        inside its cases (suite and cli spans are not primitives)."""
        a, dur, own = self.self_times()
        result = {}
        ops = np.array([o.split("/")[0] + "." + o.split("/")[1] if o.count("/") >= 2 else ""
                        for o in self.ops])
        if not len(ops):
            return result
        group = ops[a["op"]]
        prim = np.array([n.split(".")[0] not in ("suites", "cli") for n in self.names])
        keep = prim[a["name"]]
        for sp in SUITE_PRIMES:
            sel = keep & (group == sp)
            if not sel.any():
                continue
            ms = np.bincount(a["name"][sel], weights=own[sel],
                             minlength=len(self.names)) * 1000.0
            order = np.argsort(-ms)[:k]
            result[sp] = [(self.names[i], round(float(ms[i]), 1)) for i in order if ms[i] > 0]
        return result

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), ops=np.array(self.ops), **a)
