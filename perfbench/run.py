#!/usr/bin/env python3
"""repcurve benchmark: one client in a closed loop calling
``repcurve.cli.main(argv)`` in-process.

    python3 perfbench/run.py --workload verify|query|graded --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
of that checkout.  The amount of work is fixed by the workload and the
seed; ``--seconds`` is accepted and not used.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics, measured with tracing off,
each set-up and each timed pass in a fresh interpreter, and scaled to the
speed of a reference kernel timed next to them (see speed.py).  With
``--trace 1`` it carries the per-layer metrics of a traced pass (see
tracer.py), the tracing overhead against an untraced pass of the same
plan, and the microbenchmarks.  Working files, span dumps and the digests
used to check that a seed repeats byte for byte go to ``perfbench/out/``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import WINDOW, Speed  # noqa: E402

# cold set-ups per run; setup_s is their median
SETUP_REPEATS = 3
# reference samples on each side of a set-up
SETUP_SAMPLES = 5


def import_cli():
    """repcurve.cli from this checkout's src/, or exit 1 without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repcurve")):
        sys.exit(f"no package at {src}/repcurve: run from the root of a repcurve checkout")
    sys.path.insert(0, src)
    import repcurve.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"repcurve was imported from {cli.__file__}, not from {src}")
    return cli


def tree_digest(path, suffix=""):
    """Digest of the names and bytes of the files under path that end with
    suffix, __pycache__ left out."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(path):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(suffix):
                full = os.path.join(base, name)
                h.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def remember(table, key, value):
    """The value an earlier run in this checkout stored under key, or None
    (then value is stored)."""
    path = os.path.join(OUT, f"{table}.json")
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        stored = {}
    if key in stored:
        return stored[key]
    stored[key] = value
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(stored, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)
    return None


def run_key(args):
    """Key of the stored digests: the package source, the benchmark's own
    code, the workload and the seed, so that only runs of the same code on
    the same inputs are compared."""
    code = tree_digest(os.path.join(ROOT, "src"), ".py")[:16]
    bench = tree_digest(HERE, ".py")[:16]
    return f"{code}:{bench}:{args.workload}:{args.seed}"


def child(args, *extra):
    """Run this script in a fresh interpreter with the extra arguments."""
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--workload", args.workload, "--seed", str(args.seed),
                    *extra], check=True)


@contextlib.contextmanager
def pinned(cpu):
    """Run this process, and the children it starts, on one CPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def setup(args, target, cpu):
    """One cold set-up in a fresh interpreter on one CPU; returns its wall
    time scaled to the reference speed, sampled on that CPU just before
    and after (see speed.py)."""
    with pinned(cpu):
        speed = Speed()
        speed.sample(SETUP_SAMPLES)
        t0 = time.perf_counter()
        child(args, "--setup-only", target)
        took = time.perf_counter() - t0
        speed.sample(SETUP_SAMPLES)
    return took * speed.factor()


def timed_pass(args, target, k, cpu=None):
    """Pass k of the plan in target, in a fresh interpreter (on one CPU)."""
    extra = ["--cpu", str(cpu)] if cpu is not None else []
    child(args, "--pass-only", target, "--pass-index", str(k), *extra)
    with open(os.path.join(target, f"pass{k}.json")) as fh:
        return json.load(fh)


def one_pass(args, cli):
    """Body of a --pass-only interpreter: run the pass, write pass<k>.json."""
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    with open(os.path.join(args.pass_only, "plan.json")) as fh:
        plan = json.load(fh)
    workloads.field_contexts()
    res = workloads.run_pass(plan, args.pass_only, cli,
                             workloads.pass_ops(plan, args.pass_index), Speed())
    res["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(args.pass_only, f"pass{args.pass_index}.json"), "w") as fh:
        json.dump(res, fh)


def pass_cpus(passes):
    """One CPU per pass, taking the allowed CPUs in turn: a shared VM slows
    each virtual CPU separately, so passes on different CPUs are less
    likely to all land in a slow phase."""
    cpus = sorted(os.sched_getaffinity(0))
    return [cpus[k % len(cpus)] for k in range(passes)]


def best_of(passes):
    """Combine passes: each op's fastest latency, the least time outside
    ops over the passes that ran every op, all attempts and failures, and
    a failure for each op whose answers differ between passes."""
    ids = set().union(*(r["lat"] for r in passes))
    res = {"lat": {i: min(r["lat"][i] for r in passes if i in r["lat"]) for i in ids},
           "rest_s": min((r["rest_s"] for r in passes if len(r["lat"]) == len(ids)),
                         default=0.0),
           "raw_s": [r["raw_s"] for r in passes],
           "attempted": sum(r["attempted"] for r in passes),
           "failed": sum(r["failed"] for r in passes),
           "errors": [e for r in passes for e in r["errors"]],
           "answers": {}}
    for r in passes:
        for k, digest in r["answers"].items():
            if res["answers"].setdefault(k, digest) != digest:
                res["failed"] += 1
                res["errors"].append(f"op {k}: answers differ between passes of one seed")
    return res


def end_to_end(args, cli, workdir):
    setups, digests = [], set()
    for k, cpu in enumerate(pass_cpus(SETUP_REPEATS)):
        target = os.path.join(workdir, f"setup{k}")
        setups.append(setup(args, target, cpu))
        digests.add(tree_digest(target))
    with open(os.path.join(target, "plan.json")) as fh:
        plan = json.load(fh)
    passes = [timed_pass(args, target, k, cpu)
              for k, cpu in enumerate(pass_cpus(workloads.PASSES[args.workload]))]
    res = best_of(passes)
    if len(digests) != 1:
        res["failed"] += 1
        res["errors"].append("set-up wrote different inputs for one seed")
    digest = hashlib.sha256(json.dumps(res["answers"], sort_keys=True).encode()).hexdigest()
    earlier = remember("answers", run_key(args), digest)
    if earlier not in (None, digest):
        res["failed"] += 1
        res["errors"].append("answers differ from an earlier run of this seed and code")
    p50, p90, beyond = workloads.percentiles(res["lat"].values())
    print(f"{args.workload}: {len(plan['ops'])} ops, {len(res['lat'])} latencies, "
          f"p90 has {beyond} beyond it, scaled set-ups {[round(s, 3) for s in setups]}, "
          f"unscaled pass times {[round(s, 2) for s in res['raw_s']]} s")
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "wall_s": (workloads.wall_s(res), "s"),
               "op_p50_ms": (p50, "ms"),
               "op_p90_ms": (p90, "ms"),
               "peak_rss_mb": (max(r["rss_mb"] for r in passes), "MB")}
    return res, metrics


def per_layer(args, cli, workdir):
    """Set-up and an untraced pass in fresh interpreters, then the traced
    pass in this one, which has done nothing but import the package, so
    that the traced pass is as cold as the untraced one."""
    import micro
    from tracer import Tracer, per_layer_names

    cpu = pass_cpus(1)[0]
    target = os.path.join(workdir, "setup")
    setup(args, target, cpu)
    with open(os.path.join(target, "plan.json")) as fh:
        plan = json.load(fh)
    plain = timed_pass(args, target, 0, cpu)
    with pinned(cpu):
        speed = Speed()
        speed.sample(2 * WINDOW)
        tracer = Tracer()
        tracer.install("repcurve")
        try:
            workloads.field_contexts()
            res = workloads.run_pass(plan, target, cli, workloads.pass_ops(plan, 0),
                                     Speed(on=False), tracer)
        finally:
            tracer.remove()
        speed.sample(2 * WINDOW)
    diff = sum(res["answers"].get(k) != v for k, v in plain["answers"].items())
    if diff or len(res["answers"]) != len(plain["answers"]):
        res["failed"] += max(diff, 1)
        res["errors"].append(f"{diff} traced answers differ from the untraced pass")
    res["failed"] += plain["failed"]
    res["attempted"] += plain["attempted"]
    res["errors"] += plain["errors"]

    values = tracer.metrics()
    counts = {k: v for k, v in values.items()
              if k.endswith((".calls", ".macs", ".cells", "_checks"))
              or ".method." in k or ".cert." in k}
    earlier = remember("counts", run_key(args), counts)
    mismatches = sum(earlier.get(k) != v for k, v in counts.items()) if earlier else 0
    if mismatches:
        res["failed"] += 1
        res["errors"].append(f"{mismatches} counts differ from an earlier traced run")
    values.update(micro.run())
    # the traced pass takes no reference samples between its ops, so that
    # none fall inside a span; it is scaled by those taken around it on
    # the same CPU, which misses a change of host speed during the pass
    values["trace.overhead_s"] = res["raw_s"] * speed.factor() - workloads.wall_s(plain)
    values["trace.spans"] = len(tracer.t0)
    values["trace.count_mismatches"] = mismatches

    top = tracer.top_primitives()
    for sp, prims in top.items():
        print(f"top self time {sp}: " + ", ".join(f"{n} {ms} ms" for n, ms in prims))
    stem = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
    tracer.save(stem + ".npz")
    with open(stem + ".json", "w") as fh:
        json.dump({"metrics": values, "top_primitives": top}, fh, sort_keys=True, indent=1)
    metrics = {name: (values[name], unit) for name, unit in per_layer_names()}
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.PLANNERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="write the inputs to DIR and exit (one cold set-up)")
    ap.add_argument("--pass-only", metavar="DIR",
                    help="run one pass of the plan in DIR, write DIR/pass<k>.json and exit")
    ap.add_argument("--pass-index", type=int, default=0, help="k for --pass-only")
    ap.add_argument("--cpu", type=int, help="CPU to pin --pass-only to")
    args = ap.parse_args(argv)
    cli = import_cli()
    if args.setup_only:
        workloads.make_plan(args.workload, args.seed, args.setup_only, cli)
        return 0
    if args.pass_only:
        one_pass(args, cli)
        return 0

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        measure = per_layer if args.trace else end_to_end
        res, metrics = measure(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in res["errors"][:20]:
        print(f"mismatch: {err}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
