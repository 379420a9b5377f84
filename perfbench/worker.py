"""One fresh benchmark process: import tlfsim, build a workload, time passes.

Started by ``run.py``, which times it from launch to the ``ready`` line (the
set-up a command-line user pays on every call) and reads one ``result`` JSON
line at the end.  A pass runs every operation of the workload once, in order,
timing only the call into tlfsim.  The outputs are read back after the pass:
the first pass's are checked in full against their references, and later
passes must reproduce them exactly or pass the same check.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
import warnings

import numpy as np
import scipy

import tlfsim
import tlfsim.cli

import tracing
import workloads

MIN_PASSES = 3


def _environment(seed: int) -> dict:
    blas = {}
    for lib, mod in (("numpy", np), ("scipy", scipy)):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[lib] = f"{info.get('name')} {info.get('version')}"
        except (KeyError, TypeError, ValueError):
            blas[lib] = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "TLFSIM_THREADS": os.environ.get("TLFSIM_THREADS", "unset (pool = os.cpu_count())"),
        "blas_threads": {k: os.environ.get(k) for k in sorted(os.environ)
                         if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "seed": seed,
        "tlfsim": os.path.dirname(tlfsim.__file__),
    }


def _run_pass(ops, tracer, known: dict, failures: list,
              out_dir: str) -> tuple[list, list, int]:
    """Run every op once; returns (wall s per op, CPU s per op, failed count).

    ``out_dir`` is emptied first, so that an operation that writes nothing
    cannot be checked against a file an earlier pass or run left there.
    """
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))
    outputs, walls, cpus = [], [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            if tracer is not None:
                tracer.op = op.id
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                raw, err = op.call(), None
            except (Exception, SystemExit) as exc:  # a failed operation, not a crash
                raw, err = None, f"{type(exc).__name__}: {exc}"
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
            outputs.append((op, raw, err))
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed = 0
    for op, raw, err in outputs:
        if err is None:
            # A missing, unreadable or malformed output fails like a wrong one.
            try:
                out = op.read(raw)
                fp = op.fingerprint(out)
                if known.get(op.id) != fp:
                    op.check(out)
                    known[op.id] = fp
            except (workloads.CheckError, OSError, ValueError, IndexError, KeyError) as exc:
                err = f"check: {type(exc).__name__}: {exc}"
        if err is not None:
            failed += 1
            failures.append(f"{op.id}: {err}")
    return walls, cpus, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, default=0.0, help="seconds of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--describe", action="store_true",
                    help="print the op list and a digest of the seeded inputs")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--refs", help="reference file (default: the committed one)")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    out_dir = os.path.join(args.out_dir, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    refs = None
    if args.refs:
        with open(args.refs, encoding="utf-8") as fh:
            refs = json.load(fh)
    ops = workloads.build(args.workload, args.seed, args.tiny, out_dir, refs)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.describe:
        digest = hashlib.sha256(json.dumps([op.inputs for op in ops]).encode()).hexdigest()
        print("describe " + json.dumps({"ops": [op.id for op in ops], "inputs": digest}))
        return 0

    # Regime warnings are part of the program's output, but the benchmark's
    # log has no use for hundreds of copies of them.
    warnings.simplefilter("ignore", tlfsim.RegimeWarning)
    tracer = tracing.Tracer() if args.trace else None
    known: dict = {}
    failures: list[str] = []
    walls, cpus, traced_walls, layer_runs = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        wall, cpu, bad = _run_pass(ops, tracer if traced else None, known, failures,
                                   out_dir)
        attempted += len(ops)
        failed += bad
        if traced:
            traced_walls.append(sum(wall))
            layer_runs.append(tracing.layer_metrics(tracer.spans))
            spans = tracer.spans
        else:
            walls.append(wall)
            cpus.append(cpu)
        done = len(walls) + len(traced_walls)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed * (done + 1) / done > args.budget:
            break

    result = {
        "ops": [op.id for op in ops],
        "walls": walls,
        "cpus": cpus,
        "traced_passes": len(traced_walls),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(args.seed),
    }
    if tracer is not None:
        result["layers"] = {k: statistics.median(r[k] for r in layer_runs)
                            for k in layer_runs[0]}
        result["layers"]["trace.overhead_s"] = (statistics.median(traced_walls)
                                                - statistics.median(map(sum, walls)))
        with open(os.path.join(out_dir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
