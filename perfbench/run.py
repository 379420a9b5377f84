#!/usr/bin/env python3
"""tlfsim benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload frozen-ensemble --seed 1 --seconds 20 --trace 0

Run from the repository root; the program under test is ``./src/tlfsim``.
Every child process gets one BLAS thread and the CLI's default thread pool
(``TLFSIM_THREADS`` unset, so ``os.cpu_count()`` workers).

A run starts ``SETUP_SAMPLES`` fresh interpreters that import tlfsim and
build the workload's inputs; the last of them also runs passes over the
workload until ``--seconds`` (counted from the start of the run) are used.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
(see README.md).  The last line of standard output is the result object.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 8  # fresh interpreters per run, the measuring one included
PROCESS_TIMEOUT = 150.0  # seconds; the whole run must end within 180
OUT_DIR = ".perfbench_out"


class BenchError(Exception):
    pass


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("TLFSIM_THREADS", None)
    env.update({k: "1" for k in BLAS_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


class Worker:
    """A ``worker.py`` child; ``setup_s`` is launch-to-``ready`` wall time."""

    def __init__(self, cmd: list[str], env: dict, root: str, deadline: float) -> None:
        self.deadline = deadline
        t0 = time.perf_counter()
        # Unbuffered, so that reading the first line leaves the rest of the
        # output in the pipe for communicate().
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root, bufsize=0)
        try:
            line = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            if line.strip() != b"ready":
                self.finish()
                raise BenchError(f"worker did not start (exit {self.proc.returncode})")
        except BaseException:
            self.kill()
            raise

    def finish(self) -> list[str]:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except BaseException:
            self.kill()
            raise
        return out.decode().splitlines()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _tagged(lines: list[str], tag: str) -> dict:
    for line in reversed(lines):
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise BenchError(f"worker printed no {tag!r} line")


def run(args, spec: dict) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tlfsim", "cli.py")):
        raise BenchError("no ./src/tlfsim here; run from the tlfsim repository root")
    t_start = time.perf_counter()
    deadline = t_start + PROCESS_TIMEOUT
    env = _child_env(root)
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out-dir", os.path.join(root, OUT_DIR)]
    if args.tiny:
        base += ["--tiny", "--refs", args.refs]

    if args.describe:
        w = Worker(base + ["--describe"], env, root, deadline)
        return _tagged(w.finish(), "describe")

    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        w = Worker(base + ["--setup-only"], env, root, deadline)
        w.finish()
        setup.append(w.setup_s)
    budget = args.seconds - (time.perf_counter() - t_start)
    w = Worker(base + ["--budget", repr(budget), "--trace", str(args.trace)],
               env, root, deadline)
    setup.append(w.setup_s)
    lines = w.finish()
    if w.proc.returncode != 0:
        raise BenchError(f"worker exited with {w.proc.returncode}")
    res = _tagged(lines, "result")

    env_record = dict(res["env"], workload=args.workload, src_lines=_src_lines(root),
                      seconds=args.seconds, setup_samples=len(setup),
                      passes=len(res["walls"]), traced_passes=res["traced_passes"])
    print("env " + json.dumps(env_record, sort_keys=True))
    print("samples " + json.dumps({"setup_s": setup, "ops": res["ops"],
                                   "wall_s": res["walls"], "cpu_s": res["cpus"]}))
    for msg in res["failures"]:
        print("failed " + msg)

    if args.trace:
        values = res["layers"]
        listed = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": _per_op_median(res["walls"]),
                  "cpu_s": _per_op_median(res["cpus"]),
                  "peak_rss_mb": res["maxrss_mb"]}
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def _per_op_median(passes: list[list[float]]) -> float:
    """Time for one full set of outputs: each operation's median over passes."""
    return sum(statistics.median(times) for times in zip(*passes))


def main(argv=None) -> int:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test size")
    ap.add_argument("--refs", help="reference file for --tiny")
    ap.add_argument("--describe", action="store_true",
                    help="print the op list and seeded-input digest instead of running")
    args = ap.parse_args(argv)
    try:
        result = run(args, spec)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
