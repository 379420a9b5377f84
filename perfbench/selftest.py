#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about a minute and a half).

    python3 perfbench/selftest.py

Run from the repository root.  It checks that

* every workload runs, untraced and traced, with no failed operation, and
  prints every metric BENCHMARK.json names, with the unit it names;
* a perturbed output fails each kind of check, a call that writes no output
  fails, and a run whose reference disagrees with the program reports failed
  operations and ``correct: false``;
* another seed changes the seeded inputs but not the list of operations;
* without ``./src/tlfsim`` the benchmark exits non-zero and prints no result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(".perfbench_out", "selftest")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

sys.path.insert(0, os.path.join(ROOT, "src"))
import numpy as np  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def tiny_run(workload: str, trace: int, refs: str) -> dict | None:
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny", "--refs", refs)
    if code != 0 or not lines:
        return None
    return json.loads(lines[-1])


def perturbed_outputs_fail(refs: dict) -> None:
    """Each kind of check rejects an output moved past its tolerance."""
    out_dir = os.path.join(OUT, "perturb")
    os.makedirs(out_dir, exist_ok=True)
    cases = [("continuum-broad", "figure7"), ("continuum-broad", "micro"),
             ("frozen-ensemble", "figure4"), ("reference-check", "unitary-single-0"),
             ("reference-check", "reduced-long")]
    for name, op_id in cases:
        op = next(o for o in workloads.build(name, 3, True, out_dir, refs)
                  if o.id == op_id)
        out = op.run()
        op.check(out)
        if isinstance(out, workloads.CsvOutput):
            row = workloads.check_rows(out.n_rows)[-1] + 1  # +1: header line
            with open(out.path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            cells = lines[row].split(",")
            cells[1] = repr(float(cells[1]) * 1.05 + 1e-3)
            lines[row] = ",".join(cells)
            with open(os.path.join(out_dir, op_id + ".csv"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            out = workloads.CsvOutput(os.path.join(out_dir, op_id + ".csv"))
        else:
            key = sorted(out)[0]
            out[key] = np.array(out[key], dtype=float)
            out[key][workloads.check_rows(out[key].size)[-1]] += 1e-5
        try:
            op.check(out)
            caught = False
        except workloads.CheckError:
            caught = True
        expect(caught, f"perturbed {name}/{op_id} output fails its check")


def missing_output_fails(refs: dict) -> None:
    """A call that exits 0 but writes nothing fails, even where an earlier
    pass left its file behind."""
    out_dir = os.path.join(OUT, "missing")
    os.makedirs(out_dir, exist_ok=True)
    op = workloads.build("fine-trace", 3, True, out_dir, refs)[0]
    known: dict = {}
    _, _, bad = worker._run_pass([op], None, known, [], out_dir)
    expect(bad == 0, f"fine-trace/{op.id} passes its check")
    op.call = lambda: None
    messages: list[str] = []
    _, _, bad = worker._run_pass([op], None, known, messages, out_dir)
    expect(bad == 1, f"a call that writes no output counts as failed ({messages})")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json lists the four workloads")

    os.makedirs(OUT, exist_ok=True)
    refs_path = os.path.join(OUT, "refs-tiny.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "make_refs.py"), "--tiny",
                    "--out", refs_path], check=True, env=env, timeout=170)
    with open(refs_path, encoding="utf-8") as fh:
        refs = json.load(fh)

    for name in workloads.NAMES:
        for trace in (0, 1):
            res = tiny_run(name, trace, refs_path)
            expect(res is not None and set(res) == RESULT_KEYS,
                   f"{name} trace={trace}: exits 0 with a result line")
            if res is None:
                continue
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{name} trace={trace}: {res['attempted']} ops, {res['failed']} failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == units[trace], f"{name} trace={trace}: metric names and units "
                                        "match BENCHMARK.json")

    perturbed_outputs_fail(refs)
    missing_output_fails(refs)
    bad = json.loads(json.dumps(refs))
    bad["continuum-broad"]["figure7"]["values"]["erfc"][-1] += 1e-6
    bad_path = os.path.join(OUT, "refs-perturbed.json")
    with open(bad_path, "w", encoding="utf-8") as fh:
        json.dump(bad, fh)
    res = tiny_run("continuum-broad", 0, bad_path)
    expect(res is not None and not res["correct"] and res["failed"] >= 2,
           "a reference mismatch counts as a failed operation in every pass")

    for name in workloads.NAMES:
        described = []
        for seed in ("1", "2"):
            code, lines = bench("--workload", name, "--seed", seed, "--seconds", "1",
                                "--describe", "--tiny", "--refs", refs_path)
            described.append(json.loads(lines[-1]) if code == 0 else None)
        a, b = described
        expect(a is not None and b is not None and a["ops"] == b["ops"]
               and a["inputs"] != b["inputs"],
               f"{name}: another seed changes the inputs, not the operations")

    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "fine-trace", "--seed", "1", "--seconds", "1",
                            cwd=bare)
        expect(code != 0 and not any(line.startswith("{") for line in lines),
               "without ./src/tlfsim: non-zero exit and no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
