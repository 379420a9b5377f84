"""Regenerate the golden outputs next to this file.

    python tests/golden/regenerate.py

Writes ``fig{N}.csv`` and ``fig{N}.csv.manifest`` for N = 1..7 from
``tlfsim figure N --seed 1 --n-points 200``, and ``<kind>.csv`` plus its
manifest for each subcommand from one ``--seed 1`` run with every method tag
of that kind (``KIND_RUNS``); ``tests/test_golden.py`` compares fresh runs
against them.  Regenerating is a reviewed act: the change record names each
file that changed and says why.
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIGURES = range(1, 8)
# Each subcommand's flags.  dissipative takes lambda = 0.1 so that g < 5|lambda|
# puts it in a strong-coupling regime, which strong_damped needs; ensemble
# leaves out broad, which exceeds the work budget at its defaults; micro runs
# 5 temperatures at the least nSamples.
KIND_RUNS = {
    "jc-only": ["--methods", "gr,gr_short", "--n-points", "50"],
    "single-tlf": ["--methods", "exact,weak_envelope,strong_leading,strong_higher",
                   "--n-points", "50"],
    "dissipative": ["--lambda", "0.1", "--methods", "ode,weak_damped,strong_damped",
                    "--n-points", "50"],
    "ensemble": ["--methods", "exact,narrow,continuum,envelope", "--n-points", "50"],
    "continuum": ["--methods", "continuum,narrow,broad,erfc,linear", "--n-points", "50"],
    "micro": ["--methods", "variance,stderr", "--n-samples", "10000", "--n-points", "5"],
}


def argv(index: int, out: str) -> list[str]:
    return ["figure", str(index), "--seed", "1", "--n-points", "200", "--out", out]


def kind_argv(kind: str, out: str) -> list[str]:
    return [kind, *KIND_RUNS[kind], "--seed", "1", "--out", out]


def main() -> int:
    sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))
    from tlfsim.cli import main as tlfsim_main

    runs = [argv(index, os.path.join(HERE, f"fig{index}.csv")) for index in FIGURES]
    runs += [kind_argv(kind, os.path.join(HERE, f"{kind}.csv")) for kind in KIND_RUNS]
    for run in runs:
        code = tlfsim_main(run)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
