"""Regenerate the golden figure outputs next to this file.

    python tests/golden/regenerate.py

Writes ``fig{N}.csv`` and ``fig{N}.csv.manifest`` for N = 1..7 from
``tlfsim figure N --seed 1 --n-points 200``; ``tests/test_golden.py`` compares
fresh runs against them.  Regenerating is a reviewed act: the change record
names each file that changed and says why.
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIGURES = range(1, 8)


def argv(index: int, out: str) -> list[str]:
    return ["figure", str(index), "--seed", "1", "--n-points", "200", "--out", out]


def main() -> int:
    sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))
    from tlfsim.cli import main as tlfsim_main

    for index in FIGURES:
        code = tlfsim_main(argv(index, os.path.join(HERE, f"fig{index}.csv")))
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
