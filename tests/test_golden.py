"""Figure presets against the committed golden outputs in ``tests/golden``.

The header and the ``t`` column must match byte for byte, every value column
to 1e-12, and each manifest byte for byte apart from its ``*.version`` lines.
Every cell of a fresh run must also be written as ``%.17g``, which the 1e-12
comparison alone would not catch.
Regenerate with ``python tests/golden/regenerate.py``.
"""
import os

import pytest

from golden.regenerate import FIGURES, HERE, argv
from tlfsim.cli import main

VALUE_TOL = 1e-12


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def _manifest(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if not line.split(" = ", 1)[0].endswith(".version")]


@pytest.mark.parametrize("index", FIGURES)
def test_figure_matches_golden(index, tmp_path):
    out = str(tmp_path / f"fig{index}.csv")
    assert main(argv(index, out)) == 0
    golden = os.path.join(HERE, f"fig{index}.csv")

    got, ref = _rows(out), _rows(golden)
    assert got[0] == ref[0]
    assert len(got) == len(ref)
    worst = 0.0
    for row, ref_row in zip(got[1:], ref[1:]):
        assert len(row) == len(ref_row)
        assert row[0] == ref_row[0]
        worst = max([worst] + [abs(float(a) - float(b)) for a, b in zip(row[1:], ref_row[1:])])
    assert worst <= VALUE_TOL
    assert [cell for row in got[1:] for cell in row if "%.17g" % float(cell) != cell] == []

    assert _manifest(out + ".manifest") == _manifest(golden + ".manifest")
