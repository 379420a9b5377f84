"""Write the reference rows that ``committed`` checks compare against.

Runs every operation of every workload whose check is a stored reference
(those do not depend on the seed) once and keeps ``CHECK_ROWS`` rows of each
output column.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_refs.py            # refs/full.json
    PYTHONPATH=src python3 perfbench/make_refs.py --tiny --out X.json

Regenerate only when the program's numbers are meant to change.
"""
from __future__ import annotations

import argparse
import json
import os
import tempfile
import warnings

import tlfsim

import workloads


def generate(tiny: bool, work_dir: str) -> dict:
    warnings.simplefilter("ignore", tlfsim.RegimeWarning)
    refs: dict = {}
    for name in workloads.NAMES:
        ops = workloads.build(name, 0, tiny, work_dir, refs={})
        for op in ops:
            if getattr(op.check, "committed", False):
                refs.setdefault(name, {})[op.id] = workloads.reference_of(op.run())
    return refs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out", default=workloads.REFS_PATH)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(args.out))) as tmp:
        refs = generate(args.tiny, tmp)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
