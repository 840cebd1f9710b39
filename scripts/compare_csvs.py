"""Compare the sweep CSVs of two output directories.

Usage: python scripts/compare_csvs.py DIR_A DIR_B [--rtol 1e-12]

Every CSV that has the same relative path under both directories must carry
the same '#' metadata and header, and its columns must agree entry by entry
to rtol, measured as |a - b| / max(|a|, |b|). Prints the worst relative
difference and exits 1 past the bound, on a metadata or shape mismatch, or
when the directories share no CSV.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from singlewell import load_csv


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    return float(np.max(np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--rtol", type=float, default=1e-12)
    args = parser.parse_args()

    names_a = {p.relative_to(args.dir_a) for p in args.dir_a.rglob("*.csv")}
    names_b = {p.relative_to(args.dir_b) for p in args.dir_b.rglob("*.csv")}
    for name in sorted(names_a ^ names_b):
        print(f"only in {args.dir_a if name in names_a else args.dir_b}: {name}")
    common = sorted(names_a & names_b)
    if not common:
        print("no CSV in common")
        return 1

    failed, worst, worst_name = False, 0.0, None
    for name in common:
        a, b = load_csv(str(args.dir_a / name)), load_csv(str(args.dir_b / name))
        if a.metadata != b.metadata:
            print(f"{name}: metadata differs")
            failed = True
        elif list(a.columns) != list(b.columns) or len(a.columns["value"]) != len(b.columns["value"]):
            print(f"{name}: header or row count differs")
            failed = True
        else:
            diff = max(relative_difference(a.columns[c], b.columns[c]) for c in a.columns)
            if diff > worst or worst_name is None:
                worst, worst_name = diff, name
    print(f"{len(common)} CSVs compared; worst relative difference {worst:.3g} "
          f"({worst_name}), rtol {args.rtol:g}")
    return 1 if failed or worst > args.rtol else 0


if __name__ == "__main__":
    sys.exit(main())
