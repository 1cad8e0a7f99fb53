#!/usr/bin/env python3
"""Compare two output trees of ``randkrylov run``, solver by solver.

    python scripts/compare_outputs.py OLD NEW

A solver is a ``<name>.trace.csv`` and its ``<name>.x.f64`` at any depth
below OLD or NEW, named by its path below it (``exp1/fista`` when OLD holds
the three experiment scripts' output directories). Each solver on both
sides is reported as byte-identical (both files), or with the relative
2-norm change of x, the largest per-row relative change of objective_mm,
objective_literal and lambda, and the final cum_inner on each side. A
solver on one side only is reported as such.

Exit status: 0 when every solver is byte-identical, 1 on any difference,
2 on an unreadable trace or when neither side holds one.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from randkrylov.cli import ConfigError, read_trace

TRACE = ".trace.csv"
# (label, TraceRow field) of each compared trace column
COLUMNS = (("objective_mm", "objective_mm"),
           ("objective_literal", "objective_literal"), ("lambda", "lam"))


def solvers(root):
    """{name: path prefix} of every solver's trace below ``root``."""
    root = Path(root)
    return {str(path.relative_to(root))[: -len(TRACE)]:
            str(path)[: -len(TRACE)] for path in root.rglob("*" + TRACE)}


def _bytes(path):
    path = Path(path)
    return path.read_bytes() if path.exists() else None


def _x(prefix):
    path = Path(prefix + ".x.f64")
    return np.fromfile(path, dtype="<f8") if path.exists() else None


def max_relative_change(old, new):
    """The largest |new - old| / |old| over paired values: 0 where they are
    equal (NaN to NaN too), inf where only the new one is nonzero or NaN."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(new - old) / np.abs(old)
    rel = np.where(same, 0.0, np.where(np.isnan(rel), np.inf, rel))
    return float(rel.max()) if rel.size else 0.0


def compare(old_prefix, new_prefix):
    """"byte-identical", or the changes of x and the trace columns."""
    if all(_bytes(old_prefix + ext) == _bytes(new_prefix + ext)
           for ext in (TRACE, ".x.f64")):
        return "byte-identical"
    parts = []
    x_old, x_new = _x(old_prefix), _x(new_prefix)
    if x_old is None or x_new is None or x_old.shape != x_new.shape:
        sizes = [None if x is None else x.size for x in (x_old, x_new)]
        parts.append(f"x sizes {sizes[0]} -> {sizes[1]}")
    else:
        norm = np.linalg.norm(x_old)
        change = np.linalg.norm(x_new - x_old)
        parts.append("x {:.2g}".format(
            change / norm if norm else (0.0 if change == 0 else np.inf)))
    rows_old, rows_new = (read_trace(p + TRACE)[1]
                          for p in (old_prefix, new_prefix))
    if len(rows_old) != len(rows_new):
        parts.append(f"rows {len(rows_old)} -> {len(rows_new)}")
    pairs = list(zip(rows_old, rows_new))
    for label, field in COLUMNS:
        change = max_relative_change([getattr(a, field) for a, _ in pairs],
                                     [getattr(b, field) for _, b in pairs])
        parts.append(f"{label} {change:.2g}")
    final = [rows[-1].cum_inner if rows else None
             for rows in (rows_old, rows_new)]
    parts.append(f"cum_inner {final[0]} -> {final[1]}")
    return ", ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old, new = solvers(args.old), solvers(args.new)
    if not old and not new:
        print(f"cannot compare: no *{TRACE} below {args.old} or {args.new}",
              file=sys.stderr)
        return 2
    differs = False
    try:
        for name in sorted(old.keys() | new.keys()):
            if name not in new or name not in old:
                report = "only in " + ("OLD" if name in old else "NEW")
            else:
                report = compare(old[name], new[name])
            differs |= report != "byte-identical"
            print(f"{name}: {report}")
    except ConfigError as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return 2
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
