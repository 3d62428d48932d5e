"""Compare the study outputs of two checkouts of this repository.

Usage: python scripts/output_drift.py PARENT_DIR CHANGE_DIR

Runs every CLI subcommand on configs/heat.cfg and configs/quasilinear.cfg
in each checkout (its own src/ and configs/, single-threaded BLAS), then
prints, for every CSV written on both sides: whether the rows and the
integer and string columns are equal, and the largest relative drift
|a - b| / max(|a|, |b|) of each float column.  Standard output and exit
codes of the subcommands are compared too, and each subcommand's peak
resident set size on both sides is printed, read from the child's own
resource usage.  The last line names the largest float drift over all
CSVs with the file and column it sits in.

Exits with status 1 if a subcommand's exit code differs, a CSV is
written on one side only, or row counts, headers, or integer or string
columns differ; float drift, standard output and peak RSS are reported,
not judged.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import subprocess
import sys
import tempfile

SUBCOMMANDS = ("solve", "convergence", "uzawa-trace", "infsup", "pjotr", "precond", "constants")
CONFIGS = ("heat", "quasilinear")
_INT = re.compile(r"[+-]?\d+\Z")
_SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run_child(argv: list[str], cwd: str, env: dict) -> tuple[int, str, float]:
    """Run argv to completion; (exit code, stdout, peak RSS in MiB), the
    peak being ru_maxrss of the child's resource usage from `os.wait4`."""
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    return proc.returncode, stdout, usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)


def run_outputs(checkout: str, work: str) -> dict:
    """Run every subcommand on every config; {(config, subcommand): (exit
    code, stdout, peak RSS in MiB)}."""
    env = {**os.environ, **_SINGLE_THREAD, "PYTHONPATH": os.path.join(checkout, "src")}
    results = {}
    for config in CONFIGS:
        for sub in SUBCOMMANDS:
            out = os.path.join(work, config, sub)
            results[config, sub] = run_child(
                [sys.executable, "-m", "psaddle", sub,
                 "--config", os.path.join(checkout, "configs", f"{config}.cfg"), "--out", out],
                checkout, env,
            )
    return results


def csv_files(root: str) -> set:
    return {
        os.path.relpath(os.path.join(d, f), root)
        for d, _, files in os.walk(root) for f in files if f.endswith(".csv")
    }


def read_csv(path: str) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def relative_drift(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def is_float(value: str) -> bool:
    try:
        float(value)
    except ValueError:
        return False
    return True


def compare_csv(parent: str, change: str) -> tuple[bool, list[str], tuple[float, str]]:
    """(exact parts equal, report lines, (largest float drift, its column))
    for one CSV on both sides."""
    head_p, rows_p = read_csv(parent)
    head_c, rows_c = read_csv(change)
    worst = (0.0, "")
    if head_p != head_c or len(rows_p) != len(rows_c):
        return False, [f"  header or row count differs: {len(rows_p)} vs {len(rows_c)} rows"], worst
    if any(len(r) != len(head_p) for r in rows_p + rows_c):
        return False, ["  ragged rows"], worst
    ok, lines = True, [f"  rows equal ({len(rows_p)})"]
    for j, name in enumerate(head_p):
        pairs = [(rp[j], rc[j]) for rp, rc in zip(rows_p, rows_c)]
        exact = all(_INT.match(a) and _INT.match(b) for a, b in pairs) or not all(
            is_float(a) and is_float(b) for a, b in pairs
        )
        if exact:
            equal = all(a == b for a, b in pairs)
            ok &= equal
            lines.append(f"  {name}: integer/string {'equal' if equal else 'DIFFERS'}")
        else:
            drift = max((relative_drift(a, b) for a, b in pairs), default=0.0)
            lines.append(f"  {name}: max relative drift {drift:.3g}")
            worst = max(worst, (drift, name))
    return ok, lines, worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    args = ap.parse_args(argv)

    ok = True
    worst = (0.0, "")
    with tempfile.TemporaryDirectory() as work:
        runs = {}
        for side, checkout in (("parent", args.parent_dir), ("change", args.change_dir)):
            runs[side] = run_outputs(os.path.abspath(checkout), os.path.join(work, side))
        for key in runs["parent"]:
            code_p, out_p, rss_p = runs["parent"][key]
            code_c, out_c, rss_c = runs["change"][key]
            ok &= code_p == code_c
            print(f"{key[0]} {key[1]}: exit {code_p} vs {code_c}, "
                  f"stdout {'identical' if out_p == out_c else 'DIFFERS'}, "
                  f"peak RSS {rss_p:.1f} vs {rss_c:.1f} MiB")
        files_p = csv_files(os.path.join(work, "parent"))
        files_c = csv_files(os.path.join(work, "change"))
        for missing in sorted(files_p ^ files_c):
            ok = False
            print(f"{missing}: written on one side only")
        for rel in sorted(files_p & files_c):
            equal, lines, (drift, column) = compare_csv(os.path.join(work, "parent", rel),
                                                        os.path.join(work, "change", rel))
            ok &= equal
            worst = max(worst, (drift, f"{rel} {column}"))
            print(rel)
            print("\n".join(lines))
    print("rows and integer/string columns: " + ("equal" if ok else "DIFFER"))
    drift, where = worst
    print(f"largest float drift: {drift:.3g}" + (f" ({where})" if drift > 0.0 else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
