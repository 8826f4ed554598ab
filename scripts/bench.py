#!/usr/bin/env python3
"""Write one benchmark record, or compare two checkouts in alternating runs.

Usage: python scripts/bench.py --label L
       python scripts/bench.py --against DIR --workload W [--workload W ...] --pairs N [--seed S]

With ``--label``, the script writes ``BENCH_<label>.json`` at the root of
the checkout it sits in.  The record holds, measured on this checkout:

- the last output line (the JSON result) of ``dblbench/run.py`` for each
  workload, at seed 1 and 20 seconds per run, untraced;
- the wall time and the summary line of the Tier-1 suite;
- the records of the acceptance battery's ``run_all()``: each
  criterion's name, verdict, detail, elapsed seconds, time bound and
  margin (the last two null for a criterion without a bound);
- ``src_lines``, the ``wc -l`` total of ``src/dblkit/*.py``, so that the
  size of the library sits beside its timings;
- the core count, the Python version and the commit (``git rev-parse
  HEAD``, and whether tracked files differ from it).

The runs go one after another in fresh processes, so a record takes a
little over a minute plus the Tier-1 suite.  Compare two records by running
the script in two checkouts on the same machine.

With ``--against``, the script runs ``dblbench/run.py`` on workload ``W``
(seed ``S``, 1 by default, 20 seconds per run, untraced) ``N`` times in
this checkout and ``N`` times in the checkout at ``DIR``, one pair at a
time, each run in a fresh process importing its own checkout's ``src/``.
Which side runs first alternates from pair to pair, this checkout first in
the first pair; each pair's metrics go to standard error as it ends.  It
then prints, for each end-to-end metric that this checkout's
``BENCHMARK.json`` names, each side's median and quartiles, the change
of this checkout's median from the other's in percent of the other's, and
the number of pairs this checkout won (ties count for neither side),
whether the change meets the claim rule (``claim``: it won at least 9 in 10
of the pairs, and its median is better than the other's by more than the
other side's interquartile range) and whether its median is worse than
the other's by more than the metric's ``BENCHMARK.json`` bound, a fraction
of the other's median (``bound``: ``worse`` or ``ok``), and the failed and
attempted operations of both sides.  A pair whose runs do
not both check out ``correct`` stops the comparison.  Given several
``--workload`` options, it compares each workload in turn, in the order
given, with the same seed and number of pairs, one table each.

A claim compares the library under identical benchmark code, so
``--against`` refuses two checkouts whose ``BENCHMARK.json`` or files
under ``dblbench/`` differ byte for byte (a file in one checkout only
included), naming the first that differs; ``dblbench/out/`` and
``__pycache__`` directories, which runs write, are left aside.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kernel-laws", "internal-bundles", "documents")
SEED = 1
SECONDS = 20
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def _run(args, root=ROOT):
    return subprocess.run(args, cwd=root, env=_env(root), capture_output=True, text=True)


def workload(name, seed=SEED, root=ROOT):
    proc = _run([sys.executable, "dblbench/run.py", "--workload", name, "--seed", str(seed), "--seconds", str(SECONDS)], root)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name} in {root}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def _quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def bench_difference(here, there):
    """The first path, relative to the checkout, of ``BENCHMARK.json`` and
    the files under ``dblbench/`` that differs between the checkouts
    ``here`` and ``there`` or is in one only; None when none does."""

    def files(root):
        under = (path.relative_to(root) for path in (root / "dblbench").rglob("*") if path.is_file())
        return {Path("BENCHMARK.json")} | {p for p in under if p.parts[1] != "out" and "__pycache__" not in p.parts}

    for rel in sorted(files(here) | files(there)):
        a, b = here / rel, there / rel
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            return rel
    return None


def verdicts(metric, here, there):
    """``(won, claim, worse)`` of one end-to-end ``metric`` over the values
    of paired runs ``here`` (this checkout) and ``there``: the pairs this
    checkout won; whether it won at least 9 in 10 of them with its median
    better than ``there``'s by more than ``there``'s interquartile range;
    and whether its median is worse than ``there``'s by more than the
    metric's bound times ``there``'s median."""
    sign = 1 if metric["better"] == "lower" else -1
    won = sum(sign * (b - a) > 0 for a, b in zip(here, there))
    q1, median, q3 = _quartiles(there)
    gain = sign * (median - _quartiles(here)[1])
    return won, 10 * won >= 9 * len(here) and gain > q3 - q1, -gain > metric["bound"] * abs(median)


def compare(other, name, pairs, seed):
    """Alternating pairs of runs of workload ``name`` here and in ``other``;
    prints each end-to-end metric's quartiles on both sides, the change of
    the medians in percent, the pairs this checkout won and its
    :func:`verdicts`."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {ROOT: [], other: []}
    for i in range(pairs):
        order = (ROOT, other) if i % 2 == 0 else (other, ROOT)
        for root in order:
            runs[root].append(workload(name, seed, root))
        if not all(runs[root][-1]["correct"] for root in order):
            raise SystemExit(f"pair {i + 1}: a run is not correct")
        here, there = runs[ROOT][-1]["metrics"], runs[other][-1]["metrics"]
        values = ", ".join(f"{m['name']} {here[m['name']]['value']:.4g} | {there[m['name']]['value']:.4g}" for m in metrics)
        print(f"pair {i + 1}/{pairs} ({'this' if order[0] == ROOT else 'other'} first), this | other: {values}", file=sys.stderr)
    print(f"{name}, seed {seed}, {pairs} pairs: this = {ROOT}, other = {other}")
    print(f"{'metric':16} {'unit':12} {'this median [q1, q3]':32} {'other median [q1, q3]':32} {'change':>8} "
          f"{'won':>7} claim bound")
    for metric in metrics:
        key = metric["name"]
        here = [r["metrics"][key]["value"] for r in runs[ROOT]]
        there = [r["metrics"][key]["value"] for r in runs[other]]
        won, claim, worse = verdicts(metric, here, there)
        cells, medians = [], []
        for values in (here, there):
            q1, median, q3 = _quartiles(values)
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
            medians.append(median)
        change = f"{(medians[0] - medians[1]) / medians[1]:+.1%}" if medians[1] else "n/a"
        print(f"{key:16} {metric['unit']:12} {cells[0]:32} {cells[1]:32} {change:>8} {f'{won}/{pairs}':>7} "
              f"{'yes' if claim else 'no':5} {'worse' if worse else 'ok'}")
    for root, label in ((ROOT, "this"), (other, "other")):
        failed = sum(r["failed"] for r in runs[root])
        attempted = sum(r["attempted"] for r in runs[root])
        print(f"{label}: {failed} of {attempted} operations failed")


def tier1():
    start = time.perf_counter()
    proc = _run(TIER1)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def acceptance():
    sys.path.insert(0, str(ROOT / "src"))
    from dblkit.acceptance import run_all

    return run_all(verbose=False)


def src_lines():
    """The ``wc -l`` total of ``src/dblkit/*.py``: its newline count."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "dblkit").glob("*.py"))


def commit():
    head = _run(["git", "rev-parse", "HEAD"]).stdout.strip()
    changed = _run(["git", "status", "--porcelain", "--untracked-files=no"]).stdout.strip()
    return {"head": head, "tracked_changes": bool(changed)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label")
    p.add_argument("--against", type=Path, help="the root of the checkout to compare with")
    p.add_argument("--workload", choices=WORKLOADS, action="append", help="may be given more than once")
    p.add_argument("--pairs", type=int)
    p.add_argument("--seed", type=int, help="the seed of the --against runs (1 by default)")
    args = p.parse_args(argv)
    if args.against is not None:
        if args.label is not None or args.workload is None or args.pairs is None or args.pairs < 1:
            p.error("--against takes --workload and a positive --pairs, and no --label")
        if args.against.resolve() == ROOT:
            p.error("--against names this checkout")
        differs = bench_difference(ROOT, args.against.resolve())
        if differs is not None:
            p.error(f"the benchmark differs between the checkouts at {differs}; a claim needs identical benchmark code")
        for name in args.workload:
            compare(args.against.resolve(), name, args.pairs, SEED if args.seed is None else args.seed)
        return 0
    if args.label is None:
        p.error("give --label, or --against with --workload and --pairs")
    if args.seed is not None:
        p.error("--seed goes only with --against; a record is made at seed 1")
    label = args.label
    record = {
        "label": label,
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {name: workload(name) for name in WORKLOADS},
        "tier1": tier1(),
        "acceptance": acceptance(),
        "src_lines": src_lines(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"written {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
