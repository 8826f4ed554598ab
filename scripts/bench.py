#!/usr/bin/env python3
"""Write one benchmark record, ``BENCH_<label>.json``, at the root of the
checkout this script sits in.

Usage: python scripts/bench.py --label L

The record holds, measured on this checkout:

- the last output line (the JSON result) of ``dblbench/run.py`` for each
  workload, at seed 1 and 20 seconds per run, untraced;
- the wall time and the summary line of the Tier-1 suite;
- the records of the acceptance battery's ``run_all()``: each
  criterion's name, verdict, detail, elapsed seconds, time bound and
  margin (the last two null for a criterion without a bound);
- the core count, the Python version and the commit (``git rev-parse
  HEAD``, and whether tracked files differ from it).

The runs go one after another in fresh processes, so a record takes a
little over a minute plus the Tier-1 suite.  Compare two records by running
the script in two checkouts on the same machine.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kernel-laws", "internal-bundles", "documents")
SEED = 1
SECONDS = 20
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run(args):
    return subprocess.run(args, cwd=ROOT, env=_env(), capture_output=True, text=True)


def workload(name):
    proc = _run([sys.executable, "dblbench/run.py", "--workload", name, "--seed", str(SEED), "--seconds", str(SECONDS)])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


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


def commit():
    head = _run(["git", "rev-parse", "HEAD"]).stdout.strip()
    changed = _run(["git", "status", "--porcelain", "--untracked-files=no"]).stdout.strip()
    return {"head": head, "tracked_changes": bool(changed)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    label = p.parse_args(argv).label
    record = {
        "label": label,
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {name: workload(name) for name in WORKLOADS},
        "tier1": tier1(),
        "acceptance": acceptance(),
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
