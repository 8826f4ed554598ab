#!/usr/bin/env python3
"""Run the acceptance battery and print one line per criterion.

Usage: python scripts/run_acceptance.py
Exits nonzero when any criterion fails.
"""

import sys

from dblkit.acceptance import run_all


def main() -> int:
    results = run_all(verbose=True)
    failed = [r["name"] for r in results if not r["ok"]]
    total = sum(r["elapsed_s"] for r in results)
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed in {total:.1f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
