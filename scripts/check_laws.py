#!/usr/bin/env python3
"""Run every law suite at acceptance parameters and print a summary.

Usage: python scripts/check_laws.py [seed]
"""

import sys
import time

from smckit import laws


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    t_start = time.time()
    ok = True
    for name in laws.SUITES:
        t0 = time.time()
        (report,) = laws.run_suite(name, seed=seed)
        ok = ok and report.ok
        print(f"{report}  [{time.time() - t0:.1f}s]")
    print(f"total: {time.time() - t_start:.1f}s, {'all ok' if ok else 'FAILURES'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
