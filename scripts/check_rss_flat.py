#!/usr/bin/env python3
"""Gate flat process memory for `lintime serve` on the register-reads shape.

Usage: check_rss_flat.py [LINTIME_BINARY]

Runs `lintime serve --adt register --mix read --gap 2000 --shards 4
--workers 1 --seed 1` at 100k and at 400k arrivals, one fresh process
each, and reads each run's peak resident set size from `os.wait4` (the
child's own rusage, so no other process can mix in). On this shape only a
dozen or so operations are ever in flight, so memory must not grow with
the run: the gate fails if the 4x run's peak RSS exceeds FLAT_FACTOR times
the 1x run's. LINTIME_BINARY defaults to target/release/lintime.
"""

import os
import subprocess
import sys

SHAPE = ["serve", "--adt", "register", "--mix", "read", "--gap", "2000",
         "--shards", "4", "--workers", "1", "--seed", "1"]
BASE_OPS = 100_000
SCALE = 4
FLAT_FACTOR = 1.5


def peak_rss_mb(exe, ops):
    """Peak RSS (MB) of one `lintime serve` run of `ops` arrivals."""
    cmd = [exe, *SHAPE, "--ops", str(ops)]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited with {code}")
    return usage.ru_maxrss / 1024.0


def main():
    exe = sys.argv[1] if len(sys.argv) > 1 else "target/release/lintime"
    small = peak_rss_mb(exe, BASE_OPS)
    large = peak_rss_mb(exe, SCALE * BASE_OPS)
    ratio = large / small
    print(f"peak RSS: {small:.1f} MB at {BASE_OPS} arrivals, "
          f"{large:.1f} MB at {SCALE * BASE_OPS} ({ratio:.2f}x, limit {FLAT_FACTOR}x)")
    if ratio > FLAT_FACTOR:
        sys.exit(f"FAIL: peak RSS grew {ratio:.2f}x for {SCALE}x the arrivals")
    print("OK: memory is flat in the run length")


if __name__ == "__main__":
    main()
