"""Compare the trajectory.csv formatter with ``repr`` on N random doubles.

Draws N doubles of uniform random bits (every sign, exponent and
mantissa, nan and inf included) from a seeded generator, formats them
with ``runner._csv_rows`` in blocks of ``runner._CHUNK_ROWS`` rows of 13,
as trajectory.csv is written, and compares each float's text with
``repr``.  It prints every float whose text differs, then their
count, and exits 1 if there is any, or at once on a line or field
count that differs.  ``filmsr`` is imported from ``PYTHONPATH``, and pytest
does not collect this script:

    PYTHONPATH=src python tests/repr_check.py 100000000

At about 1 us a double, mostly ``repr``'s, 10**8 doubles take a few
minutes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

COLUMNS = 13


def main(argv: list[str] | None = None) -> int:
    from filmsr import runner

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="how many doubles to compare")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    size = runner._CHUNK_ROWS * COLUMNS
    mismatches = 0
    for lo in range(0, args.n, size):
        count = min(size, args.n - lo)
        values = rng.integers(0, 2**64, count, dtype=np.uint64)
        block = values.view(np.float64).reshape(
            -1, COLUMNS if count % COLUMNS == 0 else 1)
        lines = runner._csv_rows(block).split("\n")
        if len(lines) != len(block) + 1 or lines[-1]:
            print(f"block at {lo}: {len(lines) - 1} lines for {len(block)} "
                  "rows")
            return 1
        for row, line in zip(block.tolist(), lines):
            if line == ",".join(map(repr, row)):
                continue
            texts = line.split(",")
            if len(texts) != len(row):
                print(f"{line!r}: {len(texts)} fields for {len(row)}")
                return 1
            for x, text in zip(row, texts):
                if text != repr(x):
                    mismatches += 1
                    print(f"{x.hex()}: {text} != {x!r}")
    print(f"{mismatches} mismatches in {args.n} doubles (seed {args.seed})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
