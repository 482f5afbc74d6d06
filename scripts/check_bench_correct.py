#!/usr/bin/env python3
"""Check the verdict of a `perfbench/run.py` run.

    python3 scripts/check_bench_correct.py bench.out

`bench.out` is the run's stdout, whose last line is its JSON result.  Prints
that line and exits 1 unless it is a JSON object with "correct": true.
"""

import json
import pathlib
import sys


def main(path: str) -> int:
    lines = pathlib.Path(path).read_text().splitlines()
    last = lines[-1] if lines else ""
    print(last)
    try:
        result = json.loads(last)
    except json.JSONDecodeError as exc:
        print(f"last line is not JSON ({exc})", file=sys.stderr)
        return 1
    return 0 if isinstance(result, dict) and result.get("correct") is True else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} BENCH_OUTPUT")
    sys.exit(main(sys.argv[1]))
