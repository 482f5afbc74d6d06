#!/usr/bin/env python3
"""Check the rows of a `fjohn.cli sweep-r` report.

    python3 scripts/check_sweep_rows.py sweep.json

Prints one line per r (r, evaluations, Hessian builds, stop reason, error,
lambda_r, secant to the limit point, bump integrals) and exits 1 unless the
report has rows and every row has no error, stops CONVERGED or RESOLVED,
and has lambda_r > 0, finite bump integrals (the by-parts density feeds
both) and a finite secant to the limit point (H_n of the instance's own
profile pair feeds it).
"""

import json
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fjohn.rfamily import CONVERGED, RESOLVED  # noqa: E402


def finite(x) -> bool:  # the report writes a non-finite float as a string
    return isinstance(x, (int, float)) and math.isfinite(x)


def main(path: str) -> int:
    rows = json.loads(pathlib.Path(path).read_text())["result"]["entries"]
    bad = [row for row in rows
           if row["error"] is not None or row["stop_reason"] not in (CONVERGED, RESOLVED)
           or not (finite(row["lambda_r"]) and row["lambda_r"] > 0)
           or not all(finite(m) for m in row["mu_integrals"])
           or not finite(row["secant_to_limit"])]
    for row in rows:
        print(row["r"], row["evaluations"], row["hessian_builds"], row["stop_reason"],
              row["error"], row["lambda_r"], row["secant_to_limit"], row["mu_integrals"])
    return 1 if bad or not rows else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
