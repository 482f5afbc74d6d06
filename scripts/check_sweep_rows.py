#!/usr/bin/env python3
"""Check the rows and the limit block of a `fjohn.cli sweep-r` report.

    python3 scripts/check_sweep_rows.py sweep.json

Prints one line per r (r, iterations, evaluations, projected gradient, stop
reason, error, lambda_r, secant to the limit point, bump integrals), then one
line for the limit (its stop reason and projected gradient), and exits 1
unless the report has rows and every row has every solver key, no error,
stops CONVERGED or RESOLVED after an integer count of iterations below its
evaluations, with a finite projected gradient, and has lambda_r > 0, finite
bump integrals (the by-parts density feeds both) and a finite secant to the
limit point (H_n of the instance's own profile pair feeds it); and unless the
limit's minimizer stops WITHIN_TOL at a projected gradient of at most NEWTON_TOL.
"""

import json
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fjohn.isotropy import NEWTON_TOL, WITHIN_TOL  # noqa: E402
from fjohn.rfamily import CONVERGED, RESOLVED  # noqa: E402

SOLVER_KEYS = ("iterations", "evaluations", "projected_grad_norm", "stop_reason")


def finite(x) -> bool:  # the report writes a non-finite float as a string
    return isinstance(x, (int, float)) and math.isfinite(x)


def row_ok(row: dict) -> bool:
    if not all(key in row for key in SOLVER_KEYS):
        return False
    its, evals = row["iterations"], row["evaluations"]
    return (row["error"] is None and row["stop_reason"] in (CONVERGED, RESOLVED)
            and type(its) is int and type(evals) is int and 0 <= its < evals
            and finite(row["projected_grad_norm"])
            and finite(row["lambda_r"]) and row["lambda_r"] > 0
            and all(finite(m) for m in row["mu_integrals"])
            and finite(row["secant_to_limit"]))


def main(path: str) -> int:
    result = json.loads(pathlib.Path(path).read_text())["result"]
    rows, limit = result["entries"], result["limit"]
    for row in rows:
        print(row["r"], *(row.get(key) for key in SOLVER_KEYS),
              row["error"], row["lambda_r"], row["secant_to_limit"], row["mu_integrals"])
    grad = limit.get("projected_grad_norm")
    print("limit", limit.get("stop_reason"), grad)
    limit_ok = limit.get("stop_reason") == WITHIN_TOL and finite(grad) and grad <= NEWTON_TOL
    return 0 if rows and all(map(row_ok, rows)) and limit_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
