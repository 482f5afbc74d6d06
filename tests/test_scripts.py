import json
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("text,code", [
    ('timing line\n{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n', 0),
    ('timing line\n{"correct": false, "attempted": 3, "failed": 1, "metrics": {}}\n', 1),
    ('{"correct": true}\n{"correct": tr\n', 1),
    ('{"correct": true}\n["correct", true]\n', 1),
    ('{"correct": "true"}\n', 1),
    ("", 1),
], ids=["correct", "not-correct", "malformed-last-line", "not-an-object", "string-true",
        "empty"])
def test_check_bench_correct_reads_the_last_line(tmp_path, text, code):
    out = tmp_path / "bench.out"
    out.write_text(text)
    res = subprocess.run([sys.executable, str(SCRIPTS / "check_bench_correct.py"), str(out)],
                         capture_output=True, text=True)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == (text.splitlines()[-1] if text else "") + "\n"


def test_check_bench_correct_without_a_path_prints_usage():
    res = subprocess.run([sys.executable, str(SCRIPTS / "check_bench_correct.py")],
                         capture_output=True, text=True)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("usage: ") and "Traceback" not in res.stderr


def _sweep_row(**changes):
    row = {"r": 0.9, "evaluations": 5,
           "stop_reason": "predicted decrease below rounding", "error": None,
           "lambda_r": 0.4, "secant_to_limit": 0.08, "mu_integrals": [0.5, 0.5]}
    return {**row, **changes}


@pytest.mark.parametrize("rows,code", [
    ([_sweep_row()], 0),
    ([_sweep_row(), _sweep_row(secant_to_limit="nan")], 1),
    ([_sweep_row(lambda_r=-1.0)], 1),
    ([_sweep_row(stop_reason="max_iter")], 1),
    ([], 1),
], ids=["finite", "secant-to-limit-nan", "negative-lambda", "max-iter", "no-rows"])
def test_check_sweep_rows(tmp_path, rows, code):
    out = tmp_path / "sweep.json"
    out.write_text(json.dumps({"result": {"entries": rows}}))
    res = subprocess.run([sys.executable, str(SCRIPTS / "check_sweep_rows.py"), str(out)],
                         capture_output=True, text=True)
    assert res.returncode == code, res.stderr
    assert len(res.stdout.splitlines()) == len(rows)
    assert all(str(row["secant_to_limit"]) in line
               for row, line in zip(rows, res.stdout.splitlines()))
