import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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
    row = {"r": 0.9, "iterations": 4, "evaluations": 5, "projected_grad_norm": 1e-9,
           "stop_reason": "predicted decrease below rounding", "error": None,
           "lambda_r": 0.4, "secant_to_limit": 0.08, "mu_integrals": [0.5, 0.5]}
    return {**row, **changes}


def _limit(**changes):
    limit = {"minimizer": {}, "value": 0.3, "iterations": 4, "evaluations": 5,
             "projected_grad_norm": 1e-17, "stop_reason": "projected gradient within tol"}
    return {**limit, **changes}


def _without(row, key):
    return {k: v for k, v in row.items() if k != key}


@pytest.mark.parametrize("rows,limit,code", [
    ([_sweep_row()], _limit(), 0),
    ([_sweep_row(), _sweep_row(secant_to_limit="nan")], _limit(), 1),
    ([_sweep_row(lambda_r=-1.0)], _limit(), 1),
    ([_sweep_row(stop_reason="max_iter")], _limit(), 1),
    ([], _limit(), 1),
    ([_without(_sweep_row(), "iterations")], _limit(), 1),
    ([_without(_sweep_row(), "projected_grad_norm")], _limit(), 1),
    ([_sweep_row(iterations=5)], _limit(), 1),
    ([_sweep_row(iterations=4.0)], _limit(), 1),
    ([_sweep_row(projected_grad_norm="nan")], _limit(), 1),
    ([_sweep_row()], _limit(stop_reason="max_iter"), 1),
    ([_sweep_row()], _limit(projected_grad_norm=2e-10), 1),
], ids=["finite", "secant-to-limit-nan", "negative-lambda", "max-iter", "no-rows",
        "no-iterations", "no-gradient", "iterations-at-evaluations", "iterations-not-int",
        "gradient-nan", "limit-max-iter", "limit-gradient-above-tol"])
def test_check_sweep_rows(tmp_path, rows, limit, code):
    out = tmp_path / "sweep.json"
    out.write_text(json.dumps({"result": {"entries": rows, "limit": limit}}))
    res = subprocess.run([sys.executable, str(SCRIPTS / "check_sweep_rows.py"), str(out)],
                         capture_output=True, text=True)
    assert res.returncode == code, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == len(rows) + 1 and "Traceback" not in res.stderr
    assert all(str(row["secant_to_limit"]) in line for row, line in zip(rows, lines))
    assert lines[-1] == f"limit {limit['stop_reason']} {limit['projected_grad_norm']}"


def _check_installed_package(checkout, package_root):
    """Run the script on checkout, with fjohn imported from package_root/fjohn."""
    env = dict(os.environ, PYTHONPATH=str(package_root))
    return subprocess.run([sys.executable, str(SCRIPTS / "check_installed_package.py"),
                           str(checkout)], capture_output=True, text=True, env=env)


def test_check_installed_package_passes_on_the_package():
    # the checkout's src/ stands in for the installed package
    res = _check_installed_package(ROOT, ROOT / "src")
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.count("$ ") == 8 and "Traceback" not in res.stderr


def test_check_installed_package_fails_on_a_shipped_oracle(tmp_path):
    shutil.copytree(ROOT / "src" / "fjohn", tmp_path / "fjohn")
    (tmp_path / "fjohn" / "oracles.py").write_text("")
    res = _check_installed_package(ROOT, tmp_path)
    assert res.returncode == 1 and res.stdout.count("$ ") == 1
    assert "AssertionError" in res.stderr


def test_check_installed_package_stops_at_a_failing_verify(tmp_path):
    # a checkout without instances: the first `verify` exits 1, and nothing runs after it
    res = _check_installed_package(tmp_path, ROOT / "src")
    assert res.returncode == 1 and res.stdout.count("$ ") == 4
    assert res.stdout.splitlines()[-1].startswith("$ -m fjohn.cli verify --instance ")
    assert "input error: " in res.stderr


def test_check_installed_package_without_a_path_prints_usage():
    res = subprocess.run([sys.executable, str(SCRIPTS / "check_installed_package.py")],
                         capture_output=True, text=True)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("usage: ") and "Traceback" not in res.stderr
