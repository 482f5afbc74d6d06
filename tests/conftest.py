import json
import os
import pathlib

import pytest

DATA = pathlib.Path(__file__).parent / "data" / "expected.json"

# the CLI tests run `python -m fjohn.cli` as a child process: let it find the
# package in src/ when it is not installed, as pytest's own pythonpath does
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def expected():
    """Frozen oracle expectations (see scripts/gen_expectations.py)."""
    return json.loads(DATA.read_text())
