#!/usr/bin/env python3
"""Check that the installed fjohn runs without the test oracles.

    pip install -e .
    python3 scripts/check_installed_package.py CHECKOUT

CHECKOUT is the repository's root, which supplies the shipped instances.
Every check runs in a fresh interpreter whose working directory is a new
temporary directory, outside the checkout, where tests/ cannot be imported.
It fails (exit 1, at the first failure) if fjohn ships an oracle module or
`verify` needs one, if a lazy package export does not resolve, if importing
the CLI loads the band family, or unless the n = 3, s = 2 cross and the
n = 2, s = 1 two-level cross that `fixture` writes both exit 0 from `verify`.
"""

import pathlib
import subprocess
import sys
import tempfile

CHECKS = [
    ["-c", "import pkgutil, fjohn; names = [m.name for m in pkgutil.iter_modules(fjohn.__path__)];"
           " print(names); assert not {'oracle', 'oracles'} & set(names)"],
    ["-c", "from fjohn import r_sweep, minimize_functional, BlockMat;"
           " print(r_sweep.__module__, minimize_functional.__module__, BlockMat.__module__)"],
    ["-c", "import sys, fjohn.cli; loaded = sorted(m for m in sys.modules if m.startswith('fjohn'));"
           " print(loaded); assert 'fjohn.rfamily' not in loaded"],
    ["-m", "fjohn.cli", "verify", "--instance", "{checkout}/instances/two_level_n1_s1.json"],
    ["-m", "fjohn.cli", "fixture", "cross", "--n", "3", "--s", "2", "--out", "cross_n3_s2.json"],
    ["-m", "fjohn.cli", "verify", "--instance", "cross_n3_s2.json"],
    ["-m", "fjohn.cli", "fixture", "two-level-cross", "--n", "2", "--s", "1",
     "--out", "two_level_cross_n2.json"],
    ["-m", "fjohn.cli", "verify", "--instance", "two_level_cross_n2.json"],
]


def main(checkout: str) -> int:
    root = str(pathlib.Path(checkout).resolve())
    with tempfile.TemporaryDirectory() as work:
        for check in CHECKS:
            argv = [sys.executable, *(arg.replace("{checkout}", root) for arg in check)]
            print("$", " ".join(argv[1:]), flush=True)
            if subprocess.run(argv, cwd=work).returncode != 0:
                return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} CHECKOUT")
    sys.exit(main(sys.argv[1]))
