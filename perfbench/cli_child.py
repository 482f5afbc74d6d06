"""Run `fjohn.cli` with the layer tracer installed (traced cli_cold runs only).

Usage: python cli_child.py SPANS_JSON <fjohn cli arguments...>

stdout and the exit code are the CLI's own; spans and counts go to SPANS_JSON.
"""

import json
import sys
from pathlib import Path


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    from spans import Tracer

    import fjohn.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = fjohn.cli.main(argv)
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
