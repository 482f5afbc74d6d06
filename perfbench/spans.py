"""In-memory spans and counts around the public functions of each fjohn layer.

The tracer rebinds module attributes, so it catches calls between modules
(minimize_band -> band_functional, minimize_functional -> coercivity_witness)
as well as the benchmark's own calls.  It is installed only in the traced
run and removed before output checks run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# Layer functions that get a span: (module, function).  blockmat and profiles
# are measured through these callers; oracle only runs inside output checks.
SPANNED = [
    ("logconcave", "check_proper"),
    ("contact", "detect_contacts"),
    ("contact", "verify_decomposition"),
    ("isotropy", "coercivity_witness"),
    ("isotropy", "minimize_functional"),
    ("isotropy", "extract_measure"),
    ("isotropy", "check_isotropy"),
    ("rfamily", "r_sweep"),
    ("rfamily", "minimize_band"),
    ("rfamily", "band_functional"),
    ("rfamily", "concentration_integral"),
    ("rfamily", "stationarity_multiplier"),
]
# Called thousands of times per minimization: counted, never timed.
COUNTED = [("isotropy", "functional_gradient")]

SPAN_NAMES = [f"{m}.{f}" for m, f in SPANNED]


def nominal_band_nodes(n: int, x_nodes_per_axis: int) -> int:
    """Outer-grid size of one band evaluation: 8-node panels, at least 4 per axis.

    Computed from the quadrature spec; n = 1 grids gain a few panels where
    they align with the kinks of psi, which this figure leaves out.
    """
    panels = max(4, -(-x_nodes_per_axis // 8))
    return (8 * panels) ** n


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """Spans are [name, start, end, parent index, op id]; counts are per name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._best: dict[int, float] = {}  # running minimum per minimize_band span
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        for mod, fn in SPANNED:
            self._rebind(mod, fn, self._spanned(f"{mod}.{fn}"))
        for mod, fn in COUNTED:
            self._rebind(mod, fn, self._counted(f"{mod}.{fn}"))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _rebind(self, mod: str, fn: str, make) -> None:
        original = getattr(importlib.import_module(f"fjohn.{mod}"), fn)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "fjohn" or name.startswith("fjohn.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- wrappers -----------------------------------------------------------
    def _spanned(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                parent = self._stack[-1] if self._stack else None
                idx = len(self.spans)
                span = [name, 0.0, 0.0, parent, self.op]
                self.spans.append(span)
                self._stack.append(idx)
                span[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
                self.counts[f"{name}.calls"] += 1
                self._count(name, args, kwargs, result, parent)
                return result
            return wrapper
        return make

    def _counted(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[f"{name}.calls"] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _count(self, name, args, kwargs, result, parent) -> None:
        c = self.counts
        if name == "contact.detect_contacts":
            grid = _arg(args, kwargs, 2, "grid_per_axis", 101)
            c[f"{name}.grid_points"] += int(grid) ** args[0].n
        elif name == "isotropy.coercivity_witness":
            c[f"{name}.directions"] += result.n_checked
        elif name == "isotropy.minimize_functional":
            c[f"{name}.iterations"] += result.iterations
        elif name == "rfamily.band_functional":
            quad = _arg(args, kwargs, 5, "quad", None)
            c[f"{name}.nodes"] += nominal_band_nodes(args[0].n, quad.x_nodes_per_axis)
            if parent is not None and self.spans[parent][0] == "rfamily.minimize_band":
                c["rfamily.minimize_band.evals"] += 1
                best = self._best.get(parent)
                if best is not None and result < best:
                    c["rfamily.minimize_band.improving"] += 1
                if best is None or result < best:
                    self._best[parent] = result

    # -- output -------------------------------------------------------------
    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part covered by its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own
