"""fjohn benchmark: one seeded workload, timed, checked, reported as one JSON line.

Usage (from the repository root):
    python3 perfbench/run.py --workload {certify,sweep,band_n2,cli_cold}
        --seed N --seconds T --trace {0,1}

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced batches,
then traced ones, and prints the per-layer metrics.  The last stdout line
is {"correct", "attempted", "failed", "metrics"}; the line before it holds
diagnostics, also written under .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

T_START = time.perf_counter()

# Fixed before numpy is first imported, here and in every child process.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import speed  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("certify", "sweep", "band_n2", "cli_cold")
SETUP_SAMPLES = 3          # set-ups per run; setup_s is their median
MIN_BATCHES = 2            # every operation runs at least twice per run
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
IMPORT_SAMPLES = 3


@dataclass
class Record:
    key: str
    dim: int
    op: int
    seconds: float       # as measured
    scale: float         # machine-speed factor around this operation (speed.py)
    output: object = None
    error: str | None = None
    problems: list = field(default_factory=list)

    @property
    def norm(self) -> float:
        return self.seconds * self.scale


@dataclass
class Batch:
    records: list
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def norm(self) -> float:
        return sum(r.norm for r in self.records)


def measure(wl, seconds: float, min_batches: int, tracer=None) -> list[Batch]:
    """Repeat the workload's batch until `seconds` have passed and min_batches are done."""
    batches = []
    t0 = time.perf_counter()
    op_id = 0
    cal = speed.calibrate()
    while len(batches) < min_batches or time.perf_counter() - t0 < seconds:
        before = dict(tracer.counts) if tracer else {}
        records = []
        for op in wl.batch():
            if tracer:
                tracer.op = op_id
            s0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # an operation failure is counted, never fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - s0
            after = speed.calibrate()
            records.append(Record(op.key, op.dim, op_id, dt,
                                  speed.REFERENCE_S / (0.5 * (cal + after)), out, err))
            cal = after
            op_id += 1
        batch = Batch(records)
        if tracer:
            batch.counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()
                            if v - before.get(k, 0)}
        batches.append(batch)
    return batches


def check_outputs(wl, records: list[Record]) -> dict:
    """Full check of each operation's first output; repeats must match it bit for bit."""
    first, outputs = {}, {}
    for rec in records:
        if rec.error is not None:
            rec.problems = [rec.error]
            continue
        fp = wl.fingerprint(rec.key, rec.output)
        if rec.key not in first:
            first[rec.key] = fp
            outputs[rec.key] = rec.output
            rec.problems = wl.check(rec.key, rec.output)
        elif fp != first[rec.key]:
            rec.problems = ["output differs from the first run of the same operation"]
    return outputs


def tail(values_ms: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values_ms)
    ok = [p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10]
    if not ok:
        return None
    p = ok[-1]
    q = statistics.quantiles(values_ms, n=1000, method="inclusive")
    return {"percentile": p, "value_ms": q[int(round(p * 10)) - 1], "samples": n}


def setup_samples(workload: str, seed: int, first: dict) -> list[dict]:
    """Raw and normalised set-up times: this process's and fresh --setup-only processes'."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed), "--setup-only"],
                              capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def import_breakdown() -> dict:
    """Interpreter start-up and `import fjohn.cli` split by -X importtime (medians)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    startup, rows = [], []
    cal = speed.calibrate()
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        dt = time.perf_counter() - t0
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fjohn.cli"],
                              capture_output=True, text=True, check=True, env=env, cwd=ROOT)
        after = speed.calibrate()
        factor = speed.REFERENCE_S / (0.5 * (cal + after))
        cal = after
        startup.append(dt * factor)
        rows.append({k: v * factor for k, v in _importtime_totals(proc.stderr).items()})
    out = {"cli.python_startup_s": statistics.median(startup)}
    for key in ("import_s", "import_numpy_s", "import_scipy_s"):
        out[f"cli.{key}"] = statistics.median(r[key] for r in rows)
    return out


def _importtime_totals(text: str) -> dict:
    """Cumulative seconds of fjohn, numpy and scipy imports, each counted at its outermost entry."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cum) / 1e6))
    groups = {  # metric: (package, packages whose imports already count it)
        "import_s": ("fjohn", {"fjohn"}),
        "import_numpy_s": ("numpy", {"numpy", "scipy"}),
        "import_scipy_s": ("scipy", {"scipy"}),
    }
    totals = dict.fromkeys(groups, 0.0)
    stack: list[tuple[int, str]] = []
    # importtime prints children before their parent; walking backwards puts parents first
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        ancestors = {a.split(".")[0] for _, a in stack}
        for key, (package, counted_by) in groups.items():
            if top == package and not ancestors & counted_by:
                totals[key] += cum
        stack.append((depth, name))
    return totals


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "source_sha256": _digest(ROOT / "src" / "fjohn"),
        "benchmark_sha256": _digest(Path(__file__).resolve().parent),
        "seed": seed,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def _digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def per_dim_medians(records: list[Record]) -> dict:
    dims = sorted({r.dim for r in records})
    return {f"n{d}_op_p50_ms": 1e3 * statistics.median(r.norm for r in records if r.dim == d)
            for d in dims}


def layer_metrics(tracer, traced: list[Batch], untraced: list[Batch]) -> dict:
    import spans

    nb = len(traced)
    wall = statistics.mean(b.norm for b in traced)
    factor = {r.op: r.scale for b in traced for r in b.records}
    own = spans.self_times(tracer.spans)
    total = {name: 0.0 for name in spans.SPAN_NAMES}
    inclusive = dict(total)
    for span, t in zip(tracer.spans, own):
        total[span[0]] += t * factor[span[4]]
        inclusive[span[0]] += (span[2] - span[1]) * factor[span[4]]
    c = traced[0].counts
    m = {}
    for name in spans.SPAN_NAMES:
        m[f"{name}.s"] = (total[name] / nb, "s")
        m[f"{name}.share"] = (100.0 * total[name] / nb / wall, "%")
        m[f"{name}.calls"] = (c.get(f"{name}.calls", 0), "count")
    m["contact.detect_contacts.grid_points"] = (c.get("contact.detect_contacts.grid_points", 0), "count")
    m["isotropy.coercivity_witness.directions"] = (c.get("isotropy.coercivity_witness.directions", 0), "count")
    m["isotropy.minimize_functional.iterations"] = (c.get("isotropy.minimize_functional.iterations", 0), "count")
    m["isotropy.functional_gradient.calls"] = (c.get("isotropy.functional_gradient.calls", 0), "count")
    calls = c.get("rfamily.minimize_band.calls", 0)
    evals = c.get("rfamily.minimize_band.evals", 0)
    m["rfamily.minimize_band.evals_per_call"] = (evals / calls if calls else 0.0, "count")
    m["rfamily.minimize_band.improving_ratio"] = (
        c.get("rfamily.minimize_band.improving", 0) / evals if evals else 0.0, "ratio")
    band_s = inclusive["rfamily.band_functional"] / nb
    m["rfamily.band_functional.nodes_per_s"] = (
        c.get("rfamily.band_functional.nodes", 0) / band_s if band_s else 0.0, "1/s")
    m["trace.overhead_s"] = (statistics.median(b.norm for b in traced)
                             - statistics.median(b.norm for b in untraced), "s")
    return m


def check_counts(workload: str, seed: int, env: dict, traced: list[Batch]) -> list[str]:
    """Counts must repeat exactly across traced batches and across runs of the same code and seed."""
    problems = []
    if any(b.counts != traced[0].counts for b in traced[1:]):
        problems.append("counts differ between traced batches")
    code = env["source_sha256"][:12] + env["benchmark_sha256"][:12]
    record = OUT / f"counts_{workload}_seed{seed}_{code}.json"
    text = json.dumps(traced[0].counts, sort_keys=True)
    if record.is_file():
        if record.read_text() != text:
            problems.append(f"counts differ from the earlier run recorded in {record.name}")
    else:
        record.write_text(text)
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fjohn" / "__init__.py").is_file() or not (ROOT / "instances").is_dir():
        print(f"fjohn sources or shipped instances not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)

    import fjohn
    if Path(fjohn.__file__).resolve().parent != (src / "fjohn").resolve():
        print(f"imported fjohn from {fjohn.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        setup_first = time.perf_counter() - T_START
        setup_first = {"raw_s": setup_first, "setup_s": setup_first * speed.scale()}
        if args.setup_only:
            print(json.dumps(setup_first))
            return 0
        return run(args, wl, setup_first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, wl, setup_first: dict) -> int:
    from spans import Tracer
    from workloads import CliCold

    env = environment(args.seed)
    diag = {"workload": args.workload, "trace": args.trace, "environment": env}
    self_check = []
    if args.trace:
        untraced = measure(wl, args.seconds / 2, 1)
        tracer = Tracer()
        if isinstance(wl, CliCold):
            wl.tracer = tracer  # each command installs the tracer in its own process
        else:
            tracer.install()
        try:
            traced = measure(wl, args.seconds / 2, MIN_BATCHES, tracer)
        finally:
            tracer.uninstall()
            if isinstance(wl, CliCold):
                wl.tracer = None
        batches = untraced + traced
    else:
        batches = measure(wl, args.seconds, MIN_BATCHES)
        rss = wl.peak_rss_mb()  # before the output checks, which use finer grids
    records = [r for b in batches for r in b.records]
    outputs = check_outputs(wl, records)
    failed = [r for r in records if r.problems]

    if args.trace:
        self_check = check_counts(args.workload, args.seed, env, traced)
        raw = layer_metrics(tracer, traced, untraced)
        raw.update({k: (v, "s") for k, v in import_breakdown().items()})
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        diag["counts_per_batch"] = traced[0].counts
        diag["traced_wall_s"] = statistics.median(b.norm for b in traced)
        diag["untraced_wall_s"] = statistics.median(b.norm for b in untraced)
        spans_file = OUT / f"spans_{args.workload}_seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()))
        diag["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        setups = setup_samples(args.workload, args.seed, setup_first)
        op_ms = [1e3 * r.norm for r in records]
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "wall_s": {"value": statistics.median(b.norm for b in batches), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        diag["setup_samples"] = setups
        diag["raw"] = {
            "wall_s": statistics.median(b.seconds for b in batches),
            "op_p50_ms": 1e3 * statistics.median(r.seconds for r in records),
            "batch_s": [b.seconds for b in batches],
            "op_ms": {},
        }
        for r in records:
            diag["raw"]["op_ms"].setdefault(r.key, []).append(1e3 * r.seconds)
        diag["speed_scale"] = {"median": statistics.median(r.scale for r in records),
                               "min": min(r.scale for r in records),
                               "max": max(r.scale for r in records)}
        diag["op_tail_ms"] = tail(op_ms)
        diag.update(per_dim_medians(records))

    diag["error_rate"] = len(failed) / len(records)
    diag["failures"] = [f"{r.key}: {'; '.join(r.problems)}" for r in failed][:20]
    diag["self_check"] = self_check
    diag["accuracy"] = wl.accuracy(outputs)
    result = {"correct": not failed and not self_check, "attempted": len(records),
              "failed": len(failed), "metrics": metrics}
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"result": result, "diagnostics": diag}, indent=1, default=str))
    print(json.dumps(diag, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
