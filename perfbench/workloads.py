"""The four workloads: set-up, the fixed batch of operations, and output checks.

Each workload is a closed loop with one caller.  `batch()` lists the
operations of one pass over the workload's inputs; the runner repeats the
batch for the measured time.  Outputs are checked after the timed loop:
the first output of each operation fully, every repeat for bit-identity
with the first.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from fjohn import contact, isotropy, logconcave, rfamily
from fjohn.blockmat import BlockMat, EPoint, sdet1_param
from fjohn.profiles import ConvolutionProfile, canonical_pair

from instances import (COERCIVE_MARGIN, certify_instances, cli_instance, coercivity_margin,
                       sweep_instances)
from spans import Tracer

PAIR = canonical_pair()
F = ConvolutionProfile(PAIR)
SCHEDULE = [0.8, 0.9, 0.95, 0.99]
RESIDUAL_TOL = 1e-8       # isotropy, centering and lambda_gap bound
CONTACT_TOL = 1e-6        # detected vs construction contact points
C7_BOUND = 2e-6           # acceptance c7: 2 x the default quadrature tol 1e-6
FINE_NODES = 1600         # reference grid for band_n2
BAND_REL_TOL = 2e-6       # band_n2 vs the 1600-node grid (measured gap <= 4e-7)


@dataclass
class Op:
    key: str
    dim: int
    run: Callable[[], object]


class _InProcess:
    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


def _max_pointwise_gap(found: np.ndarray, expected: np.ndarray) -> float:
    if found.shape != expected.shape:
        return float("inf")
    dist = np.max(np.abs(found[:, None, :] - expected[None, :, :]), axis=2)
    return float(max(dist.min(axis=0).max(), dist.min(axis=1).max()))


# -- certify ----------------------------------------------------------------

def certify_op(inst) -> dict:
    """From h alone to a verified decomposition of the identity."""
    h, s, n = inst.h, inst.s, inst.n
    logconcave.check_proper(h)
    cs = contact.detect_contacts(h, s, grid_per_axis=201 if n <= 2 else 41)
    nu = isotropy.counting_measure(cs.points)
    wit = isotropy.coercivity_witness(h, s, nu, n_dirs=1000)
    res = isotropy.minimize_functional(h, s, nu, F)
    mu = isotropy.extract_measure(res, h, s, nu, F)
    iso = isotropy.check_isotropy(mu, s)
    dec = contact.verify_decomposition(mu.points, mu.masses / iso.lam, h, s)
    return {"contacts": cs.points, "witness": wit, "result": res, "measure": mu,
            "isotropy": iso, "decomposition": dec}


class Certify(_InProcess):
    name = "certify"

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.instances = certify_instances(seed)
        certify_op(self.instances[0])  # warm-up: every layer once, on the cheapest instance
        self._by_key = {i.name: i for i in self.instances}

    def batch(self) -> list[Op]:
        return [Op(i.name, i.n, partial(certify_op, i)) for i in self.instances]

    def fingerprint(self, key, out) -> str:
        r = out["result"]
        return _digest(out["contacts"], r.point.mat.diag, r.point.shift,
                       [r.point.mat.corner, r.value, r.lam, out["witness"].margin],
                       out["measure"].masses)

    def check(self, key, out) -> list[str]:
        inst = self._by_key[key]
        iso, res = out["isotropy"], out["result"]
        problems = []
        gap = _max_pointwise_gap(out["contacts"], inst.points)
        if not gap <= CONTACT_TOL:
            problems.append(f"contacts off the construction points by {gap:.3e}")
        if not out["witness"].ok:
            problems.append("coercivity witness failed on a coercive instance")
        if not (iso.residual_iso <= RESIDUAL_TOL and iso.residual_center <= RESIDUAL_TOL):
            problems.append(f"isotropy residuals {iso.residual_iso:.3e}, {iso.residual_center:.3e}")
        if not res.lambda_gap <= RESIDUAL_TOL:
            problems.append(f"lambda_gap {res.lambda_gap:.3e}")
        if not out["decomposition"].ok:
            problems.append(f"decomposition fails: {out['decomposition'].as_dict()}")
        return problems

    def accuracy(self, outputs: dict) -> dict:
        return {
            "worst_isotropy_residual": max(max(o["isotropy"].residual_iso,
                                               o["isotropy"].residual_center)
                                           for o in outputs.values()),
            "worst_lambda_gap": max(o["result"].lambda_gap for o in outputs.values()),
            "coercivity_lp_margin": {i.name: i.margin for i in self.instances},
        }


# -- sweep ------------------------------------------------------------------

class Sweep(_InProcess):
    name = "sweep"
    instance_count = 2

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.quad = rfamily.QuadratureSpec()
        self.instances = sweep_instances(seed, self.instance_count)
        self.refs = {}
        for inst in self.instances:
            nu = isotropy.counting_measure(inst.points)
            ref = isotropy.minimize_functional(inst.h, inst.s, nu, F)
            mu0 = isotropy.extract_measure(ref, inst.h, inst.s, nu, F)
            self.refs[inst.name] = (inst, ref, mu0)
        self.c7_gap = {}
        inst = self.instances[0]
        rfamily.band_functional(inst.h, inst.s, PAIR, SCHEDULE[0],
                                EPoint(BlockMat.identity(1), np.zeros(1)), self.quad)

    def _op(self, key):
        inst, ref, mu0 = self.refs[key]
        return rfamily.r_sweep(inst.h, inst.s, PAIR, SCHEDULE, self.quad, ref, mu0)

    def batch(self) -> list[Op]:
        return [Op(i.name, 1, partial(self._op, i.name)) for i in self.instances]

    def fingerprint(self, key, out) -> str:
        return _digest(*[[e.lambda_r, e.value, e.dist_to_identity, e.secant_to_reference]
                         for e in out.entries])

    def _c7_gaps(self, key, out) -> list[float]:
        inst = self.refs[key][0]
        gaps = []
        for e in out.entries:
            lhs = rfamily.band_functional(inst.h, inst.s, PAIR, e.r, e.point, self.quad)
            rhs = rfamily.rescaled_band_functional(inst.h, inst.s, PAIR, e.r, e.rescaled,
                                                   self.quad)
            gaps.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
        return gaps

    def check(self, key, out) -> list[str]:
        inst, ref, mu0 = self.refs[key]
        problems = []
        iso = isotropy.check_isotropy(mu0, inst.s)
        if not (iso.residual_iso <= RESIDUAL_TOL and iso.residual_center <= RESIDUAL_TOL
                and ref.lambda_gap <= RESIDUAL_TOL):
            problems.append("reference isotropy outside the bounds")
        for e in out.entries:
            fields = [e.lambda_r, e.value, e.dist_to_identity, e.normalized_s_trace,
                      e.secant_to_reference, *e.mu_integrals]
            if e.point is None or not np.all(np.isfinite(fields)):
                problems.append(f"r = {e.r}: row is not finite")
        if problems:
            return problems
        worst = self.c7_gap[key] = max(self._c7_gaps(key, out))
        if not worst <= C7_BOUND:
            problems.append(f"c7 gap {worst:.3e} above {C7_BOUND:.0e}")
        return problems

    def accuracy(self, outputs: dict) -> dict:
        per = {}
        for key, out in outputs.items():
            if key not in self.c7_gap:  # the operation failed its row check
                continue
            inst = self.refs[key][0]
            per[key] = {
                "rho_sq": sorted({round(float(p[0] ** 2), 12) for p in inst.points}),
                "c7_gap": self.c7_gap[key],
                "9a_dist_to_identity": out.series("dist_to_identity").tolist(),
                "9b_normalized_s_trace": out.series("normalized_s_trace").tolist(),
                "9c_secant_to_reference": out.series("secant_to_reference").tolist(),
                "9d_measure_rel_error": [
                    float(np.max(np.abs(e.mu_integrals - e.mu_reference)
                                 / np.abs(e.mu_reference))) for e in out.entries],
            }
        return per


# -- band_n2 ----------------------------------------------------------------

class BandN2(_InProcess):
    name = "band_n2"
    radii = (0.8, 0.9)

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.inst = certify_instances(seed)[1]
        self.quad = rfamily.QuadratureSpec()
        rng = np.random.default_rng([seed, 3])
        self.inputs = {}
        for r in self.radii:  # positions drawn as acceptance c7 draws them
            S = rng.normal(scale=0.12, size=(2, 2))
            A, alpha = sdet1_param(0.5 * (S + S.T), self.inst.s)
            v = rng.normal(scale=0.12, size=2)
            self.inputs[f"r{r}"] = (r, EPoint(BlockMat(A, alpha), v))
        r, p = self.inputs[f"r{self.radii[0]}"]
        rfamily.band_functional(self.inst.h, self.inst.s, PAIR, r, p,
                                rfamily.QuadratureSpec(x_nodes_per_axis=64))
        self.errors = {}

    def _op(self, key):
        r, p = self.inputs[key]
        return rfamily.band_functional(self.inst.h, self.inst.s, PAIR, r, p, self.quad)

    def batch(self) -> list[Op]:
        return [Op(k, 2, partial(self._op, k)) for k in self.inputs]

    def fingerprint(self, key, out) -> str:
        return _digest([out])

    def check(self, key, out) -> list[str]:
        h, s = self.inst.h, self.inst.s
        r, p = self.inputs[key]
        fine = rfamily.band_functional(h, s, PAIR, r, p,
                                       rfamily.QuadratureSpec(x_nodes_per_axis=FINE_NODES))
        omr = 1.0 - r
        rescaled = EPoint(BlockMat((p.mat.diag - np.eye(2)) / omr, (p.mat.corner - 1.0) / omr),
                          p.shift / omr)
        other = rfamily.rescaled_band_functional(h, s, PAIR, r, rescaled, self.quad)
        rel = abs(out - fine) / abs(fine)
        c7 = abs(out - other) / max(1.0, abs(out))
        self.errors[key] = {"rel_error_vs_fine_grid": rel, "c7_gap": c7}
        problems = []
        if not (np.isfinite(out) and rel <= BAND_REL_TOL):
            problems.append(f"value {out!r} vs {FINE_NODES}-node {fine!r}: relative gap {rel:.3e}")
        if not c7 <= C7_BOUND:
            problems.append(f"two-route (c7) gap {c7:.3e} above {C7_BOUND:.0e}")
        return problems

    def accuracy(self, outputs: dict) -> dict:
        return {"per_input": self.errors, "fine_nodes_per_axis": FINE_NODES,
                "fine_grid_tolerance": BAND_REL_TOL, "c7_bound": C7_BOUND}


# -- cli_cold ---------------------------------------------------------------

SHIPPED = ("two_level_n1_s1", "tangent_n1_s1", "cross_n2_s2")
# (instance, command, extra arguments).  Each command's success path runs
# once; n = 2 and n = 3 add the commands whose cost grows with n; the other
# shipped instances add the exit-1 and exit-2 paths.
CLI_COMMANDS = [
    ("two_level_n1_s1", "minimize-i1", []),  # the same instance as gen_n1
    ("gen_n1", "coercivity", []),
    ("gen_n2", "contacts", []),
    ("gen_n2", "minimize-i1", []),
    ("gen_n3", "verify", []),
    ("gen_n3", "contacts", ["--grid", "41"]),
    ("tangent_n1_s1", "verify", []),
    ("cross_n2_s2", "coercivity", []),
    ("cross_n2_s2", "minimize-i1", []),
]


def _canonical_hash(inst: dict) -> str:
    text = json.dumps(inst, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _decomposition_holds(inst: dict, tol: float = 1e-8) -> bool:
    """The four decomposition conditions for the instance's own weights, in plain numpy."""
    U = np.array(inst["contacts"]["points"], dtype=float)
    c = np.array(inst["contacts"]["weights"], dtype=float)
    a = np.array([p["a"] for p in inst["h"]["pieces"]], dtype=float)
    b = np.array([p["b"] for p in inst["h"]["pieces"]], dtype=float)
    s, n = inst["s"], inst["n"]
    h_pow = np.exp(-np.max(U @ a.T + b, axis=1)) ** (1.0 / s)
    r2 = np.sum(U * U, axis=1)
    res = [np.max(np.abs(h_pow - np.sqrt(np.clip(1.0 - r2, 0.0, None)))),
           np.linalg.norm((U.T * c) @ U - np.eye(n)),
           abs(np.dot(c, h_pow ** 2) - s),
           np.linalg.norm(c @ U)]
    return max(res) <= tol


def _expected_exit(inst: dict, command: str) -> int:
    """0 success, 1 input problem, 2 mathematical failure (the CLI's exit codes)."""
    if command == "verify":
        if "weights" not in inst.get("contacts", {}):
            return 1
        return 0 if _decomposition_holds(inst) else 2
    if command in ("minimize-i1", "coercivity"):
        points = np.array(inst["contacts"]["points"], dtype=float)
        h = logconcave.make_log_concave([p["a"] for p in inst["h"]["pieces"]],
                                        [p["b"] for p in inst["h"]["pieces"]], inst["s"],
                                        inst["h"].get("domain_radius"))
        return 0 if coercivity_margin(h, inst["s"], points) > COERCIVE_MARGIN else 2
    return 0


class CliCold:
    name = "cli_cold"

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.workdir = workdir
        self.child = Path(__file__).resolve().parent / "cli_child.py"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.child_rss_kb = 0
        self.files, self.docs = {}, {}
        for name in SHIPPED:
            text = (root / "instances" / f"{name}.json").read_text()
            self._write(name, text)
        for inst in certify_instances(seed):
            self._write(inst.name, json.dumps(cli_instance(inst)) + "\n")
        self.expected = {}
        for name, cmd, extra in CLI_COMMANDS:
            doc = self.docs[name]
            self.expected[self._key(name, cmd)] = (_expected_exit(doc, cmd),
                                                   _canonical_hash(doc))
        self.tracer: Tracer | None = None
        self._call(["profiles-check"])  # warm-up: byte-compile and page in the package
        self.child_rss_kb = 0

    def _write(self, name: str, text: str) -> None:
        path = self.workdir / f"{name}.json"
        path.write_text(text)
        self.files[name] = path
        self.docs[name] = json.loads(text)

    @staticmethod
    def _key(name: str, cmd: str) -> str:
        return f"{cmd}:{name}"

    def _call(self, argv: list[str]):
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        span_path = self.workdir / "spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "fjohn.cli", *argv]
        else:
            span_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(self.child), str(span_path), *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if self.tracer is not None:
            merge_child(self.tracer, json.loads(span_path.read_text()))
        return proc.returncode, out_path.read_bytes(), err_path.read_bytes()

    def batch(self) -> list[Op]:
        return [Op(self._key(name, cmd), int(self.docs[name]["n"]),
                   partial(self._call, [cmd, "--instance", str(self.files[name]), *extra]))
                for name, cmd, extra in CLI_COMMANDS]

    def fingerprint(self, key, out) -> str:
        code, stdout, _ = out
        return hashlib.sha256(str(code).encode() + b"\0" + stdout).hexdigest()

    def check(self, key, out) -> list[str]:
        code, stdout, stderr = out
        want, digest = self.expected[key]
        cmd = key.split(":")[0]
        if code != want:
            return [f"exit {code}, expected {want}: {stderr.decode(errors='replace')[-300:]}"]
        lines = stdout.decode().splitlines()
        prints_report = want == 0 or (want == 2 and cmd in ("verify", "coercivity"))
        if not prints_report:
            return [] if not lines else [f"unexpected stdout on exit {code}"]
        if len(lines) != 1:
            return [f"expected one stdout line, got {len(lines)}"]
        report = json.loads(lines[0])
        if report.get("command") != cmd or report.get("instance_hash") != digest:
            return [f"report names {report.get('command')!r}, hash {report.get('instance_hash')}"]
        return []

    def accuracy(self, outputs: dict) -> dict:
        return {"expected_exit": {k: v[0] for k, v in self.expected.items()}}

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024.0


def merge_child(tracer: Tracer, dump: dict) -> None:
    """Fold a child process's spans and counts into the parent's, under the current op."""
    offset = len(tracer.spans)
    for name, start, end, parent, _ in dump["spans"]:
        tracer.spans.append([name, start, end,
                             None if parent is None else parent + offset, tracer.op])
    tracer.counts.update(dump["counts"])


WORKLOADS = {w.name: w for w in (Certify, Sweep, BandN2, CliCold)}
