"""Command-line pipeline: fixtures, certificates, minimization, sweeps.

stdout carries a single JSON report; human diagnostics go to stderr.  Exit
codes: 0 success, 1 input problem, 2 mathematical failure (position or
coercivity), 3 no convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import contact
from .errors import FJohnError, InfeasibleWeights, NotConverged, NotProper, PointOnBoundary
from .logconcave import LogConcaveFn, check_proper, make_log_concave

# A command imports the rest of the package where it first needs it, so a cold
# `verify` or `contacts` loads neither the contact functional nor the band family.
if TYPE_CHECKING:
    from .blockmat import EPoint
    from .isotropy import DiscreteMeasure
    from .profiles import ProfilePair
    from .rfamily import QuadratureSpec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MATH = 2
EXIT_NOT_CONVERGED = 3

SCHEMA_VERSION = 1

# The instance schema's defaults: `fixture` writes them, and every reader falls back to them.
INSTANCE_DEFAULTS = {"r_schedule": [0.8, 0.9, 0.95, 0.99], "quadrature": {"x_nodes_per_axis": 960}}


class InputError(Exception):
    pass


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _dumps(payload: dict) -> str:
    return json.dumps(_to_jsonable(payload), sort_keys=True, separators=(",", ":"))


def instance_hash(instance: dict) -> str:
    return hashlib.sha256(_dumps(instance).encode()).hexdigest()


def _report(command: str, instance: dict | None, result: dict) -> str:
    payload = {
        "version": SCHEMA_VERSION,
        "command": command,
        "instance_hash": instance_hash(instance) if instance is not None else None,
        "result": result,
    }
    return _dumps(payload)


def _epoint_dict(p: EPoint | None) -> dict | None:
    if p is None:
        return None
    return {"diag": p.mat.diag, "corner": p.mat.corner, "shift": p.shift}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check_s(s) -> None:
    if not _is_number(s) or s <= 0:
        raise InputError(f"s must be a positive number, got {s!r}")


def _r_schedule(inst: dict) -> list:
    """The instance's `r_schedule`, which must be a list of numbers in (1/2, 1)."""
    schedule = inst.get("r_schedule", INSTANCE_DEFAULTS["r_schedule"])
    if not (isinstance(schedule, list) and all(_is_number(r) and 0.5 < r < 1.0 for r in schedule)):
        raise InputError(f"r_schedule must be a list of numbers in (1/2, 1), got {schedule!r}")
    return schedule


def _json_int(text: str) -> int:
    """An integer of the instance file, which must lie within the range of a float."""
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise InputError(f"integer {text[:12]}... ({len(text)} digits) is beyond the float range")
    return value


def load_instance(path: str) -> dict:
    try:
        with open(path) as fh:
            inst = json.load(fh, parse_int=_json_int)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read instance: {exc}")
    if not isinstance(inst, dict):
        raise InputError(f"instance must be a JSON object, got {inst!r}")
    for key in ("version", "n", "s", "h"):
        if key not in inst:
            raise InputError(f"instance missing required key '{key}'")
    if inst["version"] != SCHEMA_VERSION:
        raise InputError(f"unsupported instance version {inst['version']}")
    if type(inst["n"]) is not int or inst["n"] < 1:  # a bool or a fraction is not a dimension
        raise InputError(f"n must be an integer of at least 1, got {inst['n']!r}")
    _check_s(inst["s"])
    for key in ("h", "contacts", "quadrature"):
        if not isinstance(inst.get(key, {}), dict):
            raise InputError(f"{key} must be an object, got {inst[key]!r}")
    return inst


def build_h(inst: dict) -> LogConcaveFn:
    desc = inst["h"]
    if desc.get("type") != "psi":
        raise InputError(f"unsupported h type {desc.get('type')!r}")
    pieces = desc.get("pieces", [])
    if not pieces:
        raise InputError("h.pieces is empty")
    try:
        a = np.array([p["a"] for p in pieces], dtype=float)
        b = np.array([p["b"] for p in pieces], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed h.pieces ({type(exc).__name__}: {exc})")
    if a.ndim != 2 or a.shape[1] != inst["n"]:
        raise InputError("piece dimension does not match n")
    if b.shape != (len(pieces),):
        raise InputError("each piece's b must be a number")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InputError("h.pieces must hold finite numbers")
    radius = desc.get("domain_radius")  # `eval_h_many` squares it
    if radius is not None and not (_is_number(radius) and math.isfinite(float(radius) * radius)):
        raise InputError(f"h.domain_radius must be null or have a finite square, got {radius!r}")
    h = make_log_concave(a, b, inst["s"], radius)
    try:
        check_proper(h)
    except NotProper as exc:
        raise InputError(f"instance h is not proper: {exc}")
    return h


def build_profile(inst: dict) -> ProfilePair:
    from .profiles import PiecewiseLinear, ProfilePair, canonical_pair

    prof = inst.get("profile", "canonical")
    if prof == "canonical":
        return canonical_pair()
    if isinstance(prof, dict):
        def pl(desc):
            return PiecewiseLinear.from_knots(
                np.asarray(desc["xs"], dtype=float), np.asarray(desc["ys"], dtype=float),
                left_slope=float(desc.get("left_slope", 0.0)),
                right_slope=float(desc.get("right_slope", 0.0)))
        try:
            return ProfilePair(f=pl(prof["f"]), g=pl(prof["g"]))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise InputError(f"malformed profile ({type(exc).__name__}: {exc})")
    raise InputError(f"unsupported profile {prof!r}")


def build_valid_profile(inst: dict) -> ProfilePair:
    """The instance's profile pair, which must pass every `validate_profiles` check."""
    from .profiles import validate_profiles

    pair = build_profile(inst)
    failed = validate_profiles(pair).failed()
    if failed:
        raise InputError(f"profile pair fails {', '.join(failed)}")
    return pair


def contact_points(inst: dict, h: LogConcaveFn):
    c = inst.get("contacts", {})
    if "points" in c:
        try:
            pts = np.array(c["points"], dtype=float)
            weights = None if c.get("weights") is None else np.array(c["weights"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed contacts ({type(exc).__name__}: {exc})")
        if pts.ndim != 2 or pts.shape[1] != inst["n"]:
            raise InputError(f"contacts.points must be a list of points in R^{inst['n']}")
        if weights is not None and weights.shape != (len(pts),):
            raise InputError(f"contacts.weights must hold one number per point ({len(pts)})")
        if not (np.all(np.isfinite(pts)) and (weights is None or np.all(np.isfinite(weights)))):
            raise InputError("contacts must hold finite numbers")
        return pts, weights
    return contact.detect_contacts(h, inst["s"]).points, None


def build_nu(inst: dict, h: LogConcaveFn) -> DiscreteMeasure:
    from . import isotropy

    nu = inst.get("nu", "counting")
    if nu == "counting":
        pts, _ = contact_points(inst, h)
        return isotropy.counting_measure(pts)
    if nu == "calibrated":
        pts, weights = contact_points(inst, h)
        if weights is None:
            raise InputError("calibrated nu needs construction weights in contacts.weights")
        return isotropy.calibrated_measure(pts, weights, h, inst["s"])
    if isinstance(nu, dict) and "atoms" in nu:
        try:
            pts = np.array([a["x"] for a in nu["atoms"]], dtype=float)
            m = np.array([a["m"] for a in nu["atoms"]], dtype=float)
            measure = isotropy.DiscreteMeasure(pts, m)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed nu.atoms ({type(exc).__name__}: {exc})")
        if measure.points.shape[1] != inst["n"]:
            raise InputError("nu atom dimension does not match n")
        return measure
    raise InputError(f"unsupported nu {nu!r}")


def build_quad(inst: dict) -> QuadratureSpec:
    from . import rfamily

    nodes = {**INSTANCE_DEFAULTS["quadrature"], **inst.get("quadrature", {})}["x_nodes_per_axis"]
    if type(nodes) is not int:  # a bool or a fraction is not a node count
        raise InputError(f"quadrature.x_nodes_per_axis must be an integer, got {nodes!r}")
    try:
        return rfamily.QuadratureSpec(x_nodes_per_axis=nodes)
    except ValueError as exc:
        raise InputError(f"malformed quadrature ({type(exc).__name__}: {exc})")


def _pieces_json(h: LogConcaveFn) -> dict:
    form = h.form
    return {
        "type": "psi",
        "pieces": [{"a": list(map(float, a)), "b": float(b)}
                   for a, b in zip(form.a, form.b)],
        "domain_radius": form.domain_radius,
    }


def _tangent_points(text, n: int) -> np.ndarray:
    """The `--points` of a tangent fixture: finite points in R^n."""
    if not text:
        raise InputError("tangent fixture needs --points")
    try:
        pts = np.array([[float(v) for v in chunk.split(",")] for chunk in text.split(";")])
    except ValueError as exc:
        raise InputError(f"malformed --points ({exc})")
    if pts.ndim != 2 or pts.shape[1] != n:
        raise InputError(f"--points must be points in R^{n}, got {text!r}")
    if not np.all(np.isfinite(pts)):
        raise InputError(f"--points must be finite, got {text!r}")
    return pts


def cmd_fixture(args) -> int:
    n, s = args.n, args.s
    _check_s(s)
    if n < 1:
        raise InputError(f"--n must be at least 1, got {n}")
    if args.name == "cross":
        h, cs, weights = contact.cross_fixture(n, s)
        points, params = cs.points, {}
    elif args.name == "two-level-cross":
        h, cs, weights = contact.two_level_cross_fixture(n, s, args.rho1_sq, args.rho2_sq)
        points, params = cs.points, {"rho1_sq": args.rho1_sq, "rho2_sq": args.rho2_sq}
    elif args.name == "tangent":
        points = _tangent_points(args.points, n)
        radius = 8.0 if args.domain_radius is None else args.domain_radius
        if not (_is_number(radius) and radius > 0):
            raise InputError(f"--domain-radius must be a positive number, got {radius!r}")
        h = contact.make_tangent_instance(points, s, domain_radius=radius)
        weights = None
        params = {"points": points, "domain_radius": radius}
    else:
        raise InputError(f"unknown fixture {args.name!r}")

    inst = {
        "version": SCHEMA_VERSION,
        "n": n,
        "s": s,
        "h": _pieces_json(h),
        "contacts": {"points": points,
                     **({"weights": weights} if weights is not None else {})},
        "nu": args.nu,
        "profile": "canonical",
        **INSTANCE_DEFAULTS,
        "fixture": {"name": args.name, "params": params},
    }
    text = _dumps(inst)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(_report("fixture", inst, {"written": args.out}))
    else:
        print(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    h = build_h(inst)
    pts, weights = contact_points(inst, h)
    if weights is None:
        raise InputError("verify needs contacts.weights in the instance")
    rep = contact.verify_decomposition(pts, weights, h, inst["s"])
    print(_report("verify", inst, rep.as_dict()))
    return EXIT_OK if rep.ok else EXIT_MATH


def cmd_contacts(args) -> int:
    inst = load_instance(args.instance)
    h = build_h(inst)
    cs = contact.detect_contacts(h, inst["s"])
    print(_report("contacts", inst, {  # schema version 1 keeps "continuum": the set is finite
        "points": cs.points, "h_values": cs.h_values,
        "continuum": False, "gap_tol": cs.gap_tol,
    }))
    return EXIT_OK


def cmd_minimize_i1(args) -> int:
    from . import isotropy
    from .profiles import ConvolutionProfile

    inst = load_instance(args.instance)
    h = build_h(inst)
    nu = build_nu(inst, h)
    F = ConvolutionProfile(build_valid_profile(inst))
    res = isotropy.minimize_functional(h, inst["s"], nu, F)
    mu = isotropy.extract_measure(res, h, inst["s"], nu, F)
    iso = isotropy.check_isotropy(mu, inst["s"])
    print(_report("minimize-i1", inst, {
        "minimizer": _epoint_dict(res.point),
        "value": res.value,
        "projected_grad_norm": res.projected_grad_norm,
        "lambda": res.lam,
        "lambda_gap": res.lambda_gap,
        "iterations": res.iterations,
        "evaluations": res.evaluations,
        "stop_reason": res.stop_reason,
        "converged": res.converged,
        "extracted": {"points": mu.points, "masses": mu.masses},
        "isotropy": iso.as_dict(),
    }))
    return EXIT_OK


def cmd_coercivity(args) -> int:
    from . import isotropy

    inst = load_instance(args.instance)
    h = build_h(inst)
    nu = build_nu(inst, h)
    wit = isotropy.coercivity_witness(h, inst["s"], nu)
    print(_report("coercivity", inst, {
        "margin": wit.margin,
        "n_checked": wit.n_checked,
        "ok": wit.ok,
        "failures": [{"label": lbl, "direction": _epoint_dict(d), "max_expression": val}
                     for lbl, d, val in wit.failures],
    }))
    if not wit.ok:
        print(f"coercivity failed on direction {wit.failures[0][0]}", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def cmd_sweep_r(args) -> int:
    import csv

    from . import isotropy, rfamily
    from .profiles import ConvolutionProfile

    inst = load_instance(args.instance)
    h = build_h(inst)
    nu = build_nu(inst, h)
    pair = build_valid_profile(inst)
    try:  # before the reference minimization, which a pair the band cannot take would waste
        rfamily.check_band_pair(pair)
    except ValueError as exc:
        raise InputError(f"profile unfit for the band functionals ({exc})")
    F = ConvolutionProfile(pair)
    quad = build_quad(inst)
    schedule = _r_schedule(inst)
    s = inst["s"]
    ref = isotropy.minimize_functional(h, s, nu, F)
    mu0 = isotropy.extract_measure(ref, h, s, nu, F)
    sweep = rfamily.r_sweep(h, s, pair, schedule, quad, ref, mu0)
    rows = []
    for e in sweep.entries:
        rows.append({
            "r": e.r,
            "minimizer": _epoint_dict(e.point),
            "rescaled": _epoint_dict(e.rescaled),
            "lambda_r": e.lambda_r,
            "value": e.value,
            "dist_to_identity": e.dist_to_identity,
            "normalized_s_trace": e.normalized_s_trace,
            "secant_to_M0": e.secant_to_reference,
            "secant_to_limit": e.secant_to_limit,
            "mu_integrals": e.mu_integrals,
            "mu_reference": e.mu_reference,
            "error": e.error,
            "evaluations": e.solver.evaluations if e.solver else None,
            "stop_reason": e.solver.stop_reason if e.solver else None,
            "hessian_builds": e.solver.hessian_builds if e.solver else None,
        })
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            k = len(sweep.entries[0].mu_integrals) if sweep.entries else 0
            writer.writerow(["r", "dist_to_identity", "normalized_s_trace", "secant_to_M0"]
                            + [f"mu_{i+1}" for i in range(k)]
                            + [f"mu_ref_{i+1}" for i in range(k)])
            for e in sweep.entries:
                writer.writerow([e.r, e.dist_to_identity, e.normalized_s_trace,
                                 e.secant_to_reference]
                                + list(e.mu_integrals) + list(e.mu_reference))
    print(_report("sweep-r", inst, {
        "reference": {"minimizer": _epoint_dict(ref.point), "lambda": ref.lam},
        "limit": {"minimizer": _epoint_dict(sweep.limit)},
        "entries": rows,
        "csv": args.out,
    }))
    return EXIT_OK


def cmd_profiles_check(args) -> int:
    from .profiles import ConvolutionProfile, canonical_pair, validate_profiles

    if args.instance:
        inst = load_instance(args.instance)
        pair = build_profile(inst)
    else:
        inst = None
        pair = canonical_pair()
    rep = validate_profiles(pair)
    F = ConvolutionProfile(pair)
    xs = np.linspace(-3.0, 3.0, 601)
    Fv = np.asarray(F(xs), dtype=float)
    result = {
        "profile_properties": {c.name: c.ok for c in rep.checks},
        "all_ok": rep.ok,
        "F_nonnegative": bool(np.all(Fv >= -1e-12)),
        "F_nondecreasing": bool(np.all(np.diff(Fv) >= -1e-12)),
        "F_convex": bool(np.all(Fv[2:] - 2 * Fv[1:-1] + Fv[:-2] >= -1e-10)),
        "F_prime_at_zero": float(F.deriv(0.0)),
    }
    print(_report("profiles-check", inst, result))
    return EXIT_OK if rep.ok else EXIT_MATH


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fjohn",
        description="Decomposition-of-identity measures for log-concave functions "
                    "in John position")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fix = sub.add_parser("fixture", help="emit a fixture instance as JSON")
    p_fix.add_argument("name", choices=["cross", "two-level-cross", "tangent"])
    p_fix.add_argument("--n", type=int, required=True)
    p_fix.add_argument("--s", type=float, required=True)
    p_fix.add_argument("--rho1-sq", type=float, default=0.4)
    p_fix.add_argument("--rho2-sq", type=float, default=0.8)
    p_fix.add_argument("--points", help="semicolon-separated comma vectors, e.g. '0.5;-0.25'")
    p_fix.add_argument("--domain-radius", type=float)
    p_fix.add_argument("--nu", default="counting", choices=["counting", "calibrated"])
    p_fix.add_argument("--out")
    p_fix.set_defaults(func=cmd_fixture)

    def command(name, fn, instance_required=True):
        p = sub.add_parser(name)
        p.add_argument("--instance", required=instance_required)
        p.set_defaults(func=fn)
        return p

    command("verify", cmd_verify)
    command("contacts", cmd_contacts).add_argument(
        "--grid", type=int, help="accepted and ignored (schema version 1): contacts are "
                                 "found in closed form, not on a grid")
    command("minimize-i1", cmd_minimize_i1)
    command("coercivity", cmd_coercivity)
    command("sweep-r", cmd_sweep_r).add_argument("--out")
    command("profiles-check", cmd_profiles_check, instance_required=False)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, InfeasibleWeights, PointOnBoundary) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        print("solver record: " + _dumps({"reason": exc.reason, "iterations": exc.iterations,
                                          "evaluations": exc.evaluations,
                                          "grad_norm": exc.grad_norm}), file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except FJohnError as exc:
        print(f"math failure: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
