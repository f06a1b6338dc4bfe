"""Command-line front end: sweeps, solves, scans and certifications.

Exit codes: 0 success, 1 certificate or solve failure or a numerical
failure (``plane.ProjectionError``: a flag with no interior projection in
float; ``flags.NumericalDomainError``), reported in one line on standard
error, 2 usage error, such as a ``--point`` that ``PlanePoint`` rejects.
Reports are JSON with sorted keys, byte-identical for identical seeds and
flags except the certificate report's ``runtime_s`` (the sweep's wall
time); bulk fields and scans are CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import certificate as cert
from . import pde
from . import reps
from .flags import GeometryError, NumericalDomainError
from .plane import PlanePoint, ProjectionError, _conic_rows, _fiber_rows


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _float_list(text):
    return [float(v) for v in text.split(",") if v != ""]


def _cmd_certificate(args, parser) -> int:
    moduli = [m for m in cert.BETA_MODULUS_STEPS if m <= args.beta_max]
    if args.beta_max >= 0.95 or not moduli or moduli[-1] < args.beta_max:
        moduli.append(args.beta_max)
    grid = cert.CertGrid(
        beta_moduli=tuple(moduli),
        beta_phases=args.beta_phases,
        z_phases=args.z_steps,
        d_max=args.d_max,
        d_step=args.d_step,
    )
    report = cert.sweep(grid)
    _write_json(args.out, report.to_json())
    ok = (
        report.min_margin >= -1e-9
        and report.analytic_floor_gap >= -1e-9
        and report.oracle_dev <= 1e-10
    )
    print(
        f"min_margin={report.min_margin:.3e} analytic_floor_gap={report.analytic_floor_gap:.3e} "
        f"oracle_dev={report.oracle_dev:.3e} cells={report.n_cells} "
        f"runtime={report.runtime_s:.1f}s -> "
        + ("PASS" if ok else "FAIL")
    )
    return 0 if ok else 1


def _cmd_solve(args, parser) -> int:
    nonzero_t = not args.t_zero
    if args.domain == "torus":
        dom = pde.DomainSpec("torus", args.n, periods=tuple(args.periods))
    else:
        if nonzero_t and args.boundary is None:
            parser.error("disk solves with nonzero t require --boundary reference")
        dom = pde.DomainSpec("disk", args.n, radius=args.radius, boundary=args.boundary or "reference")
    if args.t_zero:
        datum = pde.HiggsDatum.zero(dom)
    elif args.t_monomial is not None:
        if args.domain != "disk":
            parser.error("--t-monomial requires --domain disk")
        if len(args.t_monomial) != 2:
            parser.error("--t-monomial takes exactly C,K")
        c, k = args.t_monomial
        datum = pde.HiggsDatum.monomial(c, k, dom)
    else:
        datum = pde.HiggsDatum.constant(args.t_const, dom)
    try:
        u, report = pde.solve(dom, datum, tol=args.tol)
    except pde.SolveError as exc:
        payload = {
            "converged": False,
            "residual_norm": exc.residual_norm,
            "iterations": exc.iterations,
        }
        _write_json(f"{args.out_prefix}_report.json", payload)
        print(f"solve failed: {exc}")
        return 1
    payload = report.to_json()
    if args.domain == "disk" and args.t_zero:
        ref = dom.reference_profile()
        mask = dom.interior_mask()
        payload["reference_error"] = float(np.abs(u.values - ref)[mask].max())
    pde.write_field_csv(f"{args.out_prefix}_field.csv", u)
    _write_json(f"{args.out_prefix}_report.json", payload)
    print(
        f"converged in {report.iterations} iterations, residual {report.residual_norm:.3e}"
    )
    return 0


def _cmd_gap_scan(args, parser) -> int:
    fuchsian = reps.octagon_fuchsian()
    if args.family == "red":
        rep = reps.reducible_representation(fuchsian)
    elif args.family == "irr":
        rep = reps.irreducible_representation(fuchsian)
    else:
        if args.chi is None:
            parser.error("--family barbot requires --chi u1,u2,u3,u4")
        rep = reps.barbot_twist(fuchsian, args.chi)
    scan = reps.gap_scan(rep, args.max_len, sample_budget=args.budget, seed=args.seed)
    with open(f"{args.out_prefix}_scan.csv", "w", encoding="utf-8") as fh:
        for line in scan.csv_lines():
            fh.write(line + "\n")
    _write_json(f"{args.out_prefix}_summary.json", scan.to_json())
    print(f"A={scan.slope_a:.4f} B={scan.offset_b:.4f} rows={len(scan.rows)}")
    return 0


def _cmd_certify_flow(args, parser) -> int:
    if args.t_step <= 0:
        parser.error("--t-step must be positive")
    if not args.betas or not args.times:
        parser.error("--betas and --times need at least one value each")
    for t in args.times:
        if t <= 0:
            parser.error("--times must be positive")
    for b in args.betas:
        if not (0.0 <= b < 1.0):
            parser.error("--betas must lie in [0, 1)")
    nesting = reps.flow_nesting_certify(args.angle, args.times, args.samples)
    pushforwards = [
        cert.pushforward_check(b, args.t_step, n_samples=args.samples, tol=args.tol)
        for b in args.betas
    ]
    ok = nesting["all_nested"] and all(p["all_inside"] for p in pushforwards)
    payload = {"nesting": nesting, "pushforwards": pushforwards, "certified": ok}
    _write_json(args.out, payload)
    for p in pushforwards:
        print(
            f"beta={p['beta_re']:.2f}: {p['inside']}/{p['samples']} inside, "
            f"min displacement {p['min_displacement']:.3e}"
        )
    print("nesting: " + ("all nested" if nesting["all_nested"] else "FAILED"))
    return 0 if ok else 1


def _cmd_fiber(args, parser) -> int:
    if args.theta_steps < 1:
        parser.error("--theta-steps must be positive")
    if args.point is not None:
        if len(args.point) != 3:
            parser.error("--point takes exactly A,B,C")
        point = PlanePoint(*args.point)
    else:
        point = PlanePoint.identity()

    report = None
    if args.conic_position:
        rep = reps.reducible_representation()
        report = reps.conic_position_check(rep, n_samples=args.samples, seed=args.seed)
    thetas = 2.0 * math.pi * np.arange(args.theta_steps) / args.theta_steps
    lines, planes = _fiber_rows(point, thetas)
    table = np.column_stack([thetas, lines, planes, _conic_rows(lines)])
    with open(f"{args.out_prefix}_fiber.csv", "w", encoding="utf-8") as fh:
        fh.write("theta,x1,x2,x3,y1,y2,y3,conic_eval\n")
        for cells in table.tolist():
            fh.write(",".join(map(repr, cells)) + "\n")
    if report is not None:
        _write_json(f"{args.out_prefix}_conic.json", report)
        print(
            f"{report['lines_outside']}/{report['samples']} lines outside, "
            f"{report['planes_meet_interior']}/{report['samples']} planes meet interior"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcones",
        description="Multicone certificates, scalar solves and gap scans for SL(3,R).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certificate", help="sweep the pointwise nestedness certificate")
    p.add_argument("--beta-max", type=float, default=0.95)
    p.add_argument("--beta-phases", type=int, default=16)
    p.add_argument("--z-steps", type=int, default=64)
    p.add_argument("--d-max", type=float, default=5.0)
    p.add_argument("--d-step", type=float, default=0.05)
    p.add_argument("--out", default="certificate.json")

    p = sub.add_parser("solve", help="solve the scalar equation on a model domain")
    p.add_argument("--domain", choices=("torus", "disk"), required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--t-const", type=float, default=1.0)
    p.add_argument("--t-zero", action="store_true")
    p.add_argument("--t-monomial", type=_float_list, default=None, metavar="C,K")
    p.add_argument("--periods", type=_float_list, default=[1.0, 1.0])
    p.add_argument("--radius", type=float, default=0.8)
    p.add_argument("--boundary", choices=("reference",), default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out-prefix", default="solve")

    p = sub.add_parser("gap-scan", help="scan singular and eigenvalue gaps over words")
    p.add_argument("--family", choices=("red", "irr", "barbot"), required=True)
    p.add_argument("--max-len", type=int, default=5)
    p.add_argument("--chi", type=_float_list, default=None, metavar="U1,U2,U3,U4")
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", default="gapscan")

    p = sub.add_parser("certify-flow", help="flow nesting and pushforward certification")
    p.add_argument("--betas", type=_float_list, default=[0.0, 0.5, 0.9])
    p.add_argument("--t-step", type=float, default=1e-3)
    p.add_argument("--times", type=_float_list, default=[0.1, 0.5, 1.0, 2.0])
    p.add_argument("--angle", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default="certify_flow.json")

    p = sub.add_parser("fiber", help="emit fiber samples and the conic position report")
    p.add_argument("--theta-steps", type=int, default=256)
    p.add_argument("--point", type=_float_list, default=None, metavar="A,B,C")
    p.add_argument("--conic-position", action="store_true")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", default="fiber")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "certificate": _cmd_certificate,
        "solve": _cmd_solve,
        "gap-scan": _cmd_gap_scan,
        "certify-flow": _cmd_certify_flow,
        "fiber": _cmd_fiber,
    }
    try:
        return handlers[args.command](args, parser)
    except (GeometryError, pde.DomainError) as exc:
        parser.error(str(exc))
        return 2
    except (ProjectionError, NumericalDomainError) as exc:
        print(f"flagcones {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
