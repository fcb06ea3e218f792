"""Command-line front end.

Subcommands:

    com              center of mass of a system file (JSON report)
    equilibrium      balanced two-body pair: partner radius, ordering
                     verdict, lever residual, rotation-sweep trace
    limit-sweep      flat-limit error of a system over a list of radii
    karcher-compare  averaging-formula center versus the Riemannian
                     barycenter, with their separation
    distance         geodesic distance between two disk points
    project          hyperboloid point to disk coordinates
    unproject        disk point to hyperboloid coordinates

Exit codes: 0 success, 1 invalid input or unwritable --output, 2 numerical
failure.  Each subcommand returns its text, computed in full; main alone
writes it, to stdout or, for com, equilibrium, limit-sweep and
karcher-compare, to --output PATH with stdout left empty.  Output is
deterministic: identical inputs give byte-identical reports.  Inputs are
checked once, by the parser and by files.load_system (one read per file).
main builds its parser once per process; build_parser returns a new one.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import re
import sys

from .barycenter import (
    DISK,
    HYPERBOLOID,
    LINE,
    _centers,
    _disk_images,
    _system_center,
    com_euclidean,
    disk_system,
    to_hyperboloid_system,
)
from .equilibria import (
    EQUALITY_RTOL,
    MAX_SWEEP_ANGLES,
    SWEEP_ANGLES,
    _sweep_count,
    classify_balance,
    rotation_sweep,
)
from .errors import NumericalError, ValidationError
from .files import csv_text, format_float, load_system, report_text
from .geometry import (
    BOUNDARY_MARGIN,
    TOL_CONSTRUCT,
    _disk_distance,
    _disk_point,
    _inside,
    _line_coordinate,
    _project,
    _sheet_distance,
    _unproject,
    check_radius,
    disk_distance,
    project,
    unproject,
)
from .karcher import GRADIENT_TOL, karcher_mean

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

CSV_HEADER_SWEEP = "theta,re_wc,im_wc,defect"
CSV_HEADER_LIMIT = "R,error"


# Negative numbers, in exponent form too (-3e-1), are positionals.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # Usage problems are input validation; keep them on exit code 1.
    def error(self, message):
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def _cmd_com(args) -> str:
    system, digest = load_system(args.input)
    radius = system.radius
    mean, center = _system_center(system)
    results = {"total_mass": system.total_mass, "log_ratio_mean": _pair(mean)}
    if system.model == HYPERBOLOID:
        # Far centers keep their place in log_ratio_mean and
        # center_hyperboloid; center_disk rounds into the rim band.
        results["center_disk"] = _pair(_disk_point(0.5 * mean, radius))
        results["center_hyperboloid"] = list(center)
    elif system.model == LINE:
        results["center_interval"] = center
        x, _, y = _unproject(complex(center), radius)
        results["center_hyperbola"] = [x, y]
    else:
        results["center_disk"] = _pair(center)
        results["center_hyperboloid"] = list(_unproject(center, radius))
    report = {
        "command": "com",
        "input_sha256": digest,
        "model": system.model,
        "radius": system.radius,
        "results": results,
        "tolerances": {
            "boundary_margin": BOUNDARY_MARGIN,
            "on_surface_construct": TOL_CONSTRUCT,
        },
    }
    return report_text(report)


def _cmd_equilibrium(args) -> str:
    radius = args.radius
    _sweep_count(args.angles)  # the whole count, before classify_balance can fail first
    verdict = classify_balance(args.m1, args.m2, args.alpha, radius)
    # The balanced pair at the partner radius classify_balance certified.
    system = disk_system(
        [args.m1, args.m2], [args.alpha, -verdict.partner_radius], radius
    )
    sweep = rotation_sweep(system, args.angles)
    rows = [
        (s.angle, s.com.center.real, s.com.center.imag, s.defect)
        for s in sweep.samples
    ]
    if args.format == "csv":
        return csv_text(CSV_HEADER_SWEEP, rows)
    s1 = args.m1 * (radius * _line_coordinate(args.alpha, radius))
    s2 = args.m2 * (radius * _line_coordinate(verdict.partner_radius, radius))
    residual = s1 - s2
    report = {
        "command": "equilibrium",
        "inputs": {
            "alpha": args.alpha,
            "angles": args.angles,
            "m1": args.m1,
            "m2": args.m2,
            "radius": radius,
        },
        "results": {
            "center_at_start": {
                "tolerance": 1e-12 * radius,
                "value": abs(sweep.base.center),
            },
            "lever_residual": {
                "tolerance": EQUALITY_RTOL * max(abs(s1), abs(s2)),
                "value": residual,
            },
            "matches_mass_order": verdict.matches_mass_order,
            "max_defect": sweep.max_defect,
            "partner_radius": verdict.partner_radius,
            "relation": verdict.relation,
            "trace": [list(row) for row in rows],
        },
        "tolerances": {"radius_equality_rtol": EQUALITY_RTOL},
    }
    return report_text(report)


def _parse_sweep(text: str) -> list[float]:
    try:
        radii = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad sweep list {text!r}: {exc}") from exc
    if not radii:
        raise ValidationError("sweep list is empty")
    return [check_radius(radius) for radius in radii]


def _cmd_limit_sweep(args) -> str:
    system, digest = load_system(args.input)
    radii = _parse_sweep(args.sweep)
    masses, radius, points = system.mass_column, system.radius, system.position_column
    # Held to the smallest swept radius below, not to the rim band of R.
    positions = _disk_images(system)
    smallest = min(radii)
    for p, w in zip(points, positions):
        if not _inside((w,), smallest):
            raise ValidationError(
                f"point {tuple(p)!r} has no representable disk image for radius {radius!r}"
                if cmath.isinf(w)
                else f"point {w!r} falls outside the swept disk of radius {smallest!r}"
            )
    total = system.total_mass
    centers = [_centers(DISK, masses, total, positions, r)[0][1] for r in radii]
    flat = com_euclidean(masses, positions)
    rows = [(r, abs(center - flat)) for r, center in zip(radii, centers)]
    if args.format == "csv":
        return csv_text(CSV_HEADER_LIMIT, rows)
    errors = [err for _, err in rows]
    ratios = [
        errors[k] / errors[k + 1] if errors[k + 1] != 0.0 else None
        for k in range(len(errors) - 1)
    ]
    report = {
        "command": "limit-sweep",
        "input_sha256": digest,
        "results": {
            "ratios": ratios,
            "rows": [list(row) for row in rows],
            "strictly_decreasing": all(
                a > b for a, b in zip(errors, errors[1:])
            ),
        },
        "sweep": radii,
        "tolerances": {"boundary_margin": BOUNDARY_MARGIN},
    }
    return report_text(report)


def _cmd_karcher_compare(args) -> str:
    system, digest = load_system(args.input)
    radius = system.radius
    mean_point = karcher_mean(to_hyperboloid_system(system))
    mean_disk = _project(mean_point, radius)
    if cmath.isinf(mean_disk):
        raise NumericalError(
            f"the barycenter {tuple(mean_point)!r} has no representable disk image"
        )
    mean, center = _system_center(system)
    if system.model == HYPERBOLOID:
        # Sheet distances: far points never enter the disk.
        center_disk = _disk_point(0.5 * mean, radius)
        probes = (center, mean_point)
        distance = _sheet_distance
    else:
        center_disk = complex(center)
        probes = (center_disk, mean_disk)
        distance = _disk_distance
    results = {
        "center_disk": _pair(center_disk),
        "karcher_disk": _pair(mean_disk),
        "karcher_hyperboloid": [mean_point.x, mean_point.y, mean_point.z],
        "separation": distance(*probes, radius),
    }
    if len(system.position_column) == 2:
        (ma, mb), (pa, pb) = system.mass_column, system.position_column
        for key, probe in zip(("lever_residual_com", "lever_residual_karcher"), probes):
            results[key] = ma * distance(pa, probe, radius) - mb * distance(
                pb, probe, radius
            )
    report = {
        "command": "karcher-compare",
        "input_sha256": digest,
        "model": system.model,
        "radius": radius,
        "results": results,
        "tolerances": {"karcher_gradient": GRADIENT_TOL * radius},
    }
    return report_text(report)


def _cmd_distance(args) -> str:
    w1 = complex(args.coords[0], args.coords[1])
    w2 = complex(args.coords[2], args.coords[3])
    return format_float(disk_distance(w1, w2, args.radius)) + "\n"


def _cmd_project(args) -> str:
    w = project(args.coords, args.radius)
    return f"{format_float(w.real)} {format_float(w.imag)}\n"


def _cmd_unproject(args) -> str:
    lifted = unproject(complex(args.coords[0], args.coords[1]), args.radius)
    return " ".join(map(format_float, lifted)) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypercom",
        description="Center of mass on constant negative curvature surfaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    com = sub.add_parser("com", help="center of mass of a system file")
    com.add_argument("--input", required=True, help="system file (JSON)")
    com.add_argument("--output", default=None, help="report path (default stdout)")
    com.set_defaults(func=_cmd_com)

    eq = sub.add_parser("equilibrium", help="balanced two-body configuration")
    eq.add_argument("--m1", type=float, required=True)
    eq.add_argument("--m2", type=float, required=True)
    eq.add_argument("--alpha", type=float, required=True,
                    help="disk radius of the first mass")
    eq.add_argument("--radius", type=float, required=True)
    eq.add_argument("--angles", type=_positive_int, default=SWEEP_ANGLES,
                    help=f"rotation sweep resolution, at most {MAX_SWEEP_ANGLES}")
    eq.add_argument("--format", choices=("json", "csv"), default="json")
    eq.add_argument("--output", default=None)
    eq.set_defaults(func=_cmd_equilibrium)

    sweep = sub.add_parser("limit-sweep", help="flat-limit error over radii")
    sweep.add_argument("--input", required=True)
    sweep.add_argument("--sweep", required=True, help="comma-separated radii")
    sweep.add_argument("--format", choices=("json", "csv"), default="json")
    sweep.add_argument("--output", default=None)
    sweep.set_defaults(func=_cmd_limit_sweep)

    kc = sub.add_parser(
        "karcher-compare",
        help="averaging formula versus the Riemannian barycenter",
    )
    kc.add_argument("--input", required=True)
    kc.add_argument("--output", default=None)
    kc.set_defaults(func=_cmd_karcher_compare)

    dist = sub.add_parser("distance", help="distance between two disk points")
    dist.add_argument("coords", type=float, nargs=4, help="re1 im1 re2 im2")
    dist.add_argument("--radius", type=float, required=True)
    dist.set_defaults(func=_cmd_distance, output=None)

    proj = sub.add_parser("project", help="hyperboloid point to disk point")
    proj.add_argument("coords", type=float, nargs=3, help="x y z")
    proj.add_argument("--radius", type=float, required=True)
    proj.set_defaults(func=_cmd_project, output=None)

    unproj = sub.add_parser("unproject", help="disk point to hyperboloid point")
    unproj.add_argument("coords", type=float, nargs=2, help="re im")
    unproj.add_argument("--radius", type=float, required=True)
    unproj.set_defaults(func=_cmd_unproject, output=None)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = args.func(args)
        if args.output is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise ValidationError(
                    f"cannot write output {args.output!r}: {exc.strerror or exc}"
                ) from exc
    except ValidationError as exc:
        print(f"hypercom: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"hypercom: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def run() -> None:
    sys.exit(main())
