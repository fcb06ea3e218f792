"""Output checks against independent high-precision oracles.

Checks run after timing, on the first output of each item; repeats of
an item must reproduce that output exactly.  Centers come from the
mpmath oracles in ``tests/oracles.py``; Karcher means are checked by an
mpmath gradient norm at the returned point, lever points by an mpmath
lever residual, and sweep defects are recomputed point by point.  Every
model conversion the checks need (projection, lift, distance) is done
here in mpmath from the input numbers, not by hypercom.

``check`` returns None for a correct output or a (kind, detail) pair;
the kinds are "wrong_value", "exit_code" and "stderr".
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parent.parent


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

DPS = 40
# Disk-model points and centers, absolute, in units of R.
TOL_POINT = 1e-12
# Karcher gradient norm, in units of max(R, z) of the returned point:
# a double can place a point at height z only to about 1e-16 z.
TOL_GRADIENT = 1e-10
# Lever residuals and distances, relative to (m1 + m2) max(L, R).
TOL_LEVER = 1e-9
# Flat-limit errors: absolute in units of the largest |w|, plus relative.
TOL_LIMIT_ABS = 1e-13
TOL_LIMIT_REL = 1e-9


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def check(workload: str, item, output, files: dict):
    """Verdict on one returned output of ``item``: None if correct."""
    try:
        if workload == "com-bulk":
            _com_bulk(item, output)
        elif workload == "crosscheck":
            _crosscheck(item, output)
        else:
            return _cli(item, output, files)
    except Mismatch as exc:
        return "wrong_value", str(exc)
    except ZeroDivisionError:
        # Points within a rounding of the rim: the disk-model oracles
        # cannot place them, so the output cannot be confirmed either.
        return "wrong_value", "no oracle value: a disk point rounds onto the rim"
    return None


def _near(what, got, want, tol):
    error = abs(mp.mpmathify(got) - want)
    if not error <= tol:
        raise Mismatch(f"{what}: {got!r} is {float(error):.3g} from the oracle (tol {tol:.3g})")


def _mpc(w):
    w = complex(w)
    return mp.mpc(w.real, w.imag)


def _inner(p, q):
    return p[0] * q[0] + p[1] * q[1] - p[2] * q[2]


def _on_sheet(p, r):
    """The sheet point over (x, y) of the double triple p.

    Far out, x and z of a double triple can be equal (the point rounds
    onto the light cone), so z is recomputed rather than rescaled.  A
    coordinate error e at height z moves the point only e R / z radially.
    """
    x, y = mp.mpf(p[0]), mp.mpf(p[1])
    return (x, y, mp.sqrt(r * r + x * x + y * y))


def _to_disk(p, r):
    x, y, z = _on_sheet(p, r)
    return mp.mpc(r * x / (r + z), r * y / (r + z))


def _lift(w, r):
    w = mp.mpmathify(w)
    ww = abs(w) ** 2
    d = r * r - ww
    return (2 * r * r * w.real / d, 2 * r * r * w.imag / d, r * (r * r + ww) / d)


def _disk_distance(w1, w2, r):
    w1, w2 = _mpc(w1), _mpc(w2)
    gap = 2 * r * r * abs(w1 - w2) ** 2 / ((r * r - abs(w1) ** 2) * (r * r - abs(w2) ** 2))
    return r * mp.acosh(1 + gap)


def _disk_center(masses, points, radius):
    return _mpc(oracles.com_disk_highprec(masses, points, radius))


def _sheet_center(masses, points, radius):
    """The averaging center of sheet points, as a sheet point.

    The formula of ``oracles.com_disk_highprec``, with the projected points
    kept in high precision: rounded to doubles, points beyond about 27R
    land on the rim.
    """
    r = mp.mpf(radius)
    total = mp.fsum(mp.mpf(m) for m in masses)
    mean = mp.fsum(
        mp.mpf(m) * mp.log((r + w) / (r - w))
        for m, w in zip(masses, (_to_disk(p, r) for p in points))
    ) / total
    return _lift(r * mp.tanh(mean / 2), r)


def _near_sheet(what, got, want, radius):
    """Geodesic distance from the double triple ``got`` to the sheet point ``want``.

    The tolerance grows with height z: a double places a point at height z
    only to about 1e-16 z along the sheet.
    """
    r = mp.mpf(radius)
    gap = -_inner(_on_sheet(got, r), want) / (r * r)
    distance = r * mp.acosh(max(gap, 1))
    tol = TOL_POINT * max(radius, abs(got[2]))
    if not distance <= tol:
        raise Mismatch(f"{what}: {got!r} is {float(distance):.3g} from the oracle (tol {tol:.3g})")


def _line_center(masses, positions, radius):
    """Bisection on M s(u) = sum m_k s(u_k), s the arclength from the pole.

    The relation of ``oracles.com_line_bisection``, with the particle sum
    formed once instead of at each of its 200 steps, so large systems
    cost one logarithm per particle.
    """
    with mp.workdps(DPS):
        r = mp.mpf(radius)

        def s(u):
            return r * mp.log((r + u) / (r - u))

        total = mp.fsum(mp.mpf(m) for m in masses)
        target = mp.fsum(mp.mpf(m) * s(mp.mpf(u)) for m, u in zip(masses, positions))
        lo, hi = -r * (1 - mp.mpf("1e-30")), r * (1 - mp.mpf("1e-30"))
        for _ in range(160):
            mid = (lo + hi) / 2
            if total * s(mid) < target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def _karcher_gradient(masses, points, point, radius):
    """Minkowski norm of the mean log vector at ``point``, in high precision."""
    with mp.workdps(DPS):
        r = mp.mpf(radius)
        x = _on_sheet(point, r)
        g = [mp.mpf(0)] * 3
        for m, q in zip(masses, points):
            q = _on_sheet(q, r)
            c = -_inner(x, q) / (r * r)
            if c <= 1:
                continue
            d = r * mp.acosh(c)
            scale = mp.mpf(m) * d / (r * mp.sinh(d / r))
            g = [g[k] + scale * (q[k] - c * x[k]) for k in range(3)]
        total = mp.fsum(mp.mpf(m) for m in masses)
        g = [c / total for c in g]
        return mp.sqrt(abs(_inner(g, g)))


def _check_karcher(masses, points, point, radius):
    grad = _karcher_gradient(masses, points, point, radius)
    tol = TOL_GRADIENT * max(radius, abs(point[2]))
    if not grad <= tol:
        raise Mismatch(f"karcher gradient norm {float(grad):.3g} above {tol:.3g}")


def _check_lever(m1, w1, m2, w2, probe, radius, residual=None):
    """Lever rule at ``probe``; with ``residual``, that value is checked instead."""
    with mp.workdps(DPS):
        r = mp.mpf(radius)
        length = _disk_distance(w1, w2, r)
        d1, d2 = _disk_distance(w1, probe, r), _disk_distance(w2, probe, r)
        want = mp.mpf(m1) * d1 - mp.mpf(m2) * d2
        tol = TOL_LEVER * (m1 + m2) * max(float(length), radius)
        if residual is not None:
            _near("lever residual", residual, want, tol)
            return
        _near("lever point residual", 0.0, want, tol)
        _near("lever point off the geodesic", d1 + d2, length, TOL_LEVER * max(float(length), radius))


def _com_bulk(item, center):
    d = item.data
    radius, masses = d["radius"], d["masses"]
    with mp.workdps(DPS):
        if item.kind == "line":
            _near("line center", center, _line_center(masses, d["points"], radius), TOL_POINT * radius)
        elif item.kind == "disk":
            _near("disk center", center, _disk_center(masses, d["points"], radius), TOL_POINT * radius)
        else:
            _near_sheet("hyperboloid center", center, _sheet_center(masses, d["points"], radius),
                        radius)


def _crosscheck(item, out):
    d = item.data
    radius, masses, points = d["radius"], d["masses"], d["points"]
    _check_karcher(masses, points, out["karcher"], radius)
    with mp.workdps(DPS):
        r = mp.mpf(radius)
        _near_sheet("hyperboloid center", out["center"], _sheet_center(masses, points, radius),
                    radius)
        disk = [complex(_to_disk(p, r)) for p in points]
        base = _disk_center(masses, disk, radius)
        tol = TOL_POINT * radius
        _near("sweep base center", out["sweep_base"], base, tol)
        if len(out["sweep"]) != 64:
            raise Mismatch(f"sweep has {len(out['sweep'])} angles, not 64")
        for k, (angle, center, defect) in enumerate(out["sweep"]):
            if angle != 2.0 * math.pi * k / 64:
                raise Mismatch(f"sweep angle {k} is {angle!r}")
            phase = mp.expj(angle)
            oracle = _disk_center(masses, [complex(_mpc(w) * phase) for w in disk], radius)
            _near(f"sweep center at angle {k}", center, oracle, tol)
            _near(f"sweep defect at angle {k}", defect, abs(oracle - base * phase), tol)
        if out["max_defect"] != max(s[2] for s in out["sweep"]):
            raise Mismatch("max_defect is not the largest sample defect")
    if len(masses) == 2:
        (m1, m2), (w1, w2) = masses, disk
        _check_lever(m1, w1, m2, w2, out["lever"], radius)
        for probe, residual in out["lever_residuals"]:
            _check_lever(m1, w1, m2, w2, probe, radius, residual)


# ---------------------------------------------------------------- CLI


def _cli(item, out, files):
    code, stderr = out["code"], out["stderr"]
    if code != item.data["expect"]:
        return "exit_code", f"exit {code!r}, expected {item.data['expect']}: {stderr.strip()[:200]}"
    if code != 0:
        lines = stderr.splitlines()
        if out["stdout"] or len(lines) != 1 or "Traceback" in stderr:
            return "stderr", f"expected one error line, got {stderr[:200]!r}"
        return None
    if stderr:
        return "stderr", f"unexpected stderr {stderr[:200]!r}"
    try:
        with mp.workdps(DPS):
            CLI_CHECKS[item.kind](_Args(item.data["argv"]), out["report"], files)
    except Mismatch as exc:
        return "wrong_value", str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "wrong_value", f"unreadable report: {exc!r}"
    return None


class _Args:
    """Values of an argv list, looked up by option name."""

    def __init__(self, argv):
        self.argv = argv

    def get(self, option, default=None):
        if option in self.argv:
            return self.argv[self.argv.index(option) + 1]
        return default

    def number(self, option):
        return float(self.get(option))

    def positional(self):
        return [float(a) for a in self.argv[1:self.argv.index("--radius")]]


def _system(args, files):
    name = args.get("--input").rsplit("/", 1)[-1]
    text = files[name]
    data = json.loads(text)
    radius = data["radius"]
    masses = [p["mass"] for p in data["particles"]]
    coords = [p["coords"] for p in data["particles"]]
    r = mp.mpf(radius)
    if data["model"] == "hyperboloid":
        disk = [complex(_to_disk(c, r)) for c in coords]
        sheet = coords
    else:
        disk = [complex(*c) if len(c) == 2 else complex(c[0]) for c in coords]
        sheet = [tuple(float(v) for v in _lift(w, r)) for w in disk]
    return {
        "text": text, "radius": radius, "model": data["model"], "masses": masses,
        "coords": coords, "disk": disk, "sheet": sheet,
    }


def _same(what, got, want):
    if got != want:
        raise Mismatch(f"{what}: {got!r}, expected {want!r}")


def _cli_com(args, report, files):
    system = _system(args, files)
    rep = json.loads(report)
    radius = system["radius"]
    _same("command", rep["command"], "com")
    _same("input_sha256", rep["input_sha256"], hashlib.sha256(system["text"].encode()).hexdigest())
    _same("model", rep["model"], system["model"])
    _same("radius", rep["radius"], radius)
    results = rep["results"]
    total = mp.fsum(mp.mpf(m) for m in system["masses"])
    _near("total_mass", results["total_mass"], total, 1e-14 * total)
    tol = TOL_POINT * radius
    if system["model"] == "line":
        positions = [c[0] for c in system["coords"]]
        oracle = oracles.com_line_bisection(system["masses"], positions, radius)
        _near("center_interval", results["center_interval"], oracle, tol)
        return
    oracle = _disk_center(system["masses"], system["disk"], radius)
    _near("center_disk", complex(*results["center_disk"]), oracle, tol)
    r = mp.mpf(radius)
    _near("center_hyperboloid", _to_disk(results["center_hyperboloid"], r), oracle, tol)


def _sweep_rows(args, report):
    if args.get("--format", "json") == "csv":
        lines = report.splitlines()
        _same("csv header", lines[0], "theta,re_wc,im_wc,defect")
        return [[float(v) for v in line.split(",")] for line in lines[1:]], None
    rep = json.loads(report)
    return rep["results"]["trace"], rep


def _cli_equilibrium(args, report, files):
    m1, m2 = args.number("--m1"), args.number("--m2")
    alpha, radius = args.number("--alpha"), args.number("--radius")
    angles = int(args.get("--angles"))
    partner = oracles.balance_radius_bisection(m1, m2, alpha, radius)
    rows, rep = _sweep_rows(args, report)
    if len(rows) != angles:
        raise Mismatch(f"{len(rows)} sweep rows for {angles} angles")
    positions = [complex(alpha), complex(-partner)]
    base = _disk_center([m1, m2], positions, radius)
    tol = TOL_POINT * radius
    for k, (theta, re, im, defect) in enumerate(rows):
        _near(f"theta {k}", theta, 2 * mp.pi * k / angles, 1e-15 * (1 + theta))
        phase = mp.expj(theta)
        oracle = _disk_center([m1, m2], [complex(_mpc(w) * phase) for w in positions], radius)
        _near(f"center at angle {k}", complex(re, im), oracle, tol)
        _near(f"defect at angle {k}", defect, abs(oracle - base * phase), tol)
    if rep is None:
        return
    results = rep["results"]
    _near("partner_radius", results["partner_radius"], partner, tol)
    relation = "less" if m2 > m1 else "greater" if m2 < m1 else "equal"
    _same("relation", results["relation"], relation)
    _same("matches_mass_order", results["matches_mass_order"], True)
    _same("max_defect", results["max_defect"], max(row[3] for row in rows))
    residual = results["lever_residual"]
    if not abs(residual["value"]) <= residual["tolerance"]:
        raise Mismatch(f"lever residual {residual['value']!r} above its tolerance")


def _cli_limit_sweep(args, report, files):
    system = _system(args, files)
    radii = [float(r) for r in args.get("--sweep").split(",")]
    if args.get("--format", "json") == "csv":
        lines = report.splitlines()
        _same("csv header", lines[0], "R,error")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    else:
        rep = json.loads(report)
        rows = rep["results"]["rows"]
        _same("sweep", rep["sweep"], radii)
        errors = [row[1] for row in rows]
        _same("ratios", rep["results"]["ratios"], [a / b for a, b in zip(errors, errors[1:])])
        _same("strictly_decreasing", rep["results"]["strictly_decreasing"],
              all(a > b for a, b in zip(errors, errors[1:])))
    _same("radii", [row[0] for row in rows], radii)
    reach = max(abs(w) for w in system["disk"])
    for radius, error in rows:
        oracle = oracles.euclidean_limit_error_highprec(system["masses"], system["disk"], radius)
        _near(f"error at R={radius!r}", error, mp.mpf(oracle),
              TOL_LIMIT_ABS * reach + TOL_LIMIT_REL * oracle)


def _cli_karcher_compare(args, report, files):
    system = _system(args, files)
    rep = json.loads(report)
    radius, masses = system["radius"], system["masses"]
    results = rep["results"]
    r = mp.mpf(radius)
    tol = TOL_POINT * radius
    _same("karcher tolerance", rep["tolerances"]["karcher_gradient"], 1e-12 * radius)
    karcher = results["karcher_hyperboloid"]
    _check_karcher(masses, system["sheet"], karcher, radius)
    center = complex(*results["center_disk"])
    mean = complex(*results["karcher_disk"])
    _near("center_disk", center, _disk_center(masses, system["disk"], radius), tol)
    _near("karcher_disk", mean, _to_disk(karcher, r), tol)
    separation = _disk_distance(center, mean, r)
    _near("separation", results["separation"], separation, tol + TOL_LEVER * separation)
    if len(masses) == 2:
        (m1, m2), (w1, w2) = masses, system["disk"]
        _check_lever(m1, w1, m2, w2, center, radius, results["lever_residual_com"])
        _check_lever(m1, w1, m2, w2, mean, radius, results["lever_residual_karcher"])


def _cli_distance(args, report, files):
    radius = args.number("--radius")
    a, b, c, d = args.positional()
    want = _disk_distance(complex(a, b), complex(c, d), mp.mpf(radius))
    _near("distance", float(report), want, TOL_POINT * radius + TOL_LEVER * want)


def _cli_project(args, report, files):
    radius = args.number("--radius")
    u, v = (float(t) for t in report.split())
    _near("projection", complex(u, v), _to_disk(args.positional(), mp.mpf(radius)),
          TOL_POINT * radius)


def _cli_unproject(args, report, files):
    radius = args.number("--radius")
    re, im = args.positional()
    got = [float(t) for t in report.split()]
    want = _lift(complex(re, im), mp.mpf(radius))
    for k in range(3):
        _near(f"coordinate {k}", got[k], want[k], TOL_POINT * want[2])


CLI_CHECKS = {
    "com": _cli_com,
    "equilibrium": _cli_equilibrium,
    "limit-sweep": _cli_limit_sweep,
    "karcher-compare": _cli_karcher_compare,
    "distance": _cli_distance,
    "project": _cli_project,
    "unproject": _cli_unproject,
}
