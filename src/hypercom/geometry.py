"""Geometry of the two standard models of constant curvature -1/R^2.

The hyperboloid model is the upper sheet of x^2 + y^2 - z^2 = -R^2
(z > 0) in Minkowski 3-space with the bilinear form
<p, q> = p.x q.x + p.y q.y - p.z q.z.  The disk model is the complex
disk |w| < R carrying the conformal metric
ds^2 = 4 R^4 |dw|^2 / (R^2 - |w|^2)^2.  Stereographic projection from
(0, 0, -R) identifies the two isometrically:

    project:    w = u + iv with u = R x / (R + z), v = R y / (R + z)
    unproject:  x = 2 R^2 u / (R^2 - |w|^2)
                y = 2 R^2 v / (R^2 - |w|^2)
                z = R (R^2 + |w|^2) / (R^2 - |w|^2)

The z sign convention matters: the variant z = R (|w|^2 - R^2) /
(R^2 - |w|^2) sends the origin to (0, 0, -R) on the lower sheet and is
not an inverse of the projection, so it is not used here.

The one-dimensional model of the collinear case is the y = 0 section:
its branch x^2 - y^2 = -R^2, y > 0 is the sheet curve (x, 0, y), which
projects to the real diameter (-R, R), and its checks and maps are the
sheet's and the disk's on that section.  Distances and geodesics of
the disk are computed in the disk, from R^2 - |w|^2 formed exactly,
never through the lift: near the rim the lift rounds by 1e-16 z1 z2.
Sheet distances and the karcher module's log, exp and barycenter steps
share one kernel, which never differences coordinates of size z: points
as rapidity asinh(r/R) and xy heading (_polar), the boost of one point
to the pole (_pole_log), and the boost back (_step), which is _pole_log
seen from the opposite frame; _polar and _sheet_log, the one two-point
entry, hold its double-range rules.  All functions are pure.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import NumericalError, ValidationError

__all__ = [
    "GeodesicSegment", "HPoint", "LPoint", "arc_between", "arclength_from_pole",
    "disk_distance", "geodesic_between", "hpoint", "hyperboloid_distance", "lpoint",
    "project", "project_line", "rotate_disk", "unproject", "unproject_line",
]

# On-surface validation at construction; relative to the point's scale.
TOL_CONSTRUCT = 1e-9
# Disk points with |w| > R (1 - BOUNDARY_MARGIN) are rejected outright:
# the projection denominator R^2 - |w|^2 has lost all precision there.
BOUNDARY_MARGIN = 1e-12
_NORMAL = 2.2250738585072014e-308  # the smallest normal double


class HPoint(NamedTuple):
    """Point on the upper sheet x^2 + y^2 - z^2 = -R^2, z >= R."""

    x: float
    y: float
    z: float


class LPoint(NamedTuple):
    """Point on the upper branch x^2 - y^2 = -R^2, y >= R."""

    x: float
    y: float


def check_radius(radius: float) -> float:
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValidationError(
            f"curvature radius must be positive and finite, got {radius!r}"
        )
    if not 1e-100 <= radius <= 1e100:
        # The models cube R, and R^3 must stay a normal double.
        raise ValidationError(f"curvature radius {radius!r} is outside [1e-100, 1e100]")
    return float(radius)


def check_hpoint(p, radius: float) -> HPoint:
    """Validate a point of the upper hyperboloid sheet.

    The quadric residual is compared against TOL_CONSTRUCT scaled by
    R^2 + |p|^2; scaling by R^2 alone would reject far points whose
    residual is dominated by rounding of z^2.  Where the squares
    overflow, the residual is judged for the point divided by its
    largest coordinate.  Non-finite coordinates leave a NaN residual
    and are rejected.
    """
    x, y, z = p
    if not _on_sheet(x, y, z, radius):
        raise ValidationError(
            f"point {tuple(p)!r} is not on the upper sheet for radius {radius!r}"
        )
    return p if type(p) is HPoint else HPoint(float(x), float(y), float(z))


def _on_sheet(x, y, z, radius: float) -> bool:
    """The quadric test of check_hpoint; overflowing squares are rescaled first."""
    if radius * radius + x * x + y * y + z * z == math.inf:
        big = max(abs(x), abs(y), abs(z))
        x, y, z, radius = x / big, y / big, z / big, radius / big
    return _on_sheet_column(((x, y, z),), radius)


def _on_sheet_column(points, radius: float) -> bool:
    """The quadric test of a whole column, its one spelling, without rescale.

    Non-numbers, NaN and overflowing squares make it False; the caller then
    walks the points with check_hpoint for the first error or a rescale.
    """
    rr = radius * radius
    try:
        return all([
            z > 0.0
            and abs(x * x + y * y - z * z + rr)
            <= TOL_CONSTRUCT * (rr + x * x + y * y + z * z) < math.inf
            for x, y, z in points
        ])
    except (TypeError, ValueError):
        return False


def _inside(positions, radius: float) -> bool:
    """Whether every disk or line point w clears the rim band.

    The one spelling of the band, |w| < R (1 - BOUNDARY_MARGIN), for
    check_disk_point, check_interval_point, the system's column test,
    balance_radius and limit-sweep.  A NaN or infinite point
    has a NaN or infinite modulus and fails it, and so does a finite
    point whose modulus overflows.
    """
    limit = radius * (1.0 - BOUNDARY_MARGIN)
    try:
        return all(map(limit.__gt__, map(abs, positions)))
    except OverflowError:
        return False


def hpoint(x: float, y: float, z: float, radius: float) -> HPoint:
    """Validating constructor for hyperboloid points."""
    return check_hpoint(HPoint(float(x), float(y), float(z)), check_radius(radius))


def check_lpoint(p, radius: float) -> LPoint:
    """Validate a point of the upper hyperbola branch (1D model).

    The residual test of check_hpoint on the sheet point (x, 0, y).
    """
    x, y = p
    if not _on_sheet(x, 0.0, y, radius):
        raise ValidationError(
            f"point {tuple(p)!r} is not on the upper branch for radius {radius!r}"
        )
    return p if type(p) is LPoint else LPoint(float(x), float(y))


def lpoint(x: float, y: float, radius: float) -> LPoint:
    """Validating constructor for 1D hyperbola points."""
    return check_lpoint(LPoint(float(x), float(y)), check_radius(radius))


def check_disk_point(w, radius: float) -> complex:
    """Validate a disk-model point, rejecting the rim band and overflowing moduli."""
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValidationError(f"disk point must be finite, got {w!r}")
    if not _inside((w,), radius):
        raise ValidationError(
            f"point {w!r} is not inside the disk of radius {radius!r}"
        )
    return w


def check_interval_point(u: float, radius: float) -> float:
    """Validate a 1D model point u in (-R, R), same boundary band as the disk."""
    u = float(u)
    if not _inside((u,), radius):
        raise ValidationError(
            f"coordinate {u!r} is not inside the interval (-{radius!r}, {radius!r})"
        )
    return u


def project(p, radius: float) -> complex:
    """Stereographic image of a hyperboloid point in the disk model.

    Far out R x and R y can overflow although the image lies inside the
    disk; such an image is an input error, not an infinite point.
    """
    radius = check_radius(radius)
    w = _project(check_hpoint(p, radius), radius)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValidationError(
            f"point {tuple(p)!r} has no representable disk image for radius {radius!r}"
        )
    return w


def _project(p, radius: float) -> complex:
    """Kernel of project for a validated sheet point and radius."""
    x, y, z = p
    denom = radius + z
    return complex(radius * x / denom, radius * y / denom)


def unproject(w, radius: float) -> HPoint:
    """Lift a disk point onto the upper hyperboloid sheet."""
    radius = check_radius(radius)
    return _unproject(check_disk_point(w, radius), radius)


def _unproject(w: complex, radius: float) -> HPoint:
    """Kernel of unproject for a validated disk point and radius."""
    rr = radius * radius
    ww = w.real * w.real + w.imag * w.imag
    denom = _rim_gap(w, radius)
    return HPoint(
        2.0 * rr * w.real / denom,
        2.0 * rr * w.imag / denom,
        radius * (rr + ww) / denom,
    )


def project_line(p, radius: float) -> float:
    """1D stereographic projection u = R x / (R + y)."""
    radius = check_radius(radius)
    x, y = check_lpoint(p, radius)
    return _project((x, 0.0, y), radius).real


def unproject_line(u: float, radius: float) -> LPoint:
    """Lift an interval coordinate onto the upper hyperbola branch."""
    radius = check_radius(radius)
    x, _, y = _unproject(complex(check_interval_point(u, radius)), radius)
    return LPoint(x, y)


def hyperboloid_distance(p, q, radius: float) -> float:
    """Geodesic distance between two points of the upper sheet.

    Mathematically R acosh(-<p, q> / R^2); read by _sheet_log from the
    rapidities and headings of the points, so no difference of ambient
    coordinates of size z enters, however far out the points lie.
    """
    radius = check_radius(radius)
    return _sheet_distance(check_hpoint(p, radius), check_hpoint(q, radius), radius)


def _sheet_distance(p, q, radius: float) -> float:
    """Kernel of hyperboloid_distance for validated points and radius."""
    return radius * _sheet_log(p, q, radius)[0]


def _sheet_log(p, q, radius: float) -> tuple[float, float, float]:
    """_pole_log's (t, along, across) of q seen from p, both validated.

    Its sinh^2(t/2) passes the double range beyond about 711 R: NumericalError.
    """
    a, ex, ey = _polar(p, radius)
    b, ux, uy = _polar(q, radius)
    log = _pole_log(a, math.cosh(a), math.sinh(a), ex, ey, b, 0.25 * math.sinh(b), ux, uy)
    if not log[0] < math.inf:
        raise NumericalError("the distance of these sheet points passes the double range")
    return log


def _polar(p, radius: float) -> tuple[float, float, float]:
    # Rapidity asinh(r/R) and unit heading of the xy part of a sheet
    # point; z is implied by them, so its rounding never enters.  Past
    # r / R of 1.8e308 the rapidity is not a double: NumericalError.
    r = math.hypot(p[0], p[1])
    if r == 0.0:
        return 0.0, 1.0, 0.0
    a = math.asinh(r / radius)
    if not a < math.inf:
        raise NumericalError(f"point {tuple(p)!r}: its rapidity passes the double range")
    return a, p[0] / r, p[1] / r


def _sheet_point(a: float, ex: float, ey: float, radius: float) -> HPoint:
    z, s = _cosh_sinh(radius, a)
    return HPoint(s * ex, s * ey, z)


def _cosh_sinh(scale: float, a: float) -> tuple[float, float]:
    """(scale cosh a, scale sinh a), finite wherever the products are.

    Past |a| = 710.47 cosh and sinh overflow on their own, although a
    scale below 1 (R or rho at small R) brings the products back into
    range; there cosh |a| = sinh |a| = e^|a| / 2 in doubles, formed as
    (scale e^(|a|/2)) (e^(|a|/2) / 2).  Only that branch does so, so the
    products keep their bits everywhere else.
    """
    try:
        return scale * math.cosh(a), scale * math.sinh(a)
    except OverflowError:
        half = math.exp(0.5 * abs(a))
        big = scale * half * (0.5 * half)
        return big, math.copysign(big, a)


def _asinh_ratio(x: float, rho: float) -> float:
    """asinh(x / rho) for rho > 0, also where x / rho passes the double range.

    There |x / rho| > 2^1023 and asinh q = ln 2|q| in doubles, read as
    ln |x| + ln(2 / rho); rho is at least R >= 1e-100, so 2 / rho is finite.
    """
    q = x / rho
    if abs(q) < math.inf:
        return math.asinh(q)
    return math.copysign(math.log(abs(x)) + math.log(2.0 / rho), x)


def _pole_log(a, ca, sa, ex, ey, b, qb, ux, uy) -> tuple[float, float, float]:
    """(t, along, across): the point (b, u) seen from (a, e) moved to the pole.

    Rapidities and headings as of _polar; ca, sa, qb = cosh a, sinh a,
    sinh(b) / 4, which _cosh_sinh(0.25, b) keeps finite to b = 711.8,
    past the 710.47 where sinh b overflows.  The boost maps (b, u) to
    (4 along, 4 across, .) R =
    (sinh(b - a) - 2 cosh(a) sinh(b) h, sinh(b) sin(gap), .) R in the
    basis (e, e turned by a right angle), h = sin^2(gap/2), at distance
    t R with sinh^2(t/2) = sinh^2((b - a)/2) + sinh(a) sinh(b) h: no
    difference of ambient coordinates of size z.  Callers read only the
    heading of (along, across); at a quarter of its size it is finite
    wherever t is, though 2 cosh(a) alone overflows from r/R = 2^1023.
    """
    # sinh(b) h first: it is exactly 0 on a common diameter, where
    # sinh(a) sinh(b) alone can overflow.
    sbh = qb * ((ux - ex) ** 2 + (uy - ey) ** 2)
    half = math.sinh(0.5 * (b - a))
    t = 2.0 * math.asinh(math.sqrt(half * half + sa * sbh))
    along = 0.5 * half * math.sqrt(1.0 + half * half) - 0.5 * ca * sbh
    across = qb * (ex * uy - ey * ux)
    return t, along, across


def _step(a: float, ex: float, ey: float, de: float, dp: float):
    """Rapidity and heading reached by the pole vector (de, dp) R, boosted back.

    The pole point exp(tau u) seen by _pole_log from the opposite frame
    (a, -e), both headings read in the basis (e, e turned by a right angle).
    """
    tau = math.hypot(de, dp)
    if tau == 0.0:
        return a, ex, ey
    quarter = _cosh_sinh(0.25, tau)[1]
    t, along, across = _pole_log(
        a, math.cosh(a), math.sinh(a), -1.0, 0.0, tau, quarter, de / tau, dp / tau
    )
    r = math.hypot(along, across)
    if r == 0.0:
        return 0.0, 1.0, 0.0
    return t, -(along * ex - across * ey) / r, -(along * ey + across * ex) / r


def disk_distance(w1, w2, radius: float) -> float:
    """Geodesic distance in the disk model, in closed form in the disk.

    d = 2 R asinh(R |w1 - w2| / (sqrt(g1) sqrt(g2))), g = R^2 - |w|^2;
    the roots are taken apart, as g1 g2 underflows at R = 1e-100.  Where
    R |w1 - w2| or the argument underflows, d = 2 |w1 - w2| R (R / roots).
    """
    radius = check_radius(radius)
    return _disk_distance(check_disk_point(w1, radius), check_disk_point(w2, radius), radius)


def _disk_distance(w1: complex, w2: complex, radius: float) -> float:
    """Kernel of disk_distance for validated points and radius."""
    roots = math.sqrt(_rim_gap(w1, radius)) * math.sqrt(_rim_gap(w2, radius))
    near = radius * abs(w1 - w2)
    if min(near, near / roots) < _NORMAL:
        return 2.0 * abs(w1 - w2) * (radius * (radius / roots))
    return 2.0 * radius * math.asinh(near / roots)


def arclength_from_pole(u: float, radius: float) -> float:
    """Signed geodesic arclength from the pole to the 1D point over u.

    Integrating the conformal line element 2 R^2 dt / (R^2 - t^2) from
    0 to u gives s = R log((R + u) / (R - u)) = 2 R atanh(u / R); odd
    and strictly increasing in u.
    """
    radius = check_radius(radius)
    return radius * _line_coordinate(check_interval_point(u, radius), radius)


def arc_between(u1: float, u2: float, radius: float) -> float:
    """Signed arclength from the point over u1 to the point over u2."""
    radius = check_radius(radius)
    u1 = check_interval_point(u1, radius)
    u2 = check_interval_point(u2, radius)
    return radius * (_line_coordinate(u2, radius) - _line_coordinate(u1, radius))


def _line_coordinate(u: float, radius: float) -> float:
    """The paper's coordinate v = 2 atanh(u / R) of a validated point."""
    return 2.0 * _line_halves((u,), radius)[0]


# v = log((R + w) / (R - w)) is read as 2 atanh(w / R): for |w| << R the
# ratio rounds to 1 + 2w/R.  The kernels give and take h = v / 2.
def _line_halves(positions, radius: float) -> list[float]:
    return [math.atanh(u / radius) for u in positions]


def _disk_halves(positions, radius: float) -> list[complex]:
    # |w| < R keeps h in |Im h| < pi/4, off the branch cuts of atanh.
    return [cmath.atanh(w / radius) for w in positions]


def _disk_points(halves, radius: float) -> list[complex]:
    """R tanh(h) per h; inverse of _disk_halves, and in its real part of _line_halves."""
    return [radius * t for t in map(cmath.tanh, halves)]


def _disk_point(h: complex, radius: float) -> complex:
    return _disk_points((h,), radius)[0]


class GeodesicSegment(NamedTuple):
    """Constant-speed geodesic from ``start`` to ``end`` in the disk model.

    point(0) is start, point(1) is end, and
    disk_distance(point(s), point(t)) = |s - t| * length for s, t in
    [0, 1].  A point is computed from the nearer end a toward the other
    end b, in the disk: the isometry that sends a to 0 and b to
    R tanh(T) e, T = L / 2R, maps R tanh(tT) e back to
    a + e (g / R) sinh(tT) sinh(T) / (sinh(T - tT) + sinh(tT) cosh(T) g / q),
    with g = R^2 - |a|^2 and q = R^2 - conj(a) b.  Both terms of the
    denominator have positive real parts: nothing cancels near the rim.
    Where T < 1e-20 and (g / R) sinh(tT) sinh(T) underflows, the point is
    on the chord, a + t (b - a), which the segment leaves by O(T) relative.
    """

    start: complex
    end: complex
    radius: float
    length: float

    def point(self, t: float) -> complex:
        if not 0.0 <= t <= 1.0:
            raise ValidationError(f"geodesic parameter must be in [0, 1], got {t!r}")
        r, a, b = self.radius, self.start, self.end
        if t > 0.5:
            a, b, t = b, a, 1.0 - t
        gap = _rim_gap(a, r)
        q = gap + a.conjugate() * (a - b)
        image = (b - a) / q
        half = 0.5 * self.length / r
        st = math.sinh(t * half)
        if half < 1e-20 and (gap / r) * st * math.sinh(half) < _NORMAL:
            return a + t * (b - a)
        return a + image / abs(image) * (gap / r) * st * math.sinh(half) / (
            math.sinh((1.0 - t) * half) + st * math.cosh(half) * (gap / q)
        )


def _rim_gap(w: complex, radius: float) -> float:
    """R^2 - |w|^2, correctly rounded: fsum of the squares split exactly.

    R - |w| would lose near the rim what rounding |w| costs off the axes.
    """
    parts = []
    for x, sign in ((radius, 1.0), (w.real, -1.0), (w.imag, -1.0)):
        c = 134217729.0 * x  # Veltkamp's split, (2^27 + 1) x
        head = c - (c - x)
        tail = x - head
        hi = x * x
        parts += (sign * hi, sign * (((head * head - hi) + 2.0 * head * tail) + tail * tail))
    return math.fsum(parts)


def geodesic_between(a, b, radius: float) -> GeodesicSegment:
    """Geodesic segment joining two distinct disk points."""
    segment = _segment(a, b, radius)
    if segment.start == segment.end:
        raise ValidationError(f"degenerate geodesic: endpoints {segment.start!r} coincide")
    return segment


def _segment(a, b, radius: float) -> GeodesicSegment:
    """Segment from a to b, validated; where a == b every point of it is a."""
    radius = check_radius(radius)
    a, b = check_disk_point(a, radius), check_disk_point(b, radius)
    return GeodesicSegment(a, b, radius, _disk_distance(a, b, radius))


def rotate_disk(w, angle: float) -> complex:
    """Rotate a disk point about the origin; an isometry of the disk metric."""
    return complex(w) * cmath.exp(1j * angle)
