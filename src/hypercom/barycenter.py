"""Center of mass for systems of massed particles on the curved models.

In the coordinate v = log((R + w) / (R - w)) = 2 atanh(w / R) the
center of a system is the plain mass-weighted average of the particle
coordinates; mapping the average back through w = R tanh(v / 2) gives
the center point in the disk.  On the real diameter v is the arclength
from the pole divided by R, so for two real particles this is exactly
the balance point of the lever rule m1 s1 = m2 s2.  As R grows the
construction degenerates to the flat weighted mean, in doubles too:
the atanh form keeps the digits of w that the ratio loses for |w| << R.

On the hyperboloid sheet the same coordinate v = a + ib has a closed
form in the point's own x and y, with rho = hypot(R, y):

    a = asinh(x / rho),  b = atan(y / R),
    (x, y, z) = (rho sinh a, R tan b, rho cosh a),  rho = R / cos b.

Sheet centers average a and b there and never pass through the disk,
so they hold for any representable sheet point, not only for those
whose projection clears the disk's rim band.  The band |b| < pi/2 has
its own rim: a mean b that rounds to +-pi/2 names no point.

One kernel, _centers, serves the line, the disk and the sheet: it reads
v from each model's own coordinates, forms the mean once with exact
sums in _means, the one weighted mean (com_euclidean's too), and maps
it back into the same model.  It takes several columns that share
masses, total and radius and reads them in one pass, so a rotation
sweep evaluates all its angles in one call, and a system is the
one-column case.  The public centers, log_ratio, the rotation sweep,
the Eulerian triple, limit-sweep and the CLI reports all call it.
Its particles are checked in one place, by MassedSystem, against the
one table _MODELS of each model's stored form and checks: the system
builders, the file loader, the model conversions, com_hyperboloid and
each triple build exactly one, and the kernel trusts what it reads.

Whether the same point satisfies the geodesic lever rule for generic
(non-diametric) configurations is deliberately not assumed here; the
closed-form lever_point and the karcher module exist to measure that.
"""

from __future__ import annotations

import cmath
import math
from itertools import repeat
from operator import add, attrgetter, mul, truediv
from typing import NamedTuple

from .errors import NumericalError, ValidationError
from .geometry import (
    HPoint,
    check_disk_point,
    check_hpoint,
    check_interval_point,
    check_radius,
    _asinh_ratio,
    _cosh_sinh,
    _disk_distance,
    _disk_halves,
    _disk_point,
    _disk_points,
    _inside,
    _line_halves,
    _on_sheet_column,
    _project,
    _segment,
    _unproject,
)

__all__ = [
    "DISK", "HYPERBOLOID", "LINE", "CenterOfMass", "MassedSystem", "Particle",
    "com_disk", "com_euclidean", "com_hyperboloid", "com_line", "disk_system",
    "euclidean_limit_error", "hyperboloid_system", "lever_point", "lever_residual",
    "line_system", "log_ratio", "log_ratio_inv", "to_disk_system", "to_hyperboloid_system",
]

LINE = "line"
DISK = "disk"
HYPERBOLOID = "hyperboloid"

# Per model: the stored form of a position (a single particle is its
# own center in it), the one-pass column test and the first-error check.
_MODELS = {
    LINE: (float, _inside, check_interval_point),
    DISK: (complex, _inside, check_disk_point),
    HYPERBOLOID: (lambda p: HPoint(*map(float, p)), _on_sheet_column, check_hpoint),
}
MODELS = tuple(_MODELS)


def check_mass(mass: float) -> float:
    mass = float(mass)
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValidationError(f"mass must be positive and finite, got {mass!r}")
    return mass


class Particle(NamedTuple):
    """One massed particle; the position type depends on the model tag."""

    mass: float
    position: complex | float | HPoint


class _Checked:
    """Immutable record whose __init__ stores the fields, then checks them in __post_init__.

    Equality, hash and repr read the fields named in _fields, in order;
    a copy or pickle is rebuilt, and so checked, by __init__.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class MassedSystem(_Checked):
    """Nonempty ordered system of massed particles on one model at one radius.

    Stored as two columns of equal length: ``mass_column`` holds the
    masses as floats, ``position_column`` the positions (complex for the
    disk, float for the line, HPoint for the hyperboloid).  Build systems
    with line_system, disk_system or hyperboloid_system; construction
    validates the radius, the model tag and every particle, so the
    kernels that read the columns trust them, keeps the radius as the
    checked float and sums the masses once into ``total_mass``, which
    equality, hash and repr leave out.
    ``particles`` builds the per-particle view on request.
    """

    _fields = ("mass_column", "position_column", "radius", "model")
    __slots__ = (*_fields, "total_mass")

    def __init__(self, mass_column, position_column, radius, model=DISK):
        store = object.__setattr__
        store(self, "mass_column", mass_column)
        store(self, "position_column", position_column)
        store(self, "radius", radius)
        store(self, "model", model)
        self.__post_init__()

    def __post_init__(self):
        radius = check_radius(self.radius)
        if self.model not in _MODELS:
            raise ValidationError(f"unknown model tag {self.model!r}")
        _, inside, check_position = _MODELS[self.model]
        masses, positions = self.mass_column, self.position_column
        if not masses:
            raise ValidationError("a system needs at least one particle")
        _same_count(masses, positions)
        if not (_masses_valid(masses) and inside(positions, radius)):
            # Walk the particles in order to raise the first error.
            for m, p in zip(masses, positions):
                check_mass(m)
                check_position(p, radius)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "total_mass", _total_mass(masses))

    @property
    def particles(self) -> tuple[Particle, ...]:
        """Per-particle records, built from the columns on each access."""
        return tuple(map(Particle, self.mass_column, self.position_column))

    def masses(self) -> list[float]:
        return list(self.mass_column)

    def positions(self) -> list:
        return list(self.position_column)


def line_system(masses, positions, radius: float) -> MassedSystem:
    return _system(masses, positions, radius, LINE)


def disk_system(masses, positions, radius: float) -> MassedSystem:
    return _system(masses, positions, radius, DISK)


def hyperboloid_system(masses, points, radius: float) -> MassedSystem:
    return _system(masses, points, radius, HYPERBOLOID)


def _system(masses, positions, radius, model) -> MassedSystem:
    masses = list(masses)
    positions = list(positions)
    _same_count(masses, positions)
    coerce = _MODELS[model][0]
    try:
        mass_column = tuple(map(float, masses))
        position_column = tuple(map(coerce, positions))
    except (TypeError, ValueError):
        # Convert particle by particle to raise the first error in order.
        for m, p in zip(masses, positions):
            float(m)
            coerce(p)
        raise
    return MassedSystem(mass_column, position_column, radius, model)


def _same_count(masses, positions) -> None:
    if len(masses) != len(positions):
        raise ValidationError(f"{len(masses)} masses for {len(positions)} positions")


def _masses_valid(masses) -> bool:
    """Whether check_mass accepts every float of a nonempty sequence."""
    return all(map(math.isfinite, masses)) and min(masses) > 0.0


def _total_mass(masses) -> float:
    """Exact sum of valid masses; a sum past the double range is an input error."""
    try:
        return math.fsum(masses)
    except OverflowError:
        raise ValidationError(
            "the total mass exceeds the largest double"
        ) from None


class CenterOfMass(NamedTuple):
    """Center point plus the averaged coordinate it came from."""

    center: complex
    log_ratio_mean: complex
    total_mass: float


def log_ratio(w, radius: float) -> complex:
    """Averaging coordinate log((R + w) / (R - w)) = 2 atanh(w / R).

    Principal branch, imaginary part in (-pi/2, pi/2); odd in w and
    commutes with conjugation.  One particle's mean, from _centers.
    """
    radius = check_radius(radius)
    w = check_disk_point(w, radius)
    return _centers(DISK, (1.0,), 1.0, (w,), radius)[0][0]


def log_ratio_inv(v, radius: float) -> complex:
    """Inverse coordinate map w = R tanh(v / 2) on the strip |Im v| < pi/2."""
    radius = check_radius(radius)
    v = complex(v)
    if not (cmath.isfinite(v) and abs(v.imag) < 0.5 * math.pi):
        raise ValidationError(
            f"coordinate {v!r} is not a finite point of the strip |imag| < pi/2"
        )
    return _disk_point(0.5 * v, radius)


def _require_model(system: MassedSystem, model: str) -> None:
    if system.model != model:
        raise ValidationError(
            f"expected a {model!r} system, got {system.model!r}"
        )


def com_line(system: MassedSystem) -> float:
    """Center of mass of a 1D system, as its interval coordinate.

    The averaged coordinate is formed with exact summation, so the
    result does not depend on particle order.  A single particle is
    returned unchanged.
    """
    _require_model(system, LINE)
    return _system_center(system)[1]


def com_disk(system: MassedSystem) -> CenterOfMass:
    """Center of mass of a disk system: mean of log_ratio, mapped back.

    Sums are exact (correctly rounded), so the center is bit-identical
    under any particle reordering.  A single particle short-circuits to
    its own position.
    """
    _require_model(system, DISK)
    mean, center = _system_center(system)
    return CenterOfMass(center=center, log_ratio_mean=mean, total_mass=system.total_mass)


def com_hyperboloid(masses, points, radius: float) -> HPoint:
    """Center of mass of particles on the sheet, in the band coordinate.

    Accepts what hyperboloid_system accepts and raises what it raises,
    the first bad entry in the system's order.  Every representable
    sheet point is accepted.  A single particle is returned as an
    HPoint; a center whose mean b rounds to the band's rim raises
    NumericalError.
    """
    masses, points = list(masses), tuple(points)
    try:
        # The system holds the caller's 3-sequences, not HPoints, and never
        # leaves this function: _centers reads only their x and y.
        system = MassedSystem(tuple(map(float, masses)), points, radius, HYPERBOLOID)
    except (TypeError, ValueError, ArithmeticError):
        # Coordinates that need converting, and every error, go the way of
        # hyperboloid_system, which builds HPoints of floats first.
        system = hyperboloid_system(masses, points, radius)
    return _system_center(system)[1]


def _system_center(system: MassedSystem):
    """(mean, center) of a system: _centers of its own one column."""
    masses, positions = system.mass_column, system.position_column
    means, centers = _centers(system.model, masses, system.total_mass, positions, system.radius)
    return means[0], centers[0]


def _centers(model: str, masses, total: float, positions, radius: float):
    """(means, centers), one entry per column of validated particles; the one center kernel.

    ``positions`` holds columns of len(masses) points back to back (one
    for a system, one per angle for a rotation sweep), all with the
    masses ``masses`` and their exact sum ``total``.  One pass reads the
    coordinates of every column; then mapped passes form the means of
    all columns and map them back, and a single particle is its own
    center, in its model's stored form.  The line (no imaginary column)
    and the disk read and map back h = v / 2 by the geometry kernels and
    double the mean into v, exactly; the sheet reads v = a + ib from x
    and y (z is never read).  A sheet mean whose b rounds to +-pi/2, or
    whose point overflows, is a NumericalError.
    """
    n = len(masses)
    if model == DISK:
        halves = _disk_halves(positions, radius)
        re, im = [h.real for h in halves], [h.imag for h in halves]
    elif model == LINE:
        re, im = _line_halves(positions, radius), None
    else:
        re = [math.asinh(x / math.hypot(radius, y)) for x, y, _ in positions]
        im = [math.atan(y / radius) for _, y, _ in positions]
        # x / rho passes the double range for points past 710R at R < 1.
        if not math.isfinite(sum(re)):
            re = [_asinh_ratio(x, math.hypot(radius, y)) for x, y, _ in positions]
    if n == 1:
        means = list(map(complex, re, im or repeat(0.0)))
        centers = map(_MODELS[model][0], positions)
    else:
        means = _means(masses, total, re, im)
        if model == HYPERBOLOID:
            return means, list(map(_sheet_center, means, repeat(radius)))
        centers = _disk_points(means, radius)
        centers = map(attrgetter("real"), centers) if model == LINE else centers
    if model != HYPERBOLOID:
        means = list(map(add, means, means))
    return means, list(centers)


def _sheet_center(mean: complex, radius: float) -> HPoint:
    y = radius * math.tan(mean.imag)
    z, x = _cosh_sinh(math.hypot(radius, y), mean.real)
    if not abs(mean.imag) < 0.5 * math.pi or z == math.inf:
        raise NumericalError("the mean coordinate names no representable sheet point")
    return HPoint(x, y, z)


def _means(masses, total: float, re, im=None) -> list[complex]:
    """Mass-weighted means of columns of len(masses) values, summed exactly.

    ``re`` and ``im`` (None for real values) hold the columns back to back.
    Where a column's products overflow, it is redone with the masses and the
    total scaled once by the exact power of two that brings the total into
    [0.5, 1); a batch redoes each column alone, with the bits of one column.
    A total already there keeps every product finite, so only rounding takes
    its mean past the range: it is redone from the halved values, doubled and
    held between the values, where a weighted mean lies.
    """
    n, columns = len(masses), len(re) // len(masses)
    try:  # fsum raises past the double range, or over +-inf products
        if columns == 1:
            im_sum = 0.0 if im is None else math.fsum(map(mul, masses, im))
            means = [complex(math.fsum(map(mul, masses, re)) / total, im_sum / total)]
        else:  # zip(*[terms] * n) groups each column's n products
            parts = (re, im or repeat(0.0, len(re)))
            sums = [map(math.fsum, zip(*[map(mul, masses * columns, v)] * n)) for v in parts]
            means = list(map(complex, *(map(truediv, v, repeat(total)) for v in sums)))
        if all(map(cmath.isfinite, means)):
            return means
    except (OverflowError, ValueError):
        pass
    if columns > 1:
        starts = range(0, len(re), n)
        return [_means(masses, total, re[k:k + n], im and im[k:k + n])[0] for k in starts]
    if 0.5 <= total < 1.0:
        parts = []
        for v in (re, im or [0.0]):
            half = math.fsum(map(mul, masses, [0.5 * x for x in v])) / total
            parts.append(min(max(2.0 * half, min(v)), max(v)))
        return [complex(*parts)]
    shift = -math.frexp(total)[1]
    return _means([math.ldexp(m, shift) for m in masses], math.ldexp(total, shift), re, im)


def com_euclidean(masses, positions) -> complex:
    """Flat weighted mean; the zero-curvature limit of com_disk."""
    masses = [check_mass(m) for m in masses]
    total = _total_mass(masses)
    positions = [complex(p) for p in positions]
    _same_count(masses, positions)
    if not positions:
        raise ValidationError("a system needs at least one particle")
    for p in positions:
        if not cmath.isfinite(p):
            raise ValidationError(f"position must be finite, got {p!r}")
    if len(positions) == 1:
        return positions[0]
    return _means(masses, total, [p.real for p in positions], [p.imag for p in positions])[0]


def euclidean_limit_error(masses, positions, radius: float) -> float:
    """|com_disk - com_euclidean| for fixed masses and positions at radius R.

    Decays like (mean(w^3) - mean(w)^3) / (3 R^2) for real positions,
    so quadrupling when R halves.
    """
    system = disk_system(masses, positions, radius)
    return abs(com_disk(system).center - com_euclidean(masses, positions))


def lever_residual(m1, p1, m2, p2, probe, radius: float) -> float:
    """Signed lever imbalance m1 d(p1, c) - m2 d(p2, c) at a probe point c.

    Zero at the balance point when the probe lies on the geodesic
    through the two particles; any disk point is accepted.
    """
    m1 = check_mass(m1)
    m2 = check_mass(m2)
    radius = check_radius(radius)
    p1 = check_disk_point(p1, radius)
    p2 = check_disk_point(p2, radius)
    probe = check_disk_point(probe, radius)
    return m1 * _disk_distance(p1, probe, radius) - m2 * _disk_distance(p2, probe, radius)


def to_disk_system(system: MassedSystem) -> MassedSystem:
    """Re-express a system in disk coordinates (identity for disk input)."""
    if system.model == DISK:
        return system
    return MassedSystem(system.mass_column, _disk_images(system), system.radius, DISK)


def _disk_images(system: MassedSystem) -> tuple[complex, ...]:
    """The positions as disk points: sheet points projected, the others complex."""
    if system.model == HYPERBOLOID:
        return tuple(map(_project, system.position_column, repeat(system.radius)))
    return tuple(map(complex, system.position_column))


def to_hyperboloid_system(system: MassedSystem) -> MassedSystem:
    """Lift a system onto the sheet (identity for hyperboloid input)."""
    if system.model == HYPERBOLOID:
        return system
    points = tuple(map(_unproject, system.position_column, repeat(system.radius)))
    return MassedSystem(system.mass_column, points, system.radius, HYPERBOLOID)


def lever_point(m1, p1, m2, p2, radius: float) -> complex:
    """Balance point on the geodesic segment from p1 to p2, or their common point.

    On the constant-speed geodesic from p1 the residual
    m1 d(p1, c) - m2 d(p2, c) is (m1 + m2) t L - m2 L at parameter t, so
    the balance point is t = m2 / (m1 + m2) in closed form.
    """
    m1 = check_mass(m1)
    m2 = check_mass(m2)
    return _segment(p1, p2, radius).point(m2 / _total_mass((m1, m2)))
