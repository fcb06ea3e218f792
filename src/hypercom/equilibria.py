"""Balanced configurations and how their center behaves under rotation.

A two-body configuration on a diameter of the disk balances when
m1 s1 = m2 s2, with s = R v the arclength from the pole to each
particle and v = log((R + u) / (R - u)) = 2 atanh(u / R), read in the
atanh form.  Solving the balance for the second radius gives the closed
form r = R tanh((m1 / m2) atanh(alpha / R)), which orders against alpha
exactly opposite to the masses: heavier partner, smaller radius.

Rigidly rotating a configuration and recomputing its center probes
whether the averaging formula commutes with rotations.  It does for
mass-symmetric configurations (the center sits at the origin for every
angle) but not in general; rotation_sweep records the defect curve
instead of asserting it away.  It does commute with the half turn
w -> -w, exactly and in doubles: v is odd in w, and cmath.atanh, the
exact sums and cmath.tanh are odd bit for bit.  So for an even count
(the default 64 angles and every even `equilibrium --angles`)
rotation_sweep evaluates only the first half of its uniform grid;
sample k + N/2 is sample k turned by pi, its center and mean negated
and its defect the same float.  An odd count evaluates every angle.
The columns turned by the cached grid of the last count go to the center
kernel in one call, with the bits of a call per angle.  Turning by 1 + 0j
changes at most the sign of a zero, and fsum reads a zero sum as +0.0,
so for two or more particles angle 0 is the base center, bit for bit.
The same spirit applies to the three-body collinear and equilateral
constructions and to the mirror-symmetric pair, whose center provably
stays on the imaginary axis (the geodesic fixed by x -> -x).  Each of
these builds and validates one system and returns it with its center.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import repeat
from operator import index, mul, neg, sub
from typing import NamedTuple

from .barycenter import (
    DISK,
    CenterOfMass,
    MassedSystem,
    _Checked,
    _centers,
    _require_model,
    _system_center,
    check_mass,
    com_disk,
    disk_system,
    line_system,
)
from .errors import NumericalError, ValidationError
from .geometry import (
    _disk_point,
    _inside,
    _line_coordinate,
    check_interval_point,
    check_radius,
    check_disk_point,
)

__all__ = [
    "BalanceVerdict", "RotationSample", "RotationSweep", "TwoBodyEquilibrium",
    "balance_radius", "classify_balance", "diametric_system", "eulerian_triple",
    "lagrangian_triple", "mirror_pair", "rotation_sweep", "uniform_angles",
]

# Two radii count as equal when they agree to this relative tolerance;
# otherwise the ordering is decided by sign.
EQUALITY_RTOL = 1e-12

# Rotation sweeps default to this many uniform angles in [0, 2*pi).
SWEEP_ANGLES = 64
# and take at most this many: an `equilibrium` call peaks at about 0.8 KB per
# angle (tracemalloc), 54 MB here, and the last grid, 3.3 MB here, stays cached.
MAX_SWEEP_ANGLES = 2**16


def balance_radius(m1: float, m2: float, alpha: float, radius: float) -> float:
    """Radius r at which mass m2 opposite the origin balances m1 at alpha.

    Closed form r = R tanh(m1 v(alpha) / (2 m2)), v = 2 atanh(alpha / R).
    The result is certified: the balance recomputed from the rounded r
    must hold to EQUALITY_RTOL, which fails (NumericalError) once r is
    within about 1e-5 of the rim, where rounding r costs v(r) the digits
    the balance invariant needs.  Extreme mass ratios with alpha near
    the rim land there; the balancing radius exists but doubles cannot
    carry it.
    """
    m1 = check_mass(m1)
    m2 = check_mass(m2)
    radius = check_radius(radius)
    alpha = check_interval_point(alpha, radius)
    if alpha <= 0.0:
        raise ValidationError(f"alpha must be in (0, R), got {alpha!r}")
    v = _line_coordinate(alpha, radius)
    target, twice = _lever_sides(m1, v, m2, 2.0)
    # twice is 0 only for m1 near the top of the doubles and m2 near the
    # bottom, where r is at the rim.
    r = _disk_point(target / twice if twice else math.inf, radius).real
    if not _inside((r,), radius):
        raise NumericalError(
            f"balancing radius for masses ({m1!r}, {m2!r}) at alpha {alpha!r} "
            f"rounds onto the disk boundary"
        )
    # r = 0, a radius that underflowed, balances nothing for alpha > 0,
    # even where v(alpha) underflowed too and both sides read 0.
    if r == 0.0 or not _balanced(m1, v, m2, _line_coordinate(r, radius)):
        raise NumericalError(
            f"balancing radius {r!r} cannot reproduce the lever balance to "
            f"{EQUALITY_RTOL!r} in double precision"
        )
    return r


def _lever_sides(m1: float, v1: float, m2: float, v2: float) -> tuple[float, float]:
    """m1 v1 and m2 v2, both scaled exactly by one power of two.

    Each side is the product of the frexp fractions of m and v, rounded
    once, times a power of two, so no factor overflows or underflows on
    its own.  The shift is taken from the products' exponents and moves
    only those at either end of the doubles: a smaller nonzero side
    below 2^-1020 up into [0.25, 1), both down to keep the larger one
    below 2^1022.  Sides over 2^2042 apart cannot have both.
    """
    sides = []
    for m, v in ((m1, v1), (m2, v2)):
        (fm, em), (fv, ev) = math.frexp(m), math.frexp(v)
        sides.append((fm * fv, em + ev))
    exponents = [e for f, e in sides if f]
    low, high = min(exponents, default=0), max(exponents, default=0)
    shift = min(-low if low < -1020 else 0, 1022 - high)
    return tuple(math.ldexp(f, e + shift) for f, e in sides)


def _balanced(m1: float, v1: float, m2: float, v2: float) -> bool:
    """The lever certificate: m1 v1 and m2 v2 agree to EQUALITY_RTOL."""
    s1, s2 = _lever_sides(m1, v1, m2, v2)
    return abs(s1 - s2) <= EQUALITY_RTOL * max(abs(s1), abs(s2))


class TwoBodyEquilibrium(_Checked):
    """Diametric two-body configuration satisfying the lever balance.

    The balanced pair for m1 at alpha is
    TwoBodyEquilibrium(m1, m2, alpha, balance_radius(m1, m2, alpha, R), R).
    Construction keeps the checked floats of every field.
    """

    __slots__ = _fields = ("m1", "m2", "alpha", "partner_radius", "radius")

    def __init__(self, m1, m2, alpha, partner_radius, radius):
        for name, value in zip(self._fields, (m1, m2, alpha, partner_radius, radius)):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        radius = check_radius(self.radius)
        m1, m2 = check_mass(self.m1), check_mass(self.m2)
        alpha, partner = (
            check_interval_point(u, radius) for u in (self.alpha, self.partner_radius)
        )
        v1, v2 = (_line_coordinate(u, radius) for u in (alpha, partner))
        if not _balanced(m1, v1, m2, v2):
            raise ValidationError(
                f"radii ({self.alpha!r}, {self.partner_radius!r}) do not "
                f"satisfy the lever balance for masses "
                f"({self.m1!r}, {self.m2!r})"
            )
        for name, value in zip(self._fields, (m1, m2, alpha, partner, radius)):
            object.__setattr__(self, name, value)


class BalanceVerdict(NamedTuple):
    """Ordering of the balancing radius against alpha, checked against masses."""

    partner_radius: float
    relation: str  # "less", "equal" or "greater" (partner vs alpha)
    matches_mass_order: bool


def classify_balance(m1, m2, alpha, radius) -> BalanceVerdict:
    """Order the balancing radius against alpha and compare with the masses.

    The heavier second mass balances closer to the origin; equality
    within EQUALITY_RTOL counts as equal radii and should go with equal
    masses.
    """
    r = balance_radius(m1, m2, alpha, radius)
    if abs(r - alpha) <= EQUALITY_RTOL * max(abs(r), abs(alpha)):
        relation = "equal"
    elif r < alpha:
        relation = "less"
    else:
        relation = "greater"
    expected = "less" if m2 > m1 else "greater" if m2 < m1 else "equal"
    return BalanceVerdict(
        partner_radius=r,
        relation=relation,
        matches_mass_order=relation == expected,
    )


def diametric_system(m1, m2, alpha, radius) -> MassedSystem:
    """Balanced pair as a disk system: m1 at +alpha, m2 at -balance_radius."""
    return disk_system([m1, m2], [alpha, -balance_radius(m1, m2, alpha, radius)], radius)


class RotationSample(NamedTuple):
    angle: float
    com: CenterOfMass
    defect: float


class RotationSweep(NamedTuple):
    """Center-of-mass trace of a rigidly rotated system.

    defect(theta) = |com(rotated system) - rotated com(system)|; zero
    everywhere exactly when the averaging formula commutes with the
    rotation family on this system.
    """

    base: CenterOfMass
    samples: tuple[RotationSample, ...]
    max_defect: float
    max_center_abs: float


def _sweep_count(count: int) -> int:
    """count as an integer from 1 to MAX_SWEEP_ANGLES, or a ValidationError."""
    try:
        n = index(count)
    except TypeError:
        n = 0
    if n < 1:
        raise ValidationError(
            f"a rotation sweep needs an integer count of at least one angle, got count {count!r}"
        )
    if n > MAX_SWEEP_ANGLES:
        raise ValidationError(
            f"a rotation sweep takes at most {MAX_SWEEP_ANGLES} angles, got count {count!r}"
        )
    return n


def uniform_angles(count: int) -> list[float]:
    """The uniform grid 2 pi k / count, k = 0, ..., count - 1, for an integer
    count from 1 to MAX_SWEEP_ANGLES; the count is checked before the grid exists."""
    return list(_grid(_sweep_count(count))[0])


@lru_cache(maxsize=1)
def _grid(n: int) -> tuple[tuple[float, ...], tuple[complex, ...]]:
    """The angles 2 pi k / n of a checked count, and the turns exp(i angle) a sweep evaluates."""
    angles = tuple(2.0 * math.pi * k / n for k in range(n))
    return angles, tuple(cmath.exp(1j * a) for a in angles[:n // 2 if n % 2 == 0 else n])


def rotation_sweep(system: MassedSystem, count: int = SWEEP_ANGLES) -> RotationSweep:
    """Recompute the center over rigid rotations by uniform_angles(count).

    A rotation about the origin keeps every point of a validated system
    inside the disk, so the columns turned by the cached grid go to the
    center kernel in one pass, without building and revalidating a
    system per angle.  An even count evaluates only the first half and
    the second is the first turned by pi (see the module docstring); an
    odd count evaluates every angle.
    """
    _require_model(system, DISK)
    angles, turns = _grid(_sweep_count(count))
    masses, total = system.mass_column, system.total_mass
    rotated = [w * turn for turn in turns for w in system.position_column]
    means, centers = _centers(DISK, masses, total, rotated, system.radius)
    base = CenterOfMass(centers[0], means[0], total) if len(masses) > 1 else com_disk(system)
    defects = list(map(abs, map(sub, centers, map(mul, repeat(base.center), turns))))
    max_defect, max_center_abs = max(defects), max(map(abs, centers))
    if len(turns) < len(angles):
        # Sample k + N/2 is on the points of sample k turned by exactly -1.
        means, centers = (*means, *map(neg, means)), (*centers, *map(neg, centers))
        defects *= 2
    # tuple.__new__ builds each record as the NamedTuple's own __new__ does,
    # without a Python call per record.
    coms = map(tuple.__new__, repeat(CenterOfMass), zip(centers, means, repeat(total)))
    samples = tuple(map(tuple.__new__, repeat(RotationSample), zip(angles, coms, defects)))
    return RotationSweep(base, samples, max_defect, max_center_abs)


def eulerian_triple(masses, positions, radius) -> tuple[MassedSystem, CenterOfMass]:
    """Collinear three-body configuration on the real diameter.

    The system is a line system, so its positions are real.  The center
    comes from the 1D averaging formula; the configuration is balanced
    exactly when the averaged coordinate vanishes.
    """
    system = line_system(masses, positions, radius)
    if len(system.mass_column) != 3:
        raise ValidationError("a triple needs exactly three masses and positions")
    mean, center = _system_center(system)
    return system, CenterOfMass(
        center=complex(center), log_ratio_mean=mean, total_mass=system.total_mass
    )


def lagrangian_triple(side, radius) -> tuple[MassedSystem, CenterOfMass]:
    """Unit masses at the vertices of an origin-centered equilateral triangle.

    Positions are side * {1, e^(2 pi i/3), e^(4 pi i/3)}.  The product
    identity prod(R +/- w_k) = R^3 +/- side^3 makes the averaged
    coordinate (1/3) log((R^3 + side^3) / (R^3 - side^3)), which is
    nonzero for side > 0: the center of the rotating triangle is not
    the origin.
    """
    radius = check_radius(radius)
    side = float(side)
    if not 0.0 < side < radius:
        raise ValidationError(f"triangle radius must be in (0, R), got {side!r}")
    positions = [side * cmath.exp(2j * math.pi * k / 3.0) for k in range(3)]
    system = disk_system((1.0, 1.0, 1.0), positions, radius)
    return system, com_disk(system)


def mirror_pair(mass, position, radius) -> tuple[MassedSystem, CenterOfMass]:
    """Equal masses at w and -conj(w), symmetric under x -> -x.

    The averaging coordinate is odd and commutes with conjugation, so
    the averaged value is purely imaginary and the center stays on the
    imaginary axis, the disk image of the geodesic x = 0.
    """
    position = check_disk_point(position, check_radius(radius))
    system = disk_system(
        [mass, mass], [position, -position.conjugate()], radius
    )
    return system, com_disk(system)
