"""Weighted Riemannian barycenter on the hyperboloid sheet.

Independent cross-check for the disk averaging formula: the barycenter
here is the minimizer of sum m_k d(x, x_k)^2, found by gradient
descent through the exponential map, x <- exp_x(step * mean of
m_k log_x(x_k)).  On a globally negatively curved surface the
objective is strictly geodesically convex with Hessian eigenvalues
between 1 and (d/R) coth(d/R), so the minimizer is unique; the step is
the inverse of the mass-weighted mean of (d_k/R) coth(d_k/R), the
local smoothness bound.  For tight clusters that factor is 1 and this
is the plain fixed-point iteration, but a unit step overshoots and
oscillates once points spread beyond about 2R, so the damping is what
makes convergence unconditional.

For two particles the minimizer lies on their geodesic and satisfies
the lever rule m1 d(x, x1) = m2 d(x, x2), so it coincides with
barycenter.lever_point.  For three or more particles off a common
diameter it generally differs from com_disk; the CLI reports that gap
rather than asserting anything about it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .barycenter import HYPERBOLOID, MassedSystem
from .errors import ConvergenceError, NumericalError, ValidationError
from .geometry import (
    HPoint,
    _distance,
    check_hpoint,
    check_radius,
    minkowski_inner,
)

# Tangency of a vector at its base point, relative to the product scale.
TANGENT_TOL = 1e-10


@dataclass(frozen=True)
class TangentVector:
    """Vector in the tangent plane of the sheet at ``base``.

    Tangency means Minkowski-orthogonality to the base point; such
    vectors are spacelike, so their Minkowski norm is a real length.
    """

    base: HPoint
    v: tuple[float, float, float]

    def norm(self) -> float:
        return _norm(self.v)


def _norm(v) -> float:
    return math.sqrt(max(minkowski_inner(v, v), 0.0))


@dataclass(frozen=True)
class KarcherSettings:
    """Stopping rule for the barycenter iteration.

    ``tol`` bounds the Minkowski norm of the mean log vector at the
    output; None means 1e-12 times the radius of the system being
    averaged.
    """

    tol: float | None = None
    max_iter: int = 10_000

    def __post_init__(self):
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValidationError(f"tolerance must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be at least 1, got {self.max_iter!r}")


def _is_tangent(base: HPoint, v, radius: float) -> bool:
    inner = minkowski_inner(base, v)
    scale = (radius * radius) + math.sqrt(
        (base.x * base.x + base.y * base.y + base.z * base.z)
        * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    )
    return not abs(inner) > TANGENT_TOL * scale


def exp_map(vector: TangentVector, radius: float) -> HPoint:
    """Follow the geodesic from the base point for arclength |v|.

    cosh(|v|/R) p + R sinh(|v|/R) v/|v| with |v| the Minkowski norm; the
    zero vector returns the base point itself.
    """
    radius = check_radius(radius)
    base = check_hpoint(vector.base, radius)
    if not _is_tangent(base, vector.v, radius):
        raise ValidationError(
            f"vector {tuple(vector.v)!r} is not tangent at {tuple(base)!r}"
        )
    return _exp(base, vector.v, radius)


def _exp(base: HPoint, v, radius: float) -> HPoint:
    """Kernel of exp_map for a validated base point and tangent vector."""
    norm = _norm(v)
    if norm == 0.0:
        return base
    ch = math.cosh(norm / radius)
    sh = radius * math.sinh(norm / radius) / norm
    vx, vy, vz = v
    return HPoint(ch * base.x + sh * vx, ch * base.y + sh * vy, ch * base.z + sh * vz)


def log_map(p, q, radius: float) -> TangentVector:
    """Tangent vector at p pointing to q with |log_map(p, q)| = d(p, q).

    The direction is the Minkowski projection of q onto the tangent
    plane at p; the map is globally defined and inverts exp_map.
    """
    radius = check_radius(radius)
    p = check_hpoint(p, radius)
    return TangentVector(base=p, v=_log(p, check_hpoint(q, radius), radius))


def _log(p: HPoint, q: HPoint, radius: float) -> tuple[float, float, float]:
    """Kernel of log_map for validated points: the components of the vector."""
    dist = _distance(p, q, radius)
    if dist == 0.0:
        return (0.0, 0.0, 0.0)
    coef = minkowski_inner(p, q) / (radius * radius)
    tx = q.x + coef * p.x
    ty = q.y + coef * p.y
    tz = q.z + coef * p.z
    # The projected chord has Minkowski norm R sinh(d/R) exactly, so the
    # rescale to arclength never squares the (possibly huge) components.
    scale = dist / (radius * math.sinh(dist / radius))
    return (tx * scale, ty * scale, tz * scale)


def _ratio_coth(t: float) -> float:
    # t coth t, extended by its limit 1 at t = 0; the tangential Hessian
    # eigenvalue of half the squared distance at geodesic distance t R.
    if t < 1e-8:
        return 1.0
    return t / math.tanh(t)


def _renormalize(x: float, y: float, z: float, radius: float) -> HPoint:
    # Rescale onto the sheet to kill rounding drift; z > 0 is preserved.
    # Far from the pole z^2 - x^2 - y^2 can cancel to zero or below.
    square = z * z - x * x - y * y
    if not square > 0.0:
        raise NumericalError(
            f"point {(x, y, z)!r} is not timelike in double precision, so it "
            f"cannot be rescaled onto the sheet"
        )
    factor = radius / math.sqrt(square)
    return HPoint(x * factor, y * factor, z * factor)


def _check_iterate(point: HPoint, radius: float) -> None:
    # The solver's own iterate; losing it is a numerical failure, not bad input.
    try:
        check_hpoint(point, radius)
    except ValidationError as exc:
        raise NumericalError(f"barycenter iterate left the sheet: {exc}") from exc


def karcher_mean(
    system: MassedSystem,
    settings: KarcherSettings | None = None,
    initial: HPoint | None = None,
) -> HPoint:
    """Weighted Frechet mean of a hyperboloid-model system.

    Starts from the mass-weighted Minkowski average rescaled onto the
    sheet (always on-sheet and inside the convex hull; ``initial``
    overrides it, and the limit does not depend on the start) and
    iterates until the mean log vector is shorter than the tolerance.
    Raises ConvergenceError, with the last iterate and gradient norm
    attached, if the cap is hit first, and NumericalError if rounding
    takes an iterate off the sheet or a step off its tangent plane.

    The particles were validated when the system was built; the loop
    checks only its own iterate and step, once per iteration.
    """
    if system.model != HYPERBOLOID:
        raise ValidationError(
            f"expected a {HYPERBOLOID!r} system, got {system.model!r}"
        )
    if settings is None:
        settings = KarcherSettings()
    radius = system.radius
    tol = settings.tol if settings.tol is not None else 1e-12 * radius
    points = [p.position for p in system.particles]
    masses = [p.mass for p in system.particles]
    if len(points) == 1:
        return points[0]
    total = math.fsum(masses)
    if initial is not None:
        current = check_hpoint(initial, radius)
    else:
        current = _renormalize(
            math.fsum(m * p.x for m, p in zip(masses, points)) / total,
            math.fsum(m * p.y for m, p in zip(masses, points)) / total,
            math.fsum(m * p.z for m, p in zip(masses, points)) / total,
            radius,
        )
    gradient_norm = math.inf
    for _ in range(settings.max_iter):
        _check_iterate(current, radius)
        logs = [_log(current, p, radius) for p in points]
        gx = math.fsum(m * v[0] for m, v in zip(masses, logs)) / total
        gy = math.fsum(m * v[1] for m, v in zip(masses, logs)) / total
        gz = math.fsum(m * v[2] for m, v in zip(masses, logs)) / total
        # A rounded-negative square means the gradient is at the noise
        # floor; sqrt(|.|) estimates that floor instead of claiming zero.
        gradient_norm = math.sqrt(abs(gx * gx + gy * gy - gz * gz))
        if gradient_norm < tol:
            return current
        # Inverse of the smoothness bound sum of m_k (d_k/R) coth(d_k/R);
        # never above 1, and exactly 1 in the coincident limit.
        smoothness = math.fsum(
            m * _ratio_coth(_norm(v) / radius) for m, v in zip(masses, logs)
        ) / total
        step = 1.0 / smoothness
        v = (step * gx, step * gy, step * gz)
        if not _is_tangent(current, v, radius):
            raise NumericalError(
                f"barycenter step {v!r} left the tangent plane at "
                f"{tuple(current)!r} (gradient norm {gradient_norm!r})"
            )
        moved = _exp(current, v, radius)
        current = _renormalize(moved.x, moved.y, moved.z, radius)
    raise ConvergenceError(
        f"barycenter iteration did not reach {tol!r} within "
        f"{settings.max_iter} steps (gradient norm {gradient_norm!r})",
        last_iterate=current,
        gradient_norm=gradient_norm,
    )
