"""Weighted Riemannian barycenter on the hyperboloid sheet.

Independent cross-check for the disk averaging formula: the barycenter
here is the minimizer of sum m_k d(x, x_k)^2 (Karcher, CPAM 1977),
found by Newton's method in the weights m_k / M, M the total mass,
which keep m t^2 finite near the double range.  Each iteration
applies the Lorentz boost that sends the iterate to the pole (0, 0, R),
where the log of particle k is the planar vector d_k u_k and the tangent
Hessian of half the weighted mean of d_k^2 is the weighted mean of
u_k u_k^T + (d_k/R) coth(d_k/R) (I - u_k u_k^T).  Both of its
eigenvalues are at least 1, so the objective is strictly geodesically
convex, the minimizer is unique and the Newton direction points
downhill.  The step is taken by the exponential map at the pole and
boosted back.  Far from the minimizer a Newton step can overshoot; when
the objective rises, the iteration returns to the point it left and
takes the damped gradient step instead, of length 1 / mean of
(d_k/R) coth(d_k/R), the local smoothness bound.

The boost is the geometry module's sheet kernel _pole_log, and the
step back is _step, the same kernel seen from the opposite frame; both
read each point's rapidity asinh(r/R) and xy heading, never differences
of ambient coordinates, so what rounding costs grows with a particle's
distance from the iterate rather than from the pole.  log_map (through
_sheet_log) and exp_map are thin wrappers over them, in the base's frame
that both kernels use, and raise _polar's NumericalError for a rapidity
that is not a double.  A particle at rapidity b, t R from the iterate,
is fixed only to R u sinh(b) across its heading (u = 2^-53), which moves
its log by R u sinh(b) t / sinh(t); the iterate's heading adds
R u sinh(a).  As b <= a + t, the gradient's rounding is at most
R u e^a (1 + rms of t): the floor at which karcher_solve answers.

Particles on one geodesic, any two or all at headings +-e of the
heaviest as in every lifted line system, need no iteration: their logs
from a point of it are collinear, the Hessian is 1 along them, and the
minimizer is the point at the weighted mean signed arclength, for a pair
the lever point m1 d(x, x1) = m2 d(x, x2) of barycenter.lever_point.
karcher_solve steps there from the heaviest particle by the mean of its
logs; where the floor is below R, the Newton step (de, dp) there, added
in x and y as R (cosh(a) de e + dp e'), e' the heading e turned a right
angle, polishes the last bits.  Off one geodesic the minimizer generally
differs from com_disk; the CLI reports that gap rather than asserting it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .barycenter import HYPERBOLOID, MassedSystem, _require_model
from .errors import ConvergenceError, NumericalError, ValidationError
from .geometry import (
    HPoint,
    _cosh_sinh,
    _on_sheet,
    _pole_log,
    _polar,
    _sheet_log,
    _sheet_point,
    _step,
    check_hpoint,
    check_radius,
)

__all__ = ["KarcherResult", "TangentVector", "exp_map", "karcher_mean", "karcher_solve", "log_map"]

# Safety cap on the barycenter iteration's steps.
MAX_STEPS = 10_000

# The iteration stops once the gradient norm is below this many R.
GRADIENT_TOL = 1e-12


class TangentVector(NamedTuple):
    """Vector in the tangent plane of the sheet at ``base``, in the base's frame.

    ``along`` is its component on the unit tangent at the base that
    points away from the pole (+x at the pole), ``across`` its component
    on that tangent turned a right angle counterclockwise.
    """

    base: HPoint
    along: float
    across: float

    def norm(self) -> float:
        return math.hypot(self.along, self.across)


def exp_map(vector: TangentVector, radius: float) -> HPoint:
    """Follow the geodesic from the base point for arclength |vector|.

    The step of geometry._step by the pole vector (along, across) / R.
    The zero vector returns the base point; an endpoint that is not a
    finite double raises ValidationError.
    """
    radius = check_radius(radius)
    base = check_hpoint(vector.base, radius)
    if vector.norm() == 0.0:
        return base
    try:
        step = _step(*_polar(base, radius), vector.along / radius, vector.across / radius)
        end = _sheet_point(*step, radius)
    except OverflowError:
        end = None
    if end is None or not all(map(math.isfinite, end)):
        raise ValidationError(
            f"vector {(vector.along, vector.across)!r} at {tuple(base)!r} "
            "reaches no finite sheet point"
        )
    return end


def log_map(p, q, radius: float) -> TangentVector:
    """Tangent vector at p pointing to q with |log_map(p, q)| = d(p, q).

    The log R t (along, across) / norm of geometry._sheet_log, whose
    frame is the base's; past that kernel's double range NumericalError.
    """
    radius = check_radius(radius)
    p = check_hpoint(p, radius)
    t, along, across = _sheet_log(p, check_hpoint(q, radius), radius)
    norm = math.hypot(along, across)
    if norm == 0.0:
        return TangentVector(p, 0.0, 0.0)
    return TangentVector(p, radius * t * (along / norm), radius * t * (across / norm))


class KarcherResult(NamedTuple):
    """Barycenter, the number of steps taken to it and its gradient norm."""

    point: HPoint
    iterations: int
    gradient_norm: float


def _minkowski_start(particles) -> tuple[float, float, float]:
    """Polar form of the weighted Minkowski mean, rescaled onto the sheet.

    The rescale needs z - |xy| of the mean vector; summed from the
    positive terms exp(-b) + 2 sinh(b) sin^2(gap/2) of each particle
    (rapidity b, heading gap from the mean's heading), it does not
    cancel to zero for points far from the pole.  Units of R.
    """
    mx = math.fsum(m * sb * ux for m, _, sb, ux, _ in particles)
    my = math.fsum(m * sb * uy for m, _, sb, _, uy in particles)
    r = math.hypot(mx, my)
    if r == 0.0:
        return 0.0, 1.0, 0.0
    vx, vy = mx / r, my / r
    below = math.fsum(
        m * (math.exp(-b) + 0.5 * sb * ((ux - vx) ** 2 + (uy - vy) ** 2))
        for m, b, sb, ux, uy in particles
    )
    above = math.fsum(m * math.cosh(b) for m, b, _, _, _ in particles) + r
    return math.asinh(r / math.sqrt(below * above)), vx, vy


def _derivatives(particles, a: float, ex: float, ey: float):
    """Objective, gradient, Newton step and smoothness at the iterate (a, ex, ey).

    Means in the weights m / M of the particles seen from the iterate by
    geometry._pole_log, in units of R; the Newton step is H^-1 of the gradient.
    """
    ca, sa = math.cosh(a), math.sinh(a)
    rows = []
    for m, b, sb, ux, uy in particles:
        t, along, across = _pole_log(a, ca, sa, ex, ey, b, 0.25 * sb, ux, uy)
        norm = math.hypot(along, across)
        # A particle at the iterate (t = 0) has any heading; take e.
        vx, vy = (along / norm, across / norm) if norm else (1.0, 0.0)
        # t coth t, 1 at t = 0: the Hessian's eigenvalue across the log.
        f = 1.0 if t < 1e-8 else t / math.tanh(t)
        rows.append((
            m * t * t,
            m * t * vx,
            m * t * vy,
            m * (vx * vx + f * vy * vy),
            m * (1.0 - f) * vx * vy,
            m * (vy * vy + f * vx * vx),
            m * f,
        ))
    objective, ge, gp, hee, hep, hpp, smoothness = [math.fsum(column) for column in zip(*rows)]
    det = hee * hpp - hep * hep
    return objective, ge, gp, (hpp * ge - hep * gp) / det, (hee * gp - hep * ge) / det, smoothness


def _rounding_floor(radius: float, a: float, objective: float) -> float:
    """R 2^-53 e^a (1 + rms of t) at rapidity a, finite past a = 709.8."""
    return sum(_cosh_sinh(radius * 2.0**-53, a)) * (1.0 + math.sqrt(objective))


def karcher_solve(system: MassedSystem) -> KarcherResult:
    """Weighted Frechet mean of a hyperboloid-model system, with its statistics.

    Particles on one geodesic are answered in closed form (module
    docstring), in 0 steps or 1 for the polishing step; where their logs
    pass the double range (beyond about 710 R apart), by the iteration.
    It starts from the mass-weighted Minkowski average rescaled onto the
    sheet (always on-sheet and inside the convex hull) and takes Newton
    steps until the mean log vector is shorter than GRADIENT_TOL R.  A
    Newton step that raises the objective is replaced by the damped
    gradient step from the point it left.  Once the smallest gradient
    norm seen is below its iterate's rounding floor, the first
    evaluation that does not lower it returns that iterate.  Raises
    ConvergenceError after MAX_STEPS steps, with the iterate of smallest
    gradient norm, that norm and the step count attached; raises
    NumericalError if a particle's rapidity is not a double
    (geometry._polar), or if rounding takes an iterate off the sheet or
    overflows the gradient.

    The particles were validated when the system was built; the loop
    checks only its own iterate, once per iteration.
    """
    _require_model(system, HYPERBOLOID)
    radius = system.radius
    tol = GRADIENT_TOL * radius
    points = system.position_column
    if len(points) == 1:
        return KarcherResult(points[0], 0, 0.0)
    # Weights m / M: masses scaled by a power of two give the same bits.
    particles = []
    for m, p in zip(system.mass_column, points):
        b, ux, uy = _polar(p, radius)
        particles.append((m / system.total_mass, b, math.sinh(b), ux, uy))
    _, a, _, ex, ey = max(particles)  # the heaviest; of equal weights the farthest out
    if len(particles) == 2 or all((ux, uy) in ((ex, ey), (-ex, -ey)) for *_, ux, uy in particles):
        # On one geodesic: the closed form, polished in x and y where its floor is below R.
        a, ex, ey = _step(a, ex, ey, *_derivatives(particles, a, ex, ey)[1:3])
        objective, _, _, de, dp, _ = _derivatives(particles, a, ex, ey)
        point, steps, at = _sheet_point(a, ex, ey, radius), 0, (a, ex, ey)
        if _rounding_floor(radius, a, objective) < radius:
            z, s = _cosh_sinh(radius, a)
            x = s * ex + (z * de * ex - radius * dp * ey)
            y = s * ey + (z * de * ey + radius * dp * ex)
            point, steps = HPoint(x, y, math.hypot(radius, x, y)), 1
            at = _polar(point, radius)
        _, ge, gp, *_ = _derivatives(particles, *at)
        norm = radius * math.hypot(ge, gp)
        if norm < math.inf:
            return KarcherResult(point, steps, norm)
    a, ex, ey = _minkowski_start(particles)
    best_norm = math.inf
    # Objective and damped step at the point the last Newton step left.
    left = None
    steps = 0
    while True:
        point = _sheet_point(a, ex, ey, radius)
        if not _on_sheet(*point, radius):  # the solver's own failure, not bad input
            raise NumericalError(
                f"barycenter iterate left the sheet: point {tuple(point)!r} "
                f"is not on the upper sheet for radius {radius!r}"
            )
        objective, ge, gp, de, dp, smoothness = _derivatives(particles, a, ex, ey)
        gradient_norm = radius * math.hypot(ge, gp)
        if not math.isfinite(gradient_norm):
            raise NumericalError(
                f"barycenter gradient at {tuple(point)!r} is not finite"
            )
        if gradient_norm < tol:
            return KarcherResult(point, steps, gradient_norm)
        if gradient_norm < best_norm:
            best_norm, best, best_at = gradient_norm, (point, steps), (a, objective)
        elif best_norm < _rounding_floor(radius, *best_at):
            return KarcherResult(*best, best_norm)
        if steps == MAX_STEPS:
            raise ConvergenceError(
                f"barycenter iteration did not reach {tol!r} within "
                f"{MAX_STEPS} steps (gradient norm {best_norm!r})",
                last_iterate=best[0],
                gradient_norm=best_norm,
                iterations=steps,
            )
        if left is not None and objective > left[0]:
            # The Newton step went uphill: take the damped gradient step
            # from the point it left instead.
            _, a, ex, ey, (de, dp) = left
            left = None
        else:
            # Take the Newton step; keep for the fallback the gradient step
            # over the smoothness bound, the mean of (d_k/R) coth(d_k/R) >= 1.
            damped = (ge / smoothness, gp / smoothness)
            left = (objective, a, ex, ey, damped)
        a, ex, ey = _step(a, ex, ey, de, dp)
        steps += 1


def karcher_mean(system: MassedSystem) -> HPoint:
    """Weighted Frechet mean of a hyperboloid-model system: karcher_solve's point."""
    return karcher_solve(system).point
