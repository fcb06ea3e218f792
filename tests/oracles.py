"""Independent numeric oracles used by the tests.

Everything here deliberately avoids the code paths it checks:
arclengths come from adaptive quadrature of the conformal line element,
balance points from bisection on the lever relation, and the averaging
formula from 30+ digit complex arithmetic.  Values frozen into tests
were produced by these functions.

The reference loops at the end are different in kind: they rebuild the
systems particle by particle, and the centers, the rotation sweep and
the damped barycenter iteration from the validating public functions
only.  The library's column-checked systems, trusted-kernel centers and
sweep are held to exact equality with them (the same values, or the
same first error); its Newton barycenter, to the same point within
rounding.  The sheet center reference raises the same first error, and
its center is the high-precision com_hyperboloid_highprec.
"""

import math

import mpmath as mp


def arclength_quadrature(u1, u2, radius, dps=30):
    """Arclength between interval coordinates by quadrature of the metric."""
    with mp.workdps(dps):
        rr = mp.mpf(radius) ** 2
        value = mp.quad(lambda t: 2 * rr / (rr - t * t), [mp.mpf(u1), mp.mpf(u2)])
        return float(value)


def com_disk_highprec(masses, points, radius, dps=30):
    """Averaged-coordinate center evaluated in high-precision arithmetic."""
    with mp.workdps(dps):
        r = mp.mpf(radius)
        total = mp.fsum(mp.mpf(m) for m in masses)
        mean = (
            mp.fsum(
                mp.mpf(m) * mp.log((r + mp.mpc(w)) / (r - mp.mpc(w)))
                for m, w in zip(masses, points)
            )
            / total
        )
        return complex(r * mp.tanh(mean / 2))


def com_line_bisection(masses, positions, radius, dps=30):
    """1D center by bisection on the summed lever relation.

    The center u solves sum m_k (s(u) - s(u_k)) = 0 with s the (log
    form) arclength from the pole; the left side is strictly increasing
    in u, so plain interval halving finds it without ever inverting the
    relation in closed form.
    """
    with mp.workdps(dps):
        r = mp.mpf(radius)

        def s(u):
            return r * mp.log((r + u) / (r - u))

        def imbalance(u):
            return mp.fsum(mp.mpf(m) * (s(u) - s(mp.mpf(p))) for m, p in zip(masses, positions))

        lo = -r * (1 - mp.mpf("1e-25"))
        hi = r * (1 - mp.mpf("1e-25"))
        for _ in range(200):
            mid = (lo + hi) / 2
            if imbalance(mid) < 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def balance_radius_bisection(m1, m2, alpha, radius, dps=30):
    """Partner radius from bisection on m1 s(alpha) - m2 s(r) = 0.

    s is read as 2 R atanh(u / R), whose digits do not depend on how far
    u lies inside R.  The radius can lie far below R (u / R ~ 1e-100 at
    R = 1e100, or m1 << m2), so the precision and the number of halvings
    of [0, R) are sized to the smaller of alpha / R and (m1 / m2) alpha / R,
    which bounds r / R from below up to a factor near 1.
    """
    with mp.workdps(dps):
        scale = min(1, mp.mpf(m1) / mp.mpf(m2)) * mp.mpf(alpha) / mp.mpf(radius)
        digits = dps + max(0, int(-mp.log10(scale)) + 1)
    with mp.workdps(digits):
        r = mp.mpf(radius)
        target = mp.mpf(m1) * mp.atanh(mp.mpf(alpha) / r)

        def excess(x):
            return mp.mpf(m2) * mp.atanh(x / r) - target

        lo = mp.mpf(0)
        hi = r * (1 - mp.mpf("1e-25"))
        for _ in range(int(digits * 3.33) + 10):
            mid = (lo + hi) / 2
            if excess(mid) < 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def euclidean_limit_error_highprec(masses, points, radius, dps=50):
    """Distance between the curved and flat weighted means, high precision."""
    with mp.workdps(dps):
        total = mp.fsum(mp.mpf(m) for m in masses)
        flat = (
            mp.fsum(mp.mpf(m) * mp.mpc(w) for m, w in zip(masses, points)) / total
        )
        r = mp.mpf(radius)
        mean = (
            mp.fsum(
                mp.mpf(m) * mp.log((r + mp.mpc(w)) / (r - mp.mpc(w)))
                for m, w in zip(masses, points)
            )
            / total
        )
        return float(abs(r * mp.tanh(mean / 2) - flat))


def karcher_gradient_norm_highprec(masses, points, point, radius, dps=None):
    """Minkowski norm of the mass-weighted mean log vector at ``point``.

    Zero exactly at the weighted Frechet mean.  Each log vector is
    (d / (R sinh(d/R))) (q - c p) with c = -<p, q>/R^2 and d = R acosh c,
    evaluated in high precision (None: the digits of _sheet_dps over the
    particles and ``point``) for the sheet points over the input (x, y).
    Far out, the z of a double triple is off the sheet by rounding that
    the inner product multiplies by the other point's height, so z is
    recomputed rather than taken as given.
    """
    with mp.workdps(dps or _sheet_dps([*points, point], radius)):
        r = mp.mpf(radius)

        def inner(a, b):
            return a[0] * b[0] + a[1] * b[1] - a[2] * b[2]

        def on_sheet(p):
            x, y = mp.mpf(p[0]), mp.mpf(p[1])
            return [x, y, mp.sqrt(r * r + x * x + y * y)]

        x = on_sheet(point)
        grad = [mp.mpf(0)] * 3
        for m, q in zip(masses, points):
            q = on_sheet(q)
            c = -inner(x, q) / (r * r)
            if c <= 1:
                continue
            d = r * mp.acosh(c)
            scale = mp.mpf(m) * d / (r * mp.sinh(d / r))
            grad = [grad[k] + scale * (q[k] - c * x[k]) for k in range(3)]
        total = mp.fsum(mp.mpf(m) for m in masses)
        grad = [g / total for g in grad]
        return float(mp.sqrt(abs(inner(grad, grad))))


def sheet_floor(points, radius):
    """Rounding floor R u max(1, sinh a_max) of sheet points, u = 2^-53.

    a_max is the largest rapidity asinh(|xy| / R) among ``points``; one
    rounding of that point's heading moves it about this far.  As
    R sinh(asinh(rho / R)) = rho, it is u max(R, largest |xy|), finite
    for every point doubles can hold.
    """
    return 2.0**-53 * max(radius, *(math.hypot(p[0], p[1]) for p in points))


def pair_mean_highprec(masses, points, radius):
    """Barycenter of two sheet points by the lever rule, in high precision.

    The point (sinh((1 - f) d) P + sinh(f d) Q) / sinh d at the fraction
    f = m2 / M of the geodesic from P to Q, d their distance in units of
    R, with z recomputed on the sheet for both as in
    sheet_distance_highprec; never the log of the library's kernels.
    Returns the (x, y, z) mpf triple.
    """
    with mp.workdps(_sheet_dps(points, radius)):
        r = mp.mpf(radius)
        f = mp.mpf(masses[1]) / (mp.mpf(masses[0]) + mp.mpf(masses[1]))
        p, q = ([mp.mpf(a[0]), mp.mpf(a[1])] for a in points)
        for a in (p, q):
            a.append(mp.sqrt(r * r + a[0] * a[0] + a[1] * a[1]))
        d = mp.acosh(max(1, (p[2] * q[2] - p[0] * q[0] - p[1] * q[1]) / (r * r)))
        if d == 0:
            return tuple(p)
        return tuple((mp.sinh((1 - f) * d) * a + mp.sinh(f * d) * b) / mp.sinh(d) for a, b in zip(p, q))


def line_mean_highprec(masses, points, radius):
    """Barycenter of sheet points on the x axis (y = 0), in high precision.

    On that geodesic the signed rapidity asinh(x / R) is the signed
    arclength from the pole in units of R, so the barycenter lies at the
    mass-weighted mean rapidity.  Returns the (x, y, z) mpf triple.
    """
    with mp.workdps(_sheet_dps(points, radius)):
        r = mp.mpf(radius)
        total = mp.fsum(mp.mpf(m) for m in masses)
        mean = mp.fsum(mp.mpf(m) * mp.asinh(mp.mpf(p[0]) / r) for m, p in zip(masses, points)) / total
        return (r * mp.sinh(mean), mp.mpf(0), r * mp.cosh(mean))


def lever_point_bisection(m1, p1, m2, p2, radius, rtol=1e-12, max_steps=200):
    """Two-body balance point by bisection on the geodesic parameter.

    The residual m1 d(p1, c) - m2 d(p2, c) grows strictly from -m2 L at
    p1 to +m1 L at p2; halving stops when it falls below rtol * L, or
    returns the last midpoint when distance rounding keeps it above.
    Uses only geodesic distances, never the closed form t = m2/(m1 + m2).
    """
    from hypercom import geodesic_between, lever_residual

    segment = geodesic_between(p1, p2, radius)
    target = rtol * segment.length
    lo, hi = 0.0, 1.0
    probe = segment.point(0.5)
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        probe = segment.point(mid)
        residual = lever_residual(m1, p1, m2, p2, probe, radius)
        if abs(residual) < target:
            break
        if residual < 0.0:
            lo = mid
        else:
            hi = mid
    return probe


def lever_residual_highprec(m1, p1, m2, p2, probe, radius, dps=40):
    """m1 d(p1, c) - m2 d(p2, c) from the disk distance formula in mpmath."""
    with mp.workdps(dps):
        return float(
            mp.mpf(m1) * _disk_distance_mp(p1, probe, radius)
            - mp.mpf(m2) * _disk_distance_mp(p2, probe, radius)
        )


def unproject_highprec(w, radius, dps=40):
    """Sheet point (x, y, z) over the disk point w, as three floats."""
    with mp.workdps(dps):
        r, w = mp.mpf(radius), mp.mpc(w)
        ww = abs(w) ** 2
        d = r * r - ww
        lifted = (2 * r * r * w.real / d, 2 * r * r * w.imag / d, r * (r * r + ww) / d)
        return tuple(float(c) for c in lifted)


def disk_distance_highprec(a, b, radius, dps=40):
    """Disk distance R acosh(1 + 2 R^2 |a - b|^2 / ((R^2 - |a|^2)(R^2 - |b|^2)))."""
    with mp.workdps(dps):
        return float(_disk_distance_mp(a, b, radius))


def disk_distance_asinh_highprec(a, b, radius, dps=50):
    """Disk distance 2 R asinh(R |a - b| / sqrt((R^2 - |a|^2)(R^2 - |b|^2))).

    The asinh form keeps close points apart where 1 + gap in the acosh
    form rounds to 1 even at 40 digits.
    """
    with mp.workdps(dps):
        r = mp.mpf(radius)
        a, b = mp.mpc(a), mp.mpc(b)
        roots = mp.sqrt((r * r - abs(a) ** 2) * (r * r - abs(b) ** 2))
        return float(2 * r * mp.asinh(r * abs(a - b) / roots))


def _disk_distance_mp(a, b, radius):
    r = mp.mpf(radius)
    a, b = mp.mpc(a), mp.mpc(b)
    gap = 2 * r * r * abs(a - b) ** 2 / ((r * r - abs(a) ** 2) * (r * r - abs(b) ** 2))
    return r * mp.acosh(1 + gap)


def system_reference(masses, positions, radius, model):
    """Particles of a system, converted and checked one particle at a time.

    Each mass becomes a float and each position a complex, float or
    HPoint as its model asks, particle by particle; then the radius and
    the particle count are checked, and every particle's
    mass and position in order, so the first invalid entry raises.
    Returns the tuple of Particle records.
    """
    from hypercom import HPoint, Particle, ValidationError
    from hypercom.barycenter import check_mass
    from hypercom.geometry import (
        check_disk_point,
        check_hpoint,
        check_interval_point,
        check_radius,
    )

    coerce = {"line": float, "disk": complex, "hyperboloid": lambda p: HPoint(*map(float, p))}
    masses, positions = list(masses), list(positions)
    if len(masses) != len(positions):
        raise ValidationError(f"{len(masses)} masses for {len(positions)} positions")
    particles = tuple(
        Particle(float(m), coerce[model](p)) for m, p in zip(masses, positions)
    )
    check_radius(radius)
    if not particles:
        raise ValidationError("a system needs at least one particle")
    check_position = {
        "line": check_interval_point,
        "disk": check_disk_point,
        "hyperboloid": check_hpoint,
    }[model]
    for particle in particles:
        check_mass(particle.mass)
        check_position(particle.position, radius)
    return particles


def _sheet_dps(points, radius):
    """40 digits plus twice the decimal exponent of the farthest reach / R.

    A point at height z projects to 1 - |w| / R of about R / z, and the
    inner product of two such points cancels z^2 / R^2.
    """
    reach = max(max(abs(p[0]), abs(p[1]), radius) for p in points)
    return 40 + 2 * math.ceil(math.log10(reach) - math.log10(radius))


def com_hyperboloid_highprec(masses, points, radius):
    """Averaging center of sheet points, as a high-precision sheet point.

    Each point is projected into the disk in high precision from its x
    and y, with z recomputed on the sheet: far out, the double z can
    round onto the light cone, and rounded to doubles the projected
    points beyond about 29R land in the rim band.  The mean of
    log((R + w) / (R - w)) is mapped back by R tanh(v / 2) and lifted.
    Returns the (x, y, z) mpf triple; measure against it with
    sheet_distance_highprec.
    """
    with mp.workdps(_sheet_dps(points, radius)):
        r = mp.mpf(radius)
        total = mp.fsum(mp.mpf(m) for m in masses)
        mean = mp.fsum(
            mp.mpf(m) * mp.log((r + w) / (r - w))
            for m, w in zip(masses, (_disk_image_highprec(p, r) for p in points))
        ) / total
        w = r * mp.tanh(mean / 2)
        ww = abs(w) ** 2
        d = r * r - ww
        return (2 * r * r * w.real / d, 2 * r * r * w.imag / d, r * (r * r + ww) / d)


def _disk_image_highprec(p, r):
    x, y = mp.mpf(p[0]), mp.mpf(p[1])
    z = mp.sqrt(r * r + x * x + y * y)
    return mp.mpc(r * x / (r + z), r * y / (r + z))


def sheet_distance_highprec(p, q, radius):
    """Geodesic distance between sheet points given by their x and y.

    z is recomputed on the sheet for both, so a double triple is
    measured at the sheet point over its (x, y).
    """
    with mp.workdps(_sheet_dps([p, q], radius)):
        r = mp.mpf(radius)
        (px, py), (qx, qy) = (mp.mpf(p[0]), mp.mpf(p[1])), (mp.mpf(q[0]), mp.mpf(q[1]))
        pz = mp.sqrt(r * r + px * px + py * py)
        qz = mp.sqrt(r * r + qx * qx + qy * qy)
        gap = (pz * qz - px * qx - py * qy) / (r * r)
        return float(r * mp.acosh(max(gap, 1)))


def log_map_highprec(p, q, radius):
    """Log map at p of q for sheet points given by their x and y.

    The ambient vector (d / (R sinh(d/R))) (q - c p) with
    c = -<p, q>/R^2 and d = R acosh c, in high precision, with z
    recomputed on the sheet for both points as in sheet_distance_highprec,
    then projected onto the unit tangents E_r = (cosh(a) e, sinh a) and
    E_theta = (-e_y, e_x, 0) at p (rapidity a, heading e; e = (1, 0) at
    the pole) by the Minkowski form.  Returns (along, across) as floats.
    """
    with mp.workdps(_sheet_dps([p, q], radius)):
        r = mp.mpf(radius)
        p, q = ([mp.mpf(a[0]), mp.mpf(a[1])] for a in (p, q))
        for a in (p, q):
            a.append(mp.sqrt(r * r + a[0] * a[0] + a[1] * a[1]))
        c = (p[2] * q[2] - p[0] * q[0] - p[1] * q[1]) / (r * r)
        if c <= 1:
            return (0.0, 0.0)
        d = r * mp.acosh(c)
        scale = d / (r * mp.sinh(d / r))
        v = [scale * (b - c * a) for a, b in zip(p, q)]
        rho = mp.hypot(p[0], p[1])
        ex, ey = (p[0] / rho, p[1] / rho) if rho else (mp.mpf(1), mp.mpf(0))
        along = (v[0] * ex + v[1] * ey) * p[2] / r - v[2] * rho / r
        return float(along), float(v[1] * ex - v[0] * ey)


def step_highprec(a, ex, ey, de, dp, dps=60):
    """Sheet point (x, y, z) / R that geometry._step reaches, in high precision.

    The pole point exp(tau u) of the pole vector (de, dp), u in the basis
    (e, e turned by a right angle), boosted along e by rapidity +a as a
    Lorentz matrix, not through the rapidity-and-heading kernel.  The
    heading e is normalized first.  Returns three floats.
    """
    with mp.workdps(dps):
        a, ex, ey, de, dp = (mp.mpf(c) for c in (a, ex, ey, de, dp))
        norm = mp.hypot(ex, ey)
        ex, ey = ex / norm, ey / norm
        tau = mp.hypot(de, dp)
        along, across, z = de * mp.sinh(tau) / tau, dp * mp.sinh(tau) / tau, mp.cosh(tau)
        along, z = mp.cosh(a) * along + mp.sinh(a) * z, mp.sinh(a) * along + mp.cosh(a) * z
        return float(along * ex - across * ey), float(along * ey + across * ex), float(z)


def com_hyperboloid_reference(masses, points, radius):
    """Sheet center with every check made one particle at a time.

    Checked as hyperboloid_system checks: the particles of
    system_reference, so the first invalid entry raises as it does there.
    A single particle is its own center, in floats; otherwise the center
    is com_hyperboloid_highprec.
    """
    from hypercom import HPoint

    particles = system_reference(masses, points, radius, "hyperboloid")
    if len(particles) == 1:
        return HPoint(*map(float, particles[0].position))
    return com_hyperboloid_highprec(
        [p.mass for p in particles], [p.position for p in particles], radius
    )


def com_line_reference(system):
    """Line center from a generator over the particles, summed exactly.

    The mean is taken of half the coordinate, atanh(u / R), as the
    library takes it: where the products m h are subnormal, m (2h) and
    2 (m h) round differently.
    """
    radius = system.radius
    particles = system.particles
    if len(particles) == 1:
        return float(particles[0].position)
    total = math.fsum(p.mass for p in particles)
    mean = math.fsum(p.mass * math.atanh(p.position / radius) for p in particles) / total
    return radius * math.tanh(mean)


def com_disk_reference(system):
    """Disk center from the validating log_ratio and log_ratio_inv.

    Averages half of each log_ratio (halving 2h is exact) for the reason
    given in com_line_reference.
    """
    from hypercom import CenterOfMass, log_ratio, log_ratio_inv

    radius = system.radius
    masses = system.masses()
    total = math.fsum(masses)
    if len(masses) == 1:
        w = complex(system.positions()[0])
        return CenterOfMass(
            center=w, log_ratio_mean=log_ratio(w, radius), total_mass=total
        )
    halves = [0.5 * log_ratio(w, radius) for w in system.positions()]
    mean = 2.0 * complex(
        math.fsum(m * h.real for m, h in zip(masses, halves)) / total,
        math.fsum(m * h.imag for m, h in zip(masses, halves)) / total,
    )
    return CenterOfMass(
        center=log_ratio_inv(mean, radius), log_ratio_mean=mean, total_mass=total
    )


def rotation_sweep_reference(system, angles=None):
    """Rotation sweep that rebuilds and recenters a disk system per angle."""
    from hypercom import RotationSample, RotationSweep, disk_system, rotate_disk

    if angles is None:
        angles = [2.0 * math.pi * k / 64 for k in range(64)]
    base = com_disk_reference(system)
    samples = []
    for angle in angles:
        rotated = disk_system(
            system.masses(),
            [rotate_disk(p, angle) for p in system.positions()],
            system.radius,
        )
        com = com_disk_reference(rotated)
        defect = abs(com.center - rotate_disk(base.center, angle))
        samples.append(RotationSample(angle=angle, com=com, defect=defect))
    return RotationSweep(
        base=base,
        samples=tuple(samples),
        max_defect=max(s.defect for s in samples),
        max_center_abs=max(abs(s.com.center) for s in samples),
    )


def karcher_mean_reference(system, tol=None, max_iter=10_000):
    """Damped Karcher iteration built from the public log_map and exp_map.

    Gradient descent from the normalized Minkowski mean with step
    1 / mean of m_k (d_k/R) coth(d_k/R), an independent route to the
    point hypercom.karcher_mean reaches by Newton steps; returns the
    point, or None when the iteration stops without reaching the
    tolerance.
    """
    from hypercom import HPoint, TangentVector, exp_map, log_map

    radius = system.radius
    tol = tol if tol is not None else 1e-12 * radius
    points = system.positions()
    masses = system.masses()
    if len(points) == 1:
        return points[0]
    total = math.fsum(masses)

    def renormalize(x, y, z):
        factor = radius / math.sqrt(z * z - x * x - y * y)
        return HPoint(x * factor, y * factor, z * factor)

    def ratio_coth(t):
        return 1.0 if t < 1e-8 else t / math.tanh(t)

    current = renormalize(
        math.fsum(m * p.x for m, p in zip(masses, points)) / total,
        math.fsum(m * p.y for m, p in zip(masses, points)) / total,
        math.fsum(m * p.z for m, p in zip(masses, points)) / total,
    )
    for _ in range(max_iter):
        # Logs taken at one base share its frame, so their components add.
        logs = [log_map(current, p, radius) for p in points]
        along = math.fsum(m * t.along for m, t in zip(masses, logs)) / total
        across = math.fsum(m * t.across for m, t in zip(masses, logs)) / total
        if math.hypot(along, across) < tol:
            return current
        smoothness = math.fsum(
            m * ratio_coth(t.norm() / radius) for m, t in zip(masses, logs)
        ) / total
        step = 1.0 / smoothness
        moved = exp_map(TangentVector(current, step * along, step * across), radius)
        current = renormalize(moved.x, moved.y, moved.z)
    return None
