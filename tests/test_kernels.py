"""Trusted kernels against the validating loops and solvers they replace.

Systems are stored and checked as columns, but hold the values and
raise the first error of the particle-by-particle build.  The centers
and rotation_sweep skip revalidating what the system already validated,
but keep the arithmetic of the validating coordinate maps and of the
per-angle rebuild; the references in tests/oracles.py are those paths,
so agreement is exact equality, not a tolerance.  On an even uniform
grid rotation_sweep evaluates only the first half and turns it by pi:
that half is held to the reference exactly, the second half to the
exact half turn of the first, and every sample to the high-precision
center within a stated bound.  For two or more particles the sweep
reads its base from angle 0, held to com_disk bit for bit, and a batch
whose sums overflow in some columns to the pair rebuilt per angle.
com_hyperboloid averages the band coordinate in the sheet's own x and y
instead of going through the disk, so its centers are held to the
high-precision center within a stated bound, and its errors to the
reference's first error exactly.
karcher_mean takes Newton steps where the reference loop takes damped
gradient steps, and lever_point evaluates a closed form where the
reference bisects, so those agree with their references within rounding.
"""

import cmath
import math
from operator import mul

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercom import (
    CenterOfMass,
    HPoint,
    KarcherResult,
    MassedSystem,
    NumericalError,
    RotationSample,
    ValidationError,
    com_disk,
    com_hyperboloid,
    com_line,
    disk_distance,
    disk_system,
    eulerian_triple,
    hyperboloid_distance,
    hyperboloid_system,
    karcher_mean,
    karcher_solve,
    lever_point,
    line_system,
    project,
    rotate_disk,
    rotation_sweep,
    uniform_angles,
    unproject,
)
from hypercom.barycenter import DISK, _centers
from hypercom.geometry import _asinh_ratio, _cosh_sinh, _sheet_point, _step

from oracles import (
    com_disk_highprec,
    com_disk_reference,
    com_hyperboloid_highprec,
    com_hyperboloid_reference,
    com_line_reference,
    karcher_gradient_norm_highprec,
    karcher_mean_reference,
    lever_point_bisection,
    lever_residual_highprec,
    rotation_sweep_reference,
    sheet_distance_highprec,
    sheet_floor,
    step_highprec,
    system_reference,
)

RADII = (0.5, 1.0, 10.0)
# Disk radius of a point 2.5 R from the pole: pairwise spreads stay <= 5 R.
HALF_SPREAD = math.tanh(1.25)
# Geodesic error of a sheet center, in units of max(R, z).
SHEET_CENTER_RTOL = 1e-15

unit_disk_points = st.builds(
    lambda r, a: r * cmath.exp(1j * a),
    st.floats(0.0, 0.999),
    st.floats(0.0, 2.0 * math.pi),
)


@st.composite
def disk_systems(draw, reach=0.999):
    radius = draw(st.sampled_from(RADII))
    n = draw(st.integers(1, 20))
    masses = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    scale = radius * reach / 0.999
    points = draw(st.lists(unit_disk_points, min_size=n, max_size=n))
    return disk_system(masses, [scale * w for w in points], radius)


@st.composite
def hyperboloid_systems(draw):
    disk = draw(disk_systems(reach=HALF_SPREAD))
    points = [unproject(w, disk.radius) for w in disk.positions()]
    return hyperboloid_system(disk.masses(), points, disk.radius)


@settings(max_examples=150, deadline=None)
@given(system=hyperboloid_systems())
def test_centers_equal_validating_coordinate_maps(system):
    # The disk center keeps the arithmetic of the validating maps.  The
    # sheet center averages the band coordinate in the sheet's own x and
    # y instead, so it is held to the high-precision center.
    radius = system.radius
    masses, points = system.masses(), system.positions()
    disk = disk_system(masses, [project(p, radius) for p in points], radius)
    assert com_disk(disk) == com_disk_reference(disk)
    center = com_hyperboloid(masses, points, radius)
    if len(points) == 1:
        assert center == points[0]
    else:
        expected = com_hyperboloid_highprec(masses, points, radius)
        _assert_near_sheet_center(center, expected, radius)


def _assert_near_sheet_center(center, expected, radius):
    # A double fixes a point at height z only to about 1e-16 z.
    error = sheet_distance_highprec(center, expected, radius)
    assert error <= SHEET_CENTER_RTOL * max(radius, center.z)


@settings(max_examples=150, deadline=None)
@given(system=disk_systems(), count=st.one_of(st.none(), st.integers(1, 12)))
def test_rotation_sweep_equals_per_angle_rebuild(system, count):
    sweep = rotation_sweep(system) if count is None else rotation_sweep(system, count)
    grid = uniform_angles(64 if count is None else count)
    reference = rotation_sweep_reference(system, grid)
    count = len(grid)
    evaluated = count // 2 if count % 2 == 0 else count
    if evaluated == count:
        assert sweep == reference
        return
    assert sweep.base == reference.base
    assert sweep.samples[:evaluated] == reference.samples[:evaluated]
    for first, second in zip(sweep.samples, sweep.samples[evaluated:]):
        # The points of ``first`` turned by exactly -1: the center kernel
        # gives the negated center and mean on them, and the defect is
        # the same float.  repr tells the signs of zeros apart.
        turned = RotationSample(
            angle=second.angle,
            com=CenterOfMass(-first.com.center, -first.com.log_ratio_mean, first.com.total_mass),
            defect=first.defect,
        )
        assert repr(second) == repr(turned)
        rot = -cmath.exp(1j * first.angle)
        points = [w * rot for w in system.position_column]
        mean, center = _centers(DISK, system.mass_column, system.total_mass, points, system.radius)[0]
        assert (center, mean) == (second.com.center, second.com.log_ratio_mean)
    assert [s.angle for s in sweep.samples] == grid
    assert sweep.max_defect == max(s.defect for s in sweep.samples)
    assert sweep.max_center_abs == max(abs(s.com.center) for s in sweep.samples)


@pytest.mark.parametrize(
    "angles, evaluated",
    [(None, 32), (uniform_angles(7), 7), (uniform_angles(8), 4), (uniform_angles(3), 3)],
)
def test_one_particle_sweep_equals_per_angle_rebuild(angles, evaluated):
    # Every column of the batch holds one particle, its own center.
    system = disk_system([2.0], [0.3 + 0.4j], 1.0)
    sweep = rotation_sweep(system) if angles is None else rotation_sweep(system, len(angles))
    reference = rotation_sweep_reference(system, angles)
    assert sweep.base == reference.base
    assert sweep.samples[:evaluated] == reference.samples[:evaluated]
    assert [s.angle for s in sweep.samples] == [s.angle for s in reference.samples]
    for first, second in zip(sweep.samples, sweep.samples[evaluated:]):
        turned = CenterOfMass(-first.com.center, -first.com.log_ratio_mean, first.com.total_mass)
        assert repr(second.com) == repr(turned)
        assert second.defect == first.defect == 0.0
    assert sweep.max_defect == 0.0


def _rebuilt_center(system, angle):
    """com_disk of the system rebuilt with every point turned by the angle."""
    points = [rotate_disk(w, angle) for w in system.position_column]
    return com_disk(disk_system(system.mass_column, points, system.radius))


def _overflowing_columns(system, angles):
    """Angles whose unscaled sums of m h overflow (the rescaled columns)."""
    masses, total = system.mass_column, system.total_mass
    bad = 0
    for angle in angles:
        halves = [cmath.atanh(rotate_disk(w, angle) / system.radius) for w in system.position_column]
        try:
            sums = [math.fsum(map(mul, masses, part)) for part in zip(*((h.real, h.imag) for h in halves))]
            bad += not all(math.isfinite(s / total) for s in sums)
        except OverflowError:
            bad += 1
    return bad


@pytest.mark.parametrize(
    "masses, points, overflowing",
    [
        ((8e307, 8e307), (0.9, -0.9), 0),
        ((1.5e308, 1e307), (0.9, -0.9), 3),
        ((8e307, 8e307), (0.9, 0.5j), 0),
    ],
)
def test_sweep_batch_rescales_only_its_overflowing_columns(masses, points, overflowing):
    # Masses at the top of the double range.  In the second pair some
    # columns of the batch overflow and are rescaled, and the others are
    # not; rotation_sweep_reference sums without rescaling, so each
    # evaluated sample is held to the pair rebuilt at its angle instead.
    system = disk_system(masses, points, 1.0)
    sweep = rotation_sweep(system)
    evaluated = sweep.samples[:32]
    assert _overflowing_columns(system, [s.angle for s in evaluated]) == overflowing
    for sample in evaluated:
        assert repr(sample.com) == repr(_rebuilt_center(system, sample.angle))


@pytest.mark.parametrize(
    "masses, points",
    [
        ((1.0, 2.0), (complex(-0.0, -0.3), complex(-0.0, -0.2))),
        ((1.0, 2.0), (complex(0.4, -0.0), complex(0.3, -0.0))),
        ((1.0, 1.0), (0.5j, complex(-0.0, 0.5))),
        ((2.0,), (complex(-0.0, -0.3),)),
        ((2.0,), (complex(0.4, -0.0),)),
    ],
)
def test_sweep_angle_zero_and_base_keep_their_bits(masses, points):
    # Angle 0 turns each point by 1 + 0j, which flips the sign of these
    # zeros.  For two or more particles the exact sums read every zero
    # sum as +0.0, so the sweep reads its base from angle 0; a single
    # particle is its own center, so its base is the unturned point.
    system = disk_system(masses, points, 1.0)
    for count in (1, 4):
        sweep = rotation_sweep(system, count)
        assert repr(sweep.base) == repr(com_disk(system))
        assert repr(sweep.samples[0].com) == repr(_rebuilt_center(system, 0.0))
        assert sweep.samples[0].defect == 0.0


def test_center_and_sample_records_are_named_tuples():
    com = CenterOfMass(center=0.5 + 0.25j, log_ratio_mean=1 + 0.5j, total_mass=3.0)
    sample = RotationSample(angle=0.5, com=com, defect=0.125)
    # The repr these records had as frozen dataclasses, before they were NamedTuples.
    assert repr(sample) == (
        "RotationSample(angle=0.5, com=CenterOfMass(center=(0.5+0.25j), "
        "log_ratio_mean=(1+0.5j), total_mass=3.0), defect=0.125)"
    )
    assert com == CenterOfMass(0.5 + 0.25j, 1 + 0.5j, 3.0) == (0.5 + 0.25j, 1 + 0.5j, 3.0)
    assert sample == RotationSample(0.5, com, 0.125)
    assert com != CenterOfMass(0.5 + 0.25j, 1 + 0.5j, 4.0)
    assert hash(com) == hash(CenterOfMass(0.5 + 0.25j, 1 + 0.5j, 3.0))
    assert hash(sample) == hash(RotationSample(0.5, com, 0.125))
    center, mean, total = com
    assert (center, mean, total) == (com.center, com.log_ratio_mean, com.total_mass)
    for record, name in ((com, "center"), (com, "total_mass"), (sample, "com"), (sample, "defect")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)


# Worst |center - com_disk_highprec of the points rotated by the angle| / R
# over 1150 systems (n 1-20, |w| up to 0.999999 R, 16 and 64 uniform
# angles): 5.6e-16 on the evaluated half, 4.8e-15 on the half turned by
# -1, whose points differ from w cmath.exp(i theta) in their last bits;
# near the rim the center magnifies that.  The per-angle rebuild
# differs from the turned half by as much.
SWEEP_EVALUATED_RTOL = 6e-16
SWEEP_TURNED_RTOL = 5e-15


def test_rotation_sweep_against_mpmath():
    rng = np.random.default_rng(61)
    angles = uniform_angles(16)
    for _ in range(100):
        radius = float(rng.choice(RADII))
        n = int(rng.integers(1, 21))
        masses = [float(m) for m in rng.uniform(0.1, 10.0, n)]
        points = [
            radius * 0.999999 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(n)
        ]
        samples = rotation_sweep(disk_system(masses, points, radius), len(angles)).samples
        for k, sample in enumerate(samples):
            rot = cmath.exp(1j * sample.angle)
            expected = com_disk_highprec(masses, [w * rot for w in points], radius)
            bound = SWEEP_EVALUATED_RTOL if k < len(angles) // 2 else SWEEP_TURNED_RTOL
            assert abs(sample.com.center - expected) <= bound * radius


@settings(max_examples=150, deadline=None)
@given(system=hyperboloid_systems())
def test_karcher_mean_equals_public_map_loop(system):
    # Newton steps and the reference's damped steps reach the same
    # minimizer by different arithmetic, so they agree within rounding.
    radius = system.radius
    mean = karcher_mean(system)
    reference = karcher_mean_reference(system)
    assert hyperboloid_distance(mean, reference, radius) <= 1e-10 * radius
    gradient = karcher_gradient_norm_highprec(
        system.masses(), system.positions(), mean, radius
    )
    assert gradient <= 1e-10 * max(radius, mean.z)


@settings(max_examples=150, deadline=None)
@given(system=hyperboloid_systems())
def test_karcher_newton_iterations_inside_the_window(system):
    result = karcher_solve(system)
    assert isinstance(result, KarcherResult)
    assert result.point == karcher_mean(system)
    # A pair is answered in closed form, polished by at most one step.
    assert result.iterations <= (1 if len(system.particles) == 2 else 6)
    assert result.gradient_norm < 1e-12 * system.radius


@settings(max_examples=100, deadline=None)
@given(system=hyperboloid_systems(), data=st.data())
def test_karcher_mean_bit_identical_under_reordering(system, data):
    order = data.draw(st.permutations(range(len(system.particles))))
    masses, points = system.masses(), system.positions()
    shuffled = hyperboloid_system(
        [masses[k] for k in order], [points[k] for k in order], system.radius
    )
    assert karcher_mean(shuffled) == karcher_mean(system)


def _far_pair(spread):
    points = [
        HPoint(0.0, 0.0, 1.0),
        HPoint(math.sinh(spread), 0.0, math.cosh(spread)),
    ]
    return points, hyperboloid_system([1.0, 2.0], points, 1.0)


@pytest.mark.parametrize("spread", [12.0, 15.0, 20.0, 25.0, 40.0])
def test_karcher_far_pair_converges_or_fails_numerically(spread):
    # When the solver cannot place such a mean in double precision, the
    # failure is the solver's, never the input's.
    points, system = _far_pair(spread)
    try:
        mean = karcher_mean(system)
    except NumericalError:
        return
    gradient = karcher_gradient_norm_highprec([1.0, 2.0], points, mean, 1.0)
    assert gradient <= 1e-10 * max(1.0, mean.z)


def _boosted(point, rapidity, heading):
    # Lorentz boost along x by ``rapidity``, then rotation by ``heading``.
    x, y, z = point
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    bx, bz = ch * x + sh * z, sh * x + ch * z
    c, s = math.cos(heading), math.sin(heading)
    return HPoint(c * bx - s * y, s * bx + c * y, bz)


def _off_axis_far_pair(rapidity):
    # A pair 2R apart whose midpoint region lies ``rapidity`` R from the
    # pole off both axes; doubles fix each point only to about
    # 1e-16 sinh(rapidity) R across its heading.
    points = [
        _boosted((0.0, 0.0, 1.0), rapidity, 1.0),
        _boosted((math.sinh(2.0) * math.cos(1.0), math.sinh(2.0) * math.sin(1.0),
                  math.cosh(2.0)), rapidity, 1.0),
    ]
    return points, hyperboloid_system([1.0, 2.0], points, 1.0)


def test_karcher_far_pairs_stop_early():
    # A pair is answered in closed form, in 0 steps or 1 for the polishing
    # step; the Newton iteration took up to 50.  Off the axes a pair 20R
    # out is answered at its rounding floor, above the default tolerance
    # (the iteration raised ConvergenceError when the gradient norm
    # stalled there).
    for spread in range(12, 41, 2):
        _, system = _far_pair(float(spread))
        assert karcher_solve(system).iterations <= 1
    points, system = _off_axis_far_pair(20.0)
    result = karcher_solve(system)
    assert result.iterations <= 1
    assert result.gradient_norm > 1e-12
    gradient = karcher_gradient_norm_highprec([1.0, 2.0], points, result.point, 1.0)
    assert gradient <= sheet_floor([*points, result.point], 1.0)


@pytest.mark.parametrize("rapidity", [10.0, 20.0, 30.0])
def test_step_back_toward_the_pole_against_mpmath(rapidity):
    # Steps of length about a from the point a R out, back toward the
    # pole.  A sum cosh(a) sinh(tau) (de / tau) + sinh(a) cosh(tau)
    # cancels terms of size e^(a + tau): it missed by 3.8e-8 z at a = 10
    # and 8.9e-4 z at a = 20 on this pool.  _step, _pole_log seen from the
    # opposite frame, misses by 1.2e-14 z at a = 30.
    rng = np.random.default_rng(51)
    for _ in range(300):
        heading = rng.uniform(0.0, 2.0 * math.pi)
        ex, ey = math.cos(heading), math.sin(heading)
        tau = rapidity * rng.uniform(0.9, 1.1)
        turn = math.pi + rng.uniform(-1e-3, 1e-3)
        de, dp = tau * math.cos(turn), tau * math.sin(turn)
        want = step_highprec(rapidity, ex, ey, de, dp)
        got = _sheet_point(*_step(rapidity, ex, ey, de, dp), 1.0)
        assert math.dist(got, want) <= 1e-12 * want[2]


def test_scaled_cosh_sinh_past_the_overflow_of_sinh_against_mpmath():
    # cosh and sinh pass the double range at |a| = 710.48 on their own,
    # though R cosh a and R sinh a are finite for R < 1.  Worst relative
    # error over 20 000 draws (|a| in [710.48, 940], finite products):
    # 3.9e-16.  Below the overflow the products keep their bits.
    for scale, a in ((1e-100, 710.5), (1e-100, -711.0), (1e-100, 940.0), (0.25, 711.5)):
        z, s = _cosh_sinh(scale, a)
        with mp.workdps(40):
            want_z, want_s = (float(mp.mpf(scale) * f(a)) for f in (mp.cosh, mp.sinh))
        assert abs(z - want_z) <= 5e-16 * want_z
        assert abs(s - want_s) <= 5e-16 * abs(want_s)
    for scale, a in ((0.7, 0.0), (1e-100, -3.5), (1.0, 710.4)):
        assert _cosh_sinh(scale, a) == (scale * math.cosh(a), scale * math.sinh(a))


def test_asinh_ratio_past_the_double_range_of_the_quotient_against_mpmath():
    # x / rho overflows for a sheet point 711 R out at R = 1e-100, and the
    # band coordinate read inf.  Worst relative error over 20 000 draws
    # (x in 1e208..1e308, x / rho past the double range): 1.7e-16.
    for x, rho in ((3.04e208, 1e-100), (-1.7e308, 2.5e-100), (1e250, 1e-60)):
        with mp.workdps(60):
            want = float(mp.asinh(mp.mpf(x) / mp.mpf(rho)))
        assert abs(_asinh_ratio(x, rho) - want) <= 2e-16 * abs(want)
    assert _asinh_ratio(0.5, 0.7) == math.asinh(0.5 / 0.7)


def _near_rim(rng, radius):
    # |w| = R (1 - delta) with delta log-uniform in [1e-6, 1e-2].
    reach = 1.0 - 10.0 ** rng.uniform(-6.0, -2.0)
    return radius * reach * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def test_lever_point_no_worse_than_bisection_near_the_rim():
    rng = np.random.default_rng(41)
    worst_closed = worst_bisection = 0.0
    for k in range(150):
        radius = float(rng.choice(RADII))
        m1, m2 = (float(m) for m in rng.uniform(0.1, 10.0, 2))
        inner = radius * 0.999999 * math.sqrt(rng.uniform()) * cmath.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi)
        )
        w1, w2 = inner, _near_rim(rng, radius)
        if k % 2:
            w1, w2 = w2, w1
        length = disk_distance(w1, w2, radius)
        scale = (m1 + m2) * max(length, radius)
        closed = lever_point(m1, w1, m2, w2, radius)
        worst_closed = max(
            worst_closed,
            abs(lever_residual_highprec(m1, w1, m2, w2, closed, radius)) / scale,
        )
        try:
            bisected = lever_point_bisection(m1, w1, m2, w2, radius)
        except ValidationError:
            # Bisection probes from a near-rim start can leave the sheet.
            continue
        worst_bisection = max(
            worst_bisection,
            abs(lever_residual_highprec(m1, w1, m2, w2, bisected, radius)) / scale,
        )
    assert worst_closed <= worst_bisection


def _rim_pair(rng, gap, opposite):
    # Both endpoints with 1 - |w| uniform in [gap / 100, gap], R = 1;
    # random headings, or opposite ones (a diameter).
    heading = rng.uniform(0.0, 2.0 * math.pi)
    other = heading + math.pi if opposite else rng.uniform(0.0, 2.0 * math.pi)
    return tuple(
        (1.0 - gap * rng.uniform(0.01, 1.0)) * cmath.exp(1j * h) for h in (heading, other)
    )


@pytest.mark.parametrize(
    "gap, opposite, bound",
    # Worst measured: 3.6e-16 inside; near the rim 1.3e-13, 6.8e-13 and
    # 2.9e-12 for random headings, 4.4e-15, 2.1e-14 and 4.9e-13 on
    # diameters.  Through the lift to the sheet most near-rim pairs
    # raised ValidationError.
    [
        (None, False, 2e-15),
        (1e-4, False, 1e-12),
        (1e-4, True, 1e-13),
        (1e-6, False, 1e-11),
        (1e-6, True, 1e-12),
        (1e-8, False, 3e-11),
        (1e-8, True, 1e-11),
    ],
    ids=["interior", "rim-1e-4", "rim-1e-4-diameter", "rim-1e-6",
         "rim-1e-6-diameter", "rim-1e-8", "rim-1e-8-diameter"],
)
def test_lever_point_balances_near_the_rim(gap, opposite, bound):
    rng = np.random.default_rng(43)
    for _ in range(200):
        if gap is None:
            w1, w2 = (complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(2))
        else:
            w1, w2 = _rim_pair(rng, gap, opposite)
        m1, m2 = (float(m) for m in rng.uniform(0.5, 3.0, 2))
        closed = lever_point(m1, w1, m2, w2, 1.0)
        scale = (m1 + m2) * max(disk_distance(w1, w2, 1.0), 1.0)
        assert abs(lever_residual_highprec(m1, w1, m2, w2, closed, 1.0)) <= bound * scale


BUILDERS = {"line": line_system, "disk": disk_system, "hyperboloid": hyperboloid_system}


@st.composite
def raw_systems(draw, models=tuple(BUILDERS)):
    """Model, masses, positions and radius of a valid system, as plain lists."""
    model = draw(st.sampled_from(models))
    radius = draw(st.sampled_from(RADII))
    n = draw(st.integers(1, 12))
    masses = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    points = [radius * w for w in draw(st.lists(unit_disk_points, min_size=n, max_size=n))]
    if model == "line":
        positions = [w.real for w in points]
    elif model == "disk":
        positions = points
    else:
        positions = [tuple(unproject(w, radius)) for w in points]
    return model, masses, positions, radius


BAD_MASSES = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5, "x")


def _bad_positions(model, radius):
    edge = radius * (1.0 - 1e-13)
    if model == "line":
        return (math.nan, math.inf, -math.inf, radius, -radius, 2.0 * radius, edge, "y")
    if model == "disk":
        return (
            complex(math.nan, 0.0),
            complex(0.0, math.inf),
            complex(radius, 0.0),
            complex(0.0, -edge),
            1.5 * radius * cmath.exp(1j),
            complex(1.7e308, 1.7e308),
            "y",
        )
    far = 30.0  # valid on the sheet, though its disk image lies in the rim band
    return (
        (0.0, 0.0, -radius),
        (0.0, 0.0, 1.1 * radius),
        (math.nan, 0.0, radius),
        (math.inf, 0.0, radius),
        (1e200, 0.0, 5.0 * radius),
        (radius * math.sinh(far), 0.0, radius * math.cosh(far)),
        (1.0, 2.0),
    )


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValidationError, ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(raw=raw_systems())
@example(raw=("hyperboloid", [1.0], [(0, 0, "1")], 1.0))  # stored as HPoint(0.0, 0.0, 1.0)
def test_system_columns_equal_per_particle_build(raw):
    model, masses, positions, radius = raw
    particles = system_reference(masses, positions, radius, model)
    system = BUILDERS[model](masses, positions, radius)
    assert system.particles == particles
    assert repr(system.particles) == repr(particles)
    assert system.masses() == [p.mass for p in particles]
    assert system.positions() == [p.position for p in particles]
    assert system.total_mass == math.fsum(p.mass for p in particles)
    assert system.total_mass == math.fsum(system.mass_column)
    assert (system.radius, system.model) == (radius, model)


@st.composite
def invalid_systems(draw):
    """A raw system with one or two of its masses or positions made invalid."""
    model, masses, positions, radius = draw(raw_systems())
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, len(masses) - 1))
        if draw(st.booleans()):
            masses[k] = draw(st.sampled_from(BAD_MASSES))
        else:
            positions[k] = draw(st.sampled_from(_bad_positions(model, radius)))
    return model, masses, positions, radius


@settings(max_examples=400, deadline=None)
@given(raw=invalid_systems())
@example(raw=("hyperboloid", [1.0, 2.0], [(0.0, 0.0, 1.0), (0, 0, 5)], 1.0))  # off the sheet
def test_invalid_entries_raise_the_per_particle_error(raw):
    model, masses, positions, radius = raw
    kind, expected = _outcome(system_reference, masses, positions, radius, model)
    got_kind, got = _outcome(BUILDERS[model], masses, positions, radius)
    assert got_kind == kind
    if kind == "ok":
        assert got.particles == expected
    else:
        assert got == expected
    if model == "hyperboloid":
        # The same first error, or centers within the sheet bound.
        got_kind, got = _outcome(com_hyperboloid, masses, positions, radius)
        kind, expected = _outcome(com_hyperboloid_reference, masses, positions, radius)
        assert got_kind == kind
        if kind != "ok" or len(positions) == 1:
            assert got == expected
        else:
            _assert_near_sheet_center(got, expected, radius)


@pytest.mark.parametrize("model", BUILDERS)
def test_unconvertible_entries_raise_in_particle_order(model):
    # A position that cannot be converted, before a mass that cannot.
    radius = 1.0
    positions = {"line": [0.1, 0.2, 0.3], "disk": [0.1, 0.2j, 0.3]}.get(
        model, [tuple(unproject(w, radius)) for w in (0.1, 0.2j, 0.3)]
    )
    masses = [1.0, 2.0, "x"]
    positions[1] = _bad_positions(model, radius)[-1]
    expected = _outcome(system_reference, masses, positions, radius, model)
    assert expected[0] is not ValidationError
    assert _outcome(BUILDERS[model], masses, positions, radius) == expected


def test_direct_construction_checks_the_columns():
    system = MassedSystem((1.0, 2.0), (0.5 + 0j, -0.25j), 1.0)
    assert system == disk_system([1, 2], [0.5, -0.25j], 1.0)
    with pytest.raises(ValidationError, match="2 masses for 1 positions"):
        MassedSystem((1.0, 2.0), (0.5 + 0j,), 1.0)
    with pytest.raises(ValidationError, match="not inside the disk"):
        MassedSystem((1.0,), (2.0 + 0j,), 1.0)

@settings(max_examples=150, deadline=None)
@given(raw=raw_systems(models=("line",)))
def test_com_line_equals_generator_loop(raw):
    _, masses, positions, radius = raw
    system = line_system(masses, positions, radius)
    assert com_line(system) == com_line_reference(system)


@settings(max_examples=150, deadline=None)
@given(
    masses=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
    positions=st.lists(st.floats(-0.999, 0.999), min_size=3, max_size=3),
    radius=st.sampled_from(RADII),
)
def test_eulerian_triple_equals_generator_loops(masses, positions, radius):
    # The center and the mean come from one pass of the line kernel; the
    # references are the generator loops that computed them separately.
    positions = [radius * u for u in positions]
    _, com = eulerian_triple(masses, positions, radius)
    total = math.fsum(masses)
    mean = 2.0 * (
        math.fsum(m * math.atanh(u / radius) for m, u in zip(masses, positions)) / total
    )
    center = com_line_reference(line_system(masses, positions, radius))
    assert com == CenterOfMass(complex(center), complex(mean), total)
