"""Averaging-coordinate center of mass and the lever-rule machinery."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercom import (
    HPoint,
    MassedSystem,
    NumericalError,
    ValidationError,
    arclength_from_pole,
    com_disk,
    com_euclidean,
    com_hyperboloid,
    com_line,
    disk_distance,
    disk_system,
    euclidean_limit_error,
    geodesic_between,
    hyperboloid_system,
    karcher_mean,
    lever_point,
    lever_residual,
    line_system,
    log_ratio,
    log_ratio_inv,
    to_disk_system,
    to_hyperboloid_system,
    unproject,
)

from oracles import (
    arclength_quadrature,
    com_disk_highprec,
    com_hyperboloid_highprec,
    com_line_bisection,
    sheet_distance_highprec,
)

# Balanced partner of mass 2 for mass 1 at 0.5 (R = 1): 2 - sqrt(3),
# frozen from balance_radius_bisection.
PARTNER_12 = 0.2679491924311227

disk_points = st.builds(
    lambda r, a: r * cmath.exp(1j * a),
    st.floats(0.0, 0.99),
    st.floats(0.0, 2.0 * math.pi),
)


def random_disk_system(rng, radius=1.0, max_n=6):
    n = int(rng.integers(1, max_n + 1))
    masses = rng.uniform(0.1, 10.0, n)
    rad = rng.uniform(0.0, 0.95, n) * radius
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    positions = [r * cmath.exp(1j * a) for r, a in zip(rad, ang)]
    return disk_system(masses, positions, radius)


# --- the averaging coordinate -------------------------------------------------


def test_log_ratio_examples():
    assert log_ratio(0j, 1.0) == 0j
    assert log_ratio(0.5, 1.0).real == pytest.approx(
        arclength_quadrature(0.0, 0.5, 1.0), abs=1e-13
    )
    assert log_ratio(0.5, 1.0).imag == 0.0
    value = log_ratio(0.5j, 1.0)
    assert value.real == pytest.approx(0.0, abs=1e-16)
    assert value.imag == pytest.approx(2.0 * math.atan(0.5), rel=1e-15)


def test_log_ratio_equals_pole_arclength_on_diameter():
    for u in (-0.9, -0.2, 0.1, 0.7):
        assert log_ratio(u, 1.0).real == pytest.approx(
            arclength_from_pole(u, 1.0), rel=1e-14
        )


@settings(max_examples=200, deadline=None)
@given(w=disk_points)
def test_log_ratio_symmetries_and_strip(w):
    value = log_ratio(w, 1.0)
    assert abs(value.imag) < 0.5 * math.pi
    assert abs(log_ratio(-w, 1.0) + value) <= 1e-13 * max(1.0, abs(value))
    assert abs(log_ratio(w.conjugate(), 1.0) - value.conjugate()) <= 1e-13 * max(
        1.0, abs(value)
    )


def test_log_ratio_domain_error():
    with pytest.raises(ValidationError):
        log_ratio(1.0 + 0j, 1.0)


def test_log_ratio_inv_examples():
    assert log_ratio_inv(0.0, 1.0) == 0j
    assert log_ratio_inv(math.log(3.0), 1.0) == pytest.approx(0.5 + 0j, rel=1e-15)
    assert log_ratio_inv(0.9272952180016122j, 1.0) == pytest.approx(
        0.5j, rel=1e-15
    )
    with pytest.raises(ValidationError):
        log_ratio_inv(1.0 + 1.6j, 1.0)


@pytest.mark.parametrize(
    "v", [complex(math.nan, 0.0), complex(-math.inf, 0.3), complex(math.inf, 0.0)]
)
def test_log_ratio_inv_rejects_coordinates_that_are_not_finite(v):
    # nan+0j returned nan+nanj, and -inf+0.3j the rim point -1+0j.
    with pytest.raises(ValidationError, match="not a finite point"):
        log_ratio_inv(v, 1.0)


@settings(max_examples=200, deadline=None)
@given(w=disk_points)
def test_log_ratio_roundtrip(w):
    assert abs(log_ratio_inv(log_ratio(w, 1.0), 1.0) - w) <= 1e-12


# --- 1D center ----------------------------------------------------------------


def test_com_line_single_particle_exact():
    assert com_line(line_system([3.0], [0.7], 1.0)) == 0.7
    # Int inputs come back in the line's stored form, a float.
    center = com_line(line_system([3], [0], 1))
    assert type(center) is float and repr(center) == "0.0"


@pytest.mark.parametrize("radius", [1, np.float64(1.0)], ids=["int", "float64"])
def test_system_keeps_the_checked_radius(radius):
    systems = [
        line_system([1.0], [0.5], radius),
        disk_system([1.0], [0.5j], radius),
        hyperboloid_system([1.0], [(0.0, 0.0, 1.0)], radius),
    ]
    for system in systems:
        assert type(system.radius) is float and system.radius == 1.0


def test_com_line_symmetric_pair():
    assert com_line(line_system([1.0, 1.0], [0.5, -0.5], 1.0)) == pytest.approx(
        0.0, abs=1e-15
    )


def test_com_line_balanced_unequal_pair():
    u = com_line(line_system([1.0, 2.0], [0.5, -PARTNER_12], 1.0))
    assert u == pytest.approx(0.0, abs=1e-13)


def test_com_line_matches_bisection_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        masses = rng.uniform(0.2, 5.0, n)
        positions = rng.uniform(-0.9, 0.9, n)
        ours = com_line(line_system(masses, positions, 1.0))
        oracle = com_line_bisection(list(masses), list(positions), 1.0)
        assert ours == pytest.approx(oracle, abs=1e-12)


def test_system_validation():
    with pytest.raises(ValidationError):
        line_system([], [], 1.0)
    with pytest.raises(ValidationError):
        line_system([1.0, -1.0], [0.1, 0.2], 1.0)
    with pytest.raises(ValidationError):
        line_system([1.0], [1.5], 1.0)
    with pytest.raises(ValidationError):
        disk_system([1.0], [0.5], 0.0)
    with pytest.raises(ValidationError):
        com_line(disk_system([1.0], [0.5], 1.0))


def test_system_builders_count_the_particles_before_converting_them():
    with pytest.raises(ValidationError, match="^1 masses for 2 positions$"):
        disk_system([1.0], ["x", 0.5], 1.0)
    with pytest.raises(ValidationError, match="^1 masses for 2 positions$"):
        com_euclidean([1.0], [0.1, 0.2])


def test_system_rejects_an_unknown_model_tag():
    with pytest.raises(ValidationError, match="unknown model tag 'sphere'"):
        MassedSystem((1.0,), (0.1,), 1.0, "sphere")


def test_hyperboloid_system_holds_float_coordinates():
    # Int coordinates were kept as given: this barycenter was
    # HPoint(x=0, y=0, z=1).
    system = hyperboloid_system([1], [(0, 0, 1)], 1)
    assert all(type(c) is float for p in system.position_column for c in p)
    assert repr(karcher_mean(system)) == "HPoint(x=0.0, y=0.0, z=1.0)"
    assert repr(com_hyperboloid([1], [(0, 0, 1)], 1)) == "HPoint(x=0.0, y=0.0, z=1.0)"


# --- disk center --------------------------------------------------------------


def test_com_disk_single_particle_exact():
    com = com_disk(disk_system([2.0], [0.3 + 0.1j], 1.0))
    assert com.center == 0.3 + 0.1j
    assert com.total_mass == 2.0
    # Int inputs come back in the disk's stored form, a complex, also
    # from a system whose column holds the caller's int.
    for system in (disk_system([2], [0], 1), MassedSystem((2.0,), (0,), 1)):
        center = com_disk(system).center
        assert type(center) is complex and repr(center) == "0j"


def test_com_disk_antipodal_pair():
    for w in (0.5 + 0j, 0.3 + 0.4j, 0.7j):
        com = com_disk(disk_system([1.0, 1.0], [w, -w], 1.0))
        assert abs(com.center) <= 1e-14


def test_com_disk_equilateral_value():
    # Frozen from 50-digit evaluation: tanh(log(1.125 / 0.875) / 6).
    positions = [0.5 * cmath.exp(2j * math.pi * k / 3.0) for k in range(3)]
    com = com_disk(disk_system([1.0, 1.0, 1.0], positions, 1.0))
    assert com.center.real == pytest.approx(0.04186126023461038, abs=1e-13)
    assert abs(com.center.imag) <= 1e-15


def test_com_disk_matches_highprec_oracle():
    rng = np.random.default_rng(22)
    for _ in range(40):
        system = random_disk_system(rng)
        ours = com_disk(system).center
        oracle = com_disk_highprec(
            system.masses(), system.positions(), system.radius
        )
        assert abs(ours - oracle) <= 1e-13


def test_com_disk_real_closure_matches_line():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        masses = rng.uniform(0.1, 8.0, n)
        positions = rng.uniform(-0.95, 0.95, n)
        com = com_disk(disk_system(masses, [complex(u) for u in positions], 1.0))
        assert abs(com.center.imag) <= 1e-15
        assert com.center.real == pytest.approx(
            com_line(line_system(masses, positions, 1.0)), abs=1e-12
        )


def test_com_disk_permutation_bit_identical():
    rng = np.random.default_rng(24)
    for _ in range(25):
        system = random_disk_system(rng, max_n=8)
        order = rng.permutation(len(system.particles))
        shuffled = disk_system(
            [system.particles[i].mass for i in order],
            [system.particles[i].position for i in order],
            system.radius,
        )
        assert com_disk(shuffled).center == com_disk(system).center


def test_com_disk_mass_scale_invariance():
    rng = np.random.default_rng(25)
    for _ in range(25):
        system = random_disk_system(rng)
        for scale in (7.0, 1e-6, 1e6):
            scaled = disk_system(
                [scale * m for m in system.masses()],
                system.positions(),
                system.radius,
            )
            assert abs(com_disk(scaled).center - com_disk(system).center) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(w1=disk_points, w2=disk_points, m1=st.floats(0.1, 10.0), m2=st.floats(0.1, 10.0))
def test_com_disk_oddness_property(w1, w2, m1, m2):
    com = com_disk(disk_system([m1, m2], [w1, w2], 1.0)).center
    mirrored = com_disk(disk_system([m1, m2], [-w1, -w2], 1.0)).center
    assert abs(mirrored + com) <= 1e-14


def test_com_disk_conjugation_equivariance():
    rng = np.random.default_rng(26)
    for _ in range(40):
        system = random_disk_system(rng)
        conjugated = disk_system(
            system.masses(),
            [complex(p).conjugate() for p in system.positions()],
            system.radius,
        )
        assert (
            abs(com_disk(conjugated).center - com_disk(system).center.conjugate())
            <= 1e-14
        )


# --- hyperboloid center and converters ----------------------------------------


def test_com_hyperboloid_single_exact():
    p = unproject(0.2 + 0.3j, 1.0)
    assert com_hyperboloid([1.5], [p], 1.0) == p
    # Int coordinates come back in the sheet's stored form, an HPoint of floats.
    center = com_hyperboloid([1], [(0, 0, 1)], 1)
    assert repr(center) == "HPoint(x=0.0, y=0.0, z=1.0)"


def test_com_hyperboloid_symmetric_pair_at_pole():
    points = [unproject(0.5 + 0j, 1.0), unproject(-0.5 + 0j, 1.0)]
    center = com_hyperboloid([1.0, 1.0], points, 1.0)
    assert center == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)


def test_com_hyperboloid_balanced_diametric_pair_at_pole():
    points = [unproject(0.5 + 0j, 1.0), unproject(-PARTNER_12 + 0j, 1.0)]
    center = com_hyperboloid([1.0, 2.0], points, 1.0)
    assert center == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)


def _sheet_point(distance, heading, radius):
    """The sheet point ``distance`` R from the pole at the given heading."""
    reach = radius * math.sinh(distance)
    return (
        reach * math.cos(heading),
        reach * math.sin(heading),
        radius * math.cosh(distance),
    )


@pytest.mark.parametrize("pool", ["headings", "x-axis", "pole-pair"])
def test_com_hyperboloid_far_systems_match_the_oracle(pool):
    # Points 30R to 40R from the pole project into the disk's rim band;
    # through the disk they were rejected as "not inside the disk".
    # The bound is the one of test_centers_equal_validating_coordinate_maps:
    # a double places a point at height z only to about 1e-16 z.
    rng = np.random.default_rng(61)
    for _ in range(30):
        radius = float(rng.choice((0.5, 1.0, 10.0)))
        if pool == "pole-pair":
            headings = [float(rng.uniform(0.0, 2.0 * math.pi))]
        elif pool == "x-axis":
            headings = [float(rng.choice((0.0, math.pi))) for _ in range(5)]
        else:
            headings = [float(h) for h in rng.uniform(0.0, 2.0 * math.pi, 5)]
        points = [
            _sheet_point(float(rng.uniform(30.0, 40.0)), h, radius) for h in headings
        ]
        if pool == "pole-pair":
            points.insert(0, (0.0, 0.0, radius))
        masses = [float(m) for m in rng.uniform(0.1, 10.0, len(points))]
        center = com_hyperboloid(masses, points, radius)
        expected = com_hyperboloid_highprec(masses, points, radius)
        error = sheet_distance_highprec(center, expected, radius)
        assert error <= 1e-15 * max(radius, center.z)


def test_com_hyperboloid_accepts_a_point_whose_squares_overflow():
    # 460R out x^2 overflows; the quadric test of the rescaled point
    # accepts it, and the band coordinate a = asinh(x / R) = 460 holds.
    far = (math.sinh(460.0), 0.0, math.cosh(460.0))
    points = [(0.0, 0.0, 1.0), far]
    center = com_hyperboloid([1.0, 1.0], points, 1.0)
    assert math.asinh(center.x) == pytest.approx(230.0, rel=1e-15)
    assert center.y == 0.0
    expected = com_hyperboloid_highprec([1.0, 1.0], points, 1.0)
    assert sheet_distance_highprec(center, expected, 1.0) <= 1e-15 * center.z
    assert com_hyperboloid([2.0], [far], 1.0) == HPoint(*far)


def test_com_hyperboloid_center_on_the_band_rim_is_a_numerical_error():
    # atan(y / R) rounds to pi/2 for y > 5.8e15 R: the mean b of these
    # points is the band's rim, and no sheet point is returned for it.
    points = [(0.0, 1e17, 1e17), (0.0, 2e17, 2e17)]
    with pytest.raises(NumericalError, match="no representable sheet point"):
        com_hyperboloid([1.0, 3.0], points, 1.0)


def test_com_hyperboloid_past_the_double_range_of_sinh_matches_the_oracle():
    # At R = 1e-100 a point 711R out has x / R = sinh(711) > 2^1024: its
    # band coordinate a = asinh(x / R) read inf, and the center raised
    # NumericalError, or ended in "-inf + inf in fsum" for points on
    # opposite sides, though every coordinate is about 3e208.  A mean a
    # near 711 carries an ulp of 1.1e-13, and each far read rounds three
    # times (ln |x| + ln(2 / rho)): the worst error is 5.5e-14 R.
    radius = 1e-100
    far = radius * math.exp(355.5) * (0.5 * math.exp(355.5))  # R sinh(711)
    for points in (
        [(far, 0.0, far), (far, 0.0, far)],
        [(far, 0.0, far), (-far, 0.0, far)],
        [(far, 0.0, far), (far * math.cos(0.3), far * math.sin(0.3), far)],
        [(far, 0.0, far), _sheet_point(1.0, 2.0, radius)],
    ):
        center = com_hyperboloid([1.0, 2.0], points, radius)
        expected = com_hyperboloid_highprec([1.0, 2.0], points, radius)
        assert sheet_distance_highprec(center, expected, radius) <= 2e-13 * radius


@pytest.mark.parametrize("model", ["line", "disk"])
def test_center_whose_weighted_coordinates_overflow_matches_the_oracle(model):
    # m v passes the double range at these masses although the total
    # does not: the exact sum raised ValueError ("-inf + inf in fsum"),
    # or read inf, and the center was a NumericalError.
    build = {"line": line_system, "disk": disk_system}[model]
    for masses, positions in (
        ([8e307, 8e307], [0.9, -0.9]),
        ([8e307, 8e307], [0.9, 0.0]),
        ([1.5e308, 1e307], [0.9, -0.9]),
    ):
        system = build(masses, positions, 1.0)
        center = com_line(system) if model == "line" else com_disk(system).center
        assert abs(center - com_disk_highprec(masses, positions, 1.0)) <= 1e-15
    # R tanh((1.4 / 1.6) atanh 0.9)
    assert center == pytest.approx(0.8586522980197282, rel=1e-15)


def _near_pole_pool(line, count=200):
    """|w| / R log-uniform in [1e-12, 1e-3], R log-uniform in [1e-3, 1e3]."""
    rng = np.random.default_rng(11)
    for _ in range(count):
        radius = 10.0 ** rng.uniform(-3.0, 3.0)
        n = int(rng.integers(2, 7))
        masses = [float(m) for m in rng.uniform(0.1, 10.0, n)]
        moduli = radius * 10.0 ** rng.uniform(-12.0, -3.0, n)
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        if line:
            positions = [float(r * np.sign(np.cos(a))) for r, a in zip(moduli, angles)]
        else:
            positions = [float(r) * cmath.exp(1j * float(a)) for r, a in zip(moduli, angles)]
        yield masses, positions, radius


def _swept_pool(line):
    """The README pair and masses 1, 2 at 0.5, 0.1, at radii up to 1e17."""
    for masses, positions in (([1.0, 2.0], [0.5, -PARTNER_12]), ([1.0, 2.0], [0.5, 0.1])):
        for radius in (10.0, 1e3, 1e5, 1e7, 1e8, 1e15, 1e17):
            yield masses, positions, radius


POLE_POOLS = pytest.mark.parametrize(
    "pool", [_near_pole_pool, _swept_pool], ids=["near-pole", "swept"]
)


@POLE_POOLS
def test_com_line_holds_its_digits_for_points_near_the_pole(pool):
    # log((R + u) / (R - u)) rounded the ratio to 1 + 2u/R: relative
    # errors up to 1e-4 in the coordinate, and centers rounded to 0.
    for masses, positions, radius in pool(line=True):
        center = com_line(line_system(masses, positions, radius))
        expected = com_disk_highprec(masses, positions, radius, dps=40).real
        assert abs(center - expected) <= 1e-15 * max(map(abs, positions))


@POLE_POOLS
def test_com_disk_holds_its_digits_for_points_near_the_pole(pool):
    for masses, positions, radius in pool(line=False):
        com = com_disk(disk_system(masses, positions, radius))
        expected = com_disk_highprec(masses, positions, radius, dps=40)
        reach = max(map(abs, positions))
        assert abs(com.center - expected) <= 1e-15 * reach
        mean = 2.0 * cmath.atanh(expected / radius)
        assert abs(com.log_ratio_mean - mean) <= 2e-15 * reach / radius


@pytest.mark.parametrize(
    "build",
    [
        lambda m: disk_system(m, [0.1, -0.2j], 1.0),
        lambda m: line_system(m, [0.1, -0.2], 1.0),
        lambda m: hyperboloid_system(m, [(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)], 1.0),
        lambda m: com_hyperboloid(m, [(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)], 1.0),
        lambda m: com_euclidean(m, [0.1, -0.2j]),
        lambda m: lever_point(m[0], 0.3, m[1], -0.3, 1.0),
    ],
)
def test_total_mass_past_the_double_range_is_an_input_error(build):
    # fsum raised "OverflowError: intermediate overflow in fsum", and
    # lever_point's m1 + m2 rounded to inf: it returned the first particle.
    with pytest.raises(ValidationError, match="total mass exceeds"):
        build([1e308, 1e308])


def test_model_converters_roundtrip():
    system = line_system([1.0, 2.0], [0.3, -0.4], 2.0)
    disk = to_disk_system(system)
    assert disk.positions() == [0.3 + 0j, -0.4 + 0j]
    lifted = to_hyperboloid_system(system)
    back = to_disk_system(lifted)
    for a, b in zip(back.positions(), disk.positions()):
        assert abs(a - b) <= 1e-14
    assert to_hyperboloid_system(lifted) is lifted
    assert to_disk_system(disk) is disk


def test_a_sheet_pair_40r_apart_has_no_disk_system():
    # The far point's image rounds onto the rim, 1 + 0j, which the disk
    # system's own check rejects.
    far = (math.sinh(40.0), 0.0, math.cosh(40.0))
    system = hyperboloid_system([1.0, 2.0], [(0.0, 0.0, 1.0), far], 1.0)
    with pytest.raises(ValidationError, match=r"^point \(1\+0j\) is not inside the disk of radius 1\.0$"):
        to_disk_system(system)


# --- flat mean and the large-radius limit --------------------------------------


def test_com_euclidean_examples():
    assert com_euclidean([1.0], [0.3 + 0.7j]) == 0.3 + 0.7j
    assert com_euclidean([1.0, 1.0], [0.3, 0.5]) == pytest.approx(0.4 + 0j)
    assert com_euclidean([1.0, 2.0], [0j, 0.3j]) == pytest.approx(0.2j)
    # Products m w past the double range: "-inf + inf in fsum".
    assert com_euclidean([1e300, 1e300], [1e50, -1e50]) == 0.0
    assert com_euclidean([1.5e308, 1e307], [1e300j, -1e300j]) == pytest.approx(8.75e299j)
    # A total in [0.5, 1) is not rescaled, and the quotient of this mean of
    # the largest double rounded past it: these read inf+0j and infj.
    top = sys.float_info.max
    masses = [0.3480437853399698, 0.23997044751180435]
    assert com_euclidean(masses, [top, top]) == top
    assert com_euclidean(masses, [top * 1j, top * 1j]) == top * 1j
    # The finite column keeps the bits it has on its own.
    mixed = com_euclidean(masses, [top + top * 1j, top * 1j])
    assert mixed == complex(com_euclidean(masses, [top, 0.0]).real, top)
    with pytest.raises(ValidationError):
        com_euclidean([], [])
    with pytest.raises(ValidationError):
        com_euclidean([0.0], [0j])


@pytest.mark.parametrize(
    "positions", [[math.inf, -math.inf], [math.nan, 0.0], [0.1, complex(0.0, math.inf)]]
)
def test_com_euclidean_rejects_positions_that_are_not_finite(positions):
    # [inf, -inf] ended in "ValueError: -inf + inf in fsum", and
    # [nan, 0] returned nan+0j.
    with pytest.raises(ValidationError, match="position must be finite"):
        com_euclidean([1.0, 1.0], positions)


def test_com_hyperboloid_checks_like_a_system():
    pole = (0.0, 0.0, 1.0)
    # It said "1 masses for 2 points".
    with pytest.raises(ValidationError, match="^1 masses for 2 positions$"):
        com_hyperboloid([1.0], [pole, pole], 1.0)
    # The first particle's bad mass comes before the second one's bad
    # point; every point used to be checked before any mass.
    with pytest.raises(ValidationError, match="mass must be positive"):
        com_hyperboloid([0.0, 1.0], [pole, (1.0, 0.0, 1.0)], 1.0)


def _outcome(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "point", [(0, 0, "1"), None, (0, 0), (0, 0, 5)], ids=["string", "none", "short", "off-sheet"]
)
def test_com_hyperboloid_accepts_and_raises_what_hyperboloid_system_does(point):
    # At a single particle the center is the stored point.  com_hyperboloid
    # raised a raw TypeError on "1", other TypeError and ValueError messages
    # on None and a short tuple, and printed (0, 0, 5) where the system
    # prints (0.0, 0.0, 5.0).
    expected = _outcome(lambda: hyperboloid_system([1], [point], 1.0).position_column[0])
    got = _outcome(lambda: com_hyperboloid([1], [point], 1.0))
    assert got == expected
    assert repr(got) == repr(expected)


def test_limit_error_decreases_quadratically():
    errors = [
        euclidean_limit_error([1.0, 1.0], [0.3, 0.5], radius)
        for radius in (10.0, 20.0, 40.0, 80.0)
    ]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    for ratio in (errors[0] / errors[1], errors[1] / errors[2], errors[2] / errors[3]):
        assert 3.5 <= ratio <= 4.5


def test_limit_error_zero_for_symmetric_pair():
    for radius in (10.0, 20.0, 40.0):
        error = euclidean_limit_error([1.0, 1.0], [0.5, -0.5], radius)
        assert error <= 1e-15 * radius


def test_limit_error_domain():
    with pytest.raises(ValidationError):
        euclidean_limit_error([1.0, 1.0], [0.3, 1.5], 1.0)


# --- lever rule ----------------------------------------------------------------


def test_lever_residual_examples():
    seg = geodesic_between(0.3j, 0.4 + 0j, 1.0)
    mid = seg.point(0.5)
    assert lever_residual(2.0, 0.3j, 2.0, 0.4 + 0j, mid, 1.0) == pytest.approx(
        0.0, abs=1e-12
    )
    assert lever_residual(
        1.0, 0.5 + 0j, 2.0, -PARTNER_12 + 0j, 0j, 1.0
    ) == pytest.approx(0.0, abs=1e-12)
    assert lever_residual(1.0, 0.5 + 0j, 1.0, -0.5 + 0j, 0.1 + 0j, 1.0) < 0.0


def test_lever_residual_reports_the_first_bad_argument():
    # In the order they are checked: each bad argument, then its error.
    bad = {
        "m1": (0.0, "mass must be positive and finite, got 0.0"),
        "m2": (-1.0, "mass must be positive and finite, got -1.0"),
        "radius": (0.0, "curvature radius must be positive and finite, got 0.0"),
        "p1": (2.0, "point (2+0j) is not inside the disk of radius 1.0"),
        "probe": (3.0, "point (3+0j) is not inside the disk of radius 1.0"),
        "p2": (4.0, "point (4+0j) is not inside the disk of radius 1.0"),
    }
    good = {"m1": 1.0, "m2": 2.0, "radius": 1.0, "p1": 0.5, "probe": 0j, "p2": -PARTNER_12}
    args = {name: value for name, (value, _) in bad.items()}
    for name, (_, message) in bad.items():
        with pytest.raises(ValidationError) as raised:
            lever_residual(**args)
        assert str(raised.value) == message
        args[name] = good[name]
    assert lever_residual(**args) == pytest.approx(0.0, abs=1e-12)


def test_lever_point_equal_masses_is_midpoint():
    a, b = 0.3j, 0.4 + 0j
    balance = lever_point(1.0, a, 1.0, b, 1.0)
    mid = geodesic_between(a, b, 1.0).point(0.5)
    assert disk_distance(balance, mid, 1.0) <= 1e-9


def test_lever_point_balanced_diametric_pair():
    balance = lever_point(1.0, 0.5 + 0j, 2.0, -PARTNER_12 + 0j, 1.0)
    assert abs(balance) <= 1e-10


def test_lever_point_generic_pair_contract():
    a, b = 0.3j, 0.4 + 0j
    balance = lever_point(1.0, a, 2.0, b, 1.0)
    assert abs(lever_residual(1.0, a, 2.0, b, balance, 1.0)) < 1e-10
    total = disk_distance(a, b, 1.0)
    on_curve = disk_distance(a, balance, 1.0) + disk_distance(balance, b, 1.0)
    assert abs(on_curve - total) <= 1e-9


def test_lever_point_of_coincident_particles_is_their_point():
    # It raised ValidationError "degenerate geodesic: endpoints (0.3+0j)
    # coincide", blaming a valid pair whose com_disk and karcher_mean are
    # that point.  A geodesic segment still needs two distinct ends, and
    # invalid input is still refused first.
    for w, radius in ((0.3, 1.0), (0.3 - 0.2j, 1.0), (3e-101j, 1e-100), (-5e99 + 1e99j, 1e100)):
        assert lever_point(1.0, w, 2.0, w, radius) == complex(w)
        assert type(lever_point(1.0, w, 2.0, w, radius)) is complex
    assert lever_point(1.0, 0.3 + 0j, 2.0, 0.3 - 0j, 1.0) == 0.3
    with pytest.raises(ValidationError, match="degenerate geodesic"):
        geodesic_between(0.3, 0.3, 1.0)
    with pytest.raises(ValidationError, match="not inside the disk"):
        lever_point(1.0, 1.5, 2.0, 1.5, 1.0)
    with pytest.raises(ValidationError, match="mass must be positive"):
        lever_point(0.0, 0.3, 2.0, 0.3, 1.0)


def test_lever_point_of_close_particles_is_their_balance_point():
    # The geodesic's product (g / R) sinh(tT) sinh(T) underflowed for
    # close particles: the point read the nearer particle, or
    # (b - a) / q and the length underflowed too and the division by
    # zero ended in a traceback.  Here the segment is its chord in
    # doubles, so the balance point is a + (m2 / M)(b - a); bases 0,
    # 0.3 R and 0.9 R off the axis, wherever b - a is a normal double.
    assert lever_point(1.0, 0.3, 2.0, 0.3 + 1e-200j, 1.0) == pytest.approx(
        0.3 + 2e-200j / 3.0, abs=1e-214
    )
    assert lever_point(1.0, 0j, 2.0, 1e-220j, 1e100) == pytest.approx(2e-220j / 3.0, abs=1e-234)
    assert lever_point(1.0, 3e-101, 2.0, 3e-101 + 1e-227j, 1e-100) == pytest.approx(
        3e-101 + 2e-227j / 3.0, abs=1e-241
    )
    for radius in (1e-100, 1.0, 3.0, 1e100):
        for k in range(20, 301):
            for c in (0.0, 0.3, 0.9):
                a = c * radius * cmath.exp(0.7j)
                b = a + 10.0**-k * radius * cmath.exp(1.1j)
                if min(abs((b - a).real), abs((b - a).imag)) < sys.float_info.min:
                    continue
                balance = lever_point(1.0, a, 2.0, b, radius)
                assert abs(balance - (a + 2.0 / 3.0 * (b - a))) <= 1e-14 * abs(b - a)


def test_lever_point_agrees_with_com_on_diametric_pairs():
    rng = np.random.default_rng(27)
    for _ in range(50):
        m1, m2 = rng.uniform(0.2, 5.0, 2)
        u1 = float(rng.uniform(0.05, 0.9))
        u2 = -float(rng.uniform(0.05, 0.9))
        com = com_disk(disk_system([m1, m2], [u1, u2], 1.0)).center
        balance = lever_point(m1, complex(u1), m2, complex(u2), 1.0)
        assert disk_distance(com, balance, 1.0) <= 1e-9


def test_diametric_lever_law_is_iff():
    # The center sits at the origin exactly when m1 s(alpha) = m2 s(r);
    # both directions, on random diametric pairs.
    rng = np.random.default_rng(29)
    for _ in range(100):
        m1, m2 = rng.uniform(0.2, 5.0, 2)
        alpha = float(rng.uniform(0.05, 0.9))
        r = float(rng.uniform(0.05, 0.9))
        center = com_disk(disk_system([m1, m2], [alpha, -r], 1.0)).center
        imbalance = m1 * arclength_from_pole(alpha, 1.0) - m2 * arclength_from_pole(
            r, 1.0
        )
        if abs(imbalance) <= 1e-10:
            assert abs(center) <= 1e-10
        else:
            assert abs(center) > 1e-10
        if abs(center) <= 1e-12:
            assert abs(imbalance) <= 1e-10


def test_containment_randomized():
    rng = np.random.default_rng(28)
    for _ in range(500):
        radius = float(rng.choice((0.5, 1.0, 10.0)))
        system = random_disk_system(rng, radius=radius, max_n=10)
        assert abs(com_disk(system).center) < radius


def test_hyperboloid_system_validation():
    with pytest.raises(ValidationError):
        hyperboloid_system([1.0], [(0.0, 0.0, -1.0)], 1.0)
    with pytest.raises(ValidationError):
        com_hyperboloid([1.0, 2.0], [unproject(0.1, 1.0)], 1.0)
